#include "dram/address.h"

#include <cstdio>

#include "util/macros.h"

namespace ndp::dram {

const char* InterleaveSchemeToString(InterleaveScheme scheme) {
  switch (scheme) {
    case InterleaveScheme::kContiguous: return "contiguous";
    case InterleaveScheme::kChannelBurst: return "channel-interleaved-64B";
    case InterleaveScheme::kChannelWord: return "channel-interleaved-8B";
  }
  return "?";
}

AddressMapper::AddressMapper(const DramOrganization& org, InterleaveScheme scheme)
    : org_(org), scheme_(scheme) {
  bytes_per_channel_ = org.BytesPerRank() * org.ranks_per_channel;
}

uint64_t AddressMapper::ChannelStrideBytes() const {
  switch (scheme_) {
    case InterleaveScheme::kContiguous: return bytes_per_channel_;
    case InterleaveScheme::kChannelBurst: return org_.BytesPerBurst();
    case InterleaveScheme::kChannelWord: return 8;
  }
  return bytes_per_channel_;
}

Result<DramLocation> AddressMapper::Decode(uint64_t addr) const {
  if (addr >= org_.TotalBytes()) {
    char hex[19];
    std::snprintf(hex, sizeof(hex), "%llx",
                  static_cast<unsigned long long>(addr));
    return Status::OutOfRange(std::string("address 0x") + hex +
                              " beyond installed capacity");
  }
  DramLocation loc;
  uint64_t in_channel;
  if (org_.channels == 1) {
    loc.channel = 0;
    in_channel = addr;
  } else {
    uint64_t stride = ChannelStrideBytes();
    uint64_t chunk = addr / stride;
    if (scheme_ == InterleaveScheme::kContiguous) {
      loc.channel = static_cast<uint32_t>(chunk);
      in_channel = addr % stride;
    } else {
      loc.channel = static_cast<uint32_t>(chunk % org_.channels);
      in_channel = (chunk / org_.channels) * stride + addr % stride;
    }
  }
  // Within a channel: rank : row : bank : burst_col : offset. Each rank is a
  // contiguous region (a whole DIMM side), matching the paper's model of
  // pinning a data region onto the DIMM JAFAR sits on; within a rank,
  // sequential addresses walk a full row and then switch banks so streaming
  // agents can overlap activation with transfer.
  uint32_t bpb = org_.BytesPerBurst();
  loc.offset = static_cast<uint32_t>(in_channel % bpb);
  uint64_t bursts = in_channel / bpb;
  loc.burst_col = static_cast<uint32_t>(bursts % org_.BurstsPerRow());
  uint64_t rows = bursts / org_.BurstsPerRow();
  loc.bank = static_cast<uint32_t>(rows % org_.banks_per_rank);
  uint64_t bank_rows = rows / org_.banks_per_rank;
  loc.row = static_cast<uint32_t>(bank_rows % org_.rows_per_bank);
  loc.rank = static_cast<uint32_t>(bank_rows / org_.rows_per_bank);
  NDP_CHECK(loc.rank < org_.ranks_per_channel);
  return loc;
}

uint64_t AddressMapper::Encode(const DramLocation& loc) const {
  uint64_t bank_rows =
      static_cast<uint64_t>(loc.rank) * org_.rows_per_bank + loc.row;
  uint64_t rows = bank_rows * org_.banks_per_rank + loc.bank;
  uint64_t bursts = rows * org_.BurstsPerRow() + loc.burst_col;
  uint64_t in_channel = bursts * org_.BytesPerBurst() + loc.offset;
  if (org_.channels == 1) return in_channel;
  uint64_t stride = ChannelStrideBytes();
  if (scheme_ == InterleaveScheme::kContiguous) {
    return static_cast<uint64_t>(loc.channel) * stride + in_channel;
  }
  uint64_t chunk = in_channel / stride;
  uint64_t off = in_channel % stride;
  return (chunk * org_.channels + loc.channel) * stride + off;
}

}  // namespace ndp::dram
