#include "jafar/datapath.h"

#include <cstring>
#include <utility>

#include "fault/injector.h"
#include "jafar/datapath_impl.h"
#include "jafar/device.h"
#include "util/macros.h"

namespace ndp::jafar {

// ---------------------------------------------------------------------------
// Shell forwarders. DatapathModel is Device's only friend; every concrete
// generation reaches the shell through these.

const DeviceConfig& DatapathModel::config() const { return dev_->config_; }

DeviceStats& DatapathModel::stats() { return dev_->stats_; }

sim::EventQueue* DatapathModel::eq() const { return dev_->eq_; }

uint32_t DatapathModel::rank_index() const { return dev_->rank_index_; }

uint32_t DatapathModel::channel_index() const { return dev_->channel_index_; }

dram::DramSystem& DatapathModel::dram() { return *dev_->dram_; }

dram::Channel& DatapathModel::channel() { return dev_->channel(); }

const dram::DramTiming& DatapathModel::timing() const { return dev_->timing(); }

sim::Tick DatapathModel::BusCycles(uint32_t n) const {
  return dev_->BusCycles(n);
}

bool DatapathModel::is_rowstore() const { return dev_->rowstore_.has_value(); }

bool DatapathModel::is_probe() const { return dev_->probe_.has_value(); }

const SelectJob& DatapathModel::select_job() const { return *dev_->select_; }

const RowStoreJob& DatapathModel::rowstore_job() const {
  return *dev_->rowstore_;
}

const ProbeJob& DatapathModel::probe_job() const { return *dev_->probe_; }

bool DatapathModel::EvalColumnValue(int64_t v) const {
  if (dev_->probe_.has_value()) return dev_->EvalProbeKey(v);
  const SelectJob& job = *dev_->select_;
  return EvalCompare(job.op, v, job.range_low, job.range_high);
}

bool DatapathModel::EvalTuple(uint64_t tuple_addr) const {
  bool pass = true;
  for (const RowPredicate& p : dev_->rowstore_->predicates) {
    int64_t v = static_cast<int64_t>(Read64(tuple_addr + p.attr_offset_bytes));
    pass = pass && EvalCompare(p.op, v, p.range_low, p.range_high);
  }
  return pass;
}

uint64_t DatapathModel::cursor_rows() const { return dev_->cursor_rows_; }

void DatapathModel::set_cursor_rows(uint64_t rows) {
  dev_->cursor_rows_ = rows;
}

sim::Tick DatapathModel::engine_ready_at() const {
  return dev_->engine_ready_at_;
}

void DatapathModel::set_engine_ready_at(sim::Tick t) {
  dev_->engine_ready_at_ = t;
}

void DatapathModel::add_matches(uint64_t n) {
  dev_->last_matches_ += n;
  dev_->stats_.matches += n;
}

void DatapathModel::AppendBit(bool set) {
  dev_->pending_bits_.SetTo(dev_->pending_bit_count_++, set);
}

uint64_t DatapathModel::pending_bit_count() const {
  return dev_->pending_bit_count_;
}

Device::Lane& DatapathModel::lane(uint32_t i) { return dev_->lane(i); }

void DatapathModel::SetLaneCount(uint32_t n) { dev_->SetLaneCount(n); }

void DatapathModel::BeginProbe() {
  // Filter preload, shared by every generation: announce the load window to
  // the shadow checker, stream the Bloom image out of DRAM with ordinary
  // reads (the timing), latch it into the probe SRAM (the function), close
  // the window, and only then start the generation's scan sequencer.
  const ProbeJob& job = *dev_->probe_;
  channel().NoteProbeFilterLoadStart(rank_index(), eq()->Now());
  dev_->probe_sram_.assign(job.filter_words, 0);
  uint64_t bursts = (job.filter_words * 8 + 63) / 64;
  lane().ReadBurstChain(job.filter_base, bursts, [this](sim::Tick) {
    const ProbeJob& j = *dev_->probe_;
    for (uint64_t w = 0; w < j.filter_words; ++w) {
      dev_->probe_sram_[w] = Read64(j.filter_base + w * 8);
    }
    channel().NoteProbeFilterLoadDone(rank_index());
    BeginScan();
  });
}

void DatapathModel::FlushBitmap(Continuation next) { dev_->FlushBitmap(next); }

void DatapathModel::FinishJob() { dev_->FinishJob(); }

void DatapathModel::FailJob(Status st) { dev_->FailJob(std::move(st)); }

void DatapathModel::ReadBurstBytes(uint64_t burst_addr,
                                   unsigned char* out) const {
  dev_->dram_->backing_store().Read(burst_addr, out, kBurstBytes);
}

int64_t DatapathModel::DecodeValue(const unsigned char* p) const {
  if (dev_->config_.elem_bytes == 8) {
    int64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  int32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t DatapathModel::Read64(uint64_t addr) const {
  return dev_->dram_->backing_store().Read64(addr);
}

bool DatapathModel::DrawStallAtBurst() {
#ifdef NDP_FAULT_INJECT
  if (dev_->injector_ != nullptr) return dev_->injector_->DrawStallAtBurst();
#endif
  return false;
}

bool DatapathModel::HandleReadFault(uint64_t burst_addr) {
#ifdef NDP_FAULT_INJECT
  if (dev_->injector_ != nullptr) return dev_->HandleReadFault(burst_addr);
#endif
  (void)burst_addr;
  return true;
}

bool DatapathModel::RefreshClaims() const {
  return dev_->dram_->controller(dev_->channel_index_)
      .RefreshClaims(dev_->rank_index_);
}

// ---------------------------------------------------------------------------
// Factory: the ONE sanctioned generation-dispatch site.

std::unique_ptr<DatapathModel> MakeDatapathModel(DeviceGeneration gen,
                                                 Device* dev) {
  switch (gen) {  // ndp-lint: generation-dispatch-ok (this is the factory)
    case DeviceGeneration::kV1RankIo:
      return MakeV1RankIoDatapath(dev);
    case DeviceGeneration::kV2BankLevel:
      return MakeV2BankLevelDatapath(dev);
  }
  NDP_CHECK_MSG(false, "unknown device generation");
  return nullptr;
}

}  // namespace ndp::jafar
