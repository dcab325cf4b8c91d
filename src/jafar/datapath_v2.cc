// Generation v2_bank_level: Membrane-style bank-level filtering. A small
// comparator sits in every bank's peripheral logic; the device ARMs a set of
// banks, streams each bank's rows with ordinary RD commands whose bursts are
// consumed *inside* the bank (no IO-bus data transfer), and collects one
// match bit per element in a per-bank accumulator that drains over a narrow
// per-rank result bus when the bank is precharged.
//
// Sequencing: the scan range is contiguous within the rank and the address
// layout walks a full DRAM row before switching banks, so consecutive
// row-sized segments land on distinct banks. The sequencer takes up to
// banks_per_rank consecutive segments per *wave*, runs one command chain per
// segment concurrently (ARM -> ACT -> RD... -> PRE(drain) -> DISARM), and at
// the wave barrier evaluates the covered rows functionally and appends their
// bits to the shared output buffer — all banks are precharged and disarmed at
// a barrier, so bitmap flush writes are always safe there.
//
// Refresh: the host controller refuses to refresh a rank with armed banks
// (the comparator sits on the sense-amp path), so the device checks the
// refresh steal-back signal only *between* waves and runs every mid-chain
// command with defer_to_refresh=false. A wave is bounded by one row's worth
// of reads per bank (~1.3 us), well inside the controller's postponement
// headroom, so refresh is delayed by at most one wave, never livelocked.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "jafar/datapath_impl.h"
#include "sim/event_queue.h"
#include "util/macros.h"

namespace ndp::jafar {

namespace {

class V2BankLevelDatapath final : public DatapathModel {
 public:
  using DatapathModel::DatapathModel;

  DeviceGeneration generation() const override {
    return DeviceGeneration::kV2BankLevel;
  }

  void Attach(const StatsScope& stats) override {
    NDP_CHECK_MSG(config().bank_filter.valid(),
                  "v2_bank_level requires accel-derived bank filter timing "
                  "(build the DeviceConfig with DeviceConfig::DeriveBank)");
    NDP_CHECK(config().bank_words_per_cycle > 0);
    // The config lives by value inside the Device shell, so the timing
    // block's address is stable for the device's lifetime.
    channel().SetBankFilterTiming(rank_index(), &config().bank_filter);
    // One command lane and one segment slot per bank: a wave arms at most
    // every bank once.
    const uint32_t banks = dram().mapper().organization().banks_per_rank;
    NDP_CHECK(banks <= 64);  // the wave's bank mask is one word
    SetLaneCount(banks);
    segs_.resize(banks);
    stats.Counter("filter_bursts", &filter_bursts_);
    stats.Counter("filter_segments", &filter_segments_);
    stats.Counter("bank_waves", &bank_waves_);
  }

  void BeginScan() override;

  void OnJobTeardown() override {
    // Force-release DRAM-side filter state: a failed or aborted job may die
    // with banks still armed (and bits pending), which would wedge host
    // refresh forever. Idempotent; schedules nothing.
    channel().ResetBankFilters(rank_index());
    wave_pending_ = 0;
  }

 private:
  /// One row-sized slice of the scan, filtered by one bank on lane `i` of
  /// the wave (segs_[i]).
  struct Segment {
    uint64_t start = 0;        ///< first byte (within the scan range)
    uint64_t end = 0;          ///< one past the last byte
    dram::DramLocation loc;    ///< bank/row of the first burst
    uint64_t first_burst = 0;  ///< address of the first burst
    uint32_t idx = 0;          ///< next burst of the segment to read
    uint32_t nbursts = 0;
  };

  uint64_t RowSizeBytes() { return dram().mapper().organization().row_size_bytes; }

  void StartWave();
  void RunSegment(uint32_t i);
  void ArmSegment(uint32_t i);
  void Reactivate(uint32_t i);
  void ArmOrReopen(uint32_t i);
  void ReadNext(uint32_t i);
  void DrainSegment(uint32_t i);
  void OnSegmentDone();
  void EvalRange(uint64_t last);

  /// Issues a `type` command for segment `i` on its bank's lane (RD targets
  /// the segment's next burst). Mid-chain commands never defer to a refresh
  /// steal-back (see the file comment).
  void Issue(uint32_t i, dram::CommandType type, Continuation next,
             Continuation on_stale = {}) {
    const Segment& seg = segs_[i];
    dram::Command cmd{type, rank_index(), seg.loc.bank};
    if (type == dram::CommandType::kActivate) cmd.row = seg.loc.row;
    if (type == dram::CommandType::kRead) {
      cmd.row = seg.loc.row;
      cmd.burst_col = seg.loc.burst_col + seg.idx;
    }
    lane(i).IssueWhenReady(cmd, next, on_stale, /*defer_to_refresh=*/false);
  }

  // Scan state staged by BeginScan (one job at a time, like the shell).
  uint64_t base_ = 0;          ///< first byte of the scanned region
  uint64_t stride_bytes_ = 0;  ///< bytes per row element (elem or tuple)
  uint64_t total_rows_ = 0;
  uint64_t scan_end_ = 0;        ///< base_ + total_rows_ * stride_bytes_
  uint64_t next_seg_start_ = 0;  ///< first byte not yet assigned to a wave
  uint64_t wave_covered_end_ = 0;  ///< bytes filtered once this wave drains
  uint32_t wave_pending_ = 0;      ///< segments still in flight in this wave
  std::vector<Segment> segs_;      ///< the wave's segments; sized in Attach

  // Generation-specific lifetime counters (registered in Attach, so a
  // v1 device's stats dump carries no trace of them).
  uint64_t filter_bursts_ = 0;    ///< bursts consumed by in-bank comparators
  uint64_t filter_segments_ = 0;  ///< ARM..DISARM chains completed
  uint64_t bank_waves_ = 0;       ///< wave barriers crossed
};

void V2BankLevelDatapath::BeginScan() {
  const bool is_rs = is_rowstore();
  const bool probe = is_probe();
  base_ = is_rs      ? rowstore_job().tuple_base
          : probe    ? probe_job().col_base
                     : select_job().col_base;
  stride_bytes_ = is_rs ? rowstore_job().tuple_bytes : config().elem_bytes;
  total_rows_ = is_rs      ? rowstore_job().num_tuples
                : probe    ? probe_job().num_rows
                           : select_job().num_rows;
  scan_end_ = base_ + total_rows_ * stride_bytes_;
  next_seg_start_ = base_;
  wave_covered_end_ = base_;
  wave_pending_ = 0;
  if (total_rows_ == 0 || next_seg_start_ >= scan_end_) {
    FlushBitmap([this](sim::Tick) { FinishJob(); });
    return;
  }
  StartWave();
}

void V2BankLevelDatapath::StartWave() {
  // Between-waves refresh check: every bank is precharged and disarmed here,
  // so this is the one place the device can politely yield the rank.
  if (RefreshClaims()) {
    ++stats().refresh_backoffs;
    lane().ScheduleAt(eq()->Now() + BusCycles(8),
                      [this](sim::Tick) { StartWave(); });
    return;
  }
  const uint64_t row_bytes = RowSizeBytes();
  uint32_t n = 0;
  uint64_t pos = next_seg_start_;
  uint64_t bank_mask = 0;
  while (n < segs_.size() && pos < scan_end_) {
    uint64_t seg_end = std::min((pos / row_bytes + 1) * row_bytes, scan_end_);
    uint32_t bank = dram().mapper().Decode(pos).ValueOrDie().bank;
    // Consecutive row segments round-robin the banks, so <= banks_per_rank of
    // them are always pairwise distinct; guard the invariant anyway.
    NDP_CHECK_MSG((bank_mask & (uint64_t{1} << bank)) == 0,
                  "wave would arm the same bank twice");
    bank_mask |= uint64_t{1} << bank;
    segs_[n].start = pos;
    segs_[n].end = seg_end;
    ++n;
    pos = seg_end;
  }
  NDP_CHECK(n > 0);
  ++bank_waves_;
  // Commit the wave extent before launching anything: chains may complete
  // through synchronous IssueWhenReady fast paths.
  wave_pending_ = n;
  next_seg_start_ = pos;
  wave_covered_end_ = pos;
  for (uint32_t i = 0; i < n; ++i) RunSegment(i);
}

void V2BankLevelDatapath::RunSegment(uint32_t i) {
  Segment& seg = segs_[i];
  seg.first_burst = seg.start - seg.start % kBurstBytes;
  uint64_t last_burst = seg.end - 1;
  last_burst -= last_burst % kBurstBytes;
  seg.nbursts =
      static_cast<uint32_t>((last_burst - seg.first_burst) / kBurstBytes + 1);
  seg.idx = 0;
  seg.loc = dram().mapper().Decode(seg.first_burst).ValueOrDie();
  ArmSegment(i);
}

void V2BankLevelDatapath::ArmSegment(uint32_t i) {
  // ARM requires a closed bank (the comparator taps the sense amps across a
  // fresh activation). A leftover open row — host traffic in polite mode —
  // gets precharged first.
  if (channel().rank(rank_index()).bank(segs_[i].loc.bank).has_open_row()) {
    Issue(i, dram::CommandType::kPrecharge,
          [this, i](sim::Tick) { ArmSegment(i); });
    return;
  }
  Issue(i, dram::CommandType::kBankArm,
        [this, i](sim::Tick) { Reactivate(i); });
}

void V2BankLevelDatapath::Reactivate(uint32_t i) {
  ++stats().activates;
  Issue(
      i, dram::CommandType::kActivate, [this, i](sim::Tick) { ReadNext(i); },
      /*on_stale=*/[this, i](sim::Tick) { ArmOrReopen(i); });
}

// A third party opened the bank between scheduling and issue (polite-mode
// host traffic): close it and try the activation again. The forced PRE may
// drain accumulated bits early; that splits one drain into two but changes
// nothing functionally — the accumulator is drained bitwise-incrementally.
void V2BankLevelDatapath::ArmOrReopen(uint32_t i) {
  Issue(i, dram::CommandType::kPrecharge,
        [this, i](sim::Tick) { Reactivate(i); });
}

void V2BankLevelDatapath::ReadNext(uint32_t i) {
  if (segs_[i].idx == segs_[i].nbursts) {
    DrainSegment(i);
    return;
  }
  Issue(
      i, dram::CommandType::kRead,
      [this, i](sim::Tick) {
        if (DrawStallAtBurst()) {
          // Sequencer stall: the wave never completes and the driver
          // watchdog aborts the job (teardown disarms the banks).
          return;
        }
        ++stats().bursts_read;
        ++filter_bursts_;
        // The comparator still waits the internal CAS latency for the burst
        // to reach it; it just never crosses the IO bus.
        stats().data_wait_ps += BusCycles(timing().cl);
        Segment& seg = segs_[i];
        if (!HandleReadFault(seg.first_burst +
                             uint64_t{seg.idx} * kBurstBytes)) {
          return;  // uncorrectable ECC: FailJob already ran
        }
        const uint32_t words = kBurstBytes / 8;
        // Probe jobs run each bank's hash-lane slice at its own (slower)
        // scheduled rate instead of the range comparator's.
        const bool probe = is_probe();
        sim::Tick proc = probe ? config().BankProbeBurstProcessingPs(words)
                               : config().BankBurstProcessingPs(words);
        stats().engine_busy_ps += proc;
        stats().energy_fj += (probe ? config().bank_probe_energy_per_word_fj
                                    : config().bank_energy_per_word_fj) *
                             words;
        ++seg.idx;
        ReadNext(i);
      },
      /*on_stale=*/[this, i](sim::Tick) { Reactivate(i); });
}

void V2BankLevelDatapath::DrainSegment(uint32_t i) {
  // PRE on an armed bank with pending bits drains the accumulator over the
  // per-rank result bus (the DRAM model serializes concurrent drains).
  Issue(i, dram::CommandType::kPrecharge, [this, i](sim::Tick) {
    Issue(i, dram::CommandType::kBankDisarm,
          [this](sim::Tick) { OnSegmentDone(); });
  });
}

void V2BankLevelDatapath::OnSegmentDone() {
  ++filter_segments_;
  NDP_CHECK(wave_pending_ > 0);
  if (--wave_pending_ > 0) return;
  // Wave barrier: every segment drained and disarmed. Evaluate the rows the
  // wave covered (same covers-the-burst formula as v1).
  const uint64_t covered =
      (wave_covered_end_ + kBurstBytes - 1) & ~uint64_t{kBurstBytes - 1};
  const uint64_t last = std::min(
      total_rows_, (covered - base_ + stride_bytes_ - 1) / stride_bytes_);
  EvalRange(last);
}

void V2BankLevelDatapath::EvalRange(uint64_t last) {
  // Column rows decode from one copy of each burst; row-store tuples may
  // straddle bursts, so they read each predicate's attribute where it lies.
  const bool is_rs = is_rowstore();
  unsigned char burst[kBurstBytes];
  uint64_t burst_addr = ~uint64_t{0};  // no burst copied yet
  uint64_t r = cursor_rows();
  uint64_t matches_here = 0;
  while (r < last) {
    if (pending_bit_count() >= config().output_buffer_bits) {
      // Output buffer full mid-wave: commit progress and flush. Every bank
      // is precharged and disarmed at a barrier, so the writeback bursts
      // cannot collide with filter state.
      add_matches(matches_here);
      stats().rows_processed += r - cursor_rows();
      set_cursor_rows(r);
      FlushBitmap([this, last](sim::Tick) { EvalRange(last); });
      return;
    }
    const uint64_t addr = base_ + r * stride_bytes_;
    bool pass;
    if (is_rs) {
      pass = EvalTuple(addr);
    } else {
      if (addr - addr % kBurstBytes != burst_addr) {
        burst_addr = addr - addr % kBurstBytes;
        ReadBurstBytes(burst_addr, burst);
      }
      pass = EvalColumnValue(DecodeValue(burst + (addr - burst_addr)));
    }
    AppendBit(pass);
    if (pass) ++matches_here;
    ++r;
  }
  add_matches(matches_here);
  stats().rows_processed += r - cursor_rows();
  set_cursor_rows(r);
  if (next_seg_start_ < scan_end_) {
    StartWave();
  } else {
    FlushBitmap([this](sim::Tick) { FinishJob(); });
  }
}

}  // namespace

std::unique_ptr<DatapathModel> MakeV2BankLevelDatapath(Device* dev) {
  return std::make_unique<V2BankLevelDatapath>(dev);
}

}  // namespace ndp::jafar
