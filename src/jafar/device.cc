#include "jafar/device.h"

#include <algorithm>
#include <cstring>

#include "fault/ecc.h"
#include "fault/injector.h"
#include "jafar/checksum.h"
#include "jafar/datapath.h"
#include "util/logging.h"
#include "util/macros.h"

namespace ndp::jafar {

namespace {
constexpr uint32_t kBurstBytes = 64;
constexpr uint32_t kBitsPerBurst = kBurstBytes * 8;  // 512 bitmap bits / burst
}  // namespace

Device::Device(dram::DramSystem* dram, uint32_t channel_index,
               uint32_t rank_index, DeviceConfig config,
               const StatsScope& stats)
    : dram_(dram),
      channel_index_(channel_index),
      rank_index_(rank_index),
      config_(config),
      eq_(dram->event_queue()) {
  NDP_CHECK(channel_index < dram->num_channels());
  NDP_CHECK(rank_index < dram->channel(channel_index).num_ranks());
  NDP_CHECK(config_.output_buffer_bits % kBitsPerBurst == 0);
  NDP_CHECK_MSG(config_.elem_bytes == 8 || config_.elem_bytes == 4,
                "JAFAR filters 64-bit words or packed 32-bit halves (§4)");
  pending_bits_.Resize(config_.output_buffer_bits);
  stats.Counter("jobs_completed", &stats_.jobs_completed);
  stats.Counter("jobs_failed", &stats_.jobs_failed);
  stats.Counter("rows_processed", &stats_.rows_processed);
  stats.Counter("matches", &stats_.matches);
  stats.Counter("bursts_read", &stats_.bursts_read);
  stats.Counter("bursts_written", &stats_.bursts_written);
  stats.Counter("activates", &stats_.activates);
  stats.Counter("data_wait_ps", &stats_.data_wait_ps);
  stats.Counter("engine_busy_ps", &stats_.engine_busy_ps);
  stats.Counter("total_busy_ps", &stats_.total_busy_ps);
  stats.Counter("energy_fj", &stats_.energy_fj);
  stats.Counter("polite_backoffs", &stats_.polite_backoffs);
  stats.Counter("refresh_backoffs", &stats_.refresh_backoffs);
  SetLaneCount(1);
  datapath_ = MakeDatapathModel(config_.generation, this);
  datapath_->Attach(stats);
}

// Lanes are intrusive event nodes: none may stay scheduled past its owner.
Device::~Device() { CancelLanes(); }

Device::Lane& Device::lane(uint32_t i) {
  NDP_CHECK(i < num_lanes_);
  return lanes_[i];
}

void Device::SetLaneCount(uint32_t n) {
  NDP_CHECK(n > 0 && !busy_);
  lanes_ = std::make_unique<Lane[]>(n);
  num_lanes_ = n;
  for (uint32_t i = 0; i < n; ++i) lanes_[i].dev_ = this;
}

void Device::CancelLanes() {
  for (uint32_t i = 0; i < num_lanes_; ++i) {
    if (lanes_[i].scheduled()) eq_->Cancel(&lanes_[i]);
  }
}

Status Device::CheckRange(uint64_t base, uint64_t len) const {
  if (len == 0) return Status::InvalidArgument("empty range");
  auto first = dram_->mapper().Decode(base);
  NDP_RETURN_NOT_OK(first.status());
  auto last = dram_->mapper().Decode(base + len - 1);
  NDP_RETURN_NOT_OK(last.status());
  if (first.value().channel != channel_index_ ||
      last.value().channel != channel_index_ ||
      first.value().rank != rank_index_ || last.value().rank != rank_index_) {
    return Status::InvalidArgument(
        "job data must be resident on this device's DIMM (channel " +
        std::to_string(channel_index_) + ", rank " +
        std::to_string(rank_index_) + ")");
  }
  return Status::OK();
}

Status Device::CheckIdleAndOwned() const {
  if (busy_) return Status::DeviceBusy("a job is already executing");
  if (config_.require_ownership &&
      dram_->channel(channel_index_).rank(rank_index_).owner() !=
          dram::RankOwner::kAccelerator) {
    return Status::FailedPrecondition(
        "rank ownership not held: set MR3/MPR before invoking JAFAR "
        "(§2.2, Coordinating DRAM Access)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fault handling & recovery

void Device::EndJob() {
  datapath_->OnJobTeardown();  // release generation-held DRAM state
  if (probe_.has_value()) {
    // The job may end mid filter-load; close the shadow window (idempotent).
    channel().NoteProbeFilterLoadDone(rank_index_);
  }
  CancelLanes();
  ++job_epoch_;
  stats_.total_busy_ps += eq_->Now();  // settle the negative start stamp
  busy_ = false;
  select_.reset();
  aggregate_.reset();
  project_.reset();
  rowstore_.reset();
  sort_.reset();
  groupby_.reset();
  probe_.reset();
}

void Device::AbortJob() {
  if (!busy_) return;  // completion won the race against the watchdog
  EndJob();
  ++stats_.jobs_failed;
  on_done_ = nullptr;  // the aborting driver already gave up on this callback
  last_job_status_ = Status::Internal("job aborted by driver reset");
}

void Device::FailJob(Status st) {
  NDP_CHECK(busy_);
  EndJob();
  ++stats_.jobs_failed;
  last_job_status_ = std::move(st);
  auto cb = std::move(on_done_);
  on_done_ = nullptr;
  if (cb) cb(eq_->Now());
}

bool Device::MaybeInjectHang() {
#ifdef NDP_FAULT_INJECT
  if (injector_ != nullptr && injector_->DrawHangAtDispatch()) {
    // The command sequencer wedges before its first step: the device stays
    // busy with no pending events. Only the driver watchdog (AbortJob) can
    // recover it.
    return true;
  }
#endif
  return false;
}

bool Device::HandleReadFault(uint64_t burst_addr) {
#ifdef NDP_FAULT_INJECT
  fault::ReadFault rf = injector_->DrawReadBurst();
  if (rf == fault::ReadFault::kNone) return true;
  // Model the flip on the burst's first 64-bit word through the SECDED
  // (72,64) code the DIMM would carry.
  uint64_t word = dram_->backing_store().Read64(burst_addr);
  uint8_t check = fault::EccEncode(word);
  if (rf == fault::ReadFault::kCorrectable) {
    uint32_t pos = injector_->DrawEccBitPosition();
    fault::EccCodeword flipped = fault::EccFlipBit(word, check, pos);
    fault::EccDecoded dec = fault::EccDecode(flipped.data, flipped.check);
    NDP_CHECK_MSG(dec.result == fault::EccResult::kCorrected &&
                      dec.data == word,
                  "SECDED failed to correct a single-bit flip");
    // Corrected in flight: the job sees clean data, only the scrub log knows.
    channel().rank(rank_index_).NoteEccCorrected();
    return true;
  }
  uint32_t a = 0, b = 0;
  injector_->DrawEccDoubleFlip(&a, &b);
  fault::EccCodeword flipped = fault::EccFlipBit(word, check, a);
  flipped = fault::EccFlipBit(flipped.data, flipped.check, b);
  fault::EccDecoded dec = fault::EccDecode(flipped.data, flipped.check);
  NDP_CHECK_MSG(dec.result == fault::EccResult::kUncorrectable,
                "SECDED failed to detect a double-bit flip");
  channel().rank(rank_index_).NoteEccUncorrectable();
  FailJob(Status::Internal("uncorrectable ECC error on read burst"));
  return false;
#else
  (void)burst_addr;
  return true;
#endif
}

// ---------------------------------------------------------------------------
// Sequencer: command lanes

// ndp-lint: no-alloc-begin (lane issue path: runs once per DRAM command)

void Device::Lane::Arm(sim::Tick t) {
  epoch_ = dev_->job_epoch_;
  dev_->eq_->Schedule(t, this);
}

void Device::Lane::Fire() {
  NDP_CHECK_MSG(epoch_ == dev_->job_epoch_, "a lane fired after its job ended");
  if (!timed_step_) {
    // Conditions may have shifted since the lane was armed (other-rank
    // traffic on the shared command bus, host activity in polite mode):
    // re-evaluate from the top.
    TryIssue();
    return;
  }
  Continuation step = next_;
  step(when());
}

void Device::Lane::ScheduleAt(sim::Tick t, Continuation step) {
  timed_step_ = true;
  next_ = step;
  Arm(t);
}

void Device::Lane::IssueWhenReady(const dram::Command& cmd, Continuation next,
                                  Continuation on_stale,
                                  bool defer_to_refresh) {
  timed_step_ = false;
  cmd_ = cmd;
  next_ = next;
  on_stale_ = on_stale;
  defer_to_refresh_ = defer_to_refresh;
  TryIssue();
}

void Device::Lane::TryIssue() {
  Device& d = *dev_;
  sim::Tick now = d.eq_->Now();
  // In polite (no-scheduler) mode, JAFAR may only use the channel while the
  // host memory controller is idle (§3.3).
  if (!d.config_.require_ownership &&
      d.dram_->controller(d.channel_index_).HasPendingWork()) {
    ++d.stats_.polite_backoffs;
    Arm(now + d.BusCycles(8));
    return;
  }
  // Refresh outranks rank ownership: when the host controller is stealing the
  // rank back for an overdue REF (its postponement budget nearly spent), stop
  // competing for the command bus — fighting the precharge drain would only
  // ping-pong ACT/PRE until the retention deadline. Resume (and re-evaluate
  // bank state) once the refresh completes. Callers mid-way through a chain
  // the controller cannot interrupt anyway (v2 holds armed banks REF must
  // wait out) pass defer_to_refresh=false and yield at their own barriers —
  // deferring here would deadlock against the controller's armed-bank wait.
  if (defer_to_refresh_ &&
      d.dram_->controller(d.channel_index_).RefreshClaims(d.rank_index_)) {
    ++d.stats_.refresh_backoffs;
    Arm(now + d.BusCycles(8));
    return;
  }
  // Bank-state validity may have changed between scheduling and issue when a
  // third party shares the rank (host refresh or traffic in polite mode):
  // column commands need their row open, ACT needs the bank closed.
  const dram::Bank& bank = d.channel().rank(d.rank_index_).bank(cmd_.bank);
  bool stale = false;
  if (cmd_.type == dram::CommandType::kRead ||
      cmd_.type == dram::CommandType::kWrite) {
    stale = !bank.has_open_row() || bank.open_row() != cmd_.row;
  } else if (cmd_.type == dram::CommandType::kActivate) {
    stale = bank.has_open_row();
  }
  if (stale) {
    NDP_CHECK_MSG(on_stale_, "bank state changed under exclusive access");
    Continuation retry = on_stale_;
    retry(now);
    return;
  }
  sim::ClockDomain bus = d.channel().bus_clock();
  sim::Tick t = std::max(d.channel().EarliestIssue(cmd_),
                         bus.NextEdgeAtOrAfter(now));
  if (t != now) {
    Arm(t);
    return;
  }
  auto done = d.channel().Issue(cmd_, t);
  NDP_CHECK_MSG(done.ok(), done.status().ToString().c_str());
  Continuation next = next_;
  next(done.value());
}

void Device::Lane::ReadBurstChain(uint64_t addr, uint64_t bursts,
                                  Continuation next) {
  NDP_CHECK(bursts > 0);
  write_ = false;
  burst_addr_ = addr;
  bursts_left_ = bursts;
  chain_done_ = next;
  StartBurst();
}

void Device::Lane::WriteBurstChain(uint64_t addr, uint64_t bursts,
                                   Continuation next) {
  if (bursts == 0) {
    next(dev_->eq_->Now());
    return;
  }
  write_ = true;
  burst_addr_ = addr;
  bursts_left_ = bursts;
  chain_done_ = next;
  StartBurst();
}

void Device::Lane::StartBurst() {
  loc_ = dev_->dram_->mapper().Decode(burst_addr_).ValueOrDie();
  OpenRow();
}

// Ensures loc_'s bank has loc_.row open (PRE/ACT as needed), then issues the
// burst's column command. Also the retry target when a third party closes the
// row (or opens the bank) under the chain.
void Device::Lane::OpenRow() {
  Device& d = *dev_;
  const dram::Bank& bank = d.channel().rank(d.rank_index_).bank(loc_.bank);
  if (bank.has_open_row() && bank.open_row() == loc_.row) {
    IssueColumn();
    return;
  }
  if (bank.has_open_row()) {
    dram::Command pre{dram::CommandType::kPrecharge, d.rank_index_, loc_.bank};
    IssueWhenReady(pre, [this](sim::Tick) { OpenRow(); });
    return;
  }
  dram::Command act{dram::CommandType::kActivate, d.rank_index_, loc_.bank,
                    loc_.row};
  ++d.stats_.activates;
  IssueWhenReady(
      act, [this](sim::Tick) { IssueColumn(); },
      /*on_stale=*/[this](sim::Tick) { OpenRow(); });
}

void Device::Lane::IssueColumn() {
  dram::Command col{
      write_ ? dram::CommandType::kWrite : dram::CommandType::kRead,
      dev_->rank_index_, loc_.bank, loc_.row, loc_.burst_col};
  IssueWhenReady(
      col, [this](sim::Tick done) { OnBurstDone(done); },
      /*on_stale=*/[this](sim::Tick) { OpenRow(); });
}

void Device::Lane::OnBurstDone(sim::Tick done) {
  Device& d = *dev_;
  if (write_) {
    ++d.stats_.bursts_written;
  } else {
    ++d.stats_.bursts_read;
    d.stats_.data_wait_ps += d.BusCycles(d.timing().cl);
#ifdef NDP_FAULT_INJECT
    if (d.injector_ != nullptr && !d.HandleReadFault(burst_addr_)) {
      return;  // uncorrectable ECC: FailJob already ran
    }
#endif
  }
  if (--bursts_left_ > 0) {
    burst_addr_ += kBurstBytes;
    StartBurst();
    return;
  }
  Continuation next = chain_done_;
  next(done);
}

// ndp-lint: no-alloc-end

// ---------------------------------------------------------------------------
// Select / row-store

Status Device::StartSelect(const SelectJob& job,
                           std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows * config_.elem_bytes));
  uint64_t bitmap_bytes = (job.num_rows + 7) / 8;
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, bitmap_bytes));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("col_base/out_base must be 64 B aligned");
  }
  busy_ = true;
  select_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  pending_bits_.ClearAll();
  pending_bit_count_ = 0;
  bitmap_write_cursor_ = 0;
  last_matches_ = 0;
  last_job_status_ = Status::OK();
  last_result_checksum_ = kChecksumInit;
  stats_.total_busy_ps -= eq_->Now();  // settled in FinishJob
  if (MaybeInjectHang()) return Status::OK();
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { datapath_->BeginScan(); });
  return Status::OK();
}

Status Device::StartRowStore(const RowStoreJob& job,
                             std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  if (job.tuple_bytes == 0 || job.tuple_bytes % 8 != 0) {
    return Status::InvalidArgument("tuple_bytes must be a positive multiple of 8");
  }
  if (job.predicates.empty()) {
    return Status::InvalidArgument("row-store job needs at least one predicate");
  }
  for (const RowPredicate& p : job.predicates) {
    if (p.attr_offset_bytes + 8 > job.tuple_bytes) {
      return Status::InvalidArgument("predicate attribute outside tuple");
    }
  }
  NDP_RETURN_NOT_OK(
      CheckRange(job.tuple_base, job.num_tuples * job.tuple_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, (job.num_tuples + 7) / 8));
  if (job.tuple_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("tuple_base/out_base must be 64 B aligned");
  }
  busy_ = true;
  rowstore_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  pending_bits_.ClearAll();
  pending_bit_count_ = 0;
  bitmap_write_cursor_ = 0;
  last_matches_ = 0;
  last_job_status_ = Status::OK();
  last_result_checksum_ = kChecksumInit;
  stats_.total_busy_ps -= eq_->Now();
  if (MaybeInjectHang()) return Status::OK();
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { datapath_->BeginScan(); });
  return Status::OK();
}

Status Device::StartProbe(const ProbeJob& job,
                          std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("probe engine hashes 64-bit join keys");
  }
  if (job.hash_count != config_.probe_hashes) {
    return Status::InvalidArgument(
        "hash_count does not match the derived probe datapath (" +
        std::to_string(config_.probe_hashes) + " lanes)");
  }
  if (job.filter_words == 0 ||
      (job.filter_words & (job.filter_words - 1)) != 0) {
    return Status::InvalidArgument(
        "filter_words must be a power of two (bit index is a mask)");
  }
  if (config_.probe_words_per_cycle <= 0.0) {
    return Status::Unimplemented("datapath has no scheduled probe kernel");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows * 8));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, (job.num_rows + 7) / 8));
  NDP_RETURN_NOT_OK(CheckRange(job.filter_base, job.filter_words * 8));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0 ||
      job.filter_base % kBurstBytes != 0) {
    return Status::InvalidArgument(
        "col_base/out_base/filter_base must be 64 B aligned");
  }
  busy_ = true;
  probe_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  pending_bits_.ClearAll();
  pending_bit_count_ = 0;
  bitmap_write_cursor_ = 0;
  last_matches_ = 0;
  last_job_status_ = Status::OK();
  last_result_checksum_ = kChecksumInit;
  stats_.total_busy_ps -= eq_->Now();  // settled in FinishJob
  if (MaybeInjectHang()) return Status::OK();
  // BeginProbe (datapath base, generation-neutral) streams the Bloom image
  // into the probe SRAM before handing over to the generation's scan loop.
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { datapath_->BeginProbe(); });
  return Status::OK();
}

bool Device::EvalProbeKey(int64_t key) const {
  const ProbeJob& job = *probe_;
  for (uint32_t h = 0; h < job.hash_count; ++h) {
    uint64_t bit =
        BloomBitIndex(static_cast<uint64_t>(key), h, job.filter_words);
    if (((probe_sram_[bit / 64] >> (bit % 64)) & 1) == 0) return false;
  }
  return true;
}

// The scan sequencer itself (the former SelectStep loop) lives in the
// generation's DatapathModel: datapath_v1.cc keeps the rank-IO loop
// unchanged, datapath_v2.cc replaces it with bank-parallel waves.

void Device::ContinueWhenEngineReady(void (Device::*step)()) {
  // Throttle command issue so a slow datapath (words_per_cycle < 1) does not
  // overrun its input FIFO: the next burst's data (which completes CL+tBURST
  // after its command) should not arrive before the engine can take it.
  sim::Tick pipe_ps = BusCycles(timing().cl + timing().tburst);
  sim::Tick earliest =
      engine_ready_at_ > pipe_ps ? engine_ready_at_ - pipe_ps : 0;
  if (earliest > eq_->Now()) {
    lane().ScheduleAt(earliest, [this, step](sim::Tick) { (this->*step)(); });
  } else {
    (this->*step)();
  }
}

void Device::FlushBitmap(Continuation next) {
  if (pending_bit_count_ == 0) {
    next(eq_->Now());
    return;
  }
  uint64_t out_base;
  bool masked = false;
  uint64_t mask = ~uint64_t{0};
  if (rowstore_.has_value()) {
    out_base = rowstore_->out_base;
  } else if (probe_.has_value()) {
    // Probe bitmaps are always whole-word owned by this device (the runtime
    // chunks on page boundaries), so no masked merge is needed.
    out_base = probe_->out_base;
  } else {
    out_base = select_->out_base;
    masked = select_->masked_writeback;
    mask = masked ? select_->writeback_mask : ~uint64_t{0};
  }

  uint64_t bytes = (pending_bit_count_ + 7) / 8;
  uint64_t addr = out_base + bitmap_write_cursor_;
  // Functional write of the buffered bits (word-at-a-time to honour masks).
  for (uint64_t w = 0; w * 8 < bytes; ++w) {
    uint64_t value = pending_bits_.Word(w);
    if (masked || (bytes - w * 8) < 8 ||
        pending_bit_count_ < (w + 1) * 64) {
      // Partial word or masked layout: read-modify-write.
      uint64_t keep_mask = mask;
      if (pending_bit_count_ < (w + 1) * 64) {
        uint64_t valid = pending_bit_count_ - w * 64;
        keep_mask &= (valid >= 64) ? ~uint64_t{0}
                                   : ((uint64_t{1} << valid) - 1);
      }
      uint64_t old = dram_->backing_store().Read64(addr + w * 8);
      value = (old & ~keep_mask) | (value & keep_mask);
    }
    dram_->backing_store().Write64(addr + w * 8, value);
    // Fold the final written word into the writeback checksum: the driver
    // re-reads these exact words from DRAM, so any later corruption shows.
    last_result_checksum_ = ChecksumMix(last_result_checksum_, value);
  }

#ifdef NDP_FAULT_INJECT
  if (injector_ != nullptr && injector_->DrawCorruptAtFlush()) {
    // Flip one already-written bit after the checksum was taken — exactly
    // what a flaky writeback path would do. The driver's verification pass
    // catches the mismatch and retries the page.
    uint64_t bit = injector_->DrawCorruptBit(pending_bit_count_);
    uint64_t waddr = addr + (bit / 64) * 8;
    uint64_t word = dram_->backing_store().Read64(waddr);
    dram_->backing_store().Write64(waddr, word ^ (uint64_t{1} << (bit % 64)));
  }
#endif

  // Timing: one WR burst per 64 B of bitmap.
  uint64_t bursts = (bytes + kBurstBytes - 1) / kBurstBytes;
  bitmap_write_cursor_ += bytes;
  pending_bits_.ClearAll();
  pending_bit_count_ = 0;
  lane().WriteBurstChain(addr - addr % kBurstBytes, bursts, next);
}

void Device::FinishJob() {
  sim::Tick now = eq_->Now();
  EndJob();  // after a clean drain no lane is armed; teardown keeps invariants
  ++stats_.jobs_completed;
  auto cb = std::move(on_done_);
  on_done_ = nullptr;
#ifdef NDP_FAULT_INJECT
  if (injector_ != nullptr && injector_->DrawDropCompletion()) {
    // The job finished and its results are in DRAM, but the completion
    // signal is lost. The driver's watchdog times out and retries.
    cb = nullptr;
  }
#endif
  if (cb) cb(now);
}

// ---------------------------------------------------------------------------
// Sort (§4 "Sorting": fixed-function bitonic block sorter)

Status Device::StartSort(const SortJob& job,
                         std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("sort engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows * 8));
  NDP_RETURN_NOT_OK(CheckRange(job.out_base, job.num_rows * 8));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("sort addresses must be 64 B aligned");
  }
  busy_ = true;
  sort_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  last_job_status_ = Status::OK();
  stats_.total_busy_ps -= eq_->Now();
  if (MaybeInjectHang()) return Status::OK();
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { SortStep(); });
  return Status::OK();
}

void Device::SortStep() {
  const SortJob& job = *sort_;
  if (cursor_rows_ >= job.num_rows) {
    FinishJob();
    return;
  }
  uint64_t block_rows = std::min<uint64_t>(config_.sort_block_elems,
                                           job.num_rows - cursor_rows_);
  uint64_t bursts = (block_rows * 8 + kBurstBytes - 1) / kBurstBytes;
  // 1. Stream the block into device SRAM.
  lane().ReadBurstChain(job.col_base + cursor_rows_ * 8, bursts,
                        [this, block_rows](sim::Tick last_data) {
                          SortBlock(block_rows, last_data);
                        });
}

void Device::SortBlock(uint64_t block_rows, sim::Tick last_data) {
  const SortJob& job = *sort_;
  uint64_t in_addr = job.col_base + cursor_rows_ * 8;
  uint64_t out_addr = job.out_base + cursor_rows_ * 8;
  uint64_t bursts = (block_rows * 8 + kBurstBytes - 1) / kBurstBytes;
  // 2. Run the bitonic network (functional model: an exact sort of the
  //    block; timing: the network's stage count on the comparator array).
  std::vector<int64_t> block(block_rows);
  dram_->backing_store().Read(in_addr, block.data(), block_rows * 8);
  if (job.descending) {
    std::sort(block.begin(), block.end(), std::greater<int64_t>());
  } else {
    std::sort(block.begin(), block.end());
  }
  dram_->backing_store().Write(out_addr, block.data(), block_rows * 8);

  uint64_t sort_cycles =
      config_.SortBlockCycles(static_cast<uint32_t>(block_rows));
  sim::Tick start = std::max(last_data, engine_ready_at_);
  sim::Tick proc = sort_cycles * config_.clock.period_ps();
  engine_ready_at_ = start + proc;
  stats_.engine_busy_ps += proc;
  stats_.rows_processed += block_rows;
  stats_.energy_fj +=
      config_.energy_per_word_fj * static_cast<double>(block_rows);

  cursor_rows_ += block_rows;
  // 3. Write the sorted run back once the network finishes, then continue
  //    with the next block.
  lane().ScheduleAt(engine_ready_at_, [this, out_addr, bursts](sim::Tick) {
    lane().WriteBurstChain(out_addr, bursts,
                           [this](sim::Tick) { SortStep(); });
  });
}

// ---------------------------------------------------------------------------
// Aggregate

Status Device::StartAggregate(const AggregateJob& job,
                              std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("aggregate engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows * config_.elem_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.out_addr, 8));
  if (job.bitmap_base != 0) {
    NDP_RETURN_NOT_OK(CheckRange(job.bitmap_base, (job.num_rows + 7) / 8));
  }
  if (job.col_base % kBurstBytes != 0) {
    return Status::InvalidArgument("col_base must be 64 B aligned");
  }
  busy_ = true;
  aggregate_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  switch (job.kind) {
    case AggKind::kSum:
    case AggKind::kCount: agg_acc_ = 0; break;
    case AggKind::kMin: agg_acc_ = INT64_MAX; break;
    case AggKind::kMax: agg_acc_ = INT64_MIN; break;
  }
  last_job_status_ = Status::OK();
  stats_.total_busy_ps -= eq_->Now();
  if (MaybeInjectHang()) return Status::OK();
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { AggregateStep(); });
  return Status::OK();
}

void Device::AggregateStep() {
  const AggregateJob& job = *aggregate_;
  if (cursor_rows_ >= job.num_rows) {
    dram_->backing_store().Write64(job.out_addr,
                                   static_cast<uint64_t>(agg_acc_));
    lane().WriteBurstChain(job.out_addr - job.out_addr % kBurstBytes, 1,
                           [this](sim::Tick) { FinishJob(); });
    return;
  }
  // One bitmap burst covers 512 rows; fetch it lazily when filtering.
  if (job.bitmap_base != 0 && cursor_rows_ % kBitsPerBurst == 0) {
    uint64_t bm_addr = job.bitmap_base + (cursor_rows_ / 8);
    bm_addr -= bm_addr % kBurstBytes;
    lane().ReadBurst(bm_addr, [this](sim::Tick) { ReadAggregateColumn(); });
  } else {
    ReadAggregateColumn();
  }
}

void Device::ReadAggregateColumn() {
  const AggregateJob& j = *aggregate_;
  uint64_t burst_addr = j.col_base + cursor_rows_ * config_.elem_bytes;
  burst_addr -= burst_addr % kBurstBytes;
  lane().ReadBurst(burst_addr, [this](sim::Tick data_done) {
    const AggregateJob& jb = *aggregate_;
    uint64_t rows_here = std::min<uint64_t>(
        kBurstBytes / config_.elem_bytes, jb.num_rows - cursor_rows_);
    for (uint64_t r = cursor_rows_; r < cursor_rows_ + rows_here; ++r) {
      if (jb.bitmap_base != 0) {
        uint64_t word = dram_->backing_store().Read64(
            jb.bitmap_base + (r / 64) * 8);
        if (((word >> (r % 64)) & 1) == 0) continue;
      }
      int64_t v = static_cast<int64_t>(
          dram_->backing_store().Read64(jb.col_base + r * config_.elem_bytes));
      switch (jb.kind) {
        case AggKind::kSum: agg_acc_ += v; break;
        case AggKind::kCount: agg_acc_ += 1; break;
        case AggKind::kMin: agg_acc_ = std::min(agg_acc_, v); break;
        case AggKind::kMax: agg_acc_ = std::max(agg_acc_, v); break;
      }
      ++stats_.matches;
    }
    stats_.rows_processed += rows_here;
    cursor_rows_ += rows_here;
    uint32_t words = kBurstBytes / 8;
    sim::Tick start = std::max(data_done, engine_ready_at_);
    sim::Tick proc = config_.BurstProcessingPs(words);
    engine_ready_at_ = start + proc;
    stats_.engine_busy_ps += proc;
    stats_.energy_fj += config_.energy_per_word_fj * words;
    ContinueWhenEngineReady(&Device::AggregateStep);
  });
}

// ---------------------------------------------------------------------------
// Grouped aggregation (§4: bucket-limited, hierarchical passes)

Status Device::StartGroupBy(const GroupByJob& job,
                            std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("group-by engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.key_base, job.num_rows * 8));
  NDP_RETURN_NOT_OK(CheckRange(job.val_base, job.num_rows * 8));
  NDP_RETURN_NOT_OK(
      CheckRange(job.out_base, config_.groupby_buckets * 16));
  if (job.bitmap_base != 0) {
    NDP_RETURN_NOT_OK(CheckRange(job.bitmap_base, (job.num_rows + 7) / 8));
    if (job.bitmap_base % kBurstBytes != 0) {
      return Status::InvalidArgument("bitmap_base must be 64 B aligned");
    }
  }
  if (job.key_base % kBurstBytes != 0 || job.val_base % kBurstBytes != 0 ||
      job.out_base % kBurstBytes != 0) {
    return Status::InvalidArgument("group-by addresses must be 64 B aligned");
  }
  busy_ = true;
  groupby_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  int64_t init = 0;
  switch (job.kind) {
    case AggKind::kSum:
    case AggKind::kCount: init = 0; break;
    case AggKind::kMin: init = INT64_MAX; break;
    case AggKind::kMax: init = INT64_MIN; break;
  }
  groupby_agg_.assign(config_.groupby_buckets, init);
  groupby_count_.assign(config_.groupby_buckets, 0);
  last_job_status_ = Status::OK();
  stats_.total_busy_ps -= eq_->Now();
  if (MaybeInjectHang()) return Status::OK();
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { GroupByStep(); });
  return Status::OK();
}

void Device::GroupByStep() {
  const GroupByJob& job = *groupby_;
  if (cursor_rows_ >= job.num_rows) {
    // Dump the bucket SRAM back to DRAM: buckets * 16 bytes.
    for (uint32_t b = 0; b < config_.groupby_buckets; ++b) {
      dram_->backing_store().Write64(job.out_base + b * 16,
                                     static_cast<uint64_t>(groupby_agg_[b]));
      dram_->backing_store().Write64(
          job.out_base + b * 16 + 8,
          static_cast<uint64_t>(groupby_count_[b]));
    }
    uint64_t bursts =
        (config_.groupby_buckets * 16 + kBurstBytes - 1) / kBurstBytes;
    lane().WriteBurstChain(job.out_base, bursts,
                           [this](sim::Tick) { FinishJob(); });
    return;
  }
  // Stream the two columns in DRAM-row-sized chunks (8 KB = 1024 values):
  // alternating single bursts between the columns would ping-pong two rows
  // of one bank (the columns often alias to the same bank), paying a
  // precharge/activate pair per burst. Whole-row chunks amortize the row
  // switch across 128 bursts — the device's SRAM double-buffers one row of
  // keys against one row of values.
  uint64_t chunk_rows = GroupByChunkRows();
  if (job.bitmap_base != 0) {
    // One bitmap burst covers 512 rows; fetch the chunk's slice first.
    uint64_t bm_addr = job.bitmap_base + cursor_rows_ / 8;
    bm_addr -= bm_addr % kBurstBytes;
    uint64_t bm_bursts = (chunk_rows + kBitsPerBurst - 1) / kBitsPerBurst;
    lane().ReadBurstChain(bm_addr, bm_bursts,
                          [this](sim::Tick) { ReadGroupByColumns(); });
  } else {
    ReadGroupByColumns();
  }
}

uint64_t Device::GroupByChunkRows() const {
  return std::min<uint64_t>(1024, groupby_->num_rows - cursor_rows_);
}

void Device::ReadGroupByColumns() {
  const GroupByJob& job = *groupby_;
  uint64_t bursts = (GroupByChunkRows() * 8 + kBurstBytes - 1) / kBurstBytes;
  uint64_t val_addr = job.val_base + cursor_rows_ * 8;
  lane().ReadBurstChain(
      job.key_base + cursor_rows_ * 8, bursts,
      [this, val_addr, bursts](sim::Tick) {
        lane().ReadBurstChain(
            val_addr, bursts,
            [this](sim::Tick data_done) { ProcessGroupByChunk(data_done); });
      });
}

void Device::ProcessGroupByChunk(sim::Tick data_done) {
  const GroupByJob& j = *groupby_;
  uint64_t rows_here = GroupByChunkRows();
  for (uint64_t r = cursor_rows_; r < cursor_rows_ + rows_here; ++r) {
    if (j.bitmap_base != 0) {
      uint64_t word =
          dram_->backing_store().Read64(j.bitmap_base + (r / 64) * 8);
      if (((word >> (r % 64)) & 1) == 0) continue;
    }
    int64_t key =
        static_cast<int64_t>(dram_->backing_store().Read64(j.key_base + r * 8));
    int64_t bucket = key - j.key_offset;
    if (bucket < 0 || bucket >= static_cast<int64_t>(config_.groupby_buckets)) {
      continue;  // outside this hierarchical pass's window
    }
    int64_t v = static_cast<int64_t>(
        dram_->backing_store().Read64(j.val_base + r * 8));
    switch (j.kind) {
      case AggKind::kSum: groupby_agg_[bucket] += v; break;
      case AggKind::kCount: groupby_agg_[bucket] += 1; break;
      case AggKind::kMin:
        groupby_agg_[bucket] = std::min(groupby_agg_[bucket], v);
        break;
      case AggKind::kMax:
        groupby_agg_[bucket] = std::max(groupby_agg_[bucket], v);
        break;
    }
    ++groupby_count_[bucket];
    ++stats_.matches;
  }
  stats_.rows_processed += rows_here;
  cursor_rows_ += rows_here;
  // Engine: one key/value pair per cycle (hash + accumulate); chunk
  // processing overlaps the next chunk's reads via the usual throttle.
  uint32_t words = static_cast<uint32_t>(2 * rows_here);
  sim::Tick start = std::max(data_done, engine_ready_at_);
  sim::Tick proc = config_.BurstProcessingPs(words);
  engine_ready_at_ = start + proc;
  stats_.engine_busy_ps += proc;
  stats_.energy_fj += config_.energy_per_word_fj * words;
  ContinueWhenEngineReady(&Device::GroupByStep);
}

// ---------------------------------------------------------------------------
// Project

Status Device::StartProject(const ProjectJob& job,
                            std::function<void(sim::Tick)> on_done) {
  NDP_RETURN_NOT_OK(CheckIdleAndOwned());
  if (config_.elem_bytes != 8) {
    return Status::Unimplemented("project engine operates on 64-bit words");
  }
  NDP_RETURN_NOT_OK(CheckRange(job.col_base, job.num_rows * config_.elem_bytes));
  NDP_RETURN_NOT_OK(CheckRange(job.bitmap_base, (job.num_rows + 7) / 8));
  if (job.col_base % kBurstBytes != 0 || job.out_base % kBurstBytes != 0 ||
      job.bitmap_base % kBurstBytes != 0) {
    return Status::InvalidArgument("project addresses must be 64 B aligned");
  }
  busy_ = true;
  project_ = job;
  on_done_ = std::move(on_done);
  cursor_rows_ = 0;
  engine_ready_at_ = eq_->Now();
  project_out_buffer_.clear();
  project_emitted_ = 0;
  last_job_status_ = Status::OK();
  stats_.total_busy_ps -= eq_->Now();
  if (MaybeInjectHang()) return Status::OK();
  lane().ScheduleAt(eq_->Now() + config_.invocation_overhead_cycles *
                                     config_.clock.period_ps(),
                    [this](sim::Tick) { ProjectStep(); });
  return Status::OK();
}

void Device::ProjectStep() {
  const ProjectJob& job = *project_;
  if (cursor_rows_ >= job.num_rows) {
    FlushProjectOutput([this](sim::Tick) { FinishJob(); },
                       /*final_flush=*/true);
    return;
  }
  if (cursor_rows_ % kBitsPerBurst == 0) {
    uint64_t bm_addr = job.bitmap_base + (cursor_rows_ / 8);
    bm_addr -= bm_addr % kBurstBytes;
    lane().ReadBurst(bm_addr, [this](sim::Tick) { ReadProjectColumn(); });
  } else {
    ReadProjectColumn();
  }
}

void Device::ReadProjectColumn() {
  const ProjectJob& j = *project_;
  uint64_t burst_addr = j.col_base + cursor_rows_ * config_.elem_bytes;
  burst_addr -= burst_addr % kBurstBytes;
  lane().ReadBurst(burst_addr, [this](sim::Tick data_done) {
    const ProjectJob& jb = *project_;
    uint64_t rows_here = std::min<uint64_t>(
        kBurstBytes / config_.elem_bytes, jb.num_rows - cursor_rows_);
    for (uint64_t r = cursor_rows_; r < cursor_rows_ + rows_here; ++r) {
      uint64_t word =
          dram_->backing_store().Read64(jb.bitmap_base + (r / 64) * 8);
      if ((word >> (r % 64)) & 1) {
        project_out_buffer_.push_back(static_cast<int64_t>(
            dram_->backing_store().Read64(jb.col_base +
                                          r * config_.elem_bytes)));
        ++stats_.matches;
      }
    }
    stats_.rows_processed += rows_here;
    cursor_rows_ += rows_here;
    uint32_t words = kBurstBytes / 8;
    sim::Tick start = std::max(data_done, engine_ready_at_);
    sim::Tick proc = config_.BurstProcessingPs(words);
    engine_ready_at_ = start + proc;
    stats_.engine_busy_ps += proc;
    stats_.energy_fj += config_.energy_per_word_fj * words;
    // Buffer qualifying values up to the device's output buffer capacity
    // before dumping them back (§4: "when the internal buffers are full,
    // JAFAR will dump the contents back to a pre-allocated location") —
    // flushing per burst would pay the write-to-read turnaround each time.
    if (project_out_buffer_.size() >= config_.output_buffer_bits / 8) {
      FlushProjectOutput([this](sim::Tick) { ProjectStep(); },
                         /*final_flush=*/false);
    } else {
      ProjectStep();
    }
  });
}

void Device::FlushProjectOutput(Continuation next, bool final_flush) {
  const uint64_t words_per_burst = kBurstBytes / 8;
  uint64_t available = project_out_buffer_.size();
  uint64_t to_write = final_flush ? available
                                  : (available / words_per_burst) * words_per_burst;
  if (to_write == 0) {
    next(eq_->Now());
    return;
  }
  uint64_t addr = project_->out_base + project_emitted_ * 8;
  for (uint64_t i = 0; i < to_write; ++i) {
    dram_->backing_store().Write64(
        addr + i * 8, static_cast<uint64_t>(project_out_buffer_[i]));
  }
  project_out_buffer_.erase(project_out_buffer_.begin(),
                            project_out_buffer_.begin() +
                                static_cast<long>(to_write));
  project_emitted_ += to_write;
  uint64_t first_burst = addr - addr % kBurstBytes;
  uint64_t last_byte = addr + to_write * 8 - 1;
  uint64_t bursts = (last_byte - first_burst) / kBurstBytes + 1;
  lane().WriteBurstChain(first_burst, bursts, next);
}

}  // namespace ndp::jafar
