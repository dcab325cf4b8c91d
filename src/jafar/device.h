// The JAFAR device model: an integrated circuit mounted on the DIMM (§2.2,
// "Physical Implementation") that issues its own ACT/RD/WR/PRE commands to
// its rank through the shared channel — obeying exactly the same DDR3 timing
// rules as the host memory controller — consumes words from the IO buffer at
// the rate the accel schedule derived, and writes its output bitmap back to a
// pre-programmed DRAM location every time the n-bit output buffer fills.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dram/dram_system.h"
#include "jafar/config.h"
#include "jafar/jobs.h"
#include "sim/event_queue.h"
#include "util/bitvector.h"
#include "util/inline_function.h"
#include "util/stats_registry.h"
#include "util/status.h"

namespace ndp::fault {
class FaultInjector;
}  // namespace ndp::fault

namespace ndp::jafar {

class DatapathModel;

/// Per-job and lifetime counters of one device.
struct DeviceStats {
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;  ///< aborted by watchdog or failed (ECC UE, ...)
  uint64_t rows_processed = 0;
  uint64_t matches = 0;
  uint64_t bursts_read = 0;
  uint64_t bursts_written = 0;
  uint64_t activates = 0;
  sim::Tick data_wait_ps = 0;    ///< CAS-latency time spent waiting for data
  sim::Tick engine_busy_ps = 0;  ///< time the filter datapath was computing
  sim::Tick total_busy_ps = 0;   ///< wall time from job start to completion
  double energy_fj = 0.0;
  uint64_t polite_backoffs = 0;  ///< deferrals to host traffic (polite mode)
  uint64_t refresh_backoffs = 0;  ///< deferrals to a host refresh steal-back

  /// The §2.2 observation: fraction of each access latency spent waiting for
  /// DRAM rather than computing.
  double WaitFraction() const {
    sim::Tick denom = data_wait_ps + engine_busy_ps;
    return denom ? static_cast<double>(data_wait_ps) / static_cast<double>(denom)
                 : 0.0;
  }

  /// Per-run stats as the difference against a snapshot taken before the run.
  /// All fields are monotonic accumulators, so plain subtraction is exact.
  DeviceStats DeltaSince(const DeviceStats& before) const {
    DeviceStats d;
    d.jobs_completed = jobs_completed - before.jobs_completed;
    d.jobs_failed = jobs_failed - before.jobs_failed;
    d.rows_processed = rows_processed - before.rows_processed;
    d.matches = matches - before.matches;
    d.bursts_read = bursts_read - before.bursts_read;
    d.bursts_written = bursts_written - before.bursts_written;
    d.activates = activates - before.activates;
    d.data_wait_ps = data_wait_ps - before.data_wait_ps;
    d.engine_busy_ps = engine_busy_ps - before.engine_busy_ps;
    d.total_busy_ps = total_busy_ps - before.total_busy_ps;
    d.energy_fj = energy_fj - before.energy_fj;
    d.polite_backoffs = polite_backoffs - before.polite_backoffs;
    d.refresh_backoffs = refresh_backoffs - before.refresh_backoffs;
    return d;
  }
};

/// \brief One JAFAR unit, bound to one rank of one channel.
class Device {
 public:
  /// `dram` supplies both timing (channel) and functional contents (backing
  /// store). `channel_index`/`rank_index` locate the DIMM this unit sits on.
  /// `stats` (optional) mounts the device's counters into a registry under
  /// the scope's prefix.
  Device(dram::DramSystem* dram, uint32_t channel_index, uint32_t rank_index,
         DeviceConfig config, const StatsScope& stats = {});
  ~Device();  // out of line: DatapathModel is incomplete here
  NDP_DISALLOW_COPY_AND_ASSIGN(Device);

  // -- Job entry points. One job at a time; on_done receives the completion
  //    tick. All fail with DeviceBusy if a job is running, InvalidArgument if
  //    the job's addresses leave this device's rank, and FailedPrecondition
  //    if ownership is required but not held. ------------------------------

  Status StartSelect(const SelectJob& job, std::function<void(sim::Tick)> on_done);
  Status StartAggregate(const AggregateJob& job,
                        std::function<void(sim::Tick)> on_done);
  Status StartProject(const ProjectJob& job,
                      std::function<void(sim::Tick)> on_done);
  Status StartRowStore(const RowStoreJob& job,
                       std::function<void(sim::Tick)> on_done);
  Status StartSort(const SortJob& job, std::function<void(sim::Tick)> on_done);
  Status StartGroupBy(const GroupByJob& job,
                      std::function<void(sim::Tick)> on_done);
  Status StartProbe(const ProbeJob& job, std::function<void(sim::Tick)> on_done);

  bool busy() const { return busy_; }
  const DeviceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = DeviceStats{}; }
  const DeviceConfig& config() const { return config_; }
  uint32_t channel_index() const { return channel_index_; }
  uint32_t rank_index() const { return rank_index_; }
  dram::DramSystem* dram() { return dram_; }
  /// The memory system's event queue, which this unit schedules on.
  sim::EventQueue* event_queue() const { return eq_; }

  /// Matches produced by the most recent completed select/row-store job.
  uint64_t last_match_count() const { return last_matches_; }

  // -- Fault injection & recovery (src/fault) -------------------------------

  /// Attaches a seeded fault source. Null (the default) means no faults; the
  /// draw sites only exist when built with NDP_FAULT_INJECT.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Outcome of the most recent job: OK after a clean FinishJob, the failure
  /// Status after an async abort (uncorrectable ECC, watchdog AbortJob).
  /// Drivers must consult this in their completion callback — a callback
  /// invocation alone no longer implies success.
  const Status& last_job_status() const { return last_job_status_; }

  /// FNV-1a checksum over every output-bitmap word the most recent
  /// select/row-store job wrote back, in flush order. The driver recomputes
  /// it from DRAM to detect result corruption (writeback verification).
  uint64_t last_result_checksum() const { return last_result_checksum_; }

  /// Hard-resets a hung or runaway job: cancels every armed command lane,
  /// settles timing stats, marks the job failed and frees the device WITHOUT
  /// invoking the completion callback. No-op when idle, so a watchdog may
  /// race a completion harmlessly. This is the recovery path a real driver
  /// reaches through the device reset register.
  void AbortJob();

  /// A sequencer continuation. It receives the tick its step completed: the
  /// last data beat of a burst chain, the completion of an issued command,
  /// or the firing tick of a timed step. Captures are bounded, so building
  /// one never allocates.
  using Continuation = InlineFunction<void(sim::Tick)>;

  class Lane;

 private:
  // The generation-specific half lives behind DatapathModel (datapath.h),
  // which is this class's ONLY friend: concrete generations reach the shell
  // exclusively through DatapathModel's protected forwarders.
  friend class DatapathModel;

  /// Validates that [base, base+len) lies within this device's rank and
  /// returns OK, with decoded sanity checks.
  Status CheckRange(uint64_t base, uint64_t len) const;
  Status CheckIdleAndOwned() const;

  dram::Channel& channel() { return dram_->channel(channel_index_); }
  const dram::DramTiming& timing() const { return dram_->timing(); }
  sim::Tick BusCycles(uint32_t n) const {
    return n * dram_->timing().tck_ps;
  }

  // -- Command lanes. Lane 0 carries the shell's own chains (every non-scan
  //    job, bitmap writeback, the probe filter load) and v1's scan; v2 sizes
  //    one lane per bank in Attach. -------------------------------------------

  Lane& lane(uint32_t i = 0);
  void SetLaneCount(uint32_t n);
  /// Unschedules every armed lane (job end: finish, failure or abort).
  void CancelLanes();

  // -- Select/row-store machinery. The scan sequencer itself lives in the
  //    generation's DatapathModel; the shell keeps the writeback and
  //    completion paths every generation shares. ----------------------------

  void ContinueWhenEngineReady(void (Device::*step)());
  void FlushBitmap(Continuation next);
  void FinishJob();

  /// Fails the running job with `st`: cancels armed lanes, settles stats,
  /// records last_job_status_ and invokes the completion callback (which
  /// must check last_job_status()).
  void FailJob(Status st);

  /// Teardown shared by every job end: releases generation-held DRAM state,
  /// cancels armed lanes, settles the busy time and clears the job state.
  void EndJob();

  /// Draws the hang fault for a freshly dispatched job. Returns true when
  /// the sequencer hangs: the first step is never scheduled and only
  /// AbortJob (driver watchdog) can free the device.
  bool MaybeInjectHang();

  /// Applies one drawn read-path fault to the burst at `burst_addr` through
  /// the SECDED model. Correctable: corrected in-flight, scrub counter bumps,
  /// returns true (job continues). Uncorrectable: fails the job, returns
  /// false.
  bool HandleReadFault(uint64_t burst_addr);

  /// True when every hash lane's bit for `key` is set in the probe SRAM
  /// (Bloom membership; no false negatives by construction).
  bool EvalProbeKey(int64_t key) const;

  void AggregateStep();
  void ReadAggregateColumn();
  void ProjectStep();
  void ReadProjectColumn();
  void FlushProjectOutput(Continuation next, bool final_flush);
  void SortStep();
  void SortBlock(uint64_t block_rows, sim::Tick last_data);
  void GroupByStep();
  /// Rows in the group-by chunk starting at the cursor (one DRAM row).
  uint64_t GroupByChunkRows() const;
  void ReadGroupByColumns();
  void ProcessGroupByChunk(sim::Tick data_done);

  dram::DramSystem* dram_;
  uint32_t channel_index_;
  uint32_t rank_index_;
  DeviceConfig config_;
  sim::EventQueue* eq_;
  std::unique_ptr<DatapathModel> datapath_;  ///< generation-specific sequencer

  bool busy_ = false;
  std::function<void(sim::Tick)> on_done_;
  DeviceStats stats_;
  uint64_t last_matches_ = 0;

  std::unique_ptr<Lane[]> lanes_;  ///< in-flight command chains
  uint32_t num_lanes_ = 0;

  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
  uint64_t job_epoch_ = 0;       ///< bumped on every job end; lanes carry it
  Status last_job_status_;       ///< outcome of the most recent job
  uint64_t last_result_checksum_ = 0;  ///< FNV-1a over flushed bitmap words

  // Job state (one job at a time; union-like, only the active kind is used).
  std::optional<SelectJob> select_;
  std::optional<AggregateJob> aggregate_;
  std::optional<ProjectJob> project_;
  std::optional<RowStoreJob> rowstore_;
  std::optional<SortJob> sort_;
  std::optional<GroupByJob> groupby_;
  std::optional<ProbeJob> probe_;
  std::vector<int64_t> groupby_agg_;
  std::vector<int64_t> groupby_count_;
  std::vector<uint64_t> probe_sram_;  ///< Bloom image latched by BeginProbe

  uint64_t cursor_rows_ = 0;       ///< rows processed so far
  sim::Tick engine_ready_at_ = 0;  ///< datapath pipeline availability
  BitVector pending_bits_;         ///< output buffer (n bits)
  uint64_t pending_bit_count_ = 0;
  uint64_t bitmap_write_cursor_ = 0;  ///< bytes of bitmap already written
  int64_t agg_acc_ = 0;
  std::vector<int64_t> project_out_buffer_;
  uint64_t project_emitted_ = 0;
};

/// \brief One in-flight command chain of the device sequencer: an intrusive
/// event node that holds the pending DRAM command, what runs once it issues
/// (or once its row goes stale), and the job epoch it was armed in. Re-arming
/// a lane is a few field writes plus EventQueue::Schedule — no allocation —
/// and the device cancels every armed lane when its job ends, so no
/// continuation of a finished or aborted job can fire.
///
/// A lane runs one chain at a time. A continuation may start the lane's next
/// chain (or another lane's); the lane copies the continuation out before
/// calling it and touches nothing afterwards.
class Device::Lane final : public sim::EventNode {
 public:
  Lane() = default;

  /// Issues `cmd` as soon as legal (and, in polite mode, as soon as the host
  /// controller is idle), then runs `next(done_tick)`. For column commands,
  /// if a third party (host refresh in polite mode) closed the target row
  /// between scheduling and issue, `on_stale` runs instead so the caller can
  /// re-open the row (likewise for an ACT whose bank was opened).
  /// `defer_to_refresh` controls the §3.3 refresh steal-back backoff:
  /// generations whose command chains must not yield mid-flight (v2 holds
  /// armed banks the controller refuses to refresh) pass false and yield at
  /// their own barriers instead.
  void IssueWhenReady(const dram::Command& cmd, Continuation next,
                      Continuation on_stale = {}, bool defer_to_refresh = true);

  /// Reads the burst at `addr` (opening its row as needed); runs
  /// `next(data_done_tick)`.
  void ReadBurst(uint64_t addr, Continuation next) {
    ReadBurstChain(addr, 1, next);
  }
  /// Reads `bursts` (> 0) consecutive bursts from `addr`; runs `next` with
  /// the last burst's data-done tick.
  void ReadBurstChain(uint64_t addr, uint64_t bursts, Continuation next);
  /// Writes `bursts` consecutive bursts from `addr` (the functional bytes
  /// must already be in the backing store); runs `next` after the last one,
  /// at once when `bursts` is 0.
  void WriteBurstChain(uint64_t addr, uint64_t bursts, Continuation next);

  /// Runs `step` at tick `t` (>= Now()).
  void ScheduleAt(sim::Tick t, Continuation step);

 protected:
  void Fire() override;

 private:
  friend class Device;

  void Arm(sim::Tick t);
  void TryIssue();
  void StartBurst();
  void OpenRow();
  void IssueColumn();
  void OnBurstDone(sim::Tick done);

  Device* dev_ = nullptr;
  uint64_t epoch_ = 0;       ///< job epoch at arming; checked on firing
  bool timed_step_ = false;  ///< armed by ScheduleAt, not by a command wait

  // The pending command (or, for a timed step, only `next_`).
  dram::Command cmd_{};
  bool defer_to_refresh_ = true;
  Continuation next_;
  Continuation on_stale_;

  // The burst chain in flight.
  bool write_ = false;
  uint64_t burst_addr_ = 0;
  uint64_t bursts_left_ = 0;
  dram::DramLocation loc_;
  Continuation chain_done_;
};

}  // namespace ndp::jafar
