// Out-of-order core timing model (gem5 stand-in). Approximates an OoO
// pipeline with a ROB-sized instruction window, configurable issue/retire
// width, MSHR-limited memory-level parallelism through the cache hierarchy, a
// gshare branch predictor with a redirect penalty, and single-level data
// dependences between µops. Executes lazy µop streams (UopStream), so the
// 4M-row select loop of Figure 3 never materializes its trace.
//
// Host cost is O(1) per µop. The ROB is one power-of-two ring indexed by
// sequence number: the µop with seq `s` lives in slot `s & (kRingSize - 1)`
// from dispatch until the slot is reused kRingSize µops later, so a
// dependence lookup or a load's completion callback is a single slot access.
// The ring outlives retirement on purpose: kRingSize > rob_entries + 255
// (the largest dep_distance) guarantees that every µop a dispatching or
// retiring µop can depend on is still in its slot. Runs of independent
// 1-cycle ALU µops (a replayed trace's compute gaps) are dispatched in bulk
// through UopStream::TakeAluRun, without a per-µop Next() call; each µop
// still takes a ROB slot and retires at retire_width per cycle, so the
// simulated timing is exactly that of dispatching them one by one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cpu/branch_predictor.h"
#include "cpu/mem_if.h"
#include "cpu/uop.h"
#include "sim/event_queue.h"
#include "sim/ticking.h"
#include "util/stats_registry.h"
#include "util/status.h"

namespace ndp::cpu {

struct CoreConfig {
  sim::ClockDomain clock = sim::ClockDomain(1000);  ///< 1 GHz (gem5 config)
  uint32_t rob_entries = 128;
  uint32_t issue_width = 4;
  uint32_t retire_width = 4;
  uint32_t store_buffer_entries = 16;
  BranchPredictorConfig branch;
  /// Mispredict model. false (default): a mispredicted branch costs a
  /// front-end refill bubble of `mispredict_penalty_cycles` at dispatch —
  /// appropriate for short reconvergent hammocks (like a select loop's
  /// predicate test), where wrong-path and correct-path work overlap and
  /// memory-level parallelism survives the squash. true: dispatch blocks
  /// until the branch resolves (plus the penalty) — the pessimistic model
  /// where every mispredict drains the window; used as an ablation.
  bool block_on_mispredict_resolution = false;
};

struct CoreStats {
  uint64_t cycles = 0;
  uint64_t uops_retired = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t branches = 0;
  uint64_t mispredicts = 0;
  uint64_t load_reject_cycles = 0;   ///< cycles dispatch blocked on L1/MSHR
  uint64_t rob_full_cycles = 0;
  uint64_t fetch_stall_cycles = 0;   ///< cycles blocked after a mispredict
  /// Longest gap between consecutive retirements — the worst contiguous
  /// stall the workload observed (e.g. while its rank was lent to JAFAR).
  sim::Tick max_retire_gap_ps = 0;
  double Ipc() const {
    return cycles ? static_cast<double>(uops_retired) / static_cast<double>(cycles)
                  : 0.0;
  }
  /// Per-run stats as the difference against a snapshot taken before the run.
  /// Monotonic counters are subtracted; `max_retire_gap_ps` (a per-run max,
  /// reset at kernel start) is carried over from `*this`.
  CoreStats DeltaSince(const CoreStats& before) const {
    CoreStats d;
    d.cycles = cycles - before.cycles;
    d.uops_retired = uops_retired - before.uops_retired;
    d.loads = loads - before.loads;
    d.stores = stores - before.stores;
    d.branches = branches - before.branches;
    d.mispredicts = mispredicts - before.mispredicts;
    d.load_reject_cycles = load_reject_cycles - before.load_reject_cycles;
    d.rob_full_cycles = rob_full_cycles - before.rob_full_cycles;
    d.fetch_stall_cycles = fetch_stall_cycles - before.fetch_stall_cycles;
    d.max_retire_gap_ps = max_retire_gap_ps;
    return d;
  }
};

/// \brief The core model. One kernel executes at a time.
class Core : public sim::TickingComponent {
 public:
  /// `stats` (optional) mounts the core's counters (and the max-retire-gap
  /// gauge) into a registry under the scope's prefix.
  Core(sim::EventQueue* eq, CoreConfig config, MemSink* l1,
       const StatsScope& stats = {});
  ~Core() override;
  NDP_DISALLOW_COPY_AND_ASSIGN(Core);

  /// Begins executing `stream`; `on_done(tick)` fires when the last µop has
  /// retired and all stores have drained. Fails if a kernel is running.
  ndp::Status Run(UopStream* stream, std::function<void(sim::Tick)> on_done);

  bool busy() const { return stream_ != nullptr; }

  const CoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CoreStats{}; }
  const CoreConfig& core_config() const { return config_; }
  BranchPredictor& predictor() { return predictor_; }

 protected:
  bool Tick() override;

 private:
  /// One ROB slot, written in place at dispatch. After retirement it keeps
  /// the µop's completion until the slot is reused.
  struct RobEntry {
    uint64_t seq = 0;          ///< 0 = never used (sequence numbers start at 1)
    uint64_t dep_seq = 0;      ///< producer's seq; 0 = independent
    sim::Tick dispatch = 0;
    sim::Tick completion = 0;  ///< valid once completion_known
    bool completion_known = false;
    bool is_load = false;      ///< completion comes from the cache callback
    uint8_t latency = 1;
  };

  RobEntry& Slot(uint64_t seq) { return rob_[seq & (kRingSize - 1)]; }
  const RobEntry& Slot(uint64_t seq) const {
    return rob_[seq & (kRingSize - 1)];
  }
  uint64_t RobOccupancy() const { return next_seq_ - head_seq_; }

  /// Completion tick of a retired-or-inflight µop by sequence number, if
  /// known; 0 for a µop whose slot has been reused (retired long ago).
  std::optional<sim::Tick> CompletionOf(uint64_t seq) const;
  void ResolveCompletion(RobEntry* e);
  bool DispatchOne(sim::Tick now);
  void DispatchAluRun(sim::Tick now, uint64_t n);
  void DrainStore(uint64_t addr);
  void RetryDrains();
  void FinishIfDone(sim::Tick now);

  /// Holds the in-flight window plus the last 255+ retired µops, the
  /// farthest back a dep_distance reaches.
  static constexpr size_t kRingSize = 512;
  static_assert((kRingSize & (kRingSize - 1)) == 0, "ring must be a power of 2");

  CoreConfig config_;
  MemSink* l1_;
  BranchPredictor predictor_;

  UopStream* stream_ = nullptr;
  std::function<void(sim::Tick)> on_done_;

  RobEntry rob_[kRingSize];
  uint64_t head_seq_ = 1;  ///< oldest in-flight µop; == next_seq_ when empty
  uint64_t next_seq_ = 1;
  std::optional<Uop> pending_uop_;  ///< fetched but not yet dispatched

  std::optional<uint64_t> fetch_blocked_on_seq_;
  sim::Tick fetch_stalled_until_ = 0;
  uint32_t outstanding_stores_ = 0;
  /// Stores rejected by the L1 awaiting retry, oldest first; one persistent
  /// event retries them all each cycle instead of a closure per store per
  /// cycle. Capacity is reserved for the whole store buffer up front.
  std::vector<uint64_t> pending_drains_;
  sim::MemberEventNode<Core, &Core::RetryDrains> drain_retry_{this};
  bool stream_exhausted_ = false;
  sim::Tick last_retire_tick_ = 0;

  CoreStats stats_;
};

}  // namespace ndp::cpu
