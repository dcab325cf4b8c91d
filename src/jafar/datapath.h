// The generation-specific half of the JAFAR device. Device (device.h) is the
// generation-neutral shell — job admission, the driver protocol, watchdog /
// retry / checksum recovery, runtime-lane integration — and DatapathModel
// owns everything that differs between device generations: how a scan job is
// sequenced into DRAM commands and how the comparators are timed.
//
// DatapathModel is the ONLY friend of Device. Concrete generations never
// touch Device internals directly; they reach the shell exclusively through
// the protected forwarders below, which keeps the shell/datapath seam
// explicit and auditable. Generation dispatch happens in exactly one place:
// MakeDatapathModel (the factory in datapath.cc). Everywhere else must go
// through this interface (enforced by the ndp-lint `generation-dispatch`
// rule).
#pragma once

#include <cstdint>
#include <memory>

#include "dram/command.h"
#include "dram/dram_system.h"
#include "jafar/config.h"
#include "jafar/device.h"
#include "jafar/generation.h"
#include "jafar/jobs.h"
#include "sim/time.h"
#include "util/stats_registry.h"

namespace ndp::jafar {

/// \brief One device generation's scan datapath: sequencer + comparator
/// timing. Constructed once per Device by MakeDatapathModel.
class DatapathModel {
 public:
  explicit DatapathModel(Device* dev) : dev_(dev) {}
  virtual ~DatapathModel() = default;
  DatapathModel(const DatapathModel&) = delete;
  DatapathModel& operator=(const DatapathModel&) = delete;

  virtual DeviceGeneration generation() const = 0;

  /// One-time DRAM-side setup at device construction (v2 installs the bank
  /// filter timing on its rank) and registration of generation-specific
  /// counters under the device's stats scope.
  virtual void Attach(const StatsScope& stats) { (void)stats; }

  /// Entry point for scan jobs (select, row-store and probe): called once,
  /// after the invocation overhead has elapsed, with the job state already
  /// staged in the shell. Drives the entire scan and ends it with FinishJob()
  /// (or FailJob() via the shell's fault paths).
  virtual void BeginScan() = 0;

  /// Entry point for semijoin probe jobs. Non-virtual and shared by every
  /// generation: brackets the filter-image preload (DRAM reads latched into
  /// the probe SRAM, with the shadow checker's load window held open) and
  /// then hands over to the generation's BeginScan sequencer.
  void BeginProbe();

  /// Job-teardown hook, called on every job end — clean finish, failure and
  /// driver abort alike. Generations holding DRAM-side state (v2's armed
  /// bank filters) force-release it here; must be idempotent and must not
  /// schedule events.
  virtual void OnJobTeardown() {}

 protected:
  // -- Forwarders into the device shell. DatapathModel is Device's single
  // friend; concrete generations access the shell solely through these. ----

  const DeviceConfig& config() const;
  DeviceStats& stats();
  sim::EventQueue* eq() const;
  uint32_t rank_index() const;
  uint32_t channel_index() const;
  dram::DramSystem& dram();
  dram::Channel& channel();
  const dram::DramTiming& timing() const;
  sim::Tick BusCycles(uint32_t n) const;

  // Job state staged by the shell's Start* entry points.
  bool is_rowstore() const;
  bool is_probe() const;
  const SelectJob& select_job() const;
  const RowStoreJob& rowstore_job() const;
  const ProbeJob& probe_job() const;
  /// Whether a column value passes the staged select or probe job: the
  /// range comparator, or Bloom membership against the preloaded probe SRAM.
  bool EvalColumnValue(int64_t v) const;
  /// Whether the row-store tuple at `tuple_addr` passes every predicate
  /// (one backing-store read per attribute: tuples may straddle bursts).
  bool EvalTuple(uint64_t tuple_addr) const;
  uint64_t cursor_rows() const;
  void set_cursor_rows(uint64_t rows);
  sim::Tick engine_ready_at() const;
  void set_engine_ready_at(sim::Tick t);
  void add_matches(uint64_t n);

  // Output-bitmap buffer (n bits, flushed by the shell's writeback path).
  void AppendBit(bool set);
  uint64_t pending_bit_count() const;

  // Shell sequencer: command lanes (see Device::Lane). Lane 0 is shared
  // with the shell's writeback path; SetLaneCount is for Attach only.
  using Continuation = Device::Continuation;
  Device::Lane& lane(uint32_t i = 0);
  void SetLaneCount(uint32_t n);
  void FlushBitmap(Continuation next);
  void FinishJob();
  void FailJob(Status st);

  // Functional reads against the backing store.
  static constexpr uint32_t kBurstBytes = 64;
  /// Copies the 64 B burst at `burst_addr` out of the backing store.
  void ReadBurstBytes(uint64_t burst_addr, unsigned char* out) const;
  /// The column element at `p` inside a burst copy: a 64-bit word, or a
  /// sign-extended 32-bit half when elem_bytes == 4. Select and probe
  /// elements never straddle a burst (bases are 64 B aligned).
  int64_t DecodeValue(const unsigned char* p) const;
  uint64_t Read64(uint64_t addr) const;

  // Fault-injection draws (no-ops when faults are compiled out or no
  // injector is attached).
  bool DrawStallAtBurst();
  bool HandleReadFault(uint64_t burst_addr);

  // Host-controller interaction (refresh steal-back, §3.3).
  bool RefreshClaims() const;

 private:
  Device* dev_;
};

/// The single place that branches on the generation. Everything downstream
/// of Device's constructor sees only the interface.
std::unique_ptr<DatapathModel> MakeDatapathModel(DeviceGeneration gen,
                                                 Device* dev);

}  // namespace ndp::jafar
