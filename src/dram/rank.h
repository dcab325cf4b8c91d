// A DRAM rank: a set of banks that share command/data buses plus rank-wide
// timing constraints (tRRD, tFAW, tCCD, tWTR). Also owns the DDR3 mode
// registers; the paper proposes repurposing MR3's multipurpose-register (MPR)
// bit to transfer rank ownership between the memory controller and JAFAR
// (§2.2, "Coordinating DRAM Access").
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dram/bank.h"
#include "dram/command.h"
#include "dram/timing.h"
#include "util/status.h"

namespace ndp::dram {

/// Who is currently permitted to issue ordinary reads/writes to a rank.
enum class RankOwner : uint8_t {
  kHost,         ///< the on-chip memory controller (normal operation)
  kAccelerator,  ///< JAFAR, granted via the MR3/MPR mechanism
};

/// Bit in MR3 that enables the multipurpose register. While set, the memory
/// controller may not send ordinary read/write commands to the rank.
constexpr uint32_t kMr3MprEnableBit = 0x4;

/// \brief One rank: banks + cross-bank constraints + mode registers.
class Rank {
 public:
  Rank() = default;

  void Configure(const DramTiming* timing, const DramOrganization* org);

  uint32_t num_banks() const { return static_cast<uint32_t>(banks_.size()); }
  Bank& bank(uint32_t b) { return banks_[b]; }
  const Bank& bank(uint32_t b) const { return banks_[b]; }

  /// Earliest tick at which `cmd` may legally issue to this rank, considering
  /// bank state, tRRD/tFAW (for ACT), and tCCD/tWTR (for RD/WR). Does not
  /// consider channel-level bus contention (the Channel layers that on top).
  sim::Tick EarliestIssue(const Command& cmd) const;

  /// Issues `cmd` at tick `t`. For RD/WR returns the tick at which the last
  /// data beat completes; for other commands returns `t`. Returns a
  /// TimingViolation error if `t` < EarliestIssue(cmd).
  Result<sim::Tick> Issue(const Command& cmd, sim::Tick t);

  /// True if every bank is precharged (required before REF or ownership
  /// hand-off).
  bool AllBanksIdle() const;

  // -- v2 bank-level filtering ----------------------------------------------

  /// Installs the per-bank comparator timing (derived by the accel layer);
  /// required before any kBankArm may issue. Not owned.
  void set_bank_filter_timing(const BankFilterTiming* filter);
  const BankFilterTiming* bank_filter_timing() const { return filter_; }

  /// True if any bank's comparator is in filter mode. REF may not issue to a
  /// rank with armed banks (the comparators sit on the bank sense-amp path);
  /// the memory controller gates TryRefresh on this and the device disarms on
  /// refresh steal-back.
  bool AnyBankArmed() const;

  /// Out-of-band force-release of every bank's filter state (device reset
  /// line on job abort; not part of the JEDEC command flow). The protocol
  /// checker is told separately via NoteBankFilterReset.
  void ResetBankFilters();

  // -- Mode registers / ownership -------------------------------------------

  // -- Mode registers / ownership -------------------------------------------

  uint32_t mode_register(uint32_t index) const { return mode_regs_[index & 3]; }
  RankOwner owner() const {
    return (mode_regs_[3] & kMr3MprEnableBit) ? RankOwner::kAccelerator
                                              : RankOwner::kHost;
  }

  // -- Counters --------------------------------------------------------------

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t writes_issued() const { return writes_issued_; }
  uint64_t activates_issued() const { return activates_issued_; }
  uint64_t refreshes_issued() const { return refreshes_issued_; }
  uint64_t filter_reads_issued() const { return filter_reads_issued_; }
  uint64_t bank_arms_issued() const { return bank_arms_issued_; }
  uint64_t drains_completed() const { return drains_completed_; }

  // ECC scrub log: read-path bit flips observed on bursts served by this
  // rank, classified by the SECDED model (src/fault/ecc.h). Bumped by the
  // fault-injection path; a real controller would log these to the scrub
  // daemon via machine-check records.
  uint64_t ecc_corrected() const { return ecc_corrected_; }
  uint64_t ecc_uncorrectable() const { return ecc_uncorrectable_; }
  void NoteEccCorrected() { ++ecc_corrected_; }
  void NoteEccUncorrectable() { ++ecc_uncorrectable_; }

 private:
  sim::Tick Cycles(uint32_t n) const { return n * bus_.period_ps(); }
  sim::Tick EarliestActivate(uint32_t bank) const;

  const DramTiming* timing_ = nullptr;
  const DramOrganization* org_ = nullptr;
  const BankFilterTiming* filter_ = nullptr;
  sim::ClockDomain bus_;
  std::vector<Bank> banks_;
  std::array<uint32_t, 4> mode_regs_ = {0, 0, 0, 0};

  /// The per-rank result bus serializes accumulator drains: one bank's
  /// draining PRE occupies it for drain_cycles.
  sim::Tick result_bus_free_at_ = 0;

  // Rank-level windows.
  sim::Tick next_column_cmd_ = 0;  ///< tCCD across banks
  sim::Tick next_read_after_write_ = 0;  ///< tWTR
  sim::Tick next_act_any_ = 0;     ///< tRRD across banks
  sim::Tick mrs_busy_until_ = 0;   ///< tMRD after MRS
  /// tFAW window: the last four ACT ticks, a ring written at
  /// activates_recorded_ % 4 (which, once four are in, is the oldest).
  std::array<sim::Tick, 4> recent_activates_ = {};
  uint64_t activates_recorded_ = 0;

  uint64_t reads_issued_ = 0;
  uint64_t writes_issued_ = 0;
  uint64_t activates_issued_ = 0;
  uint64_t refreshes_issued_ = 0;
  uint64_t filter_reads_issued_ = 0;
  uint64_t bank_arms_issued_ = 0;
  uint64_t drains_completed_ = 0;
  uint64_t ecc_corrected_ = 0;
  uint64_t ecc_uncorrectable_ = 0;
};

}  // namespace ndp::dram
