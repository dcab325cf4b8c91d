#include "dram/rank.h"

#include <algorithm>

#include "util/macros.h"

namespace ndp::dram {

void Rank::Configure(const DramTiming* timing, const DramOrganization* org) {
  timing_ = timing;
  org_ = org;
  bus_ = timing->BusClock();
  banks_.resize(org->banks_per_rank);
  for (auto& b : banks_) b.Configure(timing);
}

sim::Tick Rank::EarliestActivate(uint32_t bank_idx) const {
  sim::Tick t = std::max(banks_[bank_idx].CanActivateAt(), next_act_any_);
  // tFAW: at most four ACTs in any tFAW window. If four have issued, the next
  // must wait until the oldest leaves the window.
  if (activates_recorded_ >= 4) {
    t = std::max(t, recent_activates_[activates_recorded_ % 4] +
                        Cycles(timing_->tfaw));
  }
  return std::max(t, mrs_busy_until_);
}

sim::Tick Rank::EarliestIssue(const Command& cmd) const {
  NDP_CHECK(timing_ != nullptr);
  switch (cmd.type) {
    case CommandType::kActivate:
      return EarliestActivate(cmd.bank);
    case CommandType::kRead:
      if (banks_[cmd.bank].armed()) {
        // Filter RDs never touch the shared IO path, so the rank-wide tCCD
        // and tWTR turnaround windows do not apply; the bank itself paces
        // them at the comparator rate (folded into CanReadAt).
        return std::max(banks_[cmd.bank].CanReadAt(), mrs_busy_until_);
      }
      return std::max({banks_[cmd.bank].CanReadAt(), next_column_cmd_,
                       next_read_after_write_, mrs_busy_until_});
    case CommandType::kWrite:
      return std::max({banks_[cmd.bank].CanWriteAt(), next_column_cmd_,
                       mrs_busy_until_});
    case CommandType::kPrecharge: {
      sim::Tick t = std::max(banks_[cmd.bank].CanPrechargeAt(), mrs_busy_until_);
      if (banks_[cmd.bank].armed() && banks_[cmd.bank].pending_fill()) {
        // A draining PRE must also win the per-rank result bus.
        t = std::max(t, result_bus_free_at_);
      }
      return t;
    }
    case CommandType::kBankArm:
    case CommandType::kBankDisarm:
      // Mode-switch-like commands: only the MRS quiescence window gates the
      // command itself; bank-state legality is enforced in Issue.
      return mrs_busy_until_;
    case CommandType::kRefresh: {
      sim::Tick t = mrs_busy_until_;
      for (const auto& b : banks_) t = std::max(t, b.CanActivateAt());
      return t;
    }
    case CommandType::kModeRegSet: {
      // MRS requires all banks precharged and quiescent column traffic.
      // CanActivateAt also folds in tRP after the closing PRE and tRFC after
      // a refresh — without it an MRS could slip inside a refresh window.
      sim::Tick t = std::max(next_column_cmd_, mrs_busy_until_);
      for (const auto& b : banks_) {
        t = std::max({t, b.CanPrechargeAt(), b.CanActivateAt()});
      }
      return t;
    }
  }
  return 0;
}

Result<sim::Tick> Rank::Issue(const Command& cmd, sim::Tick t) {
  NDP_CHECK(timing_ != nullptr);
  if (cmd.bank >= banks_.size() && cmd.type != CommandType::kRefresh &&
      cmd.type != CommandType::kModeRegSet) {
    return Status::InvalidArgument("bank index out of range");
  }
  if (t < EarliestIssue(cmd)) {
    return Status::TimingViolation("command " + cmd.ToString() +
                                   " issued before rank window expired");
  }
  switch (cmd.type) {
    case CommandType::kActivate: {
      NDP_RETURN_NOT_OK(banks_[cmd.bank].Activate(t, cmd.row));
      next_act_any_ = std::max(next_act_any_, t + Cycles(timing_->trrd));
      recent_activates_[activates_recorded_++ % 4] = t;
      ++activates_issued_;
      return t;
    }
    case CommandType::kRead: {
      if (banks_[cmd.bank].armed()) {
        // Filter-mode RD: match bits latch in the bank; the shared column
        // path (tCCD window) is untouched.
        NDP_ASSIGN_OR_RETURN(sim::Tick done, banks_[cmd.bank].Read(t));
        ++filter_reads_issued_;
        return done;
      }
      NDP_ASSIGN_OR_RETURN(sim::Tick done, banks_[cmd.bank].Read(t));
      next_column_cmd_ = std::max(next_column_cmd_, t + Cycles(timing_->tccd));
      ++reads_issued_;
      return done;
    }
    case CommandType::kWrite: {
      NDP_ASSIGN_OR_RETURN(sim::Tick done, banks_[cmd.bank].Write(t));
      next_column_cmd_ = std::max(next_column_cmd_, t + Cycles(timing_->tccd));
      // tWTR starts at the end of write data.
      next_read_after_write_ =
          std::max(next_read_after_write_, done + Cycles(timing_->twtr));
      ++writes_issued_;
      return done;
    }
    case CommandType::kPrecharge: {
      Bank& b = banks_[cmd.bank];
      const bool drains = b.armed() && b.pending_fill();
      NDP_RETURN_NOT_OK(b.Precharge(t));
      if (drains) {
        // The accumulator streams out over the per-rank result bus while the
        // bank precharges; the caller learns when the match bits are home.
        NDP_CHECK(filter_ != nullptr);
        result_bus_free_at_ = t + Cycles(filter_->drain_cycles);
        b.NoteAccumulatorDrained();
        ++drains_completed_;
        return result_bus_free_at_;
      }
      return t;
    }
    case CommandType::kBankArm: {
      NDP_RETURN_NOT_OK(banks_[cmd.bank].Arm(t));
      ++bank_arms_issued_;
      return t;
    }
    case CommandType::kBankDisarm: {
      NDP_RETURN_NOT_OK(banks_[cmd.bank].Disarm(t));
      return t;
    }
    case CommandType::kRefresh: {
      if (AnyBankArmed()) {
        return Status::TimingViolation("REF to rank with armed banks");
      }
      if (!AllBanksIdle()) {
        return Status::TimingViolation("REF with open rows");
      }
      for (auto& b : banks_) NDP_RETURN_NOT_OK(b.Refresh(t));
      ++refreshes_issued_;
      return t + Cycles(timing_->trfc);
    }
    case CommandType::kModeRegSet: {
      if (!AllBanksIdle()) {
        return Status::TimingViolation("MRS with open rows");
      }
      mode_regs_[cmd.mode_register & 3] = cmd.mode_value;
      mrs_busy_until_ = t + Cycles(timing_->tmrd);
      return t;
    }
  }
  return Status::Internal("unreachable");
}

bool Rank::AllBanksIdle() const {
  for (const auto& b : banks_) {
    if (b.has_open_row()) return false;
  }
  return true;
}

void Rank::set_bank_filter_timing(const BankFilterTiming* filter) {
  filter_ = filter;
  for (auto& b : banks_) b.set_filter_timing(filter);
}

bool Rank::AnyBankArmed() const {
  for (const auto& b : banks_) {
    if (b.armed()) return true;
  }
  return false;
}

void Rank::ResetBankFilters() {
  for (auto& b : banks_) b.ResetFilter();
}

}  // namespace ndp::dram
