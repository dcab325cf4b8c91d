#include "cpu/core.h"

#include <algorithm>

#include "util/macros.h"

namespace ndp::cpu {

Core::Core(sim::EventQueue* eq, CoreConfig config, MemSink* l1,
           const StatsScope& stats)
    : sim::TickingComponent(eq, config.clock),
      config_(config),
      l1_(l1),
      predictor_(config.branch) {
  NDP_CHECK(config_.rob_entries >= 4);
  // A µop may depend on one up to 255 positions older; those must not share
  // a slot with any in-flight µop.
  NDP_CHECK_MSG(config_.rob_entries + 255 < kRingSize,
                "rob_entries too large for the ROB ring");
  pending_drains_.reserve(config_.store_buffer_entries);
  stats.Counter("cycles", &stats_.cycles);
  stats.Counter("uops_retired", &stats_.uops_retired);
  stats.Counter("loads", &stats_.loads);
  stats.Counter("stores", &stats_.stores);
  stats.Counter("branches", &stats_.branches);
  stats.Counter("mispredicts", &stats_.mispredicts);
  stats.Counter("load_reject_cycles", &stats_.load_reject_cycles);
  stats.Counter("rob_full_cycles", &stats_.rob_full_cycles);
  stats.Counter("fetch_stall_cycles", &stats_.fetch_stall_cycles);
  stats.Gauge("max_retire_gap_ps", &stats_.max_retire_gap_ps);
}

Core::~Core() {
  if (drain_retry_.scheduled()) event_queue()->Cancel(&drain_retry_);
}

ndp::Status Core::Run(UopStream* stream, std::function<void(sim::Tick)> on_done) {
  if (stream_ != nullptr) {
    return ndp::Status::FailedPrecondition("core is already running a kernel");
  }
  stream_ = stream;
  on_done_ = std::move(on_done);
  stream_exhausted_ = false;
  pending_uop_.reset();
  fetch_blocked_on_seq_.reset();
  fetch_stalled_until_ = 0;
  last_retire_tick_ = event_queue()->Now();
  // The gap gauge is a per-kernel maximum; counters accumulate across runs
  // (per-run figures come from snapshot deltas), but a max cannot be
  // delta'd, so it restarts with each kernel.
  stats_.max_retire_gap_ps = 0;
  Wake();
  return ndp::Status::OK();
}

std::optional<sim::Tick> Core::CompletionOf(uint64_t seq) const {
  const RobEntry& e = Slot(seq);
  // Slot reused by a younger µop: this one retired long ago.
  if (e.seq != seq) return sim::Tick{0};
  // A retired µop always has its completion; an in-flight one may not yet.
  if (e.completion_known) return e.completion;
  return std::nullopt;
}

void Core::ResolveCompletion(RobEntry* e) {
  if (e->completion_known) return;
  if (e->is_load) return;  // set by the cache callback
  sim::Tick base = e->dispatch;
  if (e->dep_seq != 0) {
    auto dep = CompletionOf(e->dep_seq);
    if (!dep) return;  // dependence not resolved yet
    base = std::max(base, *dep);
  }
  e->completion = base + e->latency * clock().period_ps();
  e->completion_known = true;
}

bool Core::DispatchOne(sim::Tick now) {
  if (fetch_blocked_on_seq_ || now < fetch_stalled_until_) {
    ++stats_.fetch_stall_cycles;
    return false;
  }
  if (RobOccupancy() >= config_.rob_entries) {
    ++stats_.rob_full_cycles;
    return false;
  }
  if (!pending_uop_) {
    Uop u;
    if (stream_exhausted_ || !stream_->Next(&u)) {
      stream_exhausted_ = true;
      return false;
    }
    pending_uop_ = u;
  }

  const Uop& u = *pending_uop_;
  // The entry is written in place; a µop that fails to dispatch leaves the
  // slot to be rewritten next cycle. The slot's previous occupant retired at
  // least kRingSize - rob_entries µops ago, beyond any dependence distance.
  const uint64_t seq = next_seq_;
  RobEntry& e = Slot(seq);
  e.seq = seq;
  e.dep_seq = u.dep_distance > 0 && seq > u.dep_distance
                  ? seq - u.dep_distance
                  : 0;
  e.dispatch = now;
  e.completion_known = false;
  e.is_load = u.type == UopType::kLoad;
  e.latency = u.latency;

  switch (u.type) {
    case UopType::kLoad: {
      bool ok = l1_->TryAccess(u.addr, /*is_write=*/false,
                               [this, seq](sim::Tick t) {
                                 RobEntry& re = Slot(seq);
                                 NDP_CHECK_MSG(re.seq == seq && seq >= head_seq_,
                                               "load completion lost");
                                 re.completion = t;
                                 re.completion_known = true;
                               });
      if (!ok) {
        ++stats_.load_reject_cycles;
        return false;  // backpressure; retry next cycle
      }
      ++stats_.loads;
      break;
    }
    case UopType::kStore: {
      if (outstanding_stores_ >= config_.store_buffer_entries) return false;
      ++outstanding_stores_;
      ++stats_.stores;
      // Post-retirement write drains through the cache with retry-on-reject.
      DrainStore(u.addr);
      e.completion = now + clock().period_ps();
      e.completion_known = true;
      break;
    }
    case UopType::kBranch: {
      ++stats_.branches;
      bool correct = predictor_.PredictAndUpdate(u.pc, u.taken);
      if (!correct) {
        ++stats_.mispredicts;
        if (config_.block_on_mispredict_resolution) {
          fetch_blocked_on_seq_ = seq;
        } else {
          // Front-end refill bubble only; in-flight work keeps executing.
          fetch_stalled_until_ =
              std::max(fetch_stalled_until_,
                       now + config_.branch.mispredict_penalty_cycles *
                                 clock().period_ps());
        }
      }
      break;
    }
    case UopType::kAlu:
    case UopType::kNop:
      break;
  }

  ResolveCompletion(&e);
  ++next_seq_;
  pending_uop_.reset();
  return true;
}

void Core::DispatchAluRun(sim::Tick now, uint64_t n) {
  // Each µop is `Uop{}`: no dependence, one cycle, so its completion is
  // known at dispatch, exactly as DispatchOne + ResolveCompletion compute it.
  // The other fields are read only while a completion is unknown.
  const sim::Tick completion = now + clock().period_ps();
  for (uint64_t end = next_seq_ + n; next_seq_ < end; ++next_seq_) {
    RobEntry& e = Slot(next_seq_);
    e.seq = next_seq_;
    e.completion = completion;
    e.completion_known = true;
  }
}

void Core::DrainStore(uint64_t addr) {
  if (l1_->TryAccess(addr, /*is_write=*/true, nullptr)) {
    --outstanding_stores_;
    return;
  }
  pending_drains_.push_back(addr);
  if (!drain_retry_.scheduled()) {
    event_queue()->Schedule(event_queue()->Now() + clock().period_ps(),
                            &drain_retry_);
  }
}

void Core::RetryDrains() {
  // Each pending store gets one L1 attempt per cycle, as when each carried
  // its own retry closure; the rejected ones stay, in order.
  size_t kept = 0;
  for (uint64_t addr : pending_drains_) {
    if (l1_->TryAccess(addr, /*is_write=*/true, nullptr)) {
      --outstanding_stores_;
    } else {
      pending_drains_[kept++] = addr;
    }
  }
  pending_drains_.resize(kept);
  if (!pending_drains_.empty()) {
    event_queue()->Schedule(event_queue()->Now() + clock().period_ps(),
                            &drain_retry_);
  }
}

void Core::FinishIfDone(sim::Tick now) {
  if (stream_exhausted_ && !pending_uop_ && RobOccupancy() == 0 &&
      outstanding_stores_ == 0 && stream_ != nullptr) {
    stream_ = nullptr;
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    if (cb) cb(now);
  }
}

bool Core::Tick() {
  if (stream_ == nullptr) return false;
  sim::Tick now = event_queue()->Now();
  ++stats_.cycles;

  // Retire stage.
  for (uint32_t r = 0; r < config_.retire_width && head_seq_ != next_seq_;
       ++r) {
    RobEntry& head = Slot(head_seq_);
    ResolveCompletion(&head);
    if (!head.completion_known || head.completion > now) break;
    stats_.max_retire_gap_ps =
        std::max(stats_.max_retire_gap_ps, now - last_retire_tick_);
    last_retire_tick_ = now;
    if (fetch_blocked_on_seq_ && *fetch_blocked_on_seq_ == head.seq) {
      fetch_blocked_on_seq_.reset();
      fetch_stalled_until_ =
          head.completion +
          config_.branch.mispredict_penalty_cycles * clock().period_ps();
    }
    ++stats_.uops_retired;
    ++head_seq_;
  }

  // Dispatch stage. Where the stream offers a run of `Uop{}`, as many as fit
  // this cycle go in at once; anything else, and every stall, takes the
  // per-µop path, which also does the stall accounting.
  for (uint32_t d = 0; d < config_.issue_width;) {
    if (!pending_uop_ && !stream_exhausted_ && !fetch_blocked_on_seq_ &&
        now >= fetch_stalled_until_ &&
        RobOccupancy() < config_.rob_entries) {
      uint64_t room = config_.rob_entries - RobOccupancy();
      uint64_t n = stream_->TakeAluRun(
          std::min<uint64_t>(config_.issue_width - d, room));
      if (n > 0) {
        DispatchAluRun(now, n);
        d += static_cast<uint32_t>(n);
        continue;
      }
    }
    if (!DispatchOne(now)) break;
    ++d;
  }

  FinishIfDone(now);
  return stream_ != nullptr;
}

}  // namespace ndp::cpu
