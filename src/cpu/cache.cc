#include "cpu/cache.h"

#include <algorithm>

#include "util/logging.h"

namespace ndp::cpu {

Cache::Cache(sim::EventQueue* eq, sim::ClockDomain clock, CacheConfig config,
             MemSink* next, const StatsScope& stats)
    : eq_(eq), clock_(clock), config_(config), next_(next) {
  NDP_CHECK(config_.line_bytes != 0 &&
            (config_.line_bytes & (config_.line_bytes - 1)) == 0);
  uint64_t lines = config_.size_bytes / config_.line_bytes;
  NDP_CHECK_MSG(lines % config_.ways == 0, "size/ways/line mismatch");
  num_sets_ = static_cast<uint32_t>(lines / config_.ways);
  lines_.resize(lines);
  // A miss always records its own waiter, even with no merge budget.
  waiter_slots_ = std::max(1u, config_.max_waiters_per_mshr);
  mshrs_.resize(config_.mshrs);
  waiters_.resize(static_cast<size_t>(config_.mshrs) * waiter_slots_);
  stats.Counter("hits", &stats_.hits);
  stats.Counter("misses", &stats_.misses);
  stats.Counter("mshr_merges", &stats_.mshr_merges);
  stats.Counter("writebacks", &stats_.writebacks);
  stats.Counter("prefetches_issued", &stats_.prefetches_issued);
  stats.Counter("prefetch_hits", &stats_.prefetch_hits);
  stats.Counter("rejections", &stats_.rejections);
}

Cache::Line* Cache::Lookup(uint64_t line_addr) {
  uint32_t set = SetIndex(line_addr);
  Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == line_addr) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::Lookup(uint64_t line_addr) const {
  return const_cast<Cache*>(this)->Lookup(line_addr);
}

bool Cache::Contains(uint64_t addr) const { return Lookup(LineAddr(addr)) != nullptr; }

// ndp-lint: no-alloc-begin (request path: runs once per access and per fill)

bool Cache::TryAccess(uint64_t addr, bool is_write, Completion on_complete) {
  uint64_t line_addr = LineAddr(addr);
  if (Line* line = Lookup(line_addr)) {
    ++stats_.hits;
    if (line->prefetched) {
      ++stats_.prefetch_hits;
      line->prefetched = false;
    }
    line->lru = ++lru_tick_;
    if (is_write) line->dirty = true;
    if (on_complete) {
      eq_->ScheduleAfter(HitLatencyPs(),
                         [on_complete, this]() mutable {
                           on_complete(eq_->Now());
                         });
    }
    return true;
  }
  // Miss: merge into a pending fill if one exists for this line.
  if (Mshr* m = FindMshr(line_addr)) {
    if (m->num_waiters >= config_.max_waiters_per_mshr) {
      ++stats_.rejections;
      return false;
    }
    ++stats_.mshr_merges;
    m->prefetch_only = false;
    AddWaiter(m, is_write, on_complete);
    return true;
  }
  if (mshrs_in_use_ >= config_.mshrs) {
    ++stats_.rejections;
    return false;
  }
  ++stats_.misses;
  Mshr* m = AllocateMshr(line_addr);
  m->prefetch_only = false;
  AddWaiter(m, is_write, on_complete);
  IssueFill(line_addr);
  MaybePrefetch(line_addr);
  return true;
}

Cache::Mshr* Cache::FindMshr(uint64_t line_addr) {
  for (Mshr& m : mshrs_) {
    if (m.valid && m.line_addr == line_addr) return &m;
  }
  return nullptr;
}

Cache::Mshr* Cache::AllocateMshr(uint64_t line_addr) {
  for (Mshr& m : mshrs_) {
    if (m.valid) continue;
    m = Mshr{};
    m.line_addr = line_addr;
    m.valid = true;
    ++mshrs_in_use_;
    return &m;
  }
  NDP_CHECK_MSG(false, "no free MSHR");
  return nullptr;
}

void Cache::AddWaiter(Mshr* m, bool is_write, const Completion& on_complete) {
  const size_t index = static_cast<size_t>(m - mshrs_.data());
  Waiter& w = waiters_[index * waiter_slots_ + m->num_waiters++];
  w.is_write = is_write;
  w.on_complete = on_complete;
}

void Cache::IssueFill(uint64_t line_addr) {
  Mshr* m = FindMshr(line_addr);
  if (m == nullptr || m->issued) return;
  // Lookup latency before the miss propagates downstream.
  eq_->ScheduleAfter(HitLatencyPs(), [this, line_addr] {
    Mshr* m2 = FindMshr(line_addr);
    if (m2 == nullptr) return;
    bool ok = next_->TryAccess(line_addr, /*is_write=*/false,
                               [this, line_addr](sim::Tick t) {
                                 HandleFill(line_addr, t);
                               });
    if (ok) {
      m2->issued = true;
    } else {
      // Downstream backpressure: retry after one cycle.
      eq_->ScheduleAfter(clock_.period_ps(), [this, line_addr] {
        if (Mshr* m3 = FindMshr(line_addr)) {
          m3->issued = false;
          IssueFill(line_addr);
        }
      });
      m2->issued = true;  // suppress duplicate issue until retry fires
    }
  });
}

void Cache::HandleFill(uint64_t line_addr, sim::Tick t) {
  Mshr* m = FindMshr(line_addr);
  NDP_CHECK(m != nullptr);
  Install(line_addr, m->prefetch_only);
  Line* line = Lookup(line_addr);
  NDP_CHECK(line != nullptr);
  const Waiter* w = &waiters_[static_cast<size_t>(m - mshrs_.data()) *
                              waiter_slots_];
  for (const Waiter* end = w + m->num_waiters; w != end; ++w) {
    if (w->is_write) line->dirty = true;
    if (w->on_complete) {
      eq_->ScheduleAfter(HitLatencyPs(),
                         [cb = w->on_complete, this]() mutable {
                           cb(eq_->Now());
                         });
    }
  }
  // Nothing above can reach this cache's MSHRs (the writeback goes down a
  // level), so the slot is released only once its waiters are scheduled.
  m->valid = false;
  --mshrs_in_use_;
  (void)t;
}

// ndp-lint: no-alloc-end

void Cache::Install(uint64_t line_addr, bool prefetched) {
  uint32_t set = SetIndex(line_addr);
  Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  Line* victim = &base[0];
  for (uint32_t w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    IssueWriteback(victim->tag);
  }
  victim->valid = true;
  victim->dirty = false;
  victim->prefetched = prefetched;
  victim->tag = line_addr;
  victim->lru = ++lru_tick_;
}

void Cache::IssueWriteback(uint64_t line_addr) {
  ++pending_writebacks_;
  if (next_->TryAccess(line_addr, /*is_write=*/true, nullptr)) {
    --pending_writebacks_;
    return;
  }
  eq_->ScheduleAfter(clock_.period_ps(), [this, line_addr] {
    --pending_writebacks_;
    IssueWriteback(line_addr);
  });
}

void Cache::MaybePrefetch(uint64_t line_addr) {
  for (uint32_t d = 1; d <= config_.prefetch_degree; ++d) {
    uint64_t pf = line_addr + static_cast<uint64_t>(d) * config_.line_bytes;
    if (Lookup(pf) != nullptr) continue;
    if (FindMshr(pf) != nullptr) continue;
    if (mshrs_in_use_ >= config_.mshrs) break;
    ++stats_.prefetches_issued;
    AllocateMshr(pf);  // prefetch_only MSHR with no waiters
    IssueFill(pf);
  }
}

void Cache::InvalidateAll() {
  for (auto& l : lines_) l = Line{};
}

}  // namespace ndp::cpu
