// Property test for inline next edges (EventQueue::FireInline): a run loop
// that lets clocked components run their next edge inline must execute
// exactly what a Step()-only loop executes — the same (component, tick) log,
// the same Now() and the same executed_events() — since a bare Step() never
// fires inline.
//
// The world: clocked components at 625, 1000 and 1250 ps (their edges
// coincide every 5 ns) whose Tick() draws, from one shared RNG, whether to
// keep ticking, self-wakes, cross-wakes, flips of the run loop's predicate,
// closure events on coinciding edges, private timers scheduled and
// cancelled, nested run loops and bare Step() calls. Any divergence in event order changes the
// RNG stream and therefore the log.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sim/event_queue.h"
#include "sim/ticking.h"
#include "util/rng.h"

namespace ndp::sim {
namespace {

using Log = std::vector<std::pair<int, Tick>>;  // (actor, time)

/// How a scenario runs the queue: the queue's own run loops, or a
/// Step()-only emulation of them (the oracle, which never fires inline).
class Driver {
 public:
  virtual ~Driver() = default;
  virtual bool RunUntilTrue(EventQueue* q, const std::function<bool()>& p) = 0;
  /// Returns the time RunUntil leaves Now() at.
  virtual Tick RunUntil(EventQueue* q, Tick until) = 0;
  virtual void RunUntilEmpty(EventQueue* q) = 0;
};

class LoopDriver final : public Driver {
 public:
  bool RunUntilTrue(EventQueue* q, const std::function<bool()>& p) override {
    return q->RunUntilTrue([&p] { return p(); });
  }
  Tick RunUntil(EventQueue* q, Tick until) override {
    q->RunUntil(until);
    return q->Now();
  }
  void RunUntilEmpty(EventQueue* q) override { q->RunUntilEmpty(); }
};

class StepDriver final : public Driver {
 public:
  bool RunUntilTrue(EventQueue* q, const std::function<bool()>& p) override {
    while (!p()) {
      if (!q->Step()) return p();
    }
    return true;
  }
  Tick RunUntil(EventQueue* q, Tick until) override {
    while (!q->empty() && q->NextEventTime() <= until) q->Step();
    // RunUntil then moves the clock to `until`; Step() cannot, so report it.
    return std::max(q->Now(), until);
  }
  void RunUntilEmpty(EventQueue* q) override {
    while (q->Step()) {
    }
  }
};

class World;

class Component final : public TickingComponent {
 public:
  Component(EventQueue* eq, ClockDomain clock, World* world, int id)
      : TickingComponent(eq, clock), world_(world), id_(id) {}
  ~Component() override {
    if (timer_.scheduled()) event_queue()->Cancel(&timer_);
  }

  void ToggleTimer(sim::Tick when) {
    if (timer_.scheduled()) {
      event_queue()->Cancel(&timer_);
    } else {
      event_queue()->Schedule(when, &timer_);
    }
  }

 protected:
  bool Tick() override;

 private:
  void OnTimer();

  World* world_;
  int id_;
  MemberEventNode<Component, &Component::OnTimer> timer_{this};
};

class World {
 public:
  World(uint64_t seed, Driver* driver) : rng_(seed), driver_(driver) {
    const Tick periods[] = {625, 1000, 1250};
    const int n = 3 + static_cast<int>(rng_.NextBounded(4));
    for (int i = 0; i < n; ++i) {
      comps_.push_back(std::make_unique<Component>(
          &eq_, ClockDomain(periods[rng_.NextBounded(3)]), this, i));
    }
  }

  /// A component's edge: logs it and draws what happens next.
  bool OnTick(int id) {
    log_.emplace_back(id, eq_.Now());
    if (++ticks_ >= kTickBudget) return false;
    const uint32_t r = rng_.NextBounded(100);
    if (r < 1) {
      flag_ = true;  // the enclosing RunUntilTrue's predicate flips
    } else if (r < 3) {
      nested_flag_ = true;
    } else if (r < 6) {
      Pick()->Wake();  // cross-wake (sometimes itself)
    } else if (r < 8) {
      comps_[id]->Wake();  // self-wake from inside Tick(): re-arms the node
    } else if (r < 10) {
      ScheduleWakeOnCoincidingEdge();
    } else if (r < 12) {
      comps_[id]->ToggleTimer(eq_.Now() + 1 + rng_.NextBounded(4000));
    } else if (r < 13 && depth_ == 0) {
      eq_.ScheduleAt(eq_.Now() + rng_.NextBounded(3000), [this] { Nest(); });
    } else if (r < 14 && depth_ == 0) {
      eq_.ScheduleAt(eq_.Now() + rng_.NextBounded(3000), [this] { StepOnce(); });
    }
    return rng_.NextBounded(100) < 97;
  }

  void OnTimer(int id) {
    log_.emplace_back(200 + id, eq_.Now());
    if (rng_.NextBounded(2) == 0) Pick()->Wake();
  }

  /// Closure events on the next few 5 ns boundaries, where edges of every
  /// clock coincide, each waking a random component.
  void ScheduleWakeOnCoincidingEdge() {
    const Tick at = (eq_.Now() / 5000 + 1 + rng_.NextBounded(3)) * 5000;
    const int target = static_cast<int>(rng_.NextBounded(comps_.size()));
    eq_.ScheduleAt(at, [this, target] {
      log_.emplace_back(100 + target, eq_.Now());
      comps_[target]->Wake();
    });
  }

  /// A run loop entered from inside an event.
  void Nest() {
    log_.emplace_back(300, eq_.Now());
    ++depth_;
    nested_flag_ = false;
    const bool ok = driver_->RunUntilTrue(&eq_, [this] { return nested_flag_; });
    log_.emplace_back(ok ? 301 : 302, eq_.Now());
    --depth_;
  }

  /// A bare Step() from inside an event: exactly one event, even under a
  /// run loop.
  void StepOnce() {
    ++depth_;
    const bool stepped = eq_.Step();
    log_.emplace_back(stepped ? 303 : 304, eq_.Now());
    --depth_;
  }

  /// The scenario: alternating RunUntilTrue and RunUntil phases, then a
  /// final drain. Returns a record of the clock and event count after each
  /// (the clock as RunUntil leaves it, which a Step()-only loop reports).
  std::vector<uint64_t> Run() {
    std::vector<uint64_t> record;
    Tick base = 0;
    for (int phase = 0; phase < 12; ++phase) {
      // Kick: closure events at or after `base` (the clock both drivers
      // agree on), some on coinciding edges, some in between.
      for (int k = 0; k < 3; ++k) {
        const int target = static_cast<int>(rng_.NextBounded(comps_.size()));
        Tick at = base + rng_.NextBounded(20000);
        if (rng_.NextBounded(2) == 0) at = (at / 5000 + 1) * 5000;
        eq_.ScheduleAt(at, [this, target] {
          log_.emplace_back(100 + target, eq_.Now());
          comps_[target]->Wake();
        });
      }
      if (phase % 2 == 0) {
        flag_ = false;
        const bool ok = driver_->RunUntilTrue(&eq_, [this] { return flag_; });
        base = eq_.Now();
        record.push_back(ok);
      } else {
        // A bound between edges of every clock (none divides 5000k + 77).
        const Tick until = base + 5000 * (1 + rng_.NextBounded(8)) + 77;
        base = driver_->RunUntil(&eq_, until);
      }
      record.push_back(base);
      record.push_back(eq_.executed_events());
    }
    driver_->RunUntilEmpty(&eq_);
    record.push_back(std::max(eq_.Now(), base));
    record.push_back(eq_.executed_events());
    return record;
  }

  const Log& log() const { return log_; }
  const EventQueue& eq() const { return eq_; }

 private:
  static constexpr uint64_t kTickBudget = 6000;

  Component* Pick() {
    return comps_[rng_.NextBounded(comps_.size())].get();
  }

  EventQueue eq_;
  Rng rng_;
  Driver* driver_;
  std::vector<std::unique_ptr<Component>> comps_;
  Log log_;
  uint64_t ticks_ = 0;
  bool flag_ = false;
  bool nested_flag_ = false;
  int depth_ = 0;
};

bool Component::Tick() { return world_->OnTick(id_); }
void Component::OnTimer() { world_->OnTimer(id_); }

TEST(InlineEdgePropertyTest, RunLoopsMatchStepOnlyOracle) {
  uint64_t inline_edges = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LoopDriver loop_driver;
    StepDriver step_driver;
    World loop(seed, &loop_driver);
    World step(seed, &step_driver);
    const std::vector<uint64_t> loop_record = loop.Run();
    const std::vector<uint64_t> step_record = step.Run();
    ASSERT_EQ(loop.log(), step.log());
    // The records hold Now() and executed_events() after every phase.
    EXPECT_EQ(loop_record, step_record);
    EXPECT_EQ(step.eq().inline_edges(), 0u);
    inline_edges += loop.eq().inline_edges();
  }
  // The property is vacuous unless the run loops actually went inline.
  EXPECT_GT(inline_edges, 5000u);
}

}  // namespace
}  // namespace ndp::sim
