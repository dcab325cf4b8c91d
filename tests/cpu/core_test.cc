#include "cpu/core.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "cpu/cache.h"
#include "cpu/hierarchy.h"
#include "cpu/kernels.h"
#include "dram/dram_system.h"
#include "util/rng.h"
#include "util/stats_registry.h"

namespace ndp::cpu {
namespace {

/// Serves every access after a fixed delay; never rejects.
class PerfectMemory : public MemSink {
 public:
  PerfectMemory(sim::EventQueue* eq, sim::Tick latency)
      : eq_(eq), latency_(latency) {}
  bool TryAccess(uint64_t, bool, Completion cb) override {
    if (cb) {
      eq_->ScheduleAfter(latency_, [cb, this]() mutable { cb(eq_->Now()); });
    }
    return true;
  }

 private:
  sim::EventQueue* eq_;
  sim::Tick latency_;
};

/// Emits a fixed vector of µops.
class VectorStream : public UopStream {
 public:
  explicit VectorStream(std::vector<Uop> uops) : uops_(std::move(uops)) {}
  bool Next(Uop* u) override {
    if (i_ >= uops_.size()) return false;
    *u = uops_[i_++];
    return true;
  }

 private:
  std::vector<Uop> uops_;
  size_t i_ = 0;
};

Uop Alu(uint8_t dep = 0, uint8_t latency = 1) {
  Uop u;
  u.type = UopType::kAlu;
  u.dep_distance = dep;
  u.latency = latency;
  return u;
}
Uop Load(uint64_t addr) {
  Uop u;
  u.type = UopType::kLoad;
  u.addr = addr;
  return u;
}
Uop Branch(bool taken, uint64_t pc = 0x500) {
  Uop u;
  u.type = UopType::kBranch;
  u.taken = taken;
  u.pc = pc;
  return u;
}

sim::Tick RunKernel(Core* core, sim::EventQueue* eq, UopStream* stream) {
  bool done = false;
  sim::Tick end = 0;
  sim::Tick start = eq->Now();
  EXPECT_TRUE(core->Run(stream, [&](sim::Tick t) {
                done = true;
                end = t;
              }).ok());
  EXPECT_TRUE(eq->RunUntilTrue([&] { return done; }));
  return end - start;
}

class CoreTest : public ::testing::Test {
 protected:
  void Build(CoreConfig cfg, sim::Tick mem_latency = 0) {
    core_.reset();  // components cancel their event nodes; queue must outlive them
    mem_.reset();
    eq_ = std::make_unique<sim::EventQueue>();
    mem_ = std::make_unique<PerfectMemory>(eq_.get(), mem_latency);
    core_ = std::make_unique<Core>(eq_.get(), cfg, mem_.get());
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<PerfectMemory> mem_;
  std::unique_ptr<Core> core_;
};

TEST_F(CoreTest, IndependentAluThroughputMatchesIssueWidth) {
  CoreConfig cfg;
  cfg.issue_width = 4;
  cfg.retire_width = 4;
  Build(cfg);
  std::vector<Uop> uops(400, Alu());
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  // 400 independent 1-cycle µops at 4-wide: ~100 cycles + pipeline slack.
  uint64_t cycles = dur / cfg.clock.period_ps();
  EXPECT_GE(cycles, 100u);
  EXPECT_LE(cycles, 110u);
  EXPECT_NEAR(core_->stats().Ipc(), 4.0, 0.5);
}

TEST_F(CoreTest, DependenceChainSerializes) {
  CoreConfig cfg;
  cfg.issue_width = 4;
  Build(cfg);
  std::vector<Uop> uops(200, Alu(/*dep=*/1));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  uint64_t cycles = dur / cfg.clock.period_ps();
  // A chain of 200 dependent 1-cycle ops needs >= 200 cycles.
  EXPECT_GE(cycles, 200u);
  EXPECT_LE(core_->stats().Ipc(), 1.2);
}

TEST_F(CoreTest, LoadLatencyIsHiddenByMlp) {
  CoreConfig cfg;
  cfg.rob_entries = 64;
  Build(cfg, /*mem_latency=*/100000);  // 100 cycles
  // 16 independent loads: with a 64-entry window all overlap; total time
  // should be ~1 latency, not 16.
  std::vector<Uop> uops;
  for (int i = 0; i < 16; ++i) uops.push_back(Load(static_cast<uint64_t>(i) * 64));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  EXPECT_LT(dur, 2 * 100000u);
}

TEST_F(CoreTest, SmallRobLimitsMlp) {
  CoreConfig cfg;
  cfg.rob_entries = 4;
  cfg.issue_width = 1;
  Build(cfg, /*mem_latency=*/100000);
  std::vector<Uop> uops;
  for (int i = 0; i < 16; ++i) uops.push_back(Load(static_cast<uint64_t>(i) * 64));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  // At most 4 in flight: at least 4 serialized memory latencies.
  EXPECT_GE(dur, 4 * 100000u);
}

TEST_F(CoreTest, MispredictsAddStallCycles) {
  CoreConfig cfg;
  cfg.branch.mispredict_penalty_cycles = 20;
  Build(cfg);
  // Random branch outcomes defeat any predictor (gshare would learn a simple
  // alternating pattern perfectly, so use genuine coin flips).
  ndp::Rng rng(11);
  std::vector<Uop> random_branches;
  for (int i = 0; i < 100; ++i) random_branches.push_back(Branch(rng.NextBool(0.5)));
  // Constant outcomes are learned immediately.
  std::vector<Uop> constant(100, Branch(true));

  VectorStream s1(random_branches);
  sim::Tick dur_alt = RunKernel(core_.get(), eq_.get(), &s1);
  uint64_t mispredicts = core_->stats().mispredicts;
  EXPECT_GT(mispredicts, 30u);

  core_->ResetStats();
  core_->predictor().Reset();
  VectorStream s2(constant);
  sim::Tick dur_const = RunKernel(core_.get(), eq_.get(), &s2);
  EXPECT_LT(core_->stats().mispredicts, 15u);  // gshare warm-up only
  EXPECT_GT(dur_alt, dur_const + 30 * 20 * cfg.clock.period_ps());
}

TEST_F(CoreTest, RejectsConcurrentKernels) {
  Build(CoreConfig{});
  std::vector<Uop> uops(10, Alu());
  VectorStream s1(uops), s2(uops);
  ASSERT_TRUE(core_->Run(&s1, nullptr).ok());
  EXPECT_EQ(core_->Run(&s2, nullptr).code(), StatusCode::kFailedPrecondition);
  eq_->RunUntilEmpty();
  EXPECT_FALSE(core_->busy());
}

TEST_F(CoreTest, BackToBackKernelsOnSameCore) {
  Build(CoreConfig{});
  std::vector<Uop> uops(50, Alu());
  VectorStream s1(uops);
  (void)RunKernel(core_.get(), eq_.get(), &s1);
  VectorStream s2(uops);
  (void)RunKernel(core_.get(), eq_.get(), &s2);
  EXPECT_EQ(core_->stats().uops_retired, 100u);
}

TEST_F(CoreTest, StoresDrainBeforeCompletion) {
  Build(CoreConfig{});
  std::vector<Uop> uops;
  for (int i = 0; i < 20; ++i) {
    Uop u;
    u.type = UopType::kStore;
    u.addr = static_cast<uint64_t>(i) * 64;
    uops.push_back(u);
  }
  VectorStream s(uops);
  (void)RunKernel(core_.get(), eq_.get(), &s);
  EXPECT_EQ(core_->stats().stores, 20u);
  EXPECT_FALSE(core_->busy());
}

TEST_F(CoreTest, EndToEndWithCachesAndDram) {
  // Integration: a small select-like loop through a real L1 + DRAM stack.
  sim::EventQueue eq;
  dram::DramOrganization org;
  org.rows_per_bank = 256;
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous,
                        dram::ControllerConfig{});
  CacheConfig l1;
  l1.size_bytes = 4096;
  l1.ways = 4;
  CacheHierarchy hier(&eq, sim::ClockDomain(1000), {l1}, &dram, 5000);
  Core core(&eq, CoreConfig{}, hier.top());

  std::vector<Uop> uops;
  for (int i = 0; i < 64; ++i) {
    uops.push_back(Load(static_cast<uint64_t>(i) * 8));
    uops.push_back(Alu(1));
  }
  VectorStream s(uops);
  sim::Tick dur = RunKernel(&core, &eq, &s);
  EXPECT_GT(dur, 0u);
  // 64 loads over 8 lines: 8 DRAM fills. The OoO window issues loads to a
  // line while its fill is still in flight, so the non-miss accesses split
  // between plain hits and MSHR merges.
  const auto& cs = hier.level(0).stats();
  EXPECT_EQ(cs.misses, 8u);
  EXPECT_EQ(cs.hits + cs.mshr_merges, 56u);
  EXPECT_EQ(dram.TotalCounters().reads_served, 8u);
}


// --- ROB ring and bulk ALU-run dispatch ---------------------------------

/// Forwards Next() but never reports an ALU run, so every µop takes the
/// per-µop dispatch path.
class NoRunStream : public UopStream {
 public:
  explicit NoRunStream(UopStream* inner) : inner_(inner) {}
  bool Next(Uop* u) override { return inner_->Next(u); }

 private:
  UopStream* inner_;
};

/// A mixed workload: replayed trace chunks (compute gaps, loads, stores)
/// alternating with µop chunks (dependent chains up to dep_distance 255,
/// multi-cycle ALU ops, loads, NOPs and coin-flip branches that defeat the
/// predictor).
struct MixedWorkload {
  std::vector<std::vector<TraceEvent>> traces;
  std::vector<std::vector<Uop>> chunks;

  explicit MixedWorkload(uint64_t seed) {
    ndp::Rng rng(seed);
    auto addr = [&rng] { return rng.NextBounded(1u << 17) * uint64_t{64}; };
    for (int c = 0; c < 24; ++c) {
      std::vector<TraceEvent> t;
      for (int i = 0; i < 12; ++i) {
        t.push_back({TraceEvent::Kind::kCompute, rng.NextBounded(300)});
        if (rng.NextBool(0.2)) t.push_back({TraceEvent::Kind::kCompute, 0});
        if (rng.NextBool(0.3)) {
          t.push_back({TraceEvent::Kind::kCompute, rng.NextBounded(40)});
        }
        t.push_back({rng.NextBool(0.7) ? TraceEvent::Kind::kLoad
                                       : TraceEvent::Kind::kStore,
                     addr()});
      }
      traces.push_back(std::move(t));

      std::vector<Uop> u;
      for (int i = 0; i < 64; ++i) {
        switch (rng.NextBounded(6)) {
          case 0:
            u.push_back(Alu(static_cast<uint8_t>(1 + rng.NextBounded(255)),
                            static_cast<uint8_t>(1 + rng.NextBounded(4))));
            break;
          case 1:
            u.push_back(Alu(/*dep=*/255));
            break;
          case 2: {
            Uop l = Load(addr());
            l.dep_distance = static_cast<uint8_t>(rng.NextBounded(8));
            u.push_back(l);
            break;
          }
          case 3:
            u.push_back(Branch(rng.NextBool(0.5),
                               0x400 + rng.NextBounded(4) * 16));
            break;
          case 4: {
            Uop n;
            n.type = UopType::kNop;
            u.push_back(n);
            break;
          }
          default:
            u.push_back(Uop{});
            break;
        }
      }
      // A mispredict here (blocking model) drains the ROB, so the next
      // chunk's first compute gap dispatches into an empty window, where
      // the ALU runs' own completion times set the retire times.
      u.push_back(Branch(rng.NextBool(0.5), 0x800));
      chunks.push_back(std::move(u));
    }
  }

  /// A kernel of its own: it starts on an empty ROB and is compute-bound,
  /// so its end time is set by the ALU runs' completion times.
  std::vector<TraceEvent> compute_only = {{TraceEvent::Kind::kCompute, 2000}};
};

/// A core on a two-level cache hierarchy over DDR3, every component mounted
/// in one stats registry.
struct Machine {
  explicit Machine(CoreConfig cfg) {
    StatsScope root(&registry, "system");
    dram::DramOrganization org;
    org.rows_per_bank = 1024;
    dram = std::make_unique<dram::DramSystem>(
        &eq, dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, dram::ControllerConfig{},
        root.Sub("dram"));
    CacheConfig l1;
    l1.size_bytes = 16 * 1024;
    l1.ways = 4;
    l1.mshrs = 4;
    CacheConfig l2;
    l2.name = "L2";
    l2.size_bytes = 64 * 1024;
    l2.hit_latency_cycles = 12;
    l2.prefetch_degree = 2;
    hierarchy = std::make_unique<CacheHierarchy>(
        &eq, cfg.clock, std::vector<CacheConfig>{l1, l2}, dram.get(), 8000,
        root.Sub("cpu"));
    core = std::make_unique<Core>(&eq, cfg, hierarchy->top(),
                                  root.Sub("cpu").Sub("core"));
  }

  struct Result {
    sim::Tick duration_ps = 0;
    CoreStats stats;
    StatsSnapshot counters;
  };

  /// Runs the mixed workload as one kernel.
  Result RunMixed(const MixedWorkload& w, bool hide_runs) {
    std::vector<ReplayStream> replays;
    replays.reserve(w.traces.size());
    std::vector<VectorStream> vectors;
    vectors.reserve(w.chunks.size());
    std::vector<UopStream*> children;
    for (size_t i = 0; i < w.traces.size(); ++i) {
      replays.emplace_back(&w.traces[i]);
      vectors.emplace_back(w.chunks[i]);
      children.push_back(&replays.back());
      children.push_back(&vectors.back());
    }
    ConcatStream all(children);
    return Run(&all, hide_runs);
  }

  /// Runs `stream` as one kernel, optionally hiding its ALU runs.
  Result Run(UopStream* stream, bool hide_runs) {
    NoRunStream hidden(stream);
    CoreStats core_before = core->stats();
    StatsSnapshot before = registry.Snapshot();
    Result r;
    r.duration_ps =
        RunKernel(core.get(), &eq, hide_runs ? &hidden : stream);
    r.stats = core->stats().DeltaSince(core_before);
    r.counters = registry.Snapshot().DeltaSince(before);
    return r;
  }

  sim::EventQueue eq;
  StatsRegistry registry;
  std::unique_ptr<dram::DramSystem> dram;
  std::unique_ptr<CacheHierarchy> hierarchy;
  std::unique_ptr<Core> core;
};

void ExpectSameStats(const CoreStats& a, const CoreStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.uops_retired, b.uops_retired);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.branches, b.branches);
  EXPECT_EQ(a.mispredicts, b.mispredicts);
  EXPECT_EQ(a.load_reject_cycles, b.load_reject_cycles);
  EXPECT_EQ(a.rob_full_cycles, b.rob_full_cycles);
  EXPECT_EQ(a.fetch_stall_cycles, b.fetch_stall_cycles);
  EXPECT_EQ(a.max_retire_gap_ps, b.max_retire_gap_ps);
}

void ExpectSameCounters(const StatsSnapshot& a, const StatsSnapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [path, entry] : a.entries()) {
    ASSERT_TRUE(b.Has(path)) << path;
    EXPECT_EQ(entry.value, b.Value(path)) << path;
  }
}

CoreConfig Gem5LikeCore() {
  CoreConfig cfg;
  cfg.clock = sim::ClockDomain::FromMHz(1000);
  cfg.rob_entries = 128;
  cfg.issue_width = 2;
  cfg.retire_width = 2;
  cfg.branch.mispredict_penalty_cycles = 2;
  return cfg;
}

CoreConfig XeonLikeCore() {
  CoreConfig cfg;
  cfg.clock = sim::ClockDomain::FromMHz(2000);
  cfg.rob_entries = 192;
  cfg.issue_width = 4;
  cfg.retire_width = 4;
  cfg.store_buffer_entries = 32;
  cfg.branch.mispredict_penalty_cycles = 14;
  return cfg;
}

CoreConfig TinyRobCore() {
  CoreConfig cfg = Gem5LikeCore();
  cfg.rob_entries = 4;
  return cfg;
}

struct CorePreset {
  const char* name;
  CoreConfig (*make)();
};

// Prints the preset by name so the test's listed name is the same in every
// process (the default printer shows the pointers' addresses).
void PrintTo(const CorePreset& p, std::ostream* os) { *os << p.name; }

class AluRunEquivalenceTest : public ::testing::TestWithParam<CorePreset> {};

TEST_P(AluRunEquivalenceTest, BulkDispatchMatchesPerUopDispatch) {
  MixedWorkload w(/*seed=*/7);
  for (bool blocking : {false, true}) {
    SCOPED_TRACE(blocking ? "block on mispredict" : "refill bubble");
    CoreConfig cfg = GetParam().make();
    cfg.block_on_mispredict_resolution = blocking;
    Machine bulk(cfg), per_uop(cfg);
    auto expect_same = [](const Machine::Result& a, const Machine::Result& b) {
      EXPECT_EQ(a.duration_ps, b.duration_ps);
      ExpectSameStats(a.stats, b.stats);
      ExpectSameCounters(a.counters, b.counters);
    };
    Machine::Result a = bulk.RunMixed(w, /*hide_runs=*/false);
    expect_same(a, per_uop.RunMixed(w, /*hide_runs=*/true));
    // The workload really exercises stalls, mispredicts and memory.
    EXPECT_GT(a.stats.mispredicts, 0u);
    EXPECT_GT(a.stats.loads, 0u);
    EXPECT_GT(a.stats.stores, 0u);
    EXPECT_GT(a.stats.rob_full_cycles, 0u);

    ReplayStream compute_bulk(&w.compute_only), compute_per_uop(&w.compute_only);
    expect_same(bulk.Run(&compute_bulk, /*hide_runs=*/false),
                per_uop.Run(&compute_per_uop, /*hide_runs=*/true));
    // A later kernel on the same core reaches back across the boundaries.
    expect_same(bulk.RunMixed(w, /*hide_runs=*/false),
                per_uop.RunMixed(w, /*hide_runs=*/true));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, AluRunEquivalenceTest,
    ::testing::Values(CorePreset{"gem5", &Gem5LikeCore}, CorePreset{"xeon", &XeonLikeCore},
                      CorePreset{"rob4", &TinyRobCore}),
    [](const auto& p) { return std::string(p.param.name); });

TEST_F(CoreTest, ReplayStreamHandsOverComputeGapsAsRuns) {
  std::vector<TraceEvent> events = {{TraceEvent::Kind::kCompute, 5},
                                    {TraceEvent::Kind::kCompute, 0},
                                    {TraceEvent::Kind::kCompute, 2},
                                    {TraceEvent::Kind::kLoad, 64},
                                    {TraceEvent::Kind::kCompute, 3}};
  ReplayStream s(&events);
  EXPECT_EQ(s.TakeAluRun(4), 4u);
  Uop u;
  ASSERT_TRUE(s.Next(&u));  // the gap's fifth µop
  EXPECT_EQ(u.type, UopType::kAlu);
  EXPECT_EQ(s.TakeAluRun(10), 2u);  // crosses the empty gap into the next
  EXPECT_EQ(s.TakeAluRun(10), 0u);  // a load comes next
  ASSERT_TRUE(s.Next(&u));
  EXPECT_EQ(u.type, UopType::kLoad);
  EXPECT_EQ(s.TakeAluRun(2), 2u);
  EXPECT_EQ(s.TakeAluRun(2), 1u);
  EXPECT_EQ(s.TakeAluRun(2), 0u);
  EXPECT_FALSE(s.Next(&u));
}

TEST_F(CoreTest, DepDistance255ChainOnXeonSizedRob) {
  // Every µop depends on the one 255 positions earlier. With a 192-entry
  // ROB that producer has always retired, so its completion comes from its
  // ring slot and never stalls the consumer: the 1024 1-cycle µops (two
  // full trips round the ring) flow at 4 per cycle. Group k (µops
  // 4k..4k+3) dispatches on the edge of cycle k, the first edge being at
  // tick 0, and retires on the edge of cycle k + 1, so the last of 256
  // groups retires and the kernel ends 256 cycles in.
  CoreConfig cfg = XeonLikeCore();
  Build(cfg);
  std::vector<Uop> uops(1024, Alu(/*dep=*/255));
  VectorStream s(uops);
  sim::Tick dur = RunKernel(core_.get(), eq_.get(), &s);
  EXPECT_EQ(dur, 256 * cfg.clock.period_ps());
  EXPECT_EQ(core_->stats().uops_retired, 1024u);
  EXPECT_EQ(core_->stats().rob_full_cycles, 0u);
}

TEST(CoreDeathTest, RobTooLargeForRingAborts) {
  sim::EventQueue eq;
  PerfectMemory mem(&eq, 0);
  CoreConfig ok;
  ok.rob_entries = 256;  // 256 + 255 < 512
  Core fits(&eq, ok, &mem);
  CoreConfig too_big;
  too_big.rob_entries = 257;
  EXPECT_DEATH(Core(&eq, too_big, &mem), "rob_entries too large");
}
}  // namespace
}  // namespace ndp::cpu
