#include "cpu/cache.h"

#include <gtest/gtest.h>

#include <vector>

#include "cpu/hierarchy.h"
#include "dram/dram_system.h"

namespace ndp::cpu {
namespace {

/// A MemSink with a fixed latency, for testing a cache in isolation.
class FixedLatencySink : public MemSink {
 public:
  FixedLatencySink(sim::EventQueue* eq, sim::Tick latency)
      : eq_(eq), latency_(latency) {}

  bool TryAccess(uint64_t addr, bool is_write, Completion cb) override {
    ++accesses_;
    if (is_write) ++writes_;
    if (reject_next_ > 0) {
      --reject_next_;
      --accesses_;
      if (is_write) --writes_;
      return false;
    }
    if (cb) {
      eq_->ScheduleAfter(latency_, [cb, this]() mutable { cb(eq_->Now()); });
    }
    addrs_.push_back(addr);
    return true;
  }

  uint64_t accesses() const { return accesses_; }
  uint64_t writes() const { return writes_; }
  const std::vector<uint64_t>& addrs() const { return addrs_; }
  void RejectNext(int n) { reject_next_ = n; }

 private:
  sim::EventQueue* eq_;
  sim::Tick latency_;
  uint64_t accesses_ = 0;
  uint64_t writes_ = 0;
  int reject_next_ = 0;
  std::vector<uint64_t> addrs_;
};

class CacheTest : public ::testing::Test {
 protected:
  void Build(CacheConfig cfg, sim::Tick mem_latency = 50000) {
    cache_.reset();  // components cancel their event nodes; queue must outlive them
    sink_.reset();
    eq_ = std::make_unique<sim::EventQueue>();
    sink_ = std::make_unique<FixedLatencySink>(eq_.get(), mem_latency);
    cache_ = std::make_unique<Cache>(eq_.get(), sim::ClockDomain(1000), cfg,
                                     sink_.get());
  }

  sim::Tick TimedAccess(uint64_t addr, bool is_write = false) {
    bool done = false;
    sim::Tick start = eq_->Now(), end = 0;
    while (!cache_->TryAccess(addr, is_write, [&](sim::Tick t) {
      done = true;
      end = t;
    })) {
      eq_->RunUntil(eq_->Now() + 1000);
    }
    EXPECT_TRUE(eq_->RunUntilTrue([&] { return done; }));
    return end - start;
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<FixedLatencySink> sink_;
  std::unique_ptr<Cache> cache_;
};

TEST_F(CacheTest, MissThenHit) {
  CacheConfig cfg;
  cfg.size_bytes = 4096;
  cfg.ways = 4;
  cfg.hit_latency_cycles = 2;
  Build(cfg);
  sim::Tick miss = TimedAccess(0);
  EXPECT_GE(miss, 50000u);
  sim::Tick hit = TimedAccess(8);  // same line
  EXPECT_EQ(hit, 2000u);
  EXPECT_EQ(cache_->stats().hits, 1u);
  EXPECT_EQ(cache_->stats().misses, 1u);
}

TEST_F(CacheTest, LruEviction) {
  CacheConfig cfg;
  cfg.size_bytes = 2 * 64;  // one set, two ways
  cfg.ways = 2;
  Build(cfg);
  (void)TimedAccess(0);
  (void)TimedAccess(64);
  (void)TimedAccess(0);    // touch line 0: line 64 becomes LRU
  (void)TimedAccess(128);  // evicts line 64
  EXPECT_TRUE(cache_->Contains(0));
  EXPECT_FALSE(cache_->Contains(64));
  EXPECT_TRUE(cache_->Contains(128));
}

TEST_F(CacheTest, DirtyEvictionWritesBack) {
  CacheConfig cfg;
  cfg.size_bytes = 2 * 64;
  cfg.ways = 2;
  Build(cfg);
  (void)TimedAccess(0, /*is_write=*/true);
  (void)TimedAccess(64);
  (void)TimedAccess(128);  // evicts dirty line 0
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return cache_->Quiescent(); }));
  EXPECT_EQ(cache_->stats().writebacks, 1u);
  EXPECT_EQ(sink_->writes(), 1u);
}

TEST_F(CacheTest, CleanEvictionDoesNotWriteBack) {
  CacheConfig cfg;
  cfg.size_bytes = 2 * 64;
  cfg.ways = 2;
  Build(cfg);
  (void)TimedAccess(0);
  (void)TimedAccess(64);
  (void)TimedAccess(128);
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return cache_->Quiescent(); }));
  EXPECT_EQ(cache_->stats().writebacks, 0u);
  EXPECT_EQ(sink_->writes(), 0u);
}

TEST_F(CacheTest, MshrMergesConcurrentMissesToSameLine) {
  CacheConfig cfg;
  Build(cfg);
  int done = 0;
  ASSERT_TRUE(cache_->TryAccess(0, false, [&](sim::Tick) { ++done; }));
  ASSERT_TRUE(cache_->TryAccess(8, false, [&](sim::Tick) { ++done; }));
  ASSERT_TRUE(cache_->TryAccess(16, false, [&](sim::Tick) { ++done; }));
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return done == 3; }));
  EXPECT_EQ(sink_->accesses(), 1u);  // one fill serves all three
  EXPECT_EQ(cache_->stats().mshr_merges, 2u);
}

TEST_F(CacheTest, MshrLimitCausesRejection) {
  CacheConfig cfg;
  cfg.mshrs = 2;
  Build(cfg);
  ASSERT_TRUE(cache_->TryAccess(0, false, nullptr));
  ASSERT_TRUE(cache_->TryAccess(64, false, nullptr));
  EXPECT_FALSE(cache_->TryAccess(128, false, nullptr));
  EXPECT_EQ(cache_->stats().rejections, 1u);
}

TEST_F(CacheTest, PrefetcherFetchesNextLines) {
  CacheConfig cfg;
  cfg.prefetch_degree = 2;
  cfg.mshrs = 8;
  Build(cfg);
  (void)TimedAccess(0);
  ASSERT_TRUE(eq_->RunUntilTrue([&] { return cache_->Quiescent(); }));
  EXPECT_TRUE(cache_->Contains(64));
  EXPECT_TRUE(cache_->Contains(128));
  EXPECT_EQ(cache_->stats().prefetches_issued, 2u);
  // A demand hit on a prefetched line is counted.
  (void)TimedAccess(64);
  EXPECT_EQ(cache_->stats().prefetch_hits, 1u);
}

TEST_F(CacheTest, DownstreamRejectionIsRetried) {
  CacheConfig cfg;
  Build(cfg);
  sink_->RejectNext(3);
  sim::Tick lat = TimedAccess(0);
  // Three rejected attempts at 1-cycle retry intervals, then the fill.
  EXPECT_GE(lat, 50000u + 3000u);
  EXPECT_TRUE(cache_->Contains(0));
}

TEST_F(CacheTest, HierarchyL1MissL2HitFasterThanMemory) {
  sim::EventQueue eq;
  dram::ControllerConfig mc_cfg;
  dram::DramOrganization org;
  org.rows_per_bank = 256;
  dram::DramSystem dram(&eq, dram::DramTiming::DDR3_1600(), org,
                        dram::InterleaveScheme::kContiguous, mc_cfg);
  CacheConfig l1;
  l1.name = "L1";
  l1.size_bytes = 1024;
  l1.ways = 2;
  l1.hit_latency_cycles = 2;
  CacheConfig l2;
  l2.name = "L2";
  l2.size_bytes = 64 * 1024;
  l2.ways = 8;
  l2.hit_latency_cycles = 10;
  CacheHierarchy hier(&eq, sim::ClockDomain(1000), {l1, l2}, &dram, 10000);
  ASSERT_EQ(hier.num_levels(), 2u);

  auto timed = [&](uint64_t addr) {
    bool done = false;
    sim::Tick start = eq.Now(), end = 0;
    EXPECT_TRUE(hier.top()->TryAccess(addr, false, [&](sim::Tick t) {
      done = true;
      end = t;
    }));
    EXPECT_TRUE(eq.RunUntilTrue([&] { return done; }));
    return end - start;
  };

  sim::Tick cold = timed(0);       // miss everywhere -> DRAM
  // Evict line 0 from tiny L1 but keep it in L2.
  (void)timed(1024);
  (void)timed(2048);
  ASSERT_FALSE(hier.level(0).Contains(0));
  ASSERT_TRUE(hier.level(1).Contains(0));
  sim::Tick l2_hit = timed(0);
  sim::Tick l1_hit = timed(8);
  EXPECT_LT(l2_hit, cold);
  EXPECT_LT(l1_hit, l2_hit);
}

}  // namespace
}  // namespace ndp::cpu
