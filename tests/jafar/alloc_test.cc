// Allocation regression for the device sequencer: once a device is warm, the
// heap traffic of a select must not grow with the number of bursts it reads.
// The command lanes keep every continuation inline, so a burst costs no
// allocation on either generation; a std::function continuation chain costs
// several per burst. The regex no-alloc lint rule cannot see allocations
// hidden inside std::function, so this test counts them at runtime.
//
// It replaces the global operator new, which is why it is its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dram/dram_system.h"
#include "jafar/device.h"
#include "sim/event_queue.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ndp::jafar {
namespace {

constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kCol = 0;        // rank 0
constexpr uint64_t kOut = 1 << 20;  // rank 0, well clear of the column

class SequencerAllocTest : public ::testing::TestWithParam<DeviceGeneration> {
 protected:
  void SetUp() override {
    eq_ = std::make_unique<sim::EventQueue>();
    dram::DramOrganization org;
    org.ranks_per_channel = 2;
    org.rows_per_bank = 1024;
    dram::ControllerConfig mc;
    mc.refresh_enabled = false;  // deterministic timing in unit tests
    dram_ = std::make_unique<dram::DramSystem>(
        eq_.get(), dram::DramTiming::DDR3_1600(), org,
        dram::InterleaveScheme::kContiguous, mc);
    DeviceConfig cfg =
        GetParam() == DeviceGeneration::kV2BankLevel
            ? DeviceConfig::DeriveBank(dram::DramTiming::DDR3_1600(), org,
                                       accel::DatapathResources{})
                  .ValueOrDie()
            : DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                   accel::DatapathResources{})
                  .ValueOrDie();
    device_ = std::make_unique<Device>(dram_.get(), 0, 0, cfg);
    bool granted = false;
    dram_->controller(0).TransferOwnership(
        0, dram::RankOwner::kAccelerator, [&](sim::Tick) { granted = true; });
    ASSERT_TRUE(eq_->RunUntilTrue([&] { return granted; }));
    std::vector<int64_t> values(8 * kPageBytes / 8);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<int64_t>((i * 7919) % 1000);
    }
    dram_->backing_store().Write(kCol, values.data(), values.size() * 8);
  }

  struct Run {
    uint64_t allocations = 0;
    uint64_t bursts = 0;
  };

  /// Runs a select over `pages` 4 KB pages and counts the heap allocations
  /// made from StartSelect to completion.
  Run Select(uint64_t pages) {
    SelectJob job;
    job.col_base = kCol;
    job.num_rows = pages * kPageBytes / 8;
    job.range_low = 250;
    job.range_high = 749;
    job.out_base = kOut;
    bool done = false;
    const uint64_t bursts_before = device_->stats().bursts_read;
    const uint64_t before = g_allocations.load();
    Status st = device_->StartSelect(job, [&done](sim::Tick) { done = true; });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(eq_->RunUntilTrue([&done] { return done; }));
    Run run;
    run.allocations = g_allocations.load() - before;
    run.bursts = device_->stats().bursts_read - bursts_before;
    EXPECT_TRUE(device_->last_job_status().ok());
    return run;
  }

  std::unique_ptr<sim::EventQueue> eq_;
  std::unique_ptr<dram::DramSystem> dram_;
  std::unique_ptr<Device> device_;
};

TEST_P(SequencerAllocTest, AllocationsDoNotGrowWithBursts) {
  // Warm-up: grows the event queue's vectors and touches the output pages.
  Select(1);
  Select(8);
  const Run small = Select(1);
  const Run large = Select(8);
  ASSERT_EQ(small.bursts, kPageBytes / 64);
  ASSERT_EQ(large.bursts, 8 * kPageBytes / 64);
  EXPECT_EQ(large.allocations, small.allocations)
      << small.allocations << " allocations for " << small.bursts
      << " bursts, " << large.allocations << " for " << large.bursts;
}

INSTANTIATE_TEST_SUITE_P(Generations, SequencerAllocTest,
                         ::testing::Values(DeviceGeneration::kV1RankIo,
                                           DeviceGeneration::kV2BankLevel),
                         [](const auto& p) {
                           return p.param == DeviceGeneration::kV1RankIo
                                      ? std::string("V1")
                                      : std::string("V2");
                         });

}  // namespace
}  // namespace ndp::jafar
