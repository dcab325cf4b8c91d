// Allocation regression for the CPU side's memory path: once a system is
// warm, the heap traffic of a CPU select must not grow with the rows it
// scans. Cache completions, MSHR waiters, the DRAM port's front-side hop and
// the controller's completion are all inline closures in fixed storage, so
// a load costs no allocation; a std::function continuation costs several.
//
// It replaces the global operator new, which is why it is its own test
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/system.h"
#include "util/rng.h"

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

namespace ndp::core {
namespace {

db::Column RandomColumn(size_t n, uint64_t seed) {
  db::Column col = db::Column::Int64("v");
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) col.Append(rng.NextInRange(0, 999));
  return col;
}

/// Heap allocations made by one cold-cache branching select at about 50 %
/// selectivity.
uint64_t SelectAllocations(SystemModel* sys, const db::Column& col) {
  const uint64_t before = g_allocations.load();
  auto r = sys->RunCpuSelect(col, 0, 499, db::SelectMode::kBranching);
  const uint64_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return allocations;
}

TEST(CpuAllocTest, SelectAllocationsDoNotGrowWithRows) {
  SystemModel sys(PlatformConfig::Gem5());
  const db::Column small = RandomColumn(16 * 1024, 1);
  const db::Column large = RandomColumn(128 * 1024, 2);
  // Warm-up: pins both columns and grows the event queue's closure pool and
  // heaps to their high-water marks.
  SelectAllocations(&sys, small);
  SelectAllocations(&sys, large);
  const uint64_t small_allocs = SelectAllocations(&sys, small);
  const uint64_t large_allocs = SelectAllocations(&sys, large);
  EXPECT_EQ(large_allocs, small_allocs)
      << small_allocs << " allocations for " << small.size() << " rows, "
      << large_allocs << " for " << large.size();
}

}  // namespace
}  // namespace ndp::core
