// DeviceConfig::Derive/DeriveBank are memoized process-wide. A memoized
// config must equal a fresh derivation field for field, for every argument
// that changes the result, including when several threads make the first
// call for the same arguments at once.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "jafar/config.h"

namespace ndp::jafar {
namespace {

void ExpectSameConfig(const DeviceConfig& a, const DeviceConfig& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.clock.period_ps(), b.clock.period_ps());
  EXPECT_EQ(a.words_per_cycle, b.words_per_cycle);
  EXPECT_EQ(a.output_buffer_bits, b.output_buffer_bits);
  EXPECT_EQ(a.elem_bytes, b.elem_bytes);
  EXPECT_EQ(a.energy_per_word_fj, b.energy_per_word_fj);
  EXPECT_EQ(a.require_ownership, b.require_ownership);
  EXPECT_EQ(a.invocation_overhead_cycles, b.invocation_overhead_cycles);
  EXPECT_EQ(a.sort_block_elems, b.sort_block_elems);
  EXPECT_EQ(a.sort_comparators, b.sort_comparators);
  EXPECT_EQ(a.groupby_buckets, b.groupby_buckets);
  EXPECT_EQ(a.probe_hashes, b.probe_hashes);
  EXPECT_EQ(a.probe_words_per_cycle, b.probe_words_per_cycle);
  EXPECT_EQ(a.probe_energy_per_word_fj, b.probe_energy_per_word_fj);
  EXPECT_EQ(a.bank_probe_words_per_cycle, b.bank_probe_words_per_cycle);
  EXPECT_EQ(a.bank_probe_energy_per_word_fj, b.bank_probe_energy_per_word_fj);
  EXPECT_EQ(a.bank_words_per_cycle, b.bank_words_per_cycle);
  EXPECT_EQ(a.bank_energy_per_word_fj, b.bank_energy_per_word_fj);
  EXPECT_EQ(a.bank_filter.fill_latency_cycles,
            b.bank_filter.fill_latency_cycles);
  EXPECT_EQ(a.bank_filter.min_rd_spacing_cycles,
            b.bank_filter.min_rd_spacing_cycles);
  EXPECT_EQ(a.bank_filter.drain_cycles, b.bank_filter.drain_cycles);
  EXPECT_EQ(a.scan_chunk_bytes, b.scan_chunk_bytes);
}

struct Case {
  dram::DramTiming timing;
  dram::DramOrganization org;
  accel::DatapathResources resources;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  for (const dram::DramTiming& t :
       {dram::DramTiming::DDR3_1066(), dram::DramTiming::DDR3_1600(),
        dram::DramTiming::DDR3_1866()}) {
    cases.push_back({t, {}, {}});
  }
  Case wide = cases[1];
  wide.resources.alus = 4;
  wide.resources.bit_units = 16;
  cases.push_back(wide);
  Case narrow_rows = cases[1];
  narrow_rows.org.row_size_bytes = 4096;
  narrow_rows.org.banks_per_rank = 16;
  cases.push_back(narrow_rows);
  return cases;
}

TEST(DeviceConfigMemoTest, MemoizedEqualsFresh) {
  for (const Case& c : Cases()) {
    const DeviceConfig fresh =
        DeviceConfig::DeriveUncached(c.timing, c.resources).ValueOrDie();
    const DeviceConfig fresh_bank =
        DeviceConfig::DeriveBankUncached(c.timing, c.org, c.resources)
            .ValueOrDie();
    // First call fills the memo, the second reads it back.
    for (int call = 0; call < 2; ++call) {
      SCOPED_TRACE(c.timing.name + " call " + std::to_string(call));
      ExpectSameConfig(
          DeviceConfig::Derive(c.timing, c.resources).ValueOrDie(), fresh);
      ExpectSameConfig(
          DeviceConfig::DeriveBank(c.timing, c.org, c.resources).ValueOrDie(),
          fresh_bank);
    }
  }
}

TEST(DeviceConfigMemoTest, DistinctArgumentsGetDistinctEntries) {
  const dram::DramTiming t = dram::DramTiming::DDR3_1600();
  accel::DatapathResources one_alu;
  one_alu.alus = 1;
  accel::DatapathResources two_alus;
  const DeviceConfig a = DeviceConfig::Derive(t, one_alu).ValueOrDie();
  const DeviceConfig b = DeviceConfig::Derive(t, two_alus).ValueOrDie();
  EXPECT_NE(a.words_per_cycle, b.words_per_cycle);
  ExpectSameConfig(a, DeviceConfig::DeriveUncached(t, one_alu).ValueOrDie());
  ExpectSameConfig(b, DeviceConfig::DeriveUncached(t, two_alus).ValueOrDie());
}

TEST(DeviceConfigMemoTest, ConcurrentFirstCallsAgree) {
  // Arguments no other test uses, so every thread races on an empty entry.
  dram::DramTiming t = dram::DramTiming::DDR3_1866();
  dram::DramOrganization org;
  org.banks_per_rank = 4;
  accel::DatapathResources res;
  res.alus = 3;
  res.bit_units = 12;
  const DeviceConfig fresh = DeviceConfig::DeriveUncached(t, res).ValueOrDie();
  const DeviceConfig fresh_bank =
      DeviceConfig::DeriveBankUncached(t, org, res).ValueOrDie();

  constexpr int kThreads = 4;
  std::vector<DeviceConfig> got(kThreads);
  std::vector<DeviceConfig> got_bank(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = DeviceConfig::Derive(t, res).ValueOrDie();
      got_bank[i] = DeviceConfig::DeriveBank(t, org, res).ValueOrDie();
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE("thread " + std::to_string(i));
    ExpectSameConfig(got[i], fresh);
    ExpectSameConfig(got_bank[i], fresh_bank);
  }
}

}  // namespace
}  // namespace ndp::jafar
