#include "jafar/config.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace ndp::jafar {

DeviceConfig DeviceConfig::FromDatapath(const accel::DatapathSummary& datapath,
                                        const dram::DramTiming& timing) {
  DeviceConfig cfg;
  cfg.clock = sim::ClockDomain(timing.tck_ps / 2);  // 2x the data bus clock
  cfg.words_per_cycle = datapath.words_per_cycle;
  cfg.energy_per_word_fj = datapath.energy_per_word_fj;
  return cfg;
}

namespace {

/// Schedules the probe kernel on `resources`, widened to at least one
/// multiplier: the baseline select datapath carries none, and the probe
/// engine's hash lanes are exactly the hardware a probe-capable generation
/// adds. Mirrors the select derivation — the rate is scheduled, never picked.
Result<accel::DatapathSummary> ScheduleProbe(
    const accel::DatapathResources& resources, uint32_t hash_count) {
  accel::DatapathResources probe_res = resources;
  probe_res.multipliers = std::max(1u, resources.multipliers);
  accel::LoopKernel kernel = accel::MakeProbeKernel(hash_count);
  NDP_ASSIGN_OR_RETURN(accel::ScheduleResult sched,
                       accel::ScheduleKernel(kernel, probe_res, 128));
  return accel::DatapathSummary::FromSchedule(kernel, sched);
}

/// Every input a derivation reads: the timing's name and each numeric field
/// of the timing, the organization (DeriveBank only) and the resources.
using DeriveKey = std::pair<std::string, std::vector<uint64_t>>;

// MakeKey must list every field; these fail when one is added.
static_assert(sizeof(dram::DramTiming) ==
                  sizeof(std::string) + sizeof(uint64_t) + 16 * sizeof(uint32_t),
              "DramTiming changed: update MakeKey");
static_assert(sizeof(dram::DramOrganization) == 7 * sizeof(uint32_t),
              "DramOrganization changed: update MakeKey");
static_assert(sizeof(accel::DatapathResources) == 6 * sizeof(uint32_t),
              "DatapathResources changed: update MakeKey");

DeriveKey MakeKey(const dram::DramTiming& t, const dram::DramOrganization* org,
                  const accel::DatapathResources& r) {
  DeriveKey key{t.name,
                {t.tck_ps, t.cl, t.cwl, t.trcd, t.trp, t.tras, t.trc, t.tccd,
                 t.tburst, t.twr, t.twtr, t.trtp, t.trrd, t.tfaw, t.trfc,
                 t.trefi, t.tmrd, r.mem_read_ports, r.mem_write_ports, r.alus,
                 r.multipliers, r.bit_units, r.pipelined ? 1u : 0u}};
  if (org != nullptr) {
    key.second.insert(
        key.second.end(),
        {org->channels, org->ranks_per_channel, org->banks_per_rank,
         org->rows_per_bank, org->row_size_bytes, org->bus_width_bits,
         org->burst_length});
  }
  return key;
}

/// Returns the memoized result for `key`, running `compute` on a miss. The
/// computation runs outside the lock; concurrent first calls compute equal
/// values and the first to finish is kept.
template <typename Compute>
Result<DeviceConfig> Memoized(std::map<DeriveKey, Result<DeviceConfig>>* memo,
                              std::mutex* mu, const DeriveKey& key,
                              Compute compute) {
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = memo->find(key);
    if (it != memo->end()) return it->second;
  }
  Result<DeviceConfig> fresh = compute();
  std::lock_guard<std::mutex> lock(*mu);
  return memo->emplace(key, std::move(fresh)).first->second;
}

}  // namespace

Result<DeviceConfig> DeviceConfig::Derive(
    const dram::DramTiming& timing, const accel::DatapathResources& resources) {
  static std::mutex mu;
  static std::map<DeriveKey, Result<DeviceConfig>> memo;
  return Memoized(&memo, &mu, MakeKey(timing, nullptr, resources),
                  [&] { return DeriveUncached(timing, resources); });
}

Result<DeviceConfig> DeviceConfig::DeriveBank(
    const dram::DramTiming& timing, const dram::DramOrganization& org,
    const accel::DatapathResources& rank_resources) {
  static std::mutex mu;
  static std::map<DeriveKey, Result<DeviceConfig>> memo;
  return Memoized(&memo, &mu, MakeKey(timing, &org, rank_resources),
                  [&] { return DeriveBankUncached(timing, org, rank_resources); });
}

Result<DeviceConfig> DeviceConfig::DeriveUncached(
    const dram::DramTiming& timing, const accel::DatapathResources& resources) {
  accel::LoopKernel kernel = accel::MakeSelectKernel();
  NDP_ASSIGN_OR_RETURN(accel::ScheduleResult sched,
                       accel::ScheduleKernel(kernel, resources, 128));
  DeviceConfig cfg = FromDatapath(
      accel::DatapathSummary::FromSchedule(kernel, sched), timing);
  NDP_ASSIGN_OR_RETURN(accel::DatapathSummary probe,
                       ScheduleProbe(resources, cfg.probe_hashes));
  cfg.probe_words_per_cycle = probe.words_per_cycle;
  cfg.probe_energy_per_word_fj = probe.energy_per_word_fj;
  return cfg;
}

Result<DeviceConfig> DeviceConfig::DeriveBankUncached(
    const dram::DramTiming& timing, const dram::DramOrganization& org,
    const accel::DatapathResources& rank_resources) {
  NDP_ASSIGN_OR_RETURN(DeviceConfig cfg, DeriveUncached(timing, rank_resources));
  cfg.generation = DeviceGeneration::kV2BankLevel;

  // Per-bank comparator: an area-constrained slice of the rank datapath (one
  // ALU, a quarter of the bit units, single memory port — the comparator sits
  // in each bank's peripheral logic where area is scarce). Scheduling the
  // same select kernel on the narrowed resources yields the per-bank rate.
  accel::DatapathResources bank_res = rank_resources;
  bank_res.alus = 1;
  bank_res.bit_units = std::max(1u, rank_resources.bit_units / 4);
  bank_res.mem_read_ports = 1;
  bank_res.mem_write_ports = 1;
  accel::LoopKernel kernel = accel::MakeSelectKernel();
  NDP_ASSIGN_OR_RETURN(accel::ScheduleResult sched,
                       accel::ScheduleKernel(kernel, bank_res, 128));
  accel::DatapathSummary bank =
      accel::DatapathSummary::FromSchedule(kernel, sched);
  cfg.bank_words_per_cycle = bank.words_per_cycle;
  cfg.bank_energy_per_word_fj = bank.energy_per_word_fj;
  NDP_ASSIGN_OR_RETURN(accel::DatapathSummary bank_probe,
                       ScheduleProbe(bank_res, cfg.probe_hashes));
  cfg.bank_probe_words_per_cycle = bank_probe.words_per_cycle;
  cfg.bank_probe_energy_per_word_fj = bank_probe.energy_per_word_fj;

  // Command-flow timing in bus-clock cycles (JAFAR clock = 2x the bus clock,
  // so two JAFAR cycles fit per bus cycle).
  const uint32_t words_per_burst = org.BytesPerBurst() / cfg.elem_bytes;
  const uint64_t jafar_cycles_per_burst = static_cast<uint64_t>(
      std::ceil(static_cast<double>(words_per_burst) / bank.words_per_cycle));
  const uint32_t bus_cycles_per_burst =
      static_cast<uint32_t>((jafar_cycles_per_burst + 1) / 2);
  // RD pacing: the comparator must finish one burst before taking the next.
  cfg.bank_filter.min_rd_spacing_cycles = std::max(1u, bus_cycles_per_burst);
  // RD to last match bit latched: internal CAS plus the comparator pipeline.
  cfg.bank_filter.fill_latency_cycles = timing.cl + bus_cycles_per_burst;
  // Accumulator drain: one match bit per row element, 64 bits of result bus
  // per cycle.
  const uint32_t row_elems = org.row_size_bytes / cfg.elem_bytes;
  cfg.bank_filter.drain_cycles = std::max(1u, row_elems / 64);
  // One invocation must span a whole wave — one row in every bank — or the
  // per-bank chains degenerate to one segment per job and never overlap.
  cfg.scan_chunk_bytes =
      static_cast<uint64_t>(org.banks_per_rank) * org.row_size_bytes;
  return cfg;
}

uint64_t DeviceConfig::SortBlockCycles(uint32_t elems) const {
  NDP_CHECK(sort_comparators > 0);
  if (elems <= 1) return 1;
  // Round up to the next power of two (the network's natural size).
  uint32_t n = 1;
  uint32_t log2n = 0;
  while (n < elems) {
    n <<= 1;
    ++log2n;
  }
  uint64_t stages = static_cast<uint64_t>(log2n) * (log2n + 1) / 2;
  uint64_t exchanges_per_stage = n / 2;
  uint64_t cycles_per_stage =
      (exchanges_per_stage + sort_comparators - 1) / sort_comparators;
  return stages * cycles_per_stage;
}

sim::Tick DeviceConfig::BurstProcessingPs(uint32_t words) const {
  NDP_CHECK(words_per_cycle > 0);
  double cycles = std::ceil(static_cast<double>(words) / words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

sim::Tick DeviceConfig::BankBurstProcessingPs(uint32_t words) const {
  NDP_CHECK(bank_words_per_cycle > 0);
  double cycles = std::ceil(static_cast<double>(words) / bank_words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

sim::Tick DeviceConfig::ProbeBurstProcessingPs(uint32_t words) const {
  NDP_CHECK(probe_words_per_cycle > 0);
  double cycles = std::ceil(static_cast<double>(words) / probe_words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

sim::Tick DeviceConfig::BankProbeBurstProcessingPs(uint32_t words) const {
  NDP_CHECK(bank_probe_words_per_cycle > 0);
  double cycles =
      std::ceil(static_cast<double>(words) / bank_probe_words_per_cycle);
  return static_cast<sim::Tick>(cycles) * clock.period_ps();
}

}  // namespace ndp::jafar
