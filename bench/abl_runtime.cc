// Ablation — concurrent multi-query runtime: offered host load x QoS budget
// x placement skew. Each grid point runs a batch of concurrent selects
// through the NdpRuntime over a 4-device DIMM array while a seeded host
// traffic generator loads one channel, and measures NDP throughput, the p99
// host-request latency (against a jobs-free baseline of identical sim
// length), and the adaptation counters (admission defers, QoS shrinks/grows,
// steals). A separate no-traffic pair contrasts steal on/off under 4x skew.
// Claims under test: every job matches the CPU oracle; the runtime's
// added p99 host stall stays within the configured lease-stall bound; and
// work stealing cuts the skewed makespan by >= 1.5x. Writes
// BENCH_abl_runtime.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/parallel_sweep.h"
#include "bench/reporter.h"
#include "core/host_traffic.h"
#include "core/runtime.h"

using namespace ndp;

namespace {

constexpr int kJobs = 3;  ///< concurrent selects per grid point
constexpr int64_t kLo[kJobs] = {0, 250'000, 700'000};
constexpr int64_t kHi[kJobs] = {333'333, 649'999, 999'999};

jafar::DeviceConfig DeviceConfig() {
  return jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                     accel::DatapathResources{})
      .ValueOrDie();
}

struct PointResult {
  double load_reqs_per_us = 0;
  double qos_pct = 0;
  double skew = 1.0;
  double makespan_ms = 0;
  double mrows_per_s = 0;
  double p99_host_us = 0;       ///< with NDP jobs running
  double p99_baseline_us = 0;   ///< traffic alone, same sim length
  bool match = true;
  StatsSnapshot counters;
};

/// Runs `traffic alone` for `horizon_ps` at the given load and returns the
/// p99 request latency — the no-NDP yardstick for the stall-budget claim.
double BaselineP99Us(const db::Column& col, double load, uint64_t seed,
                     sim::Tick horizon_ps) {
  core::DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, DeviceConfig());
  (void)array.PlaceColumn(col).ValueOrDie();  // identical address layout
  uint64_t region = array.AllocOnDevice(0, 1u << 20).ValueOrDie();
  core::HostTrafficConfig tc;
  tc.reqs_per_us = load;
  tc.seed = seed;
  core::HostTrafficGen traffic(&array.eq(), &array.dram().controller(0), tc);
  traffic.AddRegion(region, 1u << 20);
  traffic.Start();
  array.eq().RunUntil(array.eq().Now() + horizon_ps);
  traffic.Stop();
  return traffic.latency().Quantile(0.99) / 1e6;
}

PointResult RunPoint(const db::Column& col, double load, double qos_pct,
                     double skew, bool steal) {
  PointResult r;
  r.load_reqs_per_us = load;
  r.qos_pct = qos_pct;
  r.skew = skew;

  core::DimmArray array(dram::DramTiming::DDR3_1600(), 4, 1, DeviceConfig());
  core::RuntimeConfig cfg;
  cfg.qos_max_cpu_slowdown_pct = qos_pct;
  cfg.steal_enabled = steal;
  core::NdpRuntime runtime(&array, cfg);
  core::PlacedColumn placed =
      array.PlaceColumn(col, {skew, 1.0, 1.0, 1.0}).ValueOrDie();

  uint64_t region = array.AllocOnDevice(0, 1u << 20).ValueOrDie();
  core::HostTrafficConfig tc;
  tc.reqs_per_us = load > 0 ? load : 1.0;  // generator rejects a zero rate
  tc.seed = 20150601;
  core::HostTrafficGen traffic(&array.eq(), &array.dram().controller(0), tc);
  traffic.AddRegion(region, 1u << 20);
  if (load > 0) traffic.Start();
  // Warm-up: host-only traffic (or an observable stretch of channel
  // silence) gives the estimator real history before any job arrives.
  array.eq().RunUntil(array.eq().Now() + 20'000'000);

  StatsSnapshot before = array.stats().Snapshot();
  sim::Tick start = array.eq().Now();
  std::vector<core::NdpRuntime::JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    ids.push_back(runtime
                      .SubmitSelect(placed, kLo[j], kHi[j],
                                    {.priority = core::JobPriority::kBatch})
                      .ValueOrDie());
  }
  NDP_CHECK(runtime.Drain().ok());
  sim::Tick makespan = array.eq().Now() - start;
  if (load > 0) traffic.Stop();

  for (int j = 0; j < kJobs; ++j) {
    const core::JobResult* res = runtime.result(ids[j]);
    uint64_t oracle = 0;
    for (size_t i = 0; i < col.size(); ++i) {
      oracle += col[i] >= kLo[j] && col[i] <= kHi[j];
    }
    r.match &= res != nullptr && res->status.ok() && res->matches == oracle;
  }
  r.makespan_ms = bench::Ms(makespan);
  r.mrows_per_s = static_cast<double>(col.size()) * kJobs /
                  (r.makespan_ms * 1e3);
  r.counters = array.stats().Snapshot().DeltaSince(before);
  if (load > 0) {
    r.p99_host_us = traffic.latency().Quantile(0.99) / 1e6;
    r.p99_baseline_us =
        BaselineP99Us(col, load, tc.seed, makespan + 20'000'000);
  }
  return r;
}

/// Streaming rate of ONE device on an otherwise idle system — the yardstick
/// for the array-level scaling claim.
double SingleLaneMRowsPerS(const db::Column& col) {
  core::DimmArray array(dram::DramTiming::DDR3_1600(), 1, 1, DeviceConfig());
  core::NdpRuntime runtime(&array, core::RuntimeConfig{});
  core::PlacedColumn placed = array.PlaceColumn(col).ValueOrDie();
  array.eq().RunUntil(array.eq().Now() + 20'000'000);
  sim::Tick start = array.eq().Now();
  auto id = runtime.SubmitSelect(placed, kLo[0], kHi[0]).ValueOrDie();
  NDP_CHECK(runtime.WaitFor(id).ok());
  double ms = bench::Ms(array.eq().Now() - start);
  return static_cast<double>(col.size()) / (ms * 1e3);
}

}  // namespace

int main() {
  const uint64_t rows = bench::EnvU64("ABL_ROWS", 256u * 1024);
  // Assertions about ratios and tail latencies need enough work per lane to
  // amortize lease grain; smoke runs print the table but skip the bounds.
  const bool full_size = rows >= 128u * 1024;
  bench::PrintHeader(
      "Ablation — multi-query runtime: load x QoS budget x skew (" +
      std::to_string(rows) + " rows, " + std::to_string(kJobs) +
      " concurrent selects)");
  db::Column col = bench::UniformColumn(rows);

  // Random row-miss traffic serves only a few tens of requests/us per
  // channel, so the ladder spans idle -> fractional -> saturated.
  const std::vector<double> loads = {0.0, 5.0, 15.0, 60.0};
  const std::vector<double> qos_pcts = {10.0, 25.0, 50.0};
  const std::vector<double> skews = {1.0, 4.0};

  struct GridPoint {
    double load, qos, skew;
  };
  std::vector<GridPoint> grid;
  for (double load : loads) {
    for (double qos : qos_pcts) {
      for (double skew : skews) grid.push_back({load, qos, skew});
    }
  }
  // Two extra no-traffic points isolate the steal contrast under 4x skew.
  const size_t steal_on_idx = grid.size();
  grid.push_back({0.0, 25.0, 4.0});
  const size_t steal_off_idx = grid.size();
  grid.push_back({0.0, 25.0, 4.0});

  std::vector<PointResult> results = bench::ParallelSweep<PointResult>(
      grid.size(), [&](size_t i) {
        bool steal = i != steal_off_idx;
        return RunPoint(col, grid[i].load, grid[i].qos, grid[i].skew, steal);
      });

  bench::Reporter report("abl_runtime");
  report.Config("rows", static_cast<double>(rows));
  report.Config("jobs", static_cast<double>(kJobs));

  core::RuntimeConfig defaults;
  const double stall_budget_us =
      static_cast<double>(defaults.qos_max_stall_bus_cycles) *
      dram::DramTiming::DDR3_1600().tck_ps / 1e6;

  std::printf("\n%-8s %-6s %-6s %-12s %-12s %-10s %-10s %-8s %-8s %s\n",
              "load/us", "qos%", "skew", "makespan_ms", "mrows_per_s",
              "p99_us", "base_us", "defers", "shrinks", "match");
  bool all_match = true;
  bool stalls_in_budget = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    double defers = r.counters.Value("array.runtime.admission_defers");
    double shrinks = 0;
    for (int c = 0; c < 4; ++c) {
      shrinks += r.counters.Value("array.runtime.ctrl" + std::to_string(c) +
                                  ".qos_shrinks");
    }
    const char* tag = i == steal_on_idx    ? " [steal on]"
                      : i == steal_off_idx ? " [steal off]"
                                           : "";
    std::printf(
        "%-8g %-6g %-6g %-12.3f %-12.2f %-10.2f %-10.2f %-8g %-8g %s%s\n",
        r.load_reqs_per_us, r.qos_pct, r.skew, r.makespan_ms, r.mrows_per_s,
        r.p99_host_us, r.p99_baseline_us, defers, shrinks,
        r.match ? "MATCH" : "MISMATCH", tag);
    all_match &= r.match;
    // The runtime may stretch host tail latency by at most the lease-stall
    // bound (a request can land just as a lease begins) plus queue-drain
    // slack; measured against the jobs-free baseline at the same load.
    if (r.load_reqs_per_us > 0 && i < steal_on_idx) {
      stalls_in_budget &=
          r.p99_host_us <= r.p99_baseline_us + 1.5 * stall_budget_us;
    }
    std::string label = "load" + std::to_string((int)r.load_reqs_per_us) +
                        "_qos" + std::to_string((int)r.qos_pct) + "_skew" +
                        std::to_string((int)r.skew) +
                        (i == steal_on_idx    ? "_steal_on"
                         : i == steal_off_idx ? "_steal_off"
                                              : "");
    report.AddPoint(label)
        .Metric("load_reqs_per_us", r.load_reqs_per_us)
        .Metric("qos_pct", r.qos_pct)
        .Metric("skew", r.skew)
        .Metric("makespan_ms", r.makespan_ms)
        .Metric("mrows_per_s", r.mrows_per_s)
        .Metric("p99_host_us", r.p99_host_us)
        .Metric("p99_baseline_us", r.p99_baseline_us)
        .Metric("stall_budget_us", stall_budget_us)
        .Metric("match", r.match ? 1.0 : 0.0)
        .Counters("", r.counters);
  }

  double steal_ratio = results[steal_off_idx].makespan_ms /
                       results[steal_on_idx].makespan_ms;
  std::printf("\nSteal contrast at 4x skew (no traffic): %.3fms off vs "
              "%.3fms on = %.2fx\n",
              results[steal_off_idx].makespan_ms,
              results[steal_on_idx].makespan_ms, steal_ratio);
  report.AddPoint("steal_contrast").Metric("makespan_ratio", steal_ratio);

  double single_lane = SingleLaneMRowsPerS(col);
  std::printf("Single-lane reference: %.2f Mrows/s\n", single_lane);
  report.AddPoint("single_lane_reference")
      .Metric("mrows_per_s", single_lane);

  NDP_CHECK_MSG(all_match, "a runtime select diverged from the CPU oracle");
  if (full_size) {
    NDP_CHECK_MSG(stalls_in_budget,
                  "p99 host latency exceeded the lease-stall budget");
    NDP_CHECK_MSG(steal_ratio >= 1.5,
                  "work stealing cut the 4x-skew makespan by < 1.5x");
    // Throughput scales across the array: the no-traffic uniform grid
    // points must beat a single lane's streaming rate by a wide margin
    // (4 lanes minus lease/window overheads).
    for (const PointResult& r : results) {
      if (r.load_reqs_per_us == 0 && r.skew == 1.0) {
        NDP_CHECK_MSG(r.mrows_per_s >= 2.0 * single_lane,
                      "concurrent throughput failed to scale across lanes");
      }
    }
  } else {
    std::printf("(small ABL_ROWS: bounds reported but not enforced)\n");
  }

  report.WriteJson();
  return 0;
}
