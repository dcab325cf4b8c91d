// The repository benchmark: four workloads that time the simulator (host
// performance) and report what the simulated hardware achieves (modeled
// performance), checking every answer against an oracle.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// A run repeats "passes" until --seconds have elapsed. Each pass sets the
// workload up from scratch (data generation, device-config derivation,
// system/array construction, placement, simulator warm-up) and then runs its
// measured phase. setup_s is the median set-up time; wall_s sums each
// measured segment's fastest repetition (see main). Host times are scaled to
// a fixed core speed (see kRefNominalS). Every pass uses the same inputs, so
// every pass must produce the same digest of its simulated outputs.
//
// Layers are measured from outside: host time around calls into public
// functions, StatsRegistry snapshot deltas, and EventQueue::executed_events()
// deltas. With --trace 1, passes alternate untraced and traced; a traced pass
// records one span per call and the per-layer metrics come from those spans.
// End-to-end metrics (--trace 0) come only from untraced passes.
//
// Everything runs on one thread: no ParallelSweep, no partitioned DimmArray.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/api.h"
#include "core/dimm_array.h"
#include "core/ingress.h"
#include "core/runtime.h"

using namespace ndp;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Host-speed reference. On a shared 4-vCPU Xeon VM, the same work ran up to
// 1.5x slower for minutes at a time under neighbour load, and a compute-only
// loop slowed by the same factor. Every pass therefore times this fixed
// kernel next to its work, and host times are reported at the kernel's
// nominal speed: seconds x kRefNominalS / kernel time.
// kRefNominalS sets the unit only: host times read as if the kernel took this
// long, which is about its time on an unloaded core of that VM.
constexpr double kRefNominalS = 1.25e-3;
constexpr int kRefRuns = 5;

volatile uint64_t g_ref_sink = 0;

/// One run of the reference kernel: xorshift-indexed lookups into an
/// L1-resident table, so it measures core speed and nothing else.
double RefKernelSeconds() {
  const Clock::time_point t0 = Clock::now();
  uint32_t table[1024];
  for (uint32_t i = 0; i < 1024; ++i) table[i] = i * 2654435761u;
  uint64_t x = 88172645463325252ULL;
  uint64_t h = 0;
  for (int i = 0; i < 600'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    h = h * 31 + table[x & 1023];
  }
  g_ref_sink = h;
  return Seconds(Clock::now() - t0);
}

// ---------------------------------------------------------------------------
// Workload sizes.

constexpr uint64_t kSelectRows = 128 * 1024;  // 1 MB of int64: 8x the gem5 L2
constexpr int kSelectPcts[] = {0, 25, 50, 75, 100};

constexpr double kTpchScale = 0.002;  // ~12k lineitem rows
constexpr uint32_t kTpchComputeScale = 24;  // as in the Figure 4 bench
constexpr int kTpchQueries[] = {1, 3, 6, 18, 22};

constexpr uint64_t kServingRows = 32 * 1024;
// Simulated serving window. 5 ms keeps a pass short enough that a run
// repeats it about six times; it leaves 550-1000 interactive samples, so the
// reported tail is the highest percentile with 10 samples beyond it.
constexpr sim::Tick kServingWindowPs = 5'000'000'000;
constexpr sim::Tick kWarmupPs = 20'000'000;  // channel silence for the EWMA
constexpr sim::Tick kInteractiveDeadlinePs = 500'000'000;  // 500 us
constexpr sim::Tick kBatchDeadlinePs = 3'000'000'000;      // 3 ms
constexpr double kInteractiveShare = 0.6;
constexpr int64_t kValueDomain = 1'000'000;  // values uniform in [0, 1M)
constexpr int64_t kMaxSelectWidth = 100'000;
constexpr size_t kServingLapRequests = 25;  // arrivals per timed segment

// Paper references (the model is not validated against hardware; these are
// the only reference values).
double PaperFig3Speedup(int pct) { return 5.0 + 4.0 * pct / 100.0; }
constexpr double kPaperFig4IdleCycles = 500.0;

// ---------------------------------------------------------------------------
// Small utilities.

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

/// FNV-1a over the 8 bytes of `v`.
void Mix(uint64_t* digest, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *digest ^= (v >> (8 * i)) & 0xff;
    *digest *= 1099511628211ULL;
  }
}

void MixDouble(uint64_t* digest, double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  Mix(digest, bits);
}

/// splitmix64: derives independent generator seeds from the run's --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

db::Column UniformColumn(uint64_t rows, uint64_t seed) {
  db::Column col = db::Column::Int64("values");
  col.Reserve(rows);
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) col.Append(rng.NextInRange(0, kValueDomain - 1));
  return col;
}

uint64_t HostCount(const db::Column& col, int64_t lo, int64_t hi) {
  uint64_t n = 0;
  for (int64_t v : col.values()) n += (v >= lo && v <= hi) ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written once at exit.

class Tracer {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    double host_start_s = 0, host_end_s = 0;  // since the run started
    sim::Tick sim_start = 0, sim_end = 0;      // ps on the call's queue
    int32_t parent = -1;
    uint64_t events = 0;  // executed_events() delta of the call's queue
    int64_t request = -1;
    int32_t pass = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_pass(int32_t pass) { pass_ = pass; }
  const std::vector<Span>& spans() const { return spans_; }

  int32_t Begin(const char* layer, const char* name, const sim::EventQueue* eq,
                int64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.layer = layer;
    s.name = name;
    s.parent = current_;
    s.request = request;
    s.pass = pass_;
    if (eq != nullptr) {
      s.sim_start = eq->Now();
      s.events = eq->executed_events();
    }
    s.host_start_s = Seconds(Clock::now() - origin_);
    spans_.push_back(s);
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }

  void End(int32_t id, const sim::EventQueue* eq) {
    if (id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.host_end_s = Seconds(Clock::now() - origin_);
    if (eq != nullptr) {
      s.sim_end = eq->Now();
      s.events = eq->executed_events() - s.events;
    }
    current_ = s.parent;
  }

  /// Host self time per layer over the spans of `pass`: each span's
  /// duration minus the durations of its direct children.
  std::map<std::string, double> SelfSecondsByLayer(int32_t pass) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.pass == pass && s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.host_end_s - s.host_start_s;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.pass != pass) continue;
      self[s.layer] += (s.host_end_s - s.host_start_s) - child[i];
    }
    return self;
  }

  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"pass\":%d,\"layer\":\"%s\",\"name\":\"%s\","
                   "\"parent\":%d,\"host_start_s\":%.9f,\"host_end_s\":%.9f,"
                   "\"sim_start_ps\":%" PRIu64 ",\"sim_end_ps\":%" PRIu64
                   ",\"events\":%" PRIu64 ",\"request\":%" PRId64 "}\n",
                   i, s.pass, s.layer, s.name, s.parent, s.host_start_s,
                   s.host_end_s, static_cast<uint64_t>(s.sim_start),
                   static_cast<uint64_t>(s.sim_end), s.events, s.request);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  int32_t pass_ = 0;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// One span around a scope.
class SpanScope {
 public:
  SpanScope(Tracer* t, const char* layer, const char* name,
            const sim::EventQueue* eq = nullptr, int64_t request = -1)
      : tracer_(t), eq_(eq), id_(t->Begin(layer, name, eq, request)) {}
  ~SpanScope() { tracer_->End(id_, eq_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  const sim::EventQueue* eq_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Per-pass results.

/// Layer counters summed over a pass, keyed by per-layer metric name.
using Tally = std::map<std::string, double>;

struct Pass {
  /// kRefNominalS / median reference-kernel time around this pass: host
  /// times of the pass are multiplied by it.
  double speed = 1.0;
  std::vector<double> setup_s;  // one sample per set-up repetition
  double wall_s = 0;
  /// Host seconds of each fixed segment of the measured phase; every pass of
  /// a workload cuts the same segments.
  std::vector<double> segments;
  Clock::time_point lap_start;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t digest = kFnvBasis;
  uint64_t events = 0;  // simulator events in the measured phase
  Tally layer;          // simulated layer counters (deterministic)
  Tally model;          // model.* outcome metrics (deterministic)
  double sim_speedup = 0;
  std::vector<std::string> errors;

  /// Closes the current measured segment.
  void Lap() {
    Clock::time_point now = Clock::now();
    segments.push_back(Seconds(now - lap_start));
    lap_start = now;
  }

  /// Counts one operation; a non-ok status is a failure.
  bool Check(const Status& st, const std::string& what) {
    ++attempted;
    if (st.ok()) return true;
    ++failed;
    errors.push_back(what + ": " + st.ToString());
    return false;
  }
  /// Counts one oracle comparison.
  bool Expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return true;
    ++failed;
    errors.push_back(what);
    return false;
  }
};

/// "<...>.dev<N>.<field>" -> field, or "" when `path` is not a device cell.
std::string DeviceField(const std::string& path) {
  size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) return "";
  size_t prev = path.rfind('.', dot - 1);
  std::string comp = path.substr(prev == std::string::npos ? 0 : prev + 1,
                                 dot - (prev == std::string::npos ? 0 : prev + 1));
  if (comp.size() < 4 || comp.compare(0, 3, "dev") != 0) return "";
  for (size_t i = 3; i < comp.size(); ++i) {
    if (comp[i] < '0' || comp[i] > '9') return "";
  }
  return path.substr(dot + 1);
}

/// Folds a StatsSnapshot delta over a window of `duration_ps` into the
/// pass's layer counters. `tck_ps` converts the window to DRAM bus cycles.
void AddCounters(Tally* t, const StatsSnapshot& d, sim::Tick duration_ps,
                 uint64_t tck_ps) {
  static const std::pair<const char*, const char*> kSuffixes[] = {
      {".cpu.core.uops_retired", "cpu.uops"},
      {".cpu.core.cycles", "cpu.cycles"},
      {".cpu.core.rob_full_cycles", "cpu.rob_full_cycles"},
      {".cpu.core.load_reject_cycles", "cpu.load_reject_cycles"},
      {".cpu.core.fetch_stall_cycles", "cpu.fetch_stall_cycles"},
      {".cpu.core.branches", "cpu.branches"},
      {".cpu.core.mispredicts", "cpu.mispredicts"},
      {".cpu.l1.hits", "cpu.l1_hits"},
      {".cpu.l1.misses", "cpu.l1_misses"},
      {".cpu.l2.hits", "cpu.l2_hits"},
      {".cpu.l2.misses", "cpu.l2_misses"},
      {"system.jafar.retries", "jafar.retries"},
      {"array.runtime.leases", "core.runtime.leases"},
      {"array.runtime.steals", "core.runtime.steals"},
      {"array.runtime.stolen_pages", "core.runtime.stolen_pages"},
      {"array.runtime.admission_defers", "core.runtime.admission_defers"},
      {"array.runtime.deadline_cancellations",
       "core.runtime.deadline_cancellations"},
      {"array.runtime.jobs_failed", "core.runtime.jobs_failed"},
      {"array.ingress.accepted", "core.ingress.accepted"},
      {"array.ingress.shed_ring_full", "core.ingress.shed_ring_full"},
      {"array.ingress.shed_slots_exhausted",
       "core.ingress.shed_slots_exhausted"},
      {"array.ingress.shed_low_priority", "core.ingress.shed_low_priority"},
      {"array.ingress.shed_retry_budget", "core.ingress.shed_retry_budget"},
      {"array.ingress.completed_ndp", "core.ingress.completed_ndp"},
      {"array.ingress.completed_cpu", "core.ingress.completed_cpu"},
      {"array.ingress.deadline_exceeded", "core.ingress.deadline_exceeded"},
      {"array.ingress.governor_transitions",
       "core.ingress.governor_transitions"},
  };
  static const std::pair<const char*, const char*> kDeviceFields[] = {
      {"rows_processed", "jafar.rows"},
      {"jobs_completed", "jafar.jobs"},
      {"jobs_failed", "jafar.jobs_failed"},
      {"data_wait_ps", "jafar.data_wait_ps"},
      {"engine_busy_ps", "jafar.engine_busy_ps"},
      {"total_busy_ps", "jafar.total_busy_ps"},
      {"refresh_backoffs", "jafar.refresh_backoffs"},
      {"polite_backoffs", "jafar.polite_backoffs"},
      {"bursts_read", "dram.device_bursts"},
      {"bursts_written", "dram.device_bursts"},
      {"activates", "dram.device_activates"},
  };
  static const std::pair<const char*, const char*> kCtrlFields[] = {
      {"reads_served", "dram.reads"},
      {"writes_served", "dram.writes"},
      {"row_hits", "dram.row_hits"},
      {"rc_busy_cycles", "dram.busy_cycles"},
      {"wc_busy_cycles", "dram.busy_cycles"},
  };
  std::unordered_set<std::string> channels;
  for (const auto& [path, entry] : d.entries()) {
    if (!entry.monotonic) continue;
    for (const auto& [suffix, name] : kSuffixes) {
      if (path.ends_with(suffix)) (*t)[name] += entry.value;
    }
    // Driver retries of the runtime's per-lane drivers.
    if (path.starts_with("array.runtime.lane") && path.ends_with(".retries")) {
      (*t)["jafar.retries"] += entry.value;
    }
    std::string field = DeviceField(path);
    for (const auto& [f, name] : kDeviceFields) {
      if (field == f) (*t)[name] += entry.value;
    }
    size_t ctrl = path.find("dram.ctrl");
    if (ctrl != std::string::npos) {
      size_t dot = path.find('.', ctrl + 9);
      if (dot == std::string::npos) continue;
      channels.insert(path.substr(0, dot));
      std::string cf = path.substr(dot + 1);
      for (const auto& [f, name] : kCtrlFields) {
        if (cf == f) (*t)[name] += entry.value;
      }
    }
  }
  (*t)["dram.bus_cycles"] += static_cast<double>(channels.size()) *
                             static_cast<double>(duration_ps / tck_ps);
}

// ---------------------------------------------------------------------------
// Workloads. Each pass: Setup (timed as setup_s), Measure (timed as wall_s),
// then untimed oracle checks.

struct RunContext {
  uint64_t seed = 0;
  Tracer* tracer = nullptr;
};

// -- select_scan: the Figure 3 path -----------------------------------------

class SelectScan {
 public:
  explicit SelectScan(const RunContext& ctx) : ctx_(ctx) {}

  void Setup(Pass* p) {
    Tracer* tr = ctx_.tracer;
    SpanScope setup(tr, "bench", "select_scan.setup");
    {
      SpanScope s(tr, "db.generate", "UniformColumn");
      col_ = UniformColumn(kSelectRows, DeriveSeed(ctx_.seed, 1));
    }
    core::PlatformConfig plat = core::PlatformConfig::Gem5();
    {
      SpanScope s(tr, "accel", "DeviceConfig::Derive");
      p->Check(jafar::DeviceConfig::Derive(plat.dram_timing, plat.jafar_datapath)
                   .status(),
               "Derive");
    }
    {
      SpanScope s(tr, "accel", "DeviceConfig::DeriveBank");
      p->Check(jafar::DeviceConfig::DeriveBank(plat.dram_timing, plat.dram_org,
                                               plat.jafar_datapath)
                   .status(),
               "DeriveBank");
    }
    SpanScope s(tr, "setup", "SystemModel+PinColumn");
    for (size_t i = 0; i < std::size(kSelectPcts); ++i) {
      for (jafar::DeviceGeneration gen : {jafar::DeviceGeneration::kV1RankIo,
                                          jafar::DeviceGeneration::kV2BankLevel}) {
        core::PlatformConfig cfg = plat;
        cfg.device_gen = gen;
        systems_.push_back(std::make_unique<core::SystemModel>(cfg));
        systems_.back()->PinColumn(col_);
      }
    }
  }

  void Measure(Pass* p) {
    Tracer* tr = ctx_.tracer;
    for (size_t i = 0; i < std::size(kSelectPcts); ++i) {
      SpanScope point(tr, "bench", "select_scan.point");
      const int64_t hi = static_cast<int64_t>(kSelectPcts[i]) * 10000 - 1;
      core::SystemModel& v1 = *systems_[2 * i];
      core::SystemModel& v2 = *systems_[2 * i + 1];
      Point& r = points_.emplace_back();
      uint64_t e0 = v1.eq().executed_events();
      {
        SpanScope s(tr, "cpu", "SystemModel::RunCpuSelect", &v1.eq());
        auto res = v1.RunCpuSelect(col_, 0, hi, db::SelectMode::kBranching);
        if (p->Check(res.status(), "RunCpuSelect")) r.cpu = res.value();
      }
      p->Lap();
      {
        SpanScope s(tr, "jafar", "SystemModel::RunJafarSelect", &v1.eq());
        auto res = v1.RunJafarSelect(col_, 0, hi);
        if (p->Check(res.status(), "RunJafarSelect v1")) r.v1 = res.value();
      }
      p->Lap();
      uint64_t e1 = v2.eq().executed_events();
      {
        SpanScope s(tr, "jafar", "SystemModel::RunJafarSelect", &v2.eq());
        auto res = v2.RunJafarSelect(col_, 0, hi);
        if (p->Check(res.status(), "RunJafarSelect v2")) r.v2 = res.value();
      }
      p->events += v1.eq().executed_events() - e0;
      p->events += v2.eq().executed_events() - e1;
      p->Lap();
    }
  }

  void Finish(Pass* p) {
    const uint64_t tck = core::PlatformConfig::Gem5().dram_timing.tck_ps;
    std::vector<double> s1, s2, all;
    double err_sum = 0;
    for (size_t i = 0; i < points_.size(); ++i) {
      const Point& r = points_[i];
      const int pct = kSelectPcts[i];
      const int64_t hi = static_cast<int64_t>(pct) * 10000 - 1;
      const uint64_t oracle = HostCount(col_, 0, hi);
      const std::string at = " at " + std::to_string(pct) + "%";
      p->Expect(r.cpu.matches == oracle, "cpu matches != host count" + at);
      p->Expect(r.v1.matches == oracle, "v1 matches != host count" + at);
      p->Expect(r.v2.matches == oracle, "v2 matches != host count" + at);
      for (uint64_t v : {r.cpu.duration_ps, r.cpu.matches, r.v1.duration_ps,
                         r.v1.matches, r.v2.duration_ps, r.v2.matches}) {
        Mix(&p->digest, v);
      }
      if (r.v1.duration_ps == 0 || r.v2.duration_ps == 0) continue;
      double a = static_cast<double>(r.cpu.duration_ps) /
                 static_cast<double>(r.v1.duration_ps);
      double b = static_cast<double>(r.cpu.duration_ps) /
                 static_cast<double>(r.v2.duration_ps);
      s1.push_back(a);
      s2.push_back(b);
      all.push_back(a);
      all.push_back(b);
      err_sum += std::fabs(a - PaperFig3Speedup(pct)) / PaperFig3Speedup(pct);

      AddCounters(&p->layer, r.cpu.counters, r.cpu.duration_ps, tck);
      AddCounters(&p->layer, r.v1.counters, r.v1.duration_ps, tck);
      AddCounters(&p->layer, r.v2.counters, r.v2.duration_ps, tck);
      p->layer["cpu.sim_ps"] += static_cast<double>(r.cpu.duration_ps);
      p->layer["jafar.sim_ps"] +=
          static_cast<double>(r.v1.duration_ps + r.v2.duration_ps);
    }
    p->model["model.v1_speedup_gmean"] = GeoMean(s1);
    p->model["model.v2_speedup_gmean"] = GeoMean(s2);
    p->model["model.fig3_err_pct"] =
        s1.empty() ? 0.0 : 100.0 * err_sum / static_cast<double>(s1.size());
    p->sim_speedup = GeoMean(all);
  }

 private:
  struct Point {
    core::SystemModel::CpuRunResult cpu;
    core::SystemModel::JafarRunResult v1, v2;
  };
  RunContext ctx_;
  db::Column col_ = db::Column::Int64("values");
  std::vector<std::unique_ptr<core::SystemModel>> systems_;
  std::vector<Point> points_;
};

// -- tpch_analytics: the Figure 4 path plus join/group-by pushdown ----------

jafar::DeviceConfig ArrayDeviceConfig(Tracer* tr, Pass* p) {
  SpanScope s(tr, "accel", "DeviceConfig::Derive");
  auto cfg = jafar::DeviceConfig::Derive(dram::DramTiming::DDR3_1600(),
                                         accel::DatapathResources{});
  if (!p->Check(cfg.status(), "Derive")) return jafar::DeviceConfig{};
  return cfg.value();
}

class TpchAnalytics {
 public:
  explicit TpchAnalytics(const RunContext& ctx) : ctx_(ctx) {}

  void Setup(Pass* p) {
    Tracer* tr = ctx_.tracer;
    SpanScope setup(tr, "bench", "tpch_analytics.setup");
    {
      SpanScope s(tr, "db.generate", "tpch::Generate");
      db::tpch::TpchConfig cfg;
      cfg.scale = kTpchScale;
      cfg.seed = DeriveSeed(ctx_.seed, 2);
      db::tpch::Generate(cfg, &catalog_);
    }
    jafar::DeviceConfig dev = ArrayDeviceConfig(tr, p);
    SpanScope s(tr, "setup", "SystemModel+DimmArray+warmup");
    for (size_t i = 0; i < std::size(kTpchQueries); ++i) {
      xeon_.push_back(
          std::make_unique<core::SystemModel>(core::PlatformConfig::Xeon()));
    }
    for (int i = 0; i < 2; ++i) {
      gem5_.push_back(
          std::make_unique<core::SystemModel>(core::PlatformConfig::Gem5()));
      Ndp& n = ndp_[i];
      n.array = std::make_unique<core::DimmArray>(dram::DramTiming::DDR3_1600(),
                                                  4, 1, dev);
      n.runtime = std::make_unique<core::NdpRuntime>(n.array.get(),
                                                     core::RuntimeConfig{});
      n.array->eq().RunUntil(n.array->eq().Now() + kWarmupPs);
    }
  }

  void Measure(Pass* p) {
    Tracer* tr = ctx_.tracer;
    // CPU engine with trace recording, then Figure 4 replay on the Xeon.
    for (size_t i = 0; i < std::size(kTpchQueries); ++i) {
      const int q = kTpchQueries[i];
      SpanScope query(tr, "bench", "tpch.fig4_query");
      db::TraceRecorder trace(1, kTpchComputeScale);
      db::QueryContext qctx;
      qctx.trace = &trace;
      Result<int64_t> checksum = [&] {
        SpanScope s(tr, "db.query", "tpch::RunQueryByNumber(trace)");
        return db::tpch::RunQueryByNumber(&qctx, &catalog_, q);
      }();
      p->Lap();
      if (!p->Check(checksum.status(), "Q" + std::to_string(q))) continue;
      cpu_checksum_[q] = checksum.value();
      trace_events_ += trace.events().size();
      core::SystemModel& sys = *xeon_[i];
      core::IdlePeriodProfiler profiler(&sys);
      uint64_t e0 = sys.eq().executed_events();
      SpanScope s(tr, "cpu", "IdlePeriodProfiler::Profile", &sys.eq());
      auto prof = profiler.Profile("Q" + std::to_string(q), trace.events());
      p->events += sys.eq().executed_events() - e0;
      if (p->Check(prof.status(), "Profile Q" + std::to_string(q))) {
        profiles_.push_back(prof.value());
      }
      p->Lap();
    }
    // Q3 and Q18 through the semijoin and group-by pushdown hooks.
    for (int i = 0; i < 2; ++i) {
      const int q = i == 0 ? 3 : 18;
      SpanScope query(tr, "bench", "tpch.pushdown_query");
      Ndp& n = ndp_[i];
      sim::EventQueue& eq = n.array->eq();
      db::QueryContext qctx;
      db::NdpSemiJoinHook semi = n.runtime->MakeSemiJoinHook();
      db::NdpGroupByHook group = n.runtime->MakeGroupByHook();
      qctx.ndp_semi_join = [&, semi](const db::Column& bc,
                                     const db::PositionList& bp,
                                     const db::Column& pc,
                                     const db::PositionList& pp) {
        SpanScope s(tr, "core.runtime", "NdpRuntime::SemiJoinHook", &eq);
        auto r = semi(bc, bp, pc, pp);
        p->Check(r.status(), "semijoin hook Q" + std::to_string(q));
        return r;
      };
      qctx.ndp_group_by = [&, group](const db::Column& kc, const db::Column& vc) {
        SpanScope s(tr, "core.runtime", "NdpRuntime::GroupByHook", &eq);
        auto r = group(kc, vc);
        p->Check(r.status(), "group-by hook Q" + std::to_string(q));
        return r;
      };
      StatsSnapshot before = n.array->stats().Snapshot();
      const sim::Tick t0 = eq.Now();
      const uint64_t e0 = eq.executed_events();
      Result<int64_t> checksum = [&] {
        SpanScope s(tr, "db.query", "tpch::RunQueryByNumber(ndp)", &eq);
        return db::tpch::RunQueryByNumber(&qctx, &catalog_, q);
      }();
      n.ndp_ps = eq.Now() - t0;
      p->events += eq.executed_events() - e0;
      n.counters = n.array->stats().Snapshot().DeltaSince(before);
      if (p->Check(checksum.status(), "NDP Q" + std::to_string(q))) {
        n.checksum = checksum.value();
      }
      p->Lap();
    }
    // CPU baselines of the two pushed-down operators.
    {
      SpanScope s(tr, "bench", "tpch.cpu_probe");
      cpu_probe_ = CpuProbe(p, *gem5_[0]);
    }
    p->Lap();
    {
      SpanScope s(tr, "bench", "tpch.cpu_group_by");
      cpu_group_ = CpuGroupBy(p, *gem5_[1]);
    }
  }

  void Finish(Pass* p) {
    const uint64_t xeon_tck = core::PlatformConfig::Xeon().dram_timing.tck_ps;
    const uint64_t gem5_tck = core::PlatformConfig::Gem5().dram_timing.tck_ps;
    const uint64_t array_tck = dram::DramTiming::DDR3_1600().tck_ps;
    double idle_sum = 0;
    for (const core::IdleProfile& prof : profiles_) {
      double est = prof.EstimatedMeanIdleCycles();
      idle_sum += est;
      const sim::Tick dur = static_cast<sim::Tick>(prof.counters.Value("system.ticks_ps"));
      AddCounters(&p->layer, prof.counters, dur, xeon_tck);
      p->layer["cpu.sim_ps"] += static_cast<double>(dur);
      MixDouble(&p->digest, est);
      Mix(&p->digest, dur);
      Mix(&p->digest, prof.reads);
      Mix(&p->digest, prof.writes);
    }
    for (const auto& [q, sum] : cpu_checksum_) {
      Mix(&p->digest, static_cast<uint64_t>(q));
      Mix(&p->digest, static_cast<uint64_t>(sum));
    }
    std::vector<double> speedups;
    for (int i = 0; i < 2; ++i) {
      const int q = i == 0 ? 3 : 18;
      const Ndp& n = ndp_[i];
      const CpuRun& cpu = i == 0 ? cpu_probe_ : cpu_group_;
      auto it = cpu_checksum_.find(q);
      p->Expect(it != cpu_checksum_.end() && n.checksum == it->second,
                "Q" + std::to_string(q) + " NDP checksum != CPU checksum");
      AddCounters(&p->layer, n.counters, n.ndp_ps, array_tck);
      AddCounters(&p->layer, cpu.counters, cpu.duration_ps, gem5_tck);
      p->layer["jafar.sim_ps"] += static_cast<double>(n.ndp_ps);
      p->layer["cpu.sim_ps"] += static_cast<double>(cpu.duration_ps);
      Mix(&p->digest, static_cast<uint64_t>(n.checksum));
      Mix(&p->digest, n.ndp_ps);
      Mix(&p->digest, cpu.duration_ps);
      Mix(&p->digest, cpu.matches);
      if (n.ndp_ps > 0 && cpu.duration_ps > 0) {
        speedups.push_back(static_cast<double>(cpu.duration_ps) /
                           static_cast<double>(n.ndp_ps));
      }
    }
    p->Expect(speedups.size() == 2, "pushdown operators did not both run");
    p->layer["db.trace_events"] += static_cast<double>(trace_events_);
    double mean_idle = profiles_.empty() ? 0.0 : idle_sum / static_cast<double>(profiles_.size());
    p->model["model.fig4_mean_idle_cycles"] = mean_idle;
    p->model["model.fig4_err_pct"] =
        100.0 * std::fabs(mean_idle - kPaperFig4IdleCycles) / kPaperFig4IdleCycles;
    p->model["model.pushdown_speedup_gmean"] = GeoMean(speedups);
    p->sim_speedup = GeoMean(speedups);
  }

 private:
  struct Ndp {
    std::unique_ptr<core::DimmArray> array;
    std::unique_ptr<core::NdpRuntime> runtime;
    sim::Tick ndp_ps = 0;
    int64_t checksum = 0;
    StatsSnapshot counters;
  };
  using CpuRun = core::SystemModel::CpuRunResult;

  /// Q3's accelerable operator on the CPU: the hash semijoin probe of the
  /// shipdate-qualifying lineitem keys against the qualifying orderkeys.
  CpuRun CpuProbe(Pass* p, core::SystemModel& sys) {
    Tracer* tr = ctx_.tracer;
    db::Column probe_keys = db::Column::Int64("probe_keys");
    std::vector<uint8_t> hits;
    size_t build_keys = 1;
    {
      SpanScope s(tr, "db.query", "probe input (ScanSelect+HashJoin)");
      db::QueryContext qctx;
      db::Table& cust = catalog_.Tab("customer");
      db::Table& ord = catalog_.Tab("orders");
      db::Table& li = catalog_.Tab("lineitem");
      const int64_t date = db::tpch::DayNumber(1995, 3, 15);
      auto building = cust.Col("c_mktsegment").CodeOf("BUILDING");
      if (!p->Check(building.status(), "CodeOf BUILDING")) return {};
      db::PositionList cust_pos = db::ScanSelect(
          &qctx, cust.Col("c_mktsegment"), db::Pred::Eq(building.value()));
      db::PositionList ord_pos =
          db::ScanSelect(&qctx, ord.Col("o_orderdate"), db::Pred::Lt(date));
      db::JoinResult co = db::HashJoin(&qctx, cust.Col("c_custkey"), cust_pos,
                                       ord.Col("o_custkey"), ord_pos);
      std::unordered_set<int64_t> okeys;
      for (uint32_t pos : co.right) okeys.insert(ord.Col("o_orderkey")[pos]);
      db::PositionList li_pos =
          db::ScanSelect(&qctx, li.Col("l_shipdate"), db::Pred::Gt(date));
      probe_keys.Reserve(li_pos.size());
      hits.assign(li_pos.size(), 0);
      for (size_t i = 0; i < li_pos.size(); ++i) {
        int64_t key = li.Col("l_orderkey")[li_pos[i]];
        probe_keys.Append(key);
        hits[i] = okeys.count(key) != 0 ? 1 : 0;
      }
      build_keys = std::max<size_t>(1, okeys.size());
    }
    uint64_t key_base = sys.PinColumn(probe_keys);
    uint64_t ht = sys.Allocate(build_keys * 16, 4096);
    uint64_t out = sys.Allocate(probe_keys.size() * 4 + 64, 4096);
    cpu::HashProbeStream stream(probe_keys.data(), probe_keys.size(), key_base,
                                ht, out, static_cast<uint32_t>(build_keys),
                                hits.data());
    return RunStream(p, sys, &stream, "RunStream(HashProbeStream)");
  }

  /// Q18's accelerable operator on the CPU: the full-column hash group-by of
  /// l_quantity by l_orderkey.
  CpuRun CpuGroupBy(Pass* p, core::SystemModel& sys) {
    db::Table& li = catalog_.Tab("lineitem");
    const db::Column& okey = li.Col("l_orderkey");
    const db::Column& qty = li.Col("l_quantity");
    uint32_t groups = static_cast<uint32_t>(
        std::max<int64_t>(1, okey.size() == 0 ? 1 : okey[okey.size() - 1]));
    uint64_t key_base = sys.PinColumn(okey);
    uint64_t val_base = sys.PinColumn(qty);
    uint64_t ht = sys.Allocate(static_cast<uint64_t>(groups) * 16, 4096);
    cpu::GroupByScanStream stream(okey.data(), okey.size(), key_base, val_base,
                                  ht, groups);
    return RunStream(p, sys, &stream, "RunStream(GroupByScanStream)");
  }

  CpuRun RunStream(Pass* p, core::SystemModel& sys, cpu::UopStream* stream,
                  const char* name) {
    CpuRun run;
    uint64_t e0 = sys.eq().executed_events();
    SpanScope s(ctx_.tracer, "cpu", name, &sys.eq());
    auto res = sys.RunStream(stream);
    p->events += sys.eq().executed_events() - e0;
    if (p->Check(res.status(), name)) run = res.value();
    return run;
  }

  RunContext ctx_;
  db::Catalog catalog_;
  std::vector<std::unique_ptr<core::SystemModel>> xeon_, gem5_;
  Ndp ndp_[2];
  std::map<int, int64_t> cpu_checksum_;
  std::vector<core::IdleProfile> profiles_;
  uint64_t trace_events_ = 0;
  CpuRun cpu_probe_, cpu_group_;
};

// -- serving_servable / serving_overload -----------------------------------

/// The abl_serving governor-on ingress policy.
core::IngressConfig ServingConfig() {
  core::IngressConfig cfg;
  cfg.rings = 2;
  cfg.ring_capacity = 256;
  cfg.slots = 128;
  cfg.burst = 16;
  cfg.poll_bus_cycles = 800;
  cfg.governor_enabled = true;
  cfg.governor_poll_bus_cycles = 2'000;
  cfg.brownout_ndp_inflight = 8;
  cfg.cpu_scan_bus_cycles_per_row = 1;
  return cfg;
}

std::vector<core::TenantSpec> ServingTenants() {
  core::TenantSpec interactive;
  interactive.name = "interactive";
  interactive.priority = core::JobPriority::kInteractive;
  interactive.weight = kInteractiveShare;
  interactive.deadline_ps = kInteractiveDeadlinePs;
  core::TenantSpec batch;
  batch.name = "batch";
  batch.priority = core::JobPriority::kBatch;
  batch.weight = 1.0 - kInteractiveShare;
  batch.deadline_ps = kBatchDeadlinePs;
  return {interactive, batch};
}

class Serving {
 public:
  Serving(const RunContext& ctx, double reqs_per_us)
      : ctx_(ctx), reqs_per_us_(reqs_per_us) {}

  void Setup(Pass* p) {
    Tracer* tr = ctx_.tracer;
    SpanScope setup(tr, "bench", "serving.setup");
    {
      SpanScope s(tr, "db.generate", "UniformColumn+arrivals");
      col_ = UniformColumn(kServingRows, DeriveSeed(ctx_.seed, 3));
      sorted_ = col_.values();
      std::sort(sorted_.begin(), sorted_.end());
      GenerateArrivals(DeriveSeed(ctx_.seed, 4));
    }
    jafar::DeviceConfig dev = ArrayDeviceConfig(tr, p);
    SpanScope s(tr, "setup", "DimmArray+NdpRuntime+ServingIngress+warmup");
    array_ = std::make_unique<core::DimmArray>(dram::DramTiming::DDR3_1600(), 4,
                                               1, dev);
    runtime_ = std::make_unique<core::NdpRuntime>(array_.get(),
                                                  core::RuntimeConfig{});
    auto placed = array_->PlaceColumn(col_);
    if (p->Check(placed.status(), "PlaceColumn")) placed_ = placed.value();
    core::IngressConfig icfg = ServingConfig();
    p->Check(icfg.Validate(), "IngressConfig::Validate");
    ingress_ = std::make_unique<core::ServingIngress>(
        runtime_.get(), array_.get(), icfg, ServingTenants());
    ingress_->AddTable(&col_, &placed_);
    array_->eq().RunUntil(array_->eq().Now() + kWarmupPs);
    start_ps_ = array_->eq().Now();
  }

  void Measure(Pass* p) {
    Tracer* tr = ctx_.tracer;
    sim::EventQueue& eq = array_->eq();
    results_.assign(arrivals_.size(), Outcome{});
    before_ = array_->stats().Snapshot();
    const uint64_t e0 = eq.executed_events();
    ingress_->Start();
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      const sim::Tick due = start_ps_ + a.offset_ps;
      {
        SpanScope s(tr, "core.ingress", "EventQueue::RunUntil(window)", &eq);
        array_->RunUntil(due);
      }
      lateness_ps_ = std::max<sim::Tick>(lateness_ps_, eq.Now() - due);
      if (i % kServingLapRequests == 0) p->Lap();
      core::ServingRequest req;
      req.tenant = a.tenant;
      req.table = 0;
      req.lo = a.lo;
      req.hi = a.hi;
      req.deadline_ps = due + (a.tenant == 0 ? kInteractiveDeadlinePs
                                             : kBatchDeadlinePs);
      SpanScope s(tr, "core.ingress", "ServingIngress::Enqueue", &eq,
                  static_cast<int64_t>(i));
      ingress_->Enqueue(static_cast<uint32_t>(i % ingress_->config().rings), req,
                        [this, i](const core::ServingResult& r) {
                          Outcome& o = results_[i];
                          ++o.callbacks;
                          o.result = r;
                        });
    }
    {
      SpanScope s(tr, "core.ingress", "EventQueue::RunUntil(window)", &eq);
      array_->RunUntil(start_ps_ + kServingWindowPs);
    }
    ingress_->Stop();
    {
      SpanScope s(tr, "core.ingress", "ServingIngress::Drain", &eq);
      p->Check(ingress_->Drain(), "ServingIngress::Drain");
    }
    {
      SpanScope s(tr, "core.runtime", "NdpRuntime::Drain", &eq);
      p->Check(runtime_->Drain(), "NdpRuntime::Drain");
    }
    p->events += eq.executed_events() - e0;
    end_ps_ = eq.Now();
  }

  void Finish(Pass* p) {
    StatsSnapshot delta = array_->stats().Snapshot().DeltaSince(before_);
    AddCounters(&p->layer, delta, end_ps_ - start_ps_,
                dram::DramTiming::DDR3_1600().tck_ps);
    p->layer["jafar.sim_ps"] += static_cast<double>(end_ps_ - start_ps_);
    p->Expect(lateness_ps_ == 0, "arrival generator ran late");

    uint64_t on_time = 0, interactive = 0, interactive_on_time = 0;
    std::vector<double> latency_us;
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      const Outcome& o = results_[i];
      const std::string id = "request " + std::to_string(i);
      if (!p->Expect(o.callbacks == 1, id + ": not exactly one terminal outcome")) {
        continue;
      }
      const core::ServingResult& r = o.result;
      const sim::Tick due = start_ps_ + a.offset_ps;
      const sim::Tick deadline =
          a.tenant == 0 ? kInteractiveDeadlinePs : kBatchDeadlinePs;
      if (r.outcome == core::ServeOutcome::kFailed) {
        p->Expect(false, id + ": NDP job failed");
      }
      Mix(&p->digest, static_cast<uint64_t>(r.outcome));
      Mix(&p->digest, r.matches);
      Mix(&p->digest, r.completed_ps - start_ps_);
      interactive += a.tenant == 0 ? 1 : 0;
      if (!core::IsGoodput(r.outcome)) continue;
      const uint64_t oracle = static_cast<uint64_t>(
          std::upper_bound(sorted_.begin(), sorted_.end(), a.hi) -
          std::lower_bound(sorted_.begin(), sorted_.end(), a.lo));
      p->Expect(r.matches == oracle, id + ": matches != sorted-column count");
      const sim::Tick latency = r.completed_ps - due;
      if (latency <= deadline) {
        ++on_time;
        interactive_on_time += a.tenant == 0 ? 1 : 0;
      }
      if (a.tenant == 0) latency_us.push_back(static_cast<double>(latency) / 1e6);
    }
    std::sort(latency_us.begin(), latency_us.end());
    const double n = static_cast<double>(latency_us.size());
    const double window_ms = static_cast<double>(kServingWindowPs) / 1e9;
    p->model["model.goodput_kqps"] = static_cast<double>(on_time) / window_ms;
    p->model["model.interactive_samples"] = n;
    p->model["model.interactive_p50_us"] =
        latency_us.empty() ? 0.0 : Percentile(latency_us, 0.50);
    // The tail is the highest percentile with 10 samples beyond it (p99
    // would need 1000 samples).
    const double tail_q = n > 10.0 ? 1.0 - 10.0 / n : 0.0;
    p->model["model.interactive_tail_pct"] = 100.0 * tail_q;
    p->model["model.interactive_tail_us"] =
        n > 10.0 ? Percentile(latency_us, tail_q) : 0.0;
    p->model["model.interactive_miss_frac"] =
        interactive == 0 ? 0.0
                         : static_cast<double>(interactive - interactive_on_time) /
                               static_cast<double>(interactive);
    p->model["model.generator_lateness_ps"] = static_cast<double>(lateness_ps_);
    p->layer["core.ingress.on_time"] += static_cast<double>(on_time);
    // A single host core scanning each request's column (the ingress's CPU
    // fallback cost model) serves at most one request per this many ps.
    const double cpu_only_ps =
        static_cast<double>(kServingRows * ServingConfig().cpu_scan_bus_cycles_per_row *
                            dram::DramTiming::DDR3_1600().tck_ps);
    const double cpu_only_kqps = 1e9 / cpu_only_ps;  // per simulated ms
    p->sim_speedup = (static_cast<double>(on_time) / window_ms) / cpu_only_kqps;
  }

 private:
  struct Arrival {
    sim::Tick offset_ps = 0;  // due time after the window opens
    uint32_t tenant = 0;      // 0 interactive, 1 batch
    int64_t lo = 0, hi = 0;
  };
  struct Outcome {
    uint32_t callbacks = 0;
    core::ServingResult result;
  };

  /// Open-loop Poisson arrivals conditioned on their count: N = rate x window
  /// arrival times drawn uniformly over the window and sorted. Fixing N keeps
  /// the offered load identical across seeds; only the arrival pattern and
  /// the request mix change.
  void GenerateArrivals(uint64_t seed) {
    Rng rng(seed);
    const uint64_t n = static_cast<uint64_t>(
        std::llround(reqs_per_us_ * static_cast<double>(kServingWindowPs) / 1e6));
    arrivals_.assign(n, Arrival{});
    for (Arrival& a : arrivals_) {
      a.offset_ps = static_cast<sim::Tick>(
          rng.NextDouble() * static_cast<double>(kServingWindowPs));
      a.tenant = rng.NextDouble() < kInteractiveShare ? 0 : 1;
      const int64_t width = rng.NextInRange(1, kMaxSelectWidth);
      a.lo = rng.NextInRange(0, kValueDomain - width);
      a.hi = a.lo + width - 1;
    }
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Arrival& x, const Arrival& y) { return x.offset_ps < y.offset_ps; });
  }

  RunContext ctx_;
  double reqs_per_us_;
  db::Column col_ = db::Column::Int64("values");
  std::vector<int64_t> sorted_;
  std::vector<Arrival> arrivals_;
  std::vector<Outcome> results_;
  // Declared in construction order; destroyed ingress-first.
  std::unique_ptr<core::DimmArray> array_;
  std::unique_ptr<core::NdpRuntime> runtime_;
  core::PlacedColumn placed_;
  std::unique_ptr<core::ServingIngress> ingress_;
  StatsSnapshot before_;
  sim::Tick start_ps_ = 0, end_ps_ = 0;
  sim::Tick lateness_ps_ = 0;
};

// ---------------------------------------------------------------------------
// Run loop and reporting.

struct WorkloadSpec {
  const char* name;
  std::function<Pass(const RunContext&)> run_pass;
};

/// Set-up is short next to the measured phase, so each pass sets the
/// workload up this many times (measuring the last instance) to give the
/// setup_s median enough samples.
constexpr int kSetupRepeats = 3;

template <typename W, typename... Args>
Pass RunPass(const RunContext& ctx, Args... args) {
  Pass p;
  SpanScope pass(ctx.tracer, "bench", "pass");
  std::unique_ptr<W> w;
  for (int r = 0; r < kSetupRepeats; ++r) {
    w.reset();
    w = std::make_unique<W>(ctx, args...);
    Clock::time_point t0 = Clock::now();
    w->Setup(&p);
    p.setup_s.push_back(Seconds(Clock::now() - t0));
  }
  Clock::time_point t1 = Clock::now();
  p.lap_start = t1;
  {
    SpanScope m(ctx.tracer, "bench", "measure");
    w->Measure(&p);
  }
  p.Lap();
  p.wall_s = Seconds(Clock::now() - t1);
  w->Finish(&p);
  return p;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"select_scan", [](const RunContext& c) { return RunPass<SelectScan>(c); }},
      {"tpch_analytics",
       [](const RunContext& c) { return RunPass<TpchAnalytics>(c); }},
      {"serving_servable",
       [](const RunContext& c) { return RunPass<Serving>(c, 0.2); }},
      {"serving_overload",
       [](const RunContext& c) { return RunPass<Serving>(c, 0.4); }},
  };
  return kWorkloads;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a->trace = val == "1";
    } else if (key == "--spans") {
      a->spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

/// Build facts that change what is being measured.
struct BuildInfo {
  std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDP_PROTOCOL_CHECK
  bool protocol_check = true;
#else
  bool protocol_check = false;
#endif
#ifdef NDP_FAULT_INJECT
  bool fault_inject = true;
#else
  bool fault_inject = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  bool sanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  bool sanitizer = true;
#else
  bool sanitizer = false;
#endif
#else
  bool sanitizer = false;
#endif
#ifdef NDEBUG
  bool asserts = false;
#else
  bool asserts = true;
#endif
  /// True when the numbers describe a different program than the optimized
  /// build users run.
  bool Distorted() const {
    return build_type == "Debug" || protocol_check || sanitizer || asserts;
  }
};

void PrintMetric(std::string* out, const char* name, double value,
                 const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->size() > 1 ? ", " : "", name, value, unit);
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
    return 2;
  }

  const BuildInfo build;
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.tracer = &tracer;

  // Untraced passes feed the end-to-end metrics. A traced run alternates
  // untraced and traced passes so the tracing overhead is measured in the
  // same process.
  constexpr int kMinPasses = 3;
  constexpr int kMaxPasses = 200;
  const int min_passes = args.trace ? 2 * kMinPasses : kMinPasses;
  std::vector<Pass> untraced, traced;
  std::vector<int32_t> traced_ids;
  for (int i = 0; i < kMaxPasses; ++i) {
    if (i >= min_passes && Seconds(Clock::now() - origin) >= args.seconds) break;
    const bool trace_this = args.trace && i % 2 == 1;
    tracer.set_enabled(trace_this);
    tracer.set_pass(i);
    std::vector<double> refs;
    for (int k = 0; k < kRefRuns; ++k) refs.push_back(RefKernelSeconds());
    Pass p = spec->run_pass(ctx);
    for (int k = 0; k < kRefRuns; ++k) refs.push_back(RefKernelSeconds());
    p.speed = kRefNominalS / Median(refs);
    std::fprintf(stderr, "pass %d%s: setup %.4f s, measured %.4f s, speed %.3f\n",
                 i, trace_this ? " (traced)" : "", Median(p.setup_s), p.wall_s,
                 p.speed);
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "pass %d: %s\n", i, e.c_str());
    }
    (trace_this ? traced : untraced).push_back(std::move(p));
    if (trace_this) traced_ids.push_back(i);
  }
  tracer.set_enabled(false);

  // Every pass ran the same inputs: equal digests, or the simulation is not
  // deterministic.
  uint64_t attempted = 0, failed = 0;
  bool same_digest = true;
  const Pass& first = untraced.front();
  for (const std::vector<Pass>* set : {&untraced, &traced}) {
    for (const Pass& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
      same_digest &= p.digest == first.digest && p.events == first.events;
    }
  }
  if (!same_digest) {
    std::fprintf(stderr, "passes of one seed disagree on the simulated outputs\n");
  }
  const bool correct = failed == 0 && same_digest;

  // wall_s: the sum over measured segments of each segment's fastest time
  // across the untraced passes. Every pass repeats identical deterministic
  // work (equal digests, checked above), so a slower repetition of a segment
  // measures outside load on the host, not the program; on a shared machine
  // that load comes in bursts that a per-pass median still averages in.
  // All host times below are at the reference speed (see kRefNominalS).
  auto fastest_segments = [](const std::vector<Pass>& v) {
    double sum = 0;
    for (size_t i = 0; !v.empty() && i < v.front().segments.size(); ++i) {
      double best = v.front().segments[i] * v.front().speed;
      for (const Pass& p : v) best = std::min(best, p.segments[i] * p.speed);
      sum += best;
    }
    return sum;
  };
  const double wall_s = fastest_segments(untraced);
  std::vector<double> setups, raw_walls, speeds;
  for (const Pass& p : untraced) {
    for (double x : p.setup_s) setups.push_back(x * p.speed);
    raw_walls.push_back(p.wall_s);
    speeds.push_back(p.speed);
  }
  const double setup_s = Median(setups);
  std::fprintf(stderr, "wall_s %.4f (median pass %.4f s unscaled, speed %.3f)\n",
               wall_s, Median(raw_walls), Median(speeds));

  // Human-readable report and the run record.
  std::printf("# perfbench %s seed=%" PRIu64 " passes=%zu+%zu traced\n",
              spec->name, args.seed, untraced.size(), traced.size());
  std::printf("# modeled values come from an unvalidated simulator model; the "
              "paper's figures (fig3: 5x..9x select speedup, fig4: ~500 idle "
              "bus cycles) are the only reference\n");
  if (build.Distorted()) {
    std::printf("# WARNING: %s build%s%s%s measures a different program than "
                "the optimized build\n",
                build.build_type.c_str(),
                build.protocol_check ? ", protocol checker on" : "",
                build.sanitizer ? ", sanitizer on" : "",
                build.asserts ? ", assertions on" : "");
  }
  std::printf("{\"report\": {\"workload\": \"%s\", \"digest\": \"%016" PRIx64
              "\", \"env\": {\"hardware_concurrency\": %u, \"build_type\": "
              "\"%s\", \"NDP_PROTOCOL_CHECK\": %d, \"NDP_FAULT_INJECT\": %d, "
              "\"sanitizer\": %d, \"assertions\": %d, \"distorted_build\": %d, "
              "\"seed\": %" PRIu64 ", \"select_column_seed\": %" PRIu64
              ", \"tpch_seed\": %" PRIu64 ", \"serving_column_seed\": %" PRIu64
              ", \"arrival_seed\": %" PRIu64 "}, \"model\": {",
              spec->name, first.digest, std::thread::hardware_concurrency(),
              build.build_type.c_str(), build.protocol_check, build.fault_inject,
              build.sanitizer, build.asserts, build.Distorted(), args.seed,
              DeriveSeed(args.seed, 1), DeriveSeed(args.seed, 2),
              DeriveSeed(args.seed, 3), DeriveSeed(args.seed, 4));
  {
    bool comma = false;
    for (const auto& [name, value] : first.model) {
      std::printf("%s\"%s\": %.9g", comma ? ", " : "", name.c_str(), value);
      comma = true;
    }
  }
  std::printf("}, \"sim_events\": %" PRIu64 "}}\n", first.events);

  std::string metrics = "{";
  if (!args.trace) {
    PrintMetric(&metrics, "wall_s", wall_s, "s");
    PrintMetric(&metrics, "setup_s", setup_s, "s");
    PrintMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
    PrintMetric(&metrics, "ok_frac",
                attempted == 0 ? 0.0
                               : 1.0 - static_cast<double>(failed) /
                                           static_cast<double>(attempted),
                "frac");
    PrintMetric(&metrics, "sim_speedup", first.sim_speedup, "x");
  } else {
    // Host self time per layer, median over the traced passes.
    std::map<std::string, std::vector<double>> self;
    std::vector<double> span_counts;
    for (size_t k = 0; k < traced_ids.size(); ++k) {
      const int32_t id = traced_ids[k];
      for (const auto& [layer, s] : tracer.SelfSecondsByLayer(id)) {
        self[layer].push_back(s * traced[k].speed);
      }
      span_counts.push_back(static_cast<double>(std::count_if(
          tracer.spans().begin(), tracer.spans().end(),
          [id](const Tracer::Span& s) { return s.pass == id; })));
    }
    auto self_s = [&](const char* layer) {
      auto it = self.find(layer);
      return it == self.end() ? 0.0 : Median(it->second);
    };
    const double traced_wall = fastest_segments(traced);
    const Tally& t = first.layer;
    auto v = [&](const char* name) {
      auto it = t.find(name);
      return it == t.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    auto model = [&](const char* name) {
      auto it = first.model.find(name);
      return it == first.model.end() ? 0.0 : it->second;
    };
    const double events = static_cast<double>(first.events);
    const double cpu_host = self_s("cpu");
    const double l1 = v("cpu.l1_hits") + v("cpu.l1_misses");
    const double l2 = v("cpu.l2_hits") + v("cpu.l2_misses");
    const double dram_accesses = v("dram.reads") + v("dram.writes");
    const double shed = v("core.ingress.shed_ring_full") +
                        v("core.ingress.shed_slots_exhausted") +
                        v("core.ingress.shed_low_priority") +
                        v("core.ingress.shed_retry_budget");
    const struct {
      const char* name;
      double value;
      const char* unit;
    } rows[] = {
        {"sim.events", events, "count"},
        {"sim.host_ns_per_event", ratio(wall_s * 1e9, events), "ns"},
        {"accel.derive_s", self_s("accel"), "s"},
        {"cpu.host_s", cpu_host, "s"},
        {"cpu.uops", v("cpu.uops"), "count"},
        {"cpu.host_ns_per_uop", ratio(cpu_host * 1e9, v("cpu.uops")), "ns"},
        {"cpu.sim_ms", v("cpu.sim_ps") / 1e9, "ms"},
        {"cpu.cycles", v("cpu.cycles"), "count"},
        {"cpu.rob_full_frac", ratio(v("cpu.rob_full_cycles"), v("cpu.cycles")), "frac"},
        {"cpu.load_reject_frac", ratio(v("cpu.load_reject_cycles"), v("cpu.cycles")), "frac"},
        {"cpu.fetch_stall_frac", ratio(v("cpu.fetch_stall_cycles"), v("cpu.cycles")), "frac"},
        {"cpu.l1_accesses", l1, "count"},
        {"cpu.l1_miss_ratio", ratio(v("cpu.l1_misses"), l1), "frac"},
        {"cpu.l2_accesses", l2, "count"},
        {"cpu.l2_miss_ratio", ratio(v("cpu.l2_misses"), l2), "frac"},
        {"cpu.branches", v("cpu.branches"), "count"},
        {"cpu.mispredict_ratio", ratio(v("cpu.mispredicts"), v("cpu.branches")), "frac"},
        {"db.generate_s", self_s("db.generate"), "s"},
        {"db.query_s", self_s("db.query"), "s"},
        {"db.trace_events", v("db.trace_events"), "count"},
        {"jafar.host_s", self_s("jafar"), "s"},
        {"jafar.sim_ms", v("jafar.sim_ps") / 1e9, "ms"},
        {"jafar.rows", v("jafar.rows"), "count"},
        {"jafar.jobs", v("jafar.jobs"), "count"},
        {"jafar.jobs_failed", v("jafar.jobs_failed"), "count"},
        {"jafar.retries", v("jafar.retries"), "count"},
        {"jafar.busy_ms", v("jafar.total_busy_ps") / 1e9, "ms"},
        {"jafar.data_wait_frac", ratio(v("jafar.data_wait_ps"), v("jafar.data_wait_ps") + v("jafar.engine_busy_ps")), "frac"},
        {"jafar.engine_busy_frac", ratio(v("jafar.engine_busy_ps"), v("jafar.total_busy_ps")), "frac"},
        {"jafar.refresh_backoffs", v("jafar.refresh_backoffs"), "count"},
        {"jafar.polite_backoffs", v("jafar.polite_backoffs"), "count"},
        {"dram.reads", v("dram.reads"), "count"},
        {"dram.writes", v("dram.writes"), "count"},
        {"dram.device_bursts", v("dram.device_bursts"), "count"},
        {"dram.device_activates", v("dram.device_activates"), "count"},
        {"dram.row_hit_ratio", ratio(v("dram.row_hits"), dram_accesses), "frac"},
        {"dram.bus_cycles", v("dram.bus_cycles"), "count"},
        {"dram.busy_frac", ratio(v("dram.busy_cycles"), v("dram.bus_cycles")), "frac"},
        {"core.runtime.host_s", self_s("core.runtime"), "s"},
        {"core.runtime.leases", v("core.runtime.leases"), "count"},
        {"core.runtime.steals", v("core.runtime.steals"), "count"},
        {"core.runtime.stolen_pages", v("core.runtime.stolen_pages"), "count"},
        {"core.runtime.admission_defers", v("core.runtime.admission_defers"), "count"},
        {"core.runtime.deadline_cancellations", v("core.runtime.deadline_cancellations"), "count"},
        {"core.runtime.jobs_failed", v("core.runtime.jobs_failed"), "count"},
        {"core.serve_host_s", self_s("core.ingress"), "s"},
        {"core.ingress.accepted", v("core.ingress.accepted"), "count"},
        {"core.ingress.shed", shed, "count"},
        {"core.ingress.shed_ring_full", v("core.ingress.shed_ring_full"), "count"},
        {"core.ingress.shed_slots_exhausted", v("core.ingress.shed_slots_exhausted"), "count"},
        {"core.ingress.shed_low_priority", v("core.ingress.shed_low_priority"), "count"},
        {"core.ingress.shed_retry_budget", v("core.ingress.shed_retry_budget"), "count"},
        {"core.ingress.completed_ndp", v("core.ingress.completed_ndp"), "count"},
        {"core.ingress.completed_cpu", v("core.ingress.completed_cpu"), "count"},
        {"core.ingress.deadline_exceeded", v("core.ingress.deadline_exceeded"), "count"},
        {"core.ingress.governor_transitions", v("core.ingress.governor_transitions"), "count"},
        {"core.ingress.useful_frac", ratio(v("core.ingress.on_time"), v("core.ingress.accepted")), "frac"},
        {"bench.self_s", self_s("bench") + self_s("setup"), "s"},
        {"host.speed", Median(speeds), "x"},
        {"host.unscaled_pass_s", Median(raw_walls), "s"},
        {"trace.spans", Median(span_counts), "count"},
        {"trace.overhead_s", traced_wall - wall_s, "s"},
        {"model.v1_speedup_gmean", model("model.v1_speedup_gmean"), "x"},
        {"model.v2_speedup_gmean", model("model.v2_speedup_gmean"), "x"},
        {"model.fig3_err_pct", model("model.fig3_err_pct"), "%"},
        {"model.fig4_err_pct", model("model.fig4_err_pct"), "%"},
        {"model.pushdown_speedup_gmean", model("model.pushdown_speedup_gmean"), "x"},
        {"model.goodput_kqps", model("model.goodput_kqps"), "kq/s"},
        {"model.interactive_p50_us", model("model.interactive_p50_us"), "us"},
        {"model.interactive_tail_pct", model("model.interactive_tail_pct"), "%"},
        {"model.interactive_tail_us", model("model.interactive_tail_us"), "us"},
        {"model.interactive_samples", model("model.interactive_samples"), "count"},
        {"model.interactive_miss_frac", model("model.interactive_miss_frac"), "frac"},
    };
    for (const auto& r : rows) PrintMetric(&metrics, r.name, r.value, r.unit);
  }
  metrics += "}";

  if (args.trace && !args.spans_path.empty() && !tracer.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n", args.spans_path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return correct ? 0 : 1;
}
