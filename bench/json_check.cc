// Validates BENCH_*.json artifacts: each file named on the command line must
// parse as JSON and carry the Reporter schema — a string "name", an object
// "config", and a non-empty array "points" whose elements each have a string
// "label" and an object "metrics". A point may also carry an optional
// "counters" object (a registry snapshot delta): every key must be a
// dotted-path counter name and every value a number. A config may carry an
// optional "generations" block (one object per swept device generation,
// keyed by generation name): every key must parse as a DeviceGeneration —
// an unknown generation string fails the file — and every entry must carry
// the accel-derived datapath numbers (plus the bank-comparator block for
// v2_bank_level). Exit 0 iff every file checks out; used by the
// bench_json_valid ctest targets.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jafar/generation.h"
#include "util/json.h"

namespace {

/// Every generation entry carries the rank-datapath numbers; the v2 entry
/// additionally carries the per-bank comparator rate/energy and the
/// command-flow timing pushed into the DRAM model.
bool CheckGenerationEntry(const char* path, const std::string& name,
                          ndp::jafar::DeviceGeneration gen,
                          const ndp::json::Value& entry) {
  if (!entry.is_object()) {
    std::fprintf(stderr, "%s: generation \"%s\" is not an object\n", path,
                 name.c_str());
    return false;
  }
  std::vector<const char*> required = {"words_per_cycle",
                                       "energy_per_word_fj"};
  if (gen == ndp::jafar::DeviceGeneration::kV2BankLevel) {
    required.insert(required.end(),
                    {"bank_words_per_cycle", "bank_energy_per_word_fj",
                     "fill_latency_cycles", "min_rd_spacing_cycles",
                     "drain_cycles"});
  }
  for (const char* field : required) {
    const ndp::json::Value* v = entry.Find(field);
    if (v == nullptr || !v->is_number()) {
      std::fprintf(stderr,
                   "%s: generation \"%s\": missing numeric \"%s\"\n", path,
                   name.c_str(), field);
      return false;
    }
  }
  return true;
}

bool CheckGenerationsBlock(const char* path, const ndp::json::Value& block) {
  if (!block.is_object() || block.members().empty()) {
    std::fprintf(stderr, "%s: \"generations\" is not a non-empty object\n",
                 path);
    return false;
  }
  for (const auto& [name, entry] : block.members()) {
    ndp::Result<ndp::jafar::DeviceGeneration> gen =
        ndp::jafar::ParseDeviceGeneration(name);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s: unknown device generation \"%s\" (%s)\n",
                   path, name.c_str(), gen.status().ToString().c_str());
      return false;
    }
    if (!CheckGenerationEntry(path, name, gen.value(), entry)) return false;
  }
  return true;
}

/// BENCH_serving.json carries the overload-ladder schema on top of the
/// generic Reporter one: the config pins the experiment size and the
/// interactive SLO, every ladder point ("load...") reports offered vs.
/// goodput qps plus the full latency tail and the oracle verdict, and a
/// "summary" point carries the derived peak/saturation numbers the no-cliff
/// analysis keys on. A serving file missing any of these is rejected — the
/// downstream goodput regression tracker would otherwise silently chart 0s.
bool CheckServingSchema(const char* path, const ndp::json::Value& root) {
  const ndp::json::Value& config = *root.Find("config");
  for (const char* field : {"rows", "window_us", "interactive_slo_us"}) {
    const ndp::json::Value* v = config.Find(field);
    if (v == nullptr || !v->is_number()) {
      std::fprintf(stderr, "%s: serving config: missing numeric \"%s\"\n",
                   path, field);
      return false;
    }
  }
  bool has_summary = false;
  for (const ndp::json::Value& p : root.Find("points")->items()) {
    const std::string& label = p.Find("label")->AsString();
    const ndp::json::Value& metrics = *p.Find("metrics");
    if (label == "summary") {
      has_summary = true;
      for (const char* field :
           {"peak_goodput_qps", "saturation_load_reqs_per_us"}) {
        const ndp::json::Value* v = metrics.Find(field);
        if (v == nullptr || !v->is_number()) {
          std::fprintf(stderr, "%s: serving summary: missing numeric \"%s\"\n",
                       path, field);
          return false;
        }
      }
      continue;
    }
    if (label.rfind("load", 0) != 0) continue;
    for (const char* field : {"offered_qps", "goodput_qps", "governor_on",
                              "p50_us", "p99_us", "p999_us", "match"}) {
      const ndp::json::Value* v = metrics.Find(field);
      if (v == nullptr || !v->is_number()) {
        std::fprintf(stderr,
                     "%s: serving point \"%s\": missing numeric \"%s\"\n",
                     path, label.c_str(), field);
        return false;
      }
    }
  }
  if (!has_summary) {
    std::fprintf(stderr, "%s: serving file has no \"summary\" point\n", path);
    return false;
  }
  return true;
}

/// BENCH_abl_join.json carries the join-pushdown schema on top of the
/// generic Reporter one: the config pins the sweep sizes and Bloom-filter
/// shape, every query point ("theta...") reports both operators' CPU and
/// NDP times plus the oracle verdict, every skew point ("skew...") reports
/// the steal setting and makespan, and a "summary" point carries the
/// steal-contrast ratios the skew-rebalancing claim keys on.
bool CheckJoinSchema(const char* path, const ndp::json::Value& root) {
  const ndp::json::Value& config = *root.Find("config");
  for (const char* field : {"scale", "rows", "filter_kb", "hashes"}) {
    const ndp::json::Value* v = config.Find(field);
    if (v == nullptr || !v->is_number()) {
      std::fprintf(stderr, "%s: join config: missing numeric \"%s\"\n", path,
                   field);
      return false;
    }
  }
  bool has_theta = false, has_skew = false, has_summary = false;
  for (const ndp::json::Value& p : root.Find("points")->items()) {
    const std::string& label = p.Find("label")->AsString();
    const ndp::json::Value& metrics = *p.Find("metrics");
    std::vector<const char*> required;
    if (label == "summary") {
      has_summary = true;
      required = {"steal_ratio_t15", "steal_ratio_t20"};
    } else if (label.rfind("theta", 0) == 0) {
      has_theta = true;
      required = {"theta", "q3_cpu_ms", "q3_ndp_ms", "q18_cpu_ms",
                  "q18_ndp_ms", "match"};
    } else if (label.rfind("skew", 0) == 0) {
      has_skew = true;
      required = {"theta", "steal", "makespan_ms", "match"};
    } else {
      continue;
    }
    for (const char* field : required) {
      const ndp::json::Value* v = metrics.Find(field);
      if (v == nullptr || !v->is_number()) {
        std::fprintf(stderr, "%s: join point \"%s\": missing numeric \"%s\"\n",
                     path, label.c_str(), field);
        return false;
      }
    }
  }
  if (!has_theta || !has_skew || !has_summary) {
    std::fprintf(stderr,
                 "%s: join file lacks a theta/skew/summary point "
                 "(theta=%d skew=%d summary=%d)\n",
                 path, has_theta, has_skew, has_summary);
    return false;
  }
  return true;
}

bool CheckFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  ndp::Result<ndp::json::Value> parsed = ndp::json::Value::Parse(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: parse error: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  const ndp::json::Value& root = parsed.value();
  if (!root.is_object()) {
    std::fprintf(stderr, "%s: root is not an object\n", path);
    return false;
  }
  const ndp::json::Value* name = root.Find("name");
  if (name == nullptr || !name->is_string() || name->AsString().empty()) {
    std::fprintf(stderr, "%s: missing string \"name\"\n", path);
    return false;
  }
  const ndp::json::Value* config = root.Find("config");
  if (config == nullptr || !config->is_object()) {
    std::fprintf(stderr, "%s: missing object \"config\"\n", path);
    return false;
  }
  const ndp::json::Value* generations = config->Find("generations");
  if (generations != nullptr && !CheckGenerationsBlock(path, *generations)) {
    return false;
  }
  const ndp::json::Value* points = root.Find("points");
  if (points == nullptr || !points->is_array() || points->size() == 0) {
    std::fprintf(stderr, "%s: missing non-empty array \"points\"\n", path);
    return false;
  }
  for (const ndp::json::Value& p : points->items()) {
    const ndp::json::Value* label = p.is_object() ? p.Find("label") : nullptr;
    const ndp::json::Value* metrics = p.is_object() ? p.Find("metrics") : nullptr;
    if (label == nullptr || !label->is_string() || metrics == nullptr ||
        !metrics->is_object()) {
      std::fprintf(stderr, "%s: malformed point\n", path);
      return false;
    }
    const ndp::json::Value* counters = p.Find("counters");
    if (counters != nullptr) {
      if (!counters->is_object()) {
        std::fprintf(stderr, "%s: point \"%s\": \"counters\" is not an object\n",
                     path, label->AsString().c_str());
        return false;
      }
      for (const auto& [key, value] : counters->members()) {
        // Registry counter paths are dotted (e.g. "dram.ctrl0.reads_served"):
        // a key with no dot is a metric that leaked into the wrong object.
        if (key.find('.') == std::string::npos || !value.is_number()) {
          std::fprintf(stderr,
                       "%s: point \"%s\": counter \"%s\" is not a dotted "
                       "path with a numeric value\n",
                       path, label->AsString().c_str(), key.c_str());
          return false;
        }
      }
    }
  }
  if (name->AsString() == "serving" && !CheckServingSchema(path, root)) {
    return false;
  }
  if (name->AsString() == "abl_join" && !CheckJoinSchema(path, root)) {
    return false;
  }
  std::printf("%s: ok (%zu points)\n", path, points->size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_file.json...\n", argv[0]);
    return 2;
  }
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) all_ok = CheckFile(argv[i]) && all_ok;
  return all_ok ? 0 : 1;
}
