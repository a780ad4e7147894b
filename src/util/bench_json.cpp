#include "util/bench_json.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace als {

namespace {

struct MetricSpec {
  std::string_view metric, unit, better;
};

// The metric vocabulary of every row.  Units and directions are spelled as
// in BENCHMARK.json; the unit alone sets the gate tier (util/flat_records.h).
constexpr MetricSpec kMetrics[] = {
    {"cost", "objective", "lower"},
    {"hpwl", "DBU", "lower"},
    {"area", "DBU^2", "lower"},
    {"area_usage", "ratio", "lower"},       // bounding box / module area
    {"violation", "objective", "lower"},    // sizing spec violation
    {"sf_reduction", "fraction", "higher"}, // Lemma search-space reduction
    {"sf_codes", "count", "lower"},         // enumerated S-F sequence pairs
    {"moves", "count", "lower"},
    {"sweeps", "count", "lower"},
    {"seconds", "s", "lower"},
    {"moves_per_s", "moves/s", "higher"},
    {"decodes_per_s", "decodes/s", "higher"},
    {"flat_over_map", "x", "higher"},       // decode rates, one process
    {"slicing_over_flat", "x", "lower"},    // move-loop times, one process
    {"curves_rebuilt", "count", "lower"},   // slicing evaluator work
    {"slots_placed", "count", "lower"},     // slicing evaluator work
    {"warm_over_cold", "x", "higher"},      // serve latencies, one run
    {"latency_p50_ms", "ms", "lower"},
    {"latency_p95_ms", "ms", "lower"},
    {"latency_max_ms", "ms", "lower"},
    {"jobs_per_s", "jobs/s", "higher"},
};

}  // namespace

BenchIo::BenchIo(int argc, char** argv) {
  if (argc > 0) tool_ = std::filesystem::path(argv[0]).filename().string();
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke_ = true;
    } else if (arg == "--json" && i + 1 < argc) {
      jsonPath_ = argv[++i];
    }
  }
}

BenchIo::~BenchIo() { finish(); }

void BenchIo::add(std::string_view layer, std::string_view metric,
                  std::string backend, std::string circuit,
                  std::size_t budget, double value) {
  for (const MetricSpec& spec : kMetrics) {
    if (spec.metric != metric) continue;
    records_.push_back({tool_, std::string(layer), std::string(metric),
                        std::string(spec.unit), std::string(spec.better),
                        std::move(backend), std::move(circuit), budget, value});
    return;
  }
  std::fprintf(stderr, "bench_json: metric '%.*s' is not in the table\n",
               static_cast<int>(metric.size()), metric.data());
  std::abort();
}

bool BenchIo::finish() {
  if (finished_ || jsonPath_.empty()) {
    finished_ = true;
    return true;
  }
  finished_ = true;
  std::string error;
  if (!writeFlatRecords(jsonPath_, records_, error)) {
    std::fprintf(stderr, "bench_json: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "bench_json: wrote %zu row(s) to %s\n", records_.size(),
               jsonPath_.c_str());
  return true;
}

}  // namespace als
