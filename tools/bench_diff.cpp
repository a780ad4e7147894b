// bench_diff — regression gate over bench record files (util/flat_records.h).
//
// Compares a committed baseline (BENCH_baseline.json at the repo root)
// against freshly captured --smoke rows, key by key: (tool, layer, metric,
// backend, circuit, budget).  Rows sharing a key are repeated samples, and
// each key is gated in its own better direction by its tier:
//
//   exact  pure functions of circuit, options, seed and budget (costs,
//          counts, area usage): the current median FAILs when it is worse
//          than the baseline median by any amount.
//   tight  timing ratios measured inside one process, and
//   loose  absolute rates and latencies: the current run's best sample
//          FAILs when it is worse than the baseline median by more than
//          the quartile spread (q3 - q1, as alsbench/steady.py reads it)
//          of the baseline's own samples of that key.  A timed key with
//          one sample on either side (no spread, or no best of several)
//          is reported, not gated.
//
// The current side of a timed key is read at its best sample: interference
// from other load on the host only ever slows a run, so the best capture
// is the one that shows what the code can still do.
//
// A baseline key missing from the current run FAILs (lost coverage); a
// current key the baseline lacks is counted as new.
//
//   bench_diff BENCH_baseline.json current.json [more.json ...]
//   bench_diff --merge BENCH_baseline.json capture.json [more.json ...]
//
// --merge writes every input's rows into one file, keeping one copy of an
// exact row that repeats with the same value; that is how
// BENCH_baseline.json is captured from k runs of each timed tool.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/flat_records.h"

namespace {

using namespace als;

bool load(char** first, char** last, std::vector<BenchRecord>* rows) {
  for (; first != last; ++first) {
    std::string error;
    if (!loadFlatRecords(*first, *rows, error)) {
      std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

int merge(int argc, char** argv) {
  std::vector<BenchRecord> all, kept;
  if (!load(argv + 3, argv + argc, &all)) return 2;
  std::set<std::pair<std::string, double>> exact;
  for (BenchRecord& row : all) {
    if (tierOf(row) != Tier::Exact ||
        exact.emplace(rowKey(row), row.value).second) {
      kept.push_back(std::move(row));
    }
  }
  std::string error;
  if (!writeFlatRecords(argv[2], kept, error)) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return 2;
  }
  std::printf("bench_diff: merged %zu row(s) into %s\n", kept.size(), argv[2]);
  return 0;
}

/// Share by which `now` is worse than `base` (negative = better).
double worse(const BenchRecord& row, double base, double now) {
  const double delta = base != 0.0 ? (now - base) / std::abs(base)
                                   : (now > base) - (now < base);
  return row.better == "lower" ? delta : -delta;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "--merge") == 0) return merge(argc, argv);
  if (argc < 3 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <current.json> [more.json ...]\n"
                 "       bench_diff --merge <out.json> <in.json> [more.json ...]\n");
    return 2;
  }
  std::vector<BenchRecord> baseRows, currRows;
  if (!load(argv + 1, argv + 2, &baseRows) ||
      !load(argv + 2, argv + argc, &currRows)) {
    return 2;
  }
  const auto base = groupRows(baseRows);
  const auto curr = groupRows(currRows);

  int failures = 0;
  std::size_t exact = 0, spread = 0, reported = 0;
  for (const auto& [key, b] : base) {
    auto it = curr.find(key);
    if (it == curr.end()) {
      std::fprintf(stderr, "bench_diff: FAIL %s: in the baseline, missing "
                           "from the current run\n", key.c_str());
      ++failures;
      continue;
    }
    const Tier tier = tierOf(b.row);
    const std::vector<double>& samples = it->second.values;
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    const double was = b.median();
    const double now = tier == Tier::Exact         ? it->second.median()
                       : b.row.better == "higher" ? *hi
                                                  : *lo;
    const double change = worse(b.row, was, now);
    const double bound = was != 0.0 ? b.quartileSpread() / std::abs(was) : 0.0;
    if (tier != Tier::Exact && (b.values.size() < 2 || samples.size() < 2)) {
      ++reported;
      std::printf("bench_diff: report %s: %.6g vs %.6g %s (%+.1f%% worse), "
                  "%zu vs %zu sample(s)\n",
                  key.c_str(), now, was, b.row.unit.c_str(), 100.0 * change,
                  samples.size(), b.values.size());
      continue;
    }
    ++(tier == Tier::Exact ? exact : spread);
    if (tier == Tier::Exact ? change > 0.0 : change > bound) {
      std::fprintf(stderr,
                   "bench_diff: FAIL %s: %.17g vs baseline %.17g %s (%s, %.4f%% "
                   "worse; bound %.4f%% from %zu baseline sample(s))\n",
                   key.c_str(), now, was, b.row.unit.c_str(), tierName(tier),
                   100.0 * change, 100.0 * bound, b.values.size());
      ++failures;
    }
  }
  std::size_t fresh = 0;
  for (const auto& entry : curr) fresh += base.count(entry.first) == 0;
  std::printf("bench_diff: %zu exact key(s) gated at zero, %zu timed key(s) "
              "gated by their baseline spread, %zu timed key(s) with one "
              "sample on a side reported, not gated, %zu new key(s), %d "
              "failure(s)\n",
              exact, spread, reported, fresh, failures);
  return failures == 0 ? 0 : 1;
}
