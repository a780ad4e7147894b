// readme_tables — regenerates the README's measured-throughput tables from
// the committed BENCH_baseline.json, so the numbers the README shows are
// the numbers CI actually gates on (bench_diff) rather than hand-copied
// output that drifts.
//
// The README marks each generated table with HTML comment fences:
//
//   <!-- BEGIN readme_tables:<name> -->
//   ...generated markdown table...
//   <!-- END readme_tables:<name> -->
//
// Two tables are generated from the baseline's aggregated ops/sec rates
// (sum of `sweeps` over sum of `seconds` per backend x circuit pair, the
// same aggregation bench_diff gates):
//
//   decode    map-contour vs flat-contour packing rate per MCNC circuit
//             (the `decode-map` / `decode-flat` rows)
//   scaling   end-to-end move rate of the flat B*-tree, slicing and
//             sequence-pair backends up to n300 (the `flat-full`/
//             `slicing-memo`/`seqpair-full` rows)
//
// Default mode rewrites README.md in place; --check (the CI leg) exits
// nonzero if the committed tables differ from what the baseline says,
// which keeps README and baseline in sync by construction.  Refresh both
// together: re-merge the baseline, run readme_tables, commit the pair.
//
//   readme_tables [--baseline BENCH_baseline.json] [--readme README.md]
//                 [--check]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "io/corpus.h"
#include "util/flat_records.h"

namespace {

using namespace als;

int usage() {
  std::fprintf(stderr,
               "usage: readme_tables [--baseline <BENCH_baseline.json>] "
               "[--readme <README.md>] [--check]\n"
               "regenerates the fenced README tables from the committed "
               "baseline; --check only verifies they are in sync (nonzero "
               "exit when not)\n");
  return 2;
}

/// ops/sec of one backend x circuit pair, aggregated like bench_diff.
struct Rate {
  double ops = 0.0;
  double seconds = 0.0;
  double perSec() const { return seconds > 0.0 ? ops / seconds : 0.0; }
};

std::map<std::string, Rate> rates(const std::vector<FlatRecord>& recs) {
  std::map<std::string, Rate> out;
  for (const FlatRecord& r : recs) {
    auto backend = r.strings.find("backend");
    auto circuit = r.strings.find("circuit");
    if (backend == r.strings.end() || circuit == r.strings.end()) continue;
    Rate& rate = out[backend->second + " x " + circuit->second];
    rate.ops += r.number("sweeps");
    rate.seconds += r.number("seconds");
  }
  return out;
}

std::string fmtK(double perSec, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*fk", decimals, perSec / 1e3);
  return buf;
}

std::string fmtX(double ratio, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*fx", decimals, ratio);
  return buf;
}

std::size_t blockCount(const std::string& circuit) {
  CorpusCircuit which;
  if (!corpusByName(circuit, &which)) return 0;
  return loadCorpusCircuit(which).moduleCount();
}

/// | circuit | blocks | map contour | flat contour | speedup |
std::string decodeTable(const std::map<std::string, Rate>& pairs) {
  std::string out =
      "| circuit | blocks | map contour | flat contour | speedup |\n"
      "|---|---|---|---|---|\n";
  for (const char* circuit : {"apte", "xerox", "hp", "ami33", "ami49"}) {
    auto mapIt = pairs.find("decode-map x " + std::string(circuit));
    auto flatIt = pairs.find("decode-flat x " + std::string(circuit));
    if (mapIt == pairs.end() || flatIt == pairs.end()) continue;
    double mapRate = mapIt->second.perSec();
    double flatRate = flatIt->second.perSec();
    out += "| " + std::string(circuit) + " | " +
           std::to_string(blockCount(circuit)) + " | " + fmtK(mapRate, 0) +
           "/s | " + fmtK(flatRate, 0) + "/s | " +
           fmtX(mapRate > 0.0 ? flatRate / mapRate : 0.0, 1) + " |\n";
  }
  return out;
}

/// | circuit | blocks | flat | slicing | seqpair |
std::string scalingTable(const std::map<std::string, Rate>& pairs) {
  std::string out =
      "| circuit | blocks | flat | slicing | seqpair |\n"
      "|---|---|---|---|---|\n";
  for (const char* circuit :
       {"apte", "ami33", "ami49", "n100", "n200", "n300"}) {
    auto cell = [&](const char* backend) {
      auto it = pairs.find(std::string(backend) + " x " + circuit);
      return it == pairs.end() ? 0.0 : it->second.perSec();
    };
    double flat = cell("flat-full"), slicing = cell("slicing-memo");
    double seqpair = cell("seqpair-full");
    if (flat == 0.0 && seqpair == 0.0) continue;
    out += "| " + std::string(circuit) + " | " +
           std::to_string(blockCount(circuit)) + " | " + fmtK(flat, 1) +
           " | " + fmtK(slicing, 1) + " | " + fmtK(seqpair, 1) + " |\n";
  }
  return out;
}

/// Replaces the fenced block `name` in `text` with `table` (fences stay).
/// Returns false when the fences are missing or malformed.
bool splice(std::string& text, const std::string& name,
            const std::string& table) {
  const std::string begin = "<!-- BEGIN readme_tables:" + name + " -->\n";
  const std::string end = "<!-- END readme_tables:" + name + " -->";
  std::size_t lo = text.find(begin);
  if (lo == std::string::npos) return false;
  lo += begin.size();
  std::size_t hi = text.find(end, lo);
  if (hi == std::string::npos) return false;
  text.replace(lo, hi - lo, table);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baselinePath = "BENCH_baseline.json";
  std::string readmePath = "README.md";
  bool checkOnly = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--check") {
      checkOnly = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      baselinePath = argv[++i];
    } else if (arg == "--readme" && i + 1 < argc) {
      readmePath = argv[++i];
    } else {
      return usage();
    }
  }

  std::vector<FlatRecord> recs;
  std::string error;
  if (!loadFlatRecords(baselinePath, recs, error)) {
    std::fprintf(stderr, "readme_tables: %s\n", error.c_str());
    return 2;
  }
  std::map<std::string, Rate> pairs = rates(recs);

  std::FILE* f = std::fopen(readmePath.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "readme_tables: cannot open '%s'\n",
                 readmePath.c_str());
    return 2;
  }
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);

  std::string updated = text;
  for (const auto& [name, table] :
       {std::pair<std::string, std::string>{"decode", decodeTable(pairs)},
        {"scaling", scalingTable(pairs)}}) {
    if (!splice(updated, name, table)) {
      std::fprintf(stderr,
                   "readme_tables: %s: fenced block 'readme_tables:%s' "
                   "missing or malformed\n",
                   readmePath.c_str(), name.c_str());
      return 2;
    }
  }

  if (updated == text) {
    std::printf("readme_tables: %s is in sync with %s\n", readmePath.c_str(),
                baselinePath.c_str());
    return 0;
  }
  if (checkOnly) {
    std::fprintf(stderr,
                 "readme_tables: FAIL %s tables are out of sync with %s — "
                 "run ./build/readme_tables and commit the result\n",
                 readmePath.c_str(), baselinePath.c_str());
    return 1;
  }
  std::FILE* out = std::fopen(readmePath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "readme_tables: cannot write '%s'\n",
                 readmePath.c_str());
    return 2;
  }
  bool ok = std::fwrite(updated.data(), 1, updated.size(), out) ==
            updated.size();
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "readme_tables: short write to '%s'\n",
                 readmePath.c_str());
    return 2;
  }
  std::printf("readme_tables: regenerated tables in %s from %s\n",
              readmePath.c_str(), baselinePath.c_str());
  return 0;
}
