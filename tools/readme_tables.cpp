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
// Two tables are generated from the medians of the baseline's bench_decode
// rows (the samples bench_diff gates):
//
//   decode    map-contour vs flat-contour decode rate per MCNC circuit and
//             their in-process ratio (the decode layer's `decodes_per_s`
//             and `flat_over_map` rows)
//   scaling   move rate of the flat B*-tree, slicing, sequence-pair and
//             HB*-tree move loops up to n300 (the move-loop layer's
//             `moves_per_s` rows)
//
// Default mode rewrites README.md in place; --check (the CI leg) exits
// nonzero if the committed tables differ from what the baseline says,
// which keeps README and baseline in sync by construction.  Refresh both
// together: re-merge the baseline, run readme_tables, commit the pair.
//
//   readme_tables [--baseline BENCH_baseline.json] [--readme README.md]
//                 [--check]
#include <cstdio>
#include <fstream>
#include <iterator>
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

/// Median of every bench_decode row, keyed "layer metric backend circuit";
/// a missing row reads 0.
struct Medians {
  std::map<std::string, double> rows;

  explicit Medians(const std::vector<BenchRecord>& records) {
    for (const auto& [key, s] : groupRows(records)) {
      if (s.row.tool != "bench_decode") continue;
      rows[s.row.layer + " " + s.row.metric + " " + s.row.backend + " " +
           s.row.circuit] = s.median();
    }
  }
  double at(const std::string& series, const std::string& circuit) const {
    auto it = rows.find(series + " " + circuit);
    return it == rows.end() ? 0.0 : it->second;
  }
};

std::string fmt(double v, int decimals, const char* suffix) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f%s", decimals, v, suffix);
  return buf;
}

std::size_t blockCount(const std::string& circuit) {
  CorpusCircuit which;
  if (!corpusByName(circuit, &which)) return 0;
  return loadCorpusCircuit(which).moduleCount();
}

/// | circuit | blocks | map contour | flat contour | speedup |
std::string decodeTable(const Medians& m) {
  std::string out =
      "| circuit | blocks | map contour | flat contour | speedup |\n"
      "|---|---|---|---|---|\n";
  for (const char* circuit : {"apte", "xerox", "hp", "ami33", "ami49"}) {
    double mapRate = m.at("decode decodes_per_s decode-map", circuit);
    double flatRate = m.at("decode decodes_per_s decode-flat", circuit);
    if (mapRate == 0.0 || flatRate == 0.0) continue;
    out += "| " + std::string(circuit) + " | " +
           std::to_string(blockCount(circuit)) + " | " +
           fmt(mapRate / 1e3, 0, "k/s") + " | " + fmt(flatRate / 1e3, 0, "k/s") +
           " | " + fmt(m.at("decode flat_over_map decode-flat", circuit), 1, "x") +
           " |\n";
  }
  return out;
}

/// | circuit | blocks | flat | slicing | seqpair | hbstar |
std::string scalingTable(const Medians& m) {
  std::string out =
      "| circuit | blocks | flat | slicing | seqpair | hbstar |\n"
      "|---|---|---|---|---|---|\n";
  for (const char* circuit :
       {"apte", "ami33", "ami49", "n100", "n200", "n300"}) {
    std::string row = "| " + std::string(circuit) + " | " +
                      std::to_string(blockCount(circuit)) + " |";
    double any = 0.0;
    for (const char* backend : {"flat-bstar", "slicing", "seqpair", "hbstar"}) {
      double rate = m.at(std::string("move-loop moves_per_s ") + backend, circuit);
      row += " " + fmt(rate / 1e3, 1, "k") + " |";
      any += rate;
    }
    if (any > 0.0) out += row + "\n";
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

  std::vector<BenchRecord> recs;
  std::string error;
  if (!loadFlatRecords(baselinePath, recs, error)) {
    std::fprintf(stderr, "readme_tables: %s\n", error.c_str());
    return 2;
  }
  const Medians medians(recs);

  std::ifstream in(readmePath);
  if (!in) {
    std::fprintf(stderr, "readme_tables: cannot open '%s'\n",
                 readmePath.c_str());
    return 2;
  }
  const std::string text{std::istreambuf_iterator<char>(in), {}};

  std::string updated = text;
  for (const auto& [name, table] :
       {std::pair<std::string, std::string>{"decode", decodeTable(medians)},
        {"scaling", scalingTable(medians)}}) {
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
  std::ofstream out(readmePath, std::ios::trunc);
  if (!(out << updated) || !out.flush()) {
    std::fprintf(stderr, "readme_tables: cannot write '%s'\n",
                 readmePath.c_str());
    return 2;
  }
  std::printf("readme_tables: regenerated tables in %s from %s\n",
              readmePath.c_str(), baselinePath.c_str());
  return 0;
}
