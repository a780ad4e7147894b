// The bench record format: one JSON array, one typed row per line, written
// by util/bench_json (every bench and tool's --json) and read by the CI
// gates that consume those files — tools/bench_diff and
// tools/readme_tables.  The reader parses exactly the one-row-per-line
// `[{"key": value, ...}, ...]` shape the writer emits; it is not a general
// JSON reader.
//
// A row holds one quantity, described in BENCHMARK.json's own terms:
//
//   {"tool": "bench_decode", "layer": "move-loop", "metric": "moves_per_s",
//    "unit": "moves/s", "better": "higher", "backend": "seqpair",
//    "circuit": "n300", "budget": 6, "value": 45512.3}
//
// `layer` is one of kernel, decode, move-loop, engine, runtime or serve;
// `better` is lower or higher; `budget` is the run's configured work
// (sweeps, decodes or jobs; 0 for a wall-clock run).  Rows are keyed by
// (tool, layer, metric, backend, circuit, budget); rows sharing a key are
// repeated samples of one quantity.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace als {

struct BenchRecord {
  std::string tool;
  std::string layer;
  std::string metric;
  std::string unit;
  std::string better;   ///< "lower" or "higher"
  std::string backend;  ///< engine / placer / configuration name
  std::string circuit;  ///< which input the row measures
  std::size_t budget = 0;
  double value = 0.0;
};

/// How a row is gated, from its unit: a time or a rate per second is
/// loose (it measures the host), a timing ratio taken inside one process
/// (unit "x") is tight, and everything else is an exact function of
/// circuit, options, seed and budget.
enum class Tier { Exact, Tight, Loose };
Tier tierOf(const BenchRecord& row);
const char* tierName(Tier tier);

/// "tool layer metric backend x circuit @budget".
std::string rowKey(const BenchRecord& row);

/// The samples of one key, in file order, with the first row as the
/// description.
struct RowSamples {
  BenchRecord row;
  std::vector<double> values;

  double median() const;
  /// q3 - q1 as Python's statistics.quantiles(values, n=4) gives them (the
  /// spread alsbench/steady.py reads); 0 with fewer than two samples.
  double quartileSpread() const;
};
std::map<std::string, RowSamples> groupRows(const std::vector<BenchRecord>& rows);

/// Parses a row array from `text`, appending to `out`.  Every row must
/// carry all nine fields with a known `better`; on failure returns false
/// with a position-bearing message in `error`.
bool parseFlatRecords(std::string_view text, std::vector<BenchRecord>& out,
                      std::string& error);
bool loadFlatRecords(const std::string& path, std::vector<BenchRecord>& out,
                     std::string& error);

/// The one writer: `rows` as the array the reader parses.
std::string formatFlatRecords(const std::vector<BenchRecord>& rows);
bool writeFlatRecords(const std::string& path,
                      const std::vector<BenchRecord>& rows, std::string& error);

}  // namespace als
