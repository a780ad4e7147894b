// Machine-readable bench harness shared by the plain bench binaries and the
// als_place / als_replay tools.
//
// Every bench accepts:
//   --json <path>  write the run's rows as one JSON array to <path> (the
//                  format of util/flat_records.h and BENCH_baseline.json);
//   --smoke        short deterministic configuration: wall-clock budgets
//                  are replaced by small fixed sweep budgets so a CI smoke
//                  run finishes in seconds and is bit-reproducible.
//
// Each row holds one quantity.  Its tool is the binary's name (argv[0]);
// the caller names the layer, the metric, the backend, the circuit and the
// budget, and the metric table in bench_json.cpp supplies the unit and the
// better direction, spelled as in BENCHMARK.json.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "anneal/run_record.h"
#include "engine/placement_engine.h"
#include "util/cancel_token.h"
#include "util/flat_records.h"

namespace als {

class BenchIo {
 public:
  BenchIo(int argc, char** argv);
  ~BenchIo();  // flushes --json output if finish() was not called

  BenchIo(const BenchIo&) = delete;
  BenchIo& operator=(const BenchIo&) = delete;

  bool smoke() const { return smoke_; }

  /// Applies the bench budget: the paper-style wall-clock budget normally,
  /// a fixed deterministic sweep budget in --smoke mode.
  void applyBudget(EngineOptions& opt, double seconds,
                   std::size_t smokeSweeps = 60) const {
    opt.timeLimitSec = smoke_ ? 0.0 : seconds;
    opt.maxSweeps = smoke_ ? smokeSweeps : 0;
  }

  /// The same for native backend options: the wall clock is a deadline
  /// armed on `deadline` NOW, so call it right before the run.
  template <class Options>
  void applyBudget(Options& opt, CancelToken& deadline, double seconds,
                   std::size_t smokeSweeps = 60) const {
    deadline.reset();
    deadline.setDeadlineAfter(smoke_ ? 0.0 : seconds);
    opt.cancel = &deadline;
    opt.maxSweeps = smoke_ ? smokeSweeps : 0;
  }

  /// Records one quantity.  `metric` must be in the metric table.
  void add(std::string_view layer, std::string_view metric,
           std::string backend, std::string circuit, std::size_t budget,
           double value);

  /// Records one annealing run (an EngineResult or a native placer's
  /// result): exact cost, hpwl, area, moves, moves_accepted and sweeps
  /// rows, plus a timed moves/s row when the run carries its wall clock.
  void addRun(std::string_view layer, const std::string& backend,
              const std::string& circuit, std::size_t budget,
              const RunRecord& r) {
    const double moves = static_cast<double>(r.movesTried);
    add(layer, "cost", backend, circuit, budget, r.cost);
    add(layer, "hpwl", backend, circuit, budget, static_cast<double>(r.hpwl));
    add(layer, "area", backend, circuit, budget, static_cast<double>(r.area));
    add(layer, "moves", backend, circuit, budget, moves);
    add(layer, "moves_accepted", backend, circuit, budget,
        static_cast<double>(r.movesAccepted));
    add(layer, "sweeps", backend, circuit, budget, static_cast<double>(r.sweeps));
    if (r.seconds > 0.0) {
      add(layer, "moves_per_s", backend, circuit, budget, moves / r.seconds);
    }
  }

  /// Records one deterministic shape-function placement (Table I): exact
  /// area-usage and area rows plus its timed seconds row.
  template <class Result>
  void addDeterministic(const std::string& backend, const std::string& circuit,
                        const Result& r) {
    add("engine", "area_usage", backend, circuit, 0, r.areaUsage);
    add("engine", "area", backend, circuit, 0, static_cast<double>(r.area));
    add("engine", "seconds", backend, circuit, 0, r.seconds);
  }

  /// Writes the JSON file now (no-op without --json); returns false and
  /// prints to stderr on I/O failure.  Called by the destructor otherwise.
  bool finish();

 private:
  std::string tool_;
  std::string jsonPath_;
  std::vector<BenchRecord> records_;
  bool smoke_ = false;
  bool finished_ = false;
};

}  // namespace als
