// Machine-readable bench harness shared by the plain bench binaries.
//
// Every bench accepts:
//   --json <path>  append each experiment's headline numbers as one record
//                  and write the whole run as a JSON array to <path> (the
//                  format of the repo's BENCH_*.json trajectory files);
//   --smoke        short deterministic configuration: wall-clock budgets
//                  are replaced by small fixed sweep budgets so a CI smoke
//                  run finishes in seconds and is bit-reproducible.
//
// Records carry the canonical keys {backend, circuit, sweeps, restarts,
// threads, cost, hpwl, area, seconds} plus the unified objective weights
// {wl_weight, sym_weight, prox_weight} (cost/objective.h); quantities a
// bench does not have (e.g. sweeps of a non-SA experiment) stay zero.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/placement_engine.h"
#include "util/cancel_token.h"

namespace als {

struct BenchRecord {
  std::string backend;     ///< engine / placer / configuration name
  std::string circuit;     ///< which input the record measures
  std::size_t sweeps = 0;
  std::size_t restarts = 0;
  std::size_t threads = 0;
  double cost = 0.0;
  double hpwl = 0.0;       ///< DBU
  double area = 0.0;       ///< DBU^2
  double seconds = 0.0;
  // Unified objective weight knobs the run was *configured* with (0 = not
  // recorded); see cost/objective.h for the shared normalization recipe.
  // A backend whose representation satisfies a constraint by construction
  // ignores that knob (e.g. sym_weight on seqpair/hbstar is inert).
  double wlWeight = 0.0;
  double symWeight = 0.0;
  double proxWeight = 0.0;
};

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

  void add(BenchRecord record);

  /// Convenience: record an engine result.  When `opt` is given, the
  /// record also carries the objective weights the run placed with.
  void add(std::string backend, std::string circuit, const EngineResult& r,
           std::size_t threads = 1, const EngineOptions* opt = nullptr);

  /// Writes the JSON file now (no-op without --json); returns false and
  /// prints to stderr on I/O failure.  Called by the destructor otherwise.
  bool finish();

 private:
  std::string jsonPath_;
  std::vector<BenchRecord> records_;
  bool smoke_ = false;
  bool finished_ = false;
};

}  // namespace als
