// Placement cost: the one evaluator behind all four SA backends.
//
// A `CostModel` binds a circuit to an `Objective` and costs a placement
// with `evaluate`; the annealer calls it on every decoded candidate
// (anneal/annealer.h's DecodedCost) and keeps the current cost itself.
//
// Every evaluation is one flat reduction over the whole placement: the
// bounding box, the doubled pin centres, HPWL over every net of a flat pin
// array, then the symmetry, proximity and thermal terms whose weights are
// nonzero.  There is no committed state, no per-net or per-group cache and
// no moved-module diff.  The topological representations decode a
// perturbed code into a whole packed placement, so one move shifts a large
// share of the blocks: annealing the n300 GSRC-like circuit, a move
// changes on average 45 (HB*-tree) to 89 (slicing) of 300 rects and
// dirties 67 to 143 of 298 nets.  The bookkeeping that re-reduced only
// those (dirty lists, generation stamps, bounding-box attain-counts,
// moved-module hints from the decoders, a committed/pending breakdown
// behind propose/commit/rollback) cost more than the reduction it
// skipped; the README's decode-contract section has the end-to-end
// numbers.
//
// == Cost evaluation contract ==
//
// All geometry aggregates are exact int64 (`Coord`) quantities and the
// float composition of the final cost is a fixed operation sequence owned
// by `Objective::compose`, so `evaluate(p)` is a pure function of `p`,
// bit for bit, whatever the model evaluated before.  tests/cost_test.cpp
// checks it against independent geometry and thermal oracles over every
// backend's move stream.  The parser's numeric
// envelope (io/benchmark_format.cpp) keeps every aggregate of a parsed
// circuit inside int64.
//
// Thread safety: a CostModel is a per-run object (one SA run constructs and
// owns one); it reads the circuit only during construction and scratch
// queries.  Concurrent runs over one const circuit each own their model —
// the same contract every backend's `place()` already documents.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cost/objective.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "thermal/thermal.h"

namespace als {

/// Exact integer aggregates of one evaluation plus the composed cost.
struct CostBreakdown {
  Rect boundingBox;
  Coord area = 0;             ///< bounding-box area
  Coord hpwl = 0;             ///< total HPWL over all nets
  Coord symDeviation = 0;     ///< total mirror deviation (0 = exact)
  int proximityViolations = 0;///< disconnected proximity groups
  Coord thermalMismatch = 0;  ///< total quantized pair mismatch [µK]
  double cost = 0.0;
};

class CostModel {
 public:
  CostModel(const Circuit& circuit, Objective objective);

  const Objective& objective() const { return objective_; }
  double infeasibleCost() const { return objective_.infeasibleCost; }

  // ---- evaluation (stateless) ----

  /// Cost of `p` from scratch, skipping zero-weight terms.
  double evaluate(const Placement& p) const;

  /// All aggregates of `p` from scratch, including zero-weight terms (for
  /// reporting; `cost` still skips them, matching `evaluate`).
  CostBreakdown evaluateBreakdown(const Placement& p) const;

  // ---- retired propose/commit protocol ----
  //
  // Kept for callers written against it; no state is kept between calls.

  /// Same as evaluate(p).
  double reset(const Placement& p) { return evaluate(p); }

  /// Same as evaluate(p): the moved-module hint is ignored.
  double propose(const Placement& p, std::span<const std::size_t>) {
    return evaluate(p);
  }

  /// Does nothing.
  void commit() {}

  /// Scratch mirror-deviation / proximity / thermal queries (shared with
  /// backends' result reporting).
  Coord symmetryDeviation(const Placement& p) const;
  int proximityViolations(const Placement& p) const;

  /// Total quantized (µK) temperature mismatch over every symmetric pair of
  /// every group: sum of |T_q(a) - T_q(b)| with T_q the int64 µK temperature
  /// of ThermalField::quantizedAt.
  Coord thermalMismatch(const Placement& p) const;

 private:
  /// The one reduction behind evaluate(): every aggregate the objective
  /// weighs (zero-weight terms skipped and left 0) and the cost.
  CostBreakdown reduce(const Placement& p) const;

  Coord groupDeviation(const Placement& p, std::size_t group) const;
  bool proxDisconnected(const Placement& p, std::size_t slot) const;
  std::int64_t quantizedTempAt(const Placement& p, ModuleId m) const;
  Coord pairMismatch(const Placement& p, std::size_t slot) const;

  const Circuit* circuit_;
  Objective objective_;

  // Static topology, captured at construction.  The nets are one CSR pin
  // array: net i's pins are netPins_[netStart_[i] .. netStart_[i + 1]).
  std::vector<std::size_t> netStart_;
  std::vector<std::size_t> netPins_;
  std::vector<std::vector<ModuleId>> proxMembers_; ///< proximity group leaves

  // Thermal topology (thermal/thermal.h): every symmetric pair of every
  // group is one mismatch slot; every module with powerW > 0 radiates.
  ThermalModel thermalModel_;
  std::vector<SymPair> thermalPairs_;                    ///< flattened pairs
  std::vector<std::pair<ModuleId, double>> radiators_;   ///< (module, watts)

  // Per-reduction scratch (mutable: reduce() is logically const and runs
  // once per move; reusing these keeps every evaluation free of heap
  // allocations).  centres_ holds every module's doubled pin centre.
  mutable std::vector<Point> centres_;
  mutable std::vector<Rect> proxRects_;
  mutable std::vector<std::size_t> proxUf_;
};

}  // namespace als
