// Slicing-model SA placer (ILAC-style [24]) — baseline for experiment E13.
//
// Anneals normalized Polish expressions with the Wong-Liu move set; each
// evaluation derives the best-area realization of the slicing tree from the
// subtree shape curves.  No symmetry handling: the experiment isolates the
// paper's *density* claim about slicing versus non-slicing topologies.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/run_record.h"
#include "cost/cost_model.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "slicing/polish.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace als {

/// Reusable decode buffers of one slicing SA run (lent by the session; see
/// engine/place_scratch.h for the sharing contract): the evaluator's
/// scratch, whose `result` holds the decoded placement of the current
/// candidate.
using SlicingScratch = PolishEvalScratch;

struct SlicingPlacerOptions {
  double wirelengthWeight = 0.25;
  double thermalWeight = 0.0;   ///< pair temperature-mismatch penalty
  double shapeMoveProb = 0.0;   ///< P(move re-selects a soft realization)
  std::size_t maxSweeps = 256;  ///< primary budget: total SA sweeps (deterministic)
  std::uint64_t seed = 13;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;
  std::size_t shapeCap = 32;
  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

/// The run record alone: slicing has no extras.
struct SlicingPlacerResult : RunRecord {};

/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
SlicingPlacerResult placeSlicingSA(const Circuit& circuit,
                                   const SlicingPlacerOptions& options = {});

/// The slicing policy of the annealing session (anneal/session.h):
/// `placeSlicingSA` is `AnnealSession<SlicingBackend>` run to completion.
/// It has no `reseed`: a general placement has no exact normalized Polish
/// expression, so this backend never adopts foreign seeds (the plan
/// executor falls back to keeping the replica's own state).
struct SlicingBackend {
  using Options = SlicingPlacerOptions;
  using Result = SlicingPlacerResult;
  using Scratch = SlicingScratch;
  /// The Polish expression plus, when shape moves are on, the chosen
  /// realization index per module (0 = declared footprint).
  struct State {
    PolishExpr expr;
    std::vector<std::uint8_t> shapeIdx;
  };

  SlicingBackend(const Circuit& circuit, const Options& options,
                 Scratch& scratch);

  State initialState() const;
  /// Applies the state's chosen realizations to the dim buffers, then
  /// derives the best-area realization of the slicing tree; the pointer
  /// aliases scr.result.placement, which the evaluator updates in place.
  const Placement* decode(const State& s);
  void move(State& s, Rng& rng) const;
  Result finish(State best);

  const Circuit& circuit;
  Options options;
  std::vector<Coord> w, h;  ///< declared footprints, shape choices applied
  std::vector<bool> rotatable;
  CostModel model;
  std::vector<ModuleId> shapy;  ///< shape move candidates (shapeMoveModules)
  Scratch& scr;
};

}  // namespace als
