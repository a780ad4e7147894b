// Flat B*-tree SA placer — the non-hierarchical baseline for experiment E6.
//
// All modules live in one B*-tree; analog constraints are not structural
// but *penalized*: symmetry deviation, common-centroid deviation and
// proximity disconnection enter the cost with weights.  Section III's
// argument — hierarchy shrinks the search space and makes constraints hold
// by construction — is demonstrated against this placer, which typically
// ends with residual constraint violations the HB*-tree placer cannot have.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/run_record.h"
#include "bstar/bstar_tree.h"
#include "bstar/from_placement.h"
#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace als {

/// Reusable decode buffers of one flat B*-tree SA run.  Optional: a run
/// without one builds its own.  A scratch may be reused across sequential
/// runs and circuits (the runtime layer keeps one per bank cell) but
/// never by two concurrent runs; its contents never influence results.
struct FlatBStarScratch {
  BStarPackScratch pack;
  std::vector<Coord> w, h;   ///< orientation-resolved footprints
  Placement placement;       ///< decoded placement of the current candidate
};

struct FlatBStarOptions {
  double wirelengthWeight = 0.25;
  double symmetryWeight = 2.0;    ///< penalty scale for mirror deviation
  double proximityWeight = 2.0;   ///< penalty scale for disconnected groups
  double thermalWeight = 0.0;     ///< pair temperature-mismatch penalty
  double shapeMoveProb = 0.0;     ///< P(move re-selects a soft realization)
  std::size_t maxSweeps = 256;    ///< primary budget: total SA sweeps (deterministic)
  std::uint64_t seed = 11;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;
  FlatBStarScratch* scratch = nullptr;  ///< optional caller-owned buffers
  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

struct FlatBStarResult : RunRecord {
  Coord symDeviation = 0;    ///< residual mirror deviation (DBU; 0 = exact)
  int proximityViolations = 0;  ///< disconnected proximity groups
};

/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
FlatBStarResult placeFlatBStarSA(const Circuit& circuit,
                                 const FlatBStarOptions& options = {});

/// The flat B*-tree policy of the annealing session (anneal/session.h):
/// `placeFlatBStarSA` is `AnnealSession<FlatBStarBackend>` run to
/// completion.
struct FlatBStarBackend {
  using Options = FlatBStarOptions;
  using Result = FlatBStarResult;
  struct State {
    BStarTree tree;
    std::vector<bool> rotated;
    std::vector<std::uint8_t> shapeIdx;  ///< index into Module::shapes (0 = footprint)
  };

  FlatBStarBackend(const Circuit& circuit, const Options& options);

  State initialState() const;
  /// Dims + full pack into the scratch; the pointer aliases scr.placement.
  const Placement* decode(const State& s);
  void move(State& s, Rng& rng) const;
  /// The B*-tree reconstruction of `placement` (bstar/from_placement.h),
  /// with orientations and shape choices recovered from the rect
  /// dimensions.  Every state is feasible for this penalty-based backend,
  /// so any right-sized placement is adopted.
  void reseed(State& s, const Placement& placement);
  Result finish(State best);

  const Circuit& circuit;
  Options options;
  CostModel model;
  std::vector<ModuleId> shapy;  ///< modules with a shape curve
  bool shapeMoves = false;
  FlatBStarScratch localScratch;
  FlatBStarScratch& scr;
  BStarFromPlacementScratch reseedScratch;  ///< warm after the first reseed
};

}  // namespace als
