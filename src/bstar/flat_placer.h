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
#include <memory>

#include "bstar/pack.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"

namespace als {

/// Reusable decode buffers of one flat B*-tree SA run.  Optional: a run
/// without one builds its own.  A scratch may be reused across sequential
/// runs and circuits (the runtime layer keeps one per worker thread) but
/// never by two concurrent runs; its contents never influence results.
struct FlatBStarScratch {
  BStarPackScratch pack;
  std::vector<Coord> w, h;   ///< orientation-resolved footprints
  Placement placement;       ///< decoded placement of the current candidate
  // Moved-module accumulator for the hinted cost propose: the ids decoded
  // differently since the cost model last committed, deduplicated by an
  // epoch stamp per module (see FlatDecoder in flat_placer.cpp).
  std::vector<ModuleId> movedList;
  std::vector<std::uint32_t> movedMark;
  std::uint32_t movedEpoch = 0;
};

struct FlatBStarOptions {
  double wirelengthWeight = 0.25;
  double symmetryWeight = 2.0;    ///< penalty scale for mirror deviation
  double proximityWeight = 2.0;   ///< penalty scale for disconnected groups
  double thermalWeight = 0.0;     ///< pair temperature-mismatch penalty
  double shapeMoveProb = 0.0;     ///< P(move re-selects a soft realization)
  std::size_t maxSweeps = 256;    ///< primary budget: total SA sweeps (deterministic)
  double timeLimitSec = 0.0;      ///< secondary wall-clock cap (0 = uncapped)
  std::uint64_t seed = 11;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;
  /// Re-decode only the changed B*-tree suffix per move (bit-identical to a
  /// full re-decode; see packBStarPartialInto).  Off = the historical
  /// full-redecode path, kept for the bench_decode scaling A/B and as a
  /// trajectory-equivalence oracle in tests.
  bool partialDecode = true;
  FlatBStarScratch* scratch = nullptr;  ///< optional caller-owned buffers
  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

struct FlatBStarResult {
  Placement placement;
  Coord area = 0;
  Coord hpwl = 0;
  Coord symDeviation = 0;    ///< residual mirror deviation (DBU; 0 = exact)
  int proximityViolations = 0;  ///< disconnected proximity groups
  double cost = 0.0;
  std::size_t movesTried = 0;
  std::size_t sweeps = 0;    ///< SA temperature steps executed
  double seconds = 0.0;
};

/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
FlatBStarResult placeFlatBStarSA(const Circuit& circuit,
                                 const FlatBStarOptions& options = {});

/// Resumable flat B*-tree SA run — `placeFlatBStarSA` cut at sweep
/// granularity (anneal/annealer.h's AnnealDriver): construct, advance in
/// rounds with `runSweeps`, optionally exchange states or reseed between
/// rounds, and `finish()`.  A session run to completion in one go IS
/// `placeFlatBStarSA`, bit for bit (the function is implemented on top of
/// it).  `tempScale` multiplies the calibrated t0 of every internal restart
/// (1.0 = the sequential schedule, exactly).
///
/// Not movable or shareable across threads concurrently; the plan
/// executor advances each session from one thread at a time with fork-join
/// barriers in between, which is all the contract requires.
class FlatBStarSession {
 public:
  FlatBStarSession(const Circuit& circuit, const FlatBStarOptions& options,
                   double tempScale = 1.0);
  ~FlatBStarSession();

  FlatBStarSession(const FlatBStarSession&) = delete;
  FlatBStarSession& operator=(const FlatBStarSession&) = delete;

  /// Advances up to `maxSweeps` temperature steps; returns the number
  /// executed (fewer only when the whole budget finished).
  std::size_t runSweeps(std::size_t maxSweeps);
  /// Runs the remaining budget to completion.
  void run();
  bool finished() const;

  double currentCost() const;
  double bestCost() const;
  double temperature() const;  ///< current SA temperature (ladder-scaled)

  /// Swaps the two sessions' current states (replica exchange) and
  /// re-anchors both evaluators; no RNG is consumed.  Both sessions must
  /// place the same circuit.
  void exchangeWith(FlatBStarSession& other);

  /// Decodes the best state so far into the session scratch.  The reference
  /// stays valid until the session advances or decodes again.
  const Placement& bestPlacement();

  /// Replaces the current state with the B*-tree reconstruction of
  /// `placement` (bstar/from_placement.h), recovering orientations and
  /// shape choices from the rect dimensions, and re-anchors.  Always
  /// succeeds for this backend (penalty-based: every state is feasible).
  bool reseedFromPlacement(const Placement& placement);

  /// Finalizes (running any leftover budget first) and assembles the
  /// result exactly as `placeFlatBStarSA` does.
  FlatBStarResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace als
