// Slicing-model SA placer (ILAC-style [24]) — baseline for experiment E13.
//
// Anneals normalized Polish expressions with the Wong-Liu move set; each
// evaluation derives the best-area realization of the slicing tree from the
// subtree shape curves.  No symmetry handling: the experiment isolates the
// paper's *density* claim about slicing versus non-slicing topologies.
#pragma once

#include <cstdint>
#include <memory>

#include "geom/placement.h"
#include "netlist/circuit.h"
#include "slicing/polish.h"
#include "util/cancel_token.h"

namespace als {

/// Reusable decode buffers of one slicing SA run (optional; see
/// bstar/flat_placer.h for the sharing contract).
struct SlicingScratch {
  PolishEvalScratch eval;
  SlicedResult result;  ///< decoded placement of the current candidate
};

struct SlicingPlacerOptions {
  double wirelengthWeight = 0.25;
  double thermalWeight = 0.0;   ///< pair temperature-mismatch penalty
  double shapeMoveProb = 0.0;   ///< P(move re-selects a soft realization)
  std::size_t maxSweeps = 256;  ///< primary budget: total SA sweeps (deterministic)
  std::uint64_t seed = 13;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;
  std::size_t shapeCap = 32;
  SlicingScratch* scratch = nullptr;  ///< optional caller-owned buffers
  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

struct SlicingPlacerResult {
  Placement placement;
  Coord area = 0;
  Coord hpwl = 0;
  double cost = 0.0;
  std::size_t movesTried = 0;
  std::size_t sweeps = 0;  ///< SA temperature steps executed
  double seconds = 0.0;
};

/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
SlicingPlacerResult placeSlicingSA(const Circuit& circuit,
                                   const SlicingPlacerOptions& options = {});

/// Resumable slicing SA run — `placeSlicingSA` cut at sweep granularity;
/// see bstar/flat_placer.h's FlatBStarSession for the shared contract
/// (run-to-completion bit-identity, `tempScale`, threading).
class SlicingSession {
 public:
  SlicingSession(const Circuit& circuit, const SlicingPlacerOptions& options,
                 double tempScale = 1.0);
  ~SlicingSession();

  SlicingSession(const SlicingSession&) = delete;
  SlicingSession& operator=(const SlicingSession&) = delete;

  std::size_t runSweeps(std::size_t maxSweeps);
  void run();
  bool finished() const;

  double currentCost() const;
  double bestCost() const;
  double temperature() const;

  void exchangeWith(SlicingSession& other);

  /// Decodes the best state so far into the session scratch.  The reference
  /// stays valid until the session advances or decodes again.
  const Placement& bestPlacement();

  /// Always returns false: a general placement has no exact normalized
  /// Polish expression, so this backend never adopts foreign seeds (the
  /// plan executor falls back to keeping the replica's own state).
  bool reseedFromPlacement(const Placement& placement);

  SlicingPlacerResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace als
