// Device-level topological placement with symmetry constraints (Section II):
// simulated annealing restricted to the symmetric-feasible sequence-pair
// subspace.  The initial pair is symmetrized constructively and every move
// preserves property (1), so each visited code packs into an exactly
// symmetric placement — the annealer explores feasible solutions only.
#pragma once

#include <cstdint>
#include <memory>

#include "netlist/circuit.h"
#include "seqpair/packer.h"
#include "seqpair/sym_placer.h"
#include "util/cancel_token.h"

namespace als {

/// Reusable decode buffers of one sequence-pair SA run (optional; see
/// bstar/flat_placer.h for the sharing contract).
struct SeqPairScratch {
  std::vector<Coord> w, h;    ///< orientation-resolved footprints
  SymPlaceScratch sym;
  SymPlacementResult result;  ///< decoded placement of the current candidate
};

struct SeqPairPlacerOptions {
  double wirelengthWeight = 0.25;  ///< lambda, scaled by sqrt(module area)
  std::size_t maxSweeps = 256;     ///< primary budget: total SA sweeps (deterministic)
  std::uint64_t seed = 7;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;  ///< 0 = auto

  // Optional geometric objectives (Section II lists area, net length,
  // aspect ratio and maximum chip width/height as the classic cost mix).
  Coord maxWidth = 0;            ///< 0 = unconstrained [DBU]
  Coord maxHeight = 0;           ///< 0 = unconstrained [DBU]
  double targetAspect = 0.0;     ///< 0 = no aspect objective (w/h target)
  double outlineWeight = 4.0;    ///< penalty scale for outline violations
  double thermalWeight = 0.0;    ///< pair temperature-mismatch penalty

  /// Ablation toggle: disable the repairing swap-any move class (see
  /// seqpair/moves.h); the default move mix keeps it on.
  bool enableRepairMoves = true;

  SeqPairScratch* scratch = nullptr;  ///< optional caller-owned buffers

  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

struct SeqPairPlacerResult {
  Placement placement;
  std::vector<Coord> axis2x;  ///< per-group doubled symmetry axis
  SequencePair code;          ///< best encoding found
  Coord area = 0;
  Coord hpwl = 0;
  double cost = 0.0;
  std::size_t movesTried = 0;
  std::size_t sweeps = 0;  ///< SA temperature steps executed
  double seconds = 0.0;
};

/// Places `circuit` honoring all its symmetry groups exactly.
/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
SeqPairPlacerResult placeSeqPairSA(const Circuit& circuit,
                                   const SeqPairPlacerOptions& options = {});

/// Resumable sequence-pair SA run — `placeSeqPairSA` cut at sweep
/// granularity; see bstar/flat_placer.h's FlatBStarSession for the shared
/// contract (run-to-completion bit-identity, `tempScale`, threading).
class SeqPairSession {
 public:
  SeqPairSession(const Circuit& circuit, const SeqPairPlacerOptions& options,
                 double tempScale = 1.0);
  ~SeqPairSession();

  SeqPairSession(const SeqPairSession&) = delete;
  SeqPairSession& operator=(const SeqPairSession&) = delete;

  std::size_t runSweeps(std::size_t maxSweeps);
  void run();
  bool finished() const;

  double currentCost() const;
  double bestCost() const;
  double temperature() const;

  void exchangeWith(SeqPairSession& other);

  /// Decodes the best state so far into the session scratch.  The reference
  /// stays valid until the session advances or decodes again.
  const Placement& bestPlacement();

  /// Replaces the current state with the diagonal-order pair of `placement`
  /// (seqpair/from_placement.h), recovers rotations from the rect
  /// dimensions (mirror partners forced consistent), re-establishes the
  /// symmetric-feasible invariant, and re-anchors.  Always succeeds for
  /// this backend.
  bool reseedFromPlacement(const Placement& placement);

  SeqPairPlacerResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace als
