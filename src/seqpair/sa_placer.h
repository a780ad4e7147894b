// Device-level topological placement with symmetry constraints (Section II):
// simulated annealing restricted to the symmetric-feasible sequence-pair
// subspace.  The initial pair is symmetrized constructively and every move
// preserves property (1), so each visited code packs into an exactly
// symmetric placement — the annealer explores feasible solutions only.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anneal/run_record.h"
#include "cost/cost_model.h"
#include "netlist/circuit.h"
#include "seqpair/from_placement.h"
#include "seqpair/moves.h"
#include "seqpair/packer.h"
#include "seqpair/sym_placer.h"
#include "seqpair/symmetry.h"
#include "util/cancel_token.h"
#include "util/rng.h"

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

struct SeqPairPlacerResult : RunRecord {
  std::vector<Coord> axis2x;  ///< per-group doubled symmetry axis
  SequencePair code;          ///< best encoding found
};

/// Places `circuit` honoring all its symmetry groups exactly.
/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
SeqPairPlacerResult placeSeqPairSA(const Circuit& circuit,
                                   const SeqPairPlacerOptions& options = {});

/// The sequence-pair policy of the annealing session (anneal/session.h):
/// `placeSeqPairSA` is `AnnealSession<SeqPairBackend>` run to completion.
struct SeqPairBackend {
  using Options = SeqPairPlacerOptions;
  using Result = SeqPairPlacerResult;
  using State = SeqPairState;

  SeqPairBackend(const Circuit& circuit, const Options& options);

  /// The constructively symmetrized identity pair.
  State initialState() const;
  /// Dims + symmetric construction into the scratch; the pointer aliases
  /// scr.result.placement (null for a code that is not symmetric-feasible).
  const Placement* decode(const State& s);
  void move(State& s, Rng& rng) const { moves.apply(s, rng); }
  /// The diagonal-order pair of `placement` (seqpair/from_placement.h),
  /// rotations recovered from the rect dimensions (mirror partners forced
  /// consistent), then the symmetric-feasible invariant re-established.
  void reseed(State& s, const Placement& placement);
  Result finish(State best);

  const Circuit& circuit;
  std::span<const SymmetryGroup> groups;
  SymmetricMoveSet moves;
  CostModel model;
  SeqPairScratch localScratch;
  SeqPairScratch& scr;
  SymBuildOptions buildOpts;
  // Cross-backend reseed buffers (warm after the first reseed).
  SeqPairFromPlacementScratch reseedScratch;
  SymmetryGroup merged;
  SymFeasibleScratch symScratch;
};

}  // namespace als
