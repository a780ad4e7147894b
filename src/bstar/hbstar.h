// HB*-tree hierarchical analog placement (Section III, [17]).
//
// One B*-tree per hierarchical sub-circuit plus one for the top design
// (Fig. 5).  Every internal hierarchy node packs its children into a rigid
// macro whose rectilinear outline — not just its bounding box — takes part
// in the parent packing (the contour-node mechanism; see contour.h).  The
// constraint of a node decides how its macro is built:
//
//   Symmetry        -> ASF-B*-tree symmetry island (asf.h); sub-circuit
//                      children are mirrored as macro pairs, which realizes
//                      hierarchical symmetry (Fig. 4);
//   CommonCentroid  -> interdigitated / gridded unit array (fixed macro);
//   Proximity       -> sub-B*-tree over the children, packed connected
//                      (bstar/pack.h): a group of modules holds proximity
//                      by construction; a group over groups can come out
//                      disconnected (child macros touch by bounding box);
//   None            -> sub-B*-tree over the children;
//   top             -> sub-B*-tree over the root children.
//
// Simulated annealing perturbs one of the HB*-trees (or an island, or a
// free module's orientation) per move, exactly as the paper describes:
// "one of the HB*-trees should be selected first, and then any perturbation
// operation for the B*-tree can be applied to the selected HB*-tree".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "anneal/run_record.h"
#include "bstar/asf.h"
#include "bstar/bstar_tree.h"
#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace als {

/// Reusable buffers of one HB*-tree pack (the hierarchical decode runs once
/// per SA move and must not allocate when warm).  A scratch is bound to a
/// circuit once per session (`bind`): common-centroid node macros are pure
/// functions of the circuit and are built then; everything else is
/// overwritten per pack.  Not shareable between concurrent packs; contents
/// never influence results.
struct HBPackScratch {
  /// Per-hierarchy-node persistent result buffers.
  struct NodeBuf {
    Macro macro;  ///< the node's packed rigid macro
    /// (symmetry-group index, axis2x in macro-local coordinates)
    std::vector<std::pair<std::size_t, Coord>> axes;
    AsfIsland islandWork;           ///< symmetry nodes: refreshed work copy
    std::vector<HierNodeId> subs;   ///< symmetry nodes: non-leaf children
    /// Encoding version this macro was packed from (see HBState stamps);
    /// 0 is never issued, so cold buffers always repack.
    std::uint64_t stamp = 0;
  };
  std::vector<NodeBuf> node;

  // Shared sequential buffers (each node's packing completes before its
  // parent's begins, so one set serves the whole recursion).
  BStarPackScratch tree;
  AsfPackScratch asf;
  PackedMacros packed;
  Placement sub;
  std::vector<ModuleId> owners;
  std::vector<const Macro*> childMacros;
  std::vector<ModuleId> leaves;
  std::vector<HierNodeId> dfsStack;
  std::vector<Coord> profileCuts;

  /// Binds to `circuit`: sizes the node buffers (keeping an earlier
  /// binding's allocations, which no state of `circuit` can match by
  /// stamp) and builds the common-centroid macros.  Every pack must run on
  /// a scratch bound to its state's circuit; `HBStarBackend` binds its
  /// scratch once, at construction.
  void bind(const Circuit& circuit);
};

/// Perturbable encoding of the whole hierarchical floorplan.
class HBState {
 public:
  /// Builds the initial state from the circuit's hierarchy tree.  Symmetry
  /// nodes with an odd number of sub-circuit children are unsupported
  /// (macro pairs need partners) and assert.
  explicit HBState(const Circuit& circuit);

  /// Applies one random perturbation (tree op, island op, rotation, or —
  /// when enabled — a soft-module shape re-selection).
  void perturb(Rng& rng);

  /// Turns on shape-selection moves with the given per-move probability.
  /// Only free leaves (modules under None/Proximity nodes) with a
  /// Module::shapes curve are eligible — symmetry-island and
  /// common-centroid members keep their construction-time footprints.  A
  /// no-op (and zero extra RNG draws in perturb) when no module qualifies
  /// or `prob` is 0, keeping default runs bit-identical.
  void enableShapeMoves(double prob);

  /// Packs the hierarchy bottom-up into a full placement.
  struct Packed {
    Placement placement;
    /// Doubled symmetry axis per circuit symmetry group (index-aligned),
    /// valid for groups owned by a symmetry hierarchy node.
    std::vector<Coord> axis2x;
    Coord width = 0, height = 0;
  };
  Packed pack() const;

  /// Scratch-reuse variant (identical results): the per-move decode of
  /// placeHBStarSA, on a scratch bound to this state's circuit
  /// (`HBPackScratch::bind`).  `out` is fully overwritten.  Node-local
  /// repack: a hierarchy node whose encoding stamp matches the scratch's
  /// cached pack (and whose children all matched) reuses its macro
  /// verbatim, so a move re-packs only the perturbed node and its ancestors
  /// — bit-identical to a cold pack (debug builds assert it against a
  /// full-pack oracle).
  void packInto(HBPackScratch& scratch, Packed& out) const;

  const Circuit& circuit() const { return *circuit_; }

 private:
  /// Packs node `id` into scratch.node[id] (macro + axes) unless the cached
  /// buffer is current; returns whether the macro was (re)packed.  The
  /// root's profile is consumed by nobody, so only non-root macros compute
  /// their O(n^2) profiles (`needProfiles`).
  bool packNodeInto(HierNodeId id, bool needProfiles,
                    HBPackScratch& scratch) const;

  const Circuit* circuit_;
  // Sub-tree per internal node id (empty when the node is not tree-packed).
  std::vector<std::optional<BStarTree>> trees_;
  std::vector<std::optional<AsfIsland>> islands_;
  std::vector<bool> rotated_;              // per module, free leaves only
  std::vector<std::uint8_t> shapeIdx_;     // per module realization (0 = footprint)
  std::vector<std::size_t> perturbable_;   // node ids with a tree or island
  std::vector<ModuleId> freeRotatable_;    // modules eligible for rotation
  std::vector<ModuleId> freeShapy_;        // free leaves with a shape curve
  double shapeMoveProb_ = 0.0;             // 0 = shape moves off
  // Per-hierarchy-node encoding version, drawn from a process-global
  // counter: every mutation of a node's encoding (tree/island perturb, leaf
  // rotation or shape re-selection) assigns a globally fresh stamp, and
  // state copies carry stamps along.  Equal stamps therefore imply an
  // identical encoding for that node — the invariant the scratch's
  // node-local repack cache relies on across rejected moves and restarts.
  std::vector<std::uint64_t> stamp_;
  std::vector<HierNodeId> leafNodeOf_;     // module -> its leaf hierarchy node
};

/// Reusable decode buffers of one HB*-tree SA run (lent by the session;
/// see engine/place_scratch.h for the sharing contract).
struct HBStarScratch {
  HBPackScratch pack;
  HBState::Packed packed;  ///< decoded placement of the current candidate
};

struct HBPlacerOptions {
  double wirelengthWeight = 0.25;
  double thermalWeight = 0.0;    ///< pair temperature-mismatch penalty
  double shapeMoveProb = 0.0;    ///< P(move re-selects a soft realization)
  std::size_t maxSweeps = 256;   ///< primary budget: total SA sweeps (deterministic)
  std::uint64_t seed = 11;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;  ///< 0 = auto
  /// Cooperative cancellation, checked per sweep (anneal/annealer.h).
  const CancelToken* cancel = nullptr;
};

struct HBPlacerResult : RunRecord {
  std::vector<Coord> axis2x;  ///< per circuit symmetry group
};

/// Hierarchical SA placement; all hierarchy constraints hold by construction
/// in every visited state.
/// Stateless and re-entrant (engine/placement_engine.h thread-safety
/// contract): reads `circuit` only, owns its RNG via `options.seed`.
HBPlacerResult placeHBStarSA(const Circuit& circuit,
                             const HBPlacerOptions& options = {});

/// The HB*-tree policy of the annealing session (anneal/session.h):
/// `placeHBStarSA` is `AnnealSession<HBStarBackend>` run to completion.
///
/// Replica exchange between two HB*-tree sessions is safe without cache
/// invalidation: encoding stamps are globally unique, so a swapped-in state
/// never aliases the other session's scratch cache.  There is no `reseed`:
/// the hierarchical encoding (islands, CC grids, per-node trees) cannot be
/// reconstructed from a flat placement, so this backend never adopts
/// foreign seeds (the plan executor falls back to keeping the replica's own
/// state).
struct HBStarBackend {
  using Options = HBPlacerOptions;
  using Result = HBPlacerResult;
  using State = HBState;
  using Scratch = HBStarScratch;

  /// Binds the scratch's pack buffers to `circuit` (once per session).
  HBStarBackend(const Circuit& circuit, const Options& options,
                Scratch& scratch);

  State initialState() const;
  /// Node-local repack into the scratch; the pointer aliases
  /// scr.packed.placement.
  const Placement* decode(const State& s);
  void move(State& s, Rng& rng) const { s.perturb(rng); }
  Result finish(State best);

  const Circuit& circuit;
  Options options;
  CostModel model;
  Scratch& scr;
};

}  // namespace als
