// B*-tree packing: modules and rigid macros onto the contour.
//
// `Macro` is the rigid multi-rectangle unit an HB*-tree hierarchy node
// exposes to its parent: the packed sub-placement plus its rectilinear
// bottom/top profiles.  A plain module is a trivial one-rectangle macro, so
// a single packer serves both the flat B*-tree placer and the hierarchical
// HB*-tree placer.
//
// == Decode hot path ==
//
// The `*Into` entry points are the per-move decode kernels: they write into
// caller-owned buffers (`BStarPackScratch` + a persistent output), pack on a
// `FlatContour`, and perform zero heap allocations once the buffers are
// warm.  The by-value functions (`packMacros`, `packBStar`) are convenience
// wrappers for cold callers (tests, enumeration, one-shot packing) and
// produce bit-identical placements.
//
// Every flat decode re-packs the whole tree.  A journaled repack of only
// the preorder suffix a move changed produced the same placements but
// measured 0.70-0.93x the speed of the full pack on every corpus circuit
// (apte .. n300), so it was removed; `packBStarPartialInto` remains as a
// name for the full pack.
#pragma once

#include <span>
#include <vector>

#include "bstar/bstar_tree.h"
#include "bstar/contour.h"
#include "geom/placement.h"
#include "netlist/module.h"

namespace als {

/// Rigid packed unit: rectangles in local coordinates (bounding box anchored
/// at the origin), owner module of each rectangle, and cached profiles.
struct Macro {
  std::vector<Rect> rects;
  std::vector<ModuleId> owners;  // parallel to rects
  Coord w = 0;
  Coord h = 0;
  std::vector<ProfileStep> bottom, top;

  /// Single-module macro.
  static Macro fromModule(ModuleId id, Coord w, Coord h);

  /// Macro wrapping an arbitrary placement (bbox normalized to the origin).
  /// Profile computation costs O(n^2) and only contour-based packers need
  /// it; pass computeProfiles = false when the macro is merely a rect
  /// container (e.g. shape-function entries, or the HB*-tree root whose
  /// profile no parent ever consumes).
  static Macro fromPlacement(const Placement& p, std::span<const ModuleId> owners,
                             bool computeProfiles = true);

  /// In-place 180-degree-free mirror about the vertical axis through the
  /// bbox center (used when a macro is one half of a symmetric pair).
  Macro mirroredX() const;

  // -- scratch-reuse variants of the constructors above: overwrite this
  //    macro, reusing its vector storage (allocation-free when warm). --

  /// Overwrites with a single-module macro (trivial flat profiles).
  void assignFromModule(ModuleId id, Coord w, Coord h);

  /// Overwrites from a placement, normalizing the bbox to the origin.
  /// `profileCuts` is the elementary-interval scratch of the profile build;
  /// with computeProfiles = false the profiles are left EMPTY (never stale).
  void assignFromPlacement(const Placement& p, std::span<const ModuleId> owners,
                           bool computeProfiles,
                           std::vector<Coord>& profileCuts);
};

/// Result of packing a B*-tree of macros.
struct PackedMacros {
  /// Placement of every owner module (indexed by module id over
  /// `moduleCount`); modules not owned by any macro keep zero rects.
  Placement placement;
  /// Anchor (lower-left of bbox) per tree item.
  std::vector<Point> anchor;
  Coord width = 0;
  Coord height = 0;
};

/// Reusable buffers of one B*-tree packing loop.  One scratch serves any
/// number of sequential packs (tree sizes may vary call to call); it must
/// not be shared by concurrent packers.
struct BStarPackScratch {
  FlatContour contour;
  std::vector<Coord> x;             ///< per-node anchor x during the DFS
  std::vector<Coord> floor;         ///< per-node lowest y (connected packs)
  std::vector<std::size_t> stack;   ///< preorder DFS stack
};

/// Packs `tree` whose item i is macros[i]; standard B*-tree semantics with
/// contour-node handling for non-flat macros.
PackedMacros packMacros(const BStarTree& tree, std::span<const Macro> macros,
                        std::size_t moduleCount);

/// Scratch-reuse variant over indirect macros (the HB*-tree packer's child
/// macros live in per-node buffers, not one contiguous array).  `out` is
/// fully overwritten.  With `connected`, a left child never sits below its
/// parent's bottom, where a plain packing can leave it under an overhang
/// touching nothing: a connected packing of plain modules is connected.
void packMacrosInto(const BStarTree& tree, std::span<const Macro* const> macros,
                    std::size_t moduleCount, bool connected,
                    BStarPackScratch& scratch, PackedMacros& out);

/// Convenience: packs a B*-tree of plain modules (item i = module i with
/// the given footprints).
Placement packBStar(const BStarTree& tree, std::span<const Coord> widths,
                    std::span<const Coord> heights);

/// The flat-placer decode kernel: packs plain rectangles directly on the
/// flat contour — no Macro objects, no profile indirection — writing the
/// placement into `out` (fully overwritten, indexed by tree item).
void packBStarInto(const BStarTree& tree, std::span<const Coord> widths,
                   std::span<const Coord> heights, BStarPackScratch& scratch,
                   Placement& out);

/// Forwards to packBStarInto and returns 0: the first re-packed preorder
/// position of a full pack (see the header comment).
std::size_t packBStarPartialInto(const BStarTree& tree,
                                 std::span<const Coord> widths,
                                 std::span<const Coord> heights,
                                 BStarPackScratch& scratch, Placement& out);

}  // namespace als
