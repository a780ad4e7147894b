// Symmetric placement construction from an S-F sequence-pair (Section II),
// using the symmetry-island formulation.
//
// Property (1) (union reading, see symmetry.h) guarantees that a legal
// placement exists in which every symmetry group is mirrored about its own
// vertical axis.  Constructing one is non-trivial: the per-pair mirror
// equalities are not a monotone constraint system, so a naive alternation of
// longest-path compaction and mirror adjustment can chase itself forever
// when several groups interleave (each group's axis growth pushes the next
// group's members, which pushes the first group's axis, without ever
// increasing the left-member spreads a finite solution needs).
//
// We therefore construct placements the way the symmetry-island works
// ([16], used by Section III) do:
//
//   1. per group, the *island* placement is built from the group's induced
//      sub-sequence-pair: longest-path compaction alternating with monotone
//      mirror adjustment.  Within a single group property (1) forces mirror
//      pairs to nest around the common axis and partners have matched
//      footprints, so the equalities are consistent and the iteration
//      reaches a fixpoint (a stacked pair-per-row fallback guarantees
//      termination in any case and is counted in the result);
//   2. each island is then a rigid super-module; islands and free cells are
//      packed by a reduced sequence-pair that inherits the original
//      cell order (each island ordered by its first member);
//   3. island-internal coordinates are offset into the global frame and the
//      per-group axes follow.
//
// The result is legal and *exactly* symmetric for every union-S-F code —
// the property suite sweeps random codes over many circuits to enforce
// exactly that contract.
//
// Exactness: all symmetry arithmetic runs on doubled center coordinates
// (D = 2x + w), which requires even module dimensions in DBU — trivially
// true for the micrometer-grid footprints all generators emit (asserted).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "geom/placement.h"
#include "netlist/module.h"
#include "seqpair/packer.h"
#include "seqpair/sequence_pair.h"

namespace als {

struct SymPlacementResult {
  Placement placement;
  /// Doubled axis coordinate (2 * axis) per symmetry group.
  std::vector<Coord> axis2x;
  /// Number of groups whose island needed the stacked fallback (0 in
  /// practice; > 0 would indicate an island relaxation failure).
  int fallbacks = 0;
};

namespace detail {

/// A mirror pair oriented by the code: `left` precedes `right` in both
/// sequences.
struct SymOrientedPair {
  std::size_t left = 0, right = 0;
};

/// Per-group island working buffers (reused move to move).
struct SymIslandBuf {
  std::vector<std::size_t> cells;  // global module ids
  Placement local;                 // indexed like `cells`
  Coord axis2x = 0;                // in island-local coordinates
  Coord w = 0, h = 0;              // bounding box
  bool usedFallback = false;
  std::vector<SymOrientedPair> pairs;
  // Island layout cache: the signature captures every input the layout
  // depends on; an unchanged signature skips relaxation.
  std::vector<std::size_t> sig;
  bool sigValid = false;
};

/// One row of the stacked fallback island.
struct SymRow {
  std::size_t anchor = 0;  // alpha-ordering key
  bool isPair = false;
  SymOrientedPair pr{};
  ModuleId self = 0;
};

}  // namespace detail

/// Reusable buffers of one symmetric-placement construction loop (the
/// sequence-pair placer's per-move decode).  Not shareable between
/// concurrent callers; contents never influence results.
struct SymPlaceScratch {
  std::vector<detail::SymIslandBuf> islands;
  std::vector<Coord> relaxX, relaxY;      ///< per-module longest-path coords
  std::vector<std::size_t> order;         ///< propagation ordering buffer
  std::vector<detail::SymRow> rows;       ///< stacked-fallback rows
  std::vector<std::size_t> localIndex;    ///< stacked-fallback index map
  std::vector<std::size_t> freeCells;     ///< cells in no group
  std::vector<Coord> rw, rh;              ///< reduced footprints
  std::vector<std::size_t> alphaOrder, betaOrder;
  SequencePair reduced;                   ///< reduced sequence-pair buffer
  SeqPairPackScratch pack;
  Placement packed;                       ///< reduced packing result
  std::vector<std::uint32_t> groupOf;     ///< group per module (~0u = free)
  std::vector<std::size_t> freeIndexOf;   ///< reduced index per free module
  std::vector<std::uint8_t> groupSeen;    ///< per-group flag (order builds)
  std::vector<std::size_t> tmpSig;        ///< candidate island signature
  // Warm-reuse gate: caches are trusted only while the instance shape (n,
  // group count, free-cell list) matches the previous call on this scratch.
  std::vector<std::size_t> prevFreeCells;
  std::size_t prevN = static_cast<std::size_t>(-1);
  std::size_t prevGroups = 0;
};

/// Options of the scratch-reuse construction path.  Island layouts are
/// always cached on the scratch by signature (a group whose cells, their
/// relative order in both sequences and their footprints are unchanged
/// skips relaxation); results are bit-identical to a cold build.
struct SymBuildOptions {
  int maxIterations = 200;  ///< island relaxation fixpoint cap
  /// Run the O(n^2) legality + mirror verification and fail on violation.
  /// Hot decode loops turn this off; debug builds assert it regardless.
  bool verify = true;
};

/// Builds a placement in which every group is exactly mirrored about its own
/// vertical axis and forms a contiguous island.  Returns nullopt only if a
/// group's mirror partners are not horizontally related (i.e. the code is
/// not S-F).
std::optional<SymPlacementResult> buildSymmetricPlacement(
    const SequencePair& sp, std::span<const Coord> widths,
    std::span<const Coord> heights, std::span<const SymmetryGroup> groups,
    int maxIterations = 200);

/// Scratch-reuse variant: identical results; returns false exactly when the
/// by-value overload returns nullopt.  `out` is fully overwritten on
/// success (unspecified on failure).
bool buildSymmetricPlacementInto(const SequencePair& sp,
                                 std::span<const Coord> widths,
                                 std::span<const Coord> heights,
                                 std::span<const SymmetryGroup> groups,
                                 const SymBuildOptions& options,
                                 SymPlaceScratch& scratch,
                                 SymPlacementResult& out);

/// Legacy convenience overload: default options with `maxIterations`.
bool buildSymmetricPlacementInto(const SequencePair& sp,
                                 std::span<const Coord> widths,
                                 std::span<const Coord> heights,
                                 std::span<const SymmetryGroup> groups,
                                 int maxIterations, SymPlaceScratch& scratch,
                                 SymPlacementResult& out);

/// Verifies mirror exactness of a result (used by tests and asserts):
/// pairs mirrored about their group axis with equal y, selfs centered.
bool verifySymmetry(const Placement& p, std::span<const SymmetryGroup> groups,
                    std::span<const Coord> axis2x);

}  // namespace als
