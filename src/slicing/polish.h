// Slicing floorplans as normalized Polish expressions (Wong & Liu; the
// layout model of ILAC [24]).
//
// Section II recalls that ILAC adopted the slicing model and that "today it
// is widely acknowledged that this is not a good choice for high-performance
// analog design since the slicing representations limit the set of reachable
// layout topologies, degrading the layout density especially when cells are
// very different in size".  This module implements the classic machinery so
// the claim can be measured against the non-slicing engines (experiment
// E13 in DESIGN.md):
//
//   * postfix expressions over module operands and the cut operators
//     V (horizontal composition, widths add) and H (vertical composition,
//     heights add), kept *normalized* (no two consecutive equal operators);
//   * the three Wong-Liu neighbourhood moves: M1 swaps adjacent operands,
//     M2 complements a maximal operator chain, M3 swaps an adjacent
//     operand/operator pair subject to balloting and normalization;
//   * postfix evaluation with pareto shape sets per subtree (module rotation
//     included) and placement of the best-area root shape top down.
//
// Evaluation cost per move.  A V (H) node's staircase is the linear merge of
// its children's (Stockmeyer): a two-pointer walk from the narrow (wide) end
// that advances the child bounding the height (width), or both on a tie.
// Strict child staircases give every pareto point exactly one minimal child
// pair, so the merge emits the same shapes, child indices included, as the
// full cross product.  A scratch keeps the previous call's tree, per
// postfix slot: element, subtree span, curve, and the shape index and
// origin the placement gave it.  A call touches only what changed:
//
//   * the curve pass starts at `lo`, the first slot whose element, or whose
//     leaf's footprint (w, h, rotatable), differs from the previous call's.
//     The prefix before it is the previous call's, its subtree spans give
//     every child slot, and a slot past `lo` is rebuilt only when its
//     element, its left child slot or a child's curve changed;
//   * the placement pass runs top down from the root and descends into a
//     child only when the child's curve was rebuilt or the shape index or
//     origin its parent now gives it differs from the previous call's.  An
//     untouched subtree's rects are already right in the scratch-owned
//     placement.
//
// So a move rebuilds the curves on the paths from what it changed to the
// root and places the subtrees whose position or shape moved.  Annealing
// n300 in the gsrc-anneal job shape (24 sweeps of n moves, cooling 0.85,
// seed 1) on a 4-vCPU x86 host, a move rebuilds 68 of 599 curves and
// places 253 slots, and the evaluation takes about 6 us: 0.6 us to find
// the first changed slot, 3.3 us for the curves, 2.1 us to place (13.2 to
// 13.8 us when every slot was scanned and the whole tree placed).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/placement.h"
#include "util/rng.h"

namespace als {

class PolishExpr {
 public:
  static constexpr std::int32_t kOpV = -1;  ///< side-by-side (widths add)
  static constexpr std::int32_t kOpH = -2;  ///< stacked (heights add)

  PolishExpr() = default;

  /// Initial expression 0 1 V 2 V 3 V ... (a row of all modules).
  static PolishExpr initial(std::size_t moduleCount);

  /// The expression spelled by `elems` over `moduleCount` modules, as given
  /// (it may be invalid; check with isValid()).
  static PolishExpr fromElements(std::vector<std::int32_t> elems,
                                 std::size_t moduleCount);

  const std::vector<std::int32_t>& elements() const { return elems_; }
  std::size_t moduleCount() const { return moduleCount_; }

  /// Balloting property, single use of each module, normalization.
  bool isValid() const;

  /// For a valid expression and a mixed operand/operator pair at (i, i+1):
  /// whether swapping the pair keeps the expression valid (the M3 move's
  /// test).  Only the operator's new neighbour and, when the operator moves
  /// left, the operator count before i decide it.
  bool operandOperatorSwapIsValid(std::size_t i) const;

  /// Applies one random Wong-Liu move (M1 / M2 / M3); the expression stays
  /// valid.  Returns false if the sampled move had no legal target.
  bool perturb(Rng& rng);

  /// "21V3H..."-style rendering for debugging.
  std::string toString() const;

  friend bool operator==(const PolishExpr&, const PolishExpr&) = default;

 private:
  bool swapAdjacentOperands(Rng& rng);   // M1
  bool complementChain(Rng& rng);        // M2
  bool swapOperandOperator(Rng& rng);    // M3

  std::vector<std::int32_t> elems_;
  std::size_t moduleCount_ = 0;
};

struct SlicedResult {
  Placement placement;
  Coord width = 0;
  Coord height = 0;
  Coord area() const { return width * height; }
};

namespace detail {

/// One pareto shape of a slicing subtree; leaves encode rotation in `li`.
struct PolishShape {
  Coord w = 0, h = 0;
  std::uint32_t li = 0, ri = 0;  // child shape indices; leaf: li = rotated
};

}  // namespace detail

/// Reusable buffers of one Polish-expression evaluation loop (the slicing
/// placer's per-move decode): the previous call's tree, its curves and its
/// placement.  Every memoised value is keyed on the inputs it was built
/// from, so a scratch may be reused freely across expressions, module
/// dimensions, shape caps and circuits (results never depend on its
/// history); it is not shareable between concurrent evaluators.  Warm, an
/// evaluation allocates nothing.
struct PolishEvalScratch {
  // Per postfix slot, as the previous call left it.  A slot's left child is
  // `slot - 1 - span[slot - 1]`, its right child `slot - 1`.
  std::vector<std::int32_t> elem;
  std::vector<std::uint32_t> span;      ///< slots in the subtree rooted here
  std::vector<std::uint32_t> epoch;     ///< call that last rebuilt the curve
  std::vector<std::uint32_t> pick;      ///< shape index the placement chose
  std::vector<Coord> x, y;              ///< origin of that shape
  /// The slot's curve, in a buffer it owns.  The buffers are per slot, not
  /// one arena: an arena measured as fast, and the large blocks its growth
  /// frees raised the peak RSS of gsrc-anneal-shaped runs by 3-9%.
  std::vector<std::unique_ptr<detail::PolishShape[]>> curveData;
  std::vector<std::uint32_t> curveLen;
  std::vector<std::uint32_t> curveCap;  ///< buffer length, a power of two
  // Per module, the footprint its leaf curve was built on.
  std::vector<Coord> leafW, leafH;
  std::vector<bool> leafRot;
  std::vector<std::uint32_t> stack;  ///< placement worklist
  SlicedResult result;        ///< the previous call's result
  std::size_t shapeCap = 0;   ///< the cap every memoised curve was built under
  std::size_t memoSlots = 0;  ///< leading slots holding the previous tree
  std::uint32_t callEpoch = 0;
  /// Work counters, summed over calls (the caller may zero them): curves
  /// built, and slots the placement pass visited.  Integers and a pure
  /// function of the scratch's call sequence.
  std::uint64_t curvesRebuilt = 0;
  std::uint64_t slotsPlaced = 0;

  /// The curve the last call left at `slot` (w ascending, h descending).
  std::span<const detail::PolishShape> curve(std::size_t slot) const {
    return {curveData[slot].get(), curveLen[slot]};
  }
};

/// Evaluates the expression's pareto shapes and reconstructs the best-area
/// placement.  `rotatable[m]` enables 90-degree rotation of module m.
/// `shapeCap` bounds the per-subtree pareto size (0 = unbounded; 1 keeps
/// each subtree's min-area shape only).
/// (vector<bool> by reference: the bit-packed specialization cannot bind to
/// a std::span.)
SlicedResult evaluatePolish(const PolishExpr& expr, std::span<const Coord> widths,
                            std::span<const Coord> heights,
                            const std::vector<bool>& rotatable,
                            std::size_t shapeCap = 32);

/// Scratch-owned variant: returns `scratch.result`, updated in place.
/// Identical results to a fresh scratch whatever the scratch evaluated
/// before, zero heap allocations once the buffers are warm.  The reference
/// stays valid until the next call on the scratch.
const SlicedResult& evaluatePolish(const PolishExpr& expr,
                                   std::span<const Coord> widths,
                                   std::span<const Coord> heights,
                                   const std::vector<bool>& rotatable,
                                   std::size_t shapeCap,
                                   PolishEvalScratch& scratch);

/// The same, copied into `out` (fully overwritten).
void evaluatePolishInto(const PolishExpr& expr, std::span<const Coord> widths,
                        std::span<const Coord> heights,
                        const std::vector<bool>& rotatable,
                        std::size_t shapeCap, PolishEvalScratch& scratch,
                        SlicedResult& out);

}  // namespace als
