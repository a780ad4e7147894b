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
//   * stack evaluation with pareto shape sets per subtree (module rotation
//     included) and placement reconstruction by backtracking.
//
// Evaluation cost per move.  A V (H) node's staircase is the linear merge of
// its children's (Stockmeyer): a two-pointer walk from the narrow (wide) end
// that advances the child bounding the height (width), or both on a tie.
// Strict child staircases give every pareto point exactly one minimal child
// pair, so the merge emits the same shapes, child indices included, as the
// full cross product.  Curves are memoised per postfix slot across calls: a
// slot is rebuilt only when its element, its child slots, a child's curve,
// its leaf footprint (w, h, rotatable) or the shape cap changed, or when it
// lay past the end of the previous call's expression.  A move thus rebuilds
// only the slots on the paths from what it changed to the root; placement
// reconstruction stays a full O(n) walk.
#pragma once

#include <cstdint>
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

  const std::vector<std::int32_t>& elements() const { return elems_; }
  std::size_t moduleCount() const { return moduleCount_; }

  /// Balloting property, single use of each module, normalization.
  bool isValid() const;

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

/// One postfix element's evaluation node: the slot's shape curve plus the
/// inputs it was built from, kept from one call to the next.  A curve is a
/// pure function of those inputs, so a slot whose inputs are unchanged keeps
/// its curve; the shapes vector is reused otherwise, which is what makes the
/// evaluator allocation-free when warm.
struct PolishEvalNode {
  static constexpr std::int32_t kNoElem = INT32_MIN;  ///< never built

  std::int32_t elem = kNoElem;
  std::size_t left = static_cast<std::size_t>(-1);
  std::size_t right = static_cast<std::size_t>(-1);
  Coord leafW = 0, leafH = 0;  ///< leaf: the footprint the curve was built on
  bool leafRot = false;        ///< leaf: the rotatable flag it was built on
  bool rebuilt = false;        ///< recomputed by the current call (transient)
  std::vector<PolishShape> shapes;
};

}  // namespace detail

/// Reusable buffers of one Polish-expression evaluation loop (the slicing
/// placer's per-move decode), including the memoised subtree curves of the
/// previous call.  The memo is keyed on every input of a curve, so a scratch
/// may be reused freely across expressions, module dimensions, shape caps
/// and circuits (results never depend on its history); it is not shareable
/// between concurrent evaluators.
struct PolishEvalScratch {
  std::vector<detail::PolishEvalNode> nodes;
  std::vector<std::size_t> stack;
  std::vector<detail::PolishShape> capKept;  ///< capShapes working set
  std::size_t shapeCap = 0;   ///< the cap every memoised curve was built under
  std::size_t memoSlots = 0;  ///< leading slots holding memoised curves
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

/// Scratch-reuse variant: identical results to a fresh scratch whatever the
/// scratch evaluated before, zero heap allocations once the buffers are
/// warm.  `out` is fully overwritten.
void evaluatePolishInto(const PolishExpr& expr, std::span<const Coord> widths,
                        std::span<const Coord> heights,
                        const std::vector<bool>& rotatable,
                        std::size_t shapeCap, PolishEvalScratch& scratch,
                        SlicedResult& out);

}  // namespace als
