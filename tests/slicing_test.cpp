#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netlist/generators.h"
#include "slicing/polish.h"
#include "slicing/slicing_placer.h"
#include "test_util.h"

namespace als {
namespace {

TEST(PolishExpr, InitialIsValid) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 20u}) {
    PolishExpr e = PolishExpr::initial(n);
    EXPECT_TRUE(e.isValid()) << "n=" << n;
    EXPECT_EQ(e.elements().size(), 2 * n - 1);
  }
}

TEST(PolishExpr, ValidityRejectsBadExpressions) {
  PolishExpr good = PolishExpr::initial(3);
  EXPECT_TRUE(good.isValid());
  EXPECT_EQ(PolishExpr::fromElements(good.elements(), 3), good);
  PolishExpr empty;
  EXPECT_TRUE(empty.isValid());
  constexpr std::int32_t V = PolishExpr::kOpV, H = PolishExpr::kOpH;
  using Elems = std::vector<std::int32_t>;
  EXPECT_FALSE(PolishExpr::fromElements(Elems{0, V, 1}, 2).isValid());     // ballot
  EXPECT_FALSE(PolishExpr::fromElements(Elems{0, 1, 2, V, V}, 3).isValid());  // normal
  EXPECT_FALSE(PolishExpr::fromElements(Elems{0, 0, V}, 2).isValid());     // reuse
  EXPECT_FALSE(PolishExpr::fromElements(Elems{0, 2, V}, 2).isValid());     // range
  EXPECT_FALSE(PolishExpr::fromElements(Elems{0, 1}, 2).isValid());        // count
  EXPECT_TRUE(PolishExpr::fromElements(Elems{0, 1, 2, V, H}, 3).isValid());
}

TEST(PolishExpr, PerturbationsStayValid) {
  Rng rng(5);
  PolishExpr e = PolishExpr::initial(12);
  for (int step = 0; step < 5000; ++step) {
    e.perturb(rng);
    ASSERT_TRUE(e.isValid()) << "step " << step << ": " << e.toString();
  }
}

// The M3 move tests a swap from the operator count before it and the
// operator's new neighbour, not by re-validating the whole expression.
TEST(PolishExpr, LocalM3CheckMatchesIsValid) {
  Rng rng(41);
  std::size_t checked = 0, valid = 0;
  for (std::size_t n = 2; n <= 64; ++n) {
    PolishExpr e = PolishExpr::initial(n);
    for (int round = 0; round < 12; ++round) {
      for (std::size_t k = rng.index(4 * n); k > 0; --k) e.perturb(rng);
      const std::vector<std::int32_t>& elems = e.elements();
      for (std::size_t i = 0; i + 1 < elems.size(); ++i) {
        if ((elems[i] >= 0) == (elems[i + 1] >= 0)) continue;
        std::vector<std::int32_t> swapped = elems;
        std::swap(swapped[i], swapped[i + 1]);
        const bool want = PolishExpr::fromElements(swapped, n).isValid();
        ASSERT_EQ(e.operandOperatorSwapIsValid(i), want)
            << "n=" << n << " i=" << i << ": " << e.toString();
        ++checked;
        valid += want;
      }
    }
  }
  // Both answers occur often.
  EXPECT_GT(valid, checked / 10);
  EXPECT_LT(valid, checked - checked / 10);
}

TEST(PolishExpr, ToStringRendering) {
  PolishExpr e = PolishExpr::initial(3);
  EXPECT_EQ(e.toString(), "0 1 V 2 H");
}

TEST(EvaluatePolish, TwoModuleCompositions) {
  std::vector<Coord> w{10, 6}, h{4, 8};
  std::vector<bool> rot{false, false};
  {
    PolishExpr e = PolishExpr::initial(2);  // "0 1 V": side by side
    SlicedResult r = evaluatePolish(e, w, h, rot);
    EXPECT_EQ(r.width, 16);
    EXPECT_EQ(r.height, 8);
    EXPECT_TRUE(r.placement.isLegal());
  }
}

TEST(EvaluatePolish, RotationImprovesArea) {
  // Two 10x2 strips: unrotated V-composition is 20x2 = 40; with rotation
  // the pareto also offers 4x10 = 40... stacking H gives 10x4.  All equal
  // area here, so use distinct dims: 10x2 and 2x10 side by side.
  std::vector<Coord> w{10, 2}, h{2, 10};
  std::vector<bool> noRot{false, false};
  std::vector<bool> rot{true, true};
  PolishExpr e = PolishExpr::initial(2);
  SlicedResult fixed = evaluatePolish(e, w, h, noRot);
  SlicedResult free = evaluatePolish(e, w, h, rot);
  EXPECT_LE(free.area(), fixed.area());
  EXPECT_EQ(free.area(), 2 * 10 * 2);  // both horizontal, stacked row
}

TEST(EvaluatePolish, PlacementLegalAndBoxed) {
  Circuit c = makeTableICircuit(TableICircuit::FoldedCascode);
  std::vector<Coord> w, h;
  std::vector<bool> rot;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
    rot.push_back(m.rotatable);
  }
  Rng rng(7);
  PolishExpr e = PolishExpr::initial(c.moduleCount());
  for (int step = 0; step < 200; ++step) {
    e.perturb(rng);
    SlicedResult r = evaluatePolish(e, w, h, rot);
    // Slicing ignores symmetry groups (ILAC baseline); the evaluator's own
    // width/height bound the outline for the shared checker.
    test_util::expectPlacementInvariants(
        r.placement, c,
        {.symTolerance = test_util::kNoSymmetryCheck,
         .outlineW = r.width,
         .outlineH = r.height},
        "step " + std::to_string(step));
    ASSERT_GE(r.area(), c.totalModuleArea());
  }
}

TEST(EvaluatePolish, ShapeCurveOptimalForThreeModules) {
  // 3 equal squares: best slicing area is 1x3 row = 3s^2... a 2x2 arrangement
  // with one empty slot gives 4s^2; the row (or column) is optimal -> the
  // evaluator must find exactly 3 s^2 * s.
  std::vector<Coord> w{4, 4, 4}, h{4, 4, 4};
  std::vector<bool> rot{false, false, false};
  PolishExpr e = PolishExpr::initial(3);
  // Try all expressions reachable by a few perturbations and track the best.
  Rng rng(9);
  Coord best = evaluatePolish(e, w, h, rot).area();
  for (int step = 0; step < 500; ++step) {
    e.perturb(rng);
    best = std::min(best, evaluatePolish(e, w, h, rot).area());
  }
  EXPECT_EQ(best, 48);  // 12 x 4 row
}

/// The root curve a scratch evaluation leaves behind (the root is the last
/// postfix slot).
std::vector<detail::PolishShape> rootCurve(const PolishExpr& e,
                                           const std::vector<Coord>& w,
                                           const std::vector<Coord>& h,
                                           const std::vector<bool>& rot) {
  PolishEvalScratch scratch;
  SlicedResult out;
  evaluatePolishInto(e, w, h, rot, 32, scratch, out);
  auto curve = scratch.curve(e.elements().size() - 1);
  return {curve.begin(), curve.end()};
}

void expectCurve(std::span<const detail::PolishShape> got,
                 const std::vector<detail::PolishShape>& want,
                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].w, want[k].w) << label << " shape " << k;
    EXPECT_EQ(got[k].h, want[k].h) << label << " shape " << k;
    EXPECT_EQ(got[k].li, want[k].li) << label << " shape " << k;
    EXPECT_EQ(got[k].ri, want[k].ri) << label << " shape " << k;
  }
}

// The linear merge on staircases whose steps tie: equal heights under a V
// cut (both children advance together) and equal widths under an H cut,
// including a tie where one child is already exhausted.  The curves carry
// the unique minimal child pair of each pareto point, as the cross product
// does.
TEST(EvaluatePolish, MergeHandlesEqualHeightAndWidthTies) {
  // Leaf curves: module 0 is [(2,10), (10,2)], module 1 [(3,10), (10,3)].
  const std::vector<Coord> w{2, 3}, h{10, 10};
  const std::vector<bool> rot{true, true};
  PolishExpr v = PolishExpr::initial(2);  // "0 1 V"
  ASSERT_EQ(v.toString(), "0 1 V");
  expectCurve(rootCurve(v, w, h, rot), {{5, 10, 0, 0}, {20, 3, 1, 1}},
              "V, equal heights");
  // Module 1 upright only: the height tie at (2,10)+(3,10) must advance
  // module 1, which is exhausted, so the walk stops after one shape.
  const std::vector<bool> rot0{true, false};
  expectCurve(rootCurve(v, w, h, rot0), {{5, 10, 0, 0}}, "V, exhausted tie");
  // Equal widths under H: the walk from the wide end pairs (10,2) with
  // (10,3), then (2,10) with (3,10).
  const std::vector<Coord> w3{2, 3, 4}, h3{10, 10, 4};
  const std::vector<bool> rot3{true, true, false};
  PolishExpr hx = PolishExpr::initial(3);  // "0 1 V 2 H"
  Rng rng(3);
  while (hx.toString() != "0 1 H 2 V") hx.perturb(rng);
  PolishEvalScratch scratch;
  SlicedResult out;
  evaluatePolishInto(hx, w3, h3, rot3, 32, scratch, out);
  expectCurve(scratch.curve(2), {{3, 20, 0, 0}, {10, 5, 1, 1}},
              "H, equal widths");
  SlicedResult ref = test_util::referenceEvaluatePolish(hx, w3, h3, rot3, 32);
  EXPECT_EQ(out.placement.rects(), ref.placement.rects());
  EXPECT_EQ(out.width, ref.width);
  EXPECT_EQ(out.height, ref.height);
}

// One warm scratch driven through a long Wong-Liu move stream must agree,
// after every step, with a fresh scratch and with the cross-product
// reference -- across leaf re-dimensioning (shape realizations), shape-cap
// changes, and a switch to a circuit of another size and back on the same
// scratch.  This is the contract that lets the subtree memo stay out of the
// annealer's commit/rollback logic.
TEST(EvaluatePolish, MemoisedMatchesFreshAndReference) {
  struct Instance {
    std::vector<Coord> w, h;
    std::vector<bool> rot;
    // Three realizations of roughly equal area per module.
    std::vector<std::array<std::pair<Coord, Coord>, 3>> shapes;
    PolishExpr expr;
  };
  Rng gen(17);
  auto makeInstance = [&](std::size_t n) {
    Instance in;
    for (std::size_t m = 0; m < n; ++m) {
      Coord a = 2 + static_cast<Coord>(gen.index(30));
      Coord b = 2 + static_cast<Coord>(gen.index(30));
      in.shapes.push_back({{{a, b}, {a + a / 2, b - b / 3}, {a - a / 3, b + b / 2}}});
      in.w.push_back(a);
      in.h.push_back(b);
      in.rot.push_back(m % 5 != 0);  // most, not all, modules rotatable
    }
    in.expr = PolishExpr::initial(n);
    return in;
  };
  Instance big = makeInstance(120);
  Instance small = makeInstance(61);

  PolishEvalScratch warm;
  SlicedResult got;
  Rng rng(29);
  std::size_t cappedDiffs = 0;
  // Evaluates `in` on the warm scratch and checks it against a fresh
  // scratch and the cross-product reference.
  auto check = [&](const Instance& in, std::size_t cap, const std::string& label) {
    evaluatePolishInto(in.expr, in.w, in.h, in.rot, cap, warm, got);
    PolishEvalScratch cold;
    SlicedResult fresh;
    evaluatePolishInto(in.expr, in.w, in.h, in.rot, cap, cold, fresh);
    SlicedResult ref =
        test_util::referenceEvaluatePolish(in.expr, in.w, in.h, in.rot, cap);
    ASSERT_EQ(got.placement.rects(), fresh.placement.rects()) << label;
    ASSERT_EQ(got.placement.rects(), ref.placement.rects()) << label;
    ASSERT_EQ(got.width, fresh.width) << label;
    ASSERT_EQ(got.height, fresh.height) << label;
    ASSERT_EQ(got.width, ref.width) << label;
    ASSERT_EQ(got.height, ref.height) << label;
    // The whole root curve, not only its min-area shape: a stale subtree
    // anywhere shows up here even when the chosen shape survives it.
    const std::size_t root = in.expr.elements().size() - 1;
    const auto warmCurve = warm.curve(root);
    const auto coldCurve = cold.curve(root);
    ASSERT_EQ(warmCurve.size(), coldCurve.size()) << label;
    for (std::size_t k = 0; k < warmCurve.size(); ++k) {
      ASSERT_EQ(warmCurve[k].w, coldCurve[k].w) << label << " shape " << k;
      ASSERT_EQ(warmCurve[k].h, coldCurve[k].h) << label << " shape " << k;
    }
    if (got.area() != evaluatePolish(in.expr, in.w, in.h, in.rot, 0).area()) {
      ++cappedDiffs;
    }
  };
  auto redimension = [&](Instance& in, std::size_t m) {
    auto [w, h] = in.shapes[m][rng.index(3)];
    in.w[m] = w;
    in.h[m] = h;
  };
  auto step = [&](Instance& in, std::size_t cap, const std::string& label) {
    if (rng.index(8) == 0) {
      redimension(in, rng.index(in.w.size()));
    } else {
      in.expr.perturb(rng);
    }
    check(in, cap, label);
  };
  // ~7/8 of the steps are Wong-Liu moves: over 2000 of them at n120.
  for (int i = 0; i < 2400; ++i) {
    step(big, i < 1200 ? 32 : 2, "n120 step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // Shorter circuit on the same scratch, under a third cap: the slots past
  // its end held n120 curves built under cap 2.
  for (int i = 0; i < 300; ++i) {
    step(small, 3, "n61 step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // Back to the n120 expression under cap 3: no curve built under cap 2
  // may survive.
  for (int i = 0; i < 300; ++i) {
    step(big, 3, "n120 again, step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // Same circuit, every module's rotatability flipped: the leaves differ
  // from their memoised curves in that flag alone.
  big.rot.flip();
  for (int i = 0; i < 50; ++i) {
    step(big, 3, "n120 flipped rotation, step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // The evaluator restarts its curve pass at the first changed slot, so
  // the next cases aim at its edges.  A change at slot 0 alone: the first
  // leaf re-dimensioned, or its rotatability flipped.
  const auto moduleAt = [](const Instance& in, std::size_t slot) {
    return static_cast<std::size_t>(in.expr.elements()[slot]);
  };
  for (int i = 0; i < 40; ++i) {
    const std::size_t m = moduleAt(big, 0);
    if (i % 2 == 0) {
      redimension(big, m);
    } else {
      big.rot[m] = !big.rot[m];
    }
    check(big, 3, "slot 0 leaf, step " + std::to_string(i));
    if (HasFatalFailure()) return;
    big.expr.perturb(rng);
    check(big, 3, "after slot 0, step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // A change at the root alone: its cut flipped, where the slot before it
  // is an operand (so the flip keeps the expression normalized).
  int rootFlips = 0;
  for (int i = 0; i < 400 && rootFlips < 40; ++i) {
    std::vector<std::int32_t> elems = big.expr.elements();
    if (elems[elems.size() - 2] >= 0) {
      std::int32_t& op = elems.back();
      op = op == PolishExpr::kOpV ? PolishExpr::kOpH : PolishExpr::kOpV;
      big.expr = PolishExpr::fromElements(std::move(elems), big.w.size());
      ASSERT_TRUE(big.expr.isValid());
      check(big, 3, "root flip " + std::to_string(rootFlips++));
      if (HasFatalFailure()) return;
    }
    big.expr.perturb(rng);
    check(big, 3, "before a root flip, step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(rootFlips, 40);
  // A move together with a leaf re-dimensioned, or flipped, in the prefix
  // the move left unchanged: the first changed slot is the leaf's.
  int prefixLeaves = 0;
  for (int i = 0; i < 400; ++i) {
    const std::vector<std::int32_t> before = big.expr.elements();
    big.expr.perturb(rng);
    const std::vector<std::int32_t>& after = big.expr.elements();
    const std::size_t first = static_cast<std::size_t>(
        std::mismatch(before.begin(), before.end(), after.begin()).first -
        before.begin());
    std::size_t slot = first == 0 ? 0 : rng.index(first);
    while (slot > 0 && after[slot] < 0) --slot;  // slot 0 is an operand
    if (slot < first) ++prefixLeaves;
    const std::size_t m = moduleAt(big, slot);
    if (i % 2 == 0) {
      redimension(big, m);
    } else {
      big.rot[m] = !big.rot[m];
    }
    check(big, i < 200 ? 3 : 32, "prefix leaf, step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(prefixLeaves, 300);
  // Two circuits with equal module counts and other footprints, on one
  // scratch in turn, over one expression stream and over two.
  Instance twin = makeInstance(120);
  for (int i = 0; i < 200; ++i) {
    if (i < 100) {
      big.expr.perturb(rng);
      twin.expr = big.expr;
    } else {
      step(big, 32, "twin, own stream, n120 step " + std::to_string(i));
      if (HasFatalFailure()) return;
      twin.expr.perturb(rng);
    }
    check(big, 32, "twin, n120 step " + std::to_string(i));
    if (HasFatalFailure()) return;
    check(twin, 32, "twin, other footprints, step " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // The same expression twice: the second call rebuilds and places
  // nothing, and returns the same result.
  for (int i = 0; i < 20; ++i) {
    step(big, 32, "repeat, step " + std::to_string(i));
    if (HasFatalFailure()) return;
    const SlicedResult first = got;
    warm.curvesRebuilt = 0;
    warm.slotsPlaced = 0;
    check(big, 32, "repeat, again " + std::to_string(i));
    if (HasFatalFailure()) return;
    EXPECT_EQ(warm.curvesRebuilt, 0u) << "repeat " << i;
    EXPECT_EQ(warm.slotsPlaced, 0u) << "repeat " << i;
    EXPECT_EQ(got.placement.rects(), first.placement.rects());
    // An empty expression in between empties the scratch's placement, not
    // its curves.
    if (i % 5 == 4) {
      evaluatePolishInto(PolishExpr{}, {}, {}, {}, 32, warm, got);
      ASSERT_TRUE(got.placement.empty());
      ASSERT_EQ(got.area(), 0);
      check(big, 32, "after an empty expression, " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
  // The caps are live inputs: on some steps a capped evaluation picks
  // another shape than the uncapped one.
  EXPECT_GT(cappedDiffs, 0u);
}

// A scratch that evaluated a long expression, then a shorter one, then a
// long one again: the long expression's tail slots must not keep curves
// built on the first call, whose children the shorter call has since
// rebuilt.  Here the second call's five leading slots match the third's
// while slot 5, the root, matches the first's.
TEST(EvaluatePolish, MemoForgetsSlotsPastAShorterExpression) {
  const std::vector<Coord> w{4, 6, 10}, h{8, 6, 2};
  const std::vector<bool> rot{true, false, true};
  PolishExpr first = PolishExpr::initial(3);  // "0 1 V 2 H"
  Rng rng(5);
  while (first.toString() != "0 1 H 2 H") first.perturb(rng);
  PolishExpr shorter = PolishExpr::initial(2);  // "0 1 V"
  PolishExpr last = PolishExpr::initial(3);     // "0 1 V 2 H"

  PolishEvalScratch warm;
  SlicedResult got;
  evaluatePolishInto(first, w, h, rot, 32, warm, got);
  evaluatePolishInto(shorter, std::span(w).first(2), std::span(h).first(2),
                     {rot[0], rot[1]}, 32, warm, got);
  evaluatePolishInto(last, w, h, rot, 32, warm, got);
  SlicedResult ref = test_util::referenceEvaluatePolish(last, w, h, rot, 32);
  EXPECT_EQ(got.placement.rects(), ref.placement.rects());
  EXPECT_EQ(got.width, ref.width);
  EXPECT_EQ(got.height, ref.height);
}

// Thinning a curve to the cap keeps evenly spaced shapes plus the min-area
// one, which may sort on either side of the middle pick it replaces: many
// small circuits of long thin rotatable blocks (long curves) under caps
// 2..12, each against the cross-product reference.
TEST(EvaluatePolish, CapThinningMatchesReference) {
  Rng rng(53);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 4 + rng.index(20);
    std::vector<Coord> w, h;
    for (std::size_t m = 0; m < n; ++m) {
      w.push_back(1 + static_cast<Coord>(rng.index(40)));
      h.push_back(1 + static_cast<Coord>(rng.index(6)));
    }
    const std::vector<bool> rot(n, true);
    PolishExpr e = PolishExpr::initial(n);
    for (std::size_t k = rng.index(60); k > 0; --k) e.perturb(rng);
    const std::size_t cap = 2 + rng.index(11);
    const SlicedResult got = evaluatePolish(e, w, h, rot, cap);
    const SlicedResult ref = test_util::referenceEvaluatePolish(e, w, h, rot, cap);
    ASSERT_EQ(got.placement.rects(), ref.placement.rects()) << "trial " << trial;
    ASSERT_EQ(got.width, ref.width) << "trial " << trial;
    ASSERT_EQ(got.height, ref.height) << "trial " << trial;
  }
}

// A cap of one keeps each subtree's min-area shape alone (it used to divide
// by zero while thinning the curve).
TEST(EvaluatePolish, ShapeCapOneKeepsMinAreaShape) {
  Circuit c = makeTableICircuit(TableICircuit::FoldedCascode);
  std::vector<Coord> w, h;
  std::vector<bool> rot;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
    rot.push_back(m.rotatable);
  }
  Rng rng(11);
  PolishExpr e = PolishExpr::initial(c.moduleCount());
  PolishEvalScratch scratch;
  SlicedResult r;
  for (int step = 0; step < 200; ++step) {
    e.perturb(rng);
    evaluatePolishInto(e, w, h, rot, 1, scratch, r);
    ASSERT_EQ(scratch.curve(e.elements().size() - 1).size(), 1u);
    SlicedResult ref = test_util::referenceEvaluatePolish(e, w, h, rot, 1);
    ASSERT_EQ(r.placement.rects(), ref.placement.rects()) << "step " << step;
    ASSERT_EQ(r.area(), ref.area()) << "step " << step;
    ASSERT_TRUE(r.placement.isLegal()) << "step " << step;
  }
  SlicingPlacerOptions opt;
  opt.maxSweeps = 20;
  opt.shapeCap = 1;
  SlicingPlacerResult placed = placeSlicingSA(c, opt);
  test_util::expectPlacementInvariants(
      placed.placement, c, {.symTolerance = test_util::kNoSymmetryCheck});
}

TEST(SlicingPlacer, AnnealsLegally) {
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  SlicingPlacerOptions opt;
  opt.maxSweeps = 250;
  SlicingPlacerResult r = placeSlicingSA(c, opt);
  test_util::expectPlacementInvariants(
      r.placement, c, {.symTolerance = test_util::kNoSymmetryCheck});
  EXPECT_GE(r.area, c.totalModuleArea());
  EXPECT_LT(r.area, 3 * c.totalModuleArea());
}

TEST(SlicingPlacer, DeterministicForSeed) {
  Circuit c = makeFig1Example();
  SlicingPlacerOptions opt;
  opt.maxSweeps = 120;
  opt.seed = 21;
  SlicingPlacerResult a = placeSlicingSA(c, opt);
  SlicingPlacerResult b = placeSlicingSA(c, opt);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.movesTried, b.movesTried);
}

}  // namespace
}  // namespace als
