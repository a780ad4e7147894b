// Shared placement-invariant checker for the test suites.
//
// Every placer in the library must produce placements that (a) cover every
// module exactly once with its own (possibly 90-degree-rotated) footprint,
// (b) have no overlapping modules, (c) sit inside the non-negative quadrant
// (all packers compact toward the origin) and, when an outline is given,
// inside it, and (d) mirror each symmetry group about a common vertical
// axis within a caller-chosen tolerance (0 = exact, the contract of the
// structural placers; the penalty-based flat B*-tree baseline is checked
// with a finite tolerance or skipped via kNoSymmetryCheck).
//
// It also holds two decode oracles written straight from their definitions:
// the O(n^2) sequence-pair packing reference the library's Fenwick LCS
// packer is checked against, and the cross-product Polish-expression
// evaluator the slicing decode's linear merge and subtree memo are checked
// against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "engine/knobs.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "seqpair/sequence_pair.h"
#include "slicing/polish.h"

namespace als {
namespace test_util {

/// Pass as `symTolerance` to skip the symmetry check entirely (for the
/// penalty-based placers whose residual deviation is unbounded).
inline constexpr Coord kNoSymmetryCheck = -1;

struct InvariantOptions {
  /// Mirror tolerance in DBU (0 = exact); kNoSymmetryCheck skips it.
  Coord symTolerance = 0;
  /// Optional outline; 0 = only the non-negative quadrant is enforced.
  Coord outlineW = 0;
  Coord outlineH = 0;
};

/// Largest deviation (doubled DBU) of `group` from perfect mirror symmetry
/// about the axis implied by its first pair / self-symmetric member.
/// Footprint mismatches between partners count as infinite deviation.
inline Coord symmetryDeviation2x(const Placement& p, const SymmetryGroup& g) {
  constexpr Coord kInf = std::numeric_limits<Coord>::max();
  Coord axis2x = 0;  // doubled axis: exact for half-DBU axes
  if (!g.pairs.empty()) {
    axis2x = p[g.pairs[0].a].xlo() + p[g.pairs[0].b].xhi();
  } else if (!g.selfs.empty()) {
    axis2x = 2 * p[g.selfs[0]].xlo() + p[g.selfs[0]].w;
  } else {
    return 0;
  }
  Coord worst = 0;
  for (const SymPair& pair : g.pairs) {
    const Rect& a = p[pair.a];
    const Rect& b = p[pair.b];
    if (a.w != b.w || a.h != b.h) return kInf;
    worst = std::max(worst, std::abs(a.xlo() + b.xhi() - axis2x));
    worst = std::max(worst, std::abs(b.xlo() + a.xhi() - axis2x));
    worst = std::max(worst, 2 * std::abs(a.ylo() - b.ylo()));
  }
  for (ModuleId s : g.selfs) {
    worst = std::max(worst, std::abs(2 * p[s].xlo() + p[s].w - axis2x));
  }
  return worst;
}

/// Asserts the shared placement invariants; `label` prefixes every failure
/// message so parameterized loops stay attributable.
inline void expectPlacementInvariants(const Placement& p, const Circuit& c,
                                      const InvariantOptions& options = {},
                                      const std::string& label = "") {
  ASSERT_EQ(p.size(), c.moduleCount()) << label;

  // Every module keeps its own footprint (rotated only when allowed).
  for (std::size_t m = 0; m < p.size(); ++m) {
    const Module& mod = c.module(m);
    bool upright = p[m].w == mod.w && p[m].h == mod.h;
    bool rotated = p[m].w == mod.h && p[m].h == mod.w;
    EXPECT_TRUE(upright || (rotated && (mod.rotatable || mod.w == mod.h)))
        << label << " module " << mod.name << " placed as " << p[m].w << "x"
        << p[m].h << ", footprint " << mod.w << "x" << mod.h
        << (mod.rotatable ? "" : " (norotate)");
  }

  // No overlaps.
  auto [a, b] = p.firstOverlap();
  EXPECT_EQ(a, Placement::npos)
      << label << " modules " << (a == Placement::npos ? "" : c.module(a).name)
      << " and " << (b == Placement::npos ? "" : c.module(b).name) << " overlap";

  // Inside the outline (or at least the non-negative quadrant).
  for (std::size_t m = 0; m < p.size(); ++m) {
    EXPECT_GE(p[m].xlo(), 0) << label << " module " << c.module(m).name;
    EXPECT_GE(p[m].ylo(), 0) << label << " module " << c.module(m).name;
    if (options.outlineW > 0) {
      EXPECT_LE(p[m].xhi(), options.outlineW)
          << label << " module " << c.module(m).name;
    }
    if (options.outlineH > 0) {
      EXPECT_LE(p[m].yhi(), options.outlineH)
          << label << " module " << c.module(m).name;
    }
  }

  // Symmetry groups mirrored about a common vertical axis.
  if (options.symTolerance != kNoSymmetryCheck) {
    for (const SymmetryGroup& g : c.symmetryGroups()) {
      EXPECT_LE(symmetryDeviation2x(p, g), 2 * options.symTolerance)
          << label << " group " << g.name << " breaks mirror symmetry";
    }
  }
}

/// O(n^2) sequence-pair packing, straight from the definition: a module's x
/// is the largest right edge among modules before it in both sequences, its
/// y the largest top edge among modules after it in alpha and before it in
/// beta.
inline Placement referencePackSequencePair(const SequencePair& sp,
                                           std::span<const Coord> widths,
                                           std::span<const Coord> heights) {
  const std::size_t n = sp.size();
  std::vector<Coord> x(n, 0), y(n, 0);
  const std::vector<std::size_t>& alpha = sp.alpha();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t m = alpha[i];
    for (std::size_t j = 0; j < i; ++j) {
      const std::size_t k = alpha[j];
      if (sp.betaPos(k) < sp.betaPos(m)) x[m] = std::max(x[m], x[k] + widths[k]);
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t m = alpha[i];
    for (std::size_t j = n; --j > i;) {
      const std::size_t k = alpha[j];
      if (sp.betaPos(k) < sp.betaPos(m)) y[m] = std::max(y[m], y[k] + heights[k]);
    }
  }
  Placement out(n);
  for (std::size_t m = 0; m < n; ++m) out[m] = {x[m], y[m], widths[m], heights[m]};
  return out;
}

/// Polish-expression evaluation by full cross product, with no scratch and
/// no memo: every operator node tries all |L| x |R| child shape pairs in
/// (left, right) index order and keeps a pareto staircase, of which the
/// first-inserted pair wins exact ties; curves longer than `shapeCap` are
/// thinned to `shapeCap` evenly spaced shapes plus the min-area one (cap 1:
/// the min-area one alone).
inline SlicedResult referenceEvaluatePolish(const PolishExpr& expr,
                                            std::span<const Coord> widths,
                                            std::span<const Coord> heights,
                                            const std::vector<bool>& rotatable,
                                            std::size_t shapeCap) {
  using Shape = detail::PolishShape;
  auto insert = [](std::vector<Shape>& v, Shape s) {
    auto it = std::lower_bound(v.begin(), v.end(), s.w,
                               [](const Shape& e, Coord w) { return e.w < w; });
    if (it != v.begin() && std::prev(it)->h <= s.h) return;
    if (it != v.end() && it->w == s.w) {
      if (it->h <= s.h) return;
      *it = s;
    } else {
      it = v.insert(it, s);
    }
    auto next = std::next(it);
    while (next != v.end() && next->h >= it->h) next = v.erase(next);
  };
  auto area = [](const Shape& s) { return s.w * s.h; };
  auto cap = [&](std::vector<Shape>& v) {
    if (shapeCap == 0 || v.size() <= shapeCap) return;
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (area(v[i]) < area(v[best])) best = i;
    }
    std::vector<Shape> kept;
    for (std::size_t k = 0; k < shapeCap; ++k) {
      kept.push_back(v[shapeCap == 1 ? 0 : k * (v.size() - 1) / (shapeCap - 1)]);
    }
    bool hasBest = false;
    for (const Shape& s : kept) {
      hasBest = hasBest || (s.w == v[best].w && s.h == v[best].h);
    }
    if (!hasBest) kept[shapeCap / 2] = v[best];
    std::sort(kept.begin(), kept.end(),
              [](const Shape& a, const Shape& b) { return a.w < b.w; });
    v.clear();
    for (const Shape& s : kept) insert(v, s);
  };

  struct Node {
    std::int32_t elem;
    std::size_t left, right;
    std::vector<Shape> shapes;
  };
  const std::vector<std::int32_t>& elems = expr.elements();
  std::vector<Node> nodes;
  std::vector<std::size_t> stack;
  for (std::size_t idx = 0; idx < elems.size(); ++idx) {
    Node node{elems[idx], 0, 0, {}};
    if (node.elem >= 0) {
      auto m = static_cast<std::size_t>(node.elem);
      node.shapes.push_back({widths[m], heights[m], 0, 0});
      if (rotatable[m] && widths[m] != heights[m]) {
        insert(node.shapes, {heights[m], widths[m], 1, 0});
      }
    } else {
      node.right = stack.back();
      stack.pop_back();
      node.left = stack.back();
      stack.pop_back();
      const std::vector<Shape>& ls = nodes[node.left].shapes;
      const std::vector<Shape>& rs = nodes[node.right].shapes;
      for (std::uint32_t i = 0; i < ls.size(); ++i) {
        for (std::uint32_t j = 0; j < rs.size(); ++j) {
          if (node.elem == PolishExpr::kOpV) {
            insert(node.shapes,
                   {ls[i].w + rs[j].w, std::max(ls[i].h, rs[j].h), i, j});
          } else {
            insert(node.shapes,
                   {std::max(ls[i].w, rs[j].w), ls[i].h + rs[j].h, i, j});
          }
        }
      }
      cap(node.shapes);
    }
    nodes.push_back(std::move(node));
    stack.push_back(idx);
  }

  SlicedResult out;
  if (nodes.empty()) return out;
  const std::vector<Shape>& rootShapes = nodes.back().shapes;
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < rootShapes.size(); ++i) {
    if (area(rootShapes[i]) < area(rootShapes[best])) best = i;
  }
  out.placement.assign(expr.moduleCount());
  out.width = rootShapes[best].w;
  out.height = rootShapes[best].h;
  // Backtrack from the root: (node, shape, x, y) frames.
  struct Frame {
    std::size_t node;
    std::uint32_t shape;
    Coord x, y;
  };
  std::vector<Frame> todo{{nodes.size() - 1, best, 0, 0}};
  while (!todo.empty()) {
    Frame f = todo.back();
    todo.pop_back();
    const Node& node = nodes[f.node];
    const Shape& s = node.shapes[f.shape];
    if (node.elem >= 0) {
      out.placement[static_cast<std::size_t>(node.elem)] = {f.x, f.y, s.w, s.h};
      continue;
    }
    const Shape& ls = nodes[node.left].shapes[s.li];
    todo.push_back({node.left, s.li, f.x, f.y});
    if (node.elem == PolishExpr::kOpV) {
      todo.push_back({node.right, s.ri, f.x + ls.w, f.y});
    } else {
      todo.push_back({node.right, s.ri, f.x, f.y + ls.h});
    }
  }
  return out;
}

/// `options` with every knob `backend` refuses put back to its default:
/// what a loop over all backends hands each one, now that a single-backend
/// route throws on a refused knob (engine/knobs.h).
inline EngineOptions honouredBy(EngineBackend backend, EngineOptions options) {
  const EngineOptions defaults;
  forEachKnob([&](const Knob& knob, auto member) {
    if (knob.on(backend) == KnobStatus::Refused) {
      options.*member = defaults.*member;
    }
  });
  return options;
}

}  // namespace test_util
}  // namespace als
