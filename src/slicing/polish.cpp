#include "slicing/polish.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "util/epoch_marks.h"

namespace als {

PolishExpr PolishExpr::initial(std::size_t moduleCount) {
  PolishExpr e;
  e.moduleCount_ = moduleCount;
  if (moduleCount == 0) return e;
  e.elems_.push_back(0);
  for (std::size_t m = 1; m < moduleCount; ++m) {
    e.elems_.push_back(static_cast<std::int32_t>(m));
    // Alternate the cut direction so the initial floorplan is a grid-ish
    // slicing rather than one long row.
    e.elems_.push_back(m % 2 == 1 ? kOpV : kOpH);
  }
  assert(e.isValid());
  return e;
}

bool PolishExpr::isValid() const {
  if (moduleCount_ == 0) return elems_.empty();
  // Uniqueness marking via epoch stamps: isValid runs inside the M3 move
  // (once per attempted swap, i.e. per SA move), so it must not allocate.
  // thread_local keeps concurrent SA runs race-free.
  static thread_local EpochMarks seen;
  seen.beginRound(moduleCount_);
  std::size_t operands = 0, operators = 0;
  std::int32_t prev = 0;  // operands are >= 0, so 0 is a safe non-operator init
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    std::int32_t e = elems_[i];
    if (e >= 0) {
      if (static_cast<std::size_t>(e) >= moduleCount_ ||
          !seen.mark(static_cast<std::size_t>(e))) {
        return false;
      }
      ++operands;
    } else {
      if (e != kOpV && e != kOpH) return false;
      if (i > 0 && prev == e) return false;  // normalization
      ++operators;
      if (operators >= operands) return false;  // balloting
    }
    prev = e;
  }
  return operands == moduleCount_ && operators + 1 == operands;
}

bool PolishExpr::swapAdjacentOperands(Rng& rng) {
  // A valid expression holds exactly moduleCount_ operands, so the
  // historical operand-position vector is not needed to size the draws:
  // draw first (same bounds, same RNG stream), then find the chosen
  // operands by scanning — no allocation per move.
  const std::size_t operandCount = moduleCount_;
  if (operandCount < 2) return false;
  auto operandAt = [&](std::size_t k) {
    for (std::size_t i = 0;; ++i) {
      if (elems_[i] >= 0 && k-- == 0) return i;
    }
  };
  if (rng.coin()) {
    // Classic M1: adjacent operands.
    std::size_t k = rng.index(operandCount - 1);
    std::size_t i = operandAt(k);
    std::size_t j = i + 1;
    while (elems_[j] < 0) ++j;  // next operand position
    std::swap(elems_[i], elems_[j]);
  } else {
    // Long-range operand exchange — still a valid slicing tree (only leaf
    // labels move), and a much stronger mixer than adjacent swaps alone.
    std::size_t a = rng.index(operandCount);
    std::size_t b = rng.index(operandCount);
    std::size_t i = operandAt(a);
    std::size_t j = operandAt(b);
    std::swap(elems_[i], elems_[j]);
  }
  return true;
}

bool PolishExpr::complementChain(Rng& rng) {
  // Count the maximal operator runs, draw one, then find it again: the
  // draw count and bounds match the historical chain-vector selection.
  std::size_t chainCount = 0;
  for (std::size_t i = 0; i < elems_.size();) {
    if (elems_[i] < 0) {
      ++chainCount;
      while (i < elems_.size() && elems_[i] < 0) ++i;
    } else {
      ++i;
    }
  }
  if (chainCount == 0) return false;
  std::size_t pick = rng.index(chainCount);
  std::size_t lo = 0, hi = 0;
  for (std::size_t i = 0; i < elems_.size();) {
    if (elems_[i] < 0) {
      std::size_t j = i;
      while (j < elems_.size() && elems_[j] < 0) ++j;
      if (pick-- == 0) {
        lo = i;
        hi = j;
        break;
      }
      i = j;
    } else {
      ++i;
    }
  }
  for (std::size_t k = lo; k < hi; ++k) {
    elems_[k] = elems_[k] == kOpV ? kOpH : kOpV;
  }
  return true;
}

bool PolishExpr::swapOperandOperator(Rng& rng) {
  // Try a few random adjacent operand/operator swaps; validate wholesale
  // (balloting + normalization are cheap to re-check).
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (elems_.size() < 2) return false;
    std::size_t i = rng.index(elems_.size() - 1);
    bool mixedPair = (elems_[i] >= 0) != (elems_[i + 1] >= 0);
    if (!mixedPair) continue;
    std::swap(elems_[i], elems_[i + 1]);
    if (isValid()) return true;
    std::swap(elems_[i], elems_[i + 1]);  // revert
  }
  return false;
}

bool PolishExpr::perturb(Rng& rng) {
  double r = rng.uniform();
  bool done = false;
  if (r < 0.4) {
    done = swapAdjacentOperands(rng);
  } else if (r < 0.7) {
    done = complementChain(rng);
  } else {
    done = swapOperandOperator(rng);
  }
  assert(isValid());
  return done;
}

std::string PolishExpr::toString() const {
  std::string s;
  for (std::int32_t e : elems_) {
    if (!s.empty()) s += ' ';
    if (e >= 0) {
      s += std::to_string(e);
    } else {
      s += e == kOpV ? 'V' : 'H';
    }
  }
  return s;
}

namespace {

using detail::PolishEvalNode;
using detail::PolishShape;

/// Insert keeping a pareto staircase sorted by w (h strictly decreasing).
void paretoInsert(std::vector<PolishShape>& v, PolishShape s) {
  auto it = std::lower_bound(v.begin(), v.end(), s.w,
                             [](const PolishShape& e, Coord w) { return e.w < w; });
  if (it != v.begin() && std::prev(it)->h <= s.h) return;
  if (it != v.end() && it->w == s.w) {
    if (it->h <= s.h) return;
    *it = s;
  } else {
    it = v.insert(it, s);
  }
  auto next = std::next(it);
  while (next != v.end() && next->h >= it->h) next = v.erase(next);
}

/// V node: widths add, height is the taller child's.  Walks both strict
/// staircases from the narrow end; the taller child bounds the height, so
/// only advancing it can lower the next shape (both on a tie).  Emits
/// exactly the pareto set of the cross product, each point with its unique
/// minimal child pair.
void mergeV(std::span<const PolishShape> ls, std::span<const PolishShape> rs,
            std::vector<PolishShape>& out) {
  std::uint32_t i = 0, j = 0;
  for (;;) {
    out.push_back({ls[i].w + rs[j].w, std::max(ls[i].h, rs[j].h), i, j});
    const bool advL = ls[i].h >= rs[j].h;
    const bool advR = rs[j].h >= ls[i].h;
    if ((advL && i + 1 == ls.size()) || (advR && j + 1 == rs.size())) return;
    i += advL;
    j += advR;
  }
}

/// H node: heights add, width is the wider child's.  The mirror walk from
/// the wide end, reversed into w-ascending order.
void mergeH(std::span<const PolishShape> ls, std::span<const PolishShape> rs,
            std::vector<PolishShape>& out) {
  auto i = static_cast<std::uint32_t>(ls.size() - 1);
  auto j = static_cast<std::uint32_t>(rs.size() - 1);
  for (;;) {
    out.push_back({std::max(ls[i].w, rs[j].w), ls[i].h + rs[j].h, i, j});
    const bool advL = ls[i].w >= rs[j].w;
    const bool advR = rs[j].w >= ls[i].w;
    if ((advL && i == 0) || (advR && j == 0)) break;
    i -= advL;
    j -= advR;
  }
  std::reverse(out.begin(), out.end());
}

void capShapes(std::vector<PolishShape>& v, std::size_t cap,
               std::vector<PolishShape>& kept) {
  if (cap == 0 || v.size() <= cap) return;
  kept.clear();
  std::size_t bestIdx = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i].w * v[i].h < v[bestIdx].w * v[bestIdx].h) bestIdx = i;
  }
  for (std::size_t k = 0; k < cap; ++k) {
    // Evenly spaced from the narrow end to the wide end; cap 1 keeps only
    // the min-area shape (swapped in below).
    kept.push_back(v[cap == 1 ? 0 : k * (v.size() - 1) / (cap - 1)]);
  }
  bool hasBest = false;
  for (const PolishShape& s : kept) {
    hasBest = hasBest || (s.w == v[bestIdx].w && s.h == v[bestIdx].h);
  }
  if (!hasBest) kept[cap / 2] = v[bestIdx];
  std::sort(kept.begin(), kept.end(),
            [](const PolishShape& a, const PolishShape& b) { return a.w < b.w; });
  v.clear();
  for (const PolishShape& s : kept) paretoInsert(v, s);
}

void reconstruct(const std::vector<PolishEvalNode>& nodes, std::size_t nodeIdx,
                 std::uint32_t shapeIdx, Coord x, Coord y, Placement& out) {
  const PolishEvalNode& node = nodes[nodeIdx];
  const PolishShape& s = node.shapes[shapeIdx];
  if (node.elem >= 0) {
    out[static_cast<std::size_t>(node.elem)] = {x, y, s.w, s.h};
    return;
  }
  const PolishShape& ls = nodes[node.left].shapes[s.li];
  reconstruct(nodes, node.left, s.li, x, y, out);
  if (node.elem == PolishExpr::kOpV) {
    reconstruct(nodes, node.right, s.ri, x + ls.w, y, out);
  } else {
    reconstruct(nodes, node.right, s.ri, x, y + ls.h, out);
  }
}

}  // namespace

SlicedResult evaluatePolish(const PolishExpr& expr, std::span<const Coord> widths,
                            std::span<const Coord> heights,
                            const std::vector<bool>& rotatable,
                            std::size_t shapeCap) {
  PolishEvalScratch scratch;
  SlicedResult result;
  evaluatePolishInto(expr, widths, heights, rotatable, shapeCap, scratch, result);
  return result;
}

void evaluatePolishInto(const PolishExpr& expr, std::span<const Coord> widths,
                        std::span<const Coord> heights,
                        const std::vector<bool>& rotatable,
                        std::size_t shapeCap, PolishEvalScratch& scratch,
                        SlicedResult& out) {
  out.placement.clear();
  out.width = 0;
  out.height = 0;
  if (expr.moduleCount() == 0) return;
  assert(expr.isValid());

  const std::vector<std::int32_t>& elems = expr.elements();
  // Node slots are reused index-for-index: growing never shrinks, so each
  // slot's shapes vector keeps the capacity it reached — the steady state
  // of an anneal (constant expression length) allocates nothing.
  //
  // Only the slots of the previous call hold memoised curves, and only as a
  // whole: a slot past this expression's end is forgotten, because a later,
  // longer expression could match it while matching this call's rebuilt
  // slots below it, which its curve was not built from.  A cap change
  // forgets every slot.
  std::size_t keep = std::min(scratch.memoSlots, elems.size());
  if (scratch.shapeCap != shapeCap) {
    keep = 0;
    scratch.shapeCap = shapeCap;
  }
  for (std::size_t k = keep; k < scratch.memoSlots; ++k) {
    scratch.nodes[k].elem = PolishEvalNode::kNoElem;
  }
  scratch.memoSlots = elems.size();
  if (scratch.nodes.size() < elems.size()) scratch.nodes.resize(elems.size());
  std::vector<std::size_t>& stack = scratch.stack;
  stack.clear();

  for (std::size_t idx = 0; idx < elems.size(); ++idx) {
    std::int32_t e = elems[idx];
    PolishEvalNode& node = scratch.nodes[idx];
    if (e >= 0) {
      auto m = static_cast<std::size_t>(e);
      const bool rot = rotatable[m];
      node.rebuilt = node.elem != e || node.leafW != widths[m] ||
                     node.leafH != heights[m] || node.leafRot != rot;
      if (node.rebuilt) {
        node.elem = e;
        node.left = node.right = static_cast<std::size_t>(-1);
        node.leafW = widths[m];
        node.leafH = heights[m];
        node.leafRot = rot;
        node.shapes.clear();
        node.shapes.push_back({widths[m], heights[m], 0, 0});
        if (rot && widths[m] != heights[m]) {
          paretoInsert(node.shapes, {heights[m], widths[m], 1, 0});
        }
      }
    } else {
      const std::size_t right = stack.back();
      stack.pop_back();
      const std::size_t left = stack.back();
      stack.pop_back();
      const PolishEvalNode& l = scratch.nodes[left];
      const PolishEvalNode& r = scratch.nodes[right];
      node.rebuilt = node.elem != e || node.left != left ||
                     node.right != right || l.rebuilt || r.rebuilt;
      if (node.rebuilt) {
        node.elem = e;
        node.left = left;
        node.right = right;
        node.shapes.clear();
        if (e == PolishExpr::kOpV) {
          mergeV(l.shapes, r.shapes, node.shapes);
        } else {
          mergeH(l.shapes, r.shapes, node.shapes);
        }
        capShapes(node.shapes, shapeCap, scratch.capKept);
      }
    }
    stack.push_back(idx);
  }
  assert(stack.size() == 1);

  const std::size_t root = stack.back();
  const auto& rootShapes = scratch.nodes[root].shapes;
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < rootShapes.size(); ++i) {
    if (rootShapes[i].w * rootShapes[i].h < rootShapes[best].w * rootShapes[best].h) {
      best = i;
    }
  }
  out.placement.assign(expr.moduleCount());
  reconstruct(scratch.nodes, root, best, 0, 0, out.placement);
  out.width = rootShapes[best].w;
  out.height = rootShapes[best].h;
}

}  // namespace als
