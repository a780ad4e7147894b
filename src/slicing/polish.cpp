#include "slicing/polish.h"

#include <algorithm>
#include <bit>
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

PolishExpr PolishExpr::fromElements(std::vector<std::int32_t> elems,
                                    std::size_t moduleCount) {
  PolishExpr e;
  e.elems_ = std::move(elems);
  e.moduleCount_ = moduleCount;
  return e;
}

bool PolishExpr::isValid() const {
  if (moduleCount_ == 0) return elems_.empty();
  // Uniqueness marking via epoch stamps: isValid runs in perturb's debug
  // assertion on every move, so it must not allocate.  thread_local keeps
  // concurrent SA runs race-free.
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

bool PolishExpr::operandOperatorSwapIsValid(std::size_t i) const {
  const std::int32_t* e = elems_.data();
  if (e[i] < 0) {
    // Operator moves right: the counts before every later operator are
    // unchanged or better, so only normalization against e[i + 2] can fail.
    return i + 2 >= elems_.size() || e[i + 2] != e[i];
  }
  // Operator moves left to i: normalization against e[i - 1], and the
  // balloting count at i, ops + 1 < i - ops operands before it.  Every
  // other prefix count is the unswapped one.
  if (i > 0 && e[i - 1] == e[i + 1]) return false;
  std::size_t ops = 0;
  for (std::size_t k = 0; k < i; ++k) ops += e[k] < 0;
  return 2 * ops + 1 < i;
}

bool PolishExpr::swapAdjacentOperands(Rng& rng) {
  // A valid expression holds exactly moduleCount_ operands, so the draws
  // need no operand-position vector: draw first (same bounds, same RNG
  // stream), then find the chosen operands in one scan.
  const std::size_t operandCount = moduleCount_;
  if (operandCount < 2) return false;
  std::size_t i = 0, j = 0;
  if (rng.coin()) {
    // Classic M1: the k-th operand and the next one.
    std::size_t k = rng.index(operandCount - 1);
    for (;; ++i) {
      if (elems_[i] >= 0 && k-- == 0) break;
    }
    j = i + 1;
    while (elems_[j] < 0) ++j;
  } else {
    // Long-range operand exchange -- still a valid slicing tree (only leaf
    // labels move), and a much stronger mixer than adjacent swaps alone.
    std::size_t a = rng.index(operandCount);
    std::size_t b = rng.index(operandCount);
    if (a > b) std::swap(a, b);
    std::size_t p = 0;
    for (std::size_t k = 0;; ++p) {
      if (elems_[p] < 0) continue;
      if (k == a) i = p;
      if (k++ == b) break;
    }
    j = p;
  }
  std::swap(elems_[i], elems_[j]);
  return true;
}

bool PolishExpr::complementChain(Rng& rng) {
  // Count the maximal operator runs (an operator after an operand starts
  // one; the first element is an operand), draw one, then walk to it: the
  // draw count and bounds match the historical chain-vector selection.
  const std::int32_t* e = elems_.data();
  const std::size_t len = elems_.size();
  std::size_t chainCount = 0;
  for (std::size_t i = 1; i < len; ++i) chainCount += (e[i] < 0) & (e[i - 1] >= 0);
  if (chainCount == 0) return false;
  std::size_t pick = rng.index(chainCount);
  std::size_t lo = 1;
  for (;; ++lo) {
    if (e[lo] < 0 && e[lo - 1] >= 0 && pick-- == 0) break;
  }
  for (std::size_t k = lo; k < len && elems_[k] < 0; ++k) {
    elems_[k] = elems_[k] == kOpV ? kOpH : kOpV;
  }
  return true;
}

bool PolishExpr::swapOperandOperator(Rng& rng) {
  // Try a few random adjacent operand/operator swaps, keeping the first
  // that leaves the expression valid.
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (elems_.size() < 2) return false;
    std::size_t i = rng.index(elems_.size() - 1);
    bool mixedPair = (elems_[i] >= 0) != (elems_[i + 1] >= 0);
    if (!mixedPair) continue;
    if (operandOperatorSwapIsValid(i)) {
      std::swap(elems_[i], elems_[i + 1]);
      return true;
    }
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

using detail::PolishShape;

/// V node: widths add, height is the taller child's.  Walks both strict
/// staircases from the narrow end; the taller child bounds the height, so
/// only advancing it can lower the next shape (both on a tie).  Emits
/// exactly the pareto set of the cross product, each point with its unique
/// minimal child pair, as a strict staircase: at most |ls| + |rs| - 1
/// shapes, written to `out`.  Returns the count.
std::uint32_t mergeV(const PolishShape* ls, std::uint32_t nl,
                     const PolishShape* rs, std::uint32_t nr, PolishShape* out) {
  std::uint32_t i = 0, j = 0, k = 0;
  for (;;) {
    out[k++] = {ls[i].w + rs[j].w, std::max(ls[i].h, rs[j].h), i, j};
    const bool advL = ls[i].h >= rs[j].h;
    const bool advR = rs[j].h >= ls[i].h;
    if ((advL && i + 1 == nl) || (advR && j + 1 == nr)) return k;
    i += advL;
    j += advR;
  }
}

/// H node: heights add, width is the wider child's.  The mirror walk from
/// the wide end, reversed into w-ascending order.
std::uint32_t mergeH(const PolishShape* ls, std::uint32_t nl,
                     const PolishShape* rs, std::uint32_t nr, PolishShape* out) {
  std::uint32_t i = nl - 1, j = nr - 1, k = 0;
  for (;;) {
    out[k++] = {std::max(ls[i].w, rs[j].w), ls[i].h + rs[j].h, i, j};
    const bool advL = ls[i].w >= rs[j].w;
    const bool advR = rs[j].w >= ls[i].w;
    if ((advL && i == 0) || (advR && j == 0)) break;
    i -= advL;
    j -= advR;
  }
  std::reverse(out, out + k);
  return k;
}

/// Thins a strict staircase of `len` shapes to `cap`, in place: evenly
/// spaced from the narrow end to the wide end, with the min-area shape
/// swapped into the middle when the spacing missed it (cap 1 keeps only the
/// min-area shape).  The kept shapes are distinct points of the staircase,
/// so kept in w order they are a strict staircase again.
void capShapes(PolishShape* v, std::uint32_t& len, std::size_t cap) {
  if (cap == 0 || len <= cap) return;
  std::size_t bestIdx = 0;
  for (std::size_t i = 1; i < len; ++i) {
    if (v[i].w * v[i].h < v[bestIdx].w * v[bestIdx].h) bestIdx = i;
  }
  const PolishShape best = v[bestIdx];
  bool hasBest = false;
  for (std::size_t k = 0; k < cap; ++k) {
    // The k-th pick lies at or past k, so compacting in order reads no
    // overwritten shape.
    const std::size_t idx = cap == 1 ? 0 : k * (len - 1) / (cap - 1);
    hasBest = hasBest || idx == bestIdx;
    v[k] = v[idx];
  }
  if (!hasBest) {
    // Replace the middle pick, then slide the min-area shape to its place
    // in w order.
    std::size_t at = cap / 2;
    while (at > 0 && v[at - 1].w > best.w) {
      v[at] = v[at - 1];
      --at;
    }
    while (at + 1 < cap && v[at + 1].w < best.w) {
      v[at] = v[at + 1];
      ++at;
    }
    v[at] = best;
  }
  len = static_cast<std::uint32_t>(cap);
}

/// The slot's curve buffer, replaced by one of the next power of two when
/// it holds fewer than `need` shapes (its contents are then unspecified).
PolishShape* curveBuffer(PolishEvalScratch& s, std::size_t slot,
                         std::uint32_t need) {
  if (s.curveCap[slot] < need) {
    s.curveCap[slot] = std::bit_ceil(need);
    s.curveData[slot] = std::make_unique<PolishShape[]>(s.curveCap[slot]);
  }
  return s.curveData[slot].get();
}

/// The first slot before `keep` whose element, or whose leaf's footprint
/// (w, h, rotatable), differs from the previous call's; `keep` if none.
/// Every slot before it is the previous call's, subtree and curve.
std::size_t firstChangedSlot(const PolishEvalScratch& s,
                             std::span<const std::int32_t> elems,
                             std::size_t keep, std::span<const Coord> widths,
                             std::span<const Coord> heights,
                             const std::vector<bool>& rotatable) {
  const std::int32_t* elem = s.elem.data();
  const Coord* leafW = s.leafW.data();
  const Coord* leafH = s.leafH.data();
  for (std::size_t i = 0; i < keep; ++i) {
    const std::int32_t e = elems[i];
    if (e != elem[i]) return i;
    if (e >= 0) {
      const auto m = static_cast<std::size_t>(e);
      if (widths[m] != leafW[m] || heights[m] != leafH[m] ||
          rotatable[m] != s.leafRot[m]) {
        return i;
      }
    }
  }
  return keep;
}

/// Curve pass over [lo, len).  Every slot before lo is the previous call's,
/// with its span and curve; a slot past it is rebuilt when its element or
/// its left child slot changed (the right child is always the slot before
/// it, and an unrebuilt right child keeps its span, hence the left slot),
/// when a child was rebuilt, or when its leaf's footprint changed.  Slots
/// at or past `keep` hold no previous tree and are always rebuilt.  A
/// rebuilt leaf records its footprint; the others already hold it.
void buildCurves(PolishEvalScratch& s, std::span<const std::int32_t> elems,
                 std::size_t lo, std::size_t keep, std::span<const Coord> widths,
                 std::span<const Coord> heights,
                 const std::vector<bool>& rotatable, std::size_t shapeCap) {
  const std::uint32_t now = s.callEpoch;
  std::int32_t* elem = s.elem.data();
  std::uint32_t* span = s.span.data();
  std::uint32_t* epoch = s.epoch.data();
  std::uint32_t* curveLen = s.curveLen.data();
  Coord* leafW = s.leafW.data();
  Coord* leafH = s.leafH.data();
  std::uint64_t rebuilt = 0;
  for (std::size_t i = lo; i < elems.size(); ++i) {
    const std::int32_t e = elems[i];
    bool rebuild = i >= keep || elem[i] != e;
    if (e >= 0) {
      const auto m = static_cast<std::size_t>(e);
      const Coord w = widths[m], h = heights[m];
      const bool rot = rotatable[m];
      rebuild = rebuild || w != leafW[m] || h != leafH[m] || rot != s.leafRot[m];
      span[i] = 1;
      if (rebuild) {
        leafW[m] = w;
        leafH[m] = h;
        s.leafRot[m] = rot;
        PolishShape* out = curveBuffer(s, i, 2);
        if (!rot || w == h) {
          out[0] = {w, h, 0, 0};
          curveLen[i] = 1;
        } else if (h < w) {
          out[0] = {h, w, 1, 0};
          out[1] = {w, h, 0, 0};
          curveLen[i] = 2;
        } else {
          out[0] = {w, h, 0, 0};
          out[1] = {h, w, 1, 0};
          curveLen[i] = 2;
        }
      }
    } else {
      const std::size_t r = i - 1;
      const std::size_t l = r - span[r];
      rebuild = rebuild || epoch[r] == now || epoch[l] == now;
      span[i] = 1 + span[r] + span[l];
      if (rebuild) {
        const std::uint32_t nl = curveLen[l], nr = curveLen[r];
        PolishShape* out = curveBuffer(s, i, nl + nr - 1);
        const PolishShape* ls = s.curveData[l].get();
        const PolishShape* rs = s.curveData[r].get();
        curveLen[i] = e == PolishExpr::kOpV ? mergeV(ls, nl, rs, nr, out)
                                            : mergeH(ls, nl, rs, nr, out);
        capShapes(out, curveLen[i], shapeCap);
      }
    }
    elem[i] = e;
    if (rebuild) {
      epoch[i] = now;
      ++rebuilt;
    }
  }
  s.curvesRebuilt += rebuilt;
}

/// Placement pass, top down from root shape `best`, with an explicit stack
/// (a tree can be as deep as it has leaves).  A child is entered only when
/// its curve was rebuilt or its parent now gives it another shape index or
/// origin; otherwise its whole subtree, and every rect in it, is as the
/// previous call left it.  `whole` enters every slot.
void placeTopDown(PolishEvalScratch& s, std::span<const std::int32_t> elems,
                  std::uint32_t best, bool whole) {
  const std::uint32_t now = s.callEpoch;
  const std::uint32_t* span = s.span.data();
  const std::uint32_t* epoch = s.epoch.data();
  const std::unique_ptr<PolishShape[]>* curves = s.curveData.data();
  std::uint32_t* pick = s.pick.data();
  Coord* px = s.x.data();
  Coord* py = s.y.data();
  Rect* rects = &s.result.placement[0];
  // Each entered slot is popped before its two children are pushed, so
  // the stack never holds more than one slot per leaf.
  if (s.stack.size() < elems.size()) s.stack.resize(elems.size());
  std::uint32_t* stack = s.stack.data();
  std::size_t top = 0;
  // One branch per child: the test is evaluated whole (bitwise), which
  // measured faster than a short-circuit chain at n = 9..300.
  auto enter = [&](std::size_t slot, std::uint32_t k, Coord x, Coord y) {
    const bool differs = whole | (epoch[slot] == now) | (pick[slot] != k) |
                         (px[slot] != x) | (py[slot] != y);
    if (differs) {
      pick[slot] = k;
      px[slot] = x;
      py[slot] = y;
      stack[top++] = static_cast<std::uint32_t>(slot);
    }
  };
  std::uint64_t placed = 0;
  enter(elems.size() - 1, best, 0, 0);
  while (top != 0) {
    const std::size_t i = stack[--top];
    ++placed;
    const PolishShape& sh = curves[i][pick[i]];
    const Coord x = px[i], y = py[i];
    const std::int32_t e = elems[i];
    if (e >= 0) {
      rects[e] = {x, y, sh.w, sh.h};
      continue;
    }
    const std::size_t r = i - 1;
    const std::size_t l = r - span[r];
    const PolishShape& ls = curves[l][sh.li];
    const bool v = e == PolishExpr::kOpV;
    const Coord rx = x + (v ? ls.w : 0);
    const Coord ry = y + (v ? 0 : ls.h);
    const std::uint32_t ri = sh.ri;
    enter(l, sh.li, x, y);
    enter(r, ri, rx, ry);
  }
  s.slotsPlaced += placed;
}

}  // namespace

SlicedResult evaluatePolish(const PolishExpr& expr, std::span<const Coord> widths,
                            std::span<const Coord> heights,
                            const std::vector<bool>& rotatable,
                            std::size_t shapeCap) {
  PolishEvalScratch scratch;
  return evaluatePolish(expr, widths, heights, rotatable, shapeCap, scratch);
}

void evaluatePolishInto(const PolishExpr& expr, std::span<const Coord> widths,
                        std::span<const Coord> heights,
                        const std::vector<bool>& rotatable,
                        std::size_t shapeCap, PolishEvalScratch& scratch,
                        SlicedResult& out) {
  out = evaluatePolish(expr, widths, heights, rotatable, shapeCap, scratch);
}

const SlicedResult& evaluatePolish(const PolishExpr& expr,
                                   std::span<const Coord> widths,
                                   std::span<const Coord> heights,
                                   const std::vector<bool>& rotatable,
                                   std::size_t shapeCap,
                                   PolishEvalScratch& scratch) {
  PolishEvalScratch& s = scratch;
  SlicedResult& result = s.result;
  const std::size_t n = expr.moduleCount();
  if (n == 0) {
    // The previous tree's curves stay; the next call, finding a placement
    // of another size, places every slot.
    result.placement.clear();
    result.width = result.height = 0;
    return result;
  }
  assert(expr.isValid());

  const std::vector<std::int32_t>& elems = expr.elements();
  const std::size_t len = elems.size();
  // Slot arrays only grow, and each slot keeps its curve buffer: the steady
  // state of an anneal (constant expression length) allocates nothing.
  if (s.elem.size() < len) {
    s.elem.resize(len);
    s.span.resize(len);
    s.epoch.resize(len, 0);
    s.pick.resize(len);
    s.x.resize(len);
    s.y.resize(len);
    s.curveData.resize(len);
    s.curveLen.resize(len, 0);
    s.curveCap.resize(len, 0);
  }
  if (++s.callEpoch == 0) {
    std::fill(s.epoch.begin(), s.epoch.end(), 0u);
    s.callEpoch = 1;
  }

  // Only the previous call's slots hold its tree, and only as a whole: a
  // slot past this expression's end is forgotten, because a later, longer
  // expression could match it while matching this call's rebuilt slots
  // below it, which its curve was not built from.  A cap change forgets
  // every slot.
  std::size_t keep = std::min(s.memoSlots, len);
  if (s.shapeCap != shapeCap) {
    keep = 0;
    s.shapeCap = shapeCap;
  }
  s.memoSlots = len;
  // A module new to this call sits past the first changed slot, where its
  // entry is written.
  if (s.leafW.size() != n) {
    s.leafW.resize(n);
    s.leafH.resize(n);
    s.leafRot.resize(n);
  }
  const std::size_t lo =
      firstChangedSlot(s, elems, keep, widths, heights, rotatable);
  buildCurves(s, elems, lo, keep, widths, heights, rotatable, shapeCap);

  const std::size_t root = len - 1;
  const PolishShape* rootCurve = s.curveData[root].get();
  std::uint32_t best = 0;
  for (std::uint32_t k = 1; k < s.curveLen[root]; ++k) {
    if (rootCurve[k].w * rootCurve[k].h < rootCurve[best].w * rootCurve[best].h) {
      best = k;
    }
  }
  result.width = rootCurve[best].w;
  result.height = rootCurve[best].h;
  // A placement of another size starts over: every slot is entered.
  const bool whole = result.placement.size() != n;
  if (whole) result.placement.assign(n);
  placeTopDown(s, elems, best, whole);
  return result;
}

}  // namespace als
