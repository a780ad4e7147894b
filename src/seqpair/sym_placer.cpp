#include "seqpair/sym_placer.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "seqpair/packer.h"

namespace als {

namespace {

constexpr std::uint32_t kNoGroup = ~0u;

using detail::SymIslandBuf;
using detail::SymOrientedPair;
using detail::SymRow;

/// Longest-path propagation in x over an arbitrary cell subset: processes
/// cells in alpha order and raises x to clear every "left of" predecessor.
/// Existing values act as lower bounds (monotone).  `order` is a reused
/// ordering buffer.
void propagateX(const SequencePair& sp, std::span<const std::size_t> cells,
                std::span<const Coord> w, std::vector<Coord>& x,
                std::vector<std::size_t>& order) {
  order.assign(cells.begin(), cells.end());
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return sp.alphaPos(a) < sp.alphaPos(b); });
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t m = order[i];
    Coord v = x[m];
    for (std::size_t j = 0; j < i; ++j) {
      std::size_t p = order[j];
      if (sp.betaPos(p) < sp.betaPos(m)) v = std::max(v, x[p] + w[p]);
    }
    x[m] = v;
  }
}

/// Longest-path propagation in y (reverse alpha order = "below" DAG order).
void propagateY(const SequencePair& sp, std::span<const std::size_t> cells,
                std::span<const Coord> h, std::vector<Coord>& y,
                std::vector<std::size_t>& order) {
  order.assign(cells.begin(), cells.end());
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return sp.alphaPos(a) > sp.alphaPos(b); });
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t m = order[i];
    Coord v = y[m];
    for (std::size_t j = 0; j < i; ++j) {
      std::size_t p = order[j];
      if (sp.betaPos(p) < sp.betaPos(m)) v = std::max(v, y[p] + h[p]);
    }
    y[m] = v;
  }
}

/// Mirror relaxation for ONE group over the induced sub-sequence-pair.
/// Returns false if no fixpoint is reached within maxIterations.
bool relaxIsland(const SequencePair& sp, std::span<const Coord> w,
                 std::span<const Coord> h, const SymmetryGroup& group,
                 std::span<const SymOrientedPair> pairs, int maxIterations,
                 SymIslandBuf& island, SymPlaceScratch& scratch) {
  const auto& cells = island.cells;
  std::vector<Coord>& x = scratch.relaxX;
  std::vector<Coord>& y = scratch.relaxY;
  x.assign(w.size(), 0);
  y.assign(h.size(), 0);
  propagateX(sp, cells, w, x, scratch.order);
  propagateY(sp, cells, h, y, scratch.order);

  auto centerD = [&](std::size_t m) { return 2 * x[m] + w[m]; };
  Coord a2 = 0;
  Coord ceiling = 0;
  for (std::size_t m : cells) ceiling += 2 * w[m];

  int iter = 0;
  for (; iter < maxIterations; ++iter) {
    bool changed = false;
    for (const SymOrientedPair& pr : pairs) {
      a2 = std::max(a2, (centerD(pr.left) + centerD(pr.right)) / 2);
    }
    for (ModuleId s : group.selfs) a2 = std::max(a2, centerD(s));
    if (!group.selfs.empty() && (a2 % 2) != 0) ++a2;

    for (const SymOrientedPair& pr : pairs) {
      Coord targetD = 2 * a2 - centerD(pr.left);
      if (centerD(pr.right) < targetD) {
        x[pr.right] = (targetD - w[pr.right]) / 2;
        changed = true;
      }
    }
    for (ModuleId s : group.selfs) {
      if (centerD(s) < a2) {
        x[s] = (a2 - w[s]) / 2;
        changed = true;
      }
    }
    for (const SymOrientedPair& pr : pairs) {
      Coord target = std::max(y[pr.left], y[pr.right]);
      if (y[pr.left] != target || y[pr.right] != target) {
        y[pr.left] = y[pr.right] = target;
        changed = true;
      }
    }

    Coord sumBefore = 0;
    for (std::size_t m : cells) sumBefore += x[m] + y[m];
    propagateX(sp, cells, w, x, scratch.order);
    propagateY(sp, cells, h, y, scratch.order);
    Coord sumAfter = 0;
    for (std::size_t m : cells) sumAfter += x[m] + y[m];

    if (!changed && sumAfter == sumBefore) break;
    for (std::size_t m : cells) {
      if (x[m] > ceiling) return false;  // diverged
    }
  }
  if (iter >= maxIterations) return false;

  island.local.assign(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::size_t m = cells[i];
    island.local[i] = {x[m], y[m], w[m], h[m]};
  }
  island.axis2x = a2;
  return true;
}

/// Guaranteed-feasible island: one mirrored pair per row (side by side,
/// centered on the axis), self-symmetric cells centered on rows of their
/// own, rows stacked in alpha order.
void stackedIsland(const SequencePair& sp, std::span<const Coord> w,
                   std::span<const Coord> h, const SymmetryGroup& group,
                   std::span<const SymOrientedPair> pairs, SymIslandBuf& island,
                   SymPlaceScratch& scratch) {
  Coord half = 0;  // max half-width (axis distance)
  for (const SymOrientedPair& pr : pairs) half = std::max(half, w[pr.left]);
  for (ModuleId s : group.selfs) half = std::max(half, w[s] / 2);
  Coord a2 = 2 * half;  // doubled axis

  std::vector<SymRow>& rows = scratch.rows;
  rows.clear();
  for (const SymOrientedPair& pr : pairs) {
    rows.push_back({std::min(sp.alphaPos(pr.left), sp.alphaPos(pr.right)), true, pr, 0});
  }
  for (ModuleId s : group.selfs) rows.push_back({sp.alphaPos(s), false, {}, s});
  std::sort(rows.begin(), rows.end(),
            [](const SymRow& a, const SymRow& b) { return a.anchor < b.anchor; });

  island.local.assign(island.cells.size());
  std::vector<std::size_t>& localIndex = scratch.localIndex;
  localIndex.assign(w.size(), 0);
  for (std::size_t i = 0; i < island.cells.size(); ++i) localIndex[island.cells[i]] = i;

  Coord yCursor = 0;
  for (const SymRow& row : rows) {
    if (row.isPair) {
      Coord wl = w[row.pr.left];
      island.local[localIndex[row.pr.left]] = {half - wl, yCursor, wl, h[row.pr.left]};
      island.local[localIndex[row.pr.right]] = {half, yCursor, wl, h[row.pr.right]};
      yCursor += h[row.pr.left];
    } else {
      Coord ws = w[row.self];
      island.local[localIndex[row.self]] = {(a2 - ws) / 2, yCursor, ws, h[row.self]};
      yCursor += h[row.self];
    }
  }
  island.axis2x = a2;
  island.usedFallback = true;
}

}  // namespace

std::optional<SymPlacementResult> buildSymmetricPlacement(
    const SequencePair& sp, std::span<const Coord> widths,
    std::span<const Coord> heights, std::span<const SymmetryGroup> groups,
    int maxIterations) {
  SymPlaceScratch scratch;
  SymPlacementResult result;
  if (!buildSymmetricPlacementInto(sp, widths, heights, groups, maxIterations,
                                   scratch, result)) {
    return std::nullopt;
  }
  return result;
}

bool buildSymmetricPlacementInto(const SequencePair& sp,
                                 std::span<const Coord> widths,
                                 std::span<const Coord> heights,
                                 std::span<const SymmetryGroup> groups,
                                 int maxIterations, SymPlaceScratch& scratch,
                                 SymPlacementResult& out) {
  SymBuildOptions options;
  options.maxIterations = maxIterations;
  return buildSymmetricPlacementInto(sp, widths, heights, groups, options,
                                     scratch, out);
}

bool buildSymmetricPlacementInto(const SequencePair& sp,
                                 std::span<const Coord> widths,
                                 std::span<const Coord> heights,
                                 std::span<const SymmetryGroup> groups,
                                 const SymBuildOptions& options,
                                 SymPlaceScratch& scratch,
                                 SymPlacementResult& out) {
  const std::size_t n = sp.size();
  assert(widths.size() == n && heights.size() == n);
  for (std::size_t m = 0; m < n; ++m) {
    assert(widths[m] % 2 == 0 && heights[m] % 2 == 0 &&
           "symmetric placement requires even module dimensions in DBU");
    (void)m;
  }

  if (groups.empty()) {
    packSequencePairInto(sp, widths, heights, PackStrategy::Auto, scratch.pack,
                         out.placement);
    out.axis2x.clear();
    out.fallbacks = 0;
    return true;
  }

  // Group membership and free cells in O(n + members).
  scratch.groupOf.assign(n, kNoGroup);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const SymPair& pr : groups[g].pairs) {
      scratch.groupOf[pr.a] = static_cast<std::uint32_t>(g);
      scratch.groupOf[pr.b] = static_cast<std::uint32_t>(g);
    }
    for (ModuleId s : groups[g].selfs) {
      scratch.groupOf[s] = static_cast<std::uint32_t>(g);
    }
  }
  std::vector<std::size_t>& freeCells = scratch.freeCells;
  freeCells.clear();
  scratch.freeIndexOf.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    if (scratch.groupOf[m] == kNoGroup) {
      scratch.freeIndexOf[m] = freeCells.size();
      freeCells.push_back(m);
    }
  }

  // Warm-reuse gate: the island caches are trusted only while the instance
  // shape matches the previous call on this scratch.
  const bool warm = scratch.prevN == n && scratch.prevGroups == groups.size() &&
                    freeCells == scratch.prevFreeCells;
  if (!warm) {
    for (SymIslandBuf& isl : scratch.islands) isl.sigValid = false;
    scratch.prevN = n;
    scratch.prevGroups = groups.size();
    scratch.prevFreeCells = freeCells;
  }

  // --- 1. build one island per group (unchanged signatures reuse the
  //        cached layout: relaxation is deterministic in its inputs). ---
  if (scratch.islands.size() < groups.size()) scratch.islands.resize(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SymIslandBuf& island = scratch.islands[g];
    island.cells.clear();
    for (const SymPair& pr : groups[g].pairs) {
      island.cells.push_back(pr.a);
      island.cells.push_back(pr.b);
    }
    for (ModuleId s : groups[g].selfs) island.cells.push_back(s);
    island.pairs.clear();
    for (const SymPair& pr : groups[g].pairs) {
      if (sp.leftOf(pr.a, pr.b)) {
        island.pairs.push_back({pr.a, pr.b});
      } else if (sp.leftOf(pr.b, pr.a)) {
        island.pairs.push_back({pr.b, pr.a});
      } else {
        return false;  // vertically related partners: not S-F
      }
    }
    // Everything the island layout depends on, flattened: the iteration
    // cap, the pair/self split, the cells, their footprints, and the
    // island's own order in each sequence (as local indices).  Relaxation
    // and the stacked fallback read only the relative order of the island's
    // cells, so a move that merely shifts their absolute positions keeps
    // the cached layout.
    std::vector<std::size_t>& sig = scratch.tmpSig;
    sig.clear();
    sig.push_back(static_cast<std::size_t>(options.maxIterations));
    sig.push_back(groups[g].pairs.size());
    for (std::size_t m : island.cells) {
      sig.push_back(m);
      sig.push_back(static_cast<std::size_t>(widths[m]));
      sig.push_back(static_cast<std::size_t>(heights[m]));
    }
    std::vector<std::size_t>& local = scratch.order;
    for (bool alpha : {true, false}) {
      auto pos = [&](std::size_t i) {
        return alpha ? sp.alphaPos(island.cells[i]) : sp.betaPos(island.cells[i]);
      };
      local.resize(island.cells.size());
      std::iota(local.begin(), local.end(), std::size_t{0});
      std::sort(local.begin(), local.end(),
                [&](std::size_t a, std::size_t b) { return pos(a) < pos(b); });
      sig.insert(sig.end(), local.begin(), local.end());
    }
    if (island.sigValid && sig == island.sig) continue;
    island.sig.swap(sig);
    island.sigValid = true;
    island.usedFallback = false;
    if (!relaxIsland(sp, widths, heights, groups[g], island.pairs,
                     options.maxIterations, island, scratch)) {
      stackedIsland(sp, widths, heights, groups[g], island.pairs, island,
                    scratch);
    }
    island.local.normalize();
    island.w = island.local.boundingBox().w;
    island.h = island.local.boundingBox().h;
    // Recompute the axis from the normalized placement: use the first pair
    // (or self) to re-derive it exactly.
    auto localOf = [&](ModuleId m) {
      for (std::size_t i = 0; i < island.cells.size(); ++i) {
        if (island.cells[i] == m) return i;
      }
      return std::size_t{0};
    };
    if (!groups[g].pairs.empty()) {
      const Rect& a = island.local[localOf(groups[g].pairs[0].a)];
      const Rect& b = island.local[localOf(groups[g].pairs[0].b)];
      island.axis2x = a.x + a.w + b.x;
    } else if (!groups[g].selfs.empty()) {
      const Rect& s = island.local[localOf(groups[g].selfs[0])];
      island.axis2x = 2 * s.x + s.w;
    }
  }

  // --- 2. reduced sequence-pair: free cells + one node per island. ---
  const std::size_t F = freeCells.size();
  const std::size_t reducedN = F + groups.size();
  scratch.rw.resize(reducedN);
  scratch.rh.resize(reducedN);
  for (std::size_t i = 0; i < F; ++i) {
    scratch.rw[i] = widths[freeCells[i]];
    scratch.rh[i] = heights[freeCells[i]];
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    scratch.rw[F + g] = scratch.islands[g].w;
    scratch.rh[F + g] = scratch.islands[g].h;
  }
  // Reduced orders in O(n): walk each original sequence, emitting a free
  // cell on sight and an island at its first member.  Identical to sorting
  // by min-position keys, because every key is a distinct position.
  auto buildOrder = [&](std::span<const std::size_t> seq,
                        std::vector<std::size_t>& order) {
    order.clear();
    scratch.groupSeen.assign(groups.size(), 0);
    for (std::size_t m : seq) {
      std::uint32_t g = scratch.groupOf[m];
      if (g == kNoGroup) {
        order.push_back(scratch.freeIndexOf[m]);
      } else if (!scratch.groupSeen[g]) {
        scratch.groupSeen[g] = 1;
        order.push_back(F + g);
      }
    }
  };
  buildOrder(sp.alpha(), scratch.alphaOrder);
  buildOrder(sp.beta(), scratch.betaOrder);
  scratch.reduced.assignSequences(scratch.alphaOrder, scratch.betaOrder);
  packSequencePairInto(scratch.reduced, scratch.rw, scratch.rh,
                       PackStrategy::Auto, scratch.pack, scratch.packed);
  const Placement& packed = scratch.packed;

  // --- 3. compose the global placement. ---
  out.placement.assign(n);
  out.axis2x.resize(groups.size());
  out.fallbacks = 0;
  for (std::size_t i = 0; i < F; ++i) {
    out.placement[freeCells[i]] = packed[i];
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Rect& slot = packed[F + g];
    const SymIslandBuf& isl = scratch.islands[g];
    for (std::size_t i = 0; i < isl.cells.size(); ++i) {
      out.placement[isl.cells[i]] = isl.local[i].translated(slot.x, slot.y);
    }
    out.axis2x[g] = isl.axis2x + 2 * slot.x;
    if (isl.usedFallback) ++out.fallbacks;
  }

  if (options.verify) {
    if (!out.placement.isLegal() ||
        !verifySymmetry(out.placement, groups, out.axis2x)) {
      return false;  // defensive: contract violation, not expected
    }
  } else {
    assert(out.placement.isLegal() &&
           verifySymmetry(out.placement, groups, out.axis2x) &&
           "symmetric construction contract violation");
  }
  return true;
}

bool verifySymmetry(const Placement& p, std::span<const SymmetryGroup> groups,
                    std::span<const Coord> axis2x) {
  if (axis2x.size() != groups.size()) return false;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const SymPair& pr : groups[g].pairs) {
      if (!mirroredAboutX2(p[pr.a], p[pr.b], axis2x[g])) return false;
    }
    for (ModuleId s : groups[g].selfs) {
      if (!centeredOnX2(p[s], axis2x[g])) return false;
    }
  }
  return true;
}

}  // namespace als
