#include "seqpair/packer.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace als {

namespace {

/// Query of a prefix-max Fenwick tree (cells 1..n, cell 0 unused): max over
/// positions [0, b); 0 when empty.  Values only grow, which is exactly the
/// LCS packer's access pattern.
Coord prefixMaxBelow(const std::vector<Coord>& tree, std::size_t b) {
  Coord m = 0;
  for (std::size_t k = b; k > 0; k -= k & (~k + 1)) m = std::max(m, tree[k]);
  return m;
}

/// One LCS sweep: processes modules in `order`, placing each at the maximum
/// end of already-processed modules with smaller beta position.  `tree` is
/// caller-owned storage so the per-move decode can reuse one buffer.
void sweep(std::span<const std::size_t> order, const SequencePair& sp,
           std::span<const Coord> extent, std::span<Coord> coord,
           std::vector<Coord>& tree) {
  tree.assign(order.size() + 1, 0);
  for (std::size_t m : order) {
    std::size_t b = sp.betaPos(m);
    Coord pos = prefixMaxBelow(tree, b);
    coord[m] = pos;
    for (std::size_t k = b + 1; k < tree.size(); k += k & (~k + 1)) {
      tree[k] = std::max(tree[k], pos + extent[m]);
    }
  }
}

/// Incremental sweep: the *same* algorithm as `sweep` on the persistent
/// tree inside `st`, with every cell write journaled as a SweepOp so the
/// tree can be rewound to any earlier step by replaying the journal
/// backwards.  The inputs of step i — the module, its beta position, its
/// extent — fully determine its writes, so diffing them against the
/// recorded inputs, rewinding to the first changed step and re-running the
/// suffix reproduces the full sweep bit for bit.  Every re-swept module is
/// appended to `moved`.
void sweepIncremental(SeqPairSweepState& st, std::span<const std::size_t> order,
                      const SequencePair& sp, std::span<const Coord> extent,
                      std::span<Coord> coord, bool warm,
                      std::vector<std::size_t>& moved) {
  const std::size_t n = order.size();
  std::size_t d = 0;
  if (!warm) {
    st.fenwick.assign(n + 1, 0);
    st.ops.clear();
    st.opOfs.assign(1, 0);
    st.mod.clear();
    st.beta.clear();
    st.extent.clear();
  } else {
    while (d < n) {
      std::size_t m = order[d];
      if (st.mod[d] != m || st.beta[d] != sp.betaPos(m) ||
          st.extent[d] != extent[m]) {
        break;
      }
      ++d;
    }
    assert(d < st.opOfs.size());
    for (std::size_t i = st.ops.size(); i > st.opOfs[d];) {
      --i;
      st.fenwick[st.ops[i].pos] = st.ops[i].val;
    }
    st.ops.resize(st.opOfs[d]);
    st.opOfs.resize(d + 1);
  }
  st.mod.resize(n);
  st.beta.resize(n);
  st.extent.resize(n);
  for (std::size_t i = d; i < n; ++i) {
    std::size_t m = order[i];
    std::size_t b = sp.betaPos(m);
    st.mod[i] = m;
    st.beta[i] = b;
    st.extent[i] = extent[m];
    Coord pos = prefixMaxBelow(st.fenwick, b);
    coord[m] = pos;
    // Cells that already dominate the new end are untouched, so only real
    // writes are journaled — undo restores exactly the cells this step
    // changed.
    const Coord end = pos + extent[m];
    for (std::size_t k = b + 1; k < st.fenwick.size(); k += k & (~k + 1)) {
      if (st.fenwick[k] < end) {
        st.ops.push_back({k, st.fenwick[k]});
        st.fenwick[k] = end;
      }
    }
    st.opOfs.push_back(st.ops.size());
    moved.push_back(m);
  }
}

}  // namespace

Placement packSequencePair(const SequencePair& sp, std::span<const Coord> widths,
                           std::span<const Coord> heights, PackStrategy strategy) {
  SeqPairPackScratch scratch;
  Placement out;
  packSequencePairInto(sp, widths, heights, strategy, scratch, out);
  return out;
}

void packSequencePairInto(const SequencePair& sp, std::span<const Coord> widths,
                          std::span<const Coord> heights, PackStrategy,
                          SeqPairPackScratch& scratch, Placement& out) {
  const std::size_t n = sp.size();
  assert(widths.size() == n && heights.size() == n);
  scratch.incValid = false;  // a full pack orphans any incremental state
  scratch.x.assign(n, 0);
  scratch.y.assign(n, 0);

  // x sweep: alpha order; predecessors in both sequences are "left of".
  sweep(sp.alpha(), sp, widths, scratch.x, scratch.fenwick);
  // y sweep: reverse alpha order; for already-processed i (alpha-after m)
  // with smaller beta position, i is below m.
  scratch.rev.assign(sp.alpha().rbegin(), sp.alpha().rend());
  sweep(scratch.rev, sp, heights, scratch.y, scratch.fenwick);

  out.assign(n);
  for (std::size_t m = 0; m < n; ++m) {
    out[m] = {scratch.x[m], scratch.y[m], widths[m], heights[m]};
  }
}

void packSequencePairIncrementalInto(const SequencePair& sp,
                                     std::span<const Coord> widths,
                                     std::span<const Coord> heights,
                                     PackStrategy,
                                     SeqPairPackScratch& scratch, Placement& out,
                                     std::vector<std::size_t>& moved) {
  const std::size_t n = sp.size();
  assert(widths.size() == n && heights.size() == n);
  const bool warm = scratch.incValid && scratch.xSweep.mod.size() == n &&
                    scratch.ySweep.mod.size() == n && out.size() == n &&
                    scratch.x.size() == n && scratch.y.size() == n;
  if (!warm) {
    scratch.x.assign(n, 0);
    scratch.y.assign(n, 0);
    out.assign(n);
  }
  const std::size_t movedStart = moved.size();

  scratch.rev.assign(sp.alpha().rbegin(), sp.alpha().rend());
  sweepIncremental(scratch.xSweep, sp.alpha(), sp, widths, scratch.x, warm,
                   moved);
  sweepIncremental(scratch.ySweep, scratch.rev, sp, heights, scratch.y, warm,
                   moved);
  scratch.incValid = true;

  // A module whose width changed diverges its x-sweep step (extents are step
  // inputs), so every rect field of a stale module is covered by one of the
  // two moved ranges; untouched modules keep their previous rect verbatim.
  for (std::size_t i = movedStart; i < moved.size(); ++i) {
    std::size_t m = moved[i];
    out[m] = {scratch.x[m], scratch.y[m], widths[m], heights[m]};
  }

#ifndef NDEBUG
  {  // Debug oracle: the incremental pack must equal a fresh full pack.
    thread_local SeqPairPackScratch oracleScratch;
    thread_local Placement oracle;
    packSequencePairInto(sp, widths, heights, PackStrategy::Auto, oracleScratch,
                         oracle);
    for (std::size_t m = 0; m < n; ++m) {
      assert(out[m] == oracle[m] && "incremental pack diverged from full pack");
    }
  }
#endif
}

}  // namespace als
