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
                                     PackStrategy strategy,
                                     SeqPairPackScratch& scratch, Placement& out,
                                     std::vector<std::size_t>& moved) {
  packSequencePairInto(sp, widths, heights, strategy, scratch, out);
  for (std::size_t m = 0; m < sp.size(); ++m) moved.push_back(m);
}

}  // namespace als
