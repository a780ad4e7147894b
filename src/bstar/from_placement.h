// Placement -> B*-tree conversion (the cross-backend seeding seam of
// runtime/plan_executor.h).
//
// Left-edge / adjacency reconstruction.  Modules are sorted by (x, y, id)
// and become tree nodes in that order; each subsequent module attaches to
// an earlier one:
//
//   1. as the LEFT child of an exactly abutting left neighbour (a module j
//      with x_j + w_j == x_m and overlapping y span — the B*-tree left edge
//      means exactly "nearest right neighbour", see bstar/bstar_tree.h);
//      among candidates the largest overlap wins, then the smallest node;
//   2. else as the RIGHT child of the module directly below in the same
//      column (x_j == x_m, y_j + h_j <= y_m, largest top edge wins) — the
//      B*-tree right edge means "first module stacked above";
//   3. else into the first free slot (left slots first) of the earliest
//      node — a deterministic fallback for placements with gaps, which a
//      B*-tree (always compacted) cannot represent verbatim anyway.
//
// Every attachment targets an earlier node in the (x, y, id) order, so along
// any root-to-leaf path the source coordinates are lexicographically
// increasing — the relative-order invariant tests/convert_test.cpp pins
// (a decoded B*-tree placement is compacted, so exact coordinates round-trip
// only for packed sources; the topology does for all).
#pragma once

#include "bstar/bstar_tree.h"
#include "geom/placement.h"

namespace als {

/// Reusable buffers of the conversion (allocation-free when warm; see
/// seqpair/from_placement.h for the tempering-loop contract).
struct BStarFromPlacementScratch {
  std::vector<std::size_t> order;  ///< node -> module id, (x, y, id)-sorted
  std::vector<std::size_t> left, right;
};

/// Overwrites `tree` with the reconstruction of `placement` (storage
/// reused; sizes may differ between calls).
void bstarFromPlacement(const Placement& placement,
                        BStarFromPlacementScratch& scratch, BStarTree& tree);

/// Convenience allocating overload.
BStarTree bstarFromPlacement(const Placement& placement);

}  // namespace als
