// Placement -> sequence pair conversion (the cross-backend seeding seam of
// runtime/plan_executor.h).
//
// Diagonal-order construction: alpha sorts the modules by the center
// anti-diagonal (x_c - y_c), beta by the center diagonal (x_c + y_c), both
// with the module id as the deterministic tiebreak.  Writing dx = x_c(j) -
// x_c(i) and dy = y_c(j) - y_c(i), module i precedes j in alpha iff
// dx - dy > 0 and in beta iff dx + dy > 0, so
//
//   dx > |dy|  =>  i before j in BOTH sequences  =>  "i left of j" in the
//                  pair  =>  the LCS packing places x_i + w_i <= x_j;
//   dy > |dx|  =>  i after j in alpha, before j in beta  =>  "i below j"
//                  =>  y_i + h_i <= y_j.
//
// Center-diagonal dominance in the source placement therefore survives the
// round trip placement -> pair -> decode exactly — the relative-order
// property tests/convert_test.cpp pins.  The construction knows nothing of
// symmetry groups; seed consumers re-establish the symmetric-feasible
// invariant with makeSymmetricFeasibleInPlace (seqpair/symmetry.h) before
// annealing, which permutes only group members.
#pragma once

#include "geom/placement.h"
#include "seqpair/sequence_pair.h"

namespace als {

/// Reusable buffers of the conversion (allocation-free when warm — the
/// tempering loop converts at exchange points, which sit inside the
/// steady-state zero-allocation gate).
struct SeqPairFromPlacementScratch {
  std::vector<std::size_t> alpha, beta;
  std::vector<Coord> keyA, keyB;  ///< per-module doubled diagonal keys
};

/// Overwrites `sp` with the diagonal-order pair of `placement` (storage
/// reused; sizes may differ between calls).
void sequencePairFromPlacement(const Placement& placement,
                               SeqPairFromPlacementScratch& scratch,
                               SequencePair& sp);

/// Convenience allocating overload.
SequencePair sequencePairFromPlacement(const Placement& placement);

}  // namespace als
