// Sequence-pair packing via weighted longest common subsequences.
//
// The x coordinate of module m is the largest total width of modules that
// precede m in *both* sequences (its "left of" predecessors); symmetrically
// for y with alpha reversed.  The running maxima live in a prefix-max
// Fenwick tree, O(n log n) per evaluation (FAST-SP style [26]).
//
// Section II cites an O(n log log n) bound through a van Emde Boas priority
// queue.  Measured inside the SA loop, that structure ran 3-4x slower than
// the Fenwick tree at 200-300 blocks and was slower at every corpus size,
// and an O(n^2) scan only tied the Fenwick tree at 9-11 blocks, so the
// Fenwick sweep is the one LCS kernel.  The O(n^2) scan survives as the
// test oracle (tests/test_util.h).  The tree lives in caller-owned scratch
// storage, so a warm decode loop performs zero steady-state heap
// allocations.
//
// == Incremental packing ==
//
// There is none: every decode runs both full sweeps.  A journaled variant
// rewound each sweep to its first changed step and re-ran the suffix, bit-
// identical but slower.  The y sweep runs in reverse alpha order, so a
// move whose changed modules sit at alpha positions i..j re-runs n - i
// steps of the x sweep and j + 1 of the y sweep: at least n steps
// together, plus the journal writes.  On the n300 GSRC-like circuits the moved list it reported
// held 278 of 300 modules on average.  `packSequencePairIncrementalInto`
// remains as a thin name over the full pack for existing callers.
#pragma once

#include <span>
#include <vector>

#include "geom/placement.h"
#include "seqpair/sequence_pair.h"

namespace als {

/// The LCS kernel selector of the packing entry points.  There is one
/// kernel, the Fenwick sweep; the tag remains so existing callers compile.
enum class PackStrategy { Auto };

/// Reusable buffers of one LCS packing loop (the sequence-pair placer's
/// per-move decode).  Warm buffers make every pack allocation-free.
struct SeqPairPackScratch {
  std::vector<Coord> x, y;
  std::vector<std::size_t> rev;          ///< reversed alpha order (y sweep)
  std::vector<Coord> fenwick;            ///< prefix-max Fenwick storage
};

/// Packs the pair into the lower-left-compacted placement.
/// `widths` / `heights` are the (orientation-resolved) module footprints.
Placement packSequencePair(const SequencePair& sp, std::span<const Coord> widths,
                           std::span<const Coord> heights,
                           PackStrategy strategy = PackStrategy::Auto);

/// Scratch-reuse variant: identical placements, `out` fully overwritten.
void packSequencePairInto(const SequencePair& sp, std::span<const Coord> widths,
                          std::span<const Coord> heights, PackStrategy strategy,
                          SeqPairPackScratch& scratch, Placement& out);

/// `packSequencePairInto`, then every module id 0..n-1 appended to `moved`
/// (every rect is rewritten).  Kept so existing callers compile.
void packSequencePairIncrementalInto(const SequencePair& sp,
                                     std::span<const Coord> widths,
                                     std::span<const Coord> heights,
                                     PackStrategy strategy,
                                     SeqPairPackScratch& scratch, Placement& out,
                                     std::vector<std::size_t>& moved);

}  // namespace als
