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
// A seqpair move (swap, rotation) leaves a prefix of each LCS sweep's step
// inputs untouched, and the Fenwick tree's state at step i is a function of
// steps < i alone.  `packSequencePairIncrementalInto` therefore journals
// every cell write per step, and on the next call rewinds each sweep to its
// first changed step and re-runs the suffix only — identical coordinates to
// a full pack, at cost proportional to what the move disturbed.
#pragma once

#include <span>
#include <vector>

#include "geom/placement.h"
#include "seqpair/sequence_pair.h"

namespace als {

/// The LCS kernel selector of the packing entry points.  There is one
/// kernel, the Fenwick sweep; the tag remains so existing callers compile.
enum class PackStrategy { Auto };

/// One journaled Fenwick cell write (undo unit): cell `pos` held `val`
/// before the write.
struct SweepOp {
  std::size_t pos = 0;
  Coord val = 0;
};

/// Persistent state of one LCS sweep across incremental packs: the step
/// inputs of the last pack, the live Fenwick tree, and the per-step undo
/// journal.
struct SeqPairSweepState {
  std::vector<std::size_t> mod, beta;  ///< step inputs: module, beta position
  std::vector<Coord> extent;           ///< step input: module extent
  std::vector<Coord> fenwick;
  std::vector<SweepOp> ops;          ///< journaled cell writes
  std::vector<std::size_t> opOfs;    ///< per-step offset into ops (steps + 1)
};

/// Reusable buffers of one LCS packing loop (the sequence-pair placer's
/// per-move decode).  Warm buffers make every pack allocation-free.
struct SeqPairPackScratch {
  std::vector<Coord> x, y;
  std::vector<std::size_t> rev;          ///< reversed alpha order (y sweep)
  std::vector<Coord> fenwick;            ///< prefix-max Fenwick storage
  // Incremental-pack state; valid only between incremental calls on this
  // scratch (a full packSequencePairInto invalidates it).
  bool incValid = false;
  SeqPairSweepState xSweep, ySweep;
};

/// Packs the pair into the lower-left-compacted placement.
/// `widths` / `heights` are the (orientation-resolved) module footprints.
Placement packSequencePair(const SequencePair& sp, std::span<const Coord> widths,
                           std::span<const Coord> heights,
                           PackStrategy strategy = PackStrategy::Auto);

/// Scratch-reuse variant: identical placements, `out` fully overwritten.
/// Invalidates any incremental state held by `scratch`.
void packSequencePairInto(const SequencePair& sp, std::span<const Coord> widths,
                          std::span<const Coord> heights, PackStrategy strategy,
                          SeqPairPackScratch& scratch, Placement& out);

/// Incremental pack: bit-identical placements to packSequencePairInto, but
/// when `scratch` holds the state of a previous call each LCS sweep re-runs
/// only from its first changed step (journal-rewound structures).  `out`
/// must be the same buffer across calls — only the rects of re-swept
/// modules are rewritten.  Every re-swept module id is appended to `moved`
/// (duplicates possible; a cold call appends all).  The caller owns cache
/// validity: after packing a DIFFERENT sequence-pair stream on this
/// scratch, set `scratch.incValid = false`.
void packSequencePairIncrementalInto(const SequencePair& sp,
                                     std::span<const Coord> widths,
                                     std::span<const Coord> heights,
                                     PackStrategy strategy,
                                     SeqPairPackScratch& scratch, Placement& out,
                                     std::vector<std::size_t>& moved);

}  // namespace als
