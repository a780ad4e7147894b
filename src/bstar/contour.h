// Packing contour (skyline) for B*-tree evaluation.
//
// The contour is the piecewise-constant upper outline of everything placed
// so far.  Plain module packing queries the maximum height over the module's
// x-span; HB*-tree hierarchy nodes additionally place *rigid macros* whose
// bottom profile may be non-flat — the "contour node" mechanism of [17] —
// so the query takes the macro's bottom profile into account and the update
// writes its top profile back.
//
// Two implementations share the contract:
//
//   * `Contour`     — the std::map reference.  Every splitAt/raise allocates
//                     tree nodes, which made the decode step a per-move
//                     hot spot.  Kept
//                     as the oracle for tests and the map-kernel baseline of
//                     bench_decode.
//   * `FlatContour` — the production skyline: segments in one reusable
//                     vector linked by indices, a free list recycling
//                     removed segments, and a cursor hint exploiting the
//                     left-to-right bias of the B*-tree preorder DFS.
//                     `reset()` is O(1) (the segment vector keeps its
//                     capacity), so one instance serves an entire anneal
//                     with zero steady-state heap allocations.
//
// tests/contour_test.cpp property-checks FlatContour against Contour over
// random macro/raise sequences; both are exact integer skylines, so their
// results are identical bit for bit.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "geom/profile.h"
#include "geom/rect.h"

namespace als {

class Contour {
 public:
  Contour() { height_[0] = 0; }

  /// Max contour height over [x1, x2).
  Coord maxOver(Coord x1, Coord x2) const;

  /// Minimal y offset for a rigid macro anchored at x whose bottom profile
  /// (macro-local coordinates) is `bottom`: max over the covered range of
  /// contour(x + u) - bottom(u).
  Coord fitMacro(Coord x, std::span<const ProfileStep> bottom) const;

  /// Overwrites [x1, x2) with height h.
  void raise(Coord x1, Coord x2, Coord h);

  /// Writes a macro's top profile (anchored at x, shifted up by yOffset).
  void placeMacro(Coord x, Coord yOffset, std::span<const ProfileStep> top);

  /// Contour height at a single x (for tests).
  Coord heightAt(Coord x) const;

 private:
  // Key x -> contour height on [x, next key); the map always contains key 0
  // and heights are >= 0.
  std::map<Coord, Coord> height_;

  /// Ensures a breakpoint exists at x (splitting the covering segment).
  void splitAt(Coord x);
};

/// Flat-array skyline with the same contract as `Contour` (all coordinates
/// must be >= 0, which every B*-tree packing guarantees).  Not thread-safe:
/// one instance belongs to one packing loop at a time (the query hint is
/// mutable state).
class FlatContour {
 public:
  FlatContour() { reset(); }

  /// Drops the whole skyline back to height 0 in O(1); the segment storage
  /// keeps its capacity, so a warm instance never allocates again.
  void reset();

  Coord maxOver(Coord x1, Coord x2) const;
  Coord fitMacro(Coord x, std::span<const ProfileStep> bottom) const;
  void raise(Coord x1, Coord x2, Coord h);
  void placeMacro(Coord x, Coord yOffset, std::span<const ProfileStep> top);
  Coord heightAt(Coord x) const;

  /// Live segments (for tests; the base segment counts as one).
  std::size_t segmentCount() const;
  /// Recycled segments currently parked on the free list (for tests).
  std::size_t freeCount() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Height `h` holds on [x, next->x); the last segment extends to +inf.
  struct Segment {
    Coord x = 0;
    Coord h = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::uint32_t allocSeg(Coord x, Coord h);
  /// Inserts a segment starting at x with height h right after `s`.
  std::uint32_t insertAfter(std::uint32_t s, Coord x, Coord h);
  /// Unlinks `s` and parks it on the free list (never the head segment).
  void unlinkRelease(std::uint32_t s);
  /// Segment whose [x, next->x) interval contains `x`; updates the hint.
  std::uint32_t findSeg(Coord x) const;

  std::vector<Segment> segs_;
  std::uint32_t head_ = kNil;
  std::uint32_t free_ = kNil;
  mutable std::uint32_t hint_ = kNil;
};

}  // namespace als
