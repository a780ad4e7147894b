// FlatContour ≡ Contour: the flat skyline must be bit-for-bit equivalent to
// the std::map reference over every operation the packers drive, including
// non-flat macro profiles, plus the reuse properties the decode hot path
// leans on (O(1) reset, free-list recycling, steady-state capacity).
#include <gtest/gtest.h>

#include <vector>

#include "bstar/contour.h"
#include "geom/profile.h"
#include "util/rng.h"

namespace als {
namespace {

/// Compares the two skylines pointwise on [0, limit] plus a maxOver sweep.
void expectEquivalent(const Contour& ref, const FlatContour& flat, Coord limit) {
  for (Coord x = 0; x <= limit; ++x) {
    ASSERT_EQ(ref.heightAt(x), flat.heightAt(x)) << "at x = " << x;
  }
  for (Coord x1 = 0; x1 < limit; x1 += 3) {
    for (Coord x2 = x1 + 1; x2 <= limit; x2 += 5) {
      ASSERT_EQ(ref.maxOver(x1, x2), flat.maxOver(x1, x2))
          << "over [" << x1 << ", " << x2 << ")";
    }
  }
}

/// A random rectilinear profile over [0, w): 1-3 steps, values in [0, vMax].
std::vector<ProfileStep> randomProfile(Rng& rng, Coord w, Coord vMax) {
  std::vector<ProfileStep> steps;
  Coord lo = 0;
  std::size_t n = 1 + rng.index(3);
  for (std::size_t i = 0; i < n && lo < w; ++i) {
    Coord hi = i + 1 == n ? w : std::min<Coord>(w, lo + 1 + rng.index(
                                     static_cast<std::size_t>(w - lo)));
    steps.push_back({lo, hi, rng.uniformInt(0, vMax)});
    lo = hi;
  }
  steps.back().hi = w;
  return steps;
}

TEST(FlatContour, MatchesMapReferenceOnRandomRaises) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    Contour ref;
    FlatContour flat;
    for (int op = 0; op < 60; ++op) {
      Coord x1 = rng.uniformInt(0, 40);
      Coord x2 = x1 + 1 + rng.uniformInt(0, 20);
      Coord h = rng.uniformInt(0, 50);
      ASSERT_EQ(ref.maxOver(x1, x2), flat.maxOver(x1, x2));
      ref.raise(x1, x2, h);
      flat.raise(x1, x2, h);
    }
    expectEquivalent(ref, flat, 70);
  }
}

TEST(FlatContour, MatchesMapReferenceOnMacroSequences) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    Contour ref;
    FlatContour flat;
    for (int op = 0; op < 40; ++op) {
      Coord x = rng.uniformInt(0, 30);
      Coord w = 1 + rng.uniformInt(0, 12);
      std::vector<ProfileStep> bottom = randomProfile(rng, w, 6);
      std::vector<ProfileStep> top = randomProfile(rng, w, 10);
      // A macro's top must clear its own bottom; lift the top profile.
      for (ProfileStep& s : top) s.v += 8;
      Coord yRef = ref.fitMacro(x, bottom);
      Coord yFlat = flat.fitMacro(x, bottom);
      ASSERT_EQ(yRef, yFlat);
      ref.placeMacro(x, yRef, top);
      flat.placeMacro(x, yFlat, top);
    }
    expectEquivalent(ref, flat, 50);
  }
}

TEST(FlatContour, InterleavedFitRaiseAndPointQueries) {
  Rng rng(23);
  Contour ref;
  FlatContour flat;
  for (int op = 0; op < 500; ++op) {
    switch (rng.index(3)) {
      case 0: {
        Coord x1 = rng.uniformInt(0, 100);
        Coord x2 = x1 + 1 + rng.uniformInt(0, 30);
        Coord h = rng.uniformInt(0, 200);
        ref.raise(x1, x2, h);
        flat.raise(x1, x2, h);
        break;
      }
      case 1: {
        Coord x1 = rng.uniformInt(0, 120);
        Coord x2 = x1 + 1 + rng.uniformInt(0, 40);
        ASSERT_EQ(ref.maxOver(x1, x2), flat.maxOver(x1, x2));
        break;
      }
      default: {
        Coord x = rng.uniformInt(0, 140);
        ASSERT_EQ(ref.heightAt(x), flat.heightAt(x));
        break;
      }
    }
  }
  expectEquivalent(ref, flat, 140);
}

TEST(FlatContour, ResetRestoresTheEmptySkyline) {
  FlatContour flat;
  Rng rng(3);
  for (int op = 0; op < 50; ++op) {
    Coord x1 = rng.uniformInt(0, 40);
    flat.raise(x1, x1 + 1 + rng.uniformInt(0, 10), rng.uniformInt(1, 30));
  }
  ASSERT_GT(flat.segmentCount(), 1u);
  flat.reset();
  EXPECT_EQ(flat.segmentCount(), 1u);
  for (Coord x = 0; x <= 60; ++x) EXPECT_EQ(flat.heightAt(x), 0);
  // A reset instance behaves exactly like a fresh reference again.
  Contour ref;
  for (int op = 0; op < 50; ++op) {
    Coord x1 = rng.uniformInt(0, 40);
    Coord x2 = x1 + 1 + rng.uniformInt(0, 10);
    Coord h = rng.uniformInt(0, 30);
    ref.raise(x1, x2, h);
    flat.raise(x1, x2, h);
  }
  expectEquivalent(ref, flat, 60);
}

TEST(FlatContour, FreeListRecyclesRemovedSegments) {
  FlatContour flat;
  // Build a comb of alternating heights, then flatten it: every interior
  // breakpoint must land on the free list, not leak.
  for (Coord i = 0; i < 50; ++i) flat.raise(2 * i, 2 * i + 1, 5 + (i % 3));
  std::size_t peak = flat.segmentCount();
  ASSERT_GT(peak, 50u);
  flat.raise(0, 200, 9);
  EXPECT_LE(flat.segmentCount(), 3u);
  EXPECT_GE(flat.freeCount(), peak - 3);
  // Rebuilding the comb must reuse recycled segments (count returns ~peak).
  for (Coord i = 0; i < 50; ++i) flat.raise(2 * i, 2 * i + 1, 5 + (i % 3));
  EXPECT_GE(flat.segmentCount(), 50u);
}

TEST(FlatContour, ReuseAcrossResetsMatchesReferenceEveryRound) {
  Rng rng(41);
  FlatContour flat;  // ONE instance across all rounds — the anneal pattern
  for (int round = 0; round < 30; ++round) {
    flat.reset();
    Contour ref;
    for (int op = 0; op < 30; ++op) {
      Coord x = rng.uniformInt(0, 25);
      Coord w = 1 + rng.uniformInt(0, 8);
      Coord h = 1 + rng.uniformInt(0, 12);
      Coord y = ref.maxOver(x, x + w);
      ASSERT_EQ(y, flat.maxOver(x, x + w));
      ref.raise(x, x + w, y + h);
      flat.raise(x, x + w, y + h);
    }
    expectEquivalent(ref, flat, 40);
  }
}

}  // namespace
}  // namespace als
