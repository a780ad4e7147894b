// Shared placement-invariant checker for the test suites.
//
// Every placer in the library must produce placements that (a) cover every
// module exactly once with its own (possibly 90-degree-rotated) footprint,
// (b) have no overlapping modules, (c) sit inside the non-negative quadrant
// (all packers compact toward the origin) and, when an outline is given,
// inside it, and (d) mirror each symmetry group about a common vertical
// axis within a caller-chosen tolerance (0 = exact, the contract of the
// structural placers; the penalty-based flat B*-tree baseline is checked
// with a finite tolerance or skipped via kNoSymmetryCheck).
//
// It also holds the O(n^2) sequence-pair packing reference, the oracle the
// library's Fenwick LCS packer is checked against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "geom/placement.h"
#include "netlist/circuit.h"
#include "seqpair/sequence_pair.h"

namespace als {
namespace test_util {

/// Pass as `symTolerance` to skip the symmetry check entirely (for the
/// penalty-based placers whose residual deviation is unbounded).
inline constexpr Coord kNoSymmetryCheck = -1;

struct InvariantOptions {
  /// Mirror tolerance in DBU (0 = exact); kNoSymmetryCheck skips it.
  Coord symTolerance = 0;
  /// Optional outline; 0 = only the non-negative quadrant is enforced.
  Coord outlineW = 0;
  Coord outlineH = 0;
};

/// Largest deviation (doubled DBU) of `group` from perfect mirror symmetry
/// about the axis implied by its first pair / self-symmetric member.
/// Footprint mismatches between partners count as infinite deviation.
inline Coord symmetryDeviation2x(const Placement& p, const SymmetryGroup& g) {
  constexpr Coord kInf = std::numeric_limits<Coord>::max();
  Coord axis2x = 0;  // doubled axis: exact for half-DBU axes
  if (!g.pairs.empty()) {
    axis2x = p[g.pairs[0].a].xlo() + p[g.pairs[0].b].xhi();
  } else if (!g.selfs.empty()) {
    axis2x = 2 * p[g.selfs[0]].xlo() + p[g.selfs[0]].w;
  } else {
    return 0;
  }
  Coord worst = 0;
  for (const SymPair& pair : g.pairs) {
    const Rect& a = p[pair.a];
    const Rect& b = p[pair.b];
    if (a.w != b.w || a.h != b.h) return kInf;
    worst = std::max(worst, std::abs(a.xlo() + b.xhi() - axis2x));
    worst = std::max(worst, std::abs(b.xlo() + a.xhi() - axis2x));
    worst = std::max(worst, 2 * std::abs(a.ylo() - b.ylo()));
  }
  for (ModuleId s : g.selfs) {
    worst = std::max(worst, std::abs(2 * p[s].xlo() + p[s].w - axis2x));
  }
  return worst;
}

/// Asserts the shared placement invariants; `label` prefixes every failure
/// message so parameterized loops stay attributable.
inline void expectPlacementInvariants(const Placement& p, const Circuit& c,
                                      const InvariantOptions& options = {},
                                      const std::string& label = "") {
  ASSERT_EQ(p.size(), c.moduleCount()) << label;

  // Every module keeps its own footprint (rotated only when allowed).
  for (std::size_t m = 0; m < p.size(); ++m) {
    const Module& mod = c.module(m);
    bool upright = p[m].w == mod.w && p[m].h == mod.h;
    bool rotated = p[m].w == mod.h && p[m].h == mod.w;
    EXPECT_TRUE(upright || (rotated && (mod.rotatable || mod.w == mod.h)))
        << label << " module " << mod.name << " placed as " << p[m].w << "x"
        << p[m].h << ", footprint " << mod.w << "x" << mod.h
        << (mod.rotatable ? "" : " (norotate)");
  }

  // No overlaps.
  auto [a, b] = p.firstOverlap();
  EXPECT_EQ(a, Placement::npos)
      << label << " modules " << (a == Placement::npos ? "" : c.module(a).name)
      << " and " << (b == Placement::npos ? "" : c.module(b).name) << " overlap";

  // Inside the outline (or at least the non-negative quadrant).
  for (std::size_t m = 0; m < p.size(); ++m) {
    EXPECT_GE(p[m].xlo(), 0) << label << " module " << c.module(m).name;
    EXPECT_GE(p[m].ylo(), 0) << label << " module " << c.module(m).name;
    if (options.outlineW > 0) {
      EXPECT_LE(p[m].xhi(), options.outlineW)
          << label << " module " << c.module(m).name;
    }
    if (options.outlineH > 0) {
      EXPECT_LE(p[m].yhi(), options.outlineH)
          << label << " module " << c.module(m).name;
    }
  }

  // Symmetry groups mirrored about a common vertical axis.
  if (options.symTolerance != kNoSymmetryCheck) {
    for (const SymmetryGroup& g : c.symmetryGroups()) {
      EXPECT_LE(symmetryDeviation2x(p, g), 2 * options.symTolerance)
          << label << " group " << g.name << " breaks mirror symmetry";
    }
  }
}

/// O(n^2) sequence-pair packing, straight from the definition: a module's x
/// is the largest right edge among modules before it in both sequences, its
/// y the largest top edge among modules after it in alpha and before it in
/// beta.
inline Placement referencePackSequencePair(const SequencePair& sp,
                                           std::span<const Coord> widths,
                                           std::span<const Coord> heights) {
  const std::size_t n = sp.size();
  std::vector<Coord> x(n, 0), y(n, 0);
  const std::vector<std::size_t>& alpha = sp.alpha();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t m = alpha[i];
    for (std::size_t j = 0; j < i; ++j) {
      const std::size_t k = alpha[j];
      if (sp.betaPos(k) < sp.betaPos(m)) x[m] = std::max(x[m], x[k] + widths[k]);
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t m = alpha[i];
    for (std::size_t j = n; --j > i;) {
      const std::size_t k = alpha[j];
      if (sp.betaPos(k) < sp.betaPos(m)) y[m] = std::max(y[m], y[k] + heights[k]);
    }
  }
  Placement out(n);
  for (std::size_t m = 0; m < n; ++m) out[m] = {x[m], y[m], widths[m], heights[m]};
  return out;
}

}  // namespace test_util
}  // namespace als
