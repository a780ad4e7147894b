#include "seqpair/absolute_placer.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "anneal/annealer.h"

namespace als {

namespace {

struct AbsState {
  std::vector<Rect> rects;
  std::vector<bool> rotated;
};

Coord pairwiseOverlapArea(const std::vector<Rect>& rects) {
  Coord total = 0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      const Rect& a = rects[i];
      const Rect& b = rects[j];
      Coord ox = std::min(a.xhi(), b.xhi()) - std::max(a.xlo(), b.xlo());
      Coord oy = std::min(a.yhi(), b.yhi()) - std::max(a.ylo(), b.ylo());
      if (ox > 0 && oy > 0) total += ox * oy;
    }
  }
  return total;
}

/// Mirror deviation of all groups, in DBU: per group the axis is estimated
/// as the mean doubled pair/self center, then per-member center and
/// y-alignment deviations are accumulated.
Coord symmetryDeviation(const std::vector<Rect>& rects,
                        std::span<const SymmetryGroup> groups) {
  Coord total = 0;
  for (const SymmetryGroup& g : groups) {
    std::size_t terms = g.pairs.size() + g.selfs.size();
    if (terms == 0) continue;
    // Doubled axis estimate (2 * axis).
    Coord axis2Sum = 0;
    for (const SymPair& p : g.pairs) {
      axis2Sum += (rects[p.a].center2x().x + rects[p.b].center2x().x) / 2;
    }
    for (ModuleId s : g.selfs) axis2Sum += rects[s].center2x().x;
    Coord axis2 = axis2Sum / static_cast<Coord>(terms);
    for (const SymPair& p : g.pairs) {
      Coord mirror = rects[p.a].center2x().x + rects[p.b].center2x().x - 2 * axis2;
      total += std::abs(mirror) / 2;
      total += std::abs(rects[p.a].y - rects[p.b].y);
    }
    for (ModuleId s : g.selfs) {
      total += std::abs(rects[s].center2x().x - axis2) / 2;
    }
  }
  return total;
}

}  // namespace

AbsolutePlacerResult placeAbsoluteSA(const Circuit& circuit,
                                     const AbsolutePlacerOptions& options) {
  const std::size_t n = circuit.moduleCount();
  const auto groups = std::span<const SymmetryGroup>(circuit.symmetryGroups());
  const auto nets = circuit.netPins();

  // Initial configuration: a roughly square grid of cells.
  AbsState init;
  init.rects.resize(n);
  init.rotated.assign(n, false);
  {
    std::size_t cols = static_cast<std::size_t>(std::ceil(std::sqrt(double(n))));
    Coord maxW = 0, maxH = 0;
    for (std::size_t m = 0; m < n; ++m) {
      maxW = std::max(maxW, circuit.module(m).w);
      maxH = std::max(maxH, circuit.module(m).h);
    }
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      init.rects[m] = {static_cast<Coord>(m % cols) * maxW,
                       static_cast<Coord>(m / cols) * maxH, mod.w, mod.h};
    }
  }

  const double wlLambda =
      options.wirelengthWeight *
      std::sqrt(static_cast<double>(circuit.totalModuleArea()));
  const double symLambda =
      options.symmetryWeight *
      std::sqrt(static_cast<double>(circuit.totalModuleArea()));
  Coord span = init.rects.empty() ? 1 : Placement(init.rects).boundingBox().w + 1;

  auto cost = [&](const AbsState& s) {
    Placement p(s.rects);
    double c = static_cast<double>(p.boundingBox().area());
    c += wlLambda * static_cast<double>(totalHpwl(p, nets));
    c += options.overlapWeight * static_cast<double>(pairwiseOverlapArea(s.rects));
    c += symLambda * static_cast<double>(symmetryDeviation(s.rects, groups));
    return c;
  };

  auto move = [&](AbsState& s, Rng& rng) {
    double r = rng.uniform();
    if (r < 0.6) {  // translate one cell
      std::size_t m = rng.index(n);
      Coord dx = rng.uniformInt(-span / 4, span / 4);
      Coord dy = rng.uniformInt(-span / 4, span / 4);
      s.rects[m] = s.rects[m].translated(dx, dy);
    } else if (r < 0.9 && n >= 2) {  // swap two cell origins
      std::size_t a = rng.index(n), b = rng.index(n);
      std::swap(s.rects[a].x, s.rects[b].x);
      std::swap(s.rects[a].y, s.rects[b].y);
    } else {  // rotate
      std::size_t m = rng.index(n);
      if (circuit.module(m).rotatable) {
        s.rects[m] = s.rects[m].rotated90();
        s.rotated[m] = !s.rotated[m];
      }
    }
  };

  auto annealed = annealWithRestarts(init, cost, move,
                                     annealOptionsOf(options, n));

  AbsolutePlacerResult result;
  result.placement = Placement(annealed.best.rects);
  result.placement.normalize();
  result.overlapArea = pairwiseOverlapArea(annealed.best.rects);
  result.symViolation = symmetryDeviation(annealed.best.rects, groups);
  result.feasible = result.overlapArea == 0 && result.symViolation == 0;
  stampRunRecord(result, annealed, circuit);
  return result;
}

}  // namespace als
