#include "layoutaware/sizing.h"

#include <algorithm>
#include <cmath>

#include "anneal/annealer.h"
#include "util/stopwatch.h"

namespace als {

namespace {

/// Clamps the design vector into its box constraints (and the fold counts
/// into sensible integers).
FoldedCascodeDesign clamped(FoldedCascodeDesign d, const Technology& tech) {
  auto clampD = [](double v, double lo, double hi) {
    return std::min(hi, std::max(lo, v));
  };
  d.ib = clampD(d.ib, 40e-6, 1.2e-3);
  d.w1 = clampD(d.w1, 4e-6, 400e-6);
  d.wp = clampD(d.wp, 4e-6, 400e-6);
  d.wn = clampD(d.wn, 4e-6, 400e-6);
  d.l1 = clampD(d.l1, tech.minL, 4e-6);
  d.lp = clampD(d.lp, tech.minL, 4e-6);
  d.ln = clampD(d.ln, tech.minL, 4e-6);
  d.m1 = std::clamp(d.m1, 1, 16);
  d.mp = std::clamp(d.mp, 1, 16);
  d.mn = std::clamp(d.mn, 1, 16);
  return d;
}

}  // namespace

SizingResult runSizing(const Technology& tech, const OtaSpecs& specs,
                       const SizingOptions& options) {
  Stopwatch total;
  double extractSeconds = 0.0;
  std::size_t evaluations = 0;

  auto evaluate = [&](const FoldedCascodeDesign& d, bool withLayout,
                      TemplateLayout* layoutOut, OtaPerformance* perfOut) {
    ++evaluations;
    Parasitics par;  // zeros: the schematic-only view
    TemplateLayout layout;
    if (withLayout) {
      layout = generateFoldedCascodeLayout(tech, d);
      Stopwatch ex;
      par = extractParasitics(tech, d, layout);
      extractSeconds += ex.seconds();
    }
    OtaPerformance perf = evalFoldedCascode(tech, d, par);
    if (layoutOut) *layoutOut = layout;
    if (perfOut) *perfOut = perf;
    double cost = specViolation(perf, specs);
    if (withLayout) {
      // Geometrically-constrained sizing: aspect-ratio restriction plus an
      // area objective (normalized to a 200 um x 200 um reference).
      double ar = std::max(layout.aspectRatio(), 1.0 / std::max(layout.aspectRatio(), 1e-9));
      if (ar > options.maxAspectRatio) cost += (ar - options.maxAspectRatio);
      cost += options.areaWeight * layout.areaUm2() / (200.0 * 200.0);
    } else {
      // Power objective so the blind flow optimizes to the spec boundary —
      // the behaviour that makes pre-layout optimism fatal (cf. Fig. 10).
      cost += 0.08 * (d.ib / 1e-3);
    }
    return cost;
  };

  auto cost = [&](const FoldedCascodeDesign& d) {
    return evaluate(d, options.layoutAware, nullptr, nullptr);
  };

  auto move = [&](FoldedCascodeDesign& d, Rng& rng) {
    switch (rng.index(10)) {
      case 0: d.ib *= std::exp(rng.normal(0.0, 0.18)); break;
      case 1: d.w1 *= std::exp(rng.normal(0.0, 0.22)); break;
      case 2: d.wp *= std::exp(rng.normal(0.0, 0.22)); break;
      case 3: d.wn *= std::exp(rng.normal(0.0, 0.22)); break;
      case 4: d.l1 *= std::exp(rng.normal(0.0, 0.15)); break;
      case 5: d.lp *= std::exp(rng.normal(0.0, 0.15)); break;
      case 6: d.ln *= std::exp(rng.normal(0.0, 0.15)); break;
      case 7: d.m1 += static_cast<int>(rng.uniformInt(-2, 2)); break;
      case 8: d.mp += static_cast<int>(rng.uniformInt(-2, 2)); break;
      case 9: d.mn += static_cast<int>(rng.uniformInt(-2, 2)); break;
    }
    d = clamped(d, tech);
  };

  AnnealOptions annealOpt;
  annealOpt.seed = options.seed;
  // `iterations` is the deterministic budget (see kSizingAnnealSweeps).
  annealOpt.maxSweeps = kSizingAnnealSweeps;
  annealOpt.movesPerTemp =
      std::max<std::size_t>(options.iterations / kSizingAnnealSweeps, 10);
  annealOpt.coolingFactor = 0.94;
  FoldedCascodeDesign init = clamped(FoldedCascodeDesign{}, tech);
  auto annealed = anneal(init, cost, move, annealOpt);

  SizingResult result;
  result.design = annealed.best;
  result.layout = generateFoldedCascodeLayout(tech, result.design);

  // What the loop believed about its final answer...
  Parasitics none;
  result.perfSizing =
      options.layoutAware
          ? evalFoldedCascode(tech, result.design,
                              extractParasitics(tech, result.design, result.layout))
          : evalFoldedCascode(tech, result.design, none);
  result.violationSizing = specViolation(result.perfSizing, specs);

  // ...and the post-layout truth.
  Parasitics extracted = extractParasitics(tech, result.design, result.layout);
  result.perfExtracted = evalFoldedCascode(tech, result.design, extracted);
  result.violationExtracted = specViolation(result.perfExtracted, specs);
  result.meetsSpecsExtracted = result.violationExtracted <= 1e-9;

  result.seconds = total.seconds();
  result.extractSeconds = extractSeconds;
  result.extractShare =
      result.seconds > 0 ? extractSeconds / result.seconds : 0.0;
  result.evaluations = evaluations;
  return result;
}

}  // namespace als
