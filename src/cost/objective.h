// The unified placement objective shared by every SA backend.
//
// Historically each backend hand-rolled the same cost lambda: bounding-box
// area plus a sqrt(module-area)-normalized wirelength term, plus whichever
// penalty terms its representation does not satisfy by construction
// (symmetry/proximity for the flat penalty placer, outline/aspect for the
// sequence-pair placer).  This header lifts both halves into one place:
//
//   * `ObjectiveWeights` — the raw, dimensionless knobs a caller sets
//     (EngineOptions carries the same fields and tools/als_place exposes
//     them as --wl/--sym/--prox);
//   * `Objective` — the scaled coefficients after the shared normalization
//     recipe, plus the exact composition order of the cost terms.
//
// The composition order is load-bearing: cost values are doubles composed
// from int64 geometry aggregates, and the evaluator (cost/cost_model.h)
// promises costs that are a *bit-identical* function of the placement.
// That only holds because every aggregate (area, HPWL,
// symmetry deviation, violation count) is an exact integer and the floating
// point composition below is a fixed sequence of operations.  Terms with a
// zero weight are skipped entirely, never evaluated — backends whose
// representation guarantees a constraint by construction simply leave its
// weight at zero and pay nothing for it.
#pragma once

#include "geom/rect.h"

namespace als {

class Circuit;

/// Raw (pre-normalization) objective weights.  Defaults are the historical
/// per-backend defaults; a zero weight disables its term.
struct ObjectiveWeights {
  double wirelength = 0.25;  ///< lambda_wl, scaled by sqrt(module area)
  double symmetry = 0.0;     ///< mirror-deviation penalty (flat placer: 2.0)
  double proximity = 0.0;    ///< disconnected-group penalty (flat placer: 2.0)
  double outline = 0.0;      ///< outline-excess penalty (seqpair: 4.0)
  double thermal = 0.0;      ///< pair temperature-mismatch penalty (Sec. II)
  Coord maxWidth = 0;        ///< 0 = unconstrained [DBU]
  Coord maxHeight = 0;       ///< 0 = unconstrained [DBU]
  double targetAspect = 0.0; ///< 0 = no aspect objective (w/h target)
};

/// Scaled objective: the weights after the shared normalization recipe
/// (`makeObjective`) plus the composition of a cost value from exact
/// integer aggregates.
struct Objective {
  double wlLambda = 0.0;       ///< wirelength * sqrt(totalModuleArea)
  double symLambda = 0.0;      ///< symmetry * sqrt(totalModuleArea)
  double proxLambda = 0.0;     ///< proximity * totalModuleArea * 0.1
  double outlineLambda = 0.0;  ///< outline * sqrt(totalModuleArea)
  double thermalLambda = 0.0;  ///< thermal * totalModuleArea * 1e-7 (per µK)
  Coord maxWidth = 0;
  Coord maxHeight = 0;
  double targetAspect = 0.0;
  /// Cost of states whose decoding fails (cannot happen for the feasible
  /// encodings the backends anneal, but the guard keeps annealers total).
  double infeasibleCost = 1e30;

  bool usesSymmetry() const { return symLambda != 0.0; }
  bool usesProximity() const { return proxLambda != 0.0; }
  bool usesThermal() const { return thermalLambda != 0.0; }

  /// Composes the cost double from exact integer aggregates.  `bb` is the
  /// placement bounding box, `hpwlSum` the total HPWL over all nets,
  /// `symDev` the total mirror deviation, `proxViolations` the number of
  /// disconnected proximity groups, `thermalMismatch` the total quantized
  /// (µK) pair temperature mismatch (thermal/thermal.h).  One fixed
  /// operation sequence — any two evaluators feeding it equal aggregates
  /// produce bit-equal costs.
  double compose(Rect bb, Coord hpwlSum, Coord symDev, int proxViolations,
                 Coord thermalMismatch = 0) const {
    double c = static_cast<double>(bb.area());
    c += wlLambda * static_cast<double>(hpwlSum);
    if (symLambda != 0.0) c += symLambda * static_cast<double>(symDev);
    if (proxLambda != 0.0) c += proxLambda * proxViolations;
    if (thermalLambda != 0.0) {
      c += thermalLambda * static_cast<double>(thermalMismatch);
    }
    if (maxWidth > 0 && bb.w > maxWidth) {
      c += outlineLambda * static_cast<double>(bb.w - maxWidth);
    }
    if (maxHeight > 0 && bb.h > maxHeight) {
      c += outlineLambda * static_cast<double>(bb.h - maxHeight);
    }
    if (targetAspect > 0.0 && bb.h > 0) {
      double aspect = static_cast<double>(bb.w) / static_cast<double>(bb.h);
      double ratio = aspect / targetAspect;
      double off = ratio > 1.0 ? ratio - 1.0 : 1.0 / ratio - 1.0;
      c += 0.5 * off * static_cast<double>(bb.area());
    }
    return c;
  }
};

/// The shared normalization recipe: wirelength/symmetry/outline weights
/// scale with sqrt(total module area) (the classic per-DBU gradient match
/// against the area term), the proximity weight with total module area
/// itself (a violation must dominate any area saving), and the thermal
/// weight with total module area times 1e-7 (kelvin-scale mismatches are
/// ~1e6 µK, so a unit thermal weight trades ~10% of the area term).
Objective makeObjective(const Circuit& circuit, const ObjectiveWeights& weights);

}  // namespace als
