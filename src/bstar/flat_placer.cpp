#include "bstar/flat_placer.h"

#include <vector>

#include "anneal/session.h"

namespace als {

FlatBStarBackend::FlatBStarBackend(const Circuit& c, const Options& o)
    : circuit(c),
      options(o),
      model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                 .symmetry = o.symmetryWeight,
                                 .proximity = o.proximityWeight,
                                 .thermal = o.thermalWeight})),
      scr(o.scratch ? *o.scratch : localScratch) {
  // Shape moves only exist when asked for AND some module carries a curve;
  // otherwise the move draws exactly the historical RNG stream and every
  // decode reads the declared footprint — bit-identical to builds that
  // predate shape selection.
  for (ModuleId m = 0; m < c.moduleCount(); ++m) {
    if (c.module(m).shapes.size() > 1) shapy.push_back(m);
  }
  shapeMoves = o.shapeMoveProb > 0.0 && !shapy.empty();
}

FlatBStarBackend::State FlatBStarBackend::initialState() const {
  const std::size_t n = circuit.moduleCount();
  return {BStarTree(n), std::vector<bool>(n, false),
          std::vector<std::uint8_t>(n, 0)};
}

const Placement* FlatBStarBackend::decode(const State& s) {
  const std::size_t n = circuit.moduleCount();
  scr.w.resize(n);
  scr.h.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    const Module& mod = circuit.module(m);
    Coord bw = mod.w, bh = mod.h;
    if (std::uint8_t si = s.shapeIdx[m]; si != 0) {
      bw = mod.shapes[si].w;
      bh = mod.shapes[si].h;
    }
    scr.w[m] = s.rotated[m] ? bh : bw;
    scr.h[m] = s.rotated[m] ? bw : bh;
  }
  packBStarInto(s.tree, scr.w, scr.h, scr.pack, scr.placement);
  return &scr.placement;
}

void FlatBStarBackend::move(State& s, Rng& rng) const {
  if (shapeMoves && rng.uniform() < options.shapeMoveProb) {
    ModuleId m = shapy[rng.index(shapy.size())];
    s.shapeIdx[m] = static_cast<std::uint8_t>(
        rng.index(circuit.module(m).shapes.size()));
    return;
  }
  if (rng.uniform() < 0.15) {
    std::size_t m = rng.index(circuit.moduleCount());
    if (circuit.module(m).rotatable) s.rotated[m] = !s.rotated[m];
  } else {
    s.tree.perturb(rng);
  }
}

void FlatBStarBackend::reseed(State& s, const Placement& placement) {
  bstarFromPlacement(placement, reseedScratch, s.tree);
  // Recover orientation / shape choice per module from the rect dims:
  // first matching realization wins (0 = declared footprint), rotation
  // when the transposed dims match instead.  Degenerate (square) modules
  // keep the unrotated reading — deterministic either way.
  for (std::size_t m = 0; m < circuit.moduleCount(); ++m) {
    const Module& mod = circuit.module(m);
    const Rect& r = placement[m];
    s.rotated[m] = false;
    s.shapeIdx[m] = 0;
    if (r.w == mod.w && r.h == mod.h) continue;
    if (mod.rotatable && r.w == mod.h && r.h == mod.w) {
      s.rotated[m] = true;
      continue;
    }
    for (std::size_t si = 1; si < mod.shapes.size(); ++si) {
      if (r.w == mod.shapes[si].w && r.h == mod.shapes[si].h) {
        s.shapeIdx[m] = static_cast<std::uint8_t>(si);
        break;
      }
    }
  }
}

FlatBStarResult FlatBStarBackend::finish(State best) {
  FlatBStarResult result;
  result.placement = *decode(best);
  CostBreakdown breakdown = model.evaluateBreakdown(result.placement);
  result.symDeviation = breakdown.symDeviation;
  result.proximityViolations = breakdown.proximityViolations;
  return result;
}

FlatBStarResult placeFlatBStarSA(const Circuit& circuit,
                                 const FlatBStarOptions& options) {
  return AnnealSession<FlatBStarBackend>(circuit, options).finish();
}

}  // namespace als
