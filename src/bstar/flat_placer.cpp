#include "bstar/flat_placer.h"

#include <vector>

#include "anneal/session.h"

namespace als {

FlatBStarBackend::FlatBStarBackend(const Circuit& c, const Options& o,
                                   Scratch& scratch)
    : circuit(c),
      options(o),
      model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                 .symmetry = o.symmetryWeight,
                                 .proximity = o.proximityWeight,
                                 .thermal = o.thermalWeight})),
      shapy(shapeMoveModules(c, o.shapeMoveProb)),
      scr(scratch) {}

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
    const ModuleShape f =
        circuit.module(m).footprint(s.shapeIdx[m], s.rotated[m]);
    scr.w[m] = f.w;
    scr.h[m] = f.h;
  }
  packBStarInto(s.tree, scr.w, scr.h, scr.pack, scr.placement);
  return &scr.placement;
}

void FlatBStarBackend::move(State& s, Rng& rng) const {
  if (!shapy.empty() && rng.uniform() < options.shapeMoveProb) {
    redrawShape(circuit, shapy, s.shapeIdx, rng);
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
  for (std::size_t m = 0; m < circuit.moduleCount(); ++m) {
    const ModuleChoice choice = circuit.module(m).choiceOf(placement[m]);
    s.rotated[m] = choice.turned;
    s.shapeIdx[m] = choice.shape;
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
