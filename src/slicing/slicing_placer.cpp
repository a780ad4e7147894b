#include "slicing/slicing_placer.h"

#include <vector>

#include "anneal/session.h"

namespace als {

SlicingBackend::SlicingBackend(const Circuit& c, const Options& o)
    : circuit(c),
      options(o),
      w(c.moduleCount()),
      h(c.moduleCount()),
      rotatable(c.moduleCount()),
      // No symmetry handling in the slicing baseline: area + wirelength
      // (and, when weighted, thermal mismatch) only.
      model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                 .thermal = o.thermalWeight})),
      scr(o.scratch ? *o.scratch : localScratch) {
  for (std::size_t m = 0; m < c.moduleCount(); ++m) {
    w[m] = c.module(m).w;
    h[m] = c.module(m).h;
    rotatable[m] = c.module(m).rotatable;
  }
  // See bstar/flat_placer.cpp: shape moves only exist when asked for AND
  // some module carries a curve; disabled runs draw the historical RNG
  // stream and decode the declared footprints, bit for bit.
  for (ModuleId m = 0; m < c.moduleCount(); ++m) {
    if (c.module(m).shapes.size() > 1) shapy.push_back(m);
  }
  shapeMoves = o.shapeMoveProb > 0.0 && !shapy.empty();
}

SlicingBackend::State SlicingBackend::initialState() const {
  const std::size_t n = circuit.moduleCount();
  return {PolishExpr::initial(n), std::vector<std::uint8_t>(n, 0)};
}

const Placement* SlicingBackend::decode(const State& s) {
  // Only modules with curves are touched; w/h otherwise keep the declared
  // dims.  The best-area realization fills its root shape exactly and is
  // anchored at the origin, so the placement bounding box IS the chosen
  // shape.
  if (shapeMoves) {
    for (ModuleId m : shapy) {
      const ModuleShape& shape = circuit.module(m).shapes[s.shapeIdx[m]];
      w[m] = shape.w;
      h[m] = shape.h;
    }
  }
  return &evaluatePolish(s.expr, w, h, rotatable, options.shapeCap, scr)
              .placement;
}

void SlicingBackend::move(State& s, Rng& rng) const {
  if (shapeMoves && rng.uniform() < options.shapeMoveProb) {
    ModuleId m = shapy[rng.index(shapy.size())];
    s.shapeIdx[m] = static_cast<std::uint8_t>(
        rng.index(circuit.module(m).shapes.size()));
    return;
  }
  s.expr.perturb(rng);
}

SlicingPlacerResult SlicingBackend::finish(AnnealResult<State> annealed) {
  // Re-decode the winner through the shared scratch: the state was already
  // evaluated during the loop, so the warm buffers cover it allocation-free
  // (a fresh local scratch would allocate a best-state-dependent amount,
  // breaking the steady-state zero-alloc contract).
  SlicingPlacerResult result;
  decode(annealed.best);
  result.placement = scr.result.placement;
  result.area = scr.result.area();
  result.hpwl = totalHpwl(result.placement, circuit.netPins());
  result.cost = annealed.bestCost;
  result.movesTried = annealed.movesTried;
  result.sweeps = annealed.sweeps;
  result.seconds = annealed.seconds;
  return result;
}

SlicingPlacerResult placeSlicingSA(const Circuit& circuit,
                                   const SlicingPlacerOptions& options) {
  return AnnealSession<SlicingBackend>(circuit, options).finish();
}

}  // namespace als
