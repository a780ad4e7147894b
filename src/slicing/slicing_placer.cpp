#include "slicing/slicing_placer.h"

#include <vector>

#include "anneal/session.h"

namespace als {

SlicingBackend::SlicingBackend(const Circuit& c, const Options& o,
                               Scratch& scratch)
    : circuit(c),
      options(o),
      w(c.moduleCount()),
      h(c.moduleCount()),
      rotatable(c.moduleCount()),
      // No symmetry handling in the slicing baseline: area + wirelength
      // (and, when weighted, thermal mismatch) only.
      model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                 .thermal = o.thermalWeight})),
      shapy(shapeMoveModules(c, o.shapeMoveProb)),
      scr(scratch) {
  for (std::size_t m = 0; m < c.moduleCount(); ++m) {
    w[m] = c.module(m).w;
    h[m] = c.module(m).h;
    rotatable[m] = c.module(m).rotatable;
  }
}

SlicingBackend::State SlicingBackend::initialState() const {
  const std::size_t n = circuit.moduleCount();
  return {PolishExpr::initial(n), std::vector<std::uint8_t>(n, 0)};
}

const Placement* SlicingBackend::decode(const State& s) {
  // Only shape move candidates are touched; w/h otherwise keep the
  // declared dims.  Turns are the evaluator's choice, so every footprint
  // here is unturned.  The best-area realization fills its root shape
  // exactly and is anchored at the origin, so the placement bounding box
  // IS the chosen shape.
  for (ModuleId m : shapy) {
    const ModuleShape f = circuit.module(m).footprint(s.shapeIdx[m], false);
    w[m] = f.w;
    h[m] = f.h;
  }
  return &evaluatePolish(s.expr, w, h, rotatable, options.shapeCap, scr)
              .placement;
}

void SlicingBackend::move(State& s, Rng& rng) const {
  if (!shapy.empty() && rng.uniform() < options.shapeMoveProb) {
    redrawShape(circuit, shapy, s.shapeIdx, rng);
    return;
  }
  s.expr.perturb(rng);
}

SlicingPlacerResult SlicingBackend::finish(State best) {
  // Re-decode the winner through the shared scratch: the state was already
  // evaluated during the loop, so the warm buffers cover it allocation-free
  // (a fresh local scratch would allocate a best-state-dependent amount,
  // breaking the steady-state zero-alloc contract).
  SlicingPlacerResult result;
  result.placement = *decode(best);
  return result;
}

SlicingPlacerResult placeSlicingSA(const Circuit& circuit,
                                   const SlicingPlacerOptions& options) {
  return AnnealSession<SlicingBackend>(circuit, options).finish();
}

}  // namespace als
