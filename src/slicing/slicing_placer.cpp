#include "slicing/slicing_placer.h"

#include <optional>
#include <utility>
#include <vector>

#include "anneal/annealer.h"
#include "cost/cost_model.h"
#include "slicing/polish.h"

namespace als {

namespace {

/// SA state: the Polish expression plus, when shape moves are on, the
/// chosen realization index per module (0 = declared footprint).
struct SlicingState {
  PolishExpr expr;
  std::vector<std::uint8_t> shapeIdx;
};

/// Decode: applies a state's chosen realizations to the shared dim buffers
/// (only modules with curves are touched; w/h otherwise keep the declared
/// dims), then derives the best-area realization of the slicing tree.  That
/// realization fills its root shape exactly and is anchored at the origin,
/// so the placement bounding box IS the chosen shape.  The returned pointer
/// aliases the scratch result buffer.
struct SlicingDecoder {
  const Circuit* circuit;
  SlicingScratch* scr;
  std::vector<Coord>* w;
  std::vector<Coord>* h;
  const std::vector<bool>* rotatable;
  const std::vector<ModuleId>* shapy;
  std::size_t shapeCap;
  bool shapeMoves;

  void applyShapes(const SlicingState& s) const {
    if (!shapeMoves) return;
    for (ModuleId m : *shapy) {
      const ModuleShape& shape = circuit->module(m).shapes[s.shapeIdx[m]];
      (*w)[m] = shape.w;
      (*h)[m] = shape.h;
    }
  }

  const Placement* operator()(const SlicingState& s) const {
    applyShapes(s);
    evaluatePolishInto(s.expr, *w, *h, *rotatable, shapeCap, scr->eval,
                       scr->result);
    return &scr->result.placement;
  }
};

/// The SA move as a named functor so the session can own it (same body and
/// RNG draws as the historical lambda in placeSlicingSA).
struct SlicingMove {
  const Circuit* circuit;
  const std::vector<ModuleId>* shapy;
  double shapeMoveProb;
  bool shapeMoves;

  void operator()(SlicingState& s, Rng& rng) const {
    if (shapeMoves && rng.uniform() < shapeMoveProb) {
      ModuleId m = (*shapy)[rng.index(shapy->size())];
      s.shapeIdx[m] = static_cast<std::uint8_t>(
          rng.index(circuit->module(m).shapes.size()));
      return;
    }
    s.expr.perturb(rng);
  }
};

}  // namespace

struct SlicingSession::Impl {
  using Cost = detail::DecodedCost<CostModel, SlicingDecoder>;
  using Driver = detail::AnnealDriver<SlicingState, Cost, SlicingMove>;

  const Circuit& circuit;
  SlicingPlacerOptions options;
  std::size_t n;
  std::vector<Coord> w, h;
  std::vector<bool> rotatable;
  CostModel model;
  std::vector<ModuleId> shapy;
  SlicingScratch localScratch;
  SlicingScratch& scr;
  SlicingDecoder decode;
  std::optional<Driver> driver;

  Impl(const Circuit& c, const SlicingPlacerOptions& o, double tempScale)
      : circuit(c),
        options(o),
        n(c.moduleCount()),
        w(n),
        h(n),
        rotatable(n),
        // No symmetry handling in the slicing baseline: area + wirelength
        // (and, when weighted, thermal mismatch) only.
        model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                   .thermal = o.thermalWeight})),
        scr(o.scratch ? *o.scratch : localScratch) {
    for (std::size_t m = 0; m < n; ++m) {
      w[m] = circuit.module(m).w;
      h[m] = circuit.module(m).h;
      rotatable[m] = circuit.module(m).rotatable;
    }
    // See bstar/flat_placer.cpp: shape moves only exist when asked for AND
    // some module carries a curve; disabled runs draw the historical RNG
    // stream and decode the declared footprints, bit for bit.
    for (ModuleId m = 0; m < n; ++m) {
      if (circuit.module(m).shapes.size() > 1) shapy.push_back(m);
    }
    const bool shapeMoves = options.shapeMoveProb > 0.0 && !shapy.empty();

    decode = SlicingDecoder{&circuit,  &scr,   &w,
                            &h,        &rotatable, &shapy,
                            options.shapeCap, shapeMoves};

    AnnealOptions annealOpt;
    annealOpt.maxSweeps = options.maxSweeps;
    annealOpt.seed = options.seed;
    annealOpt.coolingFactor = options.coolingFactor;
    annealOpt.movesPerTemp = options.movesPerTemp;
    annealOpt.sizeHint = n;
    annealOpt.cancel = options.cancel;
    SlicingState init{PolishExpr::initial(n),
                      std::vector<std::uint8_t>(n, 0)};
    driver.emplace(init, Cost{model, decode},
                   SlicingMove{&circuit, &shapy, options.shapeMoveProb,
                               shapeMoves},
                   annealOpt, tempScale);
  }
};

SlicingSession::SlicingSession(const Circuit& circuit,
                               const SlicingPlacerOptions& options,
                               double tempScale)
    : impl_(std::make_unique<Impl>(circuit, options, tempScale)) {}

SlicingSession::~SlicingSession() = default;

std::size_t SlicingSession::runSweeps(std::size_t maxSweeps) {
  return impl_->driver->runSweeps(maxSweeps);
}

void SlicingSession::run() { impl_->driver->run(); }

bool SlicingSession::finished() const { return impl_->driver->finished(); }

double SlicingSession::currentCost() const {
  return impl_->driver->currentCost();
}

double SlicingSession::bestCost() const { return impl_->driver->bestCost(); }

double SlicingSession::temperature() const {
  return impl_->driver->temperature();
}

void SlicingSession::exchangeWith(SlicingSession& other) {
  Impl::Driver::exchange(*impl_->driver, *other.impl_->driver);
}

const Placement& SlicingSession::bestPlacement() {
  const Placement* p = impl_->decode(impl_->driver->bestState());
  return *p;
}

bool SlicingSession::reseedFromPlacement(const Placement&) { return false; }

SlicingPlacerResult SlicingSession::finish() {
  AnnealResult<SlicingState> annealed = impl_->driver->finalize();
  SlicingScratch& scr = impl_->scr;

  // Re-decode the winner through the shared scratch: the state was already
  // evaluated during the loop, so the warm buffers cover it allocation-free
  // (a fresh local scratch would allocate a best-state-dependent amount,
  // breaking the steady-state zero-alloc contract).
  SlicingPlacerResult result;
  impl_->decode(annealed.best);
  result.placement = scr.result.placement;
  result.area = scr.result.area();
  result.hpwl = totalHpwl(result.placement, impl_->circuit.netPins());
  result.cost = annealed.bestCost;
  result.movesTried = annealed.movesTried;
  result.sweeps = annealed.sweeps;
  result.seconds = annealed.seconds;
  return result;
}

SlicingPlacerResult placeSlicingSA(const Circuit& circuit,
                                   const SlicingPlacerOptions& options) {
  SlicingSession session(circuit, options);
  return session.finish();
}

}  // namespace als
