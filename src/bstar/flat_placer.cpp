#include "bstar/flat_placer.h"

#include <utility>
#include <vector>

#include "anneal/annealer.h"
#include "bstar/bstar_tree.h"
#include "bstar/from_placement.h"
#include "bstar/pack.h"
#include "cost/cost_model.h"

namespace als {

namespace {

struct FlatState {
  BStarTree tree;
  std::vector<bool> rotated;
  std::vector<std::uint8_t> shapeIdx;  ///< index into Module::shapes (0 = footprint)
};

/// Decode = dims + full pack, entirely into the scratch buffers; the
/// returned pointer aliases scr.placement, which the cost model reduces
/// in full on every move (see anneal/annealer.h's DecodedCost).
struct FlatDecoder {
  const Circuit& circuit;
  FlatBStarScratch& scr;
  std::size_t n;

  const Placement* operator()(const FlatState& s) {
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
};

/// The SA move as a named functor so the session can own it (same body and
/// RNG draws as the historical lambda in placeFlatBStarSA).
struct FlatMove {
  const Circuit* circuit;
  const std::vector<ModuleId>* shapy;
  double shapeMoveProb;
  bool shapeMoves;
  std::size_t n;

  void operator()(FlatState& s, Rng& rng) const {
    if (shapeMoves && rng.uniform() < shapeMoveProb) {
      ModuleId m = (*shapy)[rng.index(shapy->size())];
      s.shapeIdx[m] = static_cast<std::uint8_t>(
          rng.index(circuit->module(m).shapes.size()));
      return;
    }
    if (rng.uniform() < 0.15) {
      std::size_t m = rng.index(n);
      if (circuit->module(m).rotatable) s.rotated[m] = !s.rotated[m];
    } else {
      s.tree.perturb(rng);
    }
  }
};

}  // namespace

struct FlatBStarSession::Impl {
  using Cost = detail::DecodedCost<CostModel, FlatDecoder>;
  using Driver = detail::AnnealDriver<FlatState, Cost, FlatMove>;

  const Circuit& circuit;
  FlatBStarOptions options;
  std::size_t n;
  CostModel model;
  std::vector<ModuleId> shapy;
  FlatBStarScratch localScratch;
  FlatBStarScratch& scr;
  FlatDecoder decode;
  std::optional<Driver> driver;
  // Cross-backend reseed buffers (warm after the first reseed).
  BStarFromPlacementScratch reseedScratch;

  Impl(const Circuit& c, const FlatBStarOptions& o, double tempScale)
      : circuit(c),
        options(o),
        n(c.moduleCount()),
        model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                   .symmetry = o.symmetryWeight,
                                   .proximity = o.proximityWeight,
                                   .thermal = o.thermalWeight})),
        scr(o.scratch ? *o.scratch : localScratch),
        decode{c, scr, n} {
    // Shape moves only exist when asked for AND some module carries a
    // curve; otherwise the move draws exactly the historical RNG stream and
    // every decode reads the declared footprint — bit-identical to builds
    // that predate shape selection.
    for (ModuleId m = 0; m < n; ++m) {
      if (circuit.module(m).shapes.size() > 1) shapy.push_back(m);
    }
    const bool shapeMoves = options.shapeMoveProb > 0.0 && !shapy.empty();

    AnnealOptions annealOpt;
    annealOpt.maxSweeps = options.maxSweeps;
    annealOpt.seed = options.seed;
    annealOpt.coolingFactor = options.coolingFactor;
    annealOpt.movesPerTemp = options.movesPerTemp;
    annealOpt.sizeHint = n;
    annealOpt.cancel = options.cancel;
    FlatState init{BStarTree(n), std::vector<bool>(n, false),
                   std::vector<std::uint8_t>(n, 0)};
    driver.emplace(init, Cost{model, decode},
                   FlatMove{&circuit, &shapy, options.shapeMoveProb,
                            shapeMoves, n},
                   annealOpt, tempScale);
  }
};

FlatBStarSession::FlatBStarSession(const Circuit& circuit,
                                   const FlatBStarOptions& options,
                                   double tempScale)
    : impl_(std::make_unique<Impl>(circuit, options, tempScale)) {}

FlatBStarSession::~FlatBStarSession() = default;

std::size_t FlatBStarSession::runSweeps(std::size_t maxSweeps) {
  return impl_->driver->runSweeps(maxSweeps);
}

void FlatBStarSession::run() { impl_->driver->run(); }

bool FlatBStarSession::finished() const { return impl_->driver->finished(); }

double FlatBStarSession::currentCost() const {
  return impl_->driver->currentCost();
}

double FlatBStarSession::bestCost() const { return impl_->driver->bestCost(); }

double FlatBStarSession::temperature() const {
  return impl_->driver->temperature();
}

void FlatBStarSession::exchangeWith(FlatBStarSession& other) {
  Impl::Driver::exchange(*impl_->driver, *other.impl_->driver);
}

const Placement& FlatBStarSession::bestPlacement() {
  const Placement* p = impl_->decode(impl_->driver->bestState());
  return *p;
}

bool FlatBStarSession::reseedFromPlacement(const Placement& placement) {
  if (placement.size() != impl_->n) return false;
  FlatState& s = impl_->driver->currentState();
  bstarFromPlacement(placement, impl_->reseedScratch, s.tree);
  // Recover orientation / shape choice per module from the rect dims:
  // first matching realization wins (0 = declared footprint), rotation
  // when the transposed dims match instead.  Degenerate (square) modules
  // keep the unrotated reading — deterministic either way.
  for (std::size_t m = 0; m < impl_->n; ++m) {
    const Module& mod = impl_->circuit.module(m);
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
  impl_->driver->reanchor();
  return true;
}

FlatBStarResult FlatBStarSession::finish() {
  AnnealResult<FlatState> annealed = impl_->driver->finalize();
  FlatBStarResult result;
  result.placement = *impl_->decode(annealed.best);
  CostBreakdown breakdown = impl_->model.evaluateBreakdown(result.placement);
  result.area = breakdown.area;
  result.hpwl = breakdown.hpwl;
  result.symDeviation = breakdown.symDeviation;
  result.proximityViolations = breakdown.proximityViolations;
  result.cost = annealed.bestCost;
  result.movesTried = annealed.movesTried;
  result.sweeps = annealed.sweeps;
  result.seconds = annealed.seconds;
  return result;
}

FlatBStarResult placeFlatBStarSA(const Circuit& circuit,
                                 const FlatBStarOptions& options) {
  FlatBStarSession session(circuit, options);
  return session.finish();
}

}  // namespace als
