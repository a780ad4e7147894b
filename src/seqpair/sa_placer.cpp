#include "seqpair/sa_placer.h"

#include <optional>
#include <utility>
#include <vector>

#include "anneal/annealer.h"
#include "cost/cost_model.h"
#include "seqpair/from_placement.h"
#include "seqpair/moves.h"
#include "seqpair/symmetry.h"

namespace als {

namespace {

/// Decode = dims + symmetric construction into the scratch buffers; the
/// returned pointer aliases scr.result.placement.  Island layouts are
/// cached on the scratch across moves (seqpair/sym_placer.h); the LCS packs
/// and the cost reduction run over the whole placement.
struct SeqPairDecoder {
  const Circuit& circuit;
  std::span<const SymmetryGroup> groups;
  SeqPairScratch& scr;
  std::size_t n;
  SymBuildOptions buildOpts;

  const Placement* operator()(const SeqPairState& s) {
    scr.w.resize(n);
    scr.h.resize(n);
    for (std::size_t m = 0; m < n; ++m) {
      const Module& mod = circuit.module(m);
      scr.w[m] = s.rotated[m] ? mod.h : mod.w;
      scr.h[m] = s.rotated[m] ? mod.w : mod.h;
    }
    // Decode failure (a non-S-F code) maps to the objective's infeasible
    // cost — cannot happen for the move set here, but keeps the annealer
    // total if it ever does.
    if (!buildSymmetricPlacementInto(s.sp, scr.w, scr.h, groups, buildOpts,
                                     scr.sym, scr.result)) {
      return nullptr;
    }
    return &scr.result.placement;
  }
};

/// The SA move as a named functor so the session can own it (same body and
/// RNG draws as the historical lambda in placeSeqPairSA).
struct SeqPairMove {
  SymmetricMoveSet* moves;
  void operator()(SeqPairState& s, Rng& rng) const { moves->apply(s, rng); }
};

std::vector<bool> rotatableMask(const Circuit& circuit) {
  std::vector<bool> mask(circuit.moduleCount());
  for (std::size_t m = 0; m < mask.size(); ++m) {
    mask[m] = circuit.module(m).rotatable;
  }
  return mask;
}

}  // namespace

struct SeqPairSession::Impl {
  using Cost = detail::DecodedCost<CostModel, SeqPairDecoder>;
  using Driver = detail::AnnealDriver<SeqPairState, Cost, SeqPairMove>;

  const Circuit& circuit;
  SeqPairPlacerOptions options;
  std::size_t n;
  std::span<const SymmetryGroup> groups;
  std::vector<bool> rotatable;
  SymmetricMoveSet moves;
  CostModel model;
  SeqPairScratch localScratch;
  SeqPairScratch& scr;
  SeqPairDecoder decode;
  std::optional<Driver> driver;
  // Cross-backend reseed buffers (warm after the first reseed).
  SeqPairFromPlacementScratch reseedScratch;
  SymmetryGroup merged;
  SymFeasibleScratch symScratch;

  Impl(const Circuit& c, const SeqPairPlacerOptions& o, double tempScale)
      : circuit(c),
        options(o),
        n(c.moduleCount()),
        groups(c.symmetryGroups()),
        rotatable(rotatableMask(c)),
        moves(groups, rotatable, o.enableRepairMoves),
        // Symmetry holds by construction in every S-F code, so the objective
        // carries no symmetry/proximity penalty — only the geometric terms
        // plus, when weighted, thermal pair mismatch (geometry-exact symmetry
        // does NOT make it zero: radiators off the axis still split a pair
        // thermally).
        model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                   .outline = o.outlineWeight,
                                   .thermal = o.thermalWeight,
                                   .maxWidth = o.maxWidth,
                                   .maxHeight = o.maxHeight,
                                   .targetAspect = o.targetAspect})),
        scr(o.scratch ? *o.scratch : localScratch),
        // The O(n^2) verification is a no-op on every reachable code (the
        // move set preserves S-F); the hot path drops it (debug builds
        // still assert).
        decode{c, groups, scr, n, SymBuildOptions{.verify = false}},
        merged(mergedGroup(groups)) {
    SeqPairState init{SequencePair(n), std::vector<bool>(n, false)};
    makeSymmetricFeasible(init.sp, groups);

    AnnealOptions annealOpt;
    annealOpt.maxSweeps = options.maxSweeps;
    annealOpt.seed = options.seed;
    annealOpt.coolingFactor = options.coolingFactor;
    annealOpt.movesPerTemp = options.movesPerTemp;
    annealOpt.sizeHint = n;
    annealOpt.cancel = options.cancel;
    driver.emplace(init, Cost{model, decode}, SeqPairMove{&moves}, annealOpt,
                   tempScale);
  }
};

SeqPairSession::SeqPairSession(const Circuit& circuit,
                               const SeqPairPlacerOptions& options,
                               double tempScale)
    : impl_(std::make_unique<Impl>(circuit, options, tempScale)) {}

SeqPairSession::~SeqPairSession() = default;

std::size_t SeqPairSession::runSweeps(std::size_t maxSweeps) {
  return impl_->driver->runSweeps(maxSweeps);
}

void SeqPairSession::run() { impl_->driver->run(); }

bool SeqPairSession::finished() const { return impl_->driver->finished(); }

double SeqPairSession::currentCost() const {
  return impl_->driver->currentCost();
}

double SeqPairSession::bestCost() const { return impl_->driver->bestCost(); }

double SeqPairSession::temperature() const {
  return impl_->driver->temperature();
}

void SeqPairSession::exchangeWith(SeqPairSession& other) {
  Impl::Driver::exchange(*impl_->driver, *other.impl_->driver);
}

const Placement& SeqPairSession::bestPlacement() {
  const Placement* p = impl_->decode(impl_->driver->bestState());
  return *p;
}

bool SeqPairSession::reseedFromPlacement(const Placement& placement) {
  if (placement.size() != impl_->n) return false;
  SeqPairState& s = impl_->driver->currentState();
  sequencePairFromPlacement(placement, impl_->reseedScratch, s.sp);
  // Recover rotations from the rect dims (square modules stay unrotated —
  // deterministic either way), then force mirror partners consistent: the
  // symmetric construction realizes a pair with ONE orientation choice, and
  // inconsistent flags would silently change the b-cell's footprint.
  for (std::size_t m = 0; m < impl_->n; ++m) {
    const Module& mod = impl_->circuit.module(m);
    const Rect& r = placement[m];
    s.rotated[m] = mod.rotatable && !(r.w == mod.w && r.h == mod.h) &&
                   r.w == mod.h && r.h == mod.w;
  }
  for (const SymmetryGroup& g : impl_->groups) {
    for (const SymPair& p : g.pairs) s.rotated[p.b] = s.rotated[p.a];
  }
  // The diagonal order knows nothing of property (1); re-seat beta so the
  // seed is symmetric-feasible before the move set (which preserves S-F)
  // takes over.
  makeSymmetricFeasibleInPlace(s.sp, impl_->merged, impl_->symScratch);
  impl_->driver->reanchor();
  return true;
}

SeqPairPlacerResult SeqPairSession::finish() {
  AnnealResult<SeqPairState> annealed = impl_->driver->finalize();
  SeqPairScratch& scr = impl_->scr;
  const std::size_t n = impl_->n;

  SeqPairPlacerResult result;
  scr.w.resize(n);
  scr.h.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    const Module& mod = impl_->circuit.module(m);
    scr.w[m] = annealed.best.rotated[m] ? mod.h : mod.w;
    scr.h[m] = annealed.best.rotated[m] ? mod.w : mod.h;
  }
  auto built = buildSymmetricPlacement(annealed.best.sp, scr.w, scr.h,
                                       impl_->groups);
  if (built) {
    result.placement = std::move(built->placement);
    result.axis2x = std::move(built->axis2x);
  }
  result.code = annealed.best.sp;
  result.area = result.placement.boundingBox().area();
  result.hpwl = totalHpwl(result.placement, impl_->circuit.netPins());
  result.cost = annealed.bestCost;
  result.movesTried = annealed.movesTried;
  result.sweeps = annealed.sweeps;
  result.seconds = annealed.seconds;
  return result;
}

SeqPairPlacerResult placeSeqPairSA(const Circuit& circuit,
                                   const SeqPairPlacerOptions& options) {
  SeqPairSession session(circuit, options);
  return session.finish();
}

}  // namespace als
