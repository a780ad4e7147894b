#include "seqpair/sa_placer.h"

#include <utility>
#include <vector>

#include "anneal/session.h"

namespace als {

namespace {

std::vector<bool> rotatableMask(const Circuit& circuit) {
  std::vector<bool> mask(circuit.moduleCount());
  for (std::size_t m = 0; m < mask.size(); ++m) {
    mask[m] = circuit.module(m).rotatable;
  }
  return mask;
}

}  // namespace

SeqPairBackend::SeqPairBackend(const Circuit& c, const Options& o)
    : circuit(c),
      groups(c.symmetryGroups()),
      moves(groups, rotatableMask(c), o.enableRepairMoves),
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
      // move set preserves S-F); the hot path drops it (debug builds still
      // assert).
      buildOpts{.verify = false},
      merged(mergedGroup(groups)) {}

SeqPairState SeqPairBackend::initialState() const {
  const std::size_t n = circuit.moduleCount();
  SeqPairState init{SequencePair(n), std::vector<bool>(n, false)};
  makeSymmetricFeasible(init.sp, groups);
  return init;
}

const Placement* SeqPairBackend::decode(const State& s) {
  const std::size_t n = circuit.moduleCount();
  scr.w.resize(n);
  scr.h.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    const Module& mod = circuit.module(m);
    scr.w[m] = s.rotated[m] ? mod.h : mod.w;
    scr.h[m] = s.rotated[m] ? mod.w : mod.h;
  }
  // Island layouts are cached on the scratch across moves
  // (seqpair/sym_placer.h); the LCS packs and the cost reduction run over
  // the whole placement.  Decode failure (a non-S-F code) maps to the
  // objective's infeasible cost — cannot happen for the move set here, but
  // keeps the annealer total if it ever does.
  if (!buildSymmetricPlacementInto(s.sp, scr.w, scr.h, groups, buildOpts,
                                   scr.sym, scr.result)) {
    return nullptr;
  }
  return &scr.result.placement;
}

void SeqPairBackend::reseed(State& s, const Placement& placement) {
  sequencePairFromPlacement(placement, reseedScratch, s.sp);
  // Recover rotations from the rect dims (square modules stay unrotated —
  // deterministic either way), then force mirror partners consistent: the
  // symmetric construction realizes a pair with ONE orientation choice, and
  // inconsistent flags would silently change the b-cell's footprint.
  for (std::size_t m = 0; m < circuit.moduleCount(); ++m) {
    const Module& mod = circuit.module(m);
    const Rect& r = placement[m];
    s.rotated[m] = mod.rotatable && !(r.w == mod.w && r.h == mod.h) &&
                   r.w == mod.h && r.h == mod.w;
  }
  for (const SymmetryGroup& g : groups) {
    for (const SymPair& p : g.pairs) s.rotated[p.b] = s.rotated[p.a];
  }
  // The diagonal order knows nothing of property (1); re-seat beta so the
  // seed is symmetric-feasible before the move set (which preserves S-F)
  // takes over.
  makeSymmetricFeasibleInPlace(s.sp, merged, symScratch);
}

SeqPairPlacerResult SeqPairBackend::finish(State best) {
  const std::size_t n = circuit.moduleCount();
  SeqPairPlacerResult result;
  scr.w.resize(n);
  scr.h.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    const Module& mod = circuit.module(m);
    scr.w[m] = best.rotated[m] ? mod.h : mod.w;
    scr.h[m] = best.rotated[m] ? mod.w : mod.h;
  }
  auto built = buildSymmetricPlacement(best.sp, scr.w, scr.h, groups);
  if (built) {
    result.placement = std::move(built->placement);
    result.axis2x = std::move(built->axis2x);
  }
  result.code = std::move(best.sp);
  return result;
}

SeqPairPlacerResult placeSeqPairSA(const Circuit& circuit,
                                   const SeqPairPlacerOptions& options) {
  return AnnealSession<SeqPairBackend>(circuit, options).finish();
}

}  // namespace als
