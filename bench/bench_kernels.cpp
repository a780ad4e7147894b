// Experiment E4 — kernel micro-benchmarks (google-benchmark).
//
// These benchmarks measure the library's sequence-pair packing kernel (the
// Fenwick LCS sweep, O(n log n)) across module counts, plus the B*-tree
// contour packer, the symmetric placement builder and the cost model.
#include <benchmark/benchmark.h>

#include "bstar/pack.h"
#include "cost/cost_model.h"
#include "netlist/generators.h"
#include "seqpair/packer.h"
#include "seqpair/sym_placer.h"
#include "seqpair/symmetry.h"

namespace als {
namespace {

Circuit circuitOf(std::size_t n) {
  return makeSynthetic({.name = "bench", .moduleCount = n, .seed = 99});
}

void BM_SeqPairPackFenwick(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(1);
  SequencePair sp = SequencePair::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packSequencePair(sp, w, h));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeqPairPackFenwick)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_SymmetricPlacementBuild(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = makeSynthetic(
      {.name = "sym", .moduleCount = n, .seed = 7, .symmetricFraction = 0.6});
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(2);
  SequencePair sp = SequencePair::random(n, rng);
  makeSymmetricFeasible(sp, c.symmetryGroups());
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildSymmetricPlacement(sp, w, h, c.symmetryGroups()));
  }
}
BENCHMARK(BM_SymmetricPlacementBuild)->RangeMultiplier(2)->Range(16, 128);

void BM_BStarContourPack(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(3);
  BStarTree t = BStarTree::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packBStar(t, w, h));
  }
}
BENCHMARK(BM_BStarContourPack)->RangeMultiplier(2)->Range(16, 512);

// --- per-move decode kernels: the decode cost under the SA move mix -------
//
// These drive the same kernels the placers' hot loops use: each iteration
// applies one SA-style perturbation and re-decodes on a warm scratch with a
// full pack — the flat B*-tree placer's repack and the sequence-pair
// placer's two LCS sweeps (bench_decode --scaling reports the move rates
// end to end, with cost evaluation and accept/reject included).

void BM_BStarPackPerturbed(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(3);
  BStarTree t = BStarTree::random(n, rng);
  BStarPackScratch scratch;
  Placement out;
  for (auto _ : state) {
    t.perturb(rng);
    packBStarInto(t, w, h, scratch, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BStarPackPerturbed)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_SeqPairPackPerturbed(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Circuit c = circuitOf(n);
  std::vector<Coord> w, h;
  for (const Module& m : c.modules()) {
    w.push_back(m.w);
    h.push_back(m.h);
  }
  Rng rng(1);
  SequencePair sp = SequencePair::random(n, rng);
  SeqPairPackScratch scratch;
  Placement out;
  for (auto _ : state) {
    // The placer's structural move: swap two positions in one sequence.
    std::size_t i = rng.index(n), j = rng.index(n);
    if (rng.index(2) == 0) {
      sp.swapAlphaAt(i, j);
    } else {
      sp.swapBetaAt(i, j);
    }
    packSequencePairInto(sp, w, h, PackStrategy::Auto, scratch, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeqPairPackPerturbed)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

// --- cost-kernel benchmark: one evaluation per move ----------------------
//
// The flat penalty placer's full objective mix (area + wirelength +
// symmetry + proximity) under a single-module move pattern: every move
// reduces the whole placement.

struct CostBenchFixture {
  Circuit circuit;
  CostModel model;
  Placement placement;

  explicit CostBenchFixture(std::size_t n)
      : circuit(makeSynthetic({.name = "cost",
                               .moduleCount = n,
                               .seed = 23,
                               .symmetricFraction = 0.5})),
        model(circuit, makeObjective(circuit, {.wirelength = 0.25,
                                               .symmetry = 2.0,
                                               .proximity = 2.0})) {
    std::vector<Coord> w, h;
    for (const Module& m : circuit.modules()) {
      w.push_back(m.w);
      h.push_back(m.h);
    }
    Rng rng(7);
    placement = packBStar(BStarTree::random(n, rng), w, h);
  }

  /// Displaces one random module by up to a micrometre.
  void mutate(Rng& rng) {
    std::size_t m = rng.index(placement.size());
    Coord dx = (static_cast<Coord>(rng.index(3)) - 1) * kUm;
    Coord dy = (static_cast<Coord>(rng.index(3)) - 1) * kUm;
    placement[m] = placement[m].translated(dx, dy);
  }
};

void BM_CostEvaluate(benchmark::State& state) {
  CostBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  Rng rng(29);
  for (auto _ : state) {
    fx.mutate(rng);
    benchmark::DoNotOptimize(fx.model.evaluate(fx.placement));
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_CostEvaluate)->Arg(50)->Arg(200)->Arg(1000)->Complexity();

}  // namespace
}  // namespace als

BENCHMARK_MAIN();
