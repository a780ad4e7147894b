// Experiment E4 — kernel micro-benchmarks (google-benchmark).
//
// These benchmarks measure the library's sequence-pair packing kernel (the
// Fenwick LCS sweep, O(n log n)) across module counts, full and incremental,
// plus the B*-tree contour packer, the symmetric placement builder and the
// cost model.
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
// applies one SA-style perturbation and re-decodes on a warm scratch — the
// flat B*-tree placer with a full repack, the sequence-pair placer through
// the journaled incremental LCS.  Compare against the full-pack benchmarks
// above at the same n: the seqpair gap is what suffix-only re-decode buys
// per move (bench_decode --scaling reports the same contrast end to end,
// with cost evaluation and accept/reject included).

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

void BM_SeqPairPackIncrementalFenwick(benchmark::State& state) {
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
  std::vector<std::size_t> moved;
  packSequencePairIncrementalInto(sp, w, h, PackStrategy::Auto, scratch, out,
                                  moved);
  for (auto _ : state) {
    // The placer's structural move: swap two positions in one sequence.
    std::size_t i = rng.index(n), j = rng.index(n);
    if (rng.index(2) == 0) {
      sp.swapAlphaAt(i, j);
    } else {
      sp.swapBetaAt(i, j);
    }
    moved.clear();
    packSequencePairIncrementalInto(sp, w, h, PackStrategy::Auto, scratch, out,
                                    moved);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeqPairPackIncrementalFenwick)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

// --- cost-kernel benchmarks: scratch vs incremental evaluation -------------
//
// Same circuit, same objective (the flat penalty placer's full mix: area +
// wirelength + symmetry + proximity), same single-module move pattern; the
// scratch kernel re-reduces every net/group per evaluation, the incremental
// kernel re-reduces only what the move dirtied through the module→net
// index.  The per-evaluation gap is the headline speedup of the cost layer
// (tests/cost_test.cpp pins the two kernels to bit-equal costs).

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

  /// Displaces one random module by up to a micrometre (the canonical
  /// local move of a coordinate-based placer); returns its index.
  std::size_t mutate(Rng& rng) {
    std::size_t m = rng.index(placement.size());
    Coord dx = (static_cast<Coord>(rng.index(3)) - 1) * kUm;
    Coord dy = (static_cast<Coord>(rng.index(3)) - 1) * kUm;
    placement[m] = placement[m].translated(dx, dy);
    return m;
  }
};

void BM_CostScratch(benchmark::State& state) {
  CostBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  Rng rng(29);
  for (auto _ : state) {
    fx.mutate(rng);
    benchmark::DoNotOptimize(fx.model.evaluate(fx.placement));
  }
  state.SetComplexityN(state.range(0));
}

void BM_CostIncremental(benchmark::State& state) {
  CostBenchFixture fx(static_cast<std::size_t>(state.range(0)));
  fx.model.reset(fx.placement);
  Rng rng(29);
  for (auto _ : state) {
    std::size_t moved[1] = {fx.mutate(rng)};
    benchmark::DoNotOptimize(fx.model.propose(fx.placement, moved));
    fx.model.commit();
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_CostScratch)->Arg(50)->Arg(200)->Arg(1000)->Complexity();
BENCHMARK(BM_CostIncremental)->Arg(50)->Arg(200)->Arg(1000)->Complexity();

}  // namespace
}  // namespace als

BENCHMARK_MAIN();
