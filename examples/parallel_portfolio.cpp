// Parallel restart portfolios over the plan executor (runtime layer).
//
// Shows the three runtime entry points on paper circuits:
//   1. PortfolioRunner::run  — one backend, N seed-split restarts over all
//      cores, deterministically reduced (bit-identical at any thread count);
//   2. PortfolioRunner::race — all four backends race, winner by the
//      (cost, seed, backend) tie-break;
//   3. BatchPlacer           — a batch of circuits placed in one fork-join.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/parallel_portfolio
#include <cstdio>
#include <thread>

#include "netlist/generators.h"
#include "runtime/portfolio.h"

using namespace als;

int main() {
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  // 1. Restart portfolio of one backend.  maxSweeps is the TOTAL budget:
  //    it is split into numRestarts slices, each annealing from its own
  //    seed of the deterministic restart schedule.
  Circuit c = makeMillerOpAmp();
  EngineOptions opt;
  opt.maxSweeps = 512;
  opt.numRestarts = 8;
  opt.numThreads = 0;  // 0 = all hardware threads
  opt.seed = 1;

  PortfolioRunner runner;
  EngineResult r = runner.run(c, EngineBackend::SeqPair, opt);
  std::printf("seqpair portfolio: %zu restarts, best is #%zu (seed %llu)\n",
              r.restartsRun, r.bestRestart,
              static_cast<unsigned long long>(r.bestSeed));
  // (seconds is wall clock and deliberately not printed: example stdout
  // stays byte-identical run to run, like every other example.)
  std::printf("  area %.0f um^2, HPWL %.1f um, %zu sweeps total\n\n",
              static_cast<double>(r.area) * 1e-6,
              static_cast<double>(r.hpwl) / 1000.0, r.sweeps);

  // 2. Whole-backend race: every backend runs its own portfolio of the
  //    same budget; the flattened backend x restart grid shares the pool.
  PortfolioRunner::RaceOutcome race = runner.race(c, allBackends(), opt);
  std::printf("backend race winner: %s (cost %.3g, restart #%zu)\n\n",
              backendName(race.backend).data(), race.result.cost,
              race.result.bestRestart);

  // 3. Batch placement: many circuits, one fork-join over the pool.
  std::vector<Circuit> batch;
  batch.push_back(makeFig1Example());
  batch.push_back(makeMillerOpAmp());
  batch.push_back(makeTableICircuit(TableICircuit::ComparatorV2));
  BatchPlacer placer;
  std::vector<EngineResult> results =
      placer.placeAll(batch, EngineBackend::SeqPair, opt);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::printf("batch[%zu] %-14s area %.0f um^2  (best restart #%zu)\n", i,
                batch[i].name().c_str(),
                static_cast<double>(results[i].area) * 1e-6,
                results[i].bestRestart);
  }
  std::puts("\nresults are bit-identical for numThreads = 1 and N -- the\n"
            "runtime determinism contract (see tests/runtime_test.cpp).");
  return 0;
}
