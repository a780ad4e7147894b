// Parallel restart portfolio bench — the runtime layer's headline numbers.
//
// Part 1 ("Table 1 on all cores"): every Table-I circuit is placed by a
// whole-backend portfolio race — flat B*-tree vs sequence-pair vs slicing
// vs HB*-tree, each with a seed-split restart portfolio — fanned across all
// hardware threads.  The table reports the winning backend and its quality,
// reproducing the paper's per-circuit comparison at full-core speed.
//
// Part 2 (scaling): one fixed restart budget is run with 1 thread and with
// all hardware threads; the results must be bit-identical (the runtime
// determinism contract) and the wall-clock ratio is the measured speedup.
// On a multi-core machine the expected speedup at 8 restarts is >2x by a
// wide margin; on a single hardware thread it degrades gracefully to ~1x.
//
// Part 3 (restarts vs tempering): the SAME restart plan — same seeds, same
// per-slice sweep budgets — is run twice per circuit, once as independent
// restarts and once as a coupled parallel-tempering ladder
// (runtime/tempering.h).  Equal budget, so any quality delta is purely the
// exchange coupling.  Records carry distinct "restarts-*" / "tempering-*"
// backend names so bench_diff tracks both configurations as separate
// coverage pairs.  A race leg on the small MCNC circuits additionally
// exercises cross-backend seeding (ladder-to-ladder placement adoption
// through the from_placement converters).
//
// Flags: --json <path> (machine-readable records), --smoke (short fixed
// budgets for CI).
#include <cstdio>
#include <iostream>

#include "io/corpus.h"
#include "netlist/generators.h"
#include "runtime/portfolio.h"
#include "runtime/tempering.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace als;

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  const std::size_t hardware =
      ThreadPool::resolveThreadCount(0);

  std::puts("=== Portfolio: Table-I circuits, all backends, all cores ===\n");
  std::printf("hardware threads: %zu\n\n", hardware);
  {
    EngineOptions opt;
    opt.maxSweeps = io.smoke() ? 96 : 512;   // total budget, split over restarts
    opt.numRestarts = io.smoke() ? 4 : 16;
    opt.numThreads = 0;  // all hardware threads
    opt.seed = 1;

    Table table({"circuit", "# mods", "winner", "area/modarea", "HPWL (um)",
                 "restarts", "best restart", "time (s)"});
    PortfolioRunner runner;
    auto raceRow = [&](const Circuit& c, const std::string& label) {
      PortfolioRunner::RaceOutcome outcome = runner.race(c, allBackends(), opt);
      const EngineResult& r = outcome.result;
      table.addRow({label, std::to_string(c.moduleCount()),
                    std::string(backendName(outcome.backend)),
                    Table::fmt(static_cast<double>(r.area) /
                               static_cast<double>(c.totalModuleArea())),
                    Table::fmt(static_cast<double>(r.hpwl) / 1000.0, 1),
                    std::to_string(r.restartsRun),
                    std::to_string(r.bestRestart), Table::fmt(r.seconds, 2)});
      io.addRun("runtime", std::string(backendName(outcome.backend)), label,
                opt.maxSweeps, r);
    };
    for (TableICircuit which : allTableICircuits()) {
      Circuit c = makeTableICircuit(which);
      if (io.smoke() && c.moduleCount() > 50) continue;  // CI smoke: small four
      raceRow(c, tableIName(which));
    }
    // The embedded benchmark corpus (real-file workloads) races alongside
    // the generated Table-I circuits.
    for (CorpusCircuit which : allCorpusCircuits()) {
      Circuit c = loadCorpusCircuit(which);
      if (io.smoke() && c.moduleCount() > 50) continue;
      raceRow(c, corpusName(which));
    }
    table.print(std::cout);
    std::printf(
        "\n(each row races %zu restarts x %zu backends over %zu threads;\n"
        "winner by the deterministic (cost, seed, backend) tie-break)\n\n",
        opt.numRestarts, allBackends().size(), hardware);
  }

  std::puts("=== Portfolio scaling: 1 thread vs all threads, equal budget ===\n");
  {
    Circuit c = makeSynthetic({.name = "scale40",
                               .moduleCount = 40,
                               .seed = 22,
                               .symmetricFraction = 0.5});
    EngineOptions opt;
    opt.maxSweeps = io.smoke() ? 256 : 2048;  // total, split across restarts
    opt.numRestarts = 8;
    opt.seed = 97;

    PortfolioRunner runner;
    opt.numThreads = 1;
    EngineResult serial = runner.run(c, EngineBackend::SeqPair, opt);
    opt.numThreads = 0;  // all hardware threads
    EngineResult parallel = runner.run(c, EngineBackend::SeqPair, opt);

    bool identical = serial.cost == parallel.cost &&
                     serial.area == parallel.area &&
                     serial.hpwl == parallel.hpwl &&
                     serial.sweeps == parallel.sweeps &&
                     serial.bestRestart == parallel.bestRestart &&
                     serial.placement.size() == parallel.placement.size();
    for (std::size_t m = 0; identical && m < serial.placement.size(); ++m) {
      identical = serial.placement[m] == parallel.placement[m];
    }

    std::printf("backend=seqpair  modules=%zu  total sweeps=%zu  restarts=%zu\n",
                c.moduleCount(), serial.sweeps, serial.restartsRun);
    std::printf("1 thread : %.2f s\n%zu threads: %.2f s\n", serial.seconds,
                hardware, parallel.seconds);
    std::printf("speedup  : %.2fx  (expect >2x at 8 restarts on >=4 cores)\n",
                serial.seconds / std::max(parallel.seconds, 1e-9));
    std::printf("bit-identical across thread counts: %s\n",
                identical ? "yes" : "NO — DETERMINISM BUG");

    io.addRun("runtime", "seqpair-1-thread", c.name(), opt.maxSweeps, serial);
    io.addRun("runtime", "seqpair-all-threads", c.name(), opt.maxSweeps,
              parallel);
    if (!identical) return 1;
  }

  std::puts("\n=== Equal budget: independent restarts vs tempering ===\n");
  {
    EngineOptions restarts;
    restarts.maxSweeps = io.smoke() ? 320 : 1024;  // total, split over replicas
    restarts.numRestarts = 4;
    restarts.numThreads = 0;
    restarts.seed = 41;

    // Measured on the corpus grid (MCNC x {seqpair, flat-bstar} + n100-n300):
    // a slightly-cold ladder (ratio < 1: the extra rungs quench) exchanging
    // every 4 sweeps beats the same budget spent on independent restarts on
    // every row.  Hot ladders (ratio > 1) lose at these short budgets — the
    // hot rungs' sweeps are spent above the mixing temperature.
    EngineOptions tempering = restarts;
    tempering.tempering = true;
    tempering.exchangeInterval = 4;
    tempering.ladderRatio = 0.9;

    Table table({"circuit", "backend", "restarts cost", "tempering cost",
                 "delta %", "exch", "restarts (s)", "tempering (s)"});
    PortfolioRunner portfolio;
    TemperingRunner temper;
    std::size_t wins = 0, rows = 0;
    auto compareRow = [&](const Circuit& c, const std::string& label,
                          EngineBackend backend) {
      EngineResult ind = portfolio.run(c, backend, restarts);
      TemperingOutcome pt = temper.run(c, backend, tempering);
      const double delta =
          (pt.result.cost - ind.cost) / std::max(ind.cost, 1e-12) * 100.0;
      ++rows;
      if (pt.result.cost <= ind.cost) ++wins;
      table.addRow({label, std::string(backendName(backend)),
                    Table::fmt(ind.cost, 4), Table::fmt(pt.result.cost, 4),
                    Table::fmt(delta, 2), std::to_string(pt.exchangesAccepted),
                    Table::fmt(ind.seconds, 2), Table::fmt(pt.result.seconds, 2)});
      io.addRun("runtime", "restarts-" + std::string(backendName(backend)),
                label, restarts.maxSweeps, ind);
      io.addRun("runtime", "tempering-" + std::string(backendName(backend)),
                label, tempering.maxSweeps, pt.result);
    };
    for (CorpusCircuit which : allCorpusCircuits()) {
      Circuit c = loadCorpusCircuit(which);
      compareRow(c, corpusName(which), EngineBackend::SeqPair);
      compareRow(c, corpusName(which), EngineBackend::FlatBStar);
    }
    for (CorpusCircuit which : largeCorpusCircuits()) {
      Circuit c = loadCorpusCircuit(which);
      compareRow(c, corpusName(which), EngineBackend::SeqPair);
    }
    table.print(std::cout);
    std::printf(
        "\n(same restart plan both sides: %zu replicas, equal sweep budgets;\n"
        "tempering couples them with exchangeInterval=%zu, ladderRatio=%.2f;\n"
        "tempering <= restarts on %zu/%zu rows)\n",
        restarts.numRestarts, tempering.exchangeInterval,
        tempering.ladderRatio, wins, rows);

    // Race leg: cross-backend seeding between the per-backend ladders.
    std::puts("\n--- race with cross-backend seeding ---\n");
    Table race({"circuit", "restarts winner", "cost", "tempering winner",
                "cost", "reseeds"});
    EngineOptions raceTempering = tempering;
    raceTempering.crossSeed = true;
    for (CorpusCircuit which : {CorpusCircuit::Apte, CorpusCircuit::Ami33}) {
      Circuit c = loadCorpusCircuit(which);
      PortfolioRunner::RaceOutcome ind =
          portfolio.race(c, allBackends(), restarts);
      TemperingOutcome pt = temper.race(c, allBackends(), raceTempering);
      race.addRow({corpusName(which), std::string(backendName(ind.backend)),
                   Table::fmt(ind.result.cost, 4),
                   std::string(backendName(pt.backend)),
                   Table::fmt(pt.result.cost, 4), std::to_string(pt.reseeds)});
      io.addRun("runtime", "restarts-race", corpusName(which),
                restarts.maxSweeps, ind.result);
      io.addRun("runtime", "tempering-race", corpusName(which),
                raceTempering.maxSweeps, pt.result);
    }
    race.print(std::cout);
  }
  return 0;
}
