// als_place — command-line floorplacer over the full engine/runtime stack.
//
// Feeds benchmark files (io/benchmark_format.h) or embedded corpus circuits
// (io/corpus.h) through the PortfolioRunner and the plan executor:
// one backend's seed-split restart portfolio, or a whole-backend race, with
// the deterministic sweep-budget contract — a fixed (seed, sweeps,
// restarts) configuration gives bit-identical placements at any thread
// count, which `--smoke` turns into a CI gate.
//
// The scenario workloads ride on the same stack: `--thermal` adds the
// pair-mismatch objective term (needs Power annotations), `--shapes` enables
// the shape-selection move (needs shape curves / soft blocks), and `--size`
// runs the layout-aware Miller sizing flow with every candidate placed in
// parallel through the batch placer.
//
//   als_place --circuit apte --backend race --sweeps 1024 --restarts 16
//   als_place --circuit ami49 --backend seqpair --tempering
//   als_place my_design.alsbench --backend seqpair --json out.json
//   als_place --circuit ami33 --thermal 1.0 --shapes 0.2
//   als_place --size --backend seqpair --sweeps 256
//   als_place --smoke --json smoke.json       # CI: corpus x backends gate
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "engine/knobs.h"
#include "engine/placement_engine.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "layoutaware/placed_sizing.h"
#include "netlist/circuit.h"
#include "runtime/portfolio.h"
#include "runtime/thread_pool.h"
#include "util/bench_json.h"
#include "util/table.h"

namespace {

using namespace als;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] [file.alsbench ...]\n"
               "\n"
               "inputs\n"
               "  <file>             benchmark file in ALSBENCH format\n"
               "  --circuit <name>   embedded corpus circuit (or 'all'); see --list\n"
               "  --list             list the embedded corpus circuits and exit\n"
               "\n"
               "placement\n"
               "  --backend <name>   flat-bstar | seqpair | slicing | hbstar |\n"
               "                     race (all four race; default)\n"
               "  --sweeps <n>       total SA sweep budget (default 512)\n"
               "  --restarts <n>     seed-split restarts sharing the budget (default 8)\n"
               "  --threads <n>      worker threads, 0 = all hardware cores (default 0)\n"
               "  --seed <n>         base seed of the restart schedule (default 1)\n"
               "  --tempering        couple the restarts into a parallel-tempering\n"
               "                     ladder (same seeds and budget, exchanged states;\n"
               "                     still bit-identical at any thread count)\n"
               "  --exchange-interval <n>  sweeps between exchange rounds (default 4;\n"
               "                     0 together with --ladder-ratio 1 reproduces the\n"
               "                     independent restarts exactly)\n"
               "  --ladder-ratio <r> geometric t0 ratio between rungs (default 0.9;\n"
               "                     r < 1 makes the extra rungs colder)\n"
               "\n"
               "objective (unified weights, cost/objective.h recipe)\n"
               "  --wl <w>           wirelength weight (default 0.25)\n"
               "  --sym <w>          symmetry-deviation weight, penalty backends\n"
               "                     (default 2.0)\n"
               "  --prox <w>         proximity-violation weight, penalty backends\n"
               "                     (default 2.0)\n"
               "  --thermal <w>      thermal pair-mismatch weight (default 0; needs\n"
               "                     Power annotations to bite)\n"
               "  --shapes <p>       shape-selection move probability in [0,1]\n"
               "                     (default 0; needs shape curves / soft blocks)\n"
               "\n"
               "scenario\n"
               "  --size             layout-aware Miller sizing: size seed-scheduled\n"
               "                     candidates, place them in parallel (with the\n"
               "                     thermal/shape workloads), report the winner\n"
               "\n"
               "output\n"
               "  --art              ASCII rendering of each placement\n"
               "  --out <dir>        write <circuit>.place files into <dir>\n"
               "  --json <path>      machine-readable records (bench_json format)\n"
               "\n"
               "ci\n"
               "  --smoke            gate: every corpus circuit on all four backends,\n"
               "                     run twice and at 1 vs 8 threads; nonzero exit on\n"
               "                     any parse error, illegal placement or mismatch\n",
               argv0);
  return 2;
}

bool identicalResults(const EngineResult& a, const EngineResult& b) {
  if (a.cost != b.cost || a.area != b.area || a.hpwl != b.hpwl ||
      a.counters() != b.counters() ||
      a.restartsRun != b.restartsRun || a.bestRestart != b.bestRestart ||
      a.bestSeed != b.bestSeed || a.placement.size() != b.placement.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.placement.size(); ++m) {
    if (!(a.placement[m] == b.placement[m])) return false;
  }
  return true;
}

/// One row of the smoke table: `r` placed on `c` by `backend`.
void smokeRow(Table& table, std::string label, const Circuit& c,
              EngineBackend backend, const EngineResult& r, bool ok) {
  table.addRow({std::move(label), std::to_string(c.moduleCount()),
                std::string(backendName(backend)),
                Table::fmt(static_cast<double>(r.area) /
                           static_cast<double>(c.totalModuleArea())),
                Table::fmt(static_cast<double>(r.hpwl) / 1000.0, 1),
                ok ? "yes" : "NO"});
}

bool writePlacementFile(const std::string& path, const Circuit& c,
                        const EngineResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "als_place: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "# als_place placement: %s\n", c.name().c_str());
  std::fprintf(f, "# cost %.17g  hpwl %lld  area %lld\n", r.cost,
               static_cast<long long>(r.hpwl), static_cast<long long>(r.area));
  for (std::size_t m = 0; m < r.placement.size(); ++m) {
    const Rect& rect = r.placement[m];
    std::fprintf(f, "%s %lld %lld %lld %lld\n", c.module(m).name.c_str(),
                 static_cast<long long>(rect.x), static_cast<long long>(rect.y),
                 static_cast<long long>(rect.w), static_cast<long long>(rect.h));
  }
  return std::fclose(f) == 0;
}

/// Spec set of the --size scenario: relaxed to what the two-stage Miller
/// topology can actually meet, so the flow demonstrates a passing run.
OtaSpecs millerSpecs() {
  OtaSpecs specs;
  specs.minGainDb = 70.0;
  specs.minGbwHz = 15e6;
  specs.minPmDeg = 55.0;
  specs.minSrVps = 10e6;
  return specs;
}

/// The --size scenario: layout-aware Miller sizing re-hosted on the runtime
/// layer (layoutaware/placed_sizing.h) — candidates sized on the portfolio
/// seed schedule, annotated, placed in parallel, one winner reduced out.
int runSize(BenchIo& io, EngineBackend backend, const EngineOptions& opt) {
  Technology tech = Technology::c035();
  PlacedSizingOptions popt;
  popt.sizing.layoutAware = true;
  popt.sizing.seed = opt.seed;
  popt.numCandidates = 4;
  popt.backend = backend;
  popt.placement = opt;
  PlacedSizingResult flow = runMillerPlacedSizing(tech, millerSpecs(), popt);

  const std::size_t threads = ThreadPool::resolveThreadCount(opt.numThreads);
  std::printf("als_place --size: %zu Miller candidates, backend=%s, "
              "sweeps=%zu, restarts=%zu, threads=%zu, thermal=%g, shapes=%g\n\n",
              flow.candidates.size(),
              std::string(backendName(backend)).c_str(), opt.maxSweeps,
              opt.numRestarts, threads, opt.thermalWeight, opt.shapeMoveProb);
  Table table({"candidate", "specs", "violation", "gain (dB)", "GBW (MHz)",
               "area (um^2)", "cost"});
  int failures = 0;
  for (std::size_t i = 0; i < flow.candidates.size(); ++i) {
    const PlacedSizingCandidate& cand = flow.candidates[i];
    if (!cand.placement.placement.isLegal()) {
      std::fprintf(stderr, "als_place: --size candidate %zu placed "
                           "ILLEGALLY\n", i);
      ++failures;
    }
    std::string tag = "miller#" + std::to_string(i);
    table.addRow({tag + (i == flow.bestIndex ? " *" : ""),
                  cand.sizing.meetsSpecsExtracted ? "met" : "not met",
                  Table::fmt(cand.sizing.violationExtracted, 3),
                  Table::fmt(cand.sizing.perfExtracted.gainDb, 1),
                  Table::fmt(cand.sizing.perfExtracted.gbwHz / 1e6, 1),
                  Table::fmt(static_cast<double>(cand.placement.area) * 1e-6),
                  Table::fmt(cand.placement.cost)});
    io.addRun("runtime", std::string(backendName(backend)) + "+size", tag,
              popt.placement.maxSweeps, cand.placement);
  }
  table.print(std::cout);
  std::printf("\nwinner: candidate %zu (* above) in %.1fs total\n",
              flow.bestIndex, flow.seconds);
  return failures == 0 ? 0 : 1;
}

/// The CI gate behind --smoke: every corpus circuit, all four backends,
/// bit-identical across two runs and across 1 vs 8 threads — then the same
/// bar with the scenario workloads (thermal objective, shape moves,
/// parallel tempering, the --size flow) switched on.
int runSmoke(BenchIo& io) {
  EngineOptions opt;
  opt.maxSweeps = 96;
  opt.numRestarts = 4;
  opt.seed = 1;
  PortfolioRunner runner;
  Table table({"circuit", "blocks", "backend", "area/modarea", "HPWL (um)",
               "deterministic"});
  int failures = 0;
  // The MCNC corpus, then n100 — where seqpair's incremental LCS carries
  // the decode — on a reduced sweep budget so the smoke gate stays in
  // seconds.
  EngineOptions gopt = opt;
  gopt.maxSweeps = 24;
  gopt.numRestarts = 2;
  std::vector<CorpusCircuit> corpus = allCorpusCircuits();
  corpus.push_back(CorpusCircuit::N100);
  for (CorpusCircuit which : corpus) {
    EngineOptions* o = which == CorpusCircuit::N100 ? &gopt : &opt;
    ParseResult parsed = parseBenchmark(corpusText(which));
    if (!parsed.ok()) {
      std::fprintf(stderr, "als_place: corpus '%s' fails to parse: %s\n",
                   corpusName(which), parsed.error.c_str());
      ++failures;
      continue;
    }
    const Circuit& c = parsed.circuit;
    for (EngineBackend backend : allBackends()) {
      o->numThreads = 1;
      EngineResult serial = runner.run(c, backend, *o);
      o->numThreads = 8;
      EngineResult parallel = runner.run(c, backend, *o);
      EngineResult again = runner.run(c, backend, *o);
      bool deterministic = identicalResults(serial, parallel) &&
                           identicalResults(parallel, again);
      bool legal = serial.placement.isLegal() &&
                   serial.placement.size() == c.moduleCount();
      if (!deterministic || !legal) {
        std::fprintf(stderr,
                     "als_place: %s/%s %s\n", corpusName(which),
                     std::string(backendName(backend)).c_str(),
                     deterministic ? "produced an illegal placement"
                                   : "is NOT deterministic across runs/threads");
        ++failures;
      }
      smokeRow(table, corpusName(which), c, backend, serial,
               deterministic && legal);
      io.addRun("runtime", std::string(backendName(backend)),
                corpusName(which), o->maxSweeps, parallel);
    }
  }

  // Scenario leg: the same determinism bar with the thermal objective and
  // shape-selection moves enabled.  apte and ami33 carry Power annotations
  // and ami33 shape curves, so both code paths actually execute.  The
  // sequence pair has no shape move and refuses the knob (engine/knobs.h),
  // so its +tsh rows run thermal only.
  EngineOptions sopt = opt;
  sopt.thermalWeight = 1.0;
  for (CorpusCircuit which : {CorpusCircuit::Apte, CorpusCircuit::Ami33}) {
    Circuit c = loadCorpusCircuit(which);
    for (EngineBackend backend : allBackends()) {
      sopt.shapeMoveProb = backend == EngineBackend::SeqPair ? 0.0 : 0.2;
      sopt.numThreads = 1;
      EngineResult serial = runner.run(c, backend, sopt);
      sopt.numThreads = 8;
      EngineResult parallel = runner.run(c, backend, sopt);
      bool deterministic = identicalResults(serial, parallel);
      bool legal = parallel.placement.isLegal();
      if (!deterministic || !legal) {
        std::fprintf(stderr, "als_place: %s/%s with thermal+shapes %s\n",
                     corpusName(which),
                     std::string(backendName(backend)).c_str(),
                     deterministic ? "produced an illegal placement"
                                   : "is NOT deterministic across threads");
        ++failures;
      }
      smokeRow(table, std::string(corpusName(which)) + "+tsh", c, backend,
               parallel, deterministic && legal);
      io.addRun("runtime", std::string(backendName(backend)) + "+thermal",
                corpusName(which), sopt.maxSweeps, parallel);
    }
  }

  // Tempering leg: the coupled-replica runs clear the same bar — bit-
  // identical across two runs and across 1 vs 8 threads on every backend —
  // and the degenerate knobs (exchangeInterval=0, ladderRatio=1.0) must
  // reproduce the independent-restart portfolio exactly.
  EngineOptions topt = opt;
  topt.tempering = true;
  topt.exchangeInterval = 2;
  topt.ladderRatio = 1.5;
  for (CorpusCircuit which : {CorpusCircuit::Apte, CorpusCircuit::Ami33}) {
    Circuit c = loadCorpusCircuit(which);
    for (EngineBackend backend : allBackends()) {
      topt.numThreads = 1;
      EngineResult serial = runner.run(c, backend, topt);
      topt.numThreads = 8;
      EngineResult parallel = runner.run(c, backend, topt);
      EngineResult again = runner.run(c, backend, topt);
      bool deterministic = identicalResults(serial, parallel) &&
                           identicalResults(parallel, again);
      EngineOptions degen = opt;
      degen.tempering = true;
      degen.exchangeInterval = 0;
      degen.ladderRatio = 1.0;
      degen.numThreads = 8;
      EngineOptions plain = opt;
      plain.numThreads = 8;
      bool degenerates = identicalResults(runner.run(c, backend, degen),
                                          runner.run(c, backend, plain));
      bool legal = parallel.placement.isLegal();
      if (!deterministic || !degenerates || !legal) {
        std::fprintf(stderr, "als_place: %s/%s tempering %s\n",
                     corpusName(which),
                     std::string(backendName(backend)).c_str(),
                     !legal ? "produced an illegal placement"
                     : !deterministic
                         ? "is NOT deterministic across runs/threads"
                         : "with degenerate knobs does NOT reproduce the "
                           "restart portfolio");
        ++failures;
      }
      smokeRow(table, std::string(corpusName(which)) + "+pt", c, backend,
               parallel, deterministic && degenerates && legal);
      io.addRun("runtime", std::string(backendName(backend)) + "+pt",
                corpusName(which), topt.maxSweeps, parallel);
    }
  }

  // --size flow leg: the whole sizing-on-portfolio pipeline must reduce to
  // a bit-identical winner at 1 vs 8 placement threads.  It places on the
  // sequence pair, which has no shape move: thermal only.
  {
    Technology tech = Technology::c035();
    PlacedSizingOptions popt;
    popt.sizing.layoutAware = true;
    popt.sizing.seed = 1;
    popt.numCandidates = 3;
    popt.placement = opt;
    popt.placement.thermalWeight = 1.0;
    popt.placement.numThreads = 1;
    PlacedSizingResult serial = runMillerPlacedSizing(tech, millerSpecs(), popt);
    popt.placement.numThreads = 8;
    PlacedSizingResult parallel =
        runMillerPlacedSizing(tech, millerSpecs(), popt);
    bool deterministic = serial.bestIndex == parallel.bestIndex;
    for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
      deterministic = deterministic &&
                      identicalResults(serial.candidates[i].placement,
                                       parallel.candidates[i].placement);
    }
    if (!deterministic) {
      std::fprintf(stderr, "als_place: --size flow is NOT deterministic "
                           "across placement thread counts\n");
      ++failures;
    }
    const PlacedSizingCandidate& best = parallel.best();
    smokeRow(table, "miller --size", best.circuit, popt.backend, best.placement,
             deterministic);
  }

  table.print(std::cout);
  std::printf("\nsmoke gate: %s (every row bit-compared across runs and "
              "1 vs 8 threads; scenario legs run thermal + shape workloads;\n"
              "+pt rows run parallel tempering and check the degenerate knobs "
              "reproduce the restarts)\n",
              failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);  // owns --json / --smoke

  std::vector<std::pair<std::string, Circuit>> inputs;  // (source, circuit)
  std::string backendArg = "race";
  std::string outDir;
  EngineOptions opt;
  opt.maxSweeps = 512;
  opt.numRestarts = 8;
  opt.numThreads = 0;
  opt.seed = 1;
  bool art = false, smoke = false, size = false;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      auto printRow = [](CorpusCircuit which) {
        Circuit c = loadCorpusCircuit(which);
        std::printf("%-8s %3zu blocks, %zu nets, %zu symmetry group(s)\n",
                    corpusName(which), c.moduleCount(), c.nets().size(),
                    c.symmetryGroups().size());
      };
      for (CorpusCircuit which : allCorpusCircuits()) printRow(which);
      for (CorpusCircuit which : largeCorpusCircuits()) printRow(which);
      return 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--art") {
      art = true;
    } else if (arg == "--json") {
      ++i;  // value consumed by BenchIo
    } else if (arg == "--backend") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      backendArg = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      outDir = v;
    } else if (const Knob* knob = findKnob(&Knob::cli, arg)) {
      const char* v = knob->domain.kind == KnobDomain::Flag ? "" : value();
      const std::string error = v ? applyCliOption(opt, arg, v) : "no value";
      if (!error.empty()) {
        std::fprintf(stderr, "als_place: %s\n", error.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--size") {
      size = true;
    } else if (arg == "--circuit") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      if (std::string_view(v) == "all") {
        for (CorpusCircuit which : allCorpusCircuits()) {
          inputs.emplace_back(corpusName(which), loadCorpusCircuit(which));
        }
      } else {
        CorpusCircuit which;
        if (!corpusByName(v, &which)) {
          std::fprintf(stderr, "als_place: unknown corpus circuit '%s' "
                               "(try --list)\n", v);
          return 2;
        }
        inputs.emplace_back(v, loadCorpusCircuit(which));
      }
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "als_place: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    } else {
      ParseResult parsed = parseBenchmarkFile(argv[i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "als_place: %s: %s\n", argv[i],
                     parsed.error.c_str());
        return 1;
      }
      inputs.emplace_back(argv[i], std::move(parsed.circuit));
    }
  }

  if (smoke) return runSmoke(io);

  bool race = backendArg == "race";
  EngineBackend backend = EngineBackend::SeqPair;
  if (!race && !parseBackendName(backendArg, backend)) {
    std::fprintf(stderr, "als_place: unknown backend '%s'\n",
                 backendArg.c_str());
    return 2;
  }
  // Refuse a knob the placing backend would drop (engine/knobs.h); a race
  // hands each backend what it honours, but --size alone runs seqpair.
  if (const Knob* k = race && !size ? nullptr : refusedKnob(backend, opt)) {
    std::fprintf(stderr, "als_place: %s is refused by %s\n",
                 std::string(k->cli).c_str(),
                 std::string(backendName(backend)).c_str());
    return 2;
  }

  // --size is a scenario, not a per-file placement: candidates come from the
  // sizing loop (racing backends per candidate would multiply the grid, so
  // the race default falls back to the symmetric-exact seqpair backend).
  if (size) return runSize(io, backend, opt);
  if (inputs.empty()) return usage(argv[0]);

  const std::size_t threads = ThreadPool::resolveThreadCount(opt.numThreads);
  std::printf("als_place: %zu circuit(s), backend=%s, sweeps=%zu, "
              "restarts=%zu, threads=%zu, seed=%llu, "
              "weights wl=%g sym=%g prox=%g\n\n",
              inputs.size(), race ? "race" : std::string(backendName(backend)).c_str(),
              opt.maxSweeps, opt.numRestarts, threads,
              static_cast<unsigned long long>(opt.seed),
              opt.wirelengthWeight, opt.symmetryWeight, opt.proximityWeight);

  PortfolioRunner runner;
  Table table({"circuit", "blocks", "backend", "area/modarea", "HPWL (um)",
               "best restart", "time (s)"});
  int failures = 0;
  for (auto& [source, circuit] : inputs) {
    EngineResult result;
    std::string winner;
    if (race) {
      PortfolioRunner::RaceOutcome outcome =
          runner.race(circuit, allBackends(), opt);
      result = std::move(outcome.result);
      winner = std::string(backendName(outcome.backend));
    } else {
      result = runner.run(circuit, backend, opt);
      winner = std::string(backendName(backend));
    }
    if (!result.placement.isLegal()) {
      std::fprintf(stderr, "als_place: %s: backend produced an ILLEGAL "
                           "placement\n", source.c_str());
      ++failures;
    }
    table.addRow({circuit.name(), std::to_string(circuit.moduleCount()), winner,
                  Table::fmt(static_cast<double>(result.area) /
                             static_cast<double>(circuit.totalModuleArea())),
                  Table::fmt(static_cast<double>(result.hpwl) / 1000.0, 1),
                  std::to_string(result.bestRestart),
                  Table::fmt(result.seconds, 2)});
    io.addRun("runtime", winner, circuit.name(), opt.maxSweeps, result);
    if (art) {
      std::cout << asciiArt(result.placement, circuit.moduleNames()) << "\n";
    }
    if (!outDir.empty()) {
      std::string path = outDir + "/" + circuit.name() + ".place";
      if (!writePlacementFile(path, circuit, result)) ++failures;
    }
  }
  table.print(std::cout);
  return failures == 0 ? 0 : 1;
}
