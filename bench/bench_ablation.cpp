// Ablation studies for the design choices DESIGN.md calls out.
//
//   A1 — pareto cap of the deterministic placer: area-usage vs cap for ESF
//        and RSF (the cap trades runtime for frontier resolution; Table I
//        uses the default).
//   A2 — sequence-pair move set: with vs without the repairing
//        "swap any + re-seat beta" move class (exploration power of the
//        property-(1)-preserving moves).
//
// Flags: --json <path>, --smoke (short budgets / reduced caps for CI).
#include <cstdio>
#include <iostream>
#include <vector>

#include "netlist/generators.h"
#include "seqpair/sa_placer.h"
#include "shapefn/deterministic.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace als;

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  std::puts("=== Ablation A1: pareto cap of the deterministic placer ===\n");
  {
    Table table({"cap", "ESF usage", "ESF time (s)", "RSF usage", "RSF time (s)"});
    Circuit c = makeTableICircuit(TableICircuit::Biasynth);
    std::vector<std::size_t> caps = {4, 8, 16, 32, 64};
    if (io.smoke()) caps = {4, 8};
    for (std::size_t cap : caps) {
      DeterministicOptions esf{AdditionKind::Enhanced, cap, 4};
      DeterministicOptions rsf{AdditionKind::Regular, cap, 4};
      DeterministicResult re = placeDeterministic(c, esf);
      DeterministicResult rr = placeDeterministic(c, rsf);
      table.addRow({std::to_string(cap), Table::fmtPercent(re.areaUsage),
                    Table::fmt(re.seconds, 3), Table::fmtPercent(rr.areaUsage),
                    Table::fmt(rr.seconds, 3)});
      io.addDeterministic("esf-cap" + std::to_string(cap), c.name(), re);
      io.addDeterministic("rsf-cap" + std::to_string(cap), c.name(), rr);
    }
    table.print(std::cout);
    std::puts("(biasynth, 65 modules; larger caps = finer frontiers = better area)\n");
  }

  std::puts("=== Ablation A2: S-F move classes (with/without repair moves) ===\n");
  {
    // The repairing swap-any move relocates group cells relative to free
    // cells (then re-seats beta); without it, exploration is limited to
    // same-group counterpart swaps and free-cell swaps.
    Table table({"circuit", "repair moves", "area/modarea", "HPWL (um)"});
    for (std::uint64_t seed : {77ull, 78ull}) {
      Circuit c = makeSynthetic({.name = "abl" + std::to_string(seed),
                                 .moduleCount = 30,
                                 .seed = seed,
                                 .symmetricFraction = 0.8});
      for (bool repair : {true, false}) {
        SeqPairPlacerOptions opt;
        CancelToken deadline;
        io.applyBudget(opt, deadline, 2.0);
        opt.seed = 5;
        opt.enableRepairMoves = repair;
        SeqPairPlacerResult r = placeSeqPairSA(c, opt);
        io.addRun("engine", repair ? "seqpair-repair" : "seqpair-norepair",
                  c.name(), opt.maxSweeps, r);
        table.addRow({c.name(), repair ? "on" : "off",
                      Table::fmt(static_cast<double>(r.area) /
                                 static_cast<double>(c.totalModuleArea())),
                      Table::fmt(static_cast<double>(r.hpwl) / 1000.0, 1)});
      }
    }
    table.print(std::cout);
    std::puts("");
  }
  return 0;
}
