// Experiment E8 — Table I of the paper: enhanced shape functions (ESF)
// versus regular shape functions (RSF) in the deterministic placer on the
// six circuits (module counts 13 / 10 / 22 / 46 / 65 / 110).
//
// Table I's published shape: ESF area usage is a few tenths of a percent
// better on the small circuits growing to ~7 percentage points on the big
// ones, at roughly an order of magnitude more runtime.  Absolute usage
// numbers differ from the paper (synthetic stand-in circuits, different
// pareto caps); the ordering, the growth of the ESF advantage with module
// count, and the runtime ratio are the reproduced observables.
//
// Flags: --json <path>, --smoke (skips the two largest circuits in CI).
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "io/corpus.h"
#include "netlist/generators.h"
#include "shapefn/deterministic.h"
#include "shapefn/enumerate.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace als;

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  std::puts("=== E8 / Table I: enhanced vs regular shape functions ===\n");
  std::printf("context (Section IV): full enumeration is hopeless beyond basic\n"
              "module sets -- 8 modules already admit %llu B*-tree placements.\n\n",
              static_cast<unsigned long long>(bstarPlacementCount(8)));

  Table table({"Experiment", "# of mods", "ESF area usage", "ESF time (s)",
               "RSF area usage", "RSF time (s)", "Area improvement"});
  double sumImp = 0.0, sumRatio = 0.0;
  int rows = 0;
  // Generated Table-I circuits plus the embedded benchmark corpus (the
  // canonical hierarchy keeps corpus basic sets small enough to enumerate).
  std::vector<std::pair<std::string, Circuit>> experiments;
  for (TableICircuit which : allTableICircuits()) {
    experiments.emplace_back(tableIName(which), makeTableICircuit(which));
  }
  for (CorpusCircuit which : allCorpusCircuits()) {
    experiments.emplace_back(corpusName(which), loadCorpusCircuit(which));
  }
  for (const auto& [name, c] : experiments) {
    if (io.smoke() && c.moduleCount() > 50) continue;  // CI smoke: small ones

    DeterministicOptions esfOpt;
    esfOpt.kind = AdditionKind::Enhanced;
    DeterministicResult esf = placeDeterministic(c, esfOpt);

    DeterministicOptions rsfOpt;
    rsfOpt.kind = AdditionKind::Regular;
    DeterministicResult rsf = placeDeterministic(c, rsfOpt);

    double impPts = (rsf.areaUsage - esf.areaUsage) * 100.0;
    io.addDeterministic("esf", name, esf);
    io.addDeterministic("rsf", name, rsf);
    table.addRow({name, std::to_string(c.moduleCount()),
                  Table::fmtPercent(esf.areaUsage), Table::fmt(esf.seconds, 2),
                  Table::fmtPercent(rsf.areaUsage), Table::fmt(rsf.seconds, 2),
                  Table::fmt(impPts, 2) + "pp"});
    sumImp += impPts;
    sumRatio += esf.seconds / std::max(rsf.seconds, 1e-9);
    ++rows;
  }
  table.print(std::cout);
  std::printf(
      "\nAverages: ESF improves area usage by %.2f percentage points at %.1fx\n"
      "the RSF runtime (paper: 4.4%% smaller area at ~10x runtime).\n"
      "Area usage = bounding rectangle of the smallest shape / total module\n"
      "area, exactly as Table I defines it.\n",
      sumImp / rows, sumRatio / rows);
  return 0;
}
