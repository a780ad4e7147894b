// Experiment E3 — Section II's core claim: restricting simulated annealing
// to symmetric-feasible topological codes beats the absolute-coordinate
// exploration style of the first-generation tools (ILAC / KOAN / PUPPY-A /
// LAYLA), which roams feasible AND unfeasible configurations and must anneal
// its overlaps and symmetry violations away.
//
// For each circuit both placers get the same wall-clock budget; the table
// reports final bounding-box area (relative to total module area), HPWL,
// residual violations, and the search-space reduction the S-F restriction
// buys (Lemma).
//
// Flags: --json <path> (machine-readable records), --smoke (fixed sweep
// budgets for CI).  The placers keep their direct backend calls: the bench
// reads backend-specific outputs (axis2x, overlap, residual violations)
// the shared EngineResult does not carry.
#include <cstdio>
#include <iostream>

#include "netlist/generators.h"
#include "seqpair/absolute_placer.h"
#include "seqpair/sa_placer.h"
#include "seqpair/sym_placer.h"
#include "seqpair/symmetry.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace als;

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  std::puts("=== E3: S-F sequence-pair SA vs absolute-coordinate SA ===\n");

  struct Bench {
    std::string name;
    Circuit circuit;
  };
  std::vector<Bench> benches;
  benches.push_back({"fig1 (7 cells)", makeFig1Example()});
  benches.push_back({"miller opamp (9)", makeMillerOpAmp()});
  benches.push_back({"synthetic-20", makeSynthetic({.name = "s20",
                                                    .moduleCount = 20,
                                                    .seed = 21,
                                                    .symmetricFraction = 0.6})});
  benches.push_back({"synthetic-40", makeSynthetic({.name = "s40",
                                                    .moduleCount = 40,
                                                    .seed = 22,
                                                    .symmetricFraction = 0.5})});

  const double budget = 3.0;  // seconds per placer per circuit

  Table table({"circuit", "placer", "area/modarea", "HPWL (um)", "overlap",
               "sym dev (um)", "feasible", "time (s)", "space reduction"});
  for (const Bench& b : benches) {
    const Circuit& c = b.circuit;
    double modArea = static_cast<double>(c.totalModuleArea());
    double reduction = searchSpaceReduction(c.moduleCount(), c.symmetryGroups());

    SeqPairPlacerOptions spOpt;
    CancelToken deadline;
    io.applyBudget(spOpt, deadline, budget);
    spOpt.seed = 5;
    SeqPairPlacerResult sp = placeSeqPairSA(c, spOpt);
    io.addRun("engine", "seqpair", b.name, spOpt.maxSweeps, sp);
    bool spFeasible =
        sp.placement.isLegal() &&
        verifySymmetry(sp.placement, c.symmetryGroups(), sp.axis2x);
    table.addRow({b.name, "S-F seq-pair SA",
                  Table::fmt(static_cast<double>(sp.area) / modArea),
                  Table::fmt(static_cast<double>(sp.hpwl) / 1000.0, 1), "0",
                  "0.00", spFeasible ? "yes" : "NO", Table::fmt(sp.seconds, 2),
                  Table::fmtPercent(reduction)});

    AbsolutePlacerOptions absOpt;
    io.applyBudget(absOpt, deadline, budget);
    absOpt.seed = 5;
    AbsolutePlacerResult abs = placeAbsoluteSA(c, absOpt);
    io.addRun("engine", "absolute", b.name, absOpt.maxSweeps, abs);
    table.addRow({b.name, "absolute-coord SA",
                  Table::fmt(static_cast<double>(abs.area) / modArea),
                  Table::fmt(static_cast<double>(abs.hpwl) / 1000.0, 1),
                  Table::fmt(static_cast<double>(abs.overlapArea) / modArea, 3),
                  Table::fmt(static_cast<double>(abs.symViolation) / 1000.0, 2),
                  abs.feasible ? "yes" : "NO", Table::fmt(abs.seconds, 2), "0.00%"});
  }
  table.print(std::cout);
  std::puts(
      "\nReading: the topological placer explores only feasible symmetric\n"
      "placements (overlap and symmetry deviation are zero by construction);\n"
      "the absolute-coordinate baseline trades cheap moves for a vastly\n"
      "larger search space and typically retains residual violations within\n"
      "the same time budget.");
  return 0;
}
