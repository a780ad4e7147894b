// Experiment E14 — the thermal motivation of placement symmetry
// (Section II): "the thermally-sensitive device couples should be placed
// symmetrically relative to the thermally-radiating devices".
//
// Setup: circuits with symmetry groups; one high-dissipation device acts as
// the radiator.  Compare the temperature mismatch seen by the matched pairs
// under (a) the symmetric-feasible sequence-pair placement — radiator
// self-symmetric, i.e. centered on the axis —, (b) the same engine with the
// radiator outside the group (off-axis), and (c) plain non-symmetric
// packings of random codes.
//
// A second experiment measures the thermal OBJECTIVE (not just the
// symmetry argument): corpus circuits carrying Power annotations are placed
// as one engine session with the pair-mismatch term off and on, and the
// worst/mean pair mismatch of the results are compared per backend.
//
// Flags: --json <path>, --smoke (fixed sweep budgets for CI).
#include <cstdio>
#include <iostream>

#include "engine/replica_session.h"
#include "io/corpus.h"
#include "netlist/generators.h"
#include "seqpair/packer.h"
#include "seqpair/sa_placer.h"
#include "thermal/thermal.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace als;

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  std::puts("=== E14: thermal mismatch vs placement symmetry ===\n");

  Table table({"circuit", "placement", "radiator", "worst pair dT (K)",
               "mean pair dT (K)"});

  auto addRows = [&](const std::string& name, const Circuit& c,
                     std::size_t axisRadiator, std::size_t offAxisRadiator) {
    auto evaluate = [&](const Placement& p, std::size_t radiator) {
      std::vector<double> power(c.moduleCount(), 0.0);
      power[radiator] = 0.25;  // 250 mW output device
      ThermalField field(sourcesFromPlacement(p, power));
      double worst = 0.0, sum = 0.0;
      std::size_t pairs = 0;
      for (const SymmetryGroup& g : c.symmetryGroups()) {
        for (double m : pairTemperatureMismatch(p, g, field)) {
          worst = std::max(worst, m);
          sum += m;
          ++pairs;
        }
      }
      return std::pair(worst, pairs ? sum / static_cast<double>(pairs) : 0.0);
    };

    SeqPairPlacerOptions opt;
    CancelToken deadline;
    io.applyBudget(opt, deadline, 1.5);
    opt.seed = 7;
    SeqPairPlacerResult sym = placeSeqPairSA(c, opt);
    io.addRun("engine", "seqpair", name, opt.maxSweeps, sym);

    auto [wOn, mOn] = evaluate(sym.placement, axisRadiator);
    table.addRow({name, "symmetric (S-F SA)", "on axis (self-symmetric)",
                  Table::fmt(wOn, 4), Table::fmt(mOn, 4)});
    auto [wOff, mOff] = evaluate(sym.placement, offAxisRadiator);
    table.addRow({name, "symmetric (S-F SA)", "off axis",
                  Table::fmt(wOff, 4), Table::fmt(mOff, 4)});

    // Plain packings of random codes: legal but not symmetric.
    Rng rng(23);
    std::vector<Coord> w, h;
    for (const Module& m : c.modules()) {
      w.push_back(m.w);
      h.push_back(m.h);
    }
    double worstSum = 0.0, meanSum = 0.0;
    const int trials = 25;
    for (int t = 0; t < trials; ++t) {
      SequencePair sp = SequencePair::random(c.moduleCount(), rng);
      Placement p = packSequencePair(sp, w, h);
      auto [wr, mr] = evaluate(p, axisRadiator);
      worstSum += wr;
      meanSum += mr;
    }
    table.addRow({name, "random packing (avg of 25)", "same device",
                  Table::fmt(worstSum / trials, 4), Table::fmt(meanSum / trials, 4)});
  };

  // Fig. 1: radiator A (self-symmetric, id 2) vs E (free cell, id 0).
  addRows("fig1", makeFig1Example(), 2, 0);
  // Miller op amp: radiator P6 (self-symmetric in CM2, id 3) vs N8 (id 7).
  addRows("miller opamp", makeMillerOpAmp(), 3, 7);

  table.print(std::cout);
  std::puts(
      "\nReading: with the radiator centered on the symmetry axis, mirror\n"
      "pairs are equidistant from it and the induced mismatch is exactly\n"
      "zero; off-axis radiators and non-symmetric placements leave a finite\n"
      "temperature difference across matched couples — the thermal argument\n"
      "Section II gives for symmetric analog placement.\n");

  std::puts("=== thermal objective through one engine session ===\n");
  Table objTable({"circuit", "backend", "thermal wt", "worst pair dT (K)",
                  "mean pair dT (K)", "area/modarea"});
  // Corpus circuits whose Power annotations make the term live.
  for (CorpusCircuit which : {CorpusCircuit::Apte, CorpusCircuit::Ami33}) {
    Circuit c = loadCorpusCircuit(which);
    std::vector<double> power;
    for (const Module& m : c.modules()) power.push_back(m.powerW);
    for (EngineBackend backend : allBackends()) {
      for (double wt : {0.0, 4.0}) {
        EngineOptions opt;
        io.applyBudget(opt, 1.0, 48);
        opt.seed = 7;
        opt.thermalWeight = wt;
        EngineResult r = makeReplicaSession(backend, c, opt)->finish();
        ThermalField field(sourcesFromPlacement(r.placement, power));
        double worst = 0.0, sum = 0.0;
        std::size_t pairs = 0;
        for (const SymmetryGroup& g : c.symmetryGroups()) {
          for (double m : pairTemperatureMismatch(r.placement, g, field)) {
            worst = std::max(worst, m);
            sum += m;
            ++pairs;
          }
        }
        objTable.addRow(
            {corpusName(which), std::string(backendName(backend)),
             Table::fmt(wt, 1), Table::fmt(worst, 4),
             Table::fmt(pairs ? sum / static_cast<double>(pairs) : 0.0, 4),
             Table::fmt(static_cast<double>(r.area) /
                        static_cast<double>(c.totalModuleArea()))});
        io.addRun("engine",
                  std::string(backendName(backend)) +
                      (wt == 0.0 ? "+thermal-off" : "+thermal-on"),
                  corpusName(which), opt.maxSweeps, r);
      }
    }
  }
  objTable.print(std::cout);
  std::puts(
      "\nReading: the pair-mismatch term steers each backend toward layouts\n"
      "where matched couples sit at equal quantized temperature; the flat\n"
      "penalty backend (no exact-symmetry decode) shows the largest drop.");
  return 0;
}
