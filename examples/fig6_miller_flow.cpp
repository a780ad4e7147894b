// End-to-end flow on the paper's Fig. 6 circuit — the Miller op amp —
// chaining the library's scenario subsystems through the engine layer:
//
//   1. Section V:   layout-aware electrical sizing, several candidates on
//                   the portfolio seed schedule (layoutaware/placed_sizing.h);
//   2. Sections II/III: every sized candidate becomes an annotated netlist
//                   (Power on the dissipating devices, a shape curve on the
//                   Miller cap) and is placed IN PARALLEL through the
//                   deterministic BatchPlacer with the thermal objective
//                   enabled (the sequence pair has no shape-selection move
//                   and refuses the knob: engine/knobs.h);
//   3. Section II:  thermal verification of the winner — the symmetric
//                   pairs are checked for temperature mismatch against the
//                   scratch ThermalField the cost model is pinned to.
#include <cstdio>
#include <vector>

#include "geom/placement.h"
#include "layoutaware/placed_sizing.h"
#include "shapefn/enumerate.h"
#include "thermal/thermal.h"

using namespace als;

int main() {
  Technology tech = Technology::c035();

  OtaSpecs specs;
  specs.minGainDb = 70.0;
  specs.minGbwHz = 15e6;
  specs.minPmDeg = 55.0;
  specs.minSrVps = 10e6;

  // --- 1 + 2: sizing candidates, placed in parallel with the thermal term ---
  PlacedSizingOptions opt;
  opt.sizing.layoutAware = true;
  opt.sizing.seed = 6;
  opt.numCandidates = 3;
  opt.backend = EngineBackend::SeqPair;    // symmetry exact by construction
  opt.placement.maxSweeps = 160;
  opt.placement.numRestarts = 4;
  opt.placement.numThreads = 4;
  opt.placement.thermalWeight = 1.0;       // pair-mismatch term ON
  opt.placement.seed = 6;
  PlacedSizingResult flow = runMillerPlacedSizing(tech, specs, opt);

  for (std::size_t i = 0; i < flow.candidates.size(); ++i) {
    const PlacedSizingCandidate& cand = flow.candidates[i];
    std::printf("candidate %zu (seed %llu): gain %.1f dB, GBW %.1f MHz, "
                "specs %s; placed area %.0f um^2%s\n",
                i, static_cast<unsigned long long>(cand.seed),
                cand.sizing.perfExtracted.gainDb,
                cand.sizing.perfExtracted.gbwHz / 1e6,
                cand.sizing.meetsSpecsExtracted ? "met" : "NOT met",
                static_cast<double>(cand.placement.area) * 1e-6,
                i == flow.bestIndex ? "  <- winner" : "");
  }
  const PlacedSizingCandidate& best = flow.best();
  std::printf("\nflow: %zu candidates sized + placed in %.1fs\n\n",
              flow.candidates.size(), flow.seconds);

  // --- symmetry of the winner (exact by construction for seqpair) ---
  for (const SymmetryGroup& g : best.circuit.symmetryGroups()) {
    std::printf("  %-4s %s\n", g.name.c_str(),
                mirrorAxisOf(best.placement.placement, g) ? "mirrored exactly"
                                                          : "VIOLATED");
  }

  // --- 3. thermal check from the circuit's own Power annotations ---
  std::vector<double> power(best.circuit.moduleCount(), 0.0);
  for (ModuleId m = 0; m < best.circuit.moduleCount(); ++m) {
    power[m] = best.circuit.module(m).powerW;
  }
  ThermalField field(sourcesFromPlacement(best.placement.placement, power));
  std::puts("\nthermal mismatch across matched pairs (annotated radiators):");
  for (const SymmetryGroup& g : best.circuit.symmetryGroups()) {
    auto mm = pairTemperatureMismatch(best.placement.placement, g, field);
    for (std::size_t i = 0; i < mm.size(); ++i) {
      std::printf("  %-4s pair %zu: dT = %.4f K\n", g.name.c_str(), i, mm[i]);
    }
  }
  std::printf("\n%s", asciiArt(best.placement.placement,
                               best.circuit.moduleNames(), 56).c_str());
  return 0;
}
