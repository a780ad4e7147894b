// Layout-aware sizing (Section V): size a folded-cascode OTA twice — once
// electrically blind, once with template generation + parasitic extraction
// inside every cost evaluation — and compare the post-layout outcome.  The
// closing stage re-hosts the sizing loop on the runtime layer: several
// independently seeded Miller candidates are sized, annotated, and placed
// in parallel through the deterministic batch placer
// (layoutaware/placed_sizing.h), and one winner is reduced out.
#include <cstdio>

#include "layoutaware/placed_sizing.h"
#include "layoutaware/sizing.h"

using namespace als;

namespace {

void report(const char* label, const SizingResult& r, const OtaSpecs& specs) {
  std::printf("--- %s ---\n", label);
  std::printf("design: Ib=%.0f uA  W1=%.1f um (m=%d)  Wp=%.1f um (m=%d)  "
              "Wn=%.1f um (m=%d)\n",
              r.design.ib * 1e6, r.design.w1 * 1e6, r.design.m1,
              r.design.wp * 1e6, r.design.mp, r.design.wn * 1e6, r.design.mn);
  std::printf("layout: %.1f x %.1f um  (area %.0f um^2, aspect %.2f)\n",
              static_cast<double>(r.layout.width) / 1000.0,
              static_cast<double>(r.layout.height) / 1000.0, r.layout.areaUm2(),
              r.layout.aspectRatio());
  auto line = [](const char* name, double sized, double extracted, double target,
                 const char* unit, bool atLeast) {
    bool ok = atLeast ? extracted >= target : extracted <= target;
    std::printf("  %-14s sized %8.2f -> extracted %8.2f %-5s (target %s%.2f) %s\n",
                name, sized, extracted, unit, atLeast ? ">= " : "<= ", target,
                ok ? "met" : "VIOLATED");
  };
  line("dc gain", r.perfSizing.gainDb, r.perfExtracted.gainDb, specs.minGainDb,
       "dB", true);
  line("GBW", r.perfSizing.gbwHz / 1e6, r.perfExtracted.gbwHz / 1e6,
       specs.minGbwHz / 1e6, "MHz", true);
  line("phase margin", r.perfSizing.pmDeg, r.perfExtracted.pmDeg, specs.minPmDeg,
       "deg", true);
  line("slew rate", r.perfSizing.srVps / 1e6, r.perfExtracted.srVps / 1e6,
       specs.minSrVps / 1e6, "V/us", true);
  line("power", r.perfSizing.powerW * 1e3, r.perfExtracted.powerW * 1e3,
       specs.maxPowerW * 1e3, "mW", false);
  std::printf("  all specs met post-layout: %s\n",
              r.meetsSpecsExtracted ? "YES" : "no");
  std::printf("  sizing time %.1fs, extraction share %.1f%% (%zu evaluations)\n\n",
              r.seconds, r.extractShare * 100.0, r.evaluations);
}

}  // namespace

int main() {
  Technology tech = Technology::c035();
  OtaSpecs specs;

  SizingOptions blind;
  blind.layoutAware = false;
  blind.seed = 4;
  report("electrical-only sizing (parasitic-blind)", runSizing(tech, specs, blind),
         specs);

  SizingOptions aware;
  aware.layoutAware = true;
  aware.seed = 4;
  report("layout-aware sizing (template + extraction in the loop)",
         runSizing(tech, specs, aware), specs);

  // Portfolio-hosted flow: the same layout-aware loop, several seeds at a
  // time, each candidate placed through the plan executor on the sequence
  // pair with the thermal objective enabled (no shape move there: the
  // backend refuses the knob, engine/knobs.h).  Deterministic across thread
  // counts (BatchPlacer's 1-vs-N contract).
  std::puts("--- portfolio-hosted placed sizing (Miller, 3 candidates) ---");
  OtaSpecs millerSpecs;
  millerSpecs.minGainDb = 70.0;
  millerSpecs.minGbwHz = 15e6;
  millerSpecs.minPmDeg = 55.0;
  millerSpecs.minSrVps = 10e6;
  PlacedSizingOptions popt;
  popt.sizing.layoutAware = true;
  popt.sizing.seed = 4;
  popt.numCandidates = 3;
  popt.placement.maxSweeps = 120;
  popt.placement.numRestarts = 2;
  popt.placement.numThreads = 4;
  popt.placement.thermalWeight = 1.0;
  PlacedSizingResult flow = runMillerPlacedSizing(tech, millerSpecs, popt);
  for (std::size_t i = 0; i < flow.candidates.size(); ++i) {
    const PlacedSizingCandidate& cand = flow.candidates[i];
    std::printf("  candidate %zu: specs %s (violation %.3f), placement cost "
                "%.4g, area %.0f um^2%s\n",
                i, cand.sizing.meetsSpecsExtracted ? "met" : "not met",
                cand.sizing.violationExtracted, cand.placement.cost,
                static_cast<double>(cand.placement.area) * 1e-6,
                i == flow.bestIndex ? "  <- winner" : "");
  }
  std::printf("  flow total %.1fs (sizing + parallel placement)\n",
              flow.seconds);
  return 0;
}
