// Experiment E10 — Fig. 10: electrical-only sizing versus layout-aware
// sizing of the fully-differential folded-cascode amplifier.
//
// Reproduced observables (the paper's absolute micrometre values come from
// its proprietary 0.35 um PDK and PCELL templates):
//   (a) the electrical-only sizing violates specifications once layout
//       parasitics are extracted, and its outline is strongly non-square;
//   (b) the layout-aware sizing meets every specification *including*
//       parasitics and is markedly more compact / closer to square;
//   (c) extraction inside the loop costs only a modest share of the total
//       sizing time (paper: 17%).
//
// Flags: --json <path>, --smoke (reduced iteration budget for CI).
#include <cstdio>
#include <iostream>

#include "layoutaware/sizing.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace als;

namespace {

std::string pass(double value, double bound, bool atLeast = true) {
  bool ok = atLeast ? value >= bound : value <= bound;
  return ok ? "met" : "VIOLATED";
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  std::puts("=== E10 / Fig. 10: layout-aware sizing of a folded-cascode OTA ===\n");
  Technology tech = Technology::c035();
  OtaSpecs specs;
  const std::size_t iterations = io.smoke() ? 6000 : 60000;

  SizingOptions blind;
  blind.layoutAware = false;
  blind.iterations = iterations;
  blind.seed = 17;
  SizingResult a = runSizing(tech, specs, blind);

  SizingOptions aware;
  aware.layoutAware = true;
  aware.iterations = iterations;
  aware.seed = 17;
  SizingResult b = runSizing(tech, specs, aware);

  auto record = [&](const char* flow, const SizingResult& r) {
    io.add("engine", "violation", flow, "folded-cascode-ota", iterations,
           r.violationExtracted);
    io.add("engine", "area", flow, "folded-cascode-ota", iterations,
           r.layout.areaUm2() * 1e6);
    io.add("engine", "seconds", flow, "folded-cascode-ota", iterations,
           r.seconds);
  };
  record("sizing-electrical", a);
  record("sizing-layout-aware", b);

  auto perfRows = [&](const char* flow, const SizingResult& r, Table& t) {
    const OtaPerformance& sized = r.perfSizing;
    const OtaPerformance& ext = r.perfExtracted;
    t.addRow({flow, "dc gain (dB)", Table::fmt(specs.minGainDb, 0) + " min",
              Table::fmt(sized.gainDb, 1), Table::fmt(ext.gainDb, 1),
              pass(ext.gainDb, specs.minGainDb)});
    t.addRow({flow, "GBW (MHz)", Table::fmt(specs.minGbwHz / 1e6, 0) + " min",
              Table::fmt(sized.gbwHz / 1e6, 1), Table::fmt(ext.gbwHz / 1e6, 1),
              pass(ext.gbwHz, specs.minGbwHz)});
    t.addRow({flow, "phase margin (deg)", Table::fmt(specs.minPmDeg, 0) + " min",
              Table::fmt(sized.pmDeg, 1), Table::fmt(ext.pmDeg, 1),
              pass(ext.pmDeg, specs.minPmDeg)});
    t.addRow({flow, "slew rate (V/us)", Table::fmt(specs.minSrVps / 1e6, 0) + " min",
              Table::fmt(sized.srVps / 1e6, 1), Table::fmt(ext.srVps / 1e6, 1),
              pass(ext.srVps, specs.minSrVps)});
    t.addRow({flow, "power (mW)", Table::fmt(specs.maxPowerW * 1e3, 1) + " max",
              Table::fmt(sized.powerW * 1e3, 2), Table::fmt(ext.powerW * 1e3, 2),
              pass(ext.powerW, specs.maxPowerW, false)});
  };

  Table perf({"flow", "specification", "target", "as sized", "with extraction",
              "post-layout"});
  perfRows("electrical-only", a, perf);
  perfRows("layout-aware", b, perf);
  perf.print(std::cout);

  Table geo({"flow", "width (um)", "height (um)", "area (um^2)", "aspect",
             "all specs post-layout", "extraction share"});
  auto geoRow = [&](const char* flow, const SizingResult& r) {
    geo.addRow({flow, Table::fmt(static_cast<double>(r.layout.width) / 1000.0, 1),
                Table::fmt(static_cast<double>(r.layout.height) / 1000.0, 1),
                Table::fmt(r.layout.areaUm2(), 0),
                Table::fmt(r.layout.aspectRatio(), 2),
                r.meetsSpecsExtracted ? "yes" : "NO",
                Table::fmtPercent(r.extractShare, 1)});
  };
  std::puts("");
  geoRow("electrical-only", a);
  geoRow("layout-aware", b);
  geo.print(std::cout);

  std::printf(
      "\nevaluations: electrical-only %zu, layout-aware %zu; layout-aware\n"
      "total %.3fs of which extraction %.3fs (%.1f%%; paper reports ~17%%).\n",
      a.evaluations, b.evaluations, b.seconds, b.extractSeconds,
      b.extractShare * 100.0);
  std::puts(
      "\nReading (cf. Fig. 10): the parasitic-blind sizing looks feasible to\n"
      "its own loop but fails specs once junction and wire capacitances are\n"
      "extracted; the layout-aware flow sizes against extracted parasitics\n"
      "and geometric restrictions, meeting all specs with a compact,\n"
      "near-square outline at a small in-loop extraction cost.");
  return 0;
}
