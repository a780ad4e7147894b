// Experiment E9 — Fig. 8: the enhanced and regular shape functions of the
// largest circuit ("lnamixbias", 110 modules), plotted into one diagram.
//
// The bench prints both pareto staircases as CSV series (w_um, h_um per
// point) — the ESF curve dominates (lies inside) the RSF curve.
//
// Flags: --json <path>, --smoke (uses the mid-size biasynth circuit in CI).
#include <cstdio>

#include "netlist/generators.h"
#include "shapefn/deterministic.h"
#include "util/bench_json.h"

using namespace als;

namespace {

void printSeries(const char* label, const ShapeFunction& sf) {
  std::printf("# series: %s (%zu pareto points)\n", label, sf.size());
  std::printf("series,w_um,h_um,area_um2\n");
  for (const ShapeEntry& e : sf.entries()) {
    std::printf("%s,%.1f,%.1f,%.0f\n", label, static_cast<double>(e.w) / 1000.0,
                static_cast<double>(e.h) / 1000.0,
                static_cast<double>(e.area()) * 1e-6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  std::puts("=== E9 / Fig. 8: ESF and RSF of lnamixbias (110 modules) ===\n");
  Circuit c = makeTableICircuit(io.smoke() ? TableICircuit::Biasynth
                                           : TableICircuit::Lnamixbias);

  DeterministicOptions esfOpt;
  esfOpt.kind = AdditionKind::Enhanced;
  DeterministicResult esf = placeDeterministic(c, esfOpt);

  DeterministicOptions rsfOpt;
  rsfOpt.kind = AdditionKind::Regular;
  DeterministicResult rsf = placeDeterministic(c, rsfOpt);

  printSeries("ESF", esf.rootFunction);
  std::puts("");
  printSeries("RSF", rsf.rootFunction);

  // Domination over the shared width range: at each RSF breakpoint inside
  // the ESF curve's width span, the ESF staircase must be no taller.  (The
  // two curves span different width ranges — enhanced additions shrink the
  // wide flat variants — so the comparison is clamped to the overlap,
  // matching how Fig. 8 overlays the two staircases.)
  std::size_t compared = 0, dominatedCount = 0;
  const auto& esfEntries = esf.rootFunction.entries();
  for (const ShapeEntry& r : rsf.rootFunction.entries()) {
    if (r.w < esfEntries.front().w) continue;  // left of the ESF span
    Coord hEsf = esfEntries.front().h;
    for (const ShapeEntry& e : esfEntries) {
      if (e.w <= r.w) hEsf = e.h;  // entries sorted by w; h decreasing
    }
    ++compared;
    if (hEsf <= r.h) ++dominatedCount;
  }
  io.addDeterministic("esf", c.name(), esf);
  io.addDeterministic("rsf", c.name(), rsf);
  std::printf("\nESF at-or-below RSF on the shared width range: %zu / %zu points\n",
              dominatedCount, compared);
  std::printf("best area: ESF %.0f um^2 (usage %.2f%%)  vs  RSF %.0f um^2 (usage %.2f%%)\n",
              static_cast<double>(esf.area) * 1e-6, esf.areaUsage * 100.0,
              static_cast<double>(rsf.area) * 1e-6, rsf.areaUsage * 100.0);
  return 0;
}
