#include "layoutaware/miller.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "anneal/annealer.h"
#include "layoutaware/extract.h"
#include "util/stopwatch.h"

namespace als {

OtaPerformance evalMiller(const Technology& tech, const MillerDesign& d,
                          const MillerParasitics& par) {
  OtaPerformance perf;
  const double iHalf = d.ib / 2.0;

  MosSmallSignal ss1 = mosSmallSignal(tech, d.inputPair(), iHalf);
  MosSmallSignal ssN = mosSmallSignal(tech, d.mirror(), iHalf);
  MosSmallSignal ss8 = mosSmallSignal(tech, d.driver(), d.i2);
  MosSmallSignal ssP = mosSmallSignal(tech, d.biasLeg(), d.i2);

  const double a1 = ss1.gm / (ss1.gds + ssN.gds);
  const double a2 = ss8.gm / (ss8.gds + ssP.gds);
  perf.gainDb = 20.0 * std::log10(std::max(a1 * a2, 1e-12));

  // Dominant pole set by Miller compensation; unity-gain frequency.
  perf.gbwHz = ss1.gm / (2.0 * std::numbers::pi * d.cc);

  // Output pole and the right-half-plane zero: both eat phase.  The gate
  // capacitance of N8 is schematic-known; junctions/wires arrive via `par`.
  MosCaps c8 = mosCaps(tech, d.driver());
  const double cOut = d.cl + par.cOut + c8.cgd;
  const double p2 = ss8.gm / (2.0 * std::numbers::pi * cOut);
  const double z = ss8.gm / (2.0 * std::numbers::pi * d.cc);
  // First-stage node pole (mirror gate + N8 gate + layout extras), usually
  // pushed out by Cc but parasitic-sensitive.
  MosCaps cN = mosCaps(tech, d.mirror());
  const double cNode1 = par.cNode1 + c8.cgs + cN.cgs;
  const double p3 =
      (ss1.gds + ssN.gds + ss8.gm * d.cc / std::max(cOut, 1e-15)) /
      (2.0 * std::numbers::pi * std::max(cNode1, 1e-18));
  double pm = 90.0 - std::atan(perf.gbwHz / p2) * 180.0 / std::numbers::pi -
              std::atan(perf.gbwHz / z) * 180.0 / std::numbers::pi -
              std::atan(perf.gbwHz / p3) * 180.0 / std::numbers::pi;
  perf.pmDeg = pm;

  perf.srVps = std::min(d.ib / d.cc, d.i2 / (cOut));
  perf.powerW = tech.vdd * (d.ib + d.i2) * 1.1;

  const double stack1 = ssP.vov + ss1.vov + ssN.vov + 0.3;
  perf.saturated = stack1 < tech.vdd && (ss8.vov + ssP.vov + 0.4) < tech.vdd;
  return perf;
}

TemplateLayout generateMillerLayout(const Technology& tech, const MillerDesign& d) {
  TemplateLayout out;
  auto toDbu = [](double m) { return static_cast<Coord>(std::llround(m * 1e9)); };
  const Coord spacing = toDbu(tech.cellSpacing);
  const Coord rowGap = toDbu(tech.rowSpacing);

  struct RowSpec {
    const char* a;
    const char* b;
    MosSpec spec;
  };
  std::vector<RowSpec> rows{
      {"N3", "N4", d.mirror()},
      {"P1", "P2", d.inputPair()},
      {"P5", "P6", d.biasLeg()},
  };
  Coord y = 0;
  Coord coreWidth = 0;
  std::vector<Coord> rowCenterY;
  for (const RowSpec& row : rows) {
    Coord cw = toDbu(mosCellWidth(tech, row.spec));
    Coord ch = toDbu(mosCellHeight(tech, row.spec));
    out.cells.push({0, y, cw, ch});
    out.names.push_back(row.a);
    out.cells.push({cw + spacing, y, cw, ch});
    out.names.push_back(row.b);
    coreWidth = std::max(coreWidth, 2 * cw + spacing);
    rowCenterY.push_back(y + ch / 2);
    y += ch + rowGap;
  }
  // P7 and the output driver N8 share a column right of the core.
  Coord x8 = coreWidth + 2 * spacing;
  Coord w8 = toDbu(mosCellWidth(tech, d.driver()));
  Coord h8 = toDbu(mosCellHeight(tech, d.driver()));
  Coord wp7 = toDbu(mosCellWidth(tech, d.biasLeg()));
  Coord hp7 = toDbu(mosCellHeight(tech, d.biasLeg()));
  out.cells.push({x8, 0, w8, h8});
  out.names.push_back("N8");
  out.cells.push({x8, h8 + spacing, wp7, hp7});
  out.names.push_back("P7");

  // Miller cap between core and driver column top; load cap rightmost.
  Coord capSide = toDbu(std::sqrt(d.cc / tech.capDensity));
  Coord clSide = toDbu(std::sqrt(d.cl / tech.capDensity));
  Coord capX = std::max(x8 + std::max(w8, wp7), coreWidth) + 2 * spacing;
  out.cells.push({capX, 0, capSide, capSide});
  out.names.push_back("CC");
  out.cells.push({capX, capSide + spacing, clSide, clSide});
  out.names.push_back("CL");

  Rect bb = out.cells.boundingBox();
  out.width = bb.w;
  out.height = bb.h;

  // Node-1 net: mirror drain row -> driver gate column.
  out.foldNetLen = (static_cast<double>(x8) + w8 / 2.0 +
                    std::abs(static_cast<double>(rowCenterY[0]))) *
                   1e-9;
  // Output net: driver drain -> Miller cap -> load cap.
  out.outNetLen = (static_cast<double>(capX - x8) + capSide +
                   static_cast<double>(capSide + spacing)) *
                  1e-9;
  return out;
}

MillerParasitics extractMillerParasitics(const Technology& tech,
                                         const MillerDesign& d,
                                         const TemplateLayout& layout) {
  MillerParasitics par;
  MosCaps cN = mosCaps(tech, d.mirror());
  MosCaps c1 = mosCaps(tech, d.inputPair());
  MosCaps c8 = mosCaps(tech, d.driver());
  MosCaps cP = mosCaps(tech, d.biasLeg());
  // Node 1: N4 drain + P2 drain junctions + wire to the driver gate.
  par.cNode1 = cN.cdb + c1.cdb + tech.wireCapPerM * layout.foldNetLen;
  // Output: N8 + P7 drain junctions + output routing.
  par.cOut = c8.cdb + cP.cdb + tech.wireCapPerM * layout.outNetLen;
  return par;
}

namespace {

MillerDesign clampedMiller(MillerDesign d, const Technology& tech) {
  auto clampD = [](double v, double lo, double hi) {
    return std::min(hi, std::max(lo, v));
  };
  d.ib = clampD(d.ib, 10e-6, 400e-6);
  d.i2 = clampD(d.i2, 40e-6, 1.5e-3);
  d.w1 = clampD(d.w1, 2e-6, 300e-6);
  d.wn = clampD(d.wn, 2e-6, 300e-6);
  d.w8 = clampD(d.w8, 4e-6, 600e-6);
  d.wp = clampD(d.wp, 2e-6, 300e-6);
  d.l1 = clampD(d.l1, tech.minL, 4e-6);
  d.ln = clampD(d.ln, tech.minL, 4e-6);
  d.l8 = clampD(d.l8, tech.minL, 2e-6);
  d.lp = clampD(d.lp, tech.minL, 4e-6);
  d.cc = clampD(d.cc, 0.3e-12, 8e-12);
  d.m1 = std::clamp(d.m1, 1, 16);
  d.mn = std::clamp(d.mn, 1, 16);
  d.m8 = std::clamp(d.m8, 1, 24);
  d.mp = std::clamp(d.mp, 1, 16);
  return d;
}

}  // namespace

MillerSizingResult runMillerSizing(const Technology& tech, const OtaSpecs& specs,
                                   const SizingOptions& options) {
  Stopwatch total;
  double extractSeconds = 0.0;
  std::size_t evaluations = 0;

  auto costOf = [&](const MillerDesign& d) {
    ++evaluations;
    MillerParasitics par;
    TemplateLayout layout;
    if (options.layoutAware) {
      layout = generateMillerLayout(tech, d);
      Stopwatch ex;
      par = extractMillerParasitics(tech, d, layout);
      extractSeconds += ex.seconds();
    }
    double cost = specViolation(evalMiller(tech, d, par), specs);
    if (options.layoutAware) {
      double ar = layout.aspectRatio();
      ar = std::max(ar, 1.0 / std::max(ar, 1e-9));
      if (ar > options.maxAspectRatio) cost += (ar - options.maxAspectRatio);
      cost += options.areaWeight * layout.areaUm2() / (200.0 * 200.0);
    } else {
      cost += 0.08 * ((d.ib + d.i2) / 1e-3);
    }
    return cost;
  };

  auto move = [&](MillerDesign& d, Rng& rng) {
    switch (rng.index(12)) {
      case 0: d.ib *= std::exp(rng.normal(0.0, 0.18)); break;
      case 1: d.i2 *= std::exp(rng.normal(0.0, 0.18)); break;
      case 2: d.w1 *= std::exp(rng.normal(0.0, 0.22)); break;
      case 3: d.wn *= std::exp(rng.normal(0.0, 0.22)); break;
      case 4: d.w8 *= std::exp(rng.normal(0.0, 0.22)); break;
      case 5: d.wp *= std::exp(rng.normal(0.0, 0.22)); break;
      case 6: d.l1 *= std::exp(rng.normal(0.0, 0.15)); break;
      case 7: d.ln *= std::exp(rng.normal(0.0, 0.15)); break;
      case 8: d.l8 *= std::exp(rng.normal(0.0, 0.15)); break;
      case 9: d.cc *= std::exp(rng.normal(0.0, 0.2)); break;
      case 10: d.m1 += static_cast<int>(rng.uniformInt(-2, 2)); break;
      case 11: d.m8 += static_cast<int>(rng.uniformInt(-2, 2)); break;
    }
    d = clampedMiller(d, tech);
  };

  AnnealOptions annealOpt;
  annealOpt.seed = options.seed;
  // Same sweep-budgeted contract as runSizing: `iterations` is the
  // deterministic budget.
  annealOpt.maxSweeps = kSizingAnnealSweeps;
  annealOpt.movesPerTemp =
      std::max<std::size_t>(options.iterations / kSizingAnnealSweeps, 10);
  annealOpt.coolingFactor = 0.94;
  auto annealed =
      anneal(clampedMiller(MillerDesign{}, tech), costOf, move, annealOpt);

  MillerSizingResult result;
  result.design = annealed.best;
  result.layout = generateMillerLayout(tech, result.design);
  MillerParasitics extracted =
      extractMillerParasitics(tech, result.design, result.layout);
  MillerParasitics none;
  result.perfSizing = options.layoutAware
                          ? evalMiller(tech, result.design, extracted)
                          : evalMiller(tech, result.design, none);
  result.perfExtracted = evalMiller(tech, result.design, extracted);
  result.violationSizing = specViolation(result.perfSizing, specs);
  result.violationExtracted = specViolation(result.perfExtracted, specs);
  result.meetsSpecsExtracted = result.violationExtracted <= 1e-9;
  result.seconds = total.seconds();
  result.extractShare =
      result.seconds > 0 ? extractSeconds / result.seconds : 0.0;
  result.evaluations = evaluations;
  return result;
}

}  // namespace als
