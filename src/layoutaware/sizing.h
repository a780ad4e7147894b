// Simulation-based sizing optimization and the two flows of experiment E10
// (Fig. 10): electrical-only versus layout-aware.
//
// Both flows run the same annealing optimizer over the same design vector
// (currents, widths, lengths, fold counts).  They differ only in what each
// cost evaluation sees:
//
//   electrical-only  — performance without any layout parasitics, no
//                      geometric terms.  The layout is generated once at
//                      the end; re-simulation with extracted parasitics is
//                      the honest post-layout verdict (paper: "many of the
//                      electrical specifications ... are unfulfilled when
//                      layout parasitics are considered").
//   layout-aware     — every evaluation instantiates the template, runs
//                      extraction, and evaluates performance *with* the
//                      extracted parasitics; the cost additionally rewards
//                      compact near-square outlines (geometrically-
//                      constrained sizing).  Extraction wall-clock time is
//                      accumulated so the flow reports its share of the
//                      total sizing time (paper: about 17%).
#pragma once

#include <cstdint>

#include "layoutaware/extract.h"
#include "layoutaware/ota.h"
#include "layoutaware/template_gen.h"

namespace als {

/// Sweep count of the sizing annealers (both OTA flows).  The deterministic
/// budget contract is `movesPerTemp = iterations / kSizingAnnealSweeps` with
/// `maxSweeps = kSizingAnnealSweeps`, so a run executes ~`iterations` moves;
/// the constant must stay below the ~149-sweep freeze point of the 0.94
/// cooling schedule for the sweep cap to be the binding rule.
inline constexpr std::size_t kSizingAnnealSweeps = 120;

struct SizingOptions {
  bool layoutAware = true;
  double maxAspectRatio = 1.5;   ///< geometric restriction (aware flow only)
  double areaWeight = 0.15;      ///< area objective weight (aware flow only)
  std::size_t iterations = 6000; ///< annealing move budget (primary, deterministic)
  std::uint64_t seed = 3;
};

struct SizingResult {
  FoldedCascodeDesign design;
  TemplateLayout layout;          ///< template of the final design
  OtaPerformance perfSizing;      ///< what the sizing loop believed
  OtaPerformance perfExtracted;   ///< post-layout truth (with extraction)
  double violationSizing = 0.0;   ///< spec violation the loop saw
  double violationExtracted = 0.0;///< spec violation after extraction
  bool meetsSpecsExtracted = false;
  double seconds = 0.0;           ///< total sizing wall-clock
  double extractSeconds = 0.0;    ///< time spent inside extraction
  double extractShare = 0.0;      ///< extractSeconds / seconds
  std::size_t evaluations = 0;
};

/// Runs one flow.
SizingResult runSizing(const Technology& tech, const OtaSpecs& specs,
                       const SizingOptions& options);

}  // namespace als
