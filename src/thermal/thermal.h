// Steady-state on-chip thermal field and symmetry-driven mismatch analysis.
//
// Section II motivates placement symmetry thermally: bipolar (and to a
// lesser degree MOS) devices are strongly temperature sensitive, so
// "thermally-sensitive device couples should be placed symmetrically
// relative to the thermally-radiating devices.  Since the symmetrically
// placed sensitive components are equidistant from the radiating
// component(s), they see roughly identical ambient temperatures and no
// temperature induced mismatch results."
//
// The field model is the standard 2D steady-state point-source
// superposition: each radiator contributes DT(r) = P * k * ln(R / (r + r0))
// (clamped at 0 beyond the die radius R), with k the substrate spreading
// coefficient and r0 a source-size regularization.  Distances are evaluated
// between device centers in micrometres.  This reproduces the qualitative
// facts the argument needs — monotone decay with distance and linear
// superposition — so exact mirror geometry yields exactly zero mismatch
// when the radiators sit on the symmetry axis (tests assert this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/placement.h"
#include "netlist/module.h"

namespace als {

struct HeatSource {
  double xUm = 0.0;  ///< center coordinates in micrometres
  double yUm = 0.0;
  double powerW = 0.0;
};

struct ThermalModel {
  double spreadCoeff = 18.0;  ///< K per W per ln-unit (substrate spreading)
  double dieRadiusUm = 2000.0;
  double sourceSizeUm = 3.0;  ///< regularization radius r0
};

/// Fixed-point temperature quantum of the thermal objective: temperatures
/// are quantized to int64 micro-kelvin so the cost layer can sum them
/// exactly (int64 addition is order-independent, so any reduction order
/// gives the same total bit for bit — the cost/cost_model.h exactness
/// contract).
inline constexpr double kThermalQuantumPerK = 1e6;

/// One radiator's temperature contribution at a point, quantized [µK].
/// The double arithmetic mirrors ThermalField::temperatureAt exactly for a
/// single source; the int64 rounding happens per (source, point) pair, which
/// is what makes multi-source sums order-independent.
std::int64_t quantizedContribution(const HeatSource& s, double xUm, double yUm,
                                   const ThermalModel& model);

class ThermalField {
 public:
  ThermalField(std::vector<HeatSource> sources, const ThermalModel& model = {});

  /// Temperature rise above ambient at a point [K].
  double temperatureAt(double xUm, double yUm) const;

  /// Fixed-point temperature at a point [µK]: the sum of every source's
  /// quantizedContribution.  This is the scratch oracle of the thermal
  /// objective — cost/cost_model.h computes the same per-source int64
  /// terms, so its aggregates EXPECT_EQ this value.
  std::int64_t quantizedAt(double xUm, double yUm) const;

  const std::vector<HeatSource>& sources() const { return sources_; }

 private:
  std::vector<HeatSource> sources_;
  ThermalModel model_;
};

/// Heat sources from a placement: every module with a positive entry in
/// `powerW` radiates from its center.
std::vector<HeatSource> sourcesFromPlacement(const Placement& p,
                                             std::span<const double> powerW);

/// Temperature difference seen by each symmetric pair of a group [K];
/// entry i corresponds to group.pairs[i].
std::vector<double> pairTemperatureMismatch(const Placement& p,
                                            const SymmetryGroup& group,
                                            const ThermalField& field);

/// Worst pair mismatch over all groups [K].
double worstPairMismatch(const Placement& p,
                         std::span<const SymmetryGroup> groups,
                         const ThermalField& field);

}  // namespace als
