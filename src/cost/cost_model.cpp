#include "cost/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace als {

CostModel::CostModel(const Circuit& circuit, Objective objective)
    : circuit_(&circuit), objective_(objective) {
  const std::size_t n = circuit.moduleCount();
  netStart_.reserve(circuit.nets().size() + 1);
  netStart_.push_back(0);
  for (const Net& net : circuit.nets()) {
    netPins_.insert(netPins_.end(), net.pins.begin(), net.pins.end());
    netStart_.push_back(netPins_.size());
  }

  // Proximity groups come from the hierarchy; one slot per Proximity node,
  // in node-id order (the order the flat placer's full scan used).
  const HierTree& h = circuit.hierarchy();
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    if (h.node(id).constraint != GroupConstraint::Proximity) continue;
    proxMembers_.push_back(h.leavesUnder(id));
  }

  // Thermal topology: one mismatch slot per symmetric pair (across all
  // groups, flattened in group order), and one radiator per module with a
  // positive power annotation.  Self-symmetric modules sit on their own
  // axis and contribute no mismatch, so pairs are the whole story.
  for (const SymmetryGroup& g : circuit.symmetryGroups()) {
    thermalPairs_.insert(thermalPairs_.end(), g.pairs.begin(), g.pairs.end());
  }
  for (std::size_t m = 0; m < n; ++m) {
    double w = circuit.module(m).powerW;
    if (w > 0.0) radiators_.emplace_back(m, w);
  }

  centres_.resize(n);
}

Coord CostModel::groupDeviation(const Placement& p, std::size_t group) const {
  const SymmetryGroup& g = circuit_->symmetryGroup(group);
  std::size_t terms = g.pairs.size() + g.selfs.size();
  if (terms == 0) return 0;
  Coord axis2Sum = 0;
  for (const SymPair& pr : g.pairs) {
    axis2Sum += (p[pr.a].center2x().x + p[pr.b].center2x().x) / 2;
  }
  for (ModuleId s : g.selfs) axis2Sum += p[s].center2x().x;
  Coord axis2 = axis2Sum / static_cast<Coord>(terms);
  Coord total = 0;
  for (const SymPair& pr : g.pairs) {
    total += std::abs(p[pr.a].center2x().x + p[pr.b].center2x().x - 2 * axis2) / 2;
    total += std::abs(p[pr.a].y - p[pr.b].y);
  }
  for (ModuleId s : g.selfs) total += std::abs(p[s].center2x().x - axis2) / 2;
  return total;
}

bool CostModel::proxDisconnected(const Placement& p, std::size_t slot) const {
  // Runs once per proximity group per move: both the member-rect list and
  // the union-find parent array are reused scratch (mutable members;
  // safe because a CostModel is a per-run object — see the thread-safety
  // note in the header).
  proxRects_.clear();
  proxRects_.reserve(proxMembers_[slot].size());
  for (ModuleId m : proxMembers_[slot]) proxRects_.push_back(p[m]);
  return !isConnectedRegion(proxRects_, proxUf_);
}

// Quantized (int64 µK) temperature at module m's center, summed over the
// radiators.  Per-(radiator, point) quantization makes the sum independent
// of accumulation order.  Coordinates convert to µm the same way
// ThermalField's sourcesFromPlacement does: center2x() / 2000.0.
std::int64_t CostModel::quantizedTempAt(const Placement& p, ModuleId m) const {
  Point c = p[m].center2x();
  double xUm = static_cast<double>(c.x) / 2000.0;
  double yUm = static_cast<double>(c.y) / 2000.0;
  std::int64_t t = 0;
  for (const auto& [rm, watts] : radiators_) {
    Point rc = p[rm].center2x();
    HeatSource s{static_cast<double>(rc.x) / 2000.0,
                 static_cast<double>(rc.y) / 2000.0, watts};
    t += quantizedContribution(s, xUm, yUm, thermalModel_);
  }
  return t;
}

Coord CostModel::pairMismatch(const Placement& p, std::size_t slot) const {
  const SymPair& pr = thermalPairs_[slot];
  return std::abs(quantizedTempAt(p, pr.a) - quantizedTempAt(p, pr.b));
}

Coord CostModel::thermalMismatch(const Placement& p) const {
  Coord total = 0;
  for (std::size_t slot = 0; slot < thermalPairs_.size(); ++slot) {
    total += pairMismatch(p, slot);
  }
  return total;
}

Coord CostModel::symmetryDeviation(const Placement& p) const {
  Coord total = 0;
  for (std::size_t g = 0; g < circuit_->symmetryGroups().size(); ++g) {
    total += groupDeviation(p, g);
  }
  return total;
}

int CostModel::proximityViolations(const Placement& p) const {
  int violations = 0;
  for (std::size_t slot = 0; slot < proxMembers_.size(); ++slot) {
    if (proxDisconnected(p, slot)) ++violations;
  }
  return violations;
}

CostBreakdown CostModel::reduce(const Placement& p) const {
  assert(p.size() == centres_.size() &&
         "placement and circuit module counts differ");
  CostBreakdown bd;
  bd.boundingBox = p.boundingBox();
  bd.area = bd.boundingBox.area();
  for (std::size_t m = 0; m < p.size(); ++m) centres_[m] = p[m].center2x();

  // HPWL over every net, in net order: each net's pin-centre box (netBox's
  // reduction over the precomputed centres) and its exact half perimeter.
  const std::size_t* pins = netPins_.data();
  for (std::size_t i = 0; i + 1 < netStart_.size(); ++i) {
    const std::size_t* pin = pins + netStart_[i];
    const std::size_t* end = pins + netStart_[i + 1];
    if (pin == end) continue;
    Point c = centres_[*pin];
    NetBox box{c.x, c.x, c.y, c.y};
    for (++pin; pin != end; ++pin) {
      c = centres_[*pin];
      box.xlo2 = std::min(box.xlo2, c.x);
      box.xhi2 = std::max(box.xhi2, c.x);
      box.ylo2 = std::min(box.ylo2, c.y);
      box.yhi2 = std::max(box.yhi2, c.y);
    }
    bd.hpwl += box.hpwl();
  }

  if (objective_.usesSymmetry()) bd.symDeviation = symmetryDeviation(p);
  if (objective_.usesProximity()) {
    bd.proximityViolations = proximityViolations(p);
  }
  if (objective_.usesThermal()) bd.thermalMismatch = thermalMismatch(p);
  bd.cost = objective_.compose(bd.boundingBox, bd.hpwl, bd.symDeviation,
                               bd.proximityViolations, bd.thermalMismatch);
  return bd;
}

double CostModel::evaluate(const Placement& p) const { return reduce(p).cost; }

CostBreakdown CostModel::evaluateBreakdown(const Placement& p) const {
  // The cost skips zero-weight terms, matching evaluate(); the reporting
  // aggregates do not, so fill in the ones reduce() skipped.
  CostBreakdown bd = reduce(p);
  if (!objective_.usesSymmetry()) bd.symDeviation = symmetryDeviation(p);
  if (!objective_.usesProximity()) {
    bd.proximityViolations = proximityViolations(p);
  }
  if (!objective_.usesThermal()) bd.thermalMismatch = thermalMismatch(p);
  return bd;
}

}  // namespace als
