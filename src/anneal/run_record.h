// The one record of a placement run.  Every native result and
// `EngineResult` derive from `RunRecord` and declare only their extras;
// `stampRunRecord` is the one place that fills it (anneal/session.h), and
// everything above a session moves, slices or sums it (`RunCounters::
// operator+=`) instead of copying it field by field.  A new counter means
// editing `RunCounters` (anneal/annealer.h) and the result codec
// (io/serve_protocol.h).
#pragma once

#include "anneal/annealer.h"
#include "geom/placement.h"
#include "netlist/circuit.h"

namespace als {

struct RunRecord : RunCounters {
  Placement placement;
  Coord area = 0;        ///< placement.boundingBox().area()
  Coord hpwl = 0;        ///< totalHpwl(placement, circuit.netPins())
  double cost = 0.0;     ///< the annealer's best cost
  double seconds = 0.0;  ///< wall clock of the run

  /// Deleted so that `==` on two records cannot silently compare only the
  /// inherited counters; compare `counters()` explicitly.
  bool operator==(const RunRecord&) const = delete;
};

/// Fills the shared part of `record` once its placement is decoded: the
/// counters, cost and seconds from `annealed`, the exact area and
/// wirelength of the placement on `circuit`.
template <class State>
void stampRunRecord(RunRecord& record, const AnnealResult<State>& annealed,
                    const Circuit& circuit) {
  record.counters() = annealed;
  record.area = record.placement.boundingBox().area();
  record.hpwl = totalHpwl(record.placement, circuit.netPins());
  record.cost = annealed.bestCost;
  record.seconds = annealed.seconds;
}

}  // namespace als
