// Layout-aware sizing hosted on the runtime layer: several independently
// seeded Miller sizing candidates, each turned into a placement netlist and
// placed IN PARALLEL through the deterministic BatchPlacer, then reduced to
// one winner by a total order.
//
// This is the scenario glue between the two halves of the paper the library
// otherwise demonstrates separately: Section V's sizing loop (sizing.h,
// miller.h) produces device dimensions, and the placement engines
// (engine/placement_engine.h) produce constrained floorplans.  Here the
// sized devices become real modules — footprints from the same cell
// derivation the layout template uses, Power annotations from the bias
// currents (the thermal objective's radiators), a discretized shape curve
// on the Miller capacitor (the soft block of the design) — so a candidate's
// placement runs with the thermal workload enabled end to end, and with
// shape selection on a backend that has the move.
//
// Determinism contract: the candidate seeds come from the portfolio seed
// schedule (anneal/annealer.h), the sizing runs are sequential pure
// functions of (tech, specs, seed), the placements go through
// BatchPlacer::placeAll (bit-identical for 1 and N threads), and the winner
// reduction is a total order over exact results — so the whole flow is
// bit-identical across thread counts, the property runtime_test pins for
// the portfolio itself.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/placement_engine.h"
#include "layoutaware/miller.h"
#include "netlist/circuit.h"

namespace als {

struct PlacedSizingOptions {
  /// Per-candidate sizing knobs; `sizing.seed` is the BASE of the candidate
  /// seed schedule (candidate i sizes with portfolioSeedAt(seed, i)).
  SizingOptions sizing;
  std::size_t numCandidates = 4;
  /// Backend + engine options the candidates are placed with.  numThreads
  /// fans the candidate x restart grid; thermalWeight and shapeMoveProb
  /// work here like everywhere else (the candidates carry Power annotations
  /// and a capacitor shape curve), so the default sequence pair refuses
  /// shapeMoveProb (engine/knobs.h).
  EngineBackend backend = EngineBackend::SeqPair;
  EngineOptions placement;
};

struct PlacedSizingCandidate {
  std::uint64_t seed = 0;        ///< sizing seed of this candidate
  MillerSizingResult sizing;
  Circuit circuit;               ///< annotated placement netlist
  EngineResult placement;
};

struct PlacedSizingResult {
  std::vector<PlacedSizingCandidate> candidates;  ///< schedule order
  std::size_t bestIndex = 0;
  double seconds = 0.0;          ///< whole-flow wall clock

  const PlacedSizingCandidate& best() const { return candidates[bestIndex]; }
};

/// Builds the placement netlist of one sized Miller design: the Fig. 6
/// structure (same modules, nets, symmetry groups and hierarchy as
/// netlist/generators.h's makeMillerOpAmp) with footprints derived from the
/// sized device cells, Power annotations from the bias currents, and a
/// discretized shape curve on the Miller capacitor.  Pure function of its
/// arguments.
Circuit makeMillerPlacementCircuit(const Technology& tech,
                                   const MillerDesign& design);

/// Runs the whole flow: size numCandidates designs (sequential,
/// seed-scheduled), place them all in parallel, pick the winner by
/// (meets specs, spec violation, placement cost, schedule index).
PlacedSizingResult runMillerPlacedSizing(const Technology& tech,
                                         const OtaSpecs& specs,
                                         const PlacedSizingOptions& options);

}  // namespace als
