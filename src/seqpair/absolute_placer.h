// Absolute-coordinate simulated-annealing placer — the pre-topological
// baseline of Section II (the exploration style of ILAC / KOAN-ANAGRAM II /
// PUPPY-A / LAYLA, after Jepsen & Gellat's macrocell annealing).
//
// Cells move freely in the chip plane by translations, swaps and rotations;
// the search space contains both feasible and *unfeasible* configurations,
// with overlaps and symmetry violations discouraged by cost penalties only.
// Section II's argument — that restricting exploration to symmetric-feasible
// topological codes converges better — is demonstrated against this placer
// in bench_seqpair_sa (experiment E3).
#pragma once

#include <cstdint>

#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"

namespace als {

struct AbsolutePlacerOptions {
  double wirelengthWeight = 0.25;  ///< same lambda semantics as the SP placer
  double overlapWeight = 4.0;      ///< penalty per DBU^2 of pairwise overlap
  double symmetryWeight = 2.0;     ///< penalty per DBU of mirror deviation
  std::size_t maxSweeps = 256;     ///< primary budget: total SA sweeps (deterministic)
  std::uint64_t seed = 7;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;  ///< 0 = auto
  const CancelToken* cancel = nullptr;  ///< checked per sweep (may be null)
};

struct AbsolutePlacerResult {
  Placement placement;
  Coord area = 0;          ///< bounding-box area
  Coord hpwl = 0;
  Coord overlapArea = 0;   ///< residual pairwise overlap (0 when legal)
  Coord symViolation = 0;  ///< residual mirror deviation in DBU (0 = exact)
  bool feasible = false;   ///< overlap-free AND exactly symmetric
  double cost = 0.0;
  std::size_t movesTried = 0;
  std::size_t sweeps = 0;  ///< SA temperature steps executed
  double seconds = 0.0;
};

AbsolutePlacerResult placeAbsoluteSA(const Circuit& circuit,
                                     const AbsolutePlacerOptions& options = {});

}  // namespace als
