// The engine vocabulary over the annealing-based placement backends — the
// flat B*-tree baseline (Section III's straw man), the symmetric-feasible
// sequence pair (Section II), the slicing/Polish-expression baseline
// (ILAC-style) and the hierarchical HB*-tree (Section III proper): the
// backend enum, `EngineOptions` (the shared SA knobs) and `EngineResult`.
// One route takes a job to its runs: the plan executor
// (runtime/plan_executor.h) turns the options into a grid of resumable
// sessions (engine/replica_session.h), each one policy of `AnnealSession`
// (anneal/session.h); a one-backend job is `PortfolioRunner::run`, a
// one-slice plan at the default single restart.  The executor keeps two
// routes and a per-cell bank because each pays (plan_executor.h: ~2 KB per
// finished cell against ~192 KB per live cell; the bank warms the exact
// allocation gates).
//
// All engines honor the deterministic annealing contract of
// anneal/annealer.h: `maxSweeps` is the primary budget — for a fixed seed
// the result is bit-identical across machines and runs — and `timeLimitSec`
// is a deadline each session arms on its own token (not reproducible).
//
// Thread-safety contract (load-bearing for runtime/plan_executor.h): every
// session is stateless across instances.  Its backend policy may touch only
// (a) its own members, (b) the `const Circuit&` read-only, and (c) the RNG
// the session constructs from `options.seed`.  No backend may keep mutable
// statics, lazily cache into the circuit, or share an RNG across sessions.
// Concurrent sessions over the same circuit are therefore race-free,
// provided the caller does not mutate the circuit while placements run.
// New backends must uphold this contract before registration in
// `makeReplicaSession`.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"

namespace als {

/// Upper bound on `EngineOptions::numRestarts` wherever a count arrives from
/// outside the program (CLI flags, wire options), equal to the thread bound.
/// A serve job keeps every slice's session alive (~190 KB each on ami49
/// hbstar, ~1.1 MB on n300 hbstar), so 1024 caps a job near 1.1 GB.
inline constexpr std::size_t kMaxRestarts = 1024;

enum class EngineBackend {
  FlatBStar,  ///< flat B*-tree, constraints as penalties (bstar/flat_placer.h)
  SeqPair,    ///< symmetric-feasible sequence pair (seqpair/sa_placer.h)
  Slicing,    ///< normalized Polish expressions (slicing/slicing_placer.h)
  HBStar,     ///< hierarchical HB*-tree (bstar/hbstar.h)
};

/// Shared SA knobs; backend-specific options keep their native structs.
///
/// The objective weights follow the unified cost recipe of cost/objective.h
/// (one normalization for all backends).  A weight only participates where
/// the backend's representation does not satisfy the constraint by
/// construction: `symmetryWeight`/`proximityWeight` drive the flat penalty
/// placer, the outline/aspect knobs the sequence-pair placer.  Which
/// backend honours, guarantees (inert) or refuses each knob is recorded
/// once, in the knob table of engine/knobs.h; every single-backend route
/// refuses a knob its backend would drop, and a race hands each backend
/// only what it reads.
struct EngineOptions {
  double wirelengthWeight = 0.25;  ///< lambda, scaled by sqrt(module area)
  double symmetryWeight = 2.0;     ///< mirror-deviation penalty (penalty backends)
  double proximityWeight = 2.0;    ///< disconnected-group penalty (penalty backends)
  double outlineWeight = 4.0;      ///< outline-excess penalty (outline backends)
  Coord maxWidth = 0;              ///< 0 = unconstrained [DBU]
  Coord maxHeight = 0;             ///< 0 = unconstrained [DBU]
  double targetAspect = 0.0;       ///< 0 = no aspect objective (w/h target)

  /// Thermal pair-mismatch weight (cost/objective.h; 0 = term off, the
  /// default — backends are bit-identical to pre-thermal builds then).
  /// Needs Power annotations on the circuit to have any effect.
  double thermalWeight = 0.0;
  /// Probability that an SA move re-selects a soft module's realization
  /// from its Module::shapes curve instead of perturbing the topology
  /// (0 = shape moves off, the default; backends without shape support or
  /// circuits without curves ignore the knob and draw no RNG for it).
  double shapeMoveProb = 0.0;
  std::size_t maxSweeps = 256;     ///< primary budget: total SA sweeps
  double timeLimitSec = 0.0;       ///< per-session deadline (0 = uncapped)
  std::uint64_t seed = 1;
  double coolingFactor = 0.96;
  std::size_t movesPerTemp = 0;    ///< 0 = auto (10x module count)

  // Multi-start knobs, honored by the runtime layer (runtime/plan_executor.h):
  // `maxSweeps` stays the *total* budget and is split across `numRestarts`
  // seed-scheduled slices fanned over `numThreads` threads.
  std::size_t numRestarts = 1;  ///< independent SA restarts (seed-split)
  std::size_t numThreads = 1;   ///< worker threads (0 = all hardware cores)

  // Parallel-tempering knobs (runtime/tempering.h): when `tempering` is on,
  // the runtime layer runs the `numRestarts` budget slices under the ladder
  // exchange policy — coupled replicas on a geometric temperature ladder —
  // instead of as independent restarts.  Results stay bit-identical at any
  // thread count; with `exchangeInterval = 0` AND `ladderRatio = 1.0` they
  // degenerate to the independent-restart portfolio exactly (see
  // runtime/plan_executor.h for why both are needed).
  bool tempering = false;
  std::size_t exchangeInterval = 4;  ///< sweeps per round (0 = never exchange)
  /// t0 multiplier between rungs (> 0).  Ratios below 1 are legal and make
  /// the extra rungs COLDER (quench-leaning) — the configuration that wins
  /// the equal-budget comparison at bench budgets (bench_portfolio Part 3).
  double ladderRatio = 0.9;
  /// Cross-backend seeding during a tempering race: lagging ladders re-seed
  /// their worst replica from the global leader's placement at exchange
  /// points (via the from_placement converters; backends that cannot adopt
  /// a foreign placement keep their state).
  bool crossSeed = true;

  /// Cooperative cancellation (util/cancel_token.h), honored by every
  /// backend at sweep granularity and by the runtime layer at restart/round
  /// granularity — see anneal/annealer.h for the full contract.  A
  /// cancelled run returns best-so-far; such results are not deterministic
  /// and must not be cached.  Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

struct EngineResult {
  Placement placement;
  Coord area = 0;
  Coord hpwl = 0;
  double cost = 0.0;
  std::size_t movesTried = 0;  ///< aggregate over all restarts
  std::size_t sweeps = 0;      ///< SA temperature steps executed (aggregate)
  double seconds = 0.0;        ///< wall clock of the whole run

  // Per-restart accounting, filled by the runtime layer; a single session
  // reports itself as one restart.
  std::size_t restartsRun = 1;   ///< restarts actually executed
  std::size_t bestRestart = 0;   ///< schedule index of the winning restart
  std::uint64_t bestSeed = 0;    ///< seed the winning restart annealed with
};

/// All registered backends, in a stable order (useful for sweeps/benches).
std::span<const EngineBackend> allBackends();

std::string_view backendName(EngineBackend backend);

}  // namespace als
