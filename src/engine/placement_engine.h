// Unified facade over the library's annealing-based placement backends.
//
// The repo grows several independently developed placers — the flat B*-tree
// baseline (Section III's straw man), the symmetric-feasible sequence-pair
// placer (Section II), the slicing/Polish-expression baseline (ILAC-style)
// and the hierarchical HB*-tree placer (Section III proper).  Each has its
// own options/result structs for backend-specific knobs, but callers that
// just want "a placement of this circuit" — benches, batch drivers, future
// parallel-restart and sharding layers — need one seam.  `PlacementEngine`
// is that seam: one options struct carrying the shared SA knobs (sweep
// budget, seed, cooling, wirelength weight), one result struct carrying the
// shared outputs, and a factory keyed by `EngineBackend`.  A `place()` call
// is one resumable session (engine/replica_session.h) run to completion in
// one go, so the one-shot facade and the runtime layer's round-based
// executor share a single backend-erasure layer.  Under it, every backend
// is one policy (its state, decode, move and optional reseed) of the one
// annealing session template, `AnnealSession` (anneal/session.h).
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
// Concurrent `place()` calls on one engine instance — or on many engines
// over the same circuit — are therefore race-free, provided the caller does
// not mutate the circuit while placements run.  New backends must uphold
// this contract before registration in `makeReplicaSession`.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/cancel_token.h"

namespace als {

struct PlaceScratch;  // engine/place_scratch.h

/// Upper bound on `EngineOptions::numRestarts` wherever a count arrives from
/// outside the program (CLI flags, wire options).  An uncapped budget plans
/// one slice per restart, so an unbounded count is an allocation bomb.
inline constexpr std::size_t kMaxRestarts = 1'000'000;

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
  // seed-scheduled slices fanned over `numThreads` threads.  A plain
  // `place()` call is always one restart on the calling thread and ignores
  // both fields.
  std::size_t numRestarts = 1;  ///< independent SA restarts (seed-split)
  std::size_t numThreads = 1;   ///< worker threads (0 = all hardware cores)

  // Parallel-tempering knobs (runtime/tempering.h): when `tempering` is on,
  // the runtime layer runs the `numRestarts` budget slices under the ladder
  // exchange policy — coupled replicas on a geometric temperature ladder —
  // instead of as independent restarts.  Results stay bit-identical at any
  // thread count; with `exchangeInterval = 0` AND `ladderRatio = 1.0` they
  // degenerate to the independent-restart portfolio exactly (see
  // runtime/plan_executor.h for why both are needed).  A plain `place()`
  // call ignores all four fields.
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

  /// Optional warm decode buffers (engine/place_scratch.h): the engine maps
  /// the backend's sub-scratch into the native options.  Contents never
  /// influence results; at most one place() call may use it at a time.  The
  /// runtime layer manages its own scratches and ignores a caller-provided
  /// one.
  PlaceScratch* scratch = nullptr;

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

  // Per-restart accounting, filled by the runtime layer; a plain `place()`
  // call reports itself as one restart.
  std::size_t restartsRun = 1;   ///< restarts actually executed
  std::size_t bestRestart = 0;   ///< schedule index of the winning restart
  std::uint64_t bestSeed = 0;    ///< seed the winning restart annealed with
};

/// All registered backends, in a stable order (useful for sweeps/benches).
std::span<const EngineBackend> allBackends();

std::string_view backendName(EngineBackend backend);

class PlacementEngine {
 public:
  explicit PlacementEngine(EngineBackend backend) : backend_(backend) {}
  EngineBackend backend() const { return backend_; }
  std::string_view name() const { return backendName(backend_); }
  /// One restart on the calling thread: `makeReplicaSession(...)->finish()`.
  /// Throws std::invalid_argument on a refused knob (engine/knobs.h).
  EngineResult place(const Circuit& circuit,
                     const EngineOptions& options) const;

 private:
  EngineBackend backend_;
};

std::unique_ptr<PlacementEngine> makeEngine(EngineBackend backend);

}  // namespace als
