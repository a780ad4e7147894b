// Backend-erased resumable annealing runs — the engine-level seam every
// placement runs through: the plan executor (runtime/plan_executor.h)
// drives grids of them, and a single session run to completion is one
// restart of one backend (the single-session benches call it directly).
//
// Each backend states its state, decode, move and optional reseed as a
// policy (FlatBStarBackend, SeqPairBackend, SlicingBackend, HBStarBackend);
// the one session template `AnnealSession` (anneal/session.h) is the
// backend's one-shot place function cut at sweep granularity.
// `ReplicaSession` erases the backend so a runner can hold a heterogeneous
// fleet; `makeReplicaSession` maps `EngineOptions` to the native options
// through the knob table (engine/knobs.h), so a session run to completion
// in one go returns what the backend's one-shot place function returns —
// bit for bit.
//
// Threading contract: a session may move between threads across calls but
// is never called concurrently; the executor advances sessions in fork-join
// rounds, which satisfies this by construction.
#pragma once

#include <memory>

#include "engine/placement_engine.h"

namespace als {

class ReplicaSession {
 public:
  virtual ~ReplicaSession() = default;

  virtual EngineBackend backend() const = 0;

  /// Advances up to `maxSweeps` temperature steps; returns the number
  /// executed (fewer only when the whole budget finished).
  virtual std::size_t runSweeps(std::size_t maxSweeps) = 0;
  virtual bool finished() const = 0;

  virtual double currentCost() const = 0;
  virtual double bestCost() const = 0;
  virtual double temperature() const = 0;

  /// Swaps current states with `other` (replica exchange; no RNG consumed).
  /// Throws std::invalid_argument if the backends differ — exchange is only
  /// defined within one ladder; cross-backend transfer goes through
  /// `bestPlacement` + `reseedFromPlacement`.
  virtual void exchangeWith(ReplicaSession& other) = 0;

  /// Decodes the best state so far into the session scratch.  The reference
  /// stays valid until the session advances or decodes again.
  virtual const Placement& bestPlacement() = 0;

  /// Replaces the current state with a backend-native reconstruction of
  /// `placement` (the from_placement converters) and re-costs it.  Returns
  /// false — leaving the session untouched — for backends whose encoding
  /// cannot adopt a foreign placement (slicing, hbstar) and for a placement
  /// without one rect per module.
  virtual bool reseedFromPlacement(const Placement& placement) = 0;

  /// Finalizes (running any leftover budget first) and returns the run
  /// record of the backend's native result (its extras dropped); `bestSeed`
  /// is the session's constructing seed, `restartsRun`/`bestRestart` report
  /// one restart (the runner overwrites the aggregate fields).
  virtual EngineResult finish() = 0;
};

struct PlaceScratch;  // engine/place_scratch.h

/// One resumable replica of `backend` on `circuit`.  `tempScale` multiplies
/// the calibrated t0 of every internal restart (1.0 = the sequential
/// schedule, exactly) — the temperature-ladder hook.  `scratch`, when
/// given, lends the session warm decode buffers (the backend's
/// sub-scratch; the scratch-reuse contract of engine/place_scratch.h: it
/// must outlive the session and serve no other live session); without
/// one the session owns its buffers.  Results are identical either way.
/// No knob is refused here; the runtime routes refuse (engine/knobs.h).
std::unique_ptr<ReplicaSession> makeReplicaSession(
    EngineBackend backend, const Circuit& circuit,
    const EngineOptions& options, double tempScale = 1.0,
    PlaceScratch* scratch = nullptr);

}  // namespace als
