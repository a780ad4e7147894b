// EngineOptions -> native backend-options mapping of the resumable replica
// sessions (engine/replica_session.cpp) — the one construction path behind
// both the engine facade's `place()` and the runtime layer's executor.
//
// All backend option structs share the SA-knob field names; objective knobs
// that only some backends carry (a backend whose representation guarantees
// the constraint has no weight field for it) map through the
// `requires`-gated assignments.  Adding a shared knob to EngineOptions is a
// single edit here.
#pragma once

#include "engine/place_scratch.h"
#include "engine/placement_engine.h"

namespace als {

template <class BackendOptions>
BackendOptions mapEngineOptions(const EngineOptions& options) {
  BackendOptions opt;
  opt.wirelengthWeight = options.wirelengthWeight;
  opt.maxSweeps = options.maxSweeps;
  opt.timeLimitSec = options.timeLimitSec;
  opt.seed = options.seed;
  opt.coolingFactor = options.coolingFactor;
  opt.movesPerTemp = options.movesPerTemp;
  if constexpr (requires { opt.symmetryWeight; }) {
    opt.symmetryWeight = options.symmetryWeight;
  }
  if constexpr (requires { opt.proximityWeight; }) {
    opt.proximityWeight = options.proximityWeight;
  }
  if constexpr (requires { opt.outlineWeight; }) {
    opt.outlineWeight = options.outlineWeight;
  }
  if constexpr (requires { opt.maxWidth; }) {
    opt.maxWidth = options.maxWidth;
  }
  if constexpr (requires { opt.maxHeight; }) {
    opt.maxHeight = options.maxHeight;
  }
  if constexpr (requires { opt.targetAspect; }) {
    opt.targetAspect = options.targetAspect;
  }
  if constexpr (requires { opt.thermalWeight; }) {
    opt.thermalWeight = options.thermalWeight;
  }
  if constexpr (requires { opt.shapeMoveProb; }) {
    opt.shapeMoveProb = options.shapeMoveProb;
  }
  if constexpr (requires { opt.cancel; }) {
    opt.cancel = options.cancel;
  }
  if (options.scratch != nullptr) {
    opt.scratch = subScratch(*options.scratch, opt.scratch);
  }
  return opt;
}

}  // namespace als
