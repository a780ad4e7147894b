// One resumable annealing session over a placement backend policy.
//
// Every placer of the library is the same simulated-annealing walk over a
// topological code: the sequence pair (Section II), the flat and
// hierarchical B*-trees (Section III) and the slicing baseline differ only
// in their state, its decode, its move, and whether a foreign placement can
// be adopted.  A backend states just those as a policy; `AnnealSession`
// writes the session around it once: it owns the policy and the
// `AnnealDriver`, maps the native options to `AnnealOptions`, and
// implements the round-granular API the runtime layer drives (advance,
// exchange, reseed, finish).  A session run to completion in one go IS the
// backend's one-shot place function, bit for bit — `placeXxxSA(c, o)` is
// `AnnealSession<XxxBackend>(c, o).finish()`.
//
// A policy `Backend` provides
//
//   using Options, Result, State;               // native option/result structs
//   Backend(const Circuit&, const Options&);    // objective, scratch, move data
//   const Circuit& circuit;
//   CostModel model;                            // costs every decoded state
//   State initialState();
//   const Placement* decode(const State&);      // aliases the policy's scratch
//   void move(State&, Rng&);                    // in-place perturbation
//   Result finish(AnnealResult<State>);         // native result assembly
//   void reseed(State&, const Placement&);      // optional (see below)
//
// `reseed` is the cross-backend seeding seam: it rewrites a state from a
// placement of the right size.  A policy without it (an encoding that
// cannot express a general placement) never adopts one.
//
// `tempScale` multiplies the calibrated t0 of every internal restart (1.0 =
// the sequential schedule, exactly).  The session is neither copyable nor
// movable, because the policy's decoder aliases the policy's own scratch;
// it may move between threads across calls but is never called
// concurrently (the plan executor advances sessions in fork-join rounds).
#pragma once

#include <cstddef>

#include "anneal/annealer.h"
#include "geom/placement.h"
#include "netlist/circuit.h"
#include "util/rng.h"

namespace als {

template <class Backend>
class AnnealSession {
 public:
  using Options = typename Backend::Options;
  using Result = typename Backend::Result;
  using State = typename Backend::State;

  AnnealSession(const Circuit& circuit, const Options& options,
                double tempScale = 1.0)
      : backend_(circuit, options),
        driver_(backend_.initialState(),
                Cost{backend_.model, Decode{&backend_}}, Move{&backend_},
                annealOptionsOf(options, circuit.moduleCount()), tempScale) {}

  AnnealSession(const AnnealSession&) = delete;
  AnnealSession& operator=(const AnnealSession&) = delete;

  /// Advances up to `maxSweeps` temperature steps; returns the number
  /// executed (fewer only when the whole budget finished).
  std::size_t runSweeps(std::size_t maxSweeps) {
    return driver_.runSweeps(maxSweeps);
  }
  bool finished() const { return driver_.finished(); }

  double currentCost() const { return driver_.currentCost(); }
  double bestCost() const { return driver_.bestCost(); }
  /// Current SA temperature (ladder-scaled).
  double temperature() const { return driver_.temperature(); }

  /// Swaps the two sessions' current states (replica exchange) and re-costs
  /// both; no RNG is consumed.  Both sessions must place the same circuit.
  void exchangeWith(AnnealSession& other) {
    Driver::exchange(driver_, other.driver_);
  }

  /// Decodes the best state so far into the policy's scratch.  The
  /// reference stays valid until the session advances or decodes again.
  const Placement& bestPlacement() {
    return *backend_.decode(driver_.bestState());
  }

  /// Rewrites the current state from `placement` through the policy's
  /// `reseed` and re-costs it.  Returns false — leaving the session
  /// untouched — when the policy has no `reseed` or the placement does not
  /// have one rect per module.
  bool reseedFromPlacement(const Placement& placement) {
    if constexpr (requires { backend_.reseed(driver_.currentState(), placement); }) {
      if (placement.size() != backend_.circuit.moduleCount()) return false;
      backend_.reseed(driver_.currentState(), placement);
      driver_.reanchor();
      return true;
    } else {
      return false;
    }
  }

  /// Finalizes (running any leftover budget first) and assembles the
  /// backend's native result.
  Result finish() { return backend_.finish(driver_.finalize()); }

 private:
  struct Decode {
    Backend* backend;
    const Placement* operator()(const State& s) const {
      return backend->decode(s);
    }
  };
  struct Move {
    Backend* backend;
    void operator()(State& s, Rng& rng) const { backend->move(s, rng); }
  };
  using Cost = detail::DecodedCost<decltype(Backend::model), Decode>;
  using Driver = detail::AnnealDriver<State, Cost, Move>;

  Backend backend_;  ///< before driver_, whose cost and move point at it
  Driver driver_;
};

}  // namespace als
