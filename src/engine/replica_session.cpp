#include "engine/replica_session.h"

#include <stdexcept>
#include <utility>

#include "anneal/session.h"
#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "engine/knobs.h"
#include "engine/place_scratch.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"

namespace als {

namespace {

/// EngineOptions -> backend B's native options: the table's Session knobs
/// B honours, and the native struct has a field exactly for those.
template <EngineBackend B, class Options>
Options mapEngineOptions(const EngineOptions& options) {
  Options opt;
#define ALS_MAP_KNOB(wire, cli, member, ...)                    \
  {                                                             \
    constexpr const Knob& knob = knobRow(wire);                 \
    constexpr bool mapped = knob.layer == KnobLayer::Session && \
                            knob.on(B) == KnobStatus::Honoured; \
    static_assert(requires { opt.member; } == mapped, wire);    \
    if constexpr (mapped) opt.member = options.member;          \
  }
  ALS_ENGINE_KNOBS(ALS_MAP_KNOB)
#undef ALS_MAP_KNOB
  opt.cancel = options.cancel;
  return opt;
}

template <EngineBackend B, class Backend>
class TypedReplica final : public ReplicaSession {
 public:
  using Options = typename Backend::Options;
  using Scratch = typename Backend::Scratch;

  TypedReplica(const Circuit& circuit, const EngineOptions& options,
               double tempScale, PlaceScratch* scratch)
      : seed_(options.seed),
        deadline_(options.cancel),
        session_(circuit, nativeOptions(options), tempScale,
                 scratch ? &std::get<Scratch>(*scratch) : nullptr) {}

  EngineBackend backend() const override { return B; }

  std::size_t runSweeps(std::size_t maxSweeps) override {
    return session_.runSweeps(maxSweeps);
  }
  bool finished() const override { return session_.finished(); }

  double currentCost() const override { return session_.currentCost(); }
  double bestCost() const override { return session_.bestCost(); }
  double temperature() const override { return session_.temperature(); }

  void exchangeWith(ReplicaSession& other) override {
    auto* peer = dynamic_cast<TypedReplica*>(&other);
    if (peer == nullptr) {
      throw std::invalid_argument(
          "replica exchange requires two sessions of the same backend");
    }
    session_.exchangeWith(peer->session_);
  }

  const Placement& bestPlacement() override {
    return session_.bestPlacement();
  }

  bool reseedFromPlacement(const Placement& placement) override {
    return session_.reseedFromPlacement(placement);
  }

  EngineResult finish() override {
    EngineResult result;
    static_cast<RunRecord&>(result) = session_.finish();
    result.bestSeed = seed_;
    return result;
  }

 private:
  /// The one place `timeLimitSec` is armed: each session caps itself on a
  /// token linked to the caller's.
  Options nativeOptions(const EngineOptions& options) {
    Options opt = mapEngineOptions<B, Options>(options);
    if (options.timeLimitSec > 0.0) {
      deadline_.setDeadlineAfter(options.timeLimitSec);
      opt.cancel = &deadline_;
    }
    return opt;
  }

  std::uint64_t seed_;
  CancelToken deadline_;  ///< before session_, which points at it
  AnnealSession<Backend> session_;
};

}  // namespace

std::unique_ptr<ReplicaSession> makeReplicaSession(
    EngineBackend backend, const Circuit& circuit,
    const EngineOptions& options, double tempScale, PlaceScratch* scratch) {
  using enum EngineBackend;
  switch (backend) {
    case FlatBStar:
      return std::make_unique<TypedReplica<FlatBStar, FlatBStarBackend>>(
          circuit, options, tempScale, scratch);
    case SeqPair:
      return std::make_unique<TypedReplica<SeqPair, SeqPairBackend>>(
          circuit, options, tempScale, scratch);
    case Slicing:
      return std::make_unique<TypedReplica<Slicing, SlicingBackend>>(
          circuit, options, tempScale, scratch);
    case HBStar:
      return std::make_unique<TypedReplica<HBStar, HBStarBackend>>(
          circuit, options, tempScale, scratch);
  }
  return nullptr;
}

}  // namespace als
