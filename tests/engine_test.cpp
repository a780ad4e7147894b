// One-backend engine runs (`PortfolioRunner::run`, the library's one
// placement route for a single backend), including the determinism
// regression that guards the sweep-budget contract: a fixed (seed,
// maxSweeps) pair must give bit-identical placements on every run, on any
// machine, under sanitizers.
#include "engine/placement_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "engine/replica_session.h"
#include "netlist/generators.h"
#include "runtime/portfolio.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"

namespace als {
namespace {

TEST(EngineRun, BackendListNamesEveryBackend) {
  ASSERT_FALSE(allBackends().empty());
  std::vector<std::string_view> names;
  for (EngineBackend backend : allBackends()) {
    const std::string_view name = backendName(backend);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    for (std::string_view seen : names) EXPECT_NE(seen, name);
    names.push_back(name);
  }
}

TEST(EngineRun, AllBackendsProduceLegalPlacements) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 120;
  opt.seed = 3;
  for (EngineBackend backend : allBackends()) {
    const std::string_view name = backendName(backend);
    EngineResult r = PortfolioRunner().run(c, backend, opt);
    ASSERT_EQ(r.placement.size(), c.moduleCount()) << name;
    EXPECT_TRUE(r.placement.isLegal()) << name;
    EXPECT_GE(r.area, c.totalModuleArea()) << name;
    EXPECT_GT(r.movesTried, 0u) << name;
    EXPECT_GT(r.sweeps, 0u) << name;
  }
}

TEST(EngineRun, SameSeedGivesBitIdenticalPlacements) {
  // 250 sweeps crosses the ~226-sweep freeze point of the default schedule,
  // so the restart path is part of the guarded contract too.
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 250;
  opt.seed = 17;
  for (EngineBackend backend : allBackends()) {
    const std::string_view name = backendName(backend);
    EngineResult a = PortfolioRunner().run(c, backend, opt);
    EngineResult b = PortfolioRunner().run(c, backend, opt);
    EXPECT_EQ(a.area, b.area) << name;
    EXPECT_EQ(a.hpwl, b.hpwl) << name;
    EXPECT_EQ(a.movesTried, b.movesTried) << name;
    EXPECT_EQ(a.sweeps, b.sweeps) << name;
    ASSERT_EQ(a.placement.size(), b.placement.size()) << name;
    for (std::size_t m = 0; m < a.placement.size(); ++m) {
      EXPECT_EQ(a.placement[m], b.placement[m]) << name << " module " << m;
    }
  }
}

/// The shared SA knobs of `opt`, copied by hand into a backend's native
/// options (the remaining native fields keep defaults equal to
/// EngineOptions').
template <class NativeOptions>
NativeOptions nativeKnobs(const EngineOptions& opt) {
  NativeOptions native;
  native.maxSweeps = opt.maxSweeps;
  native.seed = opt.seed;
  native.wirelengthWeight = opt.wirelengthWeight;
  native.coolingFactor = opt.coolingFactor;
  native.movesPerTemp = opt.movesPerTemp;
  return native;
}

/// The backend's one-shot place function called directly, its native result
/// reduced to the fields EngineResult carries.
EngineResult placeDirect(EngineBackend backend, const Circuit& c,
                         const EngineOptions& opt) {
  auto reduce = [](auto native) {
    EngineResult r;
    r.placement = std::move(native.placement);
    r.area = native.area;
    r.hpwl = native.hpwl;
    r.cost = native.cost;
    r.movesTried = native.movesTried;
    r.sweeps = native.sweeps;
    return r;
  };
  switch (backend) {
    case EngineBackend::FlatBStar:
      return reduce(placeFlatBStarSA(c, nativeKnobs<FlatBStarOptions>(opt)));
    case EngineBackend::SeqPair:
      return reduce(placeSeqPairSA(c, nativeKnobs<SeqPairPlacerOptions>(opt)));
    case EngineBackend::Slicing:
      return reduce(placeSlicingSA(c, nativeKnobs<SlicingPlacerOptions>(opt)));
    case EngineBackend::HBStar:
      return reduce(placeHBStarSA(c, nativeKnobs<HBPlacerOptions>(opt)));
  }
  return {};
}

void expectSameRun(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.hpwl, b.hpwl);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.movesTried, b.movesTried);
  EXPECT_EQ(a.sweeps, b.sweeps);
  ASSERT_EQ(a.placement.size(), b.placement.size());
  for (std::size_t m = 0; m < a.placement.size(); ++m) {
    EXPECT_EQ(a.placement[m], b.placement[m]) << "module " << m;
  }
}

TEST(EngineRun, OneRestartMatchesDirectBackendCall) {
  // A one-restart run only maps options; it must not change what the
  // backend computes.  250 sweeps crosses the freeze point, so restarts are
  // covered.
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 250;
  opt.seed = 9;
  opt.wirelengthWeight = 0.4;
  opt.coolingFactor = 0.95;
  for (EngineBackend backend : allBackends()) {
    SCOPED_TRACE(backendName(backend));
    expectSameRun(PortfolioRunner().run(c, backend, opt),
                  placeDirect(backend, c, opt));
  }
}

// The ReplicaSession contract, checked on every backend through the
// backend-erased handle the runtime layer drives.

TEST(ReplicaSessionContract, RoundsThenFinishMatchFinishAtOnce) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 250;
  opt.seed = 5;
  for (EngineBackend backend : allBackends()) {
    SCOPED_TRACE(backendName(backend));
    EngineResult atOnce = makeReplicaSession(backend, c, opt)->finish();

    auto session = makeReplicaSession(backend, c, opt);
    std::size_t swept = 0;
    for (int round = 0; round < 37 && !session->finished(); ++round) {
      std::size_t ran = session->runSweeps(1);
      EXPECT_EQ(ran, 1u);
      swept += ran;
    }
    EXPECT_EQ(swept, 37u);
    EngineResult rounds = session->finish();
    expectSameRun(rounds, atOnce);
    EXPECT_EQ(rounds.bestSeed, atOnce.bestSeed);
  }
}

TEST(ReplicaSessionContract, ReseedAdoptsOnlyWhatTheEncodingCanExpress) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions opt;
  opt.maxSweeps = 60;
  opt.seed = 4;
  for (EngineBackend backend : allBackends()) {
    SCOPED_TRACE(backendName(backend));
    auto session = makeReplicaSession(backend, c, opt);
    session->runSweeps(10);
    const double before = session->currentCost();

    std::vector<Rect> rects = session->bestPlacement().rects();
    rects.pop_back();
    const Placement wrongSize(std::move(rects));
    EXPECT_FALSE(session->reseedFromPlacement(wrongSize));
    EXPECT_EQ(session->currentCost(), before);
    EXPECT_FALSE(session->reseedFromPlacement(Placement{}));
    EXPECT_EQ(session->currentCost(), before);

    const Placement own = session->bestPlacement();
    const bool adopts = backend == EngineBackend::FlatBStar ||
                        backend == EngineBackend::SeqPair;
    EXPECT_EQ(session->reseedFromPlacement(own), adopts);
    if (!adopts) {
      EXPECT_EQ(session->currentCost(), before);
    }
    // Either way the session stays usable.
    EXPECT_EQ(session->finish().placement.size(), c.moduleCount());
  }
}

TEST(ReplicaSessionContract, ExchangeIsDefinedWithinOneBackendOnly) {
  Circuit c = makeTableICircuit(TableICircuit::ComparatorV2);
  EngineOptions a;
  a.maxSweeps = 40;
  a.seed = 1;
  EngineOptions b = a;
  b.seed = 2;
  for (EngineBackend left : allBackends()) {
    for (EngineBackend right : allBackends()) {
      SCOPED_TRACE(std::string(backendName(left)) + " x " +
                   std::string(backendName(right)));
      auto x = makeReplicaSession(left, c, a);
      auto y = makeReplicaSession(right, c, b);
      x->runSweeps(5);
      y->runSweeps(5);
      const double costX = x->currentCost();
      const double costY = y->currentCost();
      if (left != right) {
        EXPECT_THROW(x->exchangeWith(*y), std::invalid_argument);
        EXPECT_EQ(x->currentCost(), costX);
        EXPECT_EQ(y->currentCost(), costY);
      } else {
        // Swapping states swaps their (re-evaluated) costs.
        x->exchangeWith(*y);
        EXPECT_EQ(x->currentCost(), costY);
        EXPECT_EQ(y->currentCost(), costX);
      }
    }
  }
}

TEST(EngineRun, SweepBudgetIsHonoredExactly) {
  // Miller: a circuit every backend supports (the HB*-tree placer needs a
  // hierarchy with even symmetry-pair structure, which Fig. 1 lacks).
  Circuit c = makeTableICircuit(TableICircuit::MillerV2);
  EngineOptions opt;
  opt.maxSweeps = 90;
  opt.seed = 2;
  for (EngineBackend backend : allBackends()) {
    EngineResult r = PortfolioRunner().run(c, backend, opt);
    EXPECT_EQ(r.sweeps, 90u) << backendName(backend);
  }
}

}  // namespace
}  // namespace als
