// Steady-state heap-allocation gate for the decode hot path.
//
// PR 5's contract: once a run's buffers are warm, the SA move loop of every
// backend — move, decode (packing), incremental cost evaluation, accept /
// reject bookkeeping — performs ZERO heap allocations per move.
//
// Measurement: this binary replaces the global operator new/delete with a
// counting pass-through (test-only hook; affects only this test binary).
// For each backend we warm a shared PlaceScratch with a full-length session
// (lent through makeReplicaSession's scratch parameter, the seam the plan
// executor's per-cell bank uses), then measure two sessions of different
// sweep counts from the same seed.  The shorter run's trajectory is a
// prefix of the longer one's, so every per-run (cold) allocation — cost
// model construction, initial state, result copies — is identical in both,
// and any difference in allocation counts is exactly (allocations per move)
// x (extra moves).  The gate asserts that difference is zero.
//
// The gate only runs under NDEBUG: debug asserts deliberately re-validate
// whole encodings (allocating), which is fine — CI builds are Release /
// RelWithDebInfo.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "anneal/session.h"
#include "bstar/from_placement.h"
#include "engine/place_scratch.h"
#include "engine/replica_session.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "runtime/result_cache.h"
#include "runtime/tempering.h"
#include "seqpair/from_placement.h"
#include "seqpair/sa_placer.h"
#include "util/rng.h"
#include "test_util.h"

namespace {

std::atomic<unsigned long long> gAllocCount{0};

void* countedAlloc(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace als {
namespace {

class AllocGate : public ::testing::TestWithParam<EngineBackend> {};

/// Shared gate body: warm a scratch with a full-length run, then compare
/// the allocation counts of a short and a long run from the same seed.
/// The difference is exactly (allocations per move) x (extra moves) and
/// the contract is zero — for whatever objective/move mix `opt` enables.
void expectZeroAllocsPerMove(EngineBackend backend, EngineOptions opt) {
  const Circuit circuit = loadCorpusCircuit(CorpusCircuit::Ami33);
  PlaceScratch scratch;
  opt.seed = 1;
  auto place = [&] {
    return makeReplicaSession(backend, circuit, opt, 1.0, &scratch)->finish();
  };

  const std::size_t shortSweeps = 8;
  const std::size_t longSweeps = 16;

  // Warm-up: the full-length run grows every buffer to its steady-state
  // capacity (the short run's trajectory is a prefix of the long one's).
  opt.maxSweeps = longSweeps;
  EngineResult warm = place();

  opt.maxSweeps = shortSweeps;
  unsigned long long before = gAllocCount.load(std::memory_order_relaxed);
  EngineResult shortRun = place();
  unsigned long long shortAllocs =
      gAllocCount.load(std::memory_order_relaxed) - before;

  opt.maxSweeps = longSweeps;
  before = gAllocCount.load(std::memory_order_relaxed);
  EngineResult longRun = place();
  unsigned long long longAllocs =
      gAllocCount.load(std::memory_order_relaxed) - before;

  ASSERT_GT(longRun.movesTried, shortRun.movesTried);
  // Identical trajectory to the warm-up run — determinism sanity.
  EXPECT_EQ(longRun.cost, warm.cost);

  const std::size_t extraMoves = longRun.movesTried - shortRun.movesTried;
  // Cold per-run allocations cancel in the difference; what remains is
  // per-move.  The contract is zero.
  EXPECT_EQ(longAllocs, shortAllocs)
      << "backend " << backendName(backend) << " allocates "
      << (static_cast<double>(longAllocs) - static_cast<double>(shortAllocs)) /
             static_cast<double>(extraMoves)
      << " times per move in steady state (" << extraMoves << " extra moves)";
}

TEST_P(AllocGate, SteadyStateMoveLoopDoesNotAllocate) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug asserts re-validate encodings (allocating); the "
                  "gate targets Release builds";
#endif
  expectZeroAllocsPerMove(GetParam(), EngineOptions{});
}

TEST_P(AllocGate, ThermalAndShapeWorkloadsDoNotAllocate) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug asserts re-validate encodings (allocating); the "
                  "gate targets Release builds";
#endif
  // Ami33's corpus text carries Power and Shape annotations, so both the
  // incremental thermal-mismatch term and shape-selection moves are live.
  EngineOptions opt;
  opt.thermalWeight = 1.0;
  opt.shapeMoveProb = 0.25;
  expectZeroAllocsPerMove(GetParam(), test_util::honouredBy(GetParam(), opt));
}

/// The gate below the engine layer, at GSRC scale: the Fenwick LCS sweep
/// and its journaled incremental twin must hold the zero-allocations-per-
/// move contract on a 100-block circuit, not just on the engine gate's
/// ami33.
TEST(AllocGateLcs, SeqPairDecodeDoesNotAllocatePerMove) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug asserts re-validate encodings (allocating); the "
                  "gate targets Release builds";
#endif
  const Circuit circuit = loadCorpusCircuit(CorpusCircuit::N100);
  SeqPairScratch scratch;
  SeqPairPlacerOptions opt;
  opt.seed = 3;
  auto place = [&] {
    return AnnealSession<SeqPairBackend>(circuit, opt, 1.0, &scratch).finish();
  };

  opt.maxSweeps = 12;
  SeqPairPlacerResult warm = place();

  opt.maxSweeps = 6;
  unsigned long long before = gAllocCount.load(std::memory_order_relaxed);
  SeqPairPlacerResult shortRun = place();
  unsigned long long shortAllocs =
      gAllocCount.load(std::memory_order_relaxed) - before;

  opt.maxSweeps = 12;
  before = gAllocCount.load(std::memory_order_relaxed);
  SeqPairPlacerResult longRun = place();
  unsigned long long longAllocs =
      gAllocCount.load(std::memory_order_relaxed) - before;

  ASSERT_GT(longRun.movesTried, shortRun.movesTried);
  EXPECT_EQ(longRun.cost, warm.cost);
  const std::size_t extraMoves = longRun.movesTried - shortRun.movesTried;
  EXPECT_EQ(longAllocs, shortAllocs)
      << "seqpair decode allocates "
      << (static_cast<double>(longAllocs) - static_cast<double>(shortAllocs)) /
             static_cast<double>(extraMoves)
      << " times per move in steady state (" << extraMoves << " extra moves)";
}

/// PR 8 extension of the gate, one layer up: the tempering round loop.
/// Once the replica sessions' buffers are warm, a round — step every
/// replica by `exchangeInterval` sweeps, plan exchanges, swap states,
/// reanchor — must not allocate.  Same methodology as the move gate: a
/// persistent TemperingScratch bank is warmed by a full-length run, then a
/// short and a long run from the same seed share every cold allocation
/// (the short trajectory is a prefix of the long one, and the bank already
/// holds each replica's high-water capacities), so the count difference is
/// exactly (allocations per round) x (extra rounds).
class AllocGateTempering : public ::testing::TestWithParam<EngineBackend> {};

TEST_P(AllocGateTempering, SteadyStateRoundLoopDoesNotAllocate) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug asserts re-validate encodings (allocating); the "
                  "gate targets Release builds";
#endif
  const Circuit circuit = loadCorpusCircuit(CorpusCircuit::N100);
  EngineOptions opt;
  opt.seed = 5;
  opt.numRestarts = 2;
  opt.numThreads = 1;
  opt.tempering = true;
  opt.exchangeInterval = 1;
  // A flat ladder swaps every considered pair (P = 1), so both runs take
  // the exchange + reanchor path every other round — the paths the gate is
  // after sit in the measured difference many times over.
  opt.ladderRatio = 1.0;
  TemperingRunner runner;
  TemperingScratch bank;

  const std::size_t shortSweeps = 8;
  const std::size_t longSweeps = 16;

  // Warm-up: grows every replica's bank entry to the high-water capacity
  // of the full-length trajectory (which the measured runs replay).
  opt.maxSweeps = longSweeps;
  TemperingOutcome warm = runner.run(circuit, GetParam(), opt, &bank);
  ASSERT_GT(warm.exchangesAccepted, 0u);

  opt.maxSweeps = shortSweeps;
  unsigned long long before = gAllocCount.load(std::memory_order_relaxed);
  TemperingOutcome shortRun = runner.run(circuit, GetParam(), opt, &bank);
  unsigned long long shortAllocs =
      gAllocCount.load(std::memory_order_relaxed) - before;
  ASSERT_GT(shortRun.exchangesAccepted, 0u);

  opt.maxSweeps = longSweeps;
  before = gAllocCount.load(std::memory_order_relaxed);
  TemperingOutcome longRun = runner.run(circuit, GetParam(), opt, &bank);
  unsigned long long longAllocs =
      gAllocCount.load(std::memory_order_relaxed) - before;

  ASSERT_GT(longRun.rounds, shortRun.rounds);
  // Identical trajectory to the warm-up run — the scratch-reuse contract
  // (contents never influence results) held across all three runs.
  EXPECT_EQ(longRun.result.cost, warm.result.cost);

  const std::size_t extraRounds = longRun.rounds - shortRun.rounds;
  EXPECT_EQ(longAllocs, shortAllocs)
      << "backend " << backendName(GetParam()) << " allocates "
      << (static_cast<double>(longAllocs) - static_cast<double>(shortAllocs)) /
             static_cast<double>(extraRounds)
      << " times per tempering round in steady state (" << extraRounds
      << " extra rounds)";
}

// The cross-backend seed converters sit inside the round loop (a reseed
// runs at a round barrier), so they share its contract: with warm scratch
// and reused outputs, a conversion performs zero allocations.
TEST(AllocGateConvert, WarmConvertersDoNotAllocate) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug asserts re-validate encodings (allocating); the "
                  "gate targets Release builds";
#endif
  const Circuit circuit = loadCorpusCircuit(CorpusCircuit::N100);
  const std::size_t n = circuit.moduleCount();
  std::vector<Coord> w(n), h(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = circuit.module(m).w;
    h[m] = circuit.module(m).h;
  }
  Rng rng(9);
  const Placement source =
      packSequencePair(SequencePair::random(n, rng), w, h);

  SeqPairFromPlacementScratch spScratch;
  SequencePair sp;
  sequencePairFromPlacement(source, spScratch, sp);  // cold: buffers grow
  unsigned long long before = gAllocCount.load(std::memory_order_relaxed);
  sequencePairFromPlacement(source, spScratch, sp);
  EXPECT_EQ(gAllocCount.load(std::memory_order_relaxed) - before, 0u)
      << "warm sequence-pair conversion allocates";

  BStarFromPlacementScratch bsScratch;
  BStarTree tree;
  bstarFromPlacement(source, bsScratch, tree);  // cold: buffers grow
  before = gAllocCount.load(std::memory_order_relaxed);
  bstarFromPlacement(source, bsScratch, tree);
  EXPECT_EQ(gAllocCount.load(std::memory_order_relaxed) - before, 0u)
      << "warm B*-tree conversion allocates";
}

// The serve layer's steady-state loop (runtime/serve.h): a warm cache hit
// is `makeCacheKey` into a reused scratch string plus `ResultCache::fetch`
// into a reused EngineResult — the path a loaded daemon takes for every
// duplicate resubmission.  Once the scratch string holds the canonical
// options capacity and the result holds the placement capacity, the whole
// exchange must allocate nothing, no matter how many hits are served.
TEST(AllocGateServe, WarmCacheHitPathDoesNotAllocate) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug asserts re-validate encodings (allocating); the "
                  "gate targets Release builds";
#endif
  const std::string_view text = corpusText(CorpusCircuit::Ami49);
  EngineOptions opt;
  opt.maxSweeps = 16;
  opt.seed = 4;

  std::string keyScratch;
  const CacheKey key =
      makeCacheKey(text, EngineBackend::SeqPair, opt, keyScratch);
  ResultCache cache;  // memory-only: the hot path a warm daemon serves from
  {
    const Circuit circuit = loadCorpusCircuit(CorpusCircuit::Ami49);
    cache.store(key, EngineBackend::SeqPair,
                makeReplicaSession(EngineBackend::SeqPair, circuit, opt)
                    ->finish());
  }

  EngineBackend backend = EngineBackend::FlatBStar;
  EngineResult result;
  ASSERT_TRUE(cache.fetch(key, backend, result));  // cold: storage grows

  unsigned long long before = gAllocCount.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    keyScratch.clear();
    CacheKey k = makeCacheKey(text, EngineBackend::SeqPair, opt, keyScratch);
    ASSERT_EQ(k, key);
    ASSERT_TRUE(cache.fetch(k, backend, result));
  }
  EXPECT_EQ(gAllocCount.load(std::memory_order_relaxed) - before, 0u)
      << "the warm serve hit path allocates";
  EXPECT_EQ(backend, EngineBackend::SeqPair);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AllocGateTempering,
                         ::testing::ValuesIn(allBackends().begin(),
                                             allBackends().end()),
                         [](const ::testing::TestParamInfo<EngineBackend>& i) {
                           std::string name{backendName(i.param)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(AllBackends, AllocGate,
                         ::testing::ValuesIn(allBackends().begin(),
                                             allBackends().end()),
                         [](const ::testing::TestParamInfo<EngineBackend>& i) {
                           std::string name{backendName(i.param)};
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace als
