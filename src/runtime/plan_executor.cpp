#include "runtime/plan_executor.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>

#include "anneal/annealer.h"
#include "engine/place_scratch.h"
#include "util/rng.h"

namespace als {

namespace {

/// splitmix64 finalizer — the same mixer behind portfolioSeedAt.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Ladder rung scales by repeated multiplication (never pow: libm results
/// may differ across platforms, and determinism here is a hard contract).
std::vector<double> ladderScales(std::size_t count, double ratio) {
  std::vector<double> scales(count);
  double scale = 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    scales[i] = scale;
    scale *= ratio;
  }
  return scales;
}

/// One plan in flight.  Everything a fork-join lambda needs is reachable
/// through ONE captured pointer: the per-round parallelFor closures must fit
/// libstdc++'s std::function small buffer (16 bytes) or every round
/// allocates, breaking the steady-state zero-allocation gate
/// (tests/alloc_gate_test.cpp).
class PlanRun {
 public:
  PlanRun(const PlanRequest& request, ThreadPool& pool, PlanOutcome& out)
      : req_(request),
        opt_(request.options),
        pool_(pool),
        out_(out),
        plan_(makeRestartPlan(opt_)),
        k_(plan_.size()),
        groups_(request.circuits.size() * request.backends.size()),
        total_(groups_ * k_),
        exchanging_(opt_.tempering && opt_.exchangeInterval > 0) {
    scales_ = opt_.tempering ? ladderScales(k_, opt_.ladderRatio)
                             : std::vector<double>(k_, 1.0);
    seeds_.resize(k_);
    for (std::size_t r = 0; r < k_; ++r) seeds_[r] = plan_[r].seed;
    movesPerTemp_.resize(req_.circuits.size());
    for (std::size_t c = 0; c < req_.circuits.size(); ++c) {
      movesPerTemp_[c] = resolveMovesPerTemp(
          opt_.movesPerTemp, req_.circuits[c].moduleCount());
    }
    if (exchanging_) {
      roundSweeps_ = opt_.exchangeInterval;
    } else if (req_.hook != nullptr) {
      roundSweeps_ = std::max<std::size_t>(1, req_.hook->interval);
    }
    // Grown on the calling thread: cells created inside a parallelFor must
    // never race the bank's vector.
    if (req_.bank != nullptr) {
      while (req_.bank->replicas.size() < total_) {
        req_.bank->replicas.push_back(std::make_unique<PlaceScratch>());
      }
    }
    out_.cells.resize(total_);
    for (std::size_t i = 0; i < total_; ++i) {
      out_.cells[i].seed = seeds_[i % k_];
      out_.cells[i].tempScale = scales_[i % k_];
    }
    results_.resize(total_);
  }

  void execute() {
    if (roundSweeps_ == 0) {
      // Barrier-free route: each cell lives for one task only.
      pool_.parallelFor(total_, [this](std::size_t i) {
        results_[i] = createCell(i)->finish();
      });
    } else {
      sessions_.resize(total_);
      pool_.parallelFor(total_, [this](std::size_t i) {
        sessions_[i] = createCell(i);
      });
      runRounds();
      pool_.parallelFor(total_, [this](std::size_t i) {
        results_[i] = sessions_[i]->finish();
      });
    }
    for (std::size_t i = 0; i < total_; ++i) {
      out_.cells[i].cost = results_[i].cost;
      out_.cells[i].sweeps = results_[i].sweeps;
      out_.cells[i].movesTried = results_[i].movesTried;
    }
    out_.results.reserve(groups_);
    for (std::size_t g = 0; g < groups_; ++g) {
      std::vector<EngineResult> slices(
          std::make_move_iterator(results_.begin() + g * k_),
          std::make_move_iterator(results_.begin() + (g + 1) * k_));
      out_.results.push_back(reducePortfolioSlices(std::move(slices)));
    }
  }

 private:
  std::size_t backendCount() const { return req_.backends.size(); }

  /// Cell `i`'s session, on its bank entry when the plan has a bank and on
  /// its own buffers otherwise.
  std::unique_ptr<ReplicaSession> createCell(std::size_t i) const {
    const std::size_t group = i / k_;
    const std::size_t c = group / backendCount();
    return makeReplicaSession(
        req_.backends[group % backendCount()], req_.circuits[c],
        sliceEngineOptions(opt_, plan_[i % k_], movesPerTemp_[c]),
        scales_[i % k_],
        req_.bank != nullptr ? req_.bank->replicas[i].get() : nullptr);
  }

  void step(std::size_t i) {
    if (!sessions_[i]->finished()) {
      out_.cells[i].sweeps += sessions_[i]->runSweeps(roundSweeps_);
    }
  }

  void runRounds() {
    costs_.resize(total_);
    temps_.resize(total_);
    active_.resize(total_);
    while (true) {
      pool_.parallelFor(total_, [this](std::size_t i) { step(i); });
      ++out_.rounds;
      bool anyActive = false;
      RoundStatus status{out_.rounds, roundSweeps_, 0,
                         std::numeric_limits<double>::infinity()};
      for (std::size_t i = 0; i < total_; ++i) {
        const ReplicaSession& s = *sessions_[i];
        active_[i] = s.finished() ? 0 : 1;
        costs_[i] = s.currentCost();
        temps_[i] = s.temperature();
        anyActive = anyActive || active_[i] != 0;
        status.sweepsDone += out_.cells[i].sweeps;
        status.bestCost = std::min(status.bestCost, s.bestCost());
      }
      if (anyActive && exchanging_) {
        exchange(out_.rounds - 1);
        if (opt_.crossSeed && backendCount() > 1) {
          for (std::size_t c = 0; c < req_.circuits.size(); ++c) {
            out_.reseeds += crossSeed(c);
          }
        }
      }
      if (req_.hook != nullptr && req_.hook->onRound) {
        req_.hook->onRound(status);
      }
      if (!anyActive) break;
    }
  }

  /// Applies round `round`'s planned swaps on every ladder.
  void exchange(std::uint64_t round) {
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t base = g * k_;
      planExchanges(round, g % backendCount(), seeds_,
                    std::span(costs_).subspan(base, k_),
                    std::span(temps_).subspan(base, k_),
                    std::span(active_).subspan(base, k_), swaps_);
      for (std::size_t lo : swaps_) {
        const std::size_t i = base + lo;
        sessions_[i]->exchangeWith(*sessions_[i + 1]);
        ++out_.cells[i].exchanges;
        ++out_.cells[i + 1].exchanges;
        ++out_.exchangesAccepted;
      }
    }
  }

  /// Re-seeds each lagging ladder of circuit `c` — its worst live replica —
  /// from the circuit's leader.  Leader by (bestCost, seed, position), the
  /// race's total order.
  std::size_t crossSeed(std::size_t c) {
    const std::size_t first = c * backendCount() * k_;
    const std::size_t end = first + backendCount() * k_;
    std::size_t leader = first;
    double leaderCost = sessions_[first]->bestCost();
    for (std::size_t i = first + 1; i < end; ++i) {
      const double cost = sessions_[i]->bestCost();
      if (cost < leaderCost ||
          (cost == leaderCost && seeds_[i % k_] < seeds_[leader % k_])) {
        leader = i;
        leaderCost = cost;
      }
    }
    std::size_t adopted = 0;
    const Placement* donor = nullptr;  // decoded lazily: often nobody lags
    for (std::size_t base = first; base < end; base += k_) {
      if (leader >= base && leader < base + k_) continue;
      // Worst active replica of this ladder (largest current cost; ties go
      // to the hotter rung, i.e. the largest index).
      std::optional<std::size_t> worst;
      for (std::size_t i = base; i < base + k_; ++i) {
        if (active_[i] != 0 && (!worst || costs_[i] >= costs_[*worst])) {
          worst = i;
        }
      }
      if (!worst || sessions_[*worst]->bestCost() <= leaderCost) continue;
      if (donor == nullptr) donor = &sessions_[leader]->bestPlacement();
      if (sessions_[*worst]->reseedFromPlacement(*donor)) {
        ++out_.cells[*worst].reseeds;
        ++adopted;
      }
    }
    return adopted;
  }

  const PlanRequest& req_;
  const EngineOptions& opt_;
  ThreadPool& pool_;
  PlanOutcome& out_;
  const std::vector<RestartSlice> plan_;
  const std::size_t k_;       ///< cells per group (slices of the plan)
  const std::size_t groups_;  ///< circuits x backends
  const std::size_t total_;   ///< cells
  const bool exchanging_;
  std::size_t roundSweeps_ = 0;  ///< 0 = barrier-free route
  std::vector<double> scales_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::size_t> movesPerTemp_;  ///< per circuit
  std::vector<EngineResult> results_;
  std::vector<std::unique_ptr<ReplicaSession>> sessions_;  ///< rounds route
  std::vector<double> costs_, temps_;
  std::vector<std::uint8_t> active_;
  std::vector<std::size_t> swaps_;
};

}  // namespace

TemperingScratch::TemperingScratch() = default;
TemperingScratch::~TemperingScratch() = default;

std::vector<RestartSlice> makeRestartPlan(const EngineOptions& options) {
  std::size_t restarts = options.numRestarts > 0 ? options.numRestarts : 1;
  // A zero sweep budget means "uncapped" throughout the library, so no
  // slice may round down to zero: cap the slice count at the total budget.
  if (options.maxSweeps > 0 && restarts > options.maxSweeps) {
    restarts = options.maxSweeps;
  }
  std::vector<RestartSlice> plan(restarts);
  for (std::size_t i = 0; i < restarts; ++i) {
    plan[i] = {i, portfolioSeedAt(options.seed, i),
               splitSweepBudget(options.maxSweeps, restarts, i)};
  }
  return plan;
}

EngineOptions sliceEngineOptions(const EngineOptions& base,
                                 const RestartSlice& slice,
                                 std::size_t resolvedMovesPerTemp) {
  EngineOptions opt = base;
  opt.seed = slice.seed;
  opt.maxSweeps = slice.maxSweeps;
  opt.movesPerTemp = resolvedMovesPerTemp;
  opt.numRestarts = 1;
  opt.numThreads = 1;
  opt.tempering = false;
  return opt;
}

std::size_t raceWinner(std::span<const EngineResult> results) {
  std::size_t winner = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].cost < results[winner].cost ||
        (results[i].cost == results[winner].cost &&
         results[i].bestSeed < results[winner].bestSeed)) {
      winner = i;
    }
  }
  return winner;
}

EngineResult reducePortfolioSlices(std::vector<EngineResult>&& slices) {
  const std::size_t winner = raceWinner(slices);
  std::size_t movesTried = 0, sweeps = 0;
  double seconds = 0.0;
  for (const EngineResult& slice : slices) {
    movesTried += slice.movesTried;
    sweeps += slice.sweeps;
    seconds += slice.seconds;
  }
  EngineResult result = std::move(slices[winner]);
  result.movesTried = movesTried;
  result.sweeps = sweeps;
  result.seconds = seconds;
  result.restartsRun = slices.size();
  result.bestRestart = winner;  // slice position == schedule index
  return result;
}

std::uint64_t exchangeScheduleSeed(std::uint64_t round,
                                   std::span<const std::uint64_t> seeds) {
  std::uint64_t h = mix64(round);
  for (std::uint64_t s : seeds) h = mix64(h ^ s);
  return h;
}

void planExchanges(std::uint64_t round, std::uint64_t salt,
                   std::span<const std::uint64_t> seeds,
                   std::span<const double> costs,
                   std::span<const double> temps,
                   std::span<const std::uint8_t> active,
                   std::vector<std::size_t>& out) {
  out.clear();
  const std::size_t k = costs.size();
  if (k < 2) return;
  Rng rng(mix64(exchangeScheduleSeed(round, seeds) ^ mix64(salt)));
  for (std::size_t i = round % 2; i + 1 < k; i += 2) {
    // One draw per considered pair, unconditionally: the draw stream is a
    // function of (round, seeds, salt) alone, never of costs or liveness.
    const double u = rng.uniform();
    if (active[i] == 0 || active[i + 1] == 0) continue;
    if (temps[i] <= 0.0 || temps[i + 1] <= 0.0) continue;
    const double dBeta = 1.0 / temps[i] - 1.0 / temps[i + 1];
    const double dE = costs[i] - costs[i + 1];
    const double exponent = dBeta * dE;
    if (exponent >= 0.0 || u < std::exp(exponent)) out.push_back(i);
  }
}

PlanOutcome executePlan(ThreadPool* pool, const PlanRequest& request) {
  PlanOutcome out;
  std::optional<ThreadPool> local;
  if (pool == nullptr) pool = &local.emplace(request.options.numThreads);
  PlanRun(request, *pool, out).execute();
  return out;
}

}  // namespace als
