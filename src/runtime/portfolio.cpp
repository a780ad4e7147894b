#include "runtime/portfolio.h"

#include <stdexcept>

#include "engine/knobs.h"
#include "util/stopwatch.h"

namespace als {

EngineResult PortfolioRunner::run(const Circuit& circuit, EngineBackend backend,
                                  const EngineOptions& options) const {
  requireHonoured(backend, options);
  Stopwatch clock;
  PlanOutcome out = executePlan(
      pool_, {.circuits = {&circuit, 1}, .backends = {&backend, 1},
              .options = options});
  EngineResult result = std::move(out.results[0]);
  result.seconds = clock.seconds();
  return result;
}

PortfolioRunner::RaceOutcome PortfolioRunner::race(
    const Circuit& circuit, std::span<const EngineBackend> backends,
    const EngineOptions& options) const {
  if (backends.empty()) {
    throw std::invalid_argument("PortfolioRunner::race: no backends given");
  }
  Stopwatch clock;
  PlanOutcome out = executePlan(
      pool_,
      {.circuits = {&circuit, 1}, .backends = backends, .options = options});
  const std::size_t winner = raceWinner(out.results);
  RaceOutcome outcome{std::move(out.results[winner]), backends[winner]};
  outcome.result.seconds = clock.seconds();
  return outcome;
}

std::vector<EngineResult> BatchPlacer::placeAll(
    std::span<const Circuit> circuits, EngineBackend backend,
    const EngineOptions& options) const {
  requireHonoured(backend, options);
  return executePlan(pool_, {.circuits = circuits,
                             .backends = {&backend, 1},
                             .options = options})
      .results;
}

}  // namespace als
