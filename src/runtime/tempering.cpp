#include "runtime/tempering.h"

#include <stdexcept>
#include <utility>

#include "engine/knobs.h"
#include "util/stopwatch.h"

namespace als {

TemperingOutcome TemperingRunner::runLadders(
    const Circuit& circuit, std::span<const EngineBackend> backends,
    const EngineOptions& options, TemperingScratch* scratch) const {
  Stopwatch clock;
  EngineOptions ladder = options;
  ladder.tempering = true;
  PlanOutcome out = executePlan(pool_, {.circuits = {&circuit, 1},
                                        .backends = backends,
                                        .options = ladder,
                                        .bank = scratch});
  const std::size_t winner = raceWinner(out.results);
  TemperingOutcome outcome;
  outcome.result = std::move(out.results[winner]);
  outcome.result.seconds = clock.seconds();
  outcome.backend = backends[winner];
  outcome.replicas = std::move(out.cells);
  outcome.rounds = out.rounds;
  outcome.exchangesAccepted = out.exchangesAccepted;
  outcome.reseeds = out.reseeds;
  return outcome;
}

TemperingOutcome TemperingRunner::run(const Circuit& circuit,
                                      EngineBackend backend,
                                      const EngineOptions& options,
                                      TemperingScratch* scratch) const {
  requireHonoured(backend, options);
  return runLadders(circuit, {&backend, 1}, options, scratch);
}

TemperingOutcome TemperingRunner::race(const Circuit& circuit,
                                       std::span<const EngineBackend> backends,
                                       const EngineOptions& options,
                                       TemperingScratch* scratch) const {
  if (backends.empty()) {
    throw std::invalid_argument("TemperingRunner::race: no backends given");
  }
  return runLadders(circuit, backends, options, scratch);
}

}  // namespace als
