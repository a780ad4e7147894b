// Knob-table tests (engine/knobs.h): the one table every options dialect
// iterates.  Everything here is generated from `kKnobs`, so a knob added to
// the table is covered without touching this file — except that the route
// matrix needs a probe for it, and fails until it has one.
//
//   * the wire (`applyJobOption`) and the command line (`applyCliOption`)
//     accept and reject exactly the same values at every domain boundary;
//   * `refusedKnob` names the knob a backend would otherwise drop;
//   * the route matrix: for every knob x backend x route, a Honoured knob
//     moves the result, an Inert one leaves it bit-identical while the
//     guaranteed constraint holds, and a Refused one is refused by every
//     single-backend route with the one `refusal` message before anything
//     runs, while a race accepts it and leaves the result bit-identical.
#include "engine/knobs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "netlist/generators.h"
#include "runtime/portfolio.h"
#include "runtime/serve.h"
#include "runtime/tempering.h"
#include "test_util.h"

namespace als {
namespace {

std::string spellReal(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Values at and just past each edge of `domain`, plus spellings no domain
/// accepts.
std::vector<std::string> boundaryValues(const KnobDomain& d) {
  std::vector<std::string> out = {"", "banana", "+1", " 1", "1 ", "-1"};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (d.kind) {
    case KnobDomain::Real:
      for (double v : {d.lo, d.hi, std::nextafter(d.lo, -kInf),
                       std::nextafter(d.hi, kInf), (d.lo + d.hi) / 2}) {
        out.push_back(spellReal(v));
      }
      for (const char* v : {"nan", "inf", "-inf", "1e400", "0x1p-2"}) {
        out.emplace_back(v);
      }
      break;
    case KnobDomain::Count:
      out.push_back("0");
      out.push_back("1.5");
      out.push_back(std::to_string(d.max));
      out.push_back(d.max == std::numeric_limits<std::uint64_t>::max()
                        ? "18446744073709551616"
                        : std::to_string(d.max + 1));
      break;
    case KnobDomain::Flag:
      for (const char* v : {"0", "1", "2", "true"}) out.emplace_back(v);
      break;
  }
  return out;
}

void expectSameOptions(const EngineOptions& a, const EngineOptions& b,
                       const std::string& label) {
  forEachKnob([&](const Knob& knob, auto member) {
    EXPECT_EQ(a.*member, b.*member) << label << " (member " << knob.wire
                                    << ")";
  });
}

TEST(KnobTable, WireAndCliParsersAgreeOnEveryBoundary) {
  for (const Knob& knob : kKnobs) {
    if (knob.cli.empty() || knob.domain.kind == KnobDomain::Flag) continue;
    for (const std::string& value : boundaryValues(knob.domain)) {
      EngineOptions wire, cli;
      const std::string wireError = applyJobOption(wire, knob.wire, value);
      const std::string cliError = applyCliOption(cli, knob.cli, value);
      const std::string label =
          std::string(knob.wire) + " / " + std::string(knob.cli) + " '" +
          value + "'";
      EXPECT_EQ(wireError.empty(), cliError.empty())
          << label << ": wire '" << wireError << "', cli '" << cliError << "'";
      expectSameOptions(wire, cli, label);
    }
  }
}

TEST(KnobTable, EveryDomainAcceptsItsEdgesAndRejectsPastThem) {
  for (const Knob& knob : kKnobs) {
    const KnobDomain& d = knob.domain;
    auto accepts = [&](const std::string& v) {
      EngineOptions o;
      return applyJobOption(o, knob.wire, v).empty();
    };
    const std::string label(knob.wire);
    switch (d.kind) {
      case KnobDomain::Real: {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        EXPECT_EQ(accepts(spellReal(d.lo)), !d.openLo) << label;
        EXPECT_EQ(accepts(spellReal(d.hi)), !d.openHi) << label;
        EXPECT_FALSE(accepts(spellReal(std::nextafter(d.lo, -kInf)))) << label;
        EXPECT_FALSE(accepts(spellReal(std::nextafter(d.hi, kInf)))) << label;
        EXPECT_FALSE(accepts("nan")) << label;
        break;
      }
      case KnobDomain::Count:
        EXPECT_TRUE(accepts("0")) << label;
        EXPECT_TRUE(accepts(std::to_string(d.max))) << label;
        EXPECT_FALSE(accepts("-1")) << label;
        EXPECT_FALSE(accepts(boundaryValues(d).back())) << label;  // max + 1
        break;
      case KnobDomain::Flag:
        EXPECT_TRUE(accepts("0") && accepts("1")) << label;
        EXPECT_FALSE(accepts("2")) << label;
        break;
    }
  }
}

TEST(KnobTable, CliSpellingsAreTheTwelveKnobFlags) {
  std::vector<std::string_view> flags;
  for (const Knob& knob : kKnobs) {
    if (!knob.cli.empty()) flags.push_back(knob.cli);
  }
  EXPECT_EQ(flags, (std::vector<std::string_view>{
                       "--wl", "--sym", "--prox", "--thermal", "--shapes",
                       "--sweeps", "--restarts", "--tempering",
                       "--exchange-interval", "--ladder-ratio", "--seed",
                       "--threads"}));
  // --tempering takes no value: it sets the flag.
  EngineOptions o;
  EXPECT_EQ(applyCliOption(o, "--tempering", ""), "");
  EXPECT_TRUE(o.tempering);
  EXPECT_NE(applyCliOption(o, "--outline", "1"), "");
}

TEST(KnobTable, RefusedKnobNamesWhatTheBackendWouldDrop) {
  for (EngineBackend b : allBackends()) {
    EXPECT_EQ(refusedKnob(b, EngineOptions{}), nullptr) << backendName(b);
  }
  EngineOptions outline;
  ASSERT_EQ(applyJobOption(outline, "maxw", "1000"), "");
  const Knob* refused = refusedKnob(EngineBackend::Slicing, outline);
  ASSERT_NE(refused, nullptr);
  EXPECT_EQ(refused->wire, "maxw");
  EXPECT_EQ(refusedKnob(EngineBackend::SeqPair, outline), nullptr);

  EngineOptions shapes;
  ASSERT_EQ(applyJobOption(shapes, "shape", "0.2"), "");
  refused = refusedKnob(EngineBackend::SeqPair, shapes);
  ASSERT_NE(refused, nullptr);
  EXPECT_EQ(refused->wire, "shape");
  EXPECT_EQ(refusedKnob(EngineBackend::FlatBStar, shapes), nullptr);

  // Explicitly spelled defaults are not a request for the term.
  EngineOptions spelled;
  ASSERT_EQ(applyJobOption(spelled, "sym", "2"), "");
  EXPECT_EQ(refusedKnob(EngineBackend::Slicing, spelled), nullptr);
}

// ----------------------------------------------------------- route matrix --

enum class Route { Run, Race, Batch, Tempering, Serve };
constexpr Route kRoutes[] = {Route::Run, Route::Race, Route::Batch,
                             Route::Tempering, Route::Serve};

const char* routeName(Route route) {
  switch (route) {
    case Route::Run: return "PortfolioRunner::run";
    case Route::Race: return "PortfolioRunner::race";
    case Route::Batch: return "BatchPlacer";
    case Route::Tempering: return "TemperingRunner";
    case Route::Serve: return "ServeEngine";
  }
  return "";
}

/// Whether `route` reads `knob` at all.  Session knobs reach every route,
/// and so does every Plan knob but two: TemperingRunner runs the ladder
/// whatever `tempering` says, and cross-seeding needs two backends, which
/// no route here races (CrossSeedsOnlyARaceOfTwoBackends covers that case).
bool routeReads(Route route, const Knob& knob) {
  if (knob.layer == KnobLayer::Session) return true;
  if (knob.wire == "tempering") return route != Route::Tempering;
  return knob.wire != "cross";
}

struct MatrixCircuit {
  std::string name;
  std::string text;
  Circuit circuit;
};

MatrixCircuit matrixCircuit(std::string name, std::string text) {
  ParseResult parsed = parseBenchmark(text);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return {std::move(name), std::move(text), std::move(parsed.circuit)};
}

/// One non-default value per knob, the OPTs both arms share, and a circuit
/// on which a backend that honours the knob must move: ami33 carries
/// symmetry groups, Power annotations and shape curves; two synthetic
/// circuits carry two proximity groups each, which the sequence pair (no
/// proximity guarantee) breaks, and on the second of which a plain B*-tree
/// packing drops a group member under an overhang.
struct Probe {
  std::string_view wire;
  const char* value;
  std::vector<std::pair<const char*, const char*>> base;
  bool proximity = false;
};

const std::vector<Probe>& probes() {
  static const std::vector<Probe> kProbes = {
      {"wl", "3", {}},
      {"sym", "0", {}},
      // The budget at which the plain packing disconnects a seed-6 group.
      {"prox", "20", {{"sweeps", "16"}, {"mpt", "40"}}, true},
      {"outline", "40", {{"maxw", "1000"}}},
      {"maxw", "1000", {}},
      {"maxh", "1000", {}},
      {"aspect", "3", {}},
      {"thermal", "1", {}},
      {"shape", "0.5", {}},
      {"sweeps", "12", {}},
      {"cool", "0.5", {}},
      {"mpt", "40", {}},
      {"restarts", "3", {{"restarts", "2"}}},
      // Two 8-sweep replicas: exchanges must fall inside the run.
      {"tempering", "1", {{"restarts", "2"}, {"sweeps", "16"}, {"exch", "1"}}},
      // Equal rungs accept every exchange, so the interval must show.
      {"exch",
       "1",
       {{"restarts", "2"}, {"sweeps", "16"}, {"tempering", "1"},
        {"ladder", "1"}}},
      {"ladder",
       "3",
       {{"restarts", "2"}, {"sweeps", "16"}, {"tempering", "1"},
        {"exch", "1"}}},
      {"cross", "0", {{"restarts", "2"}, {"tempering", "1"}}},
      {"seed", "2", {}},
      {"threads", "4", {{"restarts", "2"}}},
  };
  return kProbes;
}

bool sameResult(const EngineResult& a, const EngineResult& b) {
  if (a.cost != b.cost || a.area != b.area || a.hpwl != b.hpwl ||
      a.movesTried != b.movesTried || a.sweeps != b.sweeps ||
      a.restartsRun != b.restartsRun || a.bestRestart != b.bestRestart ||
      a.bestSeed != b.bestSeed || a.placement.size() != b.placement.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.placement.size(); ++m) {
    if (!(a.placement[m] == b.placement[m])) return false;
  }
  return true;
}

EngineResult serveJob(ServeEngine& engine, const std::string& text,
                      EngineBackend backend, const EngineOptions& options) {
  EngineResult result;
  bool done = false;
  std::mutex m;
  std::condition_variable cv;
  ServeEngine::Job job;
  job.circuitText = text;
  job.backend = backend;
  job.options = options;
  job.onDone = [&](const ServeEngine::JobOutcome& outcome) {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(outcome.error, "");
    if (outcome.result != nullptr) result = *outcome.result;
    done = true;
    cv.notify_all();
  };
  EXPECT_TRUE(engine.submit(std::move(job)).accepted);
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
  return result;
}

EngineResult runRoute(Route route, const MatrixCircuit& mc,
                      EngineBackend backend, const EngineOptions& options,
                      ServeEngine& serve) {
  const Circuit& c = mc.circuit;
  switch (route) {
    case Route::Run:
      return PortfolioRunner().run(c, backend, options);
    case Route::Race:
      return PortfolioRunner()
          .race(c, std::span<const EngineBackend>(&backend, 1), options)
          .result;
    case Route::Batch:
      return BatchPlacer().placeAll(std::span<const Circuit>(&c, 1), backend,
                                    options)[0];
    case Route::Tempering:
      return TemperingRunner().run(c, backend, options).result;
    case Route::Serve:
      return serveJob(serve, mc.text, backend, options);
  }
  return {};
}

/// What a single-backend route answers a refused knob with: the message of
/// the std::invalid_argument it throws, or ServeEngine's submit error.
std::string routeRefusal(Route route, const MatrixCircuit& mc,
                         EngineBackend backend, const EngineOptions& options,
                         ServeEngine& serve) {
  if (route == Route::Serve) {
    ServeEngine::Job job;
    job.circuitText = mc.text;
    job.backend = backend;
    job.options = options;
    const ServeEngine::Submission sub = serve.submit(std::move(job));
    EXPECT_FALSE(sub.accepted);
    return sub.error;
  }
  try {
    runRoute(route, mc, backend, options, serve);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The constraint an Inert knob's representation guarantees, checked on
/// the placement it produced.
void expectGuarantee(const Knob& knob, const Circuit& c, const Placement& p,
                     const std::string& label) {
  if (knob.wire == "sym") {
    for (const SymmetryGroup& g : c.symmetryGroups()) {
      EXPECT_EQ(test_util::symmetryDeviation2x(p, g), 0)
          << label << ": group " << g.name;
    }
  } else if (knob.wire == "prox") {
    CostModel model(c, makeObjective(c, ObjectiveWeights{}));
    EXPECT_EQ(model.proximityViolations(p), 0) << label;
  } else {
    ADD_FAILURE() << label << ": an Inert knob needs a guarantee check here";
  }
}

EngineOptions matrixOptions(
    const std::vector<std::pair<const char*, const char*>>& opts) {
  EngineOptions o;
  o.maxSweeps = 8;
  o.movesPerTemp = 20;
  for (auto [k, v] : opts) EXPECT_EQ(applyJobOption(o, k, v), "") << k;
  return o;
}

TEST(KnobRouteMatrix, EveryKnobIsHonouredInertOrRefusedOnEveryRoute) {
  const MatrixCircuit ami33 =
      matrixCircuit("ami33", std::string(corpusText(CorpusCircuit::Ami33)));
  std::vector<MatrixCircuit> prox;
  for (std::uint64_t seed : {3, 6}) {
    prox.push_back(matrixCircuit(
        "prox" + std::to_string(seed),
        writeBenchmark(makeSynthetic({.moduleCount = 40, .seed = seed})).text));
  }
  ServeEngine serve(ServeOptions{});
  // Base arms repeat across knobs; run each (route, backend, options) once.
  std::map<std::string, EngineResult> baseRuns;

  for (const Knob& knob : kKnobs) {
    const Probe* probe = nullptr;
    for (const Probe& p : probes()) {
      if (p.wire == knob.wire) probe = &p;
    }
    ASSERT_NE(probe, nullptr) << "knob '" << knob.wire << "' has no probe";
    const EngineOptions base = matrixOptions(probe->base);
    EngineOptions moved = base;
    ASSERT_EQ(applyJobOption(moved, knob.wire, probe->value), "");

    using Circuits = std::span<const MatrixCircuit>;
    for (const MatrixCircuit& mc :
         probe->proximity ? Circuits(prox) : Circuits(&ami33, 1)) {
      for (EngineBackend backend : allBackends()) {
        const std::string at = std::string(knob.wire) + " on " +
                               std::string(backendName(backend)) + " (" +
                               mc.name + ")";
        const bool isRefused = knob.on(backend) == KnobStatus::Refused;
        const Knob* refused = refusedKnob(backend, moved);
        EXPECT_EQ(refused == nullptr ? "" : refused->wire,
                  isRefused ? knob.wire : "")
            << at;
        // A refused knob's probe may need a refused partner (`outline` reads
        // `maxw`), so only an admissible cell's base arm must be admissible.
        if (!isRefused) {
          EXPECT_EQ(refusedKnob(backend, base), nullptr) << at;
        }

        for (Route route : kRoutes) {
          const std::string label = at + " via " + routeName(route);
          if (isRefused && route != Route::Race) {
            EXPECT_EQ(routeRefusal(route, mc, backend, moved, serve),
                      refusal(backend, moved))
                << label << " must refuse the knob";
            continue;
          }
          std::string baseKey = label.substr(label.find(" on ")) + " ";
          canonicalOptionsKey(backend, base, baseKey);
          baseKey += " seed=" + std::to_string(base.seed) +
                     " threads=" + std::to_string(base.numThreads);
          auto [it, fresh] = baseRuns.try_emplace(baseKey);
          if (fresh) it->second = runRoute(route, mc, backend, base, serve);
          const EngineResult result =
              runRoute(route, mc, backend, moved, serve);

          const bool mustMove = knob.on(backend) == KnobStatus::Honoured &&
                                knob.key != KnobKey::None &&
                                routeReads(route, knob);
          EXPECT_EQ(!sameResult(it->second, result), mustMove)
              << label << (mustMove ? " must move the result"
                                    : " must leave the result bit-identical");
          if (knob.on(backend) == KnobStatus::Inert) {
            expectGuarantee(knob, mc.circuit, result.placement, label);
          }
        }
      }
    }
  }
}

// Why `prox` is refused, not inert, on the HB*-tree: its guarantee covers
// groups of modules only.  A Proximity node over two None groups (3 and 2
// blocks) packs the groups' macros connected by bounding box, and the
// groups inside pack as plain packings, so the group's rectangles can come
// out disconnected.  Two 8-block circuits, seeds 1-10, 16 sweeps of 40
// moves: at least one placement breaks the group.
TEST(KnobTable, HBStarProximityGuaranteeCoversGroupsOfModulesOnly) {
  const char* hierarchy =
      "NumHierNodes 12\n"
      "Leaf l0 b0\nLeaf l1 b1\nLeaf l2 b2\nLeaf l3 b3\n"
      "Leaf l4 b4\nLeaf l5 b5\nLeaf l6 b6\nLeaf l7 b7\n"
      "Group g1 none - 3 0 1 2\nGroup g2 none - 2 3 4\n"
      "Group p proximity - 2 8 9\nGroup top none - 4 10 5 6 7\nRoot 11\n";
  const char* blocks[] = {
      "Block b0 5000 5000\nBlock b1 4000 3000\nBlock b2 5000 2000\n"
      "Block b3 2000 1000\nBlock b4 2000 5000\nBlock b5 2000 1000\n"
      "Block b6 5000 1000\nBlock b7 3000 5000\n",
      "Block b0 1000 3000\nBlock b1 5000 1000\nBlock b2 2000 5000\n"
      "Block b3 1000 4000\nBlock b4 1000 1000\nBlock b5 1000 2000\n"
      "Block b6 4000 5000\nBlock b7 4000 5000\n",
  };
  int broken = 0;
  for (const char* b : blocks) {
    ParseResult parsed = parseBenchmark(
        std::string("ALSBENCH 1\nCircuit nested\nNumBlocks 8\n") + b +
        hierarchy);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const Circuit& c = parsed.circuit;
    const CostModel model(c, makeObjective(c, ObjectiveWeights{}));
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      EngineOptions o = matrixOptions({{"sweeps", "16"}, {"mpt", "40"}});
      o.seed = seed;
      const EngineResult r =
          PortfolioRunner().run(c, EngineBackend::HBStar, o);
      broken += model.proximityViolations(r.placement);
    }
  }
  EXPECT_GT(broken, 0);
  EXPECT_EQ(knobRow("prox").on(EngineBackend::HBStar), KnobStatus::Refused);
}

// Cross-seeding is the one knob only a race of two or more backends reads:
// a lagging ladder re-seeds from the leader's placement.
TEST(KnobRouteMatrix, CrossSeedsOnlyARaceOfTwoBackends) {
  const Circuit c = loadCorpusCircuit(CorpusCircuit::Ami33);
  const EngineOptions on = matrixOptions(
      {{"restarts", "2"}, {"sweeps", "16"}, {"tempering", "1"}, {"exch", "1"}});
  EngineOptions off = on;
  ASSERT_EQ(applyJobOption(off, "cross", "0"), "");
  for (EngineBackend backend : allBackends()) {
    // A partner whose ladders can adopt a foreign placement.
    const EngineBackend pair[] = {backend, backend == EngineBackend::FlatBStar
                                               ? EngineBackend::SeqPair
                                               : EngineBackend::FlatBStar};
    const TemperingOutcome seeded = TemperingRunner().race(c, pair, on);
    const TemperingOutcome apart = TemperingRunner().race(c, pair, off);
    EXPECT_GT(seeded.reseeds, 0u) << backendName(backend);
    EXPECT_EQ(apart.reseeds, 0u) << backendName(backend);
  }
}

}  // namespace
}  // namespace als
