// The one table of EngineOptions knobs: `ALS_ENGINE_KNOBS` declares each
// knob once, and the wire parser, the canonical options key,
// `mapEngineOptions`, the `als_place` flags and `refusedKnob` iterate it.
// A knob's status per backend is H (Honoured: the backend's objective, or
// for a Plan knob the runtime layer, reads it), I (Inert: the
// representation guarantees the constraint on every circuit, as Section
// II's sequence pair and Section III's HB*-tree do for symmetry) or R
// (Refused: no term and no guarantee, so setting it away from its default
// is refused before anything runs).  The HB*-tree keeps only groups of
// MODULES connected, so `prox` is refused there.  A race accepts every
// knob.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "engine/placement_engine.h"

namespace als {

enum class KnobStatus : std::uint8_t { Honoured, Inert, Refused };
/// In the canonical options string, the key's seed word, or never keyed.
enum class KnobKey : std::uint8_t { Options, Seed, None };
/// Mapped into native backend options, or read by the runtime layer only.
enum class KnobLayer : std::uint8_t { Session, Plan };

/// A knob's one domain, shared by the wire and the command line: a finite
/// real in [lo, hi] (an open end excludes it), a count in [0, max], or 0/1.
struct KnobDomain {
  enum Kind : std::uint8_t { Real, Count, Flag } kind;
  double lo = 0.0, hi = 0.0;
  bool openLo = false, openHi = false;
  std::uint64_t max = 0;
};
constexpr KnobDomain real(double lo, double hi, bool openLo = false,
                          bool openHi = false) {
  return {KnobDomain::Real, lo, hi, openLo, openHi};
}
constexpr KnobDomain count(std::uint64_t max) {
  return {.kind = KnobDomain::Count, .max = max};
}
inline constexpr KnobDomain kFlag{KnobDomain::Flag};
/// Weights and the aspect target: NaN, inf and absurd magnitudes would
/// poison every cost a run produces.
inline constexpr double kMaxWeight = 1e12;
inline constexpr std::size_t kMaxThreads = 1024;
inline constexpr std::uint64_t kAny = ~std::uint64_t{0};
inline constexpr std::uint64_t kMaxCoord = std::numeric_limits<Coord>::max();

// X(wire, cli, member, domain, key, layer, status): one status letter per
// EngineBackend (flat-bstar, seqpair, slicing, hbstar).  Options rows come
// in canonical-key order, which the `v=1` key of existing stores pins.
#define ALS_ENGINE_KNOBS(X)                                                                    \
  X("wl", "--wl", wirelengthWeight, real(0, kMaxWeight), Options, Session, "HHHH")             \
  X("sym", "--sym", symmetryWeight, real(0, kMaxWeight), Options, Session, "HIRI")             \
  X("prox", "--prox", proximityWeight, real(0, kMaxWeight), Options, Session, "HRRR")          \
  X("outline", "", outlineWeight, real(0, kMaxWeight), Options, Session, "RHRR")               \
  X("maxw", "", maxWidth, count(kMaxCoord), Options, Session, "RHRR")                          \
  X("maxh", "", maxHeight, count(kMaxCoord), Options, Session, "RHRR")                         \
  X("aspect", "", targetAspect, real(0, kMaxWeight), Options, Session, "RHRR")                 \
  X("thermal", "--thermal", thermalWeight, real(0, kMaxWeight), Options, Session, "HHHH")      \
  X("shape", "--shapes", shapeMoveProb, real(0, 1), Options, Session, "HRHH")                  \
  X("sweeps", "--sweeps", maxSweeps, count(kAny), Options, Session, "HHHH")                    \
  X("cool", "", coolingFactor, real(0, 1, true, true), Options, Session, "HHHH")               \
  X("mpt", "", movesPerTemp, count(kAny), Options, Session, "HHHH")                            \
  X("restarts", "--restarts", numRestarts, count(kMaxRestarts), Options, Plan, "HHHH")         \
  X("tempering", "--tempering", tempering, kFlag, Options, Plan, "HHHH")                       \
  X("exch", "--exchange-interval", exchangeInterval, count(kAny), Options, Plan, "HHHH")       \
  X("ladder", "--ladder-ratio", ladderRatio, real(0, kMaxWeight, true), Options, Plan, "HHHH") \
  X("cross", "", crossSeed, kFlag, Options, Plan, "HHHH")                                      \
  X("seed", "--seed", seed, count(kAny), Seed, Session, "HHHH")                                \
  X("threads", "--threads", numThreads, count(kMaxThreads), None, Plan, "HHHH")

struct Knob {
  std::string_view wire;    ///< OPT key and canonical-key field name
  std::string_view cli;     ///< als_place flag ("" = none)
  KnobDomain domain;
  KnobKey key;
  KnobLayer layer;
  std::string_view status;  ///< 'H', 'I' or 'R' per EngineBackend

  constexpr KnobStatus on(EngineBackend backend) const {
    const char s = status[static_cast<std::size_t>(backend)];
    return s == 'H'   ? KnobStatus::Honoured
           : s == 'I' ? KnobStatus::Inert
                      : KnobStatus::Refused;
  }
};

#define ALS_KNOB_ROW(wire, cli, member, domain, key, layer, status) \
  Knob{wire, cli, domain, KnobKey::key, KnobLayer::layer, status},
inline constexpr std::array kKnobs{ALS_ENGINE_KNOBS(ALS_KNOB_ROW)};
#undef ALS_KNOB_ROW

/// The row of wire key `wire`, at compile time.
consteval const Knob& knobRow(std::string_view wire) {
  return *std::ranges::find(kKnobs, wire, &Knob::wire);
}

static_assert(std::ranges::all_of(kKnobs, [](const Knob& k) {
                const auto npos = std::string_view::npos;
                return k.status.size() == 4 && k.status.find('H') != npos &&
                       k.status.find_first_not_of("HIR") == npos;
              }),
              "one H/I/R per backend; a knob no backend honours is dead");

/// Whether a `T` member holds every value of `d` (no Coord wraparound).
template <class T>
constexpr bool domainFits(const KnobDomain& d) {
  using L = std::numeric_limits<T>;
  if constexpr (std::is_same_v<T, bool>) return d.kind == KnobDomain::Flag;
  else if constexpr (!L::is_integer) return d.kind == KnobDomain::Real;
  else return d.kind == KnobDomain::Count && d.max <= std::uint64_t(L::max());
}

/// Calls `f(knob, &EngineOptions::member)` for every knob, in table order.
template <class F>
void forEachKnob(F&& f) {
#define ALS_VISIT_KNOB(wire, cli, member, ...)                       \
  static_assert(domainFits<decltype(EngineOptions::member)>(         \
                    knobRow(wire).domain),                           \
                "knob " wire ": its member cannot hold its domain"); \
  f(knobRow(wire), &EngineOptions::member);
  ALS_ENGINE_KNOBS(ALS_VISIT_KNOB)
#undef ALS_VISIT_KNOB
}

/// The knob whose `&Knob::wire` or `&Knob::cli` is `name`, or null.
const Knob* findKnob(std::string_view Knob::*field, std::string_view name);

/// The one parser of both dialects: `value` into `knob`'s member.  Returns
/// empty, or the domain in words with `options` untouched.
std::string applyKnob(EngineOptions& options, const Knob& knob,
                      std::string_view value);

/// The `als_place` step: the knob flag `flag` with its argument `value`
/// (none for a 0/1 knob: `--tempering` sets it).  Returns empty, or a
/// message naming the flag.
std::string applyCliOption(EngineOptions& options, std::string_view flag,
                           std::string_view value);

/// The first knob, in table order, that `backend` refuses and `options`
/// sets away from its `EngineOptions{}` default; null when there is none.
const Knob* refusedKnob(EngineBackend backend, const EngineOptions& options);

/// The one message every single-backend route gives for `refusedKnob`
/// ("OPT shape is refused by seqpair: ..."), or empty; `requireHonoured`
/// throws it as std::invalid_argument.  A race accepts every knob.
std::string refusal(EngineBackend backend, const EngineOptions& options);
void requireHonoured(EngineBackend backend, const EngineOptions& options);

}  // namespace als
