#include "engine/knobs.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace als {

namespace {

template <class T>
bool parseInto(const KnobDomain& d, std::string_view text, T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return false;
    field = text == "1";
  } else {
    std::conditional_t<std::is_floating_point_v<T>, double, std::uint64_t> v{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end) return false;
    const bool in = std::is_integral_v<T>
                        ? v <= d.max
                        : std::isfinite(v) && (d.openLo ? v > d.lo : v >= d.lo) &&
                              (d.openHi ? v < d.hi : v <= d.hi);
    if (!in) return false;
    field = static_cast<T>(v);  // in range: domainFits<T> holds statically
  }
  return true;
}

std::string describe(const KnobDomain& d) {
  char buf[64] = "0 or 1";
  if (d.kind == KnobDomain::Count) {
    std::snprintf(buf, sizeof buf, "integer in [0, %llu]",
                  static_cast<unsigned long long>(d.max));
  } else if (d.kind == KnobDomain::Real) {
    std::snprintf(buf, sizeof buf, "number in %c%g, %g%c",
                  d.openLo ? '(' : '[', d.lo, d.hi, d.openHi ? ')' : ']');
  }
  return buf;
}

}  // namespace

const Knob* findKnob(std::string_view Knob::*field, std::string_view name) {
  for (const Knob& knob : kKnobs) {
    if (!name.empty() && knob.*field == name) return &knob;
  }
  return nullptr;
}

std::string applyKnob(EngineOptions& options, const Knob& knob,
                      std::string_view value) {
  bool ok = false;
  forEachKnob([&](const Knob& k, auto member) {
    if (k.wire == knob.wire) ok = parseInto(k.domain, value, options.*member);
  });
  return ok ? std::string() : describe(knob.domain);
}

std::string applyCliOption(EngineOptions& options, std::string_view flag,
                           std::string_view value) {
  const Knob* knob = findKnob(&Knob::cli, flag);
  if (knob == nullptr) return "unknown option " + std::string(flag);
  if (knob->domain.kind == KnobDomain::Flag) value = "1";
  std::string error = applyKnob(options, *knob, value);
  return error.empty() ? error : std::string(flag) + " needs " + error;
}

const Knob* refusedKnob(EngineBackend backend, const EngineOptions& options) {
  const EngineOptions defaults;
  const Knob* refused = nullptr;
  forEachKnob([&](const Knob& knob, auto member) {
    if (refused == nullptr && knob.on(backend) == KnobStatus::Refused &&
        options.*member != defaults.*member) {
      refused = &knob;
    }
  });
  return refused;
}

std::string refusal(EngineBackend backend, const EngineOptions& options) {
  const Knob* knob = refusedKnob(backend, options);
  if (knob == nullptr) return {};
  return "OPT " + std::string(knob->wire) + " is refused by " +
         std::string(backendName(backend)) +
         ": it has neither the term nor its guarantee";
}

void requireHonoured(EngineBackend backend, const EngineOptions& options) {
  if (std::string m = refusal(backend, options); !m.empty()) {
    throw std::invalid_argument(m);
  }
}

}  // namespace als
