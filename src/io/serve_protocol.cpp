#include "io/serve_protocol.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "engine/knobs.h"

namespace als {

namespace {

// Sanity caps mirroring io/benchmark_format.cpp: a corrupted cache file or
// wire payload must not drive the parse loops into pathological work.
constexpr std::size_t kMaxCount = 1'000'000;

/// Appends `%.17g` of `v` — the shortest form that round-trips any IEEE
/// double exactly, so canonical keys and persisted costs are bit-stable.
void appendDouble(std::string& out, double v) {
  std::array<char, 32> buf;
  int n = std::snprintf(buf.data(), buf.size(), "%.17g", v);
  out.append(buf.data(), static_cast<std::size_t>(n));
}

void appendUnsigned(std::string& out, std::uint64_t v) {
  std::array<char, 24> buf;
  int n = std::snprintf(buf.data(), buf.size(), "%llu",
                        static_cast<unsigned long long>(v));
  out.append(buf.data(), static_cast<std::size_t>(n));
}

void appendSigned(std::string& out, std::int64_t v) {
  std::array<char, 24> buf;
  int n = std::snprintf(buf.data(), buf.size(), "%lld",
                        static_cast<long long>(v));
  out.append(buf.data(), static_cast<std::size_t>(n));
}

template <class T>
bool parseNumber(std::string_view token, T& out) {
  const char* first = token.data();
  const char* last = first + token.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool parseDouble(std::string_view token, double& out) {
  double v = 0.0;
  if (!parseNumber(token, v) || !std::isfinite(v)) return false;
  out = v;
  return true;
}

// --- line scanner for ALSRESULT text ---------------------------------------

struct Scanner {
  std::string_view text;
  std::size_t lineNo = 0;

  /// Next non-empty line (no comment syntax in result text — the writer is
  /// the only producer); empty view at end of input.
  std::string_view next() {
    while (!text.empty()) {
      ++lineNo;
      std::size_t eol = text.find('\n');
      std::string_view line = text.substr(0, eol);
      text.remove_prefix(eol == std::string_view::npos ? text.size()
                                                       : eol + 1);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) return line;
    }
    return {};
  }
};

/// Splits the first space-delimited token off `line`.
std::string_view takeToken(std::string_view& line) {
  while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  std::size_t end = line.find(' ');
  std::string_view token = line.substr(0, end);
  line.remove_prefix(end == std::string_view::npos ? line.size() : end);
  while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  return token;
}

std::string scanError(const Scanner& scanner, const char* message) {
  return "line " + std::to_string(scanner.lineNo) + ": " + message;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string CacheKey::hex() const {
  std::array<char, 49> buf;
  std::snprintf(buf.data(), buf.size(), "%016llx%016llx%016llx",
                static_cast<unsigned long long>(circuit),
                static_cast<unsigned long long>(options),
                static_cast<unsigned long long>(seed));
  return std::string(buf.data(), 48);
}

bool CacheKey::parseHex(std::string_view text) {
  if (text.size() != 48) return false;
  auto word = [&](std::size_t at, std::uint64_t& out) {
    std::string_view part = text.substr(at, 16);
    const char* first = part.data();
    auto [ptr, ec] = std::from_chars(first, first + 16, out, 16);
    return ec == std::errc() && ptr == first + 16;
  };
  return word(0, circuit) && word(16, options) && word(32, seed);
}

void canonicalOptionsKey(EngineBackend backend, const EngineOptions& options,
                         std::string& out) {
  // The table's KnobKey::Options rows, in table order (engine/knobs.h; the
  // header comment names the exclusions).
  out += "v=1 backend=";
  out += backendName(backend);
  forEachKnob([&](const Knob& knob, auto member) {
    if (knob.key != KnobKey::Options) return;
    out += ' ';
    out += knob.wire;
    out += '=';
    const auto& v = options.*member;
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(v)>>) {
      appendDouble(out, v);
    } else {
      appendUnsigned(out, static_cast<std::uint64_t>(v));
    }
  });
}

CacheKey makeCacheKey(std::string_view circuitText, EngineBackend backend,
                      const EngineOptions& options, std::string& scratch) {
  scratch.clear();
  canonicalOptionsKey(backend, options, scratch);
  return CacheKey{fnv1a64(circuitText), fnv1a64(scratch), options.seed};
}

std::string applyJobOption(EngineOptions& options, std::string_view key,
                           std::string_view value) {
  const Knob* knob = findKnob(&Knob::wire, key);
  if (knob == nullptr) return "unknown OPT key " + std::string(key);
  std::string error = applyKnob(options, *knob, value);
  if (!error.empty()) error = "bad OPT " + std::string(key) + ": " + error;
  return error;
}

bool parseBackendName(std::string_view name, EngineBackend& backend) {
  for (EngineBackend b : allBackends()) {
    if (backendName(b) == name) {
      backend = b;
      return true;
    }
  }
  return false;
}

void writeResultText(EngineBackend backend, const EngineResult& result,
                     std::string& out) {
  const std::size_t start = out.size();
  out += "ALSRESULT 1\nBackend ";
  out += backendName(backend);
  out += "\nCost ";
  appendDouble(out, result.cost);
  out += "\nArea ";
  appendSigned(out, result.area);
  out += "\nHpwl ";
  appendSigned(out, result.hpwl);
  out += "\nMoves ";
  appendUnsigned(out, result.movesTried);
  out += "\nSweeps ";
  appendUnsigned(out, result.sweeps);
  out += "\nRestarts ";
  appendUnsigned(out, result.restartsRun);
  out += "\nBestRestart ";
  appendUnsigned(out, result.bestRestart);
  out += "\nBestSeed ";
  appendUnsigned(out, result.bestSeed);
  out += "\nNumRects ";
  appendUnsigned(out, result.placement.size());
  out += '\n';
  for (std::size_t i = 0; i < result.placement.size(); ++i) {
    const Rect& r = result.placement[i];
    out += "Rect ";
    appendSigned(out, r.x);
    out += ' ';
    appendSigned(out, r.y);
    out += ' ';
    appendSigned(out, r.w);
    out += ' ';
    appendSigned(out, r.h);
    out += '\n';
  }
  out += "END\n";
  // Integrity trailer: fnv1a64 of exactly the bytes this call appended,
  // through "END\n".  `out` may hold caller prefixes (wire framing, the
  // cache's Key line) — they carry their own integrity, so only the
  // ALSRESULT region is sealed.
  const std::uint64_t sum =
      fnv1a64(std::string_view(out).substr(start, out.size() - start));
  std::array<char, 18> buf;
  std::snprintf(buf.data(), buf.size(), "%016llx",
                static_cast<unsigned long long>(sum));
  out += "Checksum ";
  out.append(buf.data(), 16);
  out += '\n';
}

std::string parseResultText(std::string_view text, EngineBackend& backend,
                            EngineResult& result) {
  Scanner scanner{text};
  std::string_view line = scanner.next();
  if (line != "ALSRESULT 1") return scanError(scanner, "expected ALSRESULT 1");

  line = scanner.next();
  if (takeToken(line) != "Backend" || !parseBackendName(takeToken(line), backend))
    return scanError(scanner, "expected Backend <name>");

  auto field = [&](const char* keyword, auto& out) {
    line = scanner.next();
    return takeToken(line) == keyword && parseNumber(line, out) ? true : false;
  };
  double cost = 0.0;
  {
    line = scanner.next();
    if (takeToken(line) != "Cost" || !parseDouble(line, cost))
      return scanError(scanner, "expected Cost <value>");
  }
  std::int64_t area = 0, hpwl = 0;
  std::uint64_t moves = 0, sweeps = 0, restarts = 0, bestRestart = 0,
                bestSeed = 0, numRects = 0;
  if (!field("Area", area)) return scanError(scanner, "expected Area <n>");
  if (!field("Hpwl", hpwl)) return scanError(scanner, "expected Hpwl <n>");
  if (!field("Moves", moves)) return scanError(scanner, "expected Moves <n>");
  if (!field("Sweeps", sweeps))
    return scanError(scanner, "expected Sweeps <n>");
  if (!field("Restarts", restarts))
    return scanError(scanner, "expected Restarts <n>");
  if (!field("BestRestart", bestRestart))
    return scanError(scanner, "expected BestRestart <n>");
  if (!field("BestSeed", bestSeed))
    return scanError(scanner, "expected BestSeed <n>");
  if (!field("NumRects", numRects) || numRects > kMaxCount)
    return scanError(scanner, "expected NumRects <n>");
  // Each Rect line costs at least "Rect 0 0 1 1\n" bytes; a count the text
  // cannot possibly back is a corruption, and rejecting it here keeps a
  // hostile header from forcing a huge placement allocation.
  if (numRects > text.size() / 8)
    return scanError(scanner, "NumRects exceeds payload size");

  result.placement.assign(static_cast<std::size_t>(numRects));
  for (std::size_t i = 0; i < numRects; ++i) {
    line = scanner.next();
    Rect r;
    if (takeToken(line) != "Rect" || !parseNumber(takeToken(line), r.x) ||
        !parseNumber(takeToken(line), r.y) ||
        !parseNumber(takeToken(line), r.w) || !parseNumber(line, r.h)) {
      return scanError(scanner, "expected Rect <x> <y> <w> <h>");
    }
    result.placement[i] = r;
  }
  if (scanner.next() != "END") return scanError(scanner, "expected END");

  // Checksum trailer — fnv1a64 of every byte before the trailer line.  The
  // line view aliases `text`, so its data pointer locates the sealed region
  // without any bookkeeping in the scan loop above.
  line = scanner.next();
  if (line.empty() || line.data() < text.data())
    return scanError(scanner, "expected Checksum trailer");
  const std::size_t sealedBytes =
      static_cast<std::size_t>(line.data() - text.data());
  if (takeToken(line) != "Checksum")
    return scanError(scanner, "expected Checksum trailer");
  std::string_view digest = takeToken(line);
  std::uint64_t declared = 0;
  if (digest.size() != 16 || !line.empty()) {
    return scanError(scanner, "expected Checksum <16 hex>");
  }
  {
    const char* first = digest.data();
    auto [ptr, ec] = std::from_chars(first, first + 16, declared, 16);
    if (ec != std::errc() || ptr != first + 16)
      return scanError(scanner, "expected Checksum <16 hex>");
  }
  if (declared != fnv1a64(text.substr(0, sealedBytes)))
    return scanError(scanner, "checksum mismatch");
  // The trailer's own newline is required: a payload cut one byte short of
  // complete is truncation, not a complete result.
  if (text.back() != '\n')
    return scanError(scanner, "truncated Checksum trailer");
  if (!scanner.next().empty())
    return scanError(scanner, "unexpected trailing content");

  result.cost = cost;
  result.area = area;
  result.hpwl = hpwl;
  result.movesTried = moves;
  result.sweeps = sweeps;
  result.restartsRun = restarts;
  result.bestRestart = bestRestart;
  result.bestSeed = bestSeed;
  result.seconds = 0.0;
  return {};
}

}  // namespace als
