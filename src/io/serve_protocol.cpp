#include "io/serve_protocol.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

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

bool parseFlag(std::string_view token, bool& out) {
  if (token == "0" || token == "1") {
    out = token == "1";
    return true;
  }
  return false;
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
  // Fixed order, every result-affecting knob, nothing else (header comment
  // names the exclusions).  A new EngineOptions knob that can change a
  // placement MUST be appended here — the serve test's canonicalization
  // suite cross-checks against a default-constructed struct.
  out += "v=1 backend=";
  out += backendName(backend);
  auto num = [&](const char* key, double v) {
    out += ' ';
    out += key;
    out += '=';
    appendDouble(out, v);
  };
  auto uns = [&](const char* key, std::uint64_t v) {
    out += ' ';
    out += key;
    out += '=';
    appendUnsigned(out, v);
  };
  num("wl", options.wirelengthWeight);
  num("sym", options.symmetryWeight);
  num("prox", options.proximityWeight);
  num("outline", options.outlineWeight);
  uns("maxw", static_cast<std::uint64_t>(options.maxWidth));
  uns("maxh", static_cast<std::uint64_t>(options.maxHeight));
  num("aspect", options.targetAspect);
  num("thermal", options.thermalWeight);
  num("shape", options.shapeMoveProb);
  uns("sweeps", options.maxSweeps);
  num("cool", options.coolingFactor);
  uns("mpt", options.movesPerTemp);
  uns("restarts", options.numRestarts);
  uns("tempering", options.tempering ? 1 : 0);
  uns("exch", options.exchangeInterval);
  num("ladder", options.ladderRatio);
  uns("cross", options.crossSeed ? 1 : 0);
}

CacheKey makeCacheKey(std::string_view circuitText, EngineBackend backend,
                      const EngineOptions& options, std::string& scratch) {
  scratch.clear();
  canonicalOptionsKey(backend, options, scratch);
  return CacheKey{fnv1a64(circuitText), fnv1a64(scratch), options.seed};
}

std::string applyJobOption(EngineOptions& options, std::string_view key,
                           std::string_view value) {
  auto bad = [&](std::string_view what) {
    return "bad OPT " + std::string(key) + ": " + std::string(what);
  };
  double d = 0.0;
  std::uint64_t u = 0;
  bool b = false;
  if (key == "wl" || key == "sym" || key == "prox" || key == "outline" ||
      key == "thermal") {
    if (!parseDouble(value, d) || d < 0.0) return bad("nonnegative number");
    if (key == "wl") options.wirelengthWeight = d;
    else if (key == "sym") options.symmetryWeight = d;
    else if (key == "prox") options.proximityWeight = d;
    else if (key == "outline") options.outlineWeight = d;
    else options.thermalWeight = d;
    return {};
  }
  if (key == "aspect") {
    if (!parseDouble(value, d) || d < 0.0) return bad("nonnegative number");
    options.targetAspect = d;
    return {};
  }
  if (key == "shape") {
    if (!parseDouble(value, d) || d < 0.0 || d > 1.0)
      return bad("probability in [0,1]");
    options.shapeMoveProb = d;
    return {};
  }
  if (key == "cool") {
    if (!parseDouble(value, d) || d <= 0.0 || d >= 1.0)
      return bad("factor in (0,1)");
    options.coolingFactor = d;
    return {};
  }
  if (key == "ladder") {
    if (!parseDouble(value, d) || d <= 0.0) return bad("positive ratio");
    options.ladderRatio = d;
    return {};
  }
  if (key == "maxw" || key == "maxh") {
    if (!parseNumber(value, u)) return bad("nonnegative integer");
    (key == "maxw" ? options.maxWidth : options.maxHeight) =
        static_cast<Coord>(u);
    return {};
  }
  if (key == "sweeps" || key == "mpt" || key == "restarts" ||
      key == "threads" || key == "exch") {
    if (!parseNumber(value, u)) return bad("nonnegative integer");
    // An uncapped budget plans one slice per restart: bound the count
    // before a worker thread tries to allocate it.
    if (key == "restarts" && u > kMaxRestarts) {
      return bad("integer at most " + std::to_string(kMaxRestarts));
    }
    if (key == "sweeps") options.maxSweeps = u;
    else if (key == "mpt") options.movesPerTemp = u;
    else if (key == "restarts") options.numRestarts = u;
    else if (key == "threads") options.numThreads = u;
    else options.exchangeInterval = u;
    return {};
  }
  if (key == "seed") {
    if (!parseNumber(value, u)) return bad("nonnegative integer");
    options.seed = u;
    return {};
  }
  if (key == "tempering" || key == "cross") {
    if (!parseFlag(value, b)) return bad("0 or 1");
    (key == "tempering" ? options.tempering : options.crossSeed) = b;
    return {};
  }
  return "unknown OPT key " + std::string(key);
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
