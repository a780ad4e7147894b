#include "io/serve_protocol.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
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

std::string scanError(const Scanner& scanner, const char* message) {
  return "line " + std::to_string(scanner.lineNo) + ": " + message;
}

/// `words` joined by single spaces, plus the newline: one server line.
std::string wireLine(std::initializer_list<std::string_view> words) {
  std::string out;
  for (std::string_view word : words) {
    out.append(out.empty() ? "" : " ") += word;
  }
  return out += '\n';
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
  if (nextToken(line) != "Backend" || !parseBackendName(nextToken(line), backend))
    return scanError(scanner, "expected Backend <name>");

  auto field = [&](const char* keyword, auto& out) {
    line = scanner.next();
    return nextToken(line) == keyword && parseNumber(nextToken(line), out) &&
           line.empty();
  };
  double cost = 0.0;
  {
    line = scanner.next();
    if (nextToken(line) != "Cost" || !parseDouble(nextToken(line), cost) ||
        !line.empty())
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
    if (nextToken(line) != "Rect" || !parseNumber(nextToken(line), r.x) ||
        !parseNumber(nextToken(line), r.y) ||
        !parseNumber(nextToken(line), r.w) ||
        !parseNumber(nextToken(line), r.h) || !line.empty()) {
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
  if (nextToken(line) != "Checksum")
    return scanError(scanner, "expected Checksum trailer");
  std::string_view digest = nextToken(line);
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

// --- the ALSSERVE 1 codec ----------------------------------------------------

bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno != EINTR) return false;
    if (n > 0) data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool WireReader::readLine(std::string& line) {
  std::size_t nl;
  while ((nl = buffer_.find('\n', pos_)) == std::string::npos) {
    if (!fill()) return false;
  }
  line.assign(buffer_, pos_, nl - pos_);
  if (!line.empty() && line.back() == '\r') line.pop_back();  // the CR rule
  pos_ = nl + 1;
  return true;
}

bool WireReader::readExact(std::size_t n, std::string& out) {
  while (buffer_.size() - pos_ < n) {
    if (!fill()) return false;
  }
  out.assign(buffer_, pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::fill() {
  if (fd_ < 0) return false;
  if (pos_ > (1u << 20)) {  // drop what was consumed before growing
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  char chunk[65536];
  ssize_t n;
  do {
    n = ::read(fd_, chunk, sizeof chunk);
  } while (n < 0 && errno == EINTR);  // a signal is not an EOF
  if (n <= 0) return false;           // EOF or a real error: the stream ends
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

std::string_view nextToken(std::string_view& rest) {
  const std::size_t a = std::min(rest.size(), rest.find_first_not_of(" \t"));
  const std::size_t b = std::min(rest.size(), rest.find_first_of(" \t", a));
  const std::string_view token = rest.substr(a, b - a);
  rest.remove_prefix(b);
  return token;
}

bool parseCount(std::string_view token, std::uint64_t& out) {
  return parseNumber(token, out);
}

void appendJobBlock(std::string& out, std::string_view tag,
                    std::string_view backend, std::span<const WireOpt> opts,
                    std::optional<std::string_view> circuit) {
  out.append("JOB ").append(tag).append(" ").append(backend).append("\n");
  for (const auto& [key, value] : opts) {
    out.append("OPT ").append(key).append(" ").append(value) += '\n';
  }
  if (circuit) {
    out.append("CIRCUIT ").append(std::to_string(circuit->size())) += '\n';
    out += *circuit;
  }
  out += "END\n";
}

JobStatus readJob(WireReader& reader, std::string_view args, std::string& tag,
                  JobRequest& job, std::string& error) {
  tag = nextToken(args);
  const std::string_view backendWord = nextToken(args);
  job = JobRequest{};
  error.clear();
  if (backendWord.empty()) {  // then the tag may be missing too
    tag = "?";
    error = "JOB needs <tag> <backend>";
    return JobStatus::Error;
  }
  if (!parseBackendName(backendWord, job.backend)) {
    error = "unknown backend '" + std::string(backendWord) + "'";
  }
  std::string line;
  bool sawCircuit = false;
  for (;;) {
    if (!reader.readLine(line)) return JobStatus::Broken;
    std::string_view rest = line;
    const std::string_view word = nextToken(rest);
    if (word == "END") break;
    if (word == "OPT") {
      const std::string_view key = nextToken(rest);
      const std::string_view value = nextToken(rest);
      if (!error.empty()) continue;  // the first semantic error stands
      // Deadlines are serve-layer knobs, not EngineOptions (JobRequest).
      std::uint64_t n = 0;
      if (key != "deadline-ms" && key != "deadline-sweeps") {
        error = applyJobOption(job.options, key, value);
      } else if (!parseCount(value, n)) {
        error = "bad OPT " + std::string(key) + ": nonnegative integer";
      } else if (key == "deadline-ms") {
        job.deadlineSeconds = static_cast<double>(n) / 1000.0;
      } else {
        job.deadlineSweeps = static_cast<std::size_t>(n);
      }
    } else if (word == "CIRCUIT") {
      std::uint64_t nbytes = 0;
      if (!parseCount(nextToken(rest), nbytes) || nbytes > kMaxCircuitBytes ||
          !reader.readExact(static_cast<std::size_t>(nbytes),
                            job.circuitText)) {
        return JobStatus::Broken;
      }
      sawCircuit = true;
    } else {
      return JobStatus::Broken;  // not part of a JOB block
    }
  }
  if (error.empty() && !sawCircuit) error = "JOB block has no CIRCUIT";
  return error.empty() ? JobStatus::Ok : JobStatus::Error;
}

std::string queuedLine(std::string_view tag, const CacheKey& key) {
  return wireLine({"QUEUED", tag, key.hex()});
}

std::string rejectedLine(std::string_view tag) {
  return wireLine({"REJECTED", tag, "queue-full"});
}

std::string errorLine(std::string_view tag, std::string_view message) {
  return wireLine({"ERROR", tag, message});
}

std::string progressLine(std::string_view tag, std::size_t round,
                         std::size_t sweepsDone, double bestCost) {
  std::string best;
  appendDouble(best, bestCost);
  return wireLine({"PROGRESS", tag, std::to_string(round),
                   std::to_string(sweepsDone), best});
}

std::string statsLine(const ServeStats& s) {
  std::string out = "STATS";
  for (std::uint64_t v : {s.submitted, s.completed, s.cacheHits,
                          s.cacheMisses, s.cancelled, s.rejected,
                          s.deadlineExpired, s.quarantined, s.evicted,
                          std::uint64_t{s.memoryOnly}}) {
    out += ' ' + std::to_string(v);
  }
  return out += '\n';
}

void appendResultBlock(std::string& out, std::string_view tag,
                       std::string_view status, EngineBackend backend,
                       const EngineResult& result) {
  std::string payload;
  writeResultText(backend, result, payload);
  out += wireLine({"RESULT", tag, status, std::to_string(payload.size())});
  out += payload;
  out += wireLine({"DONE", tag});
}

bool parseReply(std::string_view line, ServerReply& out) {
  out = ServerReply{};
  const std::string_view word = nextToken(line);
  if (word == "FLUSHED" || word == "BYE") {
    out.kind = word == "BYE" ? ServerReply::Bye : ServerReply::Flushed;
    return nextToken(line).empty();
  }
  if (word == "STATS") {
    out.kind = ServerReply::Stats;
    std::uint64_t v[10];
    for (std::uint64_t& slot : v) {
      if (!parseCount(nextToken(line), slot)) return false;
    }
    out.stats = {v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8],
                 v[9] != 0};
    return nextToken(line).empty();
  }
  out.tag = nextToken(line);
  if (word == "ERROR") {
    out.kind = ServerReply::Error;
    out.text =
        line.substr(std::min(line.size(), line.find_first_not_of(" \t")));
    return !out.tag.empty();
  }
  if (word == "PROGRESS") {
    out.kind = ServerReply::Progress;
    return parseCount(nextToken(line), out.round) &&
           parseCount(nextToken(line), out.sweepsDone) &&
           parseNumber(nextToken(line), out.bestCost);
  }
  out.text = nextToken(line);
  if (word == "RESULT") {
    out.kind = ServerReply::Result;
    return !out.text.empty() && parseCount(nextToken(line), out.bytes);
  }
  out.kind = word == "QUEUED" ? ServerReply::Queued : ServerReply::Rejected;
  return (word == "QUEUED" || word == "REJECTED") && !out.text.empty();
}

bool readResultBody(WireReader& reader, const ServerReply& result,
                    std::string& payload) {
  std::string line;
  if (!reader.readExact(static_cast<std::size_t>(result.bytes), payload) ||
      !reader.readLine(line)) {
    return false;
  }
  std::string_view rest = line;
  return nextToken(rest) == "DONE" && nextToken(rest) == result.tag &&
         rest.empty();
}

}  // namespace als
