// Wire vocabulary of the placement service (tools/als_serve): content
// hashing, the canonical options key, the cache key, the ALSRESULT result
// text, the OPT key/value job-options dialect and the ALSSERVE 1 codec.
// Everything here is pure string/struct work over a byte stream; sockets
// and threads live in the tools.  The in-process serve engine
// (runtime/serve.h) and its on-disk cache (runtime/result_cache.h) share
// these definitions so a result persisted by one daemon parses
// bit-identically in the next.
//
// ## Protocol ("ALSSERVE 1", line-delimited over a local stream socket)
//
// A client submits one job as
//
//   JOB <tag> <backend>            # tag: client-chosen, no whitespace
//   OPT <key> <value>              # zero or more (see applyJobOption; the
//                                  # serve-layer keys `deadline-ms` /
//                                  # `deadline-sweeps` are accepted too and
//                                  # never enter the cache key)
//   CIRCUIT <nbytes>               # then exactly nbytes of ALSBENCH text
//   END
//
// OPT keys and their domains are the knob table's (engine/knobs.h).  A
// knob the job's backend refuses (`refusedKnob`: `OPT maxw` on slicing,
// `OPT shape` on seqpair), set away from its default, makes the job an
// ERROR naming knob and backend (`ServeEngine::submit` refuses it), never a
// placement without the knob.
//
// The server answers with
//
//   QUEUED <tag> <cache-key-hex>   # admitted (hex = CacheKey::hex())
//   REJECTED <tag> <reason>        # admission control (queue full) — or
//   ERROR <tag> <message...>       # malformed job, refused knob, or
//                                  # circuit parse error
//
// followed, for admitted jobs, by zero or more
//
//   PROGRESS <tag> <round> <sweepsDone> <bestCost>
//
// and exactly one
//
//   RESULT <tag> <hit|miss|cancelled|deadline> <nbytes>
//   <nbytes of ALSRESULT text — parseResultText>
//   DONE <tag>
//
// `deadline` means a job deadline expired (runtime/serve.h): the payload is
// the best-so-far snapshot, delivered within one progress round of expiry
// and never cached.  Control lines outside a job: `CANCEL <tag>`
// (acknowledged within one progress round; the job still delivers a RESULT,
// flagged `cancelled`), `STATS` (answered `STATS <submitted> <completed>
// <hits> <misses> <cancelled> <rejected> <deadline-expired> <quarantined>
// <evicted> <memory-only>` — the last three surface the store's health,
// runtime/result_cache.h), `FLUSH` (drops every cache entry, memory and
// disk; answered `FLUSHED` — how the replay harness forces recomputation)
// and `SHUTDOWN` (answered `BYE`; the daemon drains and exits).  An
// unknown command is answered `ERROR ? unknown command`.  One connection
// may carry many jobs; all server lines are tagged, so clients may
// pipeline.
//
// ## The codec
//
// Both ends speak the grammar through these functions only: `WireReader`
// (lines and exact byte counts over an fd or a string; the one CR rule
// strips a line's trailing `\r`, never payload bytes), `writeAll`,
// `nextToken`, `parseCount`, `appendJobBlock` / `readJob`, the `*Line`
// formatters with `appendResultBlock`, and `parseReply` / `readResultBody`.
// `readJob` calls a framing error (an unknown line in the block, a bad or
// over-64-MiB CIRCUIT count, EOF) Broken: the connection closes.  A
// semantic error (JOB without tag or backend, an unknown backend, the first
// bad OPT, no CIRCUIT, in that precedence) is Error: ERROR, and read on.
//
// ## Cache key contract
//
// A job's identity is `CacheKey`: (FNV-1a hash of the RAW circuit bytes,
// FNV-1a hash of the canonical options string, seed).  The canonical
// options string (canonicalOptionsKey) lists every result-affecting knob of
// EngineOptions — the knob table's `KnobKey::Options` rows, and nothing
// else — in table order with doubles printed as %.17g (round-trip exact),
// so a default knob and the same value spelled explicitly, in any OPT
// order, canonicalize identically.  Knobs that
// cannot affect the placement are excluded by design: `numThreads` (the
// runtime layer is bit-identical at any thread count) and `timeLimitSec`
// (the serve layer zeroes it — results under a wall-clock cap would not be
// reproducible, and a cache of non-reproducible results would be wrong).
// Hashing the raw circuit bytes (not a parsed canonical form) keeps the
// warm hit path allocation- and parse-free; the cost is that two textually
// different spellings of the same circuit compute twice.  That is the
// documented trade-off — ALSBENCH writers emit canonical text, so
// resubmissions of a written file always hit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "engine/placement_engine.h"

namespace als {

/// FNV-1a 64-bit over arbitrary bytes — the service's content hash.  Not
/// cryptographic; collision resistance at cache scale (64-bit, thousands of
/// entries) is ample, and the function is trivially portable.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 14695981039346656037ull);

/// Content-addressed identity of one job (see the header comment).
struct CacheKey {
  std::uint64_t circuit = 0;  ///< fnv1a64 of the raw ALSBENCH bytes
  std::uint64_t options = 0;  ///< fnv1a64 of canonicalOptionsKey(...)
  std::uint64_t seed = 0;     ///< EngineOptions::seed, explicit

  friend bool operator==(const CacheKey&, const CacheKey&) = default;

  /// 48 lowercase hex chars: circuit · options · seed, 16 each.
  std::string hex() const;
  /// Parses `hex()` output; returns false (leaving *this unspecified) on
  /// anything else.
  bool parseHex(std::string_view text);
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    // splitmix-style fold of the three words.
    std::uint64_t z = k.circuit + 0x9e3779b97f4a7c15ull * (k.options ^ k.seed);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    return static_cast<std::size_t>(z ^ (z >> 27));
  }
};

/// Appends the canonical options string for (backend, options) to `out`
/// (which is NOT cleared — warm callers reuse one buffer).  Fixed field
/// order, %.17g doubles, result-affecting knobs only; `seed` is excluded
/// (it is the cache key's explicit third word).
void canonicalOptionsKey(EngineBackend backend, const EngineOptions& options,
                         std::string& out);

/// The cache key of (raw circuit bytes, backend, options).  `scratch` holds
/// the canonical options string between calls so the warm path performs no
/// allocation once its capacity is reached.
CacheKey makeCacheKey(std::string_view circuitText, EngineBackend backend,
                      const EngineOptions& options, std::string& scratch);

/// Applies one `OPT <key> <value>` pair to `options`.  Returns empty on
/// success, else a message naming the key.  The keys and their domains are
/// the knob table's (engine/knobs.h); unknown keys are errors (a silently
/// dropped knob would poison the cache key contract), and so is a value
/// outside the knob's domain, which leaves `options` untouched.
std::string applyJobOption(EngineOptions& options, std::string_view key,
                           std::string_view value);

/// Parses a backend name as spelled by `backendName()`; returns false on
/// unknown names.
bool parseBackendName(std::string_view name, EngineBackend& backend);

// ---------------------------------------------------------------------------
// Result text ("ALSRESULT 1") — the persisted / wire form of EngineResult.
//
//   ALSRESULT 1
//   Backend <name>
//   Cost <%.17g>            # round-trip exact
//   Area <int64>
//   Hpwl <int64>
//   Moves <n>
//   Accepted <n>
//   Sweeps <n>
//   Restarts <n>
//   BestRestart <n>
//   BestSeed <u64>
//   NumRects <n>
//   Rect <x> <y> <w> <h>    # n lines, module-id order
//   END
//   Checksum <16 hex>       # fnv1a64 of every byte above, incl. "END\n"
//
// `seconds` is deliberately absent: it is wall-clock accounting, not part
// of a result's identity — a cached result re-reports the fetch latency.
//
// The `Checksum` trailer is the integrity seal of the whole stack: a
// truncated, bit-flipped or torn ALSRESULT payload — on the wire or in the
// on-disk store — fails `parseResultText` deterministically instead of
// parsing into a silently wrong placement.  `runtime/result_cache.h` relies
// on it to quarantine corrupt store entries rather than serve them.

/// Serializes `result` (with the backend that produced it) as ALSRESULT
/// text, appended to `out` (not cleared; warm callers reuse the buffer).
void writeResultText(EngineBackend backend, const EngineResult& result,
                     std::string& out);

/// Parses ALSRESULT text INTO `result`/`backend`, reusing the placement's
/// storage (the warm fetch path allocates nothing at steady capacity).
/// Returns empty on success, else "line N: message"; on failure `result`
/// is unspecified.  `result.seconds` is set to 0.
std::string parseResultText(std::string_view text, EngineBackend& backend,
                            EngineResult& result);

// ---------------------------------------------------------------------------
// The ALSSERVE 1 codec (see "The codec" above).

/// Writes all of `data`, retrying EINTR and short writes; false when the
/// peer is gone.
bool writeAll(int fd, std::string_view data);

class WireReader {
 public:
  explicit WireReader(int fd) : fd_(fd) {}
  /// Yields `text`, then EOF.
  explicit WireReader(std::string text) : buffer_(std::move(text)) {}

  bool readLine(std::string& line);
  bool readExact(std::size_t n, std::string& out);

 private:
  bool fill();
  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// Splits the next token off `rest`; empty at the end of the line.
std::string_view nextToken(std::string_view& rest);
/// A decimal count: digits only, within uint64.
bool parseCount(std::string_view token, std::uint64_t& out);
inline constexpr std::uint64_t kMaxCircuitBytes = 64u << 20;

/// One job as the wire describes it; `ServeEngine::Job` adds the callbacks.
struct JobRequest {
  std::string circuitText;  ///< raw ALSBENCH bytes (hashed as-is)
  EngineBackend backend = EngineBackend::FlatBStar;
  EngineOptions options;
  // Deadlines (0 = none) bound whether a run finishes, never what a
  // finished run produces, so they are not part of the cache key.
  double deadlineSeconds = 0.0;   ///< `OPT deadline-ms`, from submit
  std::size_t deadlineSweeps = 0;  ///< `OPT deadline-sweeps`, all slices
};

/// One `OPT <key> <value>` line.
using WireOpt = std::pair<std::string_view, std::string>;

/// Appends a JOB block; without `circuit` it has no CIRCUIT line.
void appendJobBlock(std::string& out, std::string_view tag,
                    std::string_view backend, std::span<const WireOpt> opts,
                    std::optional<std::string_view> circuit);

enum class JobStatus { Ok, Error, Broken };
/// Reads the JOB block whose JOB line continues with `args`.  Sets `tag`
/// ("?" when the line has none), and `job` on Ok or `error` on Error.
JobStatus readJob(WireReader& reader, std::string_view args, std::string& tag,
                  JobRequest& job, std::string& error);

/// The STATS reply's shape, filled by `ServeEngine::stats`.
struct ServeStats {
  std::uint64_t submitted = 0;   ///< jobs accepted by submit
  std::uint64_t completed = 0;   ///< jobs whose onDone ran (any outcome)
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;  ///< computed jobs (includes cancelled)
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;    ///< admission-control rejections
  std::uint64_t deadlineExpired = 0;  ///< jobs cut off by a deadline
  // The store's health, from ResultCache::Stats:
  std::uint64_t quarantined = 0;  ///< corrupt store entries quarantined
  std::uint64_t evicted = 0;      ///< entries dropped by the size cap
  bool memoryOnly = false;        ///< store degraded, disk writes disabled

  friend bool operator==(const ServeStats&, const ServeStats&) = default;
};

// Server lines, each with its newline; REJECTED's reason is `queue-full`.
std::string queuedLine(std::string_view tag, const CacheKey& key);
std::string rejectedLine(std::string_view tag);
std::string errorLine(std::string_view tag, std::string_view message);
std::string progressLine(std::string_view tag, std::size_t round,
                         std::size_t sweepsDone, double bestCost);
std::string statsLine(const ServeStats& stats);
/// RESULT, the ALSRESULT payload and DONE.
void appendResultBlock(std::string& out, std::string_view tag,
                       std::string_view status, EngineBackend backend,
                       const EngineResult& result);

/// One server line as a client reads it; views point into the line.
struct ServerReply {
  enum Kind { Queued, Rejected, Error, Progress, Result, Stats, Flushed, Bye };
  Kind kind = Error;
  std::string_view tag;
  std::string_view text;  ///< key hex, reason, message or RESULT status
  std::uint64_t round = 0, sweepsDone = 0, bytes = 0;
  double bestCost = 0.0;
  ServeStats stats;
};

/// False when `line` is none of the server lines.
bool parseReply(std::string_view line, ServerReply& out);
/// After a RESULT line: its payload, then the matching DONE line.
bool readResultBody(WireReader& reader, const ServerReply& result,
                    std::string& payload);

}  // namespace als
