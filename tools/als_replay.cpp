// als_replay — load driver and acceptance harness for the als_serve daemon.
//
// Fires corpus jobs at a running daemon (or one it spawns itself with
// --serve-bin, the hermetic CI mode) over the ALSSERVE 1 protocol
// (io/serve_protocol.h) and measures what the serve layer promises:
//
//   identity    the same unique job set at 1 client and at N concurrent
//               clients (cache flushed in between, so both rounds COMPUTE)
//               must produce bit-identical per-job results — and, with
//               --check, identical to an in-process PortfolioRunner run of
//               the same options in THIS process (the wire path adds
//               nothing and loses nothing).
//   throughput  a duplicate-laden job stream at configurable concurrency:
//               client-observed latency percentiles, jobs/sec, and the
//               cache hit rate lifted from STATS deltas.
//   warm/cold   one cold ami49 compute, then the same key resubmitted:
//               the warm hit must be >= 50x faster (--check) and byte-
//               identical to the cold payload.
//   cancel      a long job cancelled mid-run must deliver its RESULT
//               within a bounded number of progress rounds, and the worker
//               that absorbed the cancel must then complete a fresh job
//               bit-identical to an unperturbed process (the in-process
//               oracle again).
//   grammar     (--check) a refused knob, a JOB without CIRCUIT, a bad
//               deadline and an unknown command each draw their ERROR
//               line, and the connection still completes a job after each.
//
// Clients honor REJECTED backpressure with seeded, deterministic
// exponential backoff + jitter (runWithRetry) — the retry SCHEDULE is a
// pure function of the per-client seed, so a loaded run is reproducible.
//
// `--faults` switches to the CHAOS HARNESS instead of the phases above: it
// corrupts/truncates store files between daemon generations, arms
// util/fault_injection.h specs (ENOSPC, torn renames, crash points), kills
// and restarts the daemon mid-write, and drives deadline and backpressure
// paths — asserting throughout that every completed job stays byte-
// identical to the in-process oracle, corrupt entries are quarantined and
// never served, the store honors its size cap, and deadline-expired jobs
// report `deadline` within one progress round.
//
// Results go to stdout and, with --json, as bench_json records next to the
// other bench-smoke captures: per-circuit quality rows (deterministic
// cost/hpwl/area under the "serve-<backend>" name; seconds deliberately 0,
// so the throughput gate treats them as presence+quality only) and
// "serve-meta" rows whose `seconds` field carries the measured metric
// (latency percentiles, jobs/sec, hit rate, warm speedup, cancel ack
// rounds; cost 0 keeps them out of the quality gate — wall-clock metrics
// are machine facts, not regressions).
//
//   als_replay --serve-bin ./build/als_serve --check --clients 8
//              [--json build/bench-smoke/bench_serve.json]
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "engine/knobs.h"
#include "engine/placement_engine.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "runtime/portfolio.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace als;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket <path> | --serve-bin <als_serve>) [options]\n"
               "daemon (with --serve-bin the daemon is spawned and shut down "
               "by this tool)\n"
               "  --workers <n>          daemon worker threads (default 2)\n"
               "  --queue <n>            daemon job slots (default 64)\n"
               "  --progress-interval <n> sweeps between PROGRESS (default 16)\n"
               "workload\n"
               "  --circuits <a,b,..>    corpus circuits (default apte,ami33)\n"
               "  --backend <name>       engine backend (default seqpair)\n"
               "  --sweeps <n>           per-job sweep budget (default 64)\n"
               "  --restarts <n>         per-job restarts (default 4)\n"
               "  --jobs <n>             throughput-phase jobs (default 24)\n"
               "  --clients <n>          throughput-phase connections (default 4)\n"
               "  --identity-clients <n> concurrent round of the identity phase\n"
               "                         (default 8)\n"
               "  --dup-ratio <r>        duplicate fraction in [0,1) (default 0.5)\n"
               "  --warm-circuit <name>  warm/cold + cancel circuit (default ami49)\n"
               "  --warm-sweeps <n>      warm/cold sweep budget (default 256)\n"
               "  --cancel-sweeps <n>    budget of the to-be-cancelled job\n"
               "                         (default 200000)\n"
               "checks / output\n"
               "  --check                enforce the acceptance gates (identity,\n"
               "                         >=50x warm speedup, cancel ack bound,\n"
               "                         in-process oracle); nonzero exit on any\n"
               "                         violation\n"
               "  --faults               run the chaos harness instead of the\n"
               "                         standard phases (requires --serve-bin):\n"
               "                         store corruption, fault-injected ENOSPC\n"
               "                         and torn renames, daemon crash/restart,\n"
               "                         deadlines, backpressure retry\n"
               "  --json <path>          bench_json records\n",
               argv0);
  return 2;
}

// --- wire client ------------------------------------------------------------

/// One job as the replay harness describes it (circuit by corpus name; the
/// raw text is what goes on the wire and into the cache key).
struct JobSpec {
  std::string circuit;
  std::string_view text;
  std::uint64_t seed = 1;
  std::size_t sweeps = 64;
  std::size_t restarts = 4;
  std::size_t deadlineMs = 0;      ///< OPT deadline-ms when > 0
  std::size_t deadlineSweeps = 0;  ///< OPT deadline-sweeps when > 0
  std::string name() const { return circuit + "/seed" + std::to_string(seed); }
};

struct WireOutcome {
  bool ok = false;          ///< RESULT received and well-formed
  bool rejected = false;
  std::string status;       ///< hit | miss | cancelled | deadline
  std::string keyHex;
  std::string payload;      ///< ALSRESULT text
  std::string error;
  std::size_t progressTotal = 0;
  std::size_t progressAfterCancel = 0;
  std::size_t attempts = 1;  ///< submissions incl. REJECTED retries
  double latencySec = 0.0;  ///< JOB sent -> DONE received
};

/// Synchronous client: one connection, one job in flight at a time (load
/// comes from running many clients, mirroring the serve scheduling model).
class ServeClient {
 public:
  bool connect(const std::string& socketPath) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof addr.sun_path) return false;
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    reader_ = std::make_unique<WireReader>(fd_);
    return true;
  }
  ~ServeClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Runs one job to completion.  `cancelAfterRounds` > 0 sends CANCEL once
  /// that many PROGRESS lines have arrived.
  WireOutcome run(const JobSpec& job, std::string_view backendName,
                  std::size_t cancelAfterRounds = 0) {
    std::vector<WireOpt> opts = {{"sweeps", std::to_string(job.sweeps)},
                                 {"restarts", std::to_string(job.restarts)},
                                 {"seed", std::to_string(job.seed)}};
    if (job.deadlineMs > 0) {
      opts.push_back({"deadline-ms", std::to_string(job.deadlineMs)});
    }
    if (job.deadlineSweeps > 0) {
      opts.push_back({"deadline-sweeps", std::to_string(job.deadlineSweeps)});
    }
    const std::string tag = "j" + std::to_string(nextTag_++);
    std::string block;
    appendJobBlock(block, tag, backendName, opts, job.text);
    return send(block, tag, cancelAfterRounds);
  }

  /// Sends `request` (a JOB block, or any line) and reads replies until the
  /// one that ends it: RESULT (with its payload), REJECTED or ERROR.
  WireOutcome send(std::string_view request, std::string_view tag,
                   std::size_t cancelAfterRounds = 0) {
    WireOutcome out;
    Stopwatch clock;
    if (!writeAll(fd_, request)) {
      out.error = "write failed";
      return out;
    }
    bool cancelSent = false;
    std::string line;
    ServerReply reply;
    while (reader_->readLine(line)) {
      if (!parseReply(line, reply)) continue;
      if (reply.kind == ServerReply::Queued) {
        out.keyHex = reply.text;
      } else if (reply.kind == ServerReply::Rejected) {
        out.rejected = true;
        return out;
      } else if (reply.kind == ServerReply::Error) {
        out.error = reply.text;
        return out;
      } else if (reply.kind == ServerReply::Progress) {
        if (cancelSent) ++out.progressAfterCancel;
        if (++out.progressTotal == cancelAfterRounds) {
          cancelSent = true;
          if (!writeAll(fd_, "CANCEL " + std::string(tag) + "\n")) {
            out.error = "cancel write failed";
            return out;
          }
        }
      } else if (reply.kind == ServerReply::Result) {
        out.status = reply.text;
        if (!readResultBody(*reader_, reply, out.payload)) {
          out.error = "truncated RESULT";
          return out;
        }
        out.latencySec = clock.seconds();
        out.ok = true;
        return out;
      }
    }
    out.error = "connection closed mid-job";
    return out;
  }

  bool stats(ServeStats& out) {
    const bool ok = command("STATS\n", ServerReply::Stats);
    if (ok) out = reply_.stats;
    return ok;
  }
  bool flush() { return command("FLUSH\n", ServerReply::Flushed); }
  bool shutdownDaemon() { return command("SHUTDOWN\n", ServerReply::Bye); }

 private:
  /// One control line and its one-line answer of kind `kind`.
  bool command(std::string_view request, ServerReply::Kind kind) {
    return writeAll(fd_, request) && reader_->readLine(line_) &&
           parseReply(line_, reply_) && reply_.kind == kind;
  }

  int fd_ = -1;
  std::unique_ptr<WireReader> reader_;
  std::uint64_t nextTag_ = 1;
  std::string line_;    ///< the last control reply ...
  ServerReply reply_;  ///< ... and its parse, which views `line_`
};

// --- helpers ----------------------------------------------------------------

int g_failures = 0;

/// One acceptance failure: a FAIL line, and a nonzero exit at the end.
void fail(const std::string& what) {
  std::fprintf(stderr, "als_replay: FAIL %s\n", what.c_str());
  ++g_failures;
}

/// The closing PASS/FAIL line and the exit status.
int verdict(const char* run) {
  std::printf("%s: %s (%d failure(s))\n", run,
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

/// Waits for the daemon to exit; fails unless it exited cleanly, or, with
/// `clean` false, unless it crashed.
void reap(pid_t pid, const std::string& what, bool clean) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return fail(what + "waitpid failed");
  if (clean != (WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    fail(what + (clean ? "daemon did not exit cleanly"
                       : "daemon exited cleanly, crash expected"));
  }
}

/// SHUTDOWN, then reap the daemon: a missing BYE or an unclean exit fails.
void stopDaemon(ServeClient& client, pid_t pid, const std::string& what) {
  if (!client.shutdownDaemon()) fail(what + "SHUTDOWN not acknowledged");
  reap(pid, what, /*clean=*/true);
}

/// Fails unless `out` completed with `status`; true when it did.
bool expect(const WireOutcome& out, std::string_view status,
            const std::string& what) {
  if (out.ok && out.status == status) return true;
  fail(what + " reported '" + (out.ok ? out.status : out.error) +
       "', expected '" + std::string(status) + "'");
  return false;
}

/// Backpressure-honoring submit: on REJECTED, sleep a seeded exponential
/// backoff with jitter and resubmit.  The schedule (5ms base, x2 per
/// attempt, 200ms cap, jitter in [0.5, 1.0) of the step) is a pure function
/// of `rng`'s seed — a loaded run retries identically every time.  Any
/// non-REJECTED outcome returns immediately with `attempts` filled in.
WireOutcome runWithRetry(ServeClient& client, const JobSpec& job,
                         std::string_view backendName, Rng& rng,
                         std::size_t maxAttempts = 100,
                         std::size_t cancelAfterRounds = 0) {
  double backoff = 0.005;
  for (std::size_t attempt = 1;; ++attempt) {
    WireOutcome out = client.run(job, backendName, cancelAfterRounds);
    out.attempts = attempt;
    if (!out.rejected || attempt >= maxAttempts) return out;
    const double jitter = 0.5 + 0.5 * rng.uniform();
    std::this_thread::sleep_for(
        std::chrono::duration<double>(backoff * jitter));
    backoff = std::min(backoff * 2.0, 0.2);
  }
}

/// Connects with a bounded retry loop — the probe for a daemon that was
/// just spawned (or respawned after a chaos kill) and is still binding.
bool connectRetry(ServeClient& client, const std::string& socketPath,
                  int attempts = 200) {
  for (int i = 0; i < attempts; ++i) {
    if (client.connect(socketPath)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The in-process oracle: what an unperturbed process computes for this job
/// (PortfolioRunner on the serve layer's forced knobs), digested over the
/// same ALSRESULT text the daemon sends.
std::uint64_t oracleDigest(const JobSpec& job, EngineBackend backend) {
  ParseResult parsed = parseBenchmark(job.text);
  if (!parsed.ok()) return 0;
  EngineOptions opt;
  opt.maxSweeps = job.sweeps;
  opt.numRestarts = job.restarts;
  opt.seed = job.seed;
  opt.timeLimitSec = 0.0;
  opt.numThreads = 1;
  PortfolioRunner runner;
  EngineResult result = runner.run(parsed.circuit, backend, opt);
  std::string text;
  writeResultText(backend, result, text);
  return fnv1a64(text);
}

/// Runs `jobList` round-robin across `clients` synchronous connections and
/// returns every outcome (indexed like jobList).
std::vector<WireOutcome> runPhase(const std::string& socketPath,
                                  const std::vector<JobSpec>& jobList,
                                  std::string_view backendName,
                                  std::size_t clients) {
  clients = std::max<std::size_t>(1, std::min(clients, jobList.size()));
  std::vector<WireOutcome> results(jobList.size());
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      if (!client.connect(socketPath)) {
        for (std::size_t i = c; i < jobList.size(); i += clients) {
          results[i].error = "connect failed";
        }
        return;
      }
      // Seeded per client: the retry schedule under backpressure is as
      // reproducible as the jobs themselves.
      Rng rng(0xC0FFEEull + c);
      for (std::size_t i = c; i < jobList.size(); i += clients) {
        results[i] = runWithRetry(client, jobList[i], backendName, rng);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

pid_t spawnDaemon(const std::string& bin, const std::string& socketPath,
                  const std::string& cacheDir, std::size_t workers,
                  std::size_t queue, std::size_t progressInterval,
                  std::size_t cacheCap = 0, const std::string& faults = {}) {
  std::vector<std::string> args = {
      bin, "--socket", socketPath, "--workers", std::to_string(workers),
      "--queue", std::to_string(queue), "--progress-interval",
      std::to_string(progressInterval), "--cache-cap",
      std::to_string(cacheCap)};
  if (!cacheDir.empty()) args.insert(args.end(), {"--cache-dir", cacheDir});
  if (!faults.empty()) args.insert(args.end(), {"--faults", faults});
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::vector<char*> argvp;
  argvp.reserve(args.size() + 1);
  for (std::string& a : args) argvp.push_back(a.data());
  argvp.push_back(nullptr);
  ::execv(bin.c_str(), argvp.data());
  std::perror("als_replay: execv");
  ::_exit(127);
}

// --- chaos harness (--faults) -----------------------------------------------

/// A fresh directory /tmp/<prefix>.XXXXXX, or "" when none can be made.
std::string makeTempDir(const char* prefix) {
  std::string path = "/tmp/" + std::string(prefix) + ".XXXXXX";
  if (::mkdtemp(path.data()) != nullptr) return path;
  std::perror("als_replay: mkdtemp");
  return {};
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  out.assign(std::istreambuf_iterator<char>(in), {});
  return static_cast<bool>(in);
}

bool writeFile(const std::string& path, std::string_view data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  return ok;
}

std::size_t countFiles(const std::string& dir, const char* ext) {
  std::error_code ec;
  std::size_t n = 0;
  std::filesystem::directory_iterator it(dir, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() == ext) ++n;
  }
  return n;
}

/// The chaos harness: every failure mode the stack claims to survive,
/// driven for real — file corruption between daemon generations, injected
/// ENOSPC and crash points, SIGKILL mid-job, deadlines, backpressure — with
/// the acceptance bar that completed results stay byte-identical to the
/// in-process oracle and corrupt bytes are never served.
int runChaosHarness(const std::string& serveBin, EngineBackend backend,
                    const std::string& backendStr, bool check) {
  const std::string tmpDir = makeTempDir("als_chaos");
  if (tmpDir.empty()) return 1;
  const std::string socketPath = tmpDir + "/als.sock";

  const std::string_view apte = corpusText(CorpusCircuit::Apte);
  const std::string_view ami33 = corpusText(CorpusCircuit::Ami33);

  auto start = [&](const std::string& cacheDir, std::size_t workers,
                   std::size_t queue, std::size_t cap,
                   const std::string& faults, ServeClient& client) -> pid_t {
    pid_t pid = spawnDaemon(serveBin, socketPath, cacheDir, workers, queue,
                            /*progressInterval=*/16, cap, faults);
    if (pid < 0 || !connectRetry(client, socketPath)) {
      fail("chaos: cannot spawn/connect daemon");
      if (pid > 0) ::kill(pid, SIGKILL);
      return -1;
    }
    return pid;
  };
  // A long job on its own connection, run on a thread the caller joins.
  auto inBackground = [&](JobSpec job) {
    return std::thread([&, job] {
      ServeClient k;
      if (connectRetry(k, socketPath)) k.run(job, backendStr);
    });
  };
  auto oracleCheck = [&](const JobSpec& job, const WireOutcome& out,
                         const char* what) {
    if (check && fnv1a64(out.payload) != oracleDigest(job, backend)) {
      fail(std::string(what) + ": served result differs from the in-process "
                               "oracle");
    }
  };

  // --- phase A: store corruption between daemon generations ----------------
  // Populate 5 entries, shut down, damage 3 of them on disk (bit flip,
  // truncation, foreign content under the wrong key) plus an orphan .tmp,
  // restart: the scrub must quarantine exactly the damaged entries, the
  // damaged keys recompute bit-identically, the intact ones still hit.
  {
    const std::string cacheDir = tmpDir + "/cache-a";
    ServeClient c1;
    pid_t pid = start(cacheDir, 2, 16, 0, "", c1);
    if (pid > 0) {
      std::vector<JobSpec> jobs;
      for (std::uint64_t s = 1; s <= 5; ++s) {
        jobs.push_back({"apte", apte, s, 64, 2});
      }
      std::vector<std::string> keys(jobs.size()), payloads(jobs.size());
      Rng rng(1);
      bool populated = true;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        WireOutcome out = runWithRetry(c1, jobs[i], backendStr, rng);
        if (!expect(out, "miss", "chaos-A: populate " + std::to_string(i))) {
          populated = false;
          continue;
        }
        keys[i] = out.keyHex;
        payloads[i] = out.payload;
        oracleCheck(jobs[i], out, "chaos-A populate");
      }
      stopDaemon(c1, pid, "chaos-A populate: ");

      if (populated) {
        auto entry = [&](std::size_t i) {
          return cacheDir + "/" + keys[i] + ".alsresult";
        };
        std::string bytes;
        // keys[0]: one flipped bit mid-file.
        if (!readFile(entry(0), bytes)) fail("chaos-A: read entry 0");
        bytes[bytes.size() / 2] ^= 0x20;
        writeFile(entry(0), bytes);
        // keys[1]: truncated to 60%.
        if (!readFile(entry(1), bytes)) fail("chaos-A: read entry 1");
        writeFile(entry(1), std::string_view(bytes).substr(0, bytes.size() * 3 / 5));
        // keys[3]: keys[2]'s (valid!) content under keys[3]'s name — the
        // foreign-file case only the Key line can catch.
        if (!readFile(entry(2), bytes)) fail("chaos-A: read entry 2");
        writeFile(entry(3), bytes);
        // Plus an orphaned temp file from a pretend crash.
        writeFile(entry(4) + ".tmp", "torn half-written entry");

        ServeClient c2;
        pid = start(cacheDir, 2, 16, 0, "", c2);
        if (pid > 0) {
          ServeStats s{};
          if (!c2.stats(s)) fail("chaos-A: STATS after restart");
          if (s.quarantined < 3) {
            fail("chaos-A: scrub quarantined " +
                 std::to_string(s.quarantined) + " entries, expected >= 3");
          }
          if (std::filesystem::exists(entry(4) + ".tmp")) {
            fail("chaos-A: orphan .tmp survived the startup scrub");
          }
          const char* statuses[5] = {"miss", "miss", "hit", "miss", "hit"};
          for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::string what =
                "chaos-A: post-damage job " + std::to_string(i);
            WireOutcome out = c2.run(jobs[i], backendStr);
            if (expect(out, statuses[i], what) &&
                out.payload != payloads[i]) {
              fail(what + " payload not byte-identical to the original");
            }
          }
          stopDaemon(c2, pid, "chaos-A recovery: ");
          std::printf("chaos-A corruption: 3 damaged + 1 torn .tmp -> "
                      "%llu quarantined, recomputes byte-identical\n",
                      static_cast<unsigned long long>(s.quarantined));
        }
      }
    }
  }

  // --- phase B: ENOSPC degradation ------------------------------------------
  // Every disk write fails: results must still flow (computed, correct),
  // the daemon must surface memory-only degradation, resubmits must hit
  // from memory, and nothing may land on disk.
  {
    const std::string cacheDir = tmpDir + "/cache-b";
    ServeClient c;
    pid_t pid = start(cacheDir, 2, 16, 0, "write-fail@1+", c);
    if (pid > 0) {
      std::vector<JobSpec> jobs;
      for (std::uint64_t s = 11; s <= 14; ++s) {
        jobs.push_back({"apte", apte, s, 64, 2});
      }
      std::vector<std::string> payloads(jobs.size());
      Rng rng(2);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        WireOutcome out = runWithRetry(c, jobs[i], backendStr, rng);
        if (!expect(out, "miss", "chaos-B: job " + std::to_string(i))) {
          continue;
        }
        payloads[i] = out.payload;
        oracleCheck(jobs[i], out, "chaos-B");
      }
      ServeStats s{};
      if (!c.stats(s)) fail("chaos-B: STATS");
      if (!s.memoryOnly) {
        fail("chaos-B: daemon not memory-only after persistent write "
             "failures");
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        WireOutcome out = c.run(jobs[i], backendStr);
        if (!out.ok || out.status != "hit" || out.payload != payloads[i]) {
          fail("chaos-B: resubmit " + std::to_string(i) +
               " not a byte-identical memory hit");
        }
      }
      if (countFiles(cacheDir, ".alsresult") != 0) {
        fail("chaos-B: entries landed on disk despite injected ENOSPC");
      }
      stopDaemon(c, pid, "chaos-B: ");
      std::printf("chaos-B ENOSPC: %zu jobs computed memory-only, "
                  "degradation surfaced, 0 files on disk\n",
                  jobs.size());
    }
  }

  // --- phase C: crash recovery ----------------------------------------------
  {
    // C1: die between temp-file write and rename — the classic torn-rename
    // window.  The orphan .tmp must be scrubbed, the lost job recomputed.
    const std::string cacheDir = tmpDir + "/cache-c1";
    ServeClient c;
    pid_t pid = start(cacheDir, 1, 16, 0, "crash@store-after-write:2", c);
    if (pid > 0) {
      JobSpec j1{"apte", apte, 21, 64, 2}, j2{"apte", apte, 22, 64, 2};
      WireOutcome out1 = c.run(j1, backendStr);
      expect(out1, "miss", "chaos-C1: first job");
      WireOutcome out2 = c.run(j2, backendStr);
      if (out2.ok) {
        fail("chaos-C1: second job completed, crash-at-store expected");
      }
      reap(pid, "chaos-C1: ", /*clean=*/false);
      ServeClient c2;
      pid = start(cacheDir, 1, 16, 0, "", c2);
      if (pid > 0) {
        if (countFiles(cacheDir, ".tmp") != 0) {
          fail("chaos-C1: torn .tmp survived the restart scrub");
        }
        WireOutcome redo = c2.run(j2, backendStr);
        expect(redo, "miss", "chaos-C1: lost job after restart");
        oracleCheck(j2, redo, "chaos-C1 recompute");
        WireOutcome warm = c2.run(j1, backendStr);
        if (!warm.ok || warm.status != "hit" || warm.payload != out1.payload) {
          fail("chaos-C1: durable pre-crash entry not served byte-identical");
        }
        stopDaemon(c2, pid, "chaos-C1: ");
        std::printf("chaos-C1 crash mid-store: torn .tmp scrubbed, "
                    "recompute + durable hit byte-identical\n");
      }
    }
  }
  {
    // C2: SIGKILL with a job in flight — nothing graceful anywhere.  The
    // store directory must come back serviceable and correct.
    const std::string cacheDir = tmpDir + "/cache-c2";
    ServeClient c;
    pid_t pid = start(cacheDir, 1, 16, 0, "", c);
    if (pid > 0) {
      std::thread victim = inBackground({"ami33", ami33, 31, 200000, 2});
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      victim.join();
      ServeClient c2;
      pid = start(cacheDir, 1, 16, 0, "", c2);
      if (pid > 0) {
        JobSpec j{"ami33", ami33, 32, 64, 2};
        WireOutcome out = c2.run(j, backendStr);
        expect(out, "miss", "chaos-C2: job after SIGKILL restart");
        oracleCheck(j, out, "chaos-C2");
        stopDaemon(c2, pid, "chaos-C2: ");
        std::printf("chaos-C2 SIGKILL mid-job: restart serves correctly\n");
      }
    }
  }
  {
    // C3: die immediately after delivering a RESULT — the entry is durable,
    // the restarted daemon must serve it warm and byte-identical.
    const std::string cacheDir = tmpDir + "/cache-c3";
    ServeClient c;
    pid_t pid = start(cacheDir, 1, 16, 0, "crash@serve-after-result:1", c);
    if (pid > 0) {
      JobSpec j{"apte", apte, 23, 64, 2};
      WireOutcome out = c.run(j, backendStr);
      expect(out, "miss", "chaos-C3: job before crash point");
      reap(pid, "chaos-C3: ", /*clean=*/false);
      ServeClient c2;
      pid = start(cacheDir, 1, 16, 0, "", c2);
      if (pid > 0) {
        WireOutcome warm = c2.run(j, backendStr);
        if (!warm.ok || warm.status != "hit" || warm.payload != out.payload) {
          fail("chaos-C3: durable entry not served warm after crash");
        }
        stopDaemon(c2, pid, "chaos-C3: ");
        std::printf("chaos-C3 crash after RESULT: durable entry hits warm\n");
      }
    }
  }

  // --- phase D: deadlines ----------------------------------------------------
  {
    ServeClient c;
    pid_t pid = start(tmpDir + "/cache-d", 1, 16, 0, "", c);
    if (pid > 0) {
      JobSpec wall{"ami33", ami33, 41, 200000, 2};
      wall.deadlineMs = 300;
      WireOutcome w = c.run(wall, backendStr);
      if (expect(w, "deadline", "chaos-D: wall-deadline job") &&
          w.latencySec > 10.0) {
        fail("chaos-D: wall deadline honored only after " +
             std::to_string(w.latencySec) + "s");
      }
      // Not in the cache key, and the cut-short result must not be cached:
      // the SAME job resubmitted must deadline again, never hit.
      WireOutcome again = c.run(wall, backendStr);
      if (again.ok && again.status == "hit") {
        fail("chaos-D: deadline-expired result was served from the cache");
      }
      JobSpec swp{"ami33", ami33, 42, 200000, 2};
      swp.deadlineSweeps = 64;
      WireOutcome sw = c.run(swp, backendStr);
      if (expect(sw, "deadline", "chaos-D: sweep-deadline job") &&
          sw.progressTotal > 4) {
        // 2 slices x 16 sweeps/round crosses the 64-sweep budget in round
        // 2; one more round winds down.  >4 means the round-granular check
        // is not being honored.
        fail("chaos-D: sweep deadline acknowledged only after " +
             std::to_string(sw.progressTotal) + " progress rounds");
      }
      ServeStats s{};
      if (!c.stats(s)) fail("chaos-D: STATS");
      if (s.deadlineExpired < 2) {
        fail("chaos-D: STATS deadline-expired " +
             std::to_string(s.deadlineExpired) + ", expected >= 2");
      }
      stopDaemon(c, pid, "chaos-D: ");
      std::printf("chaos-D deadlines: wall %.0fms, sweep within %zu "
                  "round(s), never cached\n",
                  w.latencySec * 1e3, sw.progressTotal);
    }
  }

  // --- phase E: backpressure + retry ----------------------------------------
  // One slot, occupied by a long job: a retrying client must see REJECTED,
  // back off, and land the job once the slot frees — attempts > 1 proves
  // the backpressure path actually fired.
  {
    ServeClient c;
    pid_t pid = start(tmpDir + "/cache-e", 1, /*queue=*/1, 0, "", c);
    if (pid > 0) {
      std::thread occupier = inBackground({"ami33", ami33, 51, 8000, 2});
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      ServeClient rc;
      if (!connectRetry(rc, socketPath)) {
        fail("chaos-E: retry client connect");
        occupier.join();
      } else {
        Rng rng(7);
        JobSpec small{"apte", apte, 52, 64, 2};
        WireOutcome out =
            runWithRetry(rc, small, backendStr, rng, /*maxAttempts=*/400);
        occupier.join();
        if (!out.ok) {
          fail("chaos-E: retried job never completed (" +
               (out.rejected ? std::string("still rejected") : out.error) +
               ")");
        } else if (out.attempts < 2) {
          fail("chaos-E: job accepted on attempt 1 — backpressure never "
               "fired (timing too generous?)");
        } else {
          oracleCheck(small, out, "chaos-E");
        }
        ServeStats s{};
        if (!c.stats(s)) fail("chaos-E: STATS");
        if (s.rejected < 1) fail("chaos-E: STATS shows no rejections");
        stopDaemon(c, pid, "chaos-E: ");
        std::printf("chaos-E backpressure: accepted on attempt %zu after "
                    "deterministic backoff\n",
                    out.attempts);
      }
    }
  }

  // --- phase F: size cap -----------------------------------------------------
  {
    const std::string cacheDir = tmpDir + "/cache-f";
    ServeClient c;
    pid_t pid = start(cacheDir, 2, 16, /*cap=*/3, "", c);
    if (pid > 0) {
      Rng rng(3);
      for (std::uint64_t s = 61; s <= 65; ++s) {
        JobSpec j{"apte", apte, s, 64, 2};
        WireOutcome out = runWithRetry(c, j, backendStr, rng);
        if (!out.ok) fail("chaos-F: job failed");
      }
      ServeStats s{};
      if (!c.stats(s)) fail("chaos-F: STATS");
      if (s.evicted < 2) {
        fail("chaos-F: STATS evicted " + std::to_string(s.evicted) +
             ", expected >= 2 with cap 3 and 5 unique jobs");
      }
      stopDaemon(c, pid, "chaos-F: ");
      const std::size_t files = countFiles(cacheDir, ".alsresult");
      if (files > 3) {
        fail("chaos-F: " + std::to_string(files) +
             " files on disk exceed the cap of 3");
      }
      std::printf("chaos-F size cap: 5 unique jobs, cap 3 -> %llu evicted, "
                  "%zu files on disk\n",
                  static_cast<unsigned long long>(s.evicted), files);
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(tmpDir, ec);
  return verdict("als_replay --faults");
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);  // owns --json

  std::string socketPath, serveBin, backendArg = "seqpair";
  std::string circuitsArg = "apte,ami33", warmCircuit = "ami49";
  std::size_t workers = 2, queue = 64, progressInterval = 16;
  std::size_t jobs = 24, clients = 4, identityClients = 8;
  std::size_t warmSweeps = 256, cancelSweeps = 200000;
  // --sweeps and --restarts are job knobs: the knob table's domains, as the
  // daemon applies them to `OPT sweeps` / `OPT restarts`.
  EngineOptions knobs;
  knobs.maxSweeps = 64;
  knobs.numRestarts = 4;
  double dupRatio = 0.5;
  bool check = false;
  bool faultsMode = false;

  struct TextFlag {
    std::string_view flag;
    std::string* out;
  };
  const TextFlag textFlags[] = {{"--socket", &socketPath},
                                {"--serve-bin", &serveBin},
                                {"--backend", &backendArg},
                                {"--circuits", &circuitsArg},
                                {"--warm-circuit", &warmCircuit}};
  struct CountFlag {
    std::string_view flag;
    std::size_t* out;
    std::uint64_t lo, hi;
  };
  const CountFlag countFlags[] = {
      {"--workers", &workers, 1, 256},
      {"--queue", &queue, 1, 65536},
      {"--progress-interval", &progressInterval, 1, 1u << 30},
      {"--jobs", &jobs, 1, 1u << 20},
      {"--clients", &clients, 1, 1024},
      {"--identity-clients", &identityClients, 1, 1024},
      {"--warm-sweeps", &warmSweeps, 1, 1u << 30},
      {"--cancel-sweeps", &cancelSweeps, 1, 1u << 30}};

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto text = std::ranges::find(textFlags, arg, &TextFlag::flag);
    const auto count = std::ranges::find(countFlags, arg, &CountFlag::flag);
    if (text != std::end(textFlags)) {
      const char* v = value();
      if (!v) return usage(argv[0]);
      *text->out = v;
    } else if (count != std::end(countFlags)) {
      const char* v = value();
      std::uint64_t n = 0;
      if (!v || !parseCount(v, n) || n < count->lo || n > count->hi) {
        return usage(argv[0]);
      }
      *count->out = static_cast<std::size_t>(n);
    } else if (arg == "--sweeps" || arg == "--restarts") {
      const char* v = value();
      const std::string error = v ? applyCliOption(knobs, arg, v) : "no value";
      if (!error.empty()) {
        std::fprintf(stderr, "als_replay: %s\n", error.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--dup-ratio") {
      const char* v = value();
      char* end = nullptr;
      double r = v ? std::strtod(v, &end) : 0.0;
      if (!v || end == v || *end != '\0' || !(r >= 0.0) || r >= 1.0) {
        return usage(argv[0]);
      }
      dupRatio = r;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--faults") {
      faultsMode = true;
    } else if (arg == "--json") {
      ++i;  // value consumed by BenchIo
    } else {
      std::fprintf(stderr, "als_replay: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (socketPath.empty() && serveBin.empty()) return usage(argv[0]);
  const std::size_t sweeps = knobs.maxSweeps, restarts = knobs.numRestarts;

  EngineBackend backend = EngineBackend::SeqPair;
  if (!parseBackendName(backendArg, backend)) {
    std::fprintf(stderr, "als_replay: unknown backend '%s'\n",
                 backendArg.c_str());
    return 2;
  }
  const std::string backendStr(backendName(backend));

  if (faultsMode) {
    if (serveBin.empty()) {
      std::fprintf(stderr,
                   "als_replay: --faults needs --serve-bin (the harness owns "
                   "the daemon lifecycle)\n");
      return 2;
    }
    return runChaosHarness(serveBin, backend, backendStr, check);
  }

  // Resolve the circuit list, and then the warm circuit, against the
  // embedded corpus.
  std::vector<std::pair<std::string, std::string_view>> circuits;
  const std::string names = circuitsArg + "," + warmCircuit;
  for (std::size_t pos = 0; pos < names.size();) {
    std::size_t comma = names.find(',', pos);
    std::string name = names.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? names.size() : comma + 1;
    CorpusCircuit which;
    if (name.empty() || !corpusByName(name, &which)) {
      std::fprintf(stderr, "als_replay: unknown corpus circuit '%s'\n",
                   name.c_str());
      return 2;
    }
    circuits.emplace_back(name, corpusText(which));
  }
  const std::string_view warmText = circuits.back().second;
  circuits.pop_back();

  // Spawn the daemon when asked (the hermetic mode CI uses): fresh socket
  // and cache dir in a temp directory, torn down at the end.
  pid_t daemonPid = -1;
  std::string tmpDir;
  if (!serveBin.empty()) {
    tmpDir = makeTempDir("als_replay");
    if (tmpDir.empty()) return 1;
    socketPath = tmpDir + "/als.sock";
    daemonPid = spawnDaemon(serveBin, socketPath, tmpDir + "/cache", workers,
                            queue, progressInterval);
    if (daemonPid < 0) {
      std::perror("als_replay: fork");
      return 1;
    }
  }


  // One control connection for FLUSH / STATS / SHUTDOWN, which doubles as
  // the connect-retry probe for a just-spawned daemon.
  ServeClient control;
  if (!connectRetry(control, socketPath)) {
    std::fprintf(stderr, "als_replay: cannot connect to %s\n",
                 socketPath.c_str());
    if (daemonPid > 0) ::kill(daemonPid, SIGKILL);
    return 1;
  }

  std::printf("als_replay: daemon at %s, backend=%s, %zu circuit(s), "
              "sweeps=%zu, restarts=%zu\n",
              socketPath.c_str(), backendStr.c_str(), circuits.size(), sweeps,
              restarts);

  // --- phase: identity (1 client vs N clients, both computing) -------------
  const std::size_t identitySeeds = 4;
  std::vector<JobSpec> identityJobs;
  for (const auto& [name, text] : circuits) {
    for (std::size_t s = 0; s < identitySeeds; ++s) {
      identityJobs.push_back({name, text, s + 1, sweeps, restarts});
    }
  }
  std::vector<WireOutcome> lone =
      runPhase(socketPath, identityJobs, backendStr, 1);
  if (!control.flush()) fail("FLUSH before concurrent identity round");
  std::vector<WireOutcome> crowd =
      runPhase(socketPath, identityJobs, backendStr, identityClients);
  std::size_t identityMismatches = 0;
  for (std::size_t i = 0; i < identityJobs.size(); ++i) {
    const WireOutcome& a = lone[i];
    const WireOutcome& b = crowd[i];
    if (!a.ok || !b.ok) {
      fail("identity job " + identityJobs[i].name() + ": " +
           (!a.ok ? a.error : b.error));
      continue;
    }
    if (a.payload != b.payload) {
      ++identityMismatches;
      fail("identity: " + identityJobs[i].name() + " differs between 1 and " +
           std::to_string(identityClients) + " clients");
    }
    if (check && fnv1a64(a.payload) != oracleDigest(identityJobs[i], backend)) {
      fail("oracle: " + identityJobs[i].name() +
           " served result differs from in-process PortfolioRunner");
    }
    // Quality rows for bench_diff: deterministic cost/hpwl/area under the
    // serve name.  seconds stays 0 — latency is a machine fact, recorded in
    // the serve-meta rows instead, so the throughput gate sees these as
    // presence+quality only.
    if (i % identitySeeds == 0) {
      EngineBackend rb;
      EngineResult r;
      if (parseResultText(a.payload, rb, r).empty()) {
        io.add("serve-" + backendStr, identityJobs[i].circuit, r, 1);
      }
    }
  }
  std::printf("identity: %zu job(s) x {1, %zu} clients, %zu mismatch(es)\n",
              identityJobs.size(), identityClients, identityMismatches);

  // --- phase: throughput under duplicates -----------------------------------
  const std::size_t unique = std::max<std::size_t>(
      1, jobs - static_cast<std::size_t>(dupRatio *
                                         static_cast<double>(jobs)));
  std::vector<JobSpec> pool;
  for (std::size_t u = 0; u < unique; ++u) {
    const auto& [name, text] = circuits[u % circuits.size()];
    pool.push_back({name, text, 100 + u, sweeps, restarts});
  }
  std::vector<JobSpec> stream;
  for (std::size_t i = 0; i < jobs; ++i) stream.push_back(pool[i % unique]);

  ServeStats before{}, after{};
  if (!control.stats(before)) fail("STATS before throughput phase");
  Stopwatch phaseClock;
  std::vector<WireOutcome> streamResults =
      runPhase(socketPath, stream, backendStr, clients);
  double phaseSeconds = phaseClock.seconds();
  if (!control.stats(after)) fail("STATS after throughput phase");

  std::vector<double> latencies;
  for (std::size_t i = 0; i < streamResults.size(); ++i) {
    const WireOutcome& r = streamResults[i];
    if (!r.ok) {
      fail("throughput job " + std::to_string(i) + ": " +
           (r.rejected ? "rejected" : r.error));
      continue;
    }
    latencies.push_back(r.latencySec);
  }
  const std::uint64_t hits = after.cacheHits - before.cacheHits;
  const std::uint64_t misses = after.cacheMisses - before.cacheMisses;
  const double hitRate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double pmax = percentile(latencies, 1.0);
  const double jps = phaseSeconds > 0.0
                         ? static_cast<double>(latencies.size()) / phaseSeconds
                         : 0.0;
  std::printf("throughput: %zu job(s) (%zu unique) at %zu client(s) in "
              "%.3fs — %.1f jobs/s, latency p50 %.1fms p95 %.1fms max "
              "%.1fms, cache hits %llu / misses %llu (%.0f%% hit rate)\n",
              jobs, unique, clients, phaseSeconds, jps, p50 * 1e3, p95 * 1e3,
              pmax * 1e3, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hitRate * 100.0);
  if (check && jobs > unique && hits == 0) {
    fail("throughput: duplicate jobs produced no cache hits");
  }

  // --- phase: warm vs cold ---------------------------------------------------
  if (!control.flush()) fail("FLUSH before warm/cold phase");
  JobSpec warmJob{warmCircuit, warmText, 777, warmSweeps, restarts};
  ServeClient warmClient;
  double coldSec = 0.0, warmSec = 0.0, speedup = 0.0;
  if (!warmClient.connect(socketPath)) {
    fail("warm/cold: connect failed");
  } else {
    WireOutcome cold = warmClient.run(warmJob, backendStr);
    if (expect(cold, "miss", "warm/cold: cold run")) {
      coldSec = cold.latencySec;
      warmSec = cold.latencySec;  // min over warm resubmissions below
      bool identical = true;
      for (int rep = 0; rep < 5; ++rep) {
        WireOutcome warm = warmClient.run(warmJob, backendStr);
        if (!expect(warm, "hit", "warm/cold: resubmission")) {
          identical = false;
          break;
        }
        warmSec = std::min(warmSec, warm.latencySec);
        identical = identical && warm.payload == cold.payload;
      }
      if (!identical) {
        fail("warm/cold: cached payload differs from the cold compute");
      }
      speedup = warmSec > 0.0 ? coldSec / warmSec : 0.0;
      std::printf("warm/cold: %s cold %.1fms, warm %.3fms -> %.0fx\n",
                  warmCircuit.c_str(), coldSec * 1e3, warmSec * 1e3, speedup);
      if (check && speedup < 50.0) {
        fail("warm/cold: speedup " + std::to_string(speedup) +
             "x is below the 50x acceptance floor");
      }
    }
  }

  // --- phase: cancellation ---------------------------------------------------
  JobSpec cancelJob{warmCircuit, warmText, 888, cancelSweeps, restarts};
  JobSpec freshJob{circuits.front().first, circuits.front().second, 999,
                   sweeps, restarts};
  ServeClient cancelClient;
  std::size_t ackRounds = 0;
  if (!cancelClient.connect(socketPath)) {
    fail("cancel: connect failed");
  } else {
    WireOutcome cancelled = cancelClient.run(cancelJob, backendStr,
                                             /*cancelAfterRounds=*/2);
    if (expect(cancelled, "cancelled", "cancel: cancelled job")) {
      ackRounds = cancelled.progressAfterCancel;
      std::printf("cancel: acknowledged after %zu progress round(s) "
                  "(%zu total before RESULT)\n",
                  ackRounds, cancelled.progressTotal);
      // One round may already be in flight when CANCEL lands; the round
      // that observes the token still reports.  More than two means the
      // sweep-granular check is not being honored.
      if (check && ackRounds > 2) {
        fail("cancel: " + std::to_string(ackRounds) +
             " progress rounds after CANCEL (acceptance bound: 2)");
      }
    }
    WireOutcome fresh = cancelClient.run(freshJob, backendStr);
    if (expect(fresh, "miss", "cancel: fresh job after cancel") &&
        check && fnv1a64(fresh.payload) != oracleDigest(freshJob, backend)) {
      fail("cancel: post-cancel fresh job differs from an unperturbed "
           "process (worker state was perturbed by the cancel)");
    }
  }

  // --- phase: grammar (--check) ---------------------------------------------
  // Each malformed request draws its ERROR line, and the same connection
  // then still completes a job.  The refused-knob message is the library's
  // own (engine/knobs.h), so the daemon must relay it unchanged.
  if (check) {
    EngineOptions shaped;
    shaped.shapeMoveProb = 0.5;
    const WireOpt shape[] = {{"shape", "0.5"}};
    const WireOpt badDeadline[] = {{"deadline-ms", "-5"}};
    std::string refusedJob, noCircuitJob, badDeadlineJob;
    appendJobBlock(refusedJob, "g1", "seqpair", shape, freshJob.text);
    appendJobBlock(noCircuitJob, "g2", backendStr, {}, std::nullopt);
    appendJobBlock(badDeadlineJob, "g3", backendStr, badDeadline,
                   freshJob.text);
    const std::pair<std::string, std::string> probes[] = {
        {refusedJob, refusal(EngineBackend::SeqPair, shaped)},
        {noCircuitJob, "JOB block has no CIRCUIT"},
        {badDeadlineJob, "bad OPT deadline-ms: nonnegative integer"},
        {"FROB\n", "unknown command"}};
    ServeClient g;
    if (!g.connect(socketPath)) fail("grammar: connect failed");
    std::size_t answered = 0;
    for (const auto& [request, expect] : probes) {
      const WireOutcome answer = g.send(request, "?");
      if (answer.error == expect) {
        ++answered;
      } else {
        fail("grammar: answered '" +
             (answer.ok ? answer.status : answer.error) +
             "', expected ERROR '" + expect + "'");
      }
      if (!g.run(freshJob, backendStr).ok) {
        fail("grammar: no job completes after ERROR '" + expect + "'");
      }
    }
    std::printf("grammar: %zu of %zu malformed request(s) answered their "
                "ERROR on one connection\n",
                answered, std::size(probes));
  }

  // --- meta records + teardown ----------------------------------------------
  auto meta = [&](const char* name, double value) {
    BenchRecord r;
    r.backend = "serve-meta";
    r.circuit = name;
    r.seconds = value;  // metric value; cost/sweeps stay 0 (presence-only)
    io.add(std::move(r));
  };
  meta("latency-p50", p50);
  meta("latency-p95", p95);
  meta("latency-max", pmax);
  meta("throughput-jps", jps);
  meta("hit-rate", hitRate);
  meta("warm-cold-speedup", speedup);
  meta("cancel-ack-rounds", static_cast<double>(ackRounds));

  if (daemonPid > 0) {
    stopDaemon(control, daemonPid, "");
    std::error_code ec;
    std::filesystem::remove_all(tmpDir, ec);
  }

  return verdict("als_replay");
}
