// The service workload, driven through the als_serve daemon over its socket
// ("ALSSERVE 1", io/serve_protocol.h): serve-mixed, open-loop Poisson
// arrivals of restart and tempering jobs, a fifth of them repeats of keys
// computed in a closed-loop warm-up — the compute-and-store path.
//
// Traced runs add client-side spans around every request, and drive an
// in-process ServeEngine on the same warm-up and schedule to split latency
// into queue wait and compute, then time the hit path without the socket.
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "runtime/portfolio.h"
#include "runtime/serve.h"
#include "runtime/tempering.h"
#include "util/rng.h"

namespace alsbench {

namespace {

using als::CorpusCircuit;
namespace fs = std::filesystem;

// --------------------------------------------------------- socket client --

bool sendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int connectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Buffered protocol reader over one connection.
class Reader {
 public:
  explicit Reader(int fd) : fd_(fd) {}

  bool readLine(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buffer_, pos_, nl - pos_);
        pos_ = nl + 1;
        compact();
        return true;
      }
      if (!fill()) return false;
    }
  }

  bool readExact(std::size_t n, std::string& out) {
    while (buffer_.size() - pos_ < n) {
      if (!fill()) return false;
    }
    out.assign(buffer_, pos_, n);
    pos_ += n;
    compact();
    return true;
  }

 private:
  bool fill() {
    char chunk[65536];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  void compact() {
    if (pos_ > (1u << 16)) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
  }

  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
};

/// One client connection: the fd, its reader, closed on destruction.
struct Connection {
  explicit Connection(int fd) : fd(fd), reader(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  Reader reader;
};

std::vector<std::string_view> words(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t j = std::min(line.find(' ', i), line.size());
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j + 1;
  }
  return out;
}

/// STATS reply as (submitted, completed, hits, misses, cancelled, rejected).
struct WireStats {
  std::uint64_t v[10] = {};
  std::uint64_t hits() const { return v[2]; }
  std::uint64_t misses() const { return v[3]; }
  std::uint64_t rejected() const { return v[5]; }
};

bool queryStats(Connection& conn, WireStats& out) {
  if (!sendAll(conn.fd, "STATS\n")) return false;
  std::string line;
  if (!conn.reader.readLine(line)) return false;
  const std::vector<std::string_view> w = words(line);
  if (w.size() != 11 || w[0] != "STATS") return false;
  for (std::size_t i = 0; i < 10; ++i) {
    out.v[i] = std::strtoull(std::string(w[i + 1]).c_str(), nullptr, 10);
  }
  return true;
}

// ---------------------------------------------------------------- daemon --

/// One als_serve process.  The destructor kills and reaps a daemon that was
/// not shut down cleanly, so no error path leaves a process behind.
class Daemon {
 public:
  Daemon(const RunConfig& cfg, const std::string& socketPath,
         const std::string& cacheDir, std::size_t workers)
      : socket_(socketPath) {
    const std::string log = cfg.workDir + "/als_serve.log";
    const std::string w = std::to_string(workers);
    std::vector<std::string> args = {cfg.serveBin, "--socket",   socketPath,
                                     "--workers",  w,            "--queue",
                                     "1024",       "--cache-dir", cacheDir};
    ::unlink(socketPath.c_str());
    start_ = Tracer::global().now();
    pid_ = ::fork();
    if (pid_ == 0) {
      const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (out >= 0) {
        ::dup2(out, 1);
        ::dup2(out, 2);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(cfg.serveBin.c_str(), argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Polls until the daemon answers a STATS request; returns that first
  /// connection (null on timeout or when the daemon died) and sets
  /// `setupSeconds` to the time from spawn to the answer.  A bare connect
  /// is not enough: als_serve listens before it scrubs its store, and the
  /// kernel completes connects on a listening socket before any accept().
  std::unique_ptr<Connection> waitAccepting(double& setupSeconds) {
    if (pid_ <= 0) return nullptr;
    for (int i = 0; i < 100000; ++i) {
      const int fd = connectUnix(socket_);
      if (fd >= 0) {
        auto conn = std::make_unique<Connection>(fd);
        WireStats stats;
        if (!queryStats(*conn, stats)) return nullptr;
        setupSeconds = Tracer::global().now() - start_;
        return conn;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return nullptr;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return nullptr;
  }

  int pid() const { return pid_; }

  /// SHUTDOWN over `control`, then reap; true when the daemon said BYE and
  /// exited with status 0.
  bool shutdown(Connection& control) {
    std::string line;
    const bool bye = sendAll(control.fd, "SHUTDOWN\n") &&
                     control.reader.readLine(line) && line == "BYE";
    int status = 0;
    const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
    pid_ = -1;
    return bye && reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  int pid_ = -1;
  double start_ = 0.0;
};

// ------------------------------------------------------------------ jobs --

struct ServeCircuit {
  CorpusCircuit which;
  std::size_t sweeps;  ///< total sweep budget of one job
  double tau;          ///< target: cost <= tau * module area
};

// Budgets give every circuit about the same compute per job (~40-60 ms on
// one core of a 4-vCPU Xeon), so computed-job latency is one mode, not six.
// Targets: the largest best-cost/area of any reply over ten calibration
// runs, plus 20%, rounded up to a tenth.
const ServeCircuit kServeCircuits[] = {
    {CorpusCircuit::Apte, 160, 4.3},   {CorpusCircuit::Xerox, 160, 3.5},
    {CorpusCircuit::Hp, 160, 5.2},     {CorpusCircuit::Ami33, 24, 16.1},
    {CorpusCircuit::Ami49, 12, 16.4},  {CorpusCircuit::N100, 4, 71.0},
};
constexpr std::size_t kServeCircuitCount =
    sizeof kServeCircuits / sizeof kServeCircuits[0];

struct JobKey {
  std::size_t circuit = 0;  ///< index into kServeCircuits
  EngineBackend backend = EngineBackend::FlatBStar;
  std::size_t sweeps = 0;
  std::size_t restarts = 1;
  std::size_t movesPerTemp = 0;
  bool tempering = false;
  std::uint64_t seed = 1;
};

als::EngineOptions optionsOf(const JobKey& k) {
  als::EngineOptions o;
  o.maxSweeps = k.sweeps;
  o.numRestarts = k.restarts;
  o.movesPerTemp = k.movesPerTemp;
  o.tempering = k.tempering;
  o.seed = k.seed;
  return o;
}

std::string jobBlock(const std::string& tag, const JobKey& k,
                     std::string_view text) {
  std::string msg = "JOB " + tag + " " + std::string(als::backendName(k.backend)) +
                    "\nOPT sweeps " + std::to_string(k.sweeps) +
                    "\nOPT restarts " + std::to_string(k.restarts) +
                    "\nOPT seed " + std::to_string(k.seed) + "\n";
  if (k.movesPerTemp != 0) msg += "OPT mpt " + std::to_string(k.movesPerTemp) + "\n";
  if (k.tempering) msg += "OPT tempering 1\n";
  msg += "CIRCUIT " + std::to_string(text.size()) + "\n";
  msg += text;
  msg += "END\n";
  return msg;
}

/// The in-process oracle: what an unperturbed process computes for the key,
/// as ALSRESULT text.
std::string recompute(const Circuit& circuit, const JobKey& k) {
  als::EngineOptions o = optionsOf(k);
  o.numThreads = 1;
  als::EngineResult r;
  if (k.tempering) {
    r = als::TemperingRunner().run(circuit, k.backend, o).result;
  } else {
    r = als::PortfolioRunner().run(circuit, k.backend, o);
  }
  std::string text;
  als::writeResultText(k.backend, r, text);
  return text;
}

/// Everything the harness knows about the serve circuits.
struct Corpus {
  std::vector<std::string_view> text;
  std::vector<Circuit> circuit;
  std::vector<std::vector<std::vector<std::size_t>>> netPins;
  Corpus() {
    for (const ServeCircuit& c : kServeCircuits) {
      text.push_back(als::corpusText(c.which));
      circuit.push_back(als::loadCorpusCircuit(c.which));
      netPins.push_back(circuit.back().netPins());
    }
  }
};

/// One reply as the client saw it.
struct Reply {
  bool queued = false;
  bool done = false;
  bool rejected = false;
  std::string error;
  std::string status;  ///< hit | miss | cancelled | deadline
  std::string keyHex;
  std::string payload;
  double sent = 0.0;   ///< actual send time
  double acked = 0.0;  ///< QUEUED received
  double finished = 0.0;
};

/// Reads replies on one connection until `expected` jobs have a terminal
/// line (RESULT, REJECTED or ERROR) or the connection closes.  Tags are
/// "<prefix><index>" into `replies`.
void readReplies(Connection& conn, std::vector<Reply>& replies,
                 std::size_t expected) {
  std::string line;
  std::size_t terminal = 0;
  while (terminal < expected && conn.reader.readLine(line)) {
    const double now = Tracer::global().now();
    const std::vector<std::string_view> w = words(line);
    if (w.size() < 2) continue;
    const std::size_t index =
        std::strtoull(std::string(w[1].substr(1)).c_str(), nullptr, 10);
    if (index >= replies.size()) return;
    Reply& r = replies[index];
    if (w[0] == "QUEUED" && w.size() >= 3) {
      r.queued = true;
      r.acked = now;
      r.keyHex = std::string(w[2]);
    } else if (w[0] == "RESULT" && w.size() >= 4) {
      r.status = std::string(w[2]);
      const std::size_t nbytes =
          std::strtoull(std::string(w[3]).c_str(), nullptr, 10);
      std::string done;
      if (!conn.reader.readExact(nbytes, r.payload) ||
          !conn.reader.readLine(done)) {
        return;
      }
      r.finished = Tracer::global().now();
      r.done = true;
      ++terminal;
    } else if (w[0] == "REJECTED") {
      r.rejected = true;
      ++terminal;
    } else if (w[0] == "ERROR") {
      r.error = line;
      ++terminal;
    }
  }
}

/// Checks one RESULT: parses, passes the legality postcondition and meets
/// the target.  Returns an empty string when it does.
std::string checkReply(const Corpus& corpus, const JobKey& k, const Reply& r,
                       double tau, Quality* quality) {
  if (!r.error.empty()) return "daemon error: " + r.error;
  if (r.rejected) return "rejected";
  if (!r.done) return "no RESULT";
  EngineBackend backend = EngineBackend::FlatBStar;
  EngineResult result;
  const std::string err = als::parseResultText(r.payload, backend, result);
  if (!err.empty()) return "RESULT does not parse: " + err;
  if (backend != k.backend) return "RESULT names another backend";
  const Circuit& circuit = corpus.circuit[k.circuit];
  const std::string why =
      checkPlacement(circuit, corpus.netPins[k.circuit], backend, result);
  if (!why.empty()) return why;
  const double ratio = result.cost / static_cast<double>(circuit.totalModuleArea());
  if (quality != nullptr) *quality = qualityOf(circuit, result);
  if (ratio > tau) return fmt("missed its target (cost/area %.3f > %.3f)", ratio, tau);
  return {};
}

std::size_t servingWorkers(const RunConfig& cfg) {
  return std::clamp<std::size_t>(cfg.nproc - 1, 1, 3);
}

// ---------------------------------------------------------- serve-mixed --

// Offered load of the open loop: 15 jobs/s against 3 workers whose jobs
// compute in ~50 ms is ~25% worker utilisation, where queueing still leaves
// the latency percentiles steady.  A run sends ~15 * seconds jobs, a fifth
// of them repeats, so a 20-second run computes ~240.
constexpr double kMixedRate = 15.0;
constexpr std::size_t kWarmupJobs = 192;
// Latency limit of slo_attainment: three times the median compute time.
constexpr double kSloMs = 150.0;

/// The m-th job of the fixed mix: circuits and backends cycle, three in ten
/// are tempering jobs; only the anneal seed is random.  A fixed mix keeps
/// the quality geomeans and the compute-time distribution the same from
/// one workload seed to the next.
JobKey mixedJob(std::size_t m, als::Rng& rng) {
  JobKey k;
  k.circuit = m % kServeCircuitCount;
  k.backend = als::allBackends()[(m / kServeCircuitCount) % als::allBackends().size()];
  k.sweeps = kServeCircuits[k.circuit].sweeps;
  k.restarts = 2;
  k.tempering = m % 10 < 3;
  k.seed = rng.engine()();
  return k;
}

struct Scheduled {
  JobKey key;
  double at = 0.0;      ///< seconds after the schedule start
  bool repeat = false;  ///< drawn from the warm-up pool: must hit
};

/// Runs `jobs` closed-loop over `clients` connections (one job in flight per
/// connection).  Returns the wall time.
double closedLoop(const std::string& socketPath, const Corpus& corpus,
                  const std::vector<JobKey>& jobs, std::vector<Reply>& replies,
                  std::size_t clients, const char* prefix) {
  replies.assign(jobs.size(), Reply{});
  const double t0 = Tracer::global().now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = connectUnix(socketPath);
      if (fd < 0) return;
      Connection conn(fd);
      for (std::size_t i = c; i < jobs.size(); i += clients) {
        Span request("serve.request", i + 1);
        replies[i].sent = Tracer::global().now();
        if (!sendAll(fd, jobBlock(prefix + std::to_string(i), jobs[i],
                                  corpus.text[jobs[i].circuit]))) {
          return;
        }
        readReplies(conn, replies, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return Tracer::global().now() - t0;
}

}  // namespace

void runServeMixed(const RunConfig& cfg, Report& report) {
  const Corpus corpus;
  const std::size_t workers = servingWorkers(cfg);
  const std::size_t clients = workers;
  const std::string socketPath = cfg.workDir + "/mixed.sock";
  const std::string cacheDir = cfg.workDir + "/mixed-cache";
  std::error_code ec;
  fs::remove_all(cacheDir, ec);
  fs::create_directories(cacheDir, ec);

  // ---- schedule: warm-up pool, then open-loop arrivals ----
  // A fixed number of arrivals, Poisson-spaced and scaled to fill the run;
  // every fifth is a repeat of a warm-up key (a stride through the pool),
  // the rest are new keys of the fixed mix.
  als::Rng rng(mixSeed(cfg.seed, 200));
  std::vector<JobKey> warmup;
  for (std::size_t i = 0; i < kWarmupJobs; ++i) warmup.push_back(mixedJob(i, rng));
  const std::size_t arrivals = static_cast<std::size_t>(kMixedRate * cfg.seconds);
  std::vector<double> gaps;
  double span = 0.0;
  for (std::size_t i = 0; i <= arrivals; ++i) {
    gaps.push_back(-std::log(1.0 - rng.uniform()));
    span += gaps.back();
  }
  std::vector<Scheduled> schedule(arrivals);
  double t = 0.0;
  for (std::size_t i = 0, fresh = 0; i < arrivals; ++i) {
    t += gaps[i] * cfg.seconds / span;
    Scheduled& s = schedule[i];
    s.at = t;
    s.repeat = i % 5 == 4;
    s.key = s.repeat ? warmup[(i / 5 * 7) % warmup.size()] : mixedJob(fresh++, rng);
  }

  // ---- set-up: spawn until the daemon answers, median of nine ----
  // A spawn takes a few milliseconds and host speed shifts in phases of
  // seconds, so the samples come in three groups: before the warm-up,
  // before the open loop and after it.  Every sample starts a daemon on an
  // empty store; all but the one that serves the run are shut down again.
  std::vector<double> setupS;
  const std::string sampleDir = cfg.workDir + "/setup-cache";
  const std::string sampleSocket = cfg.workDir + "/setup.sock";
  auto sampleSetUp = [&](int samples) {
    for (int i = 0; i < samples; ++i) {
      fs::remove_all(sampleDir, ec);
      fs::create_directories(sampleDir, ec);
      Daemon sample(cfg, sampleSocket, sampleDir, workers);
      double s = 0.0;
      std::unique_ptr<Connection> c = sample.waitAccepting(s);
      if (c == nullptr || !sample.shutdown(*c)) {
        report.fail("serve-mixed: set-up sample daemon failed");
        return;
      }
      setupS.push_back(s);
    }
  };
  sampleSetUp(2);
  auto daemon = std::make_unique<Daemon>(cfg, socketPath, cacheDir, workers);
  std::unique_ptr<Connection> control;
  {
    double s = 0.0;
    control = daemon->waitAccepting(s);
    if (control == nullptr) {
      report.fail("serve-mixed: daemon did not start");
      return;
    }
    setupS.push_back(s);
  }

  // ---- warm-up: compute the repeat pool closed-loop ----
  std::vector<Reply> warmReplies;
  const double warmWall =
      closedLoop(socketPath, corpus, warmup, warmReplies, clients, "w");
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    ++report.attempted;
    const std::string why = checkReply(corpus, warmup[i], warmReplies[i],
                                       kServeCircuits[warmup[i].circuit].tau, nullptr);
    if (!why.empty()) report.fail("serve-mixed warm-up job " + std::to_string(i) + ": " + why);
  }
  sampleSetUp(3);

  WireStats before, after;
  if (!queryStats(*control, before)) report.fail("serve-mixed: STATS failed");

  // ---- open loop ----
  std::vector<Reply> replies(schedule.size());
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < clients; ++c) {
    const int fd = connectUnix(socketPath);
    if (fd < 0) {
      report.fail("serve-mixed: connect failed");
      return;
    }
    conns.push_back(std::make_unique<Connection>(fd));
  }
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < clients; ++c) {
    std::size_t expected = 0;
    for (std::size_t i = c; i < schedule.size(); i += clients) ++expected;
    readers.emplace_back([&, c, expected] { readReplies(*conns[c], replies, expected); });
  }
  const double start = Tracer::global().now() + 0.05;
  {
    Span sender("serve.open_loop", 0);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const double due = start + schedule[i].at;
      while (Tracer::global().now() < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, due - Tracer::global().now() - 0.0002)));
      }
      Span send("serve.send", i + 1);
      replies[i].sent = Tracer::global().now();
      const std::string block = jobBlock("m" + std::to_string(i), schedule[i].key,
                                         corpus.text[schedule[i].key.circuit]);
      if (!sendAll(conns[i % clients]->fd, block)) {
        report.fail("serve-mixed: send failed");
        break;
      }
    }
  }
  for (std::thread& t : readers) t.join();
  if (!queryStats(*control, after)) report.fail("serve-mixed: STATS failed");
  const double daemonRss = peakRssMb(daemon->pid());
  if (!daemon->shutdown(*control)) {
    report.fail("serve-mixed: daemon did not shut down cleanly");
  }
  conns.clear();
  sampleSetUp(3);

  // ---- checks and metrics, outside the timed window ----
  std::vector<double> missMs, lateMs, ackUs;
  std::vector<Quality> quality;
  double ttt = 0.0;
  std::size_t withinSlo = 0, hits = 0, misses = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Scheduled& s = schedule[i];
    const Reply& r = replies[i];
    ++report.attempted;
    Quality q;
    std::string why = checkReply(corpus, s.key, r, kServeCircuits[s.key.circuit].tau, &q);
    if (why.empty() && r.status != (s.repeat ? "hit" : "miss")) {
      why = "status " + r.status + ", expected " + (s.repeat ? "hit" : "miss");
    }
    lateMs.push_back((r.sent - (start + s.at)) * 1e3);
    if (!why.empty()) {
      report.fail("serve-mixed job " + std::to_string(i) + ": " + why);
      continue;
    }
    const double latency = r.finished - (start + s.at);
    if (Tracer::global().enabled()) {
      Tracer& tr = Tracer::global();
      const std::uint64_t id = tr.nextId();
      tr.add({"serve.job", id, 0, i + 1, start + s.at, r.finished});
      tr.add({"serve.submit_ack", tr.nextId(), id, i + 1, r.sent, r.acked});
    }
    quality.push_back(q);
    ackUs.push_back((r.acked - r.sent) * 1e6);
    if (latency * 1e3 <= kSloMs) ++withinSlo;
    if (s.repeat) {
      ++hits;
    } else {
      ++misses;
      missMs.push_back(latency * 1e3);
      ttt += latency;
    }
  }
  // A seeded subset, recomputed in-process, must match byte for byte.
  for (std::size_t n = 0, i = rng.index(schedule.size()); n < 4;
       ++n, i = (i + schedule.size() / 4 + 1) % schedule.size()) {
    const JobKey& k = schedule[i].key;
    if (replies[i].done && replies[i].payload != recompute(corpus.circuit[k.circuit], k)) {
      report.fail("serve-mixed job " + std::to_string(i) +
                  ": served result differs from the in-process recompute");
    }
  }
  if (after.hits() - before.hits() != hits || after.misses() - before.misses() != misses ||
      after.rejected() != before.rejected()) {
    report.fail("serve-mixed: STATS deltas disagree with the replies");
  }

  report.count("serve-mixed.jobs", schedule.size());
  report.count("serve-mixed.hits", after.hits() - before.hits());
  report.count("serve-mixed.misses", after.misses() - before.misses());
  report.count("serve-mixed.rejected", after.rejected() - before.rejected());
  report.count("serve-mixed.warmup_jobs", warmup.size());
  report.note(fmt("serve-mixed offered %.1f jobs/s over %.1f s; %.0f computed-job "
                  "latency samples; %.0f workers",
                  kMixedRate, cfg.seconds, static_cast<double>(missMs.size()),
                  static_cast<double>(workers)));
  report.note(fmt("serve-mixed generator lateness ms p50 %.3f p90 %.3f p99 %.3f max %.3f",
                  percentile(lateMs, 0.5), percentile(lateMs, 0.9),
                  percentile(lateMs, 0.99), percentile(lateMs, 1.0)));
  report.metric("setup_s", median(setupS), "s");
  report.metric("solve_s", warmWall, "s");
  report.metric("time_to_target_s", ttt, "s");
  reportQuality(report, quality);
  report.metric("latency_p50_ms", percentile(missMs, 0.5), "ms");
  report.metric("latency_p90_ms", percentile(missMs, 0.9), "ms");
  report.metric("slo_attainment",
                static_cast<double>(withinSlo) / static_cast<double>(schedule.size()),
                "fraction", Better::Higher);
  report.metric("jobs_per_s", static_cast<double>(warmup.size()) / warmWall, "jobs/s",
                Better::Higher);
  report.metric("peak_rss_mb", daemonRss, "MB");

  if (!cfg.trace) return;
  report.layer("serve.submit_ack_us.p50", percentile(ackUs, 0.5), "us");
  report.layer("serve.hits", static_cast<double>(after.hits() - before.hits()), "count",
               Better::Higher);
  report.layer("serve.misses", static_cast<double>(after.misses() - before.misses()),
               "count");
  report.layer("serve.rejected",
               static_cast<double>(after.rejected() - before.rejected()), "count");

  // In-process engine on the same warm-up and schedule: queue wait and
  // compute per computed job, straight from the engine's own clocks.
  {
    const std::string dir = cfg.workDir + "/mixed-inproc";
    fs::remove_all(dir, ec);
    als::ServeOptions so;
    so.workers = workers;
    so.queueCapacity = 1024;
    so.cacheDir = dir;
    als::ServeEngine engine(so);
    std::mutex m;
    std::condition_variable cv;
    std::size_t done = 0;
    std::vector<double> waitMs, computeMs, hitUs;
    enum class Phase { Warmup, Timed, Hit };
    auto submit = [&](const JobKey& k, Phase phase) {
      als::ServeEngine::Job job;
      job.circuitText = std::string(corpus.text[k.circuit]);
      job.backend = k.backend;
      job.options = optionsOf(k);
      job.onDone = [&, phase](const als::ServeEngine::JobOutcome& o) {
        std::lock_guard<std::mutex> lock(m);
        if (phase == Phase::Timed && !o.cacheHit && o.result != nullptr) {
          computeMs.push_back(o.result->seconds * 1e3);
          waitMs.push_back((o.latencySeconds - o.result->seconds) * 1e3);
        } else if (phase == Phase::Hit && o.cacheHit) {
          hitUs.push_back(o.latencySeconds * 1e6);
        }
        ++done;
        cv.notify_all();
      };
      if (!engine.submit(std::move(job)).accepted) {
        std::lock_guard<std::mutex> lock(m);
        ++done;
        report.fail("serve-mixed in-process: submit rejected");
      }
    };
    auto waitFor = [&](std::size_t n) {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done == n; });
    };
    for (const JobKey& k : warmup) submit(k, Phase::Warmup);
    waitFor(warmup.size());
    const double t0 = Tracer::global().now() + 0.05;
    for (const Scheduled& s : schedule) {
      while (Tracer::global().now() < t0 + s.at) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, t0 + s.at - Tracer::global().now() - 0.0002)));
      }
      Span span("serve.ServeEngine.submit", 0);
      submit(s.key, Phase::Timed);
    }
    waitFor(warmup.size() + schedule.size());
    // The hit path without the socket or a queue: every warm-up key once
    // more, one at a time.
    for (std::size_t i = 0; i < warmup.size(); ++i) {
      Span span("serve.ServeEngine.hit", 0);
      submit(warmup[i], Phase::Hit);
      waitFor(warmup.size() + schedule.size() + i + 1);
    }
    engine.shutdown();
    if (hitUs.size() != warmup.size()) report.fail("serve-mixed in-process: a resubmit missed");
    report.layer("serve.hit_us.p50", percentile(hitUs, 0.5), "us");
    report.layer("serve.queue_wait_ms.p50", percentile(waitMs, 0.5), "ms");
    report.layer("serve.queue_wait_ms.p90", percentile(waitMs, 0.9), "ms");
    report.layer("serve.compute_ms.p50", percentile(computeMs, 0.5), "ms");
    report.layer("serve.compute_ms.p90", percentile(computeMs, 0.9), "ms");
  }
  runLayerProbes(cfg, report);
}

}  // namespace alsbench
