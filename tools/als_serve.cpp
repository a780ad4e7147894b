// als_serve — placement-as-a-service daemon over a local stream socket.
//
// Thin socket front-end for the in-process serve engine (runtime/serve.h):
// accepts connections on an AF_UNIX socket, speaks the line-delimited
// "ALSSERVE 1" protocol documented in io/serve_protocol.h, and forwards
// jobs into a ServeEngine whose worker crew executes them against the
// content-addressed result cache.  Everything placement-related — admission
// control, scheduling, cancellation, caching, the bit-identity guarantees —
// lives in the library; this file is sockets, framing and thread plumbing
// only, so tests/serve_test.cpp can pin the engine without a socket in the
// loop and tools/als_replay can drive this binary end to end.
//
//   als_serve --socket /tmp/als.sock --workers 4 --cache-dir /tmp/als-cache
//
// One handler thread per connection; a per-connection write mutex keeps the
// worker threads' PROGRESS/RESULT lines and the handler's QUEUED/STATS
// replies whole (the protocol is tagged, so interleaving across jobs is
// fine — interleaving within a line is not).  SHUTDOWN drains every
// accepted job before the process exits, so a client that saw QUEUED
// always sees its RESULT.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/knobs.h"
#include "runtime/serve.h"
#include "util/fault_injection.h"

namespace {

using namespace als;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket <path> [options]\n"
               "  --socket <path>        AF_UNIX socket path (required; a stale\n"
               "                         file at the path is replaced)\n"
               "  --workers <n>          job-executing threads (default 2)\n"
               "  --queue <n>            job slots, pending+running; submissions\n"
               "                         beyond it are REJECTED (default 16)\n"
               "  --progress-interval <n> sweeps per restart slice between\n"
               "                         PROGRESS events (default 32)\n"
               "  --cache-dir <dir>      persisted result store (default: memory\n"
               "                         only)\n"
               "  --cache-cap <n>        result cache size cap, memory+disk\n"
               "                         entries (default 0 = unbounded)\n"
               "  --faults <spec>        arm deterministic fault injection on the\n"
               "                         store path (util/fault_injection.h —\n"
               "                         chaos testing only)\n"
               "protocol: see src/io/serve_protocol.h (\"ALSSERVE 1\")\n",
               argv0);
  return 2;
}

bool parseNum(const char* s, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

std::atomic<bool> g_stop{false};
int g_listenFd = -1;

/// One client connection.  Shared between the handler thread and any worker
/// threads still holding this connection's job callbacks, so it lives as a
/// shared_ptr and closes its fd only when the last holder lets go.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::mutex writeMutex;  ///< one protocol line/block at a time
  std::mutex tagMutex;
  std::unordered_map<std::string, std::uint64_t> tags;  ///< live tag -> job id
};

/// Writes the whole buffer; the caller must hold `writeMutex`.  Retries
/// EINTR and short writes — a tagged reply is delivered whole or not at
/// all, never a prefix followed by a give-up under load.  Errors (client
/// went away) are swallowed: the job finishes either way, and SIGPIPE is
/// ignored process-wide.
void writeAllLocked(Connection& conn, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::write(conn.fd, data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Locking wrapper: one protocol line/block at a time.
void writeAll(Connection& conn, const std::string& data) {
  std::lock_guard<std::mutex> lock(conn.writeMutex);
  writeAllLocked(conn, data);
}

/// Buffered reader over the connection fd: lines for the protocol, exact
/// byte counts for CIRCUIT payloads.
class Reader {
 public:
  explicit Reader(int fd) : fd_(fd) {}

  bool readLine(std::string& line) {
    line.clear();
    for (;;) {
      std::size_t nl = buffer_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buffer_, pos_, nl - pos_);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        pos_ = nl + 1;
        compact();
        return true;
      }
      if (!fill()) return false;
    }
  }

  bool readExact(std::size_t n, std::string& out) {
    out.clear();
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
    } while (n < 0 && errno == EINTR);  // a signal is not an EOF
    if (n <= 0) return false;  // EOF or real error: connection is done
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  void compact() {
    if (pos_ > (1u << 20)) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
  }

  int fd_;
  std::string buffer_;
  std::size_t pos_ = 0;
};

std::string_view nextToken(std::string_view& rest) {
  std::size_t a = rest.find_first_not_of(" \t");
  if (a == std::string_view::npos) {
    rest = {};
    return {};
  }
  std::size_t b = rest.find_first_of(" \t", a);
  std::string_view token = rest.substr(a, b == std::string_view::npos
                                              ? std::string_view::npos
                                              : b - a);
  rest = b == std::string_view::npos ? std::string_view{} : rest.substr(b);
  return token;
}

void appendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Parses one JOB block (the JOB line is already consumed and split) and
/// submits it.  Framing errors abort the connection (return false) — after
/// a mis-framed CIRCUIT the stream position is unrecoverable; semantic
/// errors (unknown backend/OPT, a knob the backend refuses) are reported
/// as ERROR lines and keep the connection usable.
bool handleJob(ServeEngine& engine, const std::shared_ptr<Connection>& conn,
               Reader& reader, std::string_view tag,
               std::string_view backendWord) {
  std::string tagStr(tag);
  EngineBackend backend = EngineBackend::FlatBStar;
  std::string semanticError;
  if (!parseBackendName(backendWord, backend)) {
    semanticError = "unknown backend '" + std::string(backendWord) + "'";
  }

  EngineOptions options;
  double deadlineSeconds = 0.0;
  std::uint64_t deadlineSweeps = 0;
  std::string line, circuitText;
  bool sawCircuit = false;
  for (;;) {
    if (!reader.readLine(line)) return false;
    std::string_view rest = line;
    std::string_view word = nextToken(rest);
    if (word == "END") break;
    if (word == "OPT") {
      std::string_view key = nextToken(rest);
      std::string_view value = nextToken(rest);
      // Deadlines are serve-layer knobs, not EngineOptions: they bound
      // whether a run finishes, never what a finished run produces, so they
      // stay out of applyJobOption and out of the cache key.
      if (key == "deadline-ms" || key == "deadline-sweeps") {
        std::uint64_t n = 0;
        if (!parseNum(std::string(value).c_str(), &n)) {
          if (semanticError.empty()) {
            semanticError =
                "bad OPT " + std::string(key) + ": nonnegative integer";
          }
        } else if (key == "deadline-ms") {
          deadlineSeconds = static_cast<double>(n) / 1000.0;
        } else {
          deadlineSweeps = n;
        }
      } else if (semanticError.empty()) {
        semanticError = applyJobOption(options, key, value);
      }
    } else if (word == "CIRCUIT") {
      std::uint64_t nbytes = 0;
      std::string count(nextToken(rest));
      // 64 MiB cap: a framing typo must not become an allocation bomb.
      if (!parseNum(count.c_str(), &nbytes) || nbytes > (64u << 20)) {
        return false;
      }
      if (!reader.readExact(static_cast<std::size_t>(nbytes), circuitText)) {
        return false;
      }
      sawCircuit = true;
    } else {
      return false;  // not part of a JOB block: framing is broken
    }
  }
  if (semanticError.empty() && !sawCircuit) {
    semanticError = "JOB block has no CIRCUIT";
  }
  const Knob* refused = refusedKnob(backend, options);
  if (semanticError.empty() && refused != nullptr) {
    semanticError = "OPT " + std::string(refused->wire) + " is refused by " +
                    std::string(backendName(backend)) +
                    ": it has neither the term nor its guarantee";
  }
  if (!semanticError.empty()) {
    writeAll(*conn, "ERROR " + tagStr + " " + semanticError + "\n");
    return true;
  }

  ServeEngine::Job job;
  job.circuitText = std::move(circuitText);
  job.backend = backend;
  job.options = options;
  job.deadlineSeconds = deadlineSeconds;
  job.deadlineSweeps = static_cast<std::size_t>(deadlineSweeps);
  job.onProgress = [conn, tagStr](std::size_t round, std::size_t sweeps,
                                  double best) {
    std::string out = "PROGRESS " + tagStr + " " + std::to_string(round) +
                      " " + std::to_string(sweeps) + " ";
    appendDouble(out, best);
    out += "\n";
    writeAll(*conn, out);
  };
  job.onDone = [conn, tagStr](const ServeEngine::JobOutcome& outcome) {
    {
      std::lock_guard<std::mutex> lock(conn->tagMutex);
      conn->tags.erase(tagStr);
    }
    if (!outcome.error.empty()) {
      writeAll(*conn, "ERROR " + tagStr + " " + outcome.error + "\n");
      return;
    }
    const char* status = outcome.cacheHit          ? "hit"
                         : outcome.deadlineExpired ? "deadline"
                         : outcome.cancelled       ? "cancelled"
                                                   : "miss";
    std::string payload;
    writeResultText(outcome.backend, *outcome.result, payload);
    std::string out = "RESULT " + tagStr + " " + status + " " +
                      std::to_string(payload.size()) + "\n";
    out += payload;
    out += "DONE " + tagStr + "\n";
    writeAll(*conn, out);
    // Chaos-test crash window: the client HAS its RESULT, the daemon dies
    // before anything else happens — restart recovery must serve the same
    // bytes from the durable store.
    FaultInjector::global().onCrashPoint("serve-after-result");
  };

  // Submit while holding the write mutex so the QUEUED line reaches the
  // client before any PROGRESS a fast worker might already be emitting
  // (callbacks also take the write mutex, on worker threads, so there is no
  // self-deadlock).  The tag is registered before QUEUED is visible, so a
  // CANCEL sent in response to QUEUED always finds its job.
  std::unique_lock<std::mutex> writeLock(conn->writeMutex);
  ServeEngine::Submission sub = engine.submit(std::move(job));
  std::string reply;
  if (sub.accepted) {
    {
      std::lock_guard<std::mutex> lock(conn->tagMutex);
      conn->tags[tagStr] = sub.id;
    }
    reply = "QUEUED " + tagStr + " " + sub.key.hex() + "\n";
  } else {
    reply = "REJECTED " + tagStr + " queue-full\n";
  }
  writeAllLocked(*conn, reply);
  return true;
}

void handleConnection(ServeEngine& engine, std::shared_ptr<Connection> conn) {
  Reader reader(conn->fd);
  std::string line;
  while (reader.readLine(line)) {
    std::string_view rest = line;
    std::string_view word = nextToken(rest);
    if (word.empty()) continue;
    if (word == "JOB") {
      std::string_view tag = nextToken(rest);
      std::string_view backendWord = nextToken(rest);
      if (tag.empty() || backendWord.empty()) {
        writeAll(*conn, "ERROR ? JOB needs <tag> <backend>\n");
        continue;
      }
      if (!handleJob(engine, conn, reader, tag, backendWord)) break;
    } else if (word == "CANCEL") {
      std::string tag(nextToken(rest));
      std::uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(conn->tagMutex);
        auto it = conn->tags.find(tag);
        if (it != conn->tags.end()) id = it->second;
      }
      if (id != 0) engine.cancel(id);
    } else if (word == "STATS") {
      ServeStats s = engine.stats();
      writeAll(*conn, "STATS " + std::to_string(s.submitted) + " " +
                          std::to_string(s.completed) + " " +
                          std::to_string(s.cacheHits) + " " +
                          std::to_string(s.cacheMisses) + " " +
                          std::to_string(s.cancelled) + " " +
                          std::to_string(s.rejected) + " " +
                          std::to_string(s.deadlineExpired) + " " +
                          std::to_string(s.quarantined) + " " +
                          std::to_string(s.evicted) + " " +
                          std::to_string(s.memoryOnly ? 1 : 0) + "\n");
    } else if (word == "FLUSH") {
      engine.cache().clear();
      writeAll(*conn, "FLUSHED\n");
    } else if (word == "SHUTDOWN") {
      writeAll(*conn, "BYE\n");
      g_stop.store(true);
      if (g_listenFd >= 0) ::shutdown(g_listenFd, SHUT_RDWR);
      break;
    } else {
      writeAll(*conn, "ERROR ? unknown command\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  ServeOptions options;
  options.workers = 2;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      socketPath = v;
    } else if (arg == "--cache-dir") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.cacheDir = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (!v || !parseNum(v, &n) || n == 0 || n > 256) return usage(argv[0]);
      options.workers = static_cast<std::size_t>(n);
    } else if (arg == "--queue") {
      const char* v = value();
      if (!v || !parseNum(v, &n) || n == 0 || n > 65536) return usage(argv[0]);
      options.queueCapacity = static_cast<std::size_t>(n);
    } else if (arg == "--progress-interval") {
      const char* v = value();
      if (!v || !parseNum(v, &n) || n == 0) return usage(argv[0]);
      options.progressInterval = static_cast<std::size_t>(n);
    } else if (arg == "--cache-cap") {
      const char* v = value();
      if (!v || !parseNum(v, &n)) return usage(argv[0]);
      options.cacheCapacity = static_cast<std::size_t>(n);
    } else if (arg == "--faults") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      const std::string err = FaultInjector::global().configure(v);
      if (!err.empty()) {
        std::fprintf(stderr, "als_serve: %s\n", err.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "als_serve: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (socketPath.empty()) return usage(argv[0]);
  if (socketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "als_serve: socket path too long\n");
    return 2;
  }

  // A client vanishing mid-RESULT must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  g_listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (g_listenFd < 0) {
    std::perror("als_serve: socket");
    return 1;
  }
  ::unlink(socketPath.c_str());  // replace a stale socket file
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::bind(g_listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(g_listenFd, 64) < 0) {
    std::perror("als_serve: bind/listen");
    ::close(g_listenFd);
    return 1;
  }

  ServeEngine engine(options);
  std::fprintf(stderr,
               "als_serve: listening on %s (workers=%zu queue=%zu "
               "progress-interval=%zu cache=%s)\n",
               socketPath.c_str(), options.workers, options.queueCapacity,
               options.progressInterval,
               options.cacheDir.empty() ? "<memory>" : options.cacheDir.c_str());

  std::mutex connMutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> handlers;
  while (!g_stop.load()) {
    int fd = ::accept(g_listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (SHUTDOWN) or fatal
    }
    auto conn = std::make_shared<Connection>(fd);
    {
      std::lock_guard<std::mutex> lock(connMutex);
      connections.push_back(conn);
    }
    handlers.emplace_back(
        [&engine, conn = std::move(conn)] { handleConnection(engine, conn); });
  }

  // Wake any handler still blocked in read() on a connection its client
  // left open, then drain: every accepted job delivers its RESULT (the
  // connections stay writable — only their read side is shut down).
  {
    std::lock_guard<std::mutex> lock(connMutex);
    for (const auto& conn : connections) ::shutdown(conn->fd, SHUT_RD);
  }
  for (std::thread& t : handlers) t.join();
  engine.shutdown();
  connections.clear();
  ::close(g_listenFd);
  ::unlink(socketPath.c_str());
  std::fprintf(stderr, "als_serve: bye\n");
  return 0;
}
