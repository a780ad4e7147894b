// als_serve — placement-as-a-service daemon over a local stream socket.
//
// Thin socket front-end for the in-process serve engine (runtime/serve.h):
// accepts connections on an AF_UNIX socket and forwards jobs, read with
// the "ALSSERVE 1" codec of io/serve_protocol.h, into a ServeEngine whose
// workers run them against the content-addressed result cache.  The wire
// grammar and everything placement-related (admission, scheduling,
// cancellation, caching, knob refusal) live in the library; this file is
// sockets, the tag table and thread plumbing, so tests/serve_test.cpp pins
// engine and codec without a socket and tools/als_replay drives it end to
// end.
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

#include <algorithm>
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

#include "io/serve_protocol.h"
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

/// One protocol line/block at a time.  Errors (client went away) are
/// swallowed: the job finishes either way; SIGPIPE is ignored.
void writeLocked(Connection& conn, std::string_view data) {
  std::lock_guard<std::mutex> lock(conn.writeMutex);
  writeAll(conn.fd, data);
}

/// Hands one parsed JOB to the engine and wires its replies to `conn`.
void submitJob(ServeEngine& engine, const std::shared_ptr<Connection>& conn,
               std::string tag, ServeEngine::Job job) {
  job.onProgress = [conn, tag](std::size_t round, std::size_t sweeps,
                               double best) {
    writeLocked(*conn, progressLine(tag, round, sweeps, best));
  };
  job.onDone = [conn, tag](const ServeEngine::JobOutcome& outcome) {
    {
      std::lock_guard<std::mutex> lock(conn->tagMutex);
      conn->tags.erase(tag);
    }
    if (!outcome.error.empty()) {
      writeLocked(*conn, errorLine(tag, outcome.error));
      return;
    }
    const char* status = outcome.cacheHit          ? "hit"
                         : outcome.deadlineExpired ? "deadline"
                         : outcome.cancelled       ? "cancelled"
                                                   : "miss";
    std::string out;
    appendResultBlock(out, tag, status, outcome.backend, *outcome.result);
    writeLocked(*conn, out);
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
  std::lock_guard<std::mutex> writeLock(conn->writeMutex);
  const ServeEngine::Submission sub = engine.submit(std::move(job));
  if (!sub.error.empty()) {
    writeAll(conn->fd, errorLine(tag, sub.error));
  } else if (sub.accepted) {
    {
      std::lock_guard<std::mutex> lock(conn->tagMutex);
      conn->tags[tag] = sub.id;
    }
    writeAll(conn->fd, queuedLine(tag, sub.key));
  } else {
    writeAll(conn->fd, rejectedLine(tag));
  }
}

void handleConnection(ServeEngine& engine, std::shared_ptr<Connection> conn) {
  WireReader reader(conn->fd);
  std::string line, tag, error;
  ServeEngine::Job job;  // readJob fills its JobRequest part
  while (reader.readLine(line)) {
    std::string_view rest = line;
    std::string_view word = nextToken(rest);
    if (word.empty()) continue;
    if (word == "JOB") {
      // A framing error loses the stream position: close the connection.
      const JobStatus status = readJob(reader, rest, tag, job, error);
      if (status == JobStatus::Broken) break;
      if (status == JobStatus::Error) {
        writeLocked(*conn, errorLine(tag, error));
      } else {
        submitJob(engine, conn, tag, std::move(job));
      }
    } else if (word == "CANCEL") {
      tag = nextToken(rest);
      std::uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(conn->tagMutex);
        auto it = conn->tags.find(tag);
        if (it != conn->tags.end()) id = it->second;
      }
      if (id != 0) engine.cancel(id);
    } else if (word == "STATS") {
      writeLocked(*conn, statsLine(engine.stats()));
    } else if (word == "FLUSH") {
      engine.cache().clear();
      writeLocked(*conn, "FLUSHED\n");
    } else if (word == "SHUTDOWN") {
      writeLocked(*conn, "BYE\n");
      g_stop.store(true);
      if (g_listenFd >= 0) ::shutdown(g_listenFd, SHUT_RDWR);
      break;
    } else {
      writeLocked(*conn, errorLine("?", "unknown command"));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  ServeOptions options;
  options.workers = 2;

  struct CountFlag {
    std::string_view flag;
    std::size_t* out;
    std::uint64_t lo, hi;
  };
  const CountFlag countFlags[] = {
      {"--workers", &options.workers, 1, 256},
      {"--queue", &options.queueCapacity, 1, 65536},
      {"--progress-interval", &options.progressInterval, 1, ~0ull},
      {"--cache-cap", &options.cacheCapacity, 0, ~0ull}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto count = std::ranges::find(countFlags, arg, &CountFlag::flag);
    std::uint64_t n = 0;
    if (v == nullptr) {
      return usage(argv[0]);  // every option takes a value
    } else if (count != std::end(countFlags)) {
      if (!parseCount(v, n) || n < count->lo || n > count->hi) {
        return usage(argv[0]);
      }
      *count->out = static_cast<std::size_t>(n);
    } else if (arg == "--socket") {
      socketPath = v;
    } else if (arg == "--cache-dir") {
      options.cacheDir = v;
    } else if (arg == "--faults") {
      const std::string err = FaultInjector::global().configure(v);
      if (!err.empty()) {
        std::fprintf(stderr, "als_serve: %s\n", err.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "als_serve: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    }
    ++i;
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

  // Touched by this thread only: the accept loop, then the drain.
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> handlers;
  while (!g_stop.load()) {
    int fd = ::accept(g_listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (SHUTDOWN) or fatal
    }
    auto conn = std::make_shared<Connection>(fd);
    connections.push_back(conn);
    handlers.emplace_back(
        [&engine, conn = std::move(conn)] { handleConnection(engine, conn); });
  }

  // Wake any handler still blocked in read() on a connection its client
  // left open, then drain: every accepted job delivers its RESULT (the
  // connections stay writable — only their read side is shut down).
  for (const auto& conn : connections) ::shutdown(conn->fd, SHUT_RD);
  for (std::thread& t : handlers) t.join();
  engine.shutdown();
  connections.clear();
  ::close(g_listenFd);
  ::unlink(socketPath.c_str());
  std::fprintf(stderr, "als_serve: bye\n");
  return 0;
}
