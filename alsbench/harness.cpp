// alsbench — the repository benchmark harness (driven by run.py).
//
//   alsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --serve-bin <path to als_serve> --work-dir <dir>
//
// Runs one workload through the library's public API (and, for the serve
// workloads, through the als_serve daemon over its socket), checks every
// output, and prints a human-readable report followed by one JSON line with
// the keys `correct`, `attempted`, `failed` and `metrics`.  Report lines:
//
//   env <key> <value...>        machine and build facts
//   metric <name> <value> <unit> <lower|higher>   end to end (untraced run)
//   traced <name> <value> <unit> <lower|higher>   end to end (traced run)
//   layer <name> <value> <unit> <lower|higher>    per layer (traced run)
//   count <name> <value>        deterministic integers (compared exactly)
//   note <text>                 context, e.g. open-loop generator lateness
//   FAIL <text>                 one line per failed operation
//
// The JSON carries the end-to-end metrics of an untraced run or the layer
// metrics of a traced run; run.py matches the names against BENCHMARK.json.
#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"

namespace alsbench {

// ----------------------------------------------------------------- spans --

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer()
    : epochNs_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count()) {}

double Tracer::now() const {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(ns - epochNs_) * 1e-9;
}

std::uint64_t Tracer::nextId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_++;
}

void Tracer::add(const Record& r) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(r);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"unit\": \"s\", \"spans\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"job\": %llu, \"start\": %.9f, \"end\": %.9f}%s\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.job), r.start, r.end,
                 i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {
thread_local Span* t_innermost = nullptr;
}  // namespace

Span::Span(const char* name, std::uint64_t job, std::uint64_t parent)
    : name_(name), job_(job) {
  Tracer& tracer = Tracer::global();
  if (tracer.enabled()) {
    id_ = tracer.nextId();
    parent_ = parent != 0 ? parent
                          : (t_innermost != nullptr ? t_innermost->id_ : 0);
    outer_ = t_innermost;
    t_innermost = this;
  }
  start_ = tracer.now();
}

Span::~Span() { stop(); }

double Span::stop() {
  if (seconds_ >= 0.0) return seconds_;
  Tracer& tracer = Tracer::global();
  const double end = tracer.now();
  seconds_ = end - start_;
  if (id_ != 0) {
    tracer.add({name_, id_, parent_, job_, start_, end});
    if (t_innermost == this) t_innermost = outer_;
  }
  return seconds_;
}

// ------------------------------------------------------------ statistics --

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0.0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

double processCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- checks --

bool guaranteesSymmetry(EngineBackend backend) {
  return backend == EngineBackend::SeqPair || backend == EngineBackend::HBStar;
}

std::string checkPlacement(const Circuit& circuit,
                           const std::vector<std::vector<std::size_t>>& netPins,
                           EngineBackend backend, const EngineResult& result) {
  const als::Placement& p = result.placement;
  if (p.size() != circuit.moduleCount()) {
    return "placement has " + std::to_string(p.size()) + " rects for " +
           std::to_string(circuit.moduleCount()) + " modules";
  }
  for (std::size_t m = 0; m < p.size(); ++m) {
    const als::Module& mod = circuit.module(m);
    const als::Rect& r = p[m];
    const bool upright = r.w == mod.w && r.h == mod.h;
    const bool rotated = r.w == mod.h && r.h == mod.w &&
                         (mod.rotatable || mod.w == mod.h);
    if (!upright && !rotated) {
      return "module " + mod.name + " has a foreign footprint";
    }
    if (r.x < 0 || r.y < 0) return "module " + mod.name + " at negative coords";
  }
  auto [a, b] = p.firstOverlap();
  if (a != als::Placement::npos) {
    return "modules " + circuit.module(a).name + " and " +
           circuit.module(b).name + " overlap";
  }
  if (guaranteesSymmetry(backend)) {
    for (const als::SymmetryGroup& g : circuit.symmetryGroups()) {
      als::Coord axis2x = 0;
      if (!g.pairs.empty()) {
        axis2x = p[g.pairs[0].a].x + p[g.pairs[0].a].w + p[g.pairs[0].b].x;
      } else if (!g.selfs.empty()) {
        axis2x = 2 * p[g.selfs[0]].x + p[g.selfs[0]].w;
      }
      for (const als::SymPair& pair : g.pairs) {
        if (!als::mirroredAboutX2(p[pair.a], p[pair.b], axis2x)) {
          return "group " + g.name + " breaks mirror symmetry";
        }
      }
      for (als::ModuleId s : g.selfs) {
        if (!als::centeredOnX2(p[s], axis2x)) {
          return "group " + g.name + " self-symmetric cell off the axis";
        }
      }
    }
  }
  const als::Coord area = p.boundingBox().area();
  if (area != result.area) {
    return "reported area " + std::to_string(result.area) +
           " != recomputed " + std::to_string(area);
  }
  const als::Coord hpwl = als::totalHpwl(p, netPins);
  if (hpwl != result.hpwl) {
    return "reported hpwl " + std::to_string(result.hpwl) +
           " != recomputed " + std::to_string(hpwl);
  }
  if (!(result.cost > 0.0) || !std::isfinite(result.cost)) {
    return "non-positive or non-finite cost";
  }
  return {};
}

Quality qualityOf(const Circuit& circuit, const EngineResult& result) {
  const double moduleArea = static_cast<double>(circuit.totalModuleArea());
  return {result.cost, static_cast<double>(result.area) / moduleArea,
          static_cast<double>(result.hpwl)};
}

void reportQuality(Report& report, const std::vector<Quality>& q) {
  std::vector<double> cost, ratio, hpwl;
  for (const Quality& x : q) {
    cost.push_back(x.cost);
    ratio.push_back(x.areaRatio);
    hpwl.push_back(x.hpwl);
  }
  report.metric("cost_geomean", geomean(cost), "objective");
  report.metric("area_ratio_geomean", geomean(ratio), "ratio");
  report.metric("hpwl_geomean", geomean(hpwl), "DBU");
}

}  // namespace alsbench

namespace {

using namespace alsbench;

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// JSON number with all its digits (%.17g round-trips a double exactly).
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: alsbench --workload <gsrc-anneal|mcnc-race|serve-mixed> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--serve-bin <path> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") cfg.workload = value;
    else if (key == "--seed") cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") cfg.trace = value == "1";
    else if (key == "--serve-bin") cfg.serveBin = value;
    else if (key == "--work-dir") cfg.workDir = value;
    else return usage();
  }
  if (argc % 2 != 1 || cfg.workload.empty() || cfg.workDir.empty() ||
      cfg.serveBin.empty() || !(cfg.seconds > 0.0)) {
    return usage();
  }
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::error_code ec;
  std::filesystem::create_directories(cfg.workDir, ec);
  if (ec) {
    std::fprintf(stderr, "alsbench: cannot create %s\n", cfg.workDir.c_str());
    return 1;
  }

  std::printf("env workload %s\n", cfg.workload.c_str());
  std::printf("env seed %llu\n", static_cast<unsigned long long>(cfg.seed));
  std::printf("env seconds %g\n", cfg.seconds);
  std::printf("env trace %d\n", cfg.trace ? 1 : 0);
  std::printf("env nproc %u\n", cfg.nproc);
  std::printf("env cpu %s\n", cpuModel().c_str());
  std::printf("env compiler %s\n", ALSBENCH_COMPILER);
  std::printf("env build_type %s\n", ALSBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Tracer::global().enable(cfg.trace);
  Report report;
  if (cfg.workload == "gsrc-anneal") runGsrcAnneal(cfg, report);
  else if (cfg.workload == "mcnc-race") runMcncRace(cfg, report);
  else if (cfg.workload == "serve-mixed") runServeMixed(cfg, report);
  else return usage();

  if (cfg.trace) {
    // The cost of recording: time 1000 spans (kept in the trace under their
    // own name) and charge every recorded span at that rate.
    const std::size_t spans = Tracer::global().size();
    Tracer::global().enable(true);
    const double t0 = Tracer::global().now();
    for (int i = 0; i < 1000; ++i) Span probe("tracer.cost_probe", 0);
    const double perSpan = (Tracer::global().now() - t0) / 1000.0;
    std::printf("note tracing cost %.0f ns per span x %zu spans = %.3f ms\n",
                perSpan * 1e9, spans, perSpan * static_cast<double>(spans) * 1e3);
    const std::string path = cfg.workDir + "/trace.json";
    std::printf("note spans %zu written to %s\n", Tracer::global().size(),
                path.c_str());
    if (!Tracer::global().write(path)) report.fail("cannot write " + path);
  }

  for (const std::string& line : report.notes) std::printf("note %s\n", line.c_str());
  for (const auto& [name, value] : report.counts) {
    std::printf("count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  // A traced run's end-to-end numbers are printed beside its layer numbers
  // (as `traced` lines) so the tracing overhead is visible; only the
  // untraced run's end-to-end numbers are the benchmark's result.
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s %s %s %s %s\n", cfg.trace ? "traced" : "metric",
                name.c_str(), jsonNumber(m.value).c_str(), m.unit.c_str(),
                m.better == Better::Lower ? "lower" : "higher");
  }
  for (const auto& [name, m] : report.layers) {
    std::printf("layer %s %s %s %s\n", name.c_str(), jsonNumber(m.value).c_str(),
                m.unit.c_str(), m.better == Better::Lower ? "lower" : "higher");
  }
  for (const std::string& line : report.failures) {
    std::printf("FAIL %s\n", line.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : cfg.trace ? report.layers : report.metrics) {
    json << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
         << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit) << "}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
