// Shared pieces of the alsbench harness: the run report, the in-memory span
// recorder, sample statistics and the benchmark-local output checks.
//
// The harness never trusts the library to police its own outputs: every
// placement a workload receives goes through `checkPlacement` below, which
// re-derives legality, area and wirelength from the rectangles alone.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/placement_engine.h"
#include "netlist/circuit.h"

namespace alsbench {

using als::Circuit;
using als::EngineBackend;
using als::EngineResult;

// ---------------------------------------------------------------- config --

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serveBin;  ///< path of the als_serve binary
  std::string workDir;   ///< private scratch directory of this run
  unsigned nproc = 1;
};

// ---------------------------------------------------------------- report --

enum class Better { Lower, Higher };

struct Metric {
  double value = 0.0;
  std::string unit;
  Better better = Better::Lower;
};

/// Everything one run reports.  End-to-end metrics go into the final JSON
/// line of an untraced run, layer metrics into that of a traced run; counts
/// are the deterministic integers the steadiness check compares exactly;
/// notes are free-form lines for the human reader.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end to end
  std::map<std::string, Metric> layers;   ///< per layer (traced runs)
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> notes;
  std::vector<std::string> failures;  ///< one line per failed operation

  void metric(const std::string& name, double value, const std::string& unit,
              Better better = Better::Lower) {
    metrics[name] = Metric{value, unit, better};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             Better better = Better::Lower) {
    layers[name] = Metric{value, unit, better};
  }
  void count(const std::string& name, std::uint64_t value) {
    counts[name] = value;
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records one failed operation (`what` explains it).
  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

// ----------------------------------------------------------------- spans --

/// In-memory span recorder (choosing-metrics §4): name, start, end, parent
/// span and the job id shared by all spans of one job.  Recording is off in
/// untraced runs; `Span` still measures its own duration either way, so the
/// harness computes layer numbers from the same clock reads it records.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t job;
    double start;  ///< seconds since the tracer's epoch
    double end;
  };

  static Tracer& global();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  double now() const;  ///< seconds since the epoch (steady clock)
  std::uint64_t nextId();
  void add(const Record& r);
  std::size_t size() const;
  /// Writes every span as one JSON document; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  Tracer();
  bool enabled_ = false;
  std::int64_t epochNs_ = 0;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::uint64_t next_ = 1;
};

/// RAII span around one call into a layer.  Parent = the innermost open span
/// on this thread (or an explicit parent for spans opened on another
/// thread).  `stop()` closes the span early and returns its duration.
class Span {
 public:
  Span(const char* name, std::uint64_t job, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop();  ///< seconds; idempotent

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t job_ = 0;
  double start_ = 0.0;
  double seconds_ = -1.0;
  Span* outer_ = nullptr;
};

// ------------------------------------------------------------ statistics --

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/// Process CPU time (all threads), seconds.
double processCpuSeconds();
/// VmHWM of `pid` (0 = this process) in MB; 0 when unreadable.
double peakRssMb(int pid = 0);

// ---------------------------------------------------------------- checks --

/// Backends whose representation guarantees exact mirror symmetry.
bool guaranteesSymmetry(EngineBackend backend);

/// The benchmark-local legality postcondition of one result: every module
/// placed once with its own or rotated footprint, no overlaps, non-negative
/// coordinates, exact mirror symmetry where the backend guarantees it, and
/// the reported area (bounding box) and HPWL equal to values recomputed from
/// the rectangles.  Returns an empty string when the result passes.
std::string checkPlacement(const Circuit& circuit,
                           const std::vector<std::vector<std::size_t>>& netPins,
                           EngineBackend backend, const EngineResult& result);

/// Quality of one checked result, relative to its circuit.
struct Quality {
  double cost = 0.0;
  double areaRatio = 0.0;  ///< bounding-box area / module area
  double hpwl = 0.0;
};
Quality qualityOf(const Circuit& circuit, const EngineResult& result);

/// Adds cost/area/HPWL geomeans over `q` to the report.
void reportQuality(Report& report, const std::vector<Quality>& q);

/// printf into a std::string (report lines).
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// SplitMix64 — derives independent seeds from the workload seed.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

// ------------------------------------------------------------- workloads --

void runGsrcAnneal(const RunConfig& cfg, Report& report);
void runMcncRace(const RunConfig& cfg, Report& report);
void runServeMixed(const RunConfig& cfg, Report& report);

/// Traced runs only: the kernel, cost, io and result-cache probes (every
/// per-layer metric that does not depend on the workload's own traffic).
void runLayerProbes(const RunConfig& cfg, Report& report);

}  // namespace alsbench
