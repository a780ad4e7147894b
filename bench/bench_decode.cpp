// Decode-throughput bench: the per-move packing kernels behind every SA
// backend, measured on the embedded corpus (apte .. ami49).  Rates only:
// the identity of every kernel and trajectory is checked by the test
// suites (contour_test, bstar_test, seqpair_test, slicing_test).
//
// Two experiments:
//
//   1. B*-tree decode kernels — the same perturb-then-pack sequence driven
//      through (a) the historical std::map contour with per-decode buffers
//      (re-created here as the baseline; the library's map `Contour` is
//      retained exactly for this comparison and the oracle tests) and
//      (b) the production `FlatContour` + `BStarPackScratch` kernel
//      (`packBStarInto`).  The ratio is the contour speedup.
//
//   2. End-to-end moves/sec per backend — a fixed-sweep engine run per
//      corpus circuit; movesTried / seconds is the steady-state SA
//      throughput including move, decode, and cost evaluation.
//
// JSON records (--json): `backend` is "decode-map" / "decode-flat" for the
// kernel rows and the engine name for the end-to-end rows; `sweeps` carries
// the decode/move count, `seconds` the elapsed time, and `cost` the
// resulting throughput in operations per second.
//
// A third experiment behind --scaling: the move loop across the size axis
// (apte .. n300).  Per circuit it runs the flat B*-tree SA (full repack
// per move), the slicing SA (memoised Polish evaluation) and the
// sequence-pair SA (full LCS sweeps, cached symmetry islands).  JSON rows:
// `backend` is flat-full / slicing-memo / seqpair-full (named apart from
// the engine-name rows above, so bench_diff and readme_tables do not pool
// them with other budgets); `sweeps` carries moves tried, `cost`
// moves/sec.
//
// Flags: --json <path>, --smoke (small fixed counts for CI), --scaling.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bstar/bstar_tree.h"
#include "bstar/contour.h"
#include "bstar/flat_placer.h"
#include "bstar/pack.h"
#include "engine/replica_session.h"
#include "io/corpus.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"
#include "util/bench_json.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace als;

namespace {

/// The pre-PR-5 decode: fresh std::map contour and fresh coordinate buffers
/// on every pack — the allocation profile the flat kernel eliminates.
Placement packBStarMapContour(const BStarTree& tree,
                              std::span<const Coord> widths,
                              std::span<const Coord> heights) {
  Placement out(tree.size());
  if (tree.size() == 0) return out;
  Contour contour;
  std::vector<Coord> x(tree.size(), 0);
  std::vector<std::size_t> stack{tree.root()};
  while (!stack.empty()) {
    std::size_t node = stack.back();
    stack.pop_back();
    std::size_t item = tree.item(node);
    Coord w = widths[item];
    Coord h = heights[item];
    Coord xNode = x[node];
    Coord yNode = contour.maxOver(xNode, xNode + w);
    contour.raise(xNode, xNode + w, yNode + h);
    out[item] = {xNode, yNode, w, h};
    if (tree.right(node) != BStarTree::npos) {
      x[tree.right(node)] = xNode;
      stack.push_back(tree.right(node));
    }
    if (tree.left(node) != BStarTree::npos) {
      x[tree.left(node)] = xNode + w;
      stack.push_back(tree.left(node));
    }
  }
  return out;
}

Coord checksum(const Placement& p) {
  Coord sum = 0;
  for (const Rect& r : p.rects()) sum += r.x * 3 + r.y * 7 + r.w + r.h;
  return sum;
}

struct KernelResult {
  double decodesPerSec = 0.0;
  double seconds = 0.0;
  Coord check = 0;  ///< checksum sink: keeps every pack observable
};

template <class PackFn>
KernelResult runKernel(const Circuit& c, std::size_t decodes, PackFn pack) {
  const std::size_t n = c.moduleCount();
  std::vector<Coord> w(n), h(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = c.module(m).w;
    h[m] = c.module(m).h;
  }
  BStarTree tree(n);
  Rng rng(1);  // same seed for both kernels -> identical tree sequences
  KernelResult result;
  Stopwatch clock;
  for (std::size_t i = 0; i < decodes; ++i) {
    tree.perturb(rng);
    result.check += pack(tree, w, h);
  }
  result.seconds = clock.seconds();
  result.decodesPerSec =
      result.seconds > 0.0 ? static_cast<double>(decodes) / result.seconds : 0.0;
  return result;
}

double movesPerSec(std::size_t moves, double seconds) {
  return seconds > 0.0 ? static_cast<double>(moves) / seconds : 0.0;
}

void addRate(BenchIo& io, const char* backend, const char* circuit,
             std::size_t moves, double seconds) {
  BenchRecord r;
  r.backend = backend;
  r.circuit = circuit;
  r.sweeps = moves;
  r.seconds = seconds;
  r.cost = movesPerSec(moves, seconds);
  io.add(r);
}

/// --scaling: the move rates of the flat B*-tree, slicing and sequence-pair
/// backends across the corpus size axis.
void runScaling(BenchIo& io) {
  const std::size_t sweeps = io.smoke() ? 6 : 24;
  const CorpusCircuit circuits[] = {CorpusCircuit::Apte, CorpusCircuit::Ami33,
                                    CorpusCircuit::Ami49, CorpusCircuit::N100,
                                    CorpusCircuit::N200, CorpusCircuit::N300};
  Table t({"circuit", "blocks", "flat", "slicing", "seqpair"});
  for (CorpusCircuit which : circuits) {
    const char* name = corpusName(which);
    Circuit c = loadCorpusCircuit(which);

    FlatBStarOptions fo;
    fo.maxSweeps = sweeps;
    fo.seed = 1;
    FlatBStarResult flat = placeFlatBStarSA(c, fo);

    SlicingPlacerOptions slo;
    slo.maxSweeps = sweeps;
    slo.seed = 1;
    SlicingPlacerResult slicing = placeSlicingSA(c, slo);

    SeqPairPlacerOptions so;
    so.maxSweeps = sweeps;
    so.seed = 1;
    SeqPairPlacerResult sp = placeSeqPairSA(c, so);

    t.addRow({name, std::to_string(c.moduleCount()),
              Table::fmt(movesPerSec(flat.movesTried, flat.seconds) / 1e3, 1) + "k",
              Table::fmt(movesPerSec(slicing.movesTried, slicing.seconds) / 1e3, 1) + "k",
              Table::fmt(movesPerSec(sp.movesTried, sp.seconds) / 1e3, 1) + "k"});
    addRate(io, "flat-full", name, flat.movesTried, flat.seconds);
    addRate(io, "slicing-memo", name, slicing.movesTried, slicing.seconds);
    addRate(io, "seqpair-full", name, sp.movesTried, sp.seconds);
  }
  t.print(std::cout);
  std::printf("\nmoves/sec, %zu sweeps per run, single thread; flat = full "
              "B*-tree repack per move; slicing = Polish evaluation "
              "rebuilding only the changed subtrees; seqpair = both LCS "
              "sweeps per move over cached symmetry islands; every move "
              "reduces the whole placement's cost\n",
              sweeps);
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) {
      std::puts("=== move-loop scaling: flat B*-tree, slicing and seqpair "
                "move rates, apte .. n300 ===\n");
      runScaling(io);
      return 0;
    }
  }
  std::puts("=== decode throughput: map contour vs flat contour, and "
            "end-to-end moves/sec per backend ===\n");

  const std::size_t decodes = io.smoke() ? 4000 : 50000;
  Table kernels({"circuit", "blocks", "map decodes/s", "flat decodes/s",
                 "speedup"});
  double ami49Speedup = 0.0;
  for (CorpusCircuit which : allCorpusCircuits()) {
    Circuit c = loadCorpusCircuit(which);
    KernelResult mapKernel = runKernel(
        c, decodes, [](const BStarTree& t, const auto& w, const auto& h) {
          return checksum(packBStarMapContour(t, w, h));
        });
    BStarPackScratch scratch;
    Placement decoded;
    KernelResult flatKernel = runKernel(
        c, decodes, [&](const BStarTree& t, const auto& w, const auto& h) {
          packBStarInto(t, w, h, scratch, decoded);
          return checksum(decoded);
        });
    double speedup = mapKernel.decodesPerSec > 0.0
                         ? flatKernel.decodesPerSec / mapKernel.decodesPerSec
                         : 0.0;
    if (which == CorpusCircuit::Ami49) ami49Speedup = speedup;
    kernels.addRow({corpusName(which), std::to_string(c.moduleCount()),
                    Table::fmt(mapKernel.decodesPerSec / 1e3, 1) + "k",
                    Table::fmt(flatKernel.decodesPerSec / 1e3, 1) + "k",
                    Table::fmt(speedup, 2) + "x"});
    BenchRecord mapRecord;
    mapRecord.backend = "decode-map";
    mapRecord.circuit = corpusName(which);
    mapRecord.sweeps = decodes;
    mapRecord.seconds = mapKernel.seconds;
    mapRecord.cost = mapKernel.decodesPerSec;
    io.add(mapRecord);
    BenchRecord flatRecord;
    flatRecord.backend = "decode-flat";
    flatRecord.circuit = corpusName(which);
    flatRecord.sweeps = decodes;
    flatRecord.seconds = flatKernel.seconds;
    flatRecord.cost = flatKernel.decodesPerSec;
    io.add(flatRecord);
  }
  kernels.print(std::cout);
  std::printf("\nflat B*-tree decode kernel: %s sequences of %zu decodes; "
              "ami49 speedup %.2fx\n\n",
              io.smoke() ? "smoke" : "full", decodes, ami49Speedup);

  const std::size_t sweeps = io.smoke() ? 24 : 128;
  Table moves({"circuit", "backend", "moves", "seconds", "moves/sec"});
  for (CorpusCircuit which : allCorpusCircuits()) {
    Circuit c = loadCorpusCircuit(which);
    for (EngineBackend backend : allBackends()) {
      EngineOptions opt;
      opt.maxSweeps = sweeps;
      opt.seed = 1;
      EngineResult r = makeReplicaSession(backend, c, opt)->finish();
      double movesPerSec =
          r.seconds > 0.0 ? static_cast<double>(r.movesTried) / r.seconds : 0.0;
      moves.addRow({corpusName(which), std::string(backendName(backend)),
                    std::to_string(r.movesTried), Table::fmt(r.seconds, 3),
                    Table::fmt(movesPerSec / 1e3, 1) + "k"});
      BenchRecord record;
      record.backend = std::string(backendName(backend));
      record.circuit = corpusName(which);
      record.sweeps = r.movesTried;
      record.seconds = r.seconds;
      record.cost = movesPerSec;
      io.add(record);
    }
  }
  moves.print(std::cout);
  std::printf("\nend-to-end SA throughput at %zu sweeps per run "
              "(move + decode + cost, single thread)\n",
              sweeps);
  return 0;
}
