// Decode-throughput bench: the per-move packing kernels behind every SA
// backend, measured on the embedded corpus (apte .. ami49).
//
// Two experiments:
//
//   1. B*-tree decode kernels — the same perturb-then-pack sequence driven
//      through (a) the historical std::map contour with per-decode buffers
//      (re-created here as the baseline; the library's map `Contour` is
//      retained exactly for this comparison and the oracle tests) and
//      (b) the production `FlatContour` + `BStarPackScratch` kernel
//      (`packBStarInto`).  Both produce bit-identical placements (checked);
//      the ratio is the contour speedup the PR 5 tentpole claims (>= 3x on
//      ami49-scale circuits).
//
//   2. End-to-end moves/sec per backend — a fixed-sweep engine run per
//      corpus circuit; movesTried / seconds is the steady-state SA
//      throughput including move, decode, and incremental cost evaluation.
//
// JSON records (--json): `backend` is "decode-map" / "decode-flat" for the
// kernel rows and the engine name for the end-to-end rows; `sweeps` carries
// the decode/move count, `seconds` the elapsed time, and `cost` the
// resulting throughput in operations per second.
//
// A third experiment behind --scaling: the move loop across the size axis
// (apte .. n300).  Per circuit it runs the flat B*-tree SA (full repack
// per move), the slicing SA (memoised Polish evaluation) and the
// sequence-pair SA twice from the same seed, with the full re-decode path
// and with the incremental LCS path.  The two seqpair trajectories must be
// bit-identical (checked via the final cost and move count; a divergence
// exits nonzero), so their moves/sec ratio isolates the decode
// asymptotics.  A kernel identity check rides along: one Wong-Liu move
// stream per circuit is evaluated through a warm scratch (which rebuilds
// only the subtrees a move changed) and through a fresh one, and any
// difference in placement or bounding box exits nonzero.  JSON rows:
// `backend` is flat-full / slicing-memo / seqpair-full /
// seqpair-incremental (named apart from the engine-name rows above, so
// bench_diff and readme_tables do not pool them with other budgets);
// `sweeps` carries moves tried, `cost` moves/sec.
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
#include "engine/placement_engine.h"
#include "io/corpus.h"
#include "seqpair/sa_placer.h"
#include "slicing/polish.h"
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
  Coord check = 0;
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

/// Evaluates `moves` Wong-Liu moves of one stream through a warm scratch and
/// through a fresh scratch per move; returns the number of moves whose
/// placement or bounding box differ (any nonzero is a memo bug).
int polishMemoDivergences(const Circuit& c, std::size_t moves) {
  const std::size_t n = c.moduleCount();
  std::vector<Coord> w(n), h(n);
  std::vector<bool> rotatable(n);
  for (std::size_t m = 0; m < n; ++m) {
    w[m] = c.module(m).w;
    h[m] = c.module(m).h;
    rotatable[m] = c.module(m).rotatable;
  }
  PolishExpr expr = PolishExpr::initial(n);
  Rng rng(1);
  PolishEvalScratch warm;
  SlicedResult got;
  int divergences = 0;
  for (std::size_t i = 0; i < moves; ++i) {
    expr.perturb(rng);
    evaluatePolishInto(expr, w, h, rotatable, 32, warm, got);
    SlicedResult fresh = evaluatePolish(expr, w, h, rotatable, 32);
    if (got.placement.rects() != fresh.placement.rects() ||
        got.width != fresh.width || got.height != fresh.height) {
      ++divergences;
    }
  }
  return divergences;
}

/// --scaling: the flat B*-tree and slicing move rates, and full vs
/// incremental seqpair decode, across the corpus size axis.  Returns the
/// number of seqpair trajectory and slicing kernel divergences (any nonzero
/// is a correctness failure).
int runScaling(BenchIo& io) {
  const std::size_t sweeps = io.smoke() ? 6 : 24;
  const CorpusCircuit circuits[] = {CorpusCircuit::Apte, CorpusCircuit::Ami33,
                                    CorpusCircuit::Ami49, CorpusCircuit::N100,
                                    CorpusCircuit::N200, CorpusCircuit::N300};
  int failures = 0;
  Table t({"circuit", "blocks", "flat", "slicing", "sp full", "sp incr",
           "speedup"});
  double n300Sp = 0.0;
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
    if (int bad = polishMemoDivergences(c, io.smoke() ? 200 : 1000)) {
      std::fprintf(stderr,
                   "bench_decode: %s: memoised Polish evaluation DIVERGED "
                   "from a fresh evaluation on %d moves\n",
                   name, bad);
      ++failures;
    }

    SeqPairPlacerOptions so;
    so.maxSweeps = sweeps;
    so.seed = 1;
    so.incrementalDecode = false;
    SeqPairPlacerResult spFull = placeSeqPairSA(c, so);
    so.incrementalDecode = true;
    SeqPairPlacerResult spInc = placeSeqPairSA(c, so);
    if (spFull.cost != spInc.cost || spFull.movesTried != spInc.movesTried) {
      std::fprintf(stderr,
                   "bench_decode: %s: seqpair incremental decode DIVERGED "
                   "from the full re-decode trajectory\n",
                   name);
      ++failures;
    }

    double spSpeed = spFull.seconds > 0.0 && spInc.seconds > 0.0
                         ? movesPerSec(spInc.movesTried, spInc.seconds) /
                               movesPerSec(spFull.movesTried, spFull.seconds)
                         : 0.0;
    if (which == CorpusCircuit::N300) n300Sp = spSpeed;
    t.addRow({name, std::to_string(c.moduleCount()),
              Table::fmt(movesPerSec(flat.movesTried, flat.seconds) / 1e3, 1) + "k",
              Table::fmt(movesPerSec(slicing.movesTried, slicing.seconds) / 1e3, 1) + "k",
              Table::fmt(movesPerSec(spFull.movesTried, spFull.seconds) / 1e3, 1) + "k",
              Table::fmt(movesPerSec(spInc.movesTried, spInc.seconds) / 1e3, 1) + "k",
              Table::fmt(spSpeed, 2) + "x"});
    addRate(io, "flat-full", name, flat.movesTried, flat.seconds);
    addRate(io, "slicing-memo", name, slicing.movesTried, slicing.seconds);
    addRate(io, "seqpair-full", name, spFull.movesTried, spFull.seconds);
    addRate(io, "seqpair-incremental", name, spInc.movesTried, spInc.seconds);
  }
  t.print(std::cout);
  std::printf("\nmoves/sec, %zu sweeps per run, single thread; flat = full "
              "B*-tree repack per move; slicing = Polish evaluation "
              "rebuilding only the changed subtrees; sp full = "
              "whole-placement re-decode per move, sp incr = suffix-only.  "
              "n300 seqpair speedup %.2fx\n",
              sweeps, n300Sp);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) {
      std::puts("=== move-loop scaling: flat B*-tree, slicing, and seqpair "
                "full vs incremental decode, apte .. n300 ===\n");
      return runScaling(io) == 0 ? 0 : 1;
    }
  }
  std::puts("=== decode throughput: map contour vs flat contour, and "
            "end-to-end moves/sec per backend ===\n");

  const std::size_t decodes = io.smoke() ? 4000 : 50000;
  Table kernels({"circuit", "blocks", "map decodes/s", "flat decodes/s",
                 "speedup"});
  int failures = 0;
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
    if (mapKernel.check != flatKernel.check) {
      std::fprintf(stderr,
                   "bench_decode: %s: flat and map kernels DIVERGED\n",
                   corpusName(which));
      ++failures;
    }
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
      const std::unique_ptr<PlacementEngine> engine = makeEngine(backend);
      EngineOptions opt;
      opt.maxSweeps = sweeps;
      opt.seed = 1;
      EngineResult r = engine->place(c, opt);
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
              "(move + decode + incremental cost, single thread)\n",
              sweeps);
  return failures == 0 ? 0 : 1;
}
