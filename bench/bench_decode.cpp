// Decode-throughput bench: the per-move packing kernels behind every SA
// backend, measured on the embedded corpus (apte .. ami49).  The identity
// of every kernel and trajectory is checked by the test suites
// (contour_test, bstar_test, seqpair_test, slicing_test); the exact rows
// here pin each timed run's result so a rate is never read off a changed
// trajectory.
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
// JSON rows (--json): the decode layer's `decodes_per_s` per kernel
// (backend "decode-map" / "decode-flat", budget = decodes) and their
// in-process ratio `flat_over_map`; the engine layer's exact cost, hpwl,
// area, moves, accepted moves and sweeps plus the timed `moves_per_s` of
// each backend run.
//
// A third experiment behind --scaling: the move loop across the size axis
// (apte .. n300).  Per circuit it runs the flat B*-tree SA (full repack
// per move), the slicing SA (memoised Polish evaluation), the sequence-pair
// SA (full LCS sweeps, cached symmetry islands) and the HB*-tree SA
// (stamped per-node repacks).  Its rows are the move-loop layer's, under
// the engine names at the scaling budget, plus:
//   * the slicing evaluator's exact work counts (`curves_rebuilt`,
//     `slots_placed`, read from a caller-owned scratch), so a change that
//     re-walks the whole tree fails on a count, not on a noisy rate;
//   * `slicing_over_flat`, the median time ratio of the slicing and flat
//     B*-tree move loops timed alternately, run by run, in this process:
//     host phases move both sides of a pair alike, so the ratio spreads
//     less than either raw rate.
//
// Flags: --json <path>, --smoke (small fixed counts for CI), --scaling.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "anneal/session.h"
#include "bstar/bstar_tree.h"
#include "bstar/contour.h"
#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
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

std::string rateK(std::size_t moves, double seconds) {
  return Table::fmt(movesPerSec(moves, seconds) / 1e3, 1) + "k";
}

/// Alternating slicing / flat B*-tree run pairs behind each
/// `slicing_over_flat` row (odd, so the median is one pair's ratio).
constexpr std::size_t kRatioPairs = 9;

/// --scaling: the move rates of the flat B*-tree, slicing, sequence-pair
/// and HB*-tree backends across the corpus size axis.
void runScaling(BenchIo& io) {
  const std::size_t sweeps = io.smoke() ? 6 : 24;
  const CorpusCircuit circuits[] = {CorpusCircuit::Apte, CorpusCircuit::Ami33,
                                    CorpusCircuit::Ami49, CorpusCircuit::N100,
                                    CorpusCircuit::N200, CorpusCircuit::N300};
  Table t({"circuit", "blocks", "flat", "slicing", "seqpair", "hbstar",
           "slicing/flat", "curves/move", "placed/move"});
  for (CorpusCircuit which : circuits) {
    const char* name = corpusName(which);
    Circuit c = loadCorpusCircuit(which);

    // The flat and slicing move loops alternate, run by run; the first
    // pair's runs give the raw rows.  Every run of one backend follows
    // the same trajectory, so only the clock differs between them.
    FlatBStarOptions fo;
    fo.maxSweeps = sweeps;
    fo.seed = 1;
    SlicingPlacerOptions slo;
    slo.maxSweeps = sweeps;
    slo.seed = 1;
    FlatBStarResult flat;
    SlicingPlacerResult slicing;
    std::uint64_t curvesRebuilt = 0, slotsPlaced = 0;
    std::vector<double> ratios;
    for (std::size_t pair = 0; pair < kRatioPairs; ++pair) {
      FlatBStarResult f = placeFlatBStarSA(c, fo);
      SlicingScratch scratch;
      SlicingPlacerResult sl =
          AnnealSession<SlicingBackend>(c, slo, 1.0, &scratch).finish();
      ratios.push_back(sl.seconds / f.seconds);
      if (pair == 0) {
        flat = f;
        slicing = sl;
        curvesRebuilt = scratch.curvesRebuilt;
        slotsPlaced = scratch.slotsPlaced;
      }
    }
    std::sort(ratios.begin(), ratios.end());
    const double slicingOverFlat = ratios[ratios.size() / 2];

    SeqPairPlacerOptions so;
    so.maxSweeps = sweeps;
    so.seed = 1;
    SeqPairPlacerResult sp = placeSeqPairSA(c, so);

    HBPlacerOptions ho;
    ho.maxSweeps = sweeps;
    ho.seed = 1;
    HBPlacerResult hb = placeHBStarSA(c, ho);

    t.addRow({name, std::to_string(c.moduleCount()),
              rateK(flat.movesTried, flat.seconds),
              rateK(slicing.movesTried, slicing.seconds),
              rateK(sp.movesTried, sp.seconds),
              rateK(hb.movesTried, hb.seconds),
              Table::fmt(slicingOverFlat, 2) + "x",
              Table::fmt(static_cast<double>(curvesRebuilt) /
                             static_cast<double>(slicing.movesTried), 1),
              Table::fmt(static_cast<double>(slotsPlaced) /
                             static_cast<double>(slicing.movesTried), 1)});
    io.addRun("move-loop", "flat-bstar", name, sweeps, flat);
    io.addRun("move-loop", "slicing", name, sweeps, slicing);
    io.add("move-loop", "curves_rebuilt", "slicing", name, sweeps,
           static_cast<double>(curvesRebuilt));
    io.add("move-loop", "slots_placed", "slicing", name, sweeps,
           static_cast<double>(slotsPlaced));
    io.add("move-loop", "slicing_over_flat", "slicing", name, sweeps,
           slicingOverFlat);
    io.addRun("move-loop", "seqpair", name, sweeps, sp);
    io.addRun("move-loop", "hbstar", name, sweeps, hb);
  }
  t.print(std::cout);
  std::printf("\nmoves/sec, %zu sweeps per run, single thread; flat = full "
              "B*-tree repack per move; slicing = Polish evaluation "
              "rebuilding only the changed subtrees; seqpair = both LCS "
              "sweeps per move over cached symmetry islands; hbstar = "
              "repack of the perturbed HB*-tree node and its ancestors; "
              "every move reduces the whole placement's cost; slicing/flat = "
              "median time ratio of %zu alternating slicing and flat runs; "
              "curves/move and placed/move = slicing curves rebuilt and "
              "slots placed per move\n",
              sweeps, kRatioPairs);
}

}  // namespace

int main(int argc, char** argv) {
  BenchIo io(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) {
      std::puts("=== move-loop scaling: flat B*-tree, slicing, seqpair and "
                "HB*-tree move rates, apte .. n300 ===\n");
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
    io.add("decode", "decodes_per_s", "decode-map", corpusName(which), decodes,
           mapKernel.decodesPerSec);
    io.add("decode", "decodes_per_s", "decode-flat", corpusName(which),
           decodes, flatKernel.decodesPerSec);
    io.add("decode", "flat_over_map", "decode-flat", corpusName(which),
           decodes, speedup);
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
      moves.addRow({corpusName(which), std::string(backendName(backend)),
                    std::to_string(r.movesTried), Table::fmt(r.seconds, 3),
                    rateK(r.movesTried, r.seconds)});
      io.addRun("engine", std::string(backendName(backend)), corpusName(which),
                sweeps, r);
    }
  }
  moves.print(std::cout);
  std::printf("\nend-to-end SA throughput at %zu sweeps per run "
              "(move + decode + cost, single thread)\n",
              sweeps);
  return 0;
}
