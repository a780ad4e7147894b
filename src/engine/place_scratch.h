// The per-worker decode scratch bundle of the engine facade.
//
// Every backend's hot loop decodes its encoding into caller-owned buffers
// (bstar/flat_placer.h, seqpair/sa_placer.h, slicing/slicing_placer.h,
// bstar/hbstar.h each define their native scratch).  `PlaceScratch` bundles
// one of each so a driver that races backends — or runs many restart slices
// on one worker thread — can hand the SAME warm buffers to every run it
// hosts, no matter which backend a slice uses.
//
// Ownership & thread-safety contract (the "scratch-reuse contract"):
//   * a scratch is an inert bag of buffers — its contents NEVER influence
//     placement results, only whether the decode loop allocates;
//   * at most one `place()` call may use a given scratch at a time; reuse
//     across sequential runs, circuits and backends is encouraged (that is
//     the point), concurrent sharing is a race;
//   * the plan executor (runtime/plan_executor.h) either creates one
//     PlaceScratch per pool worker per call — on its barrier-free route
//     each cell runs start to finish inside one task, so cells on one
//     worker run sequentially — or takes a caller's per-cell bank when
//     sessions stay alive across round barriers.  Either way the contract
//     holds by construction (per-worker scratches are per-call, not
//     per-runner: the runners stay const and stateless, which is what
//     allows concurrent callers).
#pragma once

#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"

namespace als {

struct PlaceScratch {
  FlatBStarScratch flatBStar;
  SeqPairScratch seqPair;
  SlicingScratch slicing;
  HBStarScratch hbStar;
};

/// Overload set mapping the aggregate to a backend's native sub-scratch
/// (selected by the pointer type of the backend's options field).
inline FlatBStarScratch* subScratch(PlaceScratch& s, FlatBStarScratch*) {
  return &s.flatBStar;
}
inline SeqPairScratch* subScratch(PlaceScratch& s, SeqPairScratch*) {
  return &s.seqPair;
}
inline SlicingScratch* subScratch(PlaceScratch& s, SlicingScratch*) {
  return &s.slicing;
}
inline HBStarScratch* subScratch(PlaceScratch& s, HBStarScratch*) {
  return &s.hbStar;
}

}  // namespace als
