// The decode scratch bundle a plan executor bank entry holds.
//
// Every backend's hot loop decodes its encoding into caller-owned buffers
// (bstar/flat_placer.h, seqpair/sa_placer.h, slicing/slicing_placer.h,
// bstar/hbstar.h each define their native scratch).  `PlaceScratch` bundles
// one of each so one entry of the executor's per-cell bank
// (`TemperingScratch`, runtime/plan_executor.h) serves whichever backend
// its cell runs, plan after plan.  A session borrows it through
// `makeReplicaSession`'s scratch parameter; given none, a session owns its
// buffers.  The bank stays because the exact allocation gates warm through
// it (a cold slicing session grows its curve buffers for ~100 sweeps), and
// it serves both executor routes, which stay because they differ in memory
// held (~2 KB per finished cell against ~192 KB per live cell).
//
// Ownership & thread-safety contract (the "scratch-reuse contract"):
//   * a scratch is an inert bag of buffers — its contents NEVER influence
//     placement results, only whether the decode loop allocates;
//   * at most one live session may use a given scratch at a time; reuse
//     across sequential runs, circuits and backends is encouraged (that is
//     the point), concurrent sharing is a race;
//   * the executor lends bank entry i to cell i only, so the contract
//     holds by construction and the runners stay const and stateless,
//     which is what allows concurrent callers.
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
