// The decode scratch bundle a plan executor bank entry holds.
//
// Every backend's hot loop decodes its encoding into caller-owned buffers
// (bstar/flat_placer.h, seqpair/sa_placer.h, slicing/slicing_placer.h,
// bstar/hbstar.h each define their native scratch).  `PlaceScratch` bundles
// one of each so one entry of the executor's per-cell bank
// (`TemperingScratch`, runtime/plan_executor.h) serves whichever backend
// its cell runs, plan after plan.  A session borrows its backend's entry
// (`std::get<Backend::Scratch>`) through `makeReplicaSession`'s scratch
// parameter, which hands it to `AnnealSession` (anneal/session.h), the one
// place a scratch is lent; given none, the session decodes into buffers of
// its own.  The bank stays because the exact allocation gates warm through
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
//   * a cache inside a scratch is keyed on its inputs, never on which
//     circuit used the scratch last (the sequence-pair island signature,
//     the HB*-tree encoding stamps; `HBPackScratch::bind` runs once per
//     session), so no decode re-checks a binding;
//   * the executor lends bank entry i to cell i only, so the contract
//     holds by construction and the runners stay const and stateless,
//     which is what allows concurrent callers.
#pragma once

#include <tuple>

#include "bstar/flat_placer.h"
#include "bstar/hbstar.h"
#include "seqpair/sa_placer.h"
#include "slicing/slicing_placer.h"

namespace als {

/// One native scratch per backend, found by type.
struct PlaceScratch : std::tuple<FlatBStarScratch, SeqPairScratch,
                                 SlicingScratch, HBStarScratch> {};

}  // namespace als
