// Benchmark exchange I/O: a Bookshelf/YAL-style text format mapped onto the
// library's Circuit/Hierarchy model, so the engine can place real benchmark
// files (MCNC-style block sets) instead of only in-process generated
// netlists.
//
// The format ("ALSBENCH 1") is line-oriented; `#` starts a comment, blank
// lines are ignored, and sections appear in a fixed order:
//
//   ALSBENCH 1
//   Circuit <name ...>                       # rest of line, spaces allowed
//   NumBlocks <n>
//   Block <name> <w> <h> [norotate]          # hard block, DBU
//   SoftBlock <name> <area> <loAspect> <hiAspect> [norotate]
//   NumNets <n>                              # optional section (default 0)
//   Net <name> <npins> <blockname...> [weight]
//   NumSymGroups <n>                         # optional section (default 0)
//   SymGroup <name> <npairs> <nselfs>
//   SymPair <a> <b>
//   SymSelf <a>
//   NumPower <n>                             # optional section (default 0)
//   Power <blockname> <watts>
//   NumShapes <n>                            # optional section (default 0)
//   Shape <blockname> <k> <w1> <h1> ... <wk> <hk>
//   NumHierNodes <n>                         # optional section
//   Leaf <nodename> <blockname>
//   Group <nodename> <constraint> <symgroup|-> <nchildren> <child-ids...>
//   Root <node-id>
//
// Soft blocks carry an area and an aspect-ratio range (w/h in [lo, hi]);
// the parser resolves them deterministically to the hard footprint whose
// aspect is closest to 1 inside the range, so every downstream placer sees
// a fixed footprint — and, for the shape-selection move, a deterministic
// discretized curve of alternative realizations (Module::shapes), which an
// explicit Shape line overrides.  Power lines annotate thermally radiating
// blocks (Module::powerW, the thermal objective's source list); Shape lines
// list alternative footprints — the declared Block footprint is never
// listed, it always opens the curve.  Both sections are validated like
// every other (unknown blocks, duplicates, caps and non-positive values are
// rejected) and both round-trip exactly.
//
// Beyond the per-field caps, a whole circuit must fit the numeric envelope
// of the exact int64 cost aggregates: the sum over blocks of each block's
// largest side (any orientation or shape alternative) bounds every packing
// extent, and must stay at or below about 7.6e8 DBU so that area, HPWL and
// symmetry sums keep 16x headroom in int64.  A circuit past it is rejected
// with the line of the block that crosses it.
//
// The hierarchy section serializes `HierTree` nodes in node-id order
// (children reference earlier ids), which makes a write -> parse round trip
// reconstruct the tree with *identical node ids* — load-bearing for the
// round-trip property test: the HB*-tree placer's perturbation schedule
// walks nodes by id, so only an id-exact reconstruction anneals
// bit-identically.  Files without the section get a canonical hierarchy
// (one symmetry node per group, free blocks clustered in id order) so the
// hierarchical backends accept plain block/net files.
//
// The parser never throws and never asserts on malformed input: every
// count, id and cross-reference is validated (including the hierarchy
// invariants the HB*-tree placer otherwise enforces with asserts), and
// errors come back as "line N: message" strings — tests/fuzz_test.cpp
// throws truncated and corrupted text at it under ASan/UBSan.
#pragma once

#include <string>
#include <string_view>

#include "netlist/circuit.h"

namespace als {

struct ParseResult {
  Circuit circuit;
  std::string error;  ///< empty on success, else "line N: message"

  bool ok() const { return error.empty(); }
};

/// Parses benchmark text into a Circuit (with a hierarchy tree, synthesized
/// canonically when the file carries none).  On failure `circuit` is
/// unspecified and `error` says why.
ParseResult parseBenchmark(std::string_view text);

/// Reads `path` and parses its contents; I/O failures are reported through
/// `error` like parse failures.
ParseResult parseBenchmarkFile(const std::string& path);

struct WriteResult {
  std::string text;   ///< complete benchmark file contents
  std::string error;  ///< empty on success (e.g. unserializable names)

  bool ok() const { return error.empty(); }
};

/// Serializes a circuit (modules, nets, symmetry groups, hierarchy) so that
/// `parseBenchmark(writeBenchmark(c).text)` reconstructs it structurally
/// identically, including hierarchy node ids.  Fails when names are not
/// serializable (empty / embedded whitespace / '#') or block, net or group
/// names collide.
WriteResult writeBenchmark(const Circuit& circuit);

/// Writes `writeBenchmark(circuit)` to `path`; returns false and fills
/// `*error` (when given) on serialization or I/O failure.
bool writeBenchmarkFile(const std::string& path, const Circuit& circuit,
                        std::string* error = nullptr);

/// Builds the canonical hierarchy the parser synthesizes for files without
/// a hierarchy section: one leaf per module (node id == module id), one
/// Symmetry node per symmetry group over its member leaves, remaining free
/// leaves clustered four at a time in id order (small basic sets keep the
/// Section-IV deterministic placer's exhaustive enumeration tractable), all
/// under one root group.  Replaces any existing hierarchy.
void buildCanonicalHierarchy(Circuit& circuit);

}  // namespace als
