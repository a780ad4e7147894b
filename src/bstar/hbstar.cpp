#include "bstar/hbstar.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "anneal/session.h"
#include "bstar/common_centroid.h"

namespace als {

namespace {

/// Process-global encoding-version source.  Starting at 1 keeps 0 free as
/// the "never packed" sentinel of HBPackScratch::NodeBuf.
std::atomic<std::uint64_t> gHBStamp{1};

std::uint64_t nextStamp() {
  return gHBStamp.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void HBPackScratch::bind(const Circuit& circuit) {
  const HierTree& h = circuit.hierarchy();
  // The cached common-centroid macros are pure functions of (CC node ids,
  // their unit module ids, unit footprints).  Staleness detection compares
  // that exact input — never the circuit's address, which a later circuit
  // can legitimately reuse.  The comparison is a flat integer scan, so a
  // warm steady-state bind stays allocation-free.
  sigScratch_.clear();
  sigScratch_.push_back(static_cast<Coord>(h.nodeCount()));
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    const HierNode& n = h.node(id);
    if (n.isLeaf() || n.children.empty() ||
        n.constraint != GroupConstraint::CommonCentroid) {
      continue;
    }
    sigScratch_.push_back(static_cast<Coord>(id));
    sigScratch_.push_back(static_cast<Coord>(n.children.size()));
    for (HierNodeId child : n.children) {
      assert(h.node(child).isLeaf());
      ModuleId m = *h.node(child).module;
      sigScratch_.push_back(static_cast<Coord>(m));
      sigScratch_.push_back(circuit.module(m).w);
      sigScratch_.push_back(circuit.module(m).h);
    }
  }
  if (node.size() == h.nodeCount() && sigScratch_ == signature_) return;
  signature_ = sigScratch_;
  node.clear();  // drop stale per-node state from a previous circuit
  node.resize(h.nodeCount());
  // Common-centroid node macros are cached once per binding so the
  // per-move pack skips both the grid construction and its profiles
  // (their unit leaves never rotate or perturb).
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    const HierNode& n = h.node(id);
    if (n.isLeaf() || n.children.empty() ||
        n.constraint != GroupConstraint::CommonCentroid) {
      continue;
    }
    std::vector<ModuleId> units;
    Coord unitW = 0, unitH = 0;
    for (HierNodeId child : n.children) {
      ModuleId m = *h.node(child).module;
      units.push_back(m);
      unitW = std::max(unitW, circuit.module(m).w);
      unitH = std::max(unitH, circuit.module(m).h);
    }
    node[id].macro = commonCentroidGrid(units, unitW, unitH);
  }
}

HBState::HBState(const Circuit& circuit) : circuit_(&circuit) {
  const HierTree& h = circuit.hierarchy();
  assert(!h.empty() && "HB*-tree placement needs a hierarchy tree");
  trees_.resize(h.nodeCount());
  islands_.resize(h.nodeCount());
  rotated_.assign(circuit.moduleCount(), false);
  shapeIdx_.assign(circuit.moduleCount(), 0);
  // Fresh stamps per node: a new state never aliases a scratch's cache.
  stamp_.resize(h.nodeCount());
  for (std::uint64_t& s : stamp_) s = nextStamp();
  leafNodeOf_.assign(circuit.moduleCount(), static_cast<HierNodeId>(-1));
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    const HierNode& nd = h.node(id);
    if (nd.isLeaf() && nd.module) leafNodeOf_[*nd.module] = id;
  }

  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    const HierNode& node = h.node(id);
    if (node.isLeaf() || node.children.empty()) continue;
    switch (node.constraint) {
      case GroupConstraint::Symmetry: {
        // Items are assembled at pack time (sub-macros change shape); the
        // island object only fixes the representative tree structure.  Item
        // order: leaf pairs, leaf selfs, sub-circuit macro pairs.
        assert(node.symGroup.has_value() &&
               "symmetry hierarchy node needs its symmetry group");
        const SymmetryGroup& g = circuit.symmetryGroup(*node.symGroup);
        std::vector<AsfItem> items;
        for (const SymPair& pr : g.pairs) {
          const Module& m = circuit.module(pr.a);
          items.push_back(AsfItem::pairModules(pr.a, pr.b, m.w, m.h));
        }
        for (ModuleId s : g.selfs) {
          const Module& m = circuit.module(s);
          items.push_back(AsfItem::selfModule(s, m.w, m.h));
        }
        std::size_t subNodes = 0;
        for (HierNodeId c : node.children) {
          if (!h.node(c).isLeaf()) ++subNodes;
        }
        assert(subNodes % 2 == 0 &&
               "hierarchical symmetry pairs sub-circuits two by two");
        for (std::size_t p = 0; p < subNodes / 2; ++p) {
          items.push_back(AsfItem::pairMacros(Macro{}, {}));  // filled at pack
        }
        islands_[id].emplace(std::move(items));
        perturbable_.push_back(id);
        break;
      }
      case GroupConstraint::CommonCentroid:
        // Fixed gridded macro; nothing to perturb.
        break;
      case GroupConstraint::Proximity:
      case GroupConstraint::None: {
        trees_[id].emplace(node.children.size());
        perturbable_.push_back(id);
        break;
      }
    }
  }

  // Rotations: leaves under None/Proximity nodes whose module is rotatable.
  for (HierNodeId id = 0; id < h.nodeCount(); ++id) {
    const HierNode& node = h.node(id);
    if (node.isLeaf() || node.children.empty()) continue;
    if (node.constraint != GroupConstraint::None &&
        node.constraint != GroupConstraint::Proximity) {
      continue;
    }
    for (HierNodeId c : node.children) {
      const HierNode& child = h.node(c);
      if (child.isLeaf() && circuit.module(*child.module).rotatable) {
        freeRotatable_.push_back(*child.module);
      }
      if (child.isLeaf() && circuit.module(*child.module).shapes.size() > 1) {
        freeShapy_.push_back(*child.module);
      }
    }
  }
}

void HBState::enableShapeMoves(double prob) {
  shapeMoveProb_ = freeShapy_.empty() ? 0.0 : prob;
}

void HBState::perturb(Rng& rng) {
  if (shapeMoveProb_ > 0.0 && rng.uniform() < shapeMoveProb_) {
    ModuleId m = freeShapy_[rng.index(freeShapy_.size())];
    shapeIdx_[m] = static_cast<std::uint8_t>(
        rng.index(circuit_->module(m).shapes.size()));
    stamp_[leafNodeOf_[m]] = nextStamp();
    return;
  }
  bool rotate = !freeRotatable_.empty() && rng.uniform() < 0.15;
  if (rotate) {
    ModuleId m = freeRotatable_[rng.index(freeRotatable_.size())];
    rotated_[m] = !rotated_[m];
    stamp_[leafNodeOf_[m]] = nextStamp();
    return;
  }
  if (perturbable_.empty()) return;
  std::size_t id = perturbable_[rng.index(perturbable_.size())];
  if (trees_[id]) {
    trees_[id]->perturb(rng);
  } else if (islands_[id]) {
    islands_[id]->perturb(rng);
  }
  stamp_[id] = nextStamp();
}

bool HBState::packNodeInto(HierNodeId id, bool needProfiles,
                           HBPackScratch& s) const {
  const Circuit& c = *circuit_;
  const HierTree& h = c.hierarchy();
  const HierNode& node = h.node(id);
  HBPackScratch::NodeBuf& buf = s.node[id];

  if (node.isLeaf()) {
    if (buf.stamp == stamp_[id]) return false;  // cached footprint is current
    buf.axes.clear();
    ModuleId m = *node.module;
    const Module& mod = c.module(m);
    Coord bw = mod.w, bh = mod.h;
    if (std::uint8_t si = shapeIdx_[m]; si != 0) {
      bw = mod.shapes[si].w;
      bh = mod.shapes[si].h;
    }
    Coord w = rotated_[m] ? bh : bw;
    Coord hh = rotated_[m] ? bw : bh;
    buf.macro.assignFromModule(m, w, hh);
    buf.stamp = stamp_[id];
    return true;
  }

  if (node.constraint == GroupConstraint::CommonCentroid) {
    // Fixed gridded macro, cached by HBPackScratch::bind; never stale.
    return false;
  }

  if (node.constraint == GroupConstraint::Symmetry) {
    assert(islands_[id].has_value());
    // Pack the sub-circuits, refresh the macro-pair items from them in the
    // per-node work copy (the state island stays untouched), then pack the
    // island.  Axes of nested groups translate through the island frame;
    // mirrored partner groups inherit the mirrored axis.
    buf.subs.clear();
    for (HierNodeId child : node.children) {
      if (!h.node(child).isLeaf()) buf.subs.push_back(child);
    }
    bool childChanged = false;
    for (HierNodeId sub : buf.subs) {
      if (packNodeInto(sub, /*needProfiles=*/true, s)) childChanged = true;
    }
    if (!childChanged && buf.stamp == stamp_[id]) return false;
    buf.axes.clear();

    buf.islandWork = *islands_[id];  // copy-assign: reuses the work buffers
    // Macro-pair items appear after the leaf pair/self items, in order.
    const std::vector<AsfItem>& items = buf.islandWork.items();
    std::size_t macroItem = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].kind == AsfItem::Kind::PairMacros) {
        std::size_t p = macroItem++;
        const Macro& rightMacro = s.node[buf.subs[2 * p]].macro;
        const Macro& leftMacro = s.node[buf.subs[2 * p + 1]].macro;
        // Mirrored partner: owner list of the left sub-circuit, matched by
        // position to the right one's rect order.  The sub-circuits must be
        // structurally identical (matched sub-trees), which the circuit
        // generators guarantee for symmetric hierarchies.
        assert(rightMacro.owners.size() == leftMacro.owners.size());
        buf.islandWork.refreshPairMacro(i, rightMacro, leftMacro.owners);
      }
    }
    Coord axis2x = 0;
    buf.islandWork.packInto(s.asf, needProfiles, buf.macro, axis2x);

    if (node.symGroup) buf.axes.push_back({*node.symGroup, axis2x});
    // Nested sub-group axes: locate each sub-macro's rects in the island to
    // recover its translation.  The right copy keeps orientation; the
    // mirrored copy's nested axes mirror about the island axis.
    // For simplicity and exactness we recover translation via the first
    // owner module's rect.
    for (std::size_t p = 0; p < buf.subs.size() / 2; ++p) {
      const HBPackScratch::NodeBuf& rightBuf = s.node[buf.subs[2 * p]];
      for (const auto& [group, localAxis] : rightBuf.axes) {
        ModuleId probe = rightBuf.macro.owners.front();
        // Find probe's rect in the island macro.
        for (std::size_t r = 0; r < buf.macro.owners.size(); ++r) {
          if (buf.macro.owners[r] == probe) {
            Coord dx = buf.macro.rects[r].x - rightBuf.macro.rects.front().x;
            buf.axes.push_back({group, localAxis + 2 * dx});
            break;
          }
        }
      }
    }
    buf.stamp = stamp_[id];
    return true;
  }

  // Proximity / None: sub-B*-tree over the children.
  assert(trees_[id].has_value());
  const BStarTree& tree = *trees_[id];
  bool childChanged = false;
  for (HierNodeId child : node.children) {
    if (packNodeInto(child, /*needProfiles=*/true, s)) childChanged = true;
  }
  if (!childChanged && buf.stamp == stamp_[id]) return false;
  buf.axes.clear();
  s.childMacros.clear();
  for (HierNodeId child : node.children) {
    s.childMacros.push_back(&s.node[child].macro);
  }
  packMacrosInto(tree, s.childMacros, c.moduleCount(),
                 node.constraint == GroupConstraint::Proximity, s.tree, s.packed);

  // Collect the placed rects of modules under this node into one macro.
  h.leavesUnderInto(id, s.dfsStack, s.leaves);
  s.sub.clear();
  s.owners.clear();
  for (ModuleId m : s.leaves) {
    s.sub.push(s.packed.placement[m]);
    s.owners.push_back(m);
  }
  Rect bb = s.sub.boundingBox();
  buf.macro.assignFromPlacement(s.sub, s.owners, needProfiles, s.profileCuts);
  // Child axes translate by the child's anchor, then by -bb offset from
  // the normalization inside assignFromPlacement.
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    for (const auto& [group, localAxis] : s.node[node.children[i]].axes) {
      Coord dx = s.packed.anchor[i].x - bb.x;
      buf.axes.push_back({group, localAxis + 2 * dx});
    }
  }
  buf.stamp = stamp_[id];
  return true;
}

HBState::Packed HBState::pack() const {
  HBPackScratch scratch;
  Packed out;
  packInto(scratch, out);
  return out;
}

void HBState::packInto(HBPackScratch& scratch, Packed& out) const {
  const Circuit& c = *circuit_;
  scratch.bind(c);
  const HierNodeId root = c.hierarchy().root();
  packNodeInto(root, /*needProfiles=*/false, scratch);
  const HBPackScratch::NodeBuf& top = scratch.node[root];
  out.placement.assign(c.moduleCount());
  for (std::size_t r = 0; r < top.macro.rects.size(); ++r) {
    out.placement[top.macro.owners[r]] = top.macro.rects[r];
  }
  out.axis2x.assign(c.symmetryGroups().size(), 0);
  for (const auto& [group, axis] : top.axes) out.axis2x[group] = axis;
  Rect bb = out.placement.boundingBox();
  out.width = bb.w;
  out.height = bb.h;

#ifndef NDEBUG
  // Debug oracle: the stamp-cached pack must equal a cold full pack (the
  // guard stops the oracle from re-triggering itself).
  static thread_local bool inOracle = false;
  if (!inOracle) {
    inOracle = true;
    HBPackScratch oracleScratch;
    Packed oracle;
    packInto(oracleScratch, oracle);
    inOracle = false;
    assert(oracle.placement.size() == out.placement.size());
    for (std::size_t m = 0; m < c.moduleCount(); ++m) {
      assert(out.placement[m] == oracle.placement[m] &&
             "node-local HB repack diverged from full pack");
    }
    assert(out.axis2x == oracle.axis2x && out.width == oracle.width &&
           out.height == oracle.height);
  }
#endif
}

HBStarBackend::HBStarBackend(const Circuit& c, const Options& o)
    : circuit(c),
      options(o),
      // Hierarchy constraints hold by construction in every packed state,
      // so the objective is the geometric core: area + normalized
      // wirelength plus, when weighted, thermal pair mismatch.
      model(c, makeObjective(c, {.wirelength = o.wirelengthWeight,
                                 .thermal = o.thermalWeight})),
      scr(o.scratch ? *o.scratch : localScratch) {}

HBState HBStarBackend::initialState() const {
  HBState init(circuit);
  init.enableShapeMoves(options.shapeMoveProb);
  return init;
}

const Placement* HBStarBackend::decode(const State& s) {
  s.packInto(scr.pack, scr.packed);
  return &scr.packed.placement;
}

HBPlacerResult HBStarBackend::finish(State best) {
  HBPlacerResult result;
  best.packInto(scr.pack, scr.packed);
  result.placement = scr.packed.placement;
  result.axis2x = scr.packed.axis2x;
  return result;
}

HBPlacerResult placeHBStarSA(const Circuit& circuit,
                             const HBPlacerOptions& options) {
  return AnnealSession<HBStarBackend>(circuit, options).finish();
}

}  // namespace als
