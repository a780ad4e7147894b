#include "bstar/pack.h"

#include <algorithm>
#include <cassert>

#include "geom/profile.h"

namespace als {

Macro Macro::fromModule(ModuleId id, Coord w, Coord h) {
  Macro m;
  m.assignFromModule(id, w, h);
  return m;
}

void Macro::assignFromModule(ModuleId id, Coord w, Coord h) {
  rects.assign(1, Rect{0, 0, w, h});
  owners.assign(1, id);
  this->w = w;
  this->h = h;
  bottom.assign(1, ProfileStep{0, w, 0});
  top.assign(1, ProfileStep{0, w, h});
}

Macro Macro::fromPlacement(const Placement& p, std::span<const ModuleId> owners,
                           bool computeProfiles) {
  Macro m;
  std::vector<Coord> cuts;
  m.assignFromPlacement(p, owners, computeProfiles, cuts);
  return m;
}

void Macro::assignFromPlacement(const Placement& p,
                                std::span<const ModuleId> ownerIds,
                                bool computeProfiles,
                                std::vector<Coord>& profileCuts) {
  assert(p.size() == ownerIds.size());
  rects.assign(p.rects().begin(), p.rects().end());
  owners.assign(ownerIds.begin(), ownerIds.end());
  // Normalize in place (same arithmetic as Placement::normalize on a copy).
  Rect bb = p.boundingBox();
  for (Rect& r : rects) {
    r.x -= bb.x;
    r.y -= bb.y;
  }
  w = bb.w;
  h = bb.h;
  if (computeProfiles) {
    bottomProfileInto(rects, bottom, profileCuts);
    topProfileInto(rects, top, profileCuts);
  } else {
    bottom.clear();
    top.clear();
  }
}

Macro Macro::mirroredX() const {
  Placement p;
  for (const Rect& r : rects) p.push(r.mirroredX(0));
  p.normalize();
  return fromPlacement(p, owners);
}

namespace {

/// The one packing loop behind both macro entry points; `macroAt(i)` maps a
/// tree item to its macro.
template <class MacroAt>
void packMacrosImpl(const BStarTree& tree, MacroAt macroAt,
                    std::size_t moduleCount, bool connected,
                    BStarPackScratch& scratch, PackedMacros& out) {
  out.placement.assign(moduleCount);
  out.anchor.assign(tree.size(), Point{0, 0});
  out.width = 0;
  out.height = 0;
  if (tree.size() == 0) return;

  scratch.contour.reset();
  scratch.x.assign(tree.size(), 0);
  if (connected) scratch.floor.assign(tree.size(), 0);
  scratch.stack.clear();
  // Preorder DFS: left child sits right of its parent, right child keeps
  // the parent's x; y comes from the contour, and in a connected packing a
  // left child never sits below its parent's bottom.
  scratch.stack.push_back(tree.root());
  while (!scratch.stack.empty()) {
    std::size_t node = scratch.stack.back();
    scratch.stack.pop_back();
    const Macro& m = macroAt(tree.item(node));
    Coord xNode = scratch.x[node];
    Coord yNode = scratch.contour.fitMacro(xNode, m.bottom);
    if (connected) yNode = std::max(yNode, scratch.floor[node]);
    scratch.contour.placeMacro(xNode, yNode, m.top);
    out.anchor[tree.item(node)] = {xNode, yNode};
    for (std::size_t r = 0; r < m.rects.size(); ++r) {
      out.placement[m.owners[r]] = m.rects[r].translated(xNode, yNode);
    }
    out.width = std::max(out.width, xNode + m.w);
    out.height = std::max(out.height, yNode + m.h);
    if (tree.right(node) != BStarTree::npos) {
      scratch.x[tree.right(node)] = xNode;
      scratch.stack.push_back(tree.right(node));
    }
    if (tree.left(node) != BStarTree::npos) {
      scratch.x[tree.left(node)] = xNode + m.w;
      if (connected) scratch.floor[tree.left(node)] = yNode;
      scratch.stack.push_back(tree.left(node));
    }
  }
}

}  // namespace

PackedMacros packMacros(const BStarTree& tree, std::span<const Macro> macros,
                        std::size_t moduleCount) {
  assert(tree.size() == macros.size());
  BStarPackScratch scratch;
  PackedMacros out;
  packMacrosImpl(
      tree, [&](std::size_t item) -> const Macro& { return macros[item]; },
      moduleCount, /*connected=*/false, scratch, out);
  return out;
}

void packMacrosInto(const BStarTree& tree, std::span<const Macro* const> macros,
                    std::size_t moduleCount, bool connected,
                    BStarPackScratch& scratch, PackedMacros& out) {
  assert(tree.size() == macros.size());
  packMacrosImpl(
      tree, [&](std::size_t item) -> const Macro& { return *macros[item]; },
      moduleCount, connected, scratch, out);
}

Placement packBStar(const BStarTree& tree, std::span<const Coord> widths,
                    std::span<const Coord> heights) {
  BStarPackScratch scratch;
  Placement out;
  packBStarInto(tree, widths, heights, scratch, out);
  return out;
}

void packBStarInto(const BStarTree& tree, std::span<const Coord> widths,
                   std::span<const Coord> heights, BStarPackScratch& scratch,
                   Placement& out) {
  assert(widths.size() == tree.size() && heights.size() == tree.size());
  out.assign(tree.size());
  if (tree.size() == 0) return;

  scratch.contour.reset();
  scratch.x.assign(tree.size(), 0);
  scratch.stack.clear();
  scratch.stack.push_back(tree.root());
  while (!scratch.stack.empty()) {
    std::size_t node = scratch.stack.back();
    scratch.stack.pop_back();
    std::size_t item = tree.item(node);
    Coord w = widths[item];
    Coord h = heights[item];
    Coord xNode = scratch.x[node];
    // A plain module is a flat macro: fitMacro degenerates to one maxOver
    // and placeMacro to one raise.
    Coord yNode = scratch.contour.maxOver(xNode, xNode + w);
    scratch.contour.raise(xNode, xNode + w, yNode + h);
    out[item] = {xNode, yNode, w, h};
    if (tree.right(node) != BStarTree::npos) {
      scratch.x[tree.right(node)] = xNode;
      scratch.stack.push_back(tree.right(node));
    }
    if (tree.left(node) != BStarTree::npos) {
      scratch.x[tree.left(node)] = xNode + w;
      scratch.stack.push_back(tree.left(node));
    }
  }
}

std::size_t packBStarPartialInto(const BStarTree& tree,
                                 std::span<const Coord> widths,
                                 std::span<const Coord> heights,
                                 BStarPackScratch& scratch, Placement& out) {
  packBStarInto(tree, widths, heights, scratch, out);
  return 0;
}

}  // namespace als
