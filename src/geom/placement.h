// A placement is a list of placed rectangles indexed by module id, together
// with the legality / quality queries every placer in the library shares:
// overlap detection, bounding box, dead space, half-perimeter wirelength and
// exact mirror-symmetry checks.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "geom/rect.h"

namespace als {

/// Placement of n modules; entry i is the placed rectangle of module i.
class Placement {
 public:
  Placement() = default;
  explicit Placement(std::size_t n) : rects_(n) {}
  explicit Placement(std::vector<Rect> rects) : rects_(std::move(rects)) {}

  std::size_t size() const { return rects_.size(); }
  bool empty() const { return rects_.empty(); }
  Rect& operator[](std::size_t i) { return rects_[i]; }
  const Rect& operator[](std::size_t i) const { return rects_[i]; }
  const std::vector<Rect>& rects() const { return rects_; }

  void push(const Rect& r) { rects_.push_back(r); }

  /// Drops all rects, keeping the storage (for scratch-buffer reuse).
  void clear() { rects_.clear(); }

  /// Re-sizes to n zero rects, reusing the storage — the scratch-buffer
  /// equivalent of constructing `Placement(n)`.
  void assign(std::size_t n) { rects_.assign(n, Rect{}); }

  /// Smallest rectangle covering all modules; zero rect when empty.
  Rect boundingBox() const;

  /// Sum of module areas.
  Coord moduleArea() const;

  /// Bounding-box area minus module area (assumes legality).
  Coord deadSpace() const { return boundingBox().area() - moduleArea(); }

  /// True when no two modules overlap (O(n^2) exact check, fine for the
  /// module counts of analog placement).
  bool isLegal() const;

  /// Index pair of the first overlapping modules, or {npos,npos}.
  std::pair<std::size_t, std::size_t> firstOverlap() const;

  /// Translates all modules so the bounding box is anchored at the origin.
  void normalize();

  /// Mirrors the whole placement about the vertical line x = axis.
  void mirrorX(Coord axis);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  std::vector<Rect> rects_;
};

/// Bounding box of one net's pin centers in *doubled* coordinates (the
/// center2x convention keeps half-DBU centers integral).  The net's HPWL
/// follows exactly from the box.  The cost layer (cost/cost_model.h)
/// reduces every net's box on every evaluation, from doubled centres it
/// computes once per placement; it keeps no per-net cache, because a
/// topological decode moves a large share of the blocks on every move.
struct NetBox {
  Coord xlo2 = 0;
  Coord xhi2 = 0;
  Coord ylo2 = 0;
  Coord yhi2 = 0;

  /// Half-perimeter wirelength of the box, in DBU (undoubled).
  Coord hpwl() const { return ((xhi2 - xlo2) + (yhi2 - ylo2)) / 2; }

  friend bool operator==(const NetBox&, const NetBox&) = default;
};

/// Reduces one net's pin centers to their bounding box; the zero box for an
/// empty net (its HPWL is 0 either way).
NetBox netBox(const Placement& p, std::span<const std::size_t> net);

/// Half-perimeter wirelength of one net given member module indices; pins are
/// modelled at module centers (standard for device-level placement).
Coord hpwl(const Placement& p, const std::vector<std::size_t>& net);

/// Sum of HPWL over all nets.
Coord totalHpwl(const Placement& p, const std::vector<std::vector<std::size_t>>& nets);

/// True when the rects form one edge-connected region: every rect reachable
/// from every other through positive-length shared edges or overlap (corner
/// contact does not connect wells).  The proximity-constraint predicate.
bool isConnectedRegion(std::span<const Rect> rects);

/// Scratch-buffer overload for per-move callers (cost/cost_model.h): the
/// union-find parent array lives in `ufScratch`, so a warm caller performs
/// no heap allocation.
bool isConnectedRegion(std::span<const Rect> rects,
                       std::vector<std::size_t>& ufScratch);

/// Exact check that modules `a` and `b` are mirror images about the vertical
/// line 2x = axis2x (doubled coordinates keep half-DBU axes exact).
bool mirroredAboutX2(const Rect& a, const Rect& b, Coord axis2x);

/// Exact check that module `a` is centered on the vertical line 2x = axis2x.
bool centeredOnX2(const Rect& a, Coord axis2x);

/// Renders a coarse ASCII picture of the placement (for examples / debugging).
std::string asciiArt(const Placement& p, const std::vector<std::string>& names,
                     int maxCols = 72);

}  // namespace als
