// Placement modules (devices or device groups) and constraint groups.
//
// The constraint vocabulary follows Section III of the paper: symmetry,
// common-centroid and proximity are the basic analog layout constraints;
// symmetry groups additionally follow the Section II structure of symmetric
// pairs plus self-symmetric cells sharing one vertical axis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/rect.h"

namespace als {

using ModuleId = std::size_t;

/// One alternative realization of a module (a point on its shape curve).
struct ModuleShape {
  Coord w = 0;
  Coord h = 0;

  friend bool operator==(const ModuleShape&, const ModuleShape&) = default;
};

/// How a module is realized: a point on its shape curve, turned by 90
/// degrees or not.  Every backend encodes the choice its own way; the
/// footprint of a choice is `Module::footprint`.
struct ModuleChoice {
  std::uint8_t shape = 0;  ///< index into Module::shapes (0 = footprint)
  bool turned = false;
};

/// A placeable device-level module: name plus fixed footprint.  Rotation by
/// 90 degrees swaps w/h when `rotatable` (capacitor arrays and matched pairs
/// are typically locked).
struct Module {
  std::string name;
  Coord w = 0;
  Coord h = 0;
  bool rotatable = true;

  /// Dissipated power [W]; modules with powerW > 0 act as heat sources of
  /// the thermal-mismatch objective (thermal/thermal.h).  0 = no radiation.
  double powerW = 0.0;

  /// Discrete shape curve (shapefn-style pareto alternatives).  Empty =
  /// fixed footprint only.  When non-empty, shapes[0] is ALWAYS the declared
  /// footprint {w, h} (validated), so index 0 reproduces the legacy fixed
  /// decode and backends with shape moves disabled are bit-identical to
  /// builds that predate the curve.
  std::vector<ModuleShape> shapes;

  /// The realization rule: the (w, h) of shape `shape`, swapped when turned.
  ModuleShape footprint(std::size_t shape, bool turned) const {
    const ModuleShape s = shape == 0 ? ModuleShape{w, h} : shapes[shape];
    return turned ? ModuleShape{s.h, s.w} : s;
  }

  /// The choice read back from a placed rect (the cross-backend reseed):
  /// the first of the declared footprint, its turn, the curve points and
  /// their turns whose dims are the rect's; (0, unturned) when none are.
  ModuleChoice choiceOf(const Rect& r) const {
    const ModuleShape dims{r.w, r.h};
    if (dims == footprint(0, false)) return {};
    if (rotatable && dims == footprint(0, true)) return {0, true};
    for (bool turned : {false, true}) {
      for (std::size_t s = 1; s < shapes.size(); ++s) {
        if ((rotatable || !turned) && dims == footprint(s, turned)) {
          return {static_cast<std::uint8_t>(s), turned};
        }
      }
    }
    return {};
  }
};

/// A pair of modules required to be mirror images about the group axis.
struct SymPair {
  ModuleId a = 0;
  ModuleId b = 0;
};

/// Symmetry group: p symmetric pairs + s self-symmetric cells, one common
/// vertical axis (Section II notation: group size 2p + s).
struct SymmetryGroup {
  std::string name;
  std::vector<SymPair> pairs;
  std::vector<ModuleId> selfs;

  std::size_t memberCount() const { return 2 * pairs.size() + selfs.size(); }

  std::vector<ModuleId> members() const {
    std::vector<ModuleId> m;
    m.reserve(memberCount());
    for (const SymPair& p : pairs) {
      m.push_back(p.a);
      m.push_back(p.b);
    }
    for (ModuleId s : selfs) m.push_back(s);
    return m;
  }

  bool contains(ModuleId id) const {
    for (const SymPair& p : pairs) {
      if (p.a == id || p.b == id) return true;
    }
    for (ModuleId s : selfs) {
      if (s == id) return true;
    }
    return false;
  }

  /// sym(x) of Section II: partner of a paired cell, x itself when
  /// self-symmetric; `npos` when x is not a member.
  ModuleId symOf(ModuleId id) const {
    for (const SymPair& p : pairs) {
      if (p.a == id) return p.b;
      if (p.b == id) return p.a;
    }
    for (ModuleId s : selfs) {
      if (s == id) return s;
    }
    return npos;
  }

  static constexpr ModuleId npos = static_cast<ModuleId>(-1);
};

/// Constraint kind attached to a hierarchy node (Fig. 2).
enum class GroupConstraint {
  None,            ///< plain cluster, only placed compactly
  Symmetry,        ///< mirror placement about a vertical axis (may nest)
  CommonCentroid,  ///< interdigitated unit array with coincident centroids
  Proximity,       ///< members form one connected (possibly rectilinear) region
};

const char* toString(GroupConstraint c);

}  // namespace als
