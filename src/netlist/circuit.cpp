#include "netlist/circuit.h"

#include <cmath>
#include <set>

namespace als {

const char* toString(GroupConstraint c) {
  switch (c) {
    case GroupConstraint::None: return "none";
    case GroupConstraint::Symmetry: return "symmetry";
    case GroupConstraint::CommonCentroid: return "common-centroid";
    case GroupConstraint::Proximity: return "proximity";
  }
  return "?";
}

ModuleId Circuit::addModule(std::string name, Coord w, Coord h, bool rotatable) {
  Module m;
  m.name = std::move(name);
  m.w = w;
  m.h = h;
  m.rotatable = rotatable;
  modules_.push_back(std::move(m));
  return modules_.size() - 1;
}

std::size_t Circuit::addNet(std::string name, std::vector<ModuleId> pins, double weight) {
  nets_.push_back({std::move(name), std::move(pins), weight});
  return nets_.size() - 1;
}

std::size_t Circuit::addSymmetryGroup(SymmetryGroup group) {
  symGroups_.push_back(std::move(group));
  return symGroups_.size() - 1;
}

Coord Circuit::totalModuleArea() const {
  Coord a = 0;
  for (const Module& m : modules_) a += m.w * m.h;
  return a;
}

std::vector<std::vector<std::size_t>> Circuit::netPins() const {
  std::vector<std::vector<std::size_t>> out;
  out.reserve(nets_.size());
  for (const Net& n : nets_) out.push_back(n.pins);
  return out;
}

std::vector<std::string> Circuit::moduleNames() const {
  std::vector<std::string> names;
  names.reserve(modules_.size());
  for (const Module& m : modules_) names.push_back(m.name);
  return names;
}

bool Circuit::validate(std::string* whyNot) const {
  auto fail = [&](const std::string& msg) {
    if (whyNot) *whyNot = msg;
    return false;
  };
  for (const Module& m : modules_) {
    if (m.w <= 0 || m.h <= 0) return fail("module '" + m.name + "' has empty footprint");
    if (!(m.powerW >= 0.0) || !std::isfinite(m.powerW)) {
      return fail("module '" + m.name + "' has a negative or non-finite power");
    }
    if (!m.shapes.empty() && (m.shapes[0].w != m.w || m.shapes[0].h != m.h)) {
      return fail("module '" + m.name + "' shape curve does not start at its footprint");
    }
    for (const ModuleShape& s : m.shapes) {
      if (s.w <= 0 || s.h <= 0) return fail("module '" + m.name + "' has an empty shape");
    }
  }
  for (const Net& n : nets_) {
    for (ModuleId p : n.pins) {
      if (p >= modules_.size()) return fail("net '" + n.name + "' has out-of-range pin");
    }
  }
  std::set<ModuleId> seen;
  for (const SymmetryGroup& g : symGroups_) {
    for (ModuleId m : g.members()) {
      if (m >= modules_.size()) return fail("group '" + g.name + "' out-of-range member");
      if (!seen.insert(m).second) {
        return fail("module " + modules_[m].name + " in two symmetry groups");
      }
    }
    for (const SymPair& p : g.pairs) {
      // A symmetric pair must be mirrorable: identical footprints.
      if (modules_[p.a].w != modules_[p.b].w || modules_[p.a].h != modules_[p.b].h) {
        return fail("group '" + g.name + "' pairs modules of different size");
      }
    }
  }
  return true;
}

}  // namespace als
