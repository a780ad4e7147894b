// Circuit container: modules, nets, symmetry groups, hierarchy tree.
#pragma once

#include <string>
#include <vector>

#include "netlist/hierarchy.h"
#include "netlist/module.h"

namespace als {

/// A net is a list of member modules; pins are modelled at module centers.
struct Net {
  std::string name;
  std::vector<ModuleId> pins;
  double weight = 1.0;
};

class Circuit {
 public:
  explicit Circuit(std::string name = "circuit") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  ModuleId addModule(std::string name, Coord w, Coord h, bool rotatable = true);
  std::size_t addNet(std::string name, std::vector<ModuleId> pins, double weight = 1.0);
  std::size_t addSymmetryGroup(SymmetryGroup group);

  std::size_t moduleCount() const { return modules_.size(); }
  const Module& module(ModuleId id) const { return modules_[id]; }
  Module& module(ModuleId id) { return modules_[id]; }
  const std::vector<Module>& modules() const { return modules_; }

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<SymmetryGroup>& symmetryGroups() const { return symGroups_; }
  const SymmetryGroup& symmetryGroup(std::size_t i) const { return symGroups_[i]; }

  HierTree& hierarchy() { return hier_; }
  const HierTree& hierarchy() const { return hier_; }

  /// Sum of module footprint areas (lower bound on any placement area).
  Coord totalModuleArea() const;

  /// Pin lists of all nets, in the shape the geometry HPWL helpers expect.
  std::vector<std::vector<std::size_t>> netPins() const;

  /// Module names indexed by id (for reporting / ASCII art).
  std::vector<std::string> moduleNames() const;

  /// Basic sanity: ids in range, symmetry groups disjoint, positive sizes.
  bool validate(std::string* whyNot = nullptr) const;

 private:
  std::string name_;
  std::vector<Module> modules_;
  std::vector<Net> nets_;
  std::vector<SymmetryGroup> symGroups_;
  HierTree hier_;
};

}  // namespace als
