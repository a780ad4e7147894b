#include "io/benchmark_format.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "shapefn/shape_function.h"

namespace als {

namespace {

// Sanity caps: large enough for any real benchmark, small enough that a
// corrupted count can neither overflow area arithmetic nor drive the parse
// loops into pathological work.
constexpr std::size_t kMaxCount = 1'000'000;
constexpr Coord kMaxCoord = 1'000'000'000;      // 1 m in DBU (nm)
constexpr double kMaxSoftArea = 1e15;           // DBU^2
constexpr double kMinAspect = 1e-3, kMaxAspect = 1e3;
constexpr double kMaxPowerW = 1e6;              // per-block dissipation cap
constexpr std::size_t kMaxShapeAlts = 64;       // alternatives per Shape line
constexpr std::size_t kSoftShapeCap = 8;        // auto-derived soft curves

// Numeric envelope of the exact int64 cost aggregates (cost/cost_model.h).
// Every block is placed once, in some orientation and shape alternative, so
// any packing fits in a square of side E = sum over blocks of the largest
// side any realization has.  The symmetric-island constructions add gaps
// (an island is at most about twice its cells' widths), and the headroom
// factor 16 = 4^2 allows extents up to 4E: the bounding-box area stays
// inside int64 when E^2 fits in kEnvelope, and so does the total block
// area (sum of w*h <= E^2).  Each net's doubled-centre
// box spans at most 2 * 4E per axis, so its HPWL is at most 8E, and the
// symmetry deviation is at most 8E per block; the count cap bounds both
// sums (static_assert below).  A circuit past the envelope is rejected at
// parse time instead of overflowing silently.
constexpr Coord kEnvelope = std::numeric_limits<Coord>::max() / 16;

constexpr Coord isqrt(Coord v) {
  Coord lo = 0, hi = 3'037'000'499;  // floor(sqrt(INT64_MAX))
  while (lo < hi) {
    Coord mid = lo + (hi - lo + 1) / 2;
    if (mid * mid <= v) lo = mid;
    else hi = mid - 1;
  }
  return lo;
}

constexpr Coord kMaxExtent = isqrt(kEnvelope);
static_assert(static_cast<Coord>(kMaxCount) * 8 * kMaxExtent <= kEnvelope,
              "the count cap must keep HPWL and deviation sums in int64");

struct Line {
  std::size_t number = 0;                // 1-based line in the source text
  std::vector<std::string_view> tokens;  // whitespace-split, comment-stripped
  std::string_view rest1;                // text after the first token
};

bool isSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view trimmed(std::string_view s) {
  while (!s.empty() && isSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && isSpace(s.back())) s.remove_suffix(1);
  return s;
}

/// Splits `text` into non-empty, comment-stripped token lines.
std::vector<Line> tokenize(std::string_view text) {
  std::vector<Line> lines;
  std::size_t lineNo = 0;
  while (!text.empty()) {
    ++lineNo;
    std::size_t eol = text.find('\n');
    std::string_view raw = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (std::size_t hash = raw.find('#'); hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    raw = trimmed(raw);
    if (raw.empty()) continue;

    Line line;
    line.number = lineNo;
    std::string_view cursor = raw;
    while (!cursor.empty()) {
      std::size_t start = 0;
      while (start < cursor.size() && isSpace(cursor[start])) ++start;
      cursor.remove_prefix(start);
      if (cursor.empty()) break;
      std::size_t end = 0;
      while (end < cursor.size() && !isSpace(cursor[end])) ++end;
      line.tokens.push_back(cursor.substr(0, end));
      if (line.tokens.size() == 1) line.rest1 = trimmed(cursor.substr(end));
      cursor.remove_prefix(end);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : lines_(tokenize(text)) {}

  ParseResult run() {
    ParseResult out;
    if (!parseHeader() || !parseBlocks() || !parseNets() || !parseSymGroups() ||
        !parsePower() || !parseShapes() || !parseHierarchy()) {
      // Every failure path should have recorded a message; the fallback
      // guarantees ok() can never be true for a rejected file.
      out.error = error_.empty() ? "malformed benchmark text" : error_;
      return out;
    }
    if (next_ < lines_.size()) {
      out.error = fail(lines_[next_], "unexpected trailing content '" +
                                          std::string(lines_[next_].tokens[0]) +
                                          "'");
      return out;
    }
    deriveSoftCurves();
    if (!checkEnvelope()) {
      out.error = error_;
      return out;
    }
    if (circuit_.hierarchy().empty()) buildCanonicalHierarchy(circuit_);
    std::string why;
    if (!circuit_.validate(&why)) {
      out.error = "circuit fails validation: " + why;
      return out;
    }
    out.circuit = std::move(circuit_);
    return out;
  }

 private:
  // --- low-level helpers -------------------------------------------------

  std::string fail(const Line& line, std::string message) {
    return "line " + std::to_string(line.number) + ": " + std::move(message);
  }

  bool error(const Line& line, std::string message) {
    if (error_.empty()) error_ = fail(line, std::move(message));
    return false;
  }

  bool atEnd() const { return next_ >= lines_.size(); }

  /// The next line iff its keyword matches; does not consume.
  const Line* peek(std::string_view keyword) const {
    if (atEnd() || lines_[next_].tokens[0] != keyword) return nullptr;
    return &lines_[next_];
  }

  /// Consumes and returns the next line, which must start with `keyword`.
  const Line* expect(std::string_view keyword) {
    if (atEnd()) {
      if (error_.empty()) {
        error_ = "unexpected end of file: expected '" + std::string(keyword) + "'";
      }
      return nullptr;
    }
    const Line& line = lines_[next_];
    if (line.tokens[0] != keyword) {
      error(line, "expected '" + std::string(keyword) + "', got '" +
                      std::string(line.tokens[0]) + "'");
      return nullptr;
    }
    ++next_;
    return &line;
  }

  bool parseSize(const Line& line, std::string_view token, std::size_t max,
                 std::size_t* out) {
    std::uint64_t v = 0;
    auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
    if (ec != std::errc() || p != token.end() || v > max) {
      return error(line, "bad count '" + std::string(token) + "'");
    }
    *out = static_cast<std::size_t>(v);
    return true;
  }

  bool parseCoord(const Line& line, std::string_view token, Coord* out) {
    Coord v = 0;
    auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
    if (ec != std::errc() || p != token.end() || v <= 0 || v > kMaxCoord) {
      return error(line, "bad dimension '" + std::string(token) + "'");
    }
    *out = v;
    return true;
  }

  bool parseDouble(const Line& line, std::string_view token, double lo,
                   double hi, double* out) {
    double v = 0.0;
    auto [p, ec] = std::from_chars(token.begin(), token.end(), v);
    if (ec != std::errc() || p != token.end() || !std::isfinite(v) || v < lo ||
        v > hi) {
      return error(line, "bad number '" + std::string(token) + "'");
    }
    *out = v;
    return true;
  }

  bool lookupBlock(const Line& line, std::string_view name, ModuleId* out) {
    auto it = blockByName_.find(std::string(name));
    if (it == blockByName_.end()) {
      return error(line, "unknown block '" + std::string(name) + "'");
    }
    *out = it->second;
    return true;
  }

  // --- sections ----------------------------------------------------------

  bool parseHeader() {
    const Line* magic = expect("ALSBENCH");
    if (!magic) return false;
    if (magic->tokens.size() != 2 || magic->tokens[1] != "1") {
      return error(*magic, "unsupported format version (expected 'ALSBENCH 1')");
    }
    const Line* name = expect("Circuit");
    if (!name) return false;
    if (name->rest1.empty()) return error(*name, "missing circuit name");
    circuit_ = Circuit(std::string(name->rest1));
    return true;
  }

  bool parseBlocks() {
    const Line* count = expect("NumBlocks");
    if (!count) return false;
    std::size_t n = 0;
    if (count->tokens.size() != 2 ||
        !parseSize(*count, count->tokens[1], kMaxCount, &n)) {
      return error(*count, "bad NumBlocks line");
    }
    if (n == 0) return error(*count, "NumBlocks must be at least 1");

    for (std::size_t i = 0; i < n; ++i) {
      if (atEnd()) {
        error_ = "unexpected end of file: expected " + std::to_string(n - i) +
                 " more block line(s)";
        return false;
      }
      const Line& line = lines_[next_++];
      std::string_view kind = line.tokens[0];
      bool soft = kind == "SoftBlock";
      if (!soft && kind != "Block") {
        return error(line, "expected Block/SoftBlock, got '" +
                               std::string(kind) + "'");
      }
      std::size_t base = soft ? 5 : 4;  // tokens before the optional flag
      bool norotate = line.tokens.size() == base + 1 &&
                      line.tokens[base] == "norotate";
      if (line.tokens.size() != base && !norotate) {
        return error(line, std::string(kind) + " needs 'name " +
                               (soft ? "area loAspect hiAspect" : "w h") +
                               " [norotate]'");
      }
      std::string name(line.tokens[1]);
      Coord w = 0, h = 0;
      if (soft) {
        double area = 0.0, lo = 0.0, hi = 0.0;
        if (!parseDouble(line, line.tokens[2], 1.0, kMaxSoftArea, &area) ||
            !parseDouble(line, line.tokens[3], kMinAspect, kMaxAspect, &lo) ||
            !parseDouble(line, line.tokens[4], kMinAspect, kMaxAspect, &hi)) {
          return false;
        }
        if (lo > hi) return error(line, "aspect range is empty (lo > hi)");
        // Deterministic soft resolution: the in-range aspect closest to
        // square, w = round(sqrt(area * aspect)), h covering the area.
        double aspect = std::clamp(1.0, lo, hi);
        w = std::max<Coord>(1, std::llround(std::sqrt(area * aspect)));
        h = std::max<Coord>(1, (static_cast<Coord>(area) + w - 1) / w);
        if (w > kMaxCoord || h > kMaxCoord) {
          return error(line, "soft block resolves beyond the coordinate cap");
        }
        softSpecs_.push_back({circuit_.moduleCount(), area, lo, hi});
      } else if (!parseCoord(line, line.tokens[2], &w) ||
                 !parseCoord(line, line.tokens[3], &h)) {
        return false;
      }
      if (!blockByName_.emplace(name, circuit_.moduleCount()).second) {
        return error(line, "duplicate block name '" + name + "'");
      }
      blockLines_.push_back(next_ - 1);
      circuit_.addModule(std::move(name), w, h, !norotate);
    }
    return true;
  }

  bool parseNets() {
    const Line* count = peek("NumNets") ? expect("NumNets") : nullptr;
    if (!count) return true;  // optional section
    std::size_t n = 0;
    if (count->tokens.size() != 2 ||
        !parseSize(*count, count->tokens[1], kMaxCount, &n)) {
      return error(*count, "bad NumNets line");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Line* line = expect("Net");
      if (!line) return false;
      if (line->tokens.size() < 3) return error(*line, "truncated Net line");
      std::size_t npins = 0;
      if (!parseSize(*line, line->tokens[2], kMaxCount, &npins) || npins == 0) {
        return error(*line, "bad pin count");
      }
      // Tokens: Net name npins pin... [weight]
      if (line->tokens.size() < 3 + npins ||
          line->tokens.size() > 3 + npins + 1) {
        return error(*line, "pin list does not match the declared pin count");
      }
      std::vector<ModuleId> pins(npins);
      for (std::size_t p = 0; p < npins; ++p) {
        if (!lookupBlock(*line, line->tokens[3 + p], &pins[p])) return false;
      }
      double weight = 1.0;
      if (line->tokens.size() == 3 + npins + 1 &&
          !parseDouble(*line, line->tokens[3 + npins], 0.0, 1e9, &weight)) {
        return false;
      }
      circuit_.addNet(std::string(line->tokens[1]), std::move(pins), weight);
    }
    return true;
  }

  bool parseSymGroups() {
    const Line* count = peek("NumSymGroups") ? expect("NumSymGroups") : nullptr;
    if (!count) return true;  // optional section
    std::size_t n = 0;
    if (count->tokens.size() != 2 ||
        !parseSize(*count, count->tokens[1], kMaxCount, &n)) {
      return error(*count, "bad NumSymGroups line");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Line* head = expect("SymGroup");
      if (!head) return false;
      std::size_t npairs = 0, nselfs = 0;
      if (head->tokens.size() != 4 ||
          !parseSize(*head, head->tokens[2], kMaxCount, &npairs) ||
          !parseSize(*head, head->tokens[3], kMaxCount, &nselfs)) {
        return error(*head, "SymGroup needs 'name npairs nselfs'");
      }
      if (npairs + nselfs == 0) return error(*head, "empty symmetry group");
      SymmetryGroup group;
      group.name = std::string(head->tokens[1]);
      if (!symByName_.emplace(group.name, i).second) {
        return error(*head, "duplicate symmetry group name '" + group.name + "'");
      }
      for (std::size_t p = 0; p < npairs; ++p) {
        const Line* line = expect("SymPair");
        if (!line) return false;
        SymPair pair;
        if (line->tokens.size() != 3) {
          return error(*line, "SymPair needs two block names");
        }
        if (!lookupBlock(*line, line->tokens[1], &pair.a) ||
            !lookupBlock(*line, line->tokens[2], &pair.b)) {
          return false;
        }
        if (pair.a == pair.b) return error(*line, "pair of a block with itself");
        group.pairs.push_back(pair);
      }
      for (std::size_t s = 0; s < nselfs; ++s) {
        const Line* line = expect("SymSelf");
        if (!line) return false;
        ModuleId m = 0;
        if (line->tokens.size() != 2) {
          return error(*line, "SymSelf needs one block name");
        }
        if (!lookupBlock(*line, line->tokens[1], &m)) return false;
        group.selfs.push_back(m);
      }
      circuit_.addSymmetryGroup(std::move(group));
    }
    return true;
  }

  bool parsePower() {
    const Line* count = peek("NumPower") ? expect("NumPower") : nullptr;
    if (!count) return true;  // optional section
    std::size_t n = 0;
    if (count->tokens.size() != 2 ||
        !parseSize(*count, count->tokens[1], kMaxCount, &n)) {
      return error(*count, "bad NumPower line");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Line* line = expect("Power");
      if (!line) return false;
      ModuleId m = 0;
      if (line->tokens.size() != 3 || !lookupBlock(*line, line->tokens[1], &m)) {
        return error(*line, "Power needs 'blockname watts'");
      }
      double watts = 0.0;
      if (!parseDouble(*line, line->tokens[2], 0.0, kMaxPowerW, &watts)) {
        return false;
      }
      if (watts <= 0.0) return error(*line, "power must be positive");
      Module& mod = circuit_.module(m);
      if (mod.powerW != 0.0) {
        return error(*line, "duplicate Power for block '" +
                                std::string(line->tokens[1]) + "'");
      }
      mod.powerW = watts;
    }
    return true;
  }

  bool parseShapes() {
    const Line* count = peek("NumShapes") ? expect("NumShapes") : nullptr;
    if (!count) return true;  // optional section
    std::size_t n = 0;
    if (count->tokens.size() != 2 ||
        !parseSize(*count, count->tokens[1], kMaxCount, &n)) {
      return error(*count, "bad NumShapes line");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Line* line = expect("Shape");
      if (!line) return false;
      if (line->tokens.size() < 3) return error(*line, "truncated Shape line");
      ModuleId m = 0;
      if (!lookupBlock(*line, line->tokens[1], &m)) return false;
      std::size_t k = 0;
      if (!parseSize(*line, line->tokens[2], kMaxShapeAlts, &k) || k == 0) {
        return error(*line, "bad shape count");
      }
      // Tokens: Shape name k w1 h1 ... wk hk — the declared footprint is NOT
      // listed; it always opens the realized curve (Module::shapes[0]).
      if (line->tokens.size() != 3 + 2 * k) {
        return error(*line, "shape list does not match the declared count");
      }
      Module& mod = circuit_.module(m);
      if (!mod.shapes.empty()) {
        return error(*line, "duplicate Shape for block '" +
                                std::string(line->tokens[1]) + "'");
      }
      mod.shapes.reserve(k + 1);
      mod.shapes.push_back({mod.w, mod.h});
      for (std::size_t s = 0; s < k; ++s) {
        ModuleShape alt;
        if (!parseCoord(*line, line->tokens[3 + 2 * s], &alt.w) ||
            !parseCoord(*line, line->tokens[4 + 2 * s], &alt.h)) {
          return false;
        }
        mod.shapes.push_back(alt);
      }
    }
    return true;
  }

  /// Soft blocks without an explicit Shape line get a deterministic curve
  /// discretized from their declared (area, aspect range) — after this the
  /// circuit carries everything the text said, and writeBenchmark emits the
  /// curve explicitly so write -> parse -> write is byte-stable even though
  /// the SoftBlock line itself is resolved lossily to a Block.
  void deriveSoftCurves() {
    for (const SoftSpec& spec : softSpecs_) {
      Module& mod = circuit_.module(spec.module);
      if (!mod.shapes.empty()) continue;  // explicit Shape section wins
      std::vector<ModuleShape> curve =
          discretizeSoftShape(spec.area, spec.loAspect, spec.hiAspect,
                              kSoftShapeCap);
      ModuleShape footprint{mod.w, mod.h};
      std::erase(curve, footprint);
      if (curve.empty()) continue;  // the footprint is the only realization
      mod.shapes.reserve(curve.size() + 1);
      mod.shapes.push_back(footprint);
      for (const ModuleShape& s : curve) mod.shapes.push_back(s);
    }
  }

  /// Rejects, at the line of the block that crosses it, a circuit whose
  /// packing extent E (see kEnvelope) exceeds kMaxExtent.  Runs after the
  /// shape curves are final, so every realization of a block counts.
  bool checkEnvelope() {
    Coord extent = 0;
    for (ModuleId m = 0; m < circuit_.moduleCount(); ++m) {
      const Module& mod = circuit_.module(m);
      Coord side = std::max(mod.w, mod.h);
      for (const ModuleShape& s : mod.shapes) side = std::max({side, s.w, s.h});
      extent += side;  // <= kMaxExtent + kMaxCoord: no overflow
      if (extent > kMaxExtent) {
        return error(lines_[blockLines_[m]],
                     "block '" + mod.name + "' takes the packing extent "
                     "(sum of each block's largest side) to " +
                     std::to_string(extent) + " DBU, past the " +
                     std::to_string(kMaxExtent) +
                     " DBU that keeps area and wirelength exact in int64");
      }
    }
    return true;
  }

  bool parseHierarchy() {
    const Line* count = peek("NumHierNodes") ? expect("NumHierNodes") : nullptr;
    if (!count) return true;  // optional section -> canonical hierarchy
    std::size_t n = 0;
    if (count->tokens.size() != 2 ||
        !parseSize(*count, count->tokens[1], kMaxCount, &n)) {
      return error(*count, "bad NumHierNodes line");
    }
    if (n == 0) return true;

    HierTree& tree = circuit_.hierarchy();
    std::vector<bool> claimed(n, false);          // node already has a parent
    std::vector<bool> blockLeafed(circuit_.moduleCount(), false);

    for (std::size_t i = 0; i < n; ++i) {
      if (atEnd()) {
        error_ = "unexpected end of file: expected " + std::to_string(n - i) +
                 " more hierarchy node line(s)";
        return false;
      }
      const Line& line = lines_[next_++];
      std::string_view kind = line.tokens[0];
      if (kind == "Leaf") {
        ModuleId m = 0;
        if (line.tokens.size() != 3 || !lookupBlock(line, line.tokens[2], &m)) {
          return error(line, "Leaf needs 'nodename blockname'");
        }
        if (blockLeafed[m]) {
          return error(line, "block '" + std::string(line.tokens[2]) +
                                 "' has two hierarchy leaves");
        }
        blockLeafed[m] = true;
        tree.addLeaf(std::string(line.tokens[1]), m);
      } else if (kind == "Group") {
        if (line.tokens.size() < 5) return error(line, "truncated Group line");
        GroupConstraint constraint = GroupConstraint::None;
        if (!parseConstraint(line, line.tokens[2], &constraint)) return false;
        std::size_t nchildren = 0;
        if (!parseSize(line, line.tokens[4], kMaxCount, &nchildren) ||
            nchildren == 0) {
          return error(line, "bad child count");
        }
        if (line.tokens.size() != 5 + nchildren) {
          return error(line, "child list does not match the declared count");
        }
        std::vector<HierNodeId> children(nchildren);
        for (std::size_t c = 0; c < nchildren; ++c) {
          std::size_t id = 0;
          if (!parseSize(line, line.tokens[5 + c], kMaxCount, &id) || id >= i) {
            return error(line, "child id must reference an earlier node");
          }
          if (claimed[id]) {
            return error(line, "node " + std::to_string(id) +
                                   " already has a parent");
          }
          claimed[id] = true;
          children[c] = id;
        }
        if (!checkGroupNode(line, constraint, line.tokens[3], children)) {
          return false;
        }
        HierNodeId id = tree.addGroup(std::string(line.tokens[1]),
                                      std::move(children), constraint);
        if (line.tokens[3] != "-") {
          tree.node(id).symGroup = symByName_.at(std::string(line.tokens[3]));
        }
      } else {
        return error(line, "expected Leaf/Group, got '" + std::string(kind) + "'");
      }
    }

    const Line* root = expect("Root");
    if (!root) return false;
    std::size_t rootId = 0;
    if (root->tokens.size() != 2 ||
        !parseSize(*root, root->tokens[1], kMaxCount, &rootId) || rootId >= n) {
      return error(*root, "bad root node id");
    }
    if (claimed[rootId]) return error(*root, "root node has a parent");
    for (std::size_t id = 0; id < n; ++id) {
      if (id != rootId && !claimed[id]) {
        return error(*root, "node " + std::to_string(id) +
                                " is not reachable from the root");
      }
    }
    for (ModuleId m = 0; m < circuit_.moduleCount(); ++m) {
      if (!blockLeafed[m]) {
        return error(*root, "block '" + circuit_.module(m).name +
                                "' has no hierarchy leaf");
      }
    }
    tree.setRoot(rootId);
    return true;
  }

  bool parseConstraint(const Line& line, std::string_view token,
                       GroupConstraint* out) {
    if (token == "none") *out = GroupConstraint::None;
    else if (token == "symmetry") *out = GroupConstraint::Symmetry;
    else if (token == "common-centroid") *out = GroupConstraint::CommonCentroid;
    else if (token == "proximity") *out = GroupConstraint::Proximity;
    else return error(line, "unknown constraint '" + std::string(token) + "'");
    return true;
  }

  /// Validates the structural invariants the hierarchical placers otherwise
  /// enforce with asserts, so a crafted file cannot crash a Release binary.
  bool checkGroupNode(const Line& line, GroupConstraint constraint,
                      std::string_view symName,
                      const std::vector<HierNodeId>& children) {
    const HierTree& tree = circuit_.hierarchy();
    if (constraint != GroupConstraint::Symmetry) {
      if (symName != "-") {
        return error(line, "only symmetry nodes may name a symmetry group");
      }
      if (constraint == GroupConstraint::CommonCentroid) {
        for (HierNodeId c : children) {
          if (!tree.node(c).isLeaf()) {
            return error(line, "common-centroid children must be leaves");
          }
        }
      }
      return true;
    }

    auto it = symByName_.find(std::string(symName));
    if (it == symByName_.end()) {
      return error(line, "symmetry node needs a declared symmetry group, got '" +
                             std::string(symName) + "'");
    }
    const SymmetryGroup& group = circuit_.symmetryGroup(it->second);

    // The ASF island places exactly the group's members as leaf items plus
    // the sub-circuit children as mirrored macro pairs: direct leaf children
    // must equal the member set and sub-circuits must pair up two by two
    // with matching module counts (the paper's hierarchical symmetry).
    std::set<ModuleId> leafChildren;
    std::vector<HierNodeId> subs;
    for (HierNodeId c : children) {
      if (tree.node(c).isLeaf()) {
        leafChildren.insert(*tree.node(c).module);
      } else {
        subs.push_back(c);
      }
    }
    std::vector<ModuleId> members = group.members();
    std::set<ModuleId> memberSet(members.begin(), members.end());
    if (leafChildren != memberSet) {
      return error(line, "symmetry node leaf children must be exactly the "
                         "members of group '" + std::string(symName) + "'");
    }
    if (subs.size() % 2 != 0) {
      return error(line, "symmetry node needs an even number of sub-circuits");
    }
    for (std::size_t p = 0; p + 1 < subs.size(); p += 2) {
      if (tree.leavesUnder(subs[p]).size() !=
          tree.leavesUnder(subs[p + 1]).size()) {
        return error(line, "paired sub-circuits must have equal module counts");
      }
    }
    return true;
  }

  /// A SoftBlock's declared target, remembered until the Shape section has
  /// been read (an explicit curve suppresses the auto-derived one).
  struct SoftSpec {
    ModuleId module = 0;
    double area = 0.0, loAspect = 0.0, hiAspect = 0.0;
  };

  std::vector<Line> lines_;
  std::size_t next_ = 0;
  std::string error_;
  Circuit circuit_;
  std::map<std::string, ModuleId> blockByName_;
  std::map<std::string, std::size_t> symByName_;
  std::vector<SoftSpec> softSpecs_;
  std::vector<std::size_t> blockLines_;  ///< index into lines_ per block
};

/// Serializable token: non-empty, no whitespace, no comment introducer.
bool tokenOk(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (isSpace(c) || c == '\n' || c == '#') return false;
  }
  return true;
}

void appendWeight(std::string& out, double weight) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", weight);
  out += buf;
}

}  // namespace

ParseResult parseBenchmark(std::string_view text) {
  return Parser(text).run();
}

ParseResult parseBenchmarkFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ParseResult out;
    out.error = "cannot open '" + path + "' for reading";
    return out;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  bool readOk = std::ferror(f) == 0;
  std::fclose(f);
  if (!readOk) {
    ParseResult out;
    out.error = "read error on '" + path + "'";
    return out;
  }
  return parseBenchmark(text);
}

WriteResult writeBenchmark(const Circuit& circuit) {
  WriteResult out;
  auto fail = [&](std::string message) {
    out.error = std::move(message);
    out.text.clear();
    return out;
  };

  // The parser reads the name as the trimmed rest of the line, so padding
  // or whitespace-only names would not round-trip.
  const std::string& cname = circuit.name();
  if (cname.empty() || cname.find('\n') != std::string::npos ||
      cname.find('#') != std::string::npos || trimmed(cname) != cname) {
    return fail("circuit name is not serializable");
  }
  std::set<std::string_view> blockNames, symNames;
  for (const Module& m : circuit.modules()) {
    if (!tokenOk(m.name)) return fail("block name '" + m.name + "' is not serializable");
    if (!blockNames.insert(m.name).second) {
      return fail("duplicate block name '" + m.name + "'");
    }
  }
  for (const SymmetryGroup& g : circuit.symmetryGroups()) {
    if (!tokenOk(g.name)) return fail("group name '" + g.name + "' is not serializable");
    if (!symNames.insert(g.name).second) {
      return fail("duplicate symmetry group name '" + g.name + "'");
    }
  }
  if (circuit.moduleCount() == 0) return fail("circuit has no modules");

  std::string& text = out.text;
  text += "ALSBENCH 1\n";
  text += "Circuit " + cname + "\n";

  text += "NumBlocks " + std::to_string(circuit.moduleCount()) + "\n";
  for (const Module& m : circuit.modules()) {
    text += "Block " + m.name + " " + std::to_string(m.w) + " " +
            std::to_string(m.h);
    if (!m.rotatable) text += " norotate";
    text += "\n";
  }

  text += "NumNets " + std::to_string(circuit.nets().size()) + "\n";
  for (const Net& n : circuit.nets()) {
    if (!tokenOk(n.name)) return fail("net name '" + n.name + "' is not serializable");
    text += "Net " + n.name + " " + std::to_string(n.pins.size());
    for (ModuleId p : n.pins) {
      if (p >= circuit.moduleCount()) return fail("net '" + n.name + "' has out-of-range pin");
      text += " " + circuit.module(p).name;
    }
    text += " ";
    appendWeight(text, n.weight);
    text += "\n";
  }

  text += "NumSymGroups " + std::to_string(circuit.symmetryGroups().size()) + "\n";
  for (const SymmetryGroup& g : circuit.symmetryGroups()) {
    text += "SymGroup " + g.name + " " + std::to_string(g.pairs.size()) + " " +
            std::to_string(g.selfs.size()) + "\n";
    for (const SymPair& p : g.pairs) {
      if (p.a >= circuit.moduleCount() || p.b >= circuit.moduleCount()) {
        return fail("group '" + g.name + "' has out-of-range member");
      }
      text += "SymPair " + circuit.module(p.a).name + " " +
              circuit.module(p.b).name + "\n";
    }
    for (ModuleId s : g.selfs) {
      if (s >= circuit.moduleCount()) {
        return fail("group '" + g.name + "' has out-of-range member");
      }
      text += "SymSelf " + circuit.module(s).name + "\n";
    }
  }

  // Power and Shape sections are emitted only when some block carries the
  // annotation, so files without them stay byte-identical to the historical
  // format.  Shape lines list the alternatives (shapes[1..]); shapes[0] is
  // the Block line's footprint by the Module::shapes invariant.
  std::size_t numPower = 0, numShapes = 0;
  for (const Module& m : circuit.modules()) {
    if (m.powerW != 0.0 &&
        (!std::isfinite(m.powerW) || m.powerW < 0.0 || m.powerW > kMaxPowerW)) {
      return fail("block '" + m.name + "' has non-serializable power");
    }
    if (m.powerW > 0.0) ++numPower;
    if (m.shapes.size() > 1) ++numShapes;
  }
  if (numPower > 0) {
    text += "NumPower " + std::to_string(numPower) + "\n";
    for (const Module& m : circuit.modules()) {
      if (m.powerW <= 0.0) continue;
      text += "Power " + m.name + " ";
      appendWeight(text, m.powerW);
      text += "\n";
    }
  }
  if (numShapes > 0) {
    text += "NumShapes " + std::to_string(numShapes) + "\n";
    for (const Module& m : circuit.modules()) {
      if (m.shapes.size() <= 1) continue;
      if (m.shapes[0] != ModuleShape{m.w, m.h}) {
        return fail("shape curve of '" + m.name +
                    "' does not open with the declared footprint");
      }
      if (m.shapes.size() - 1 > kMaxShapeAlts) {
        return fail("block '" + m.name + "' has too many shape alternatives");
      }
      text += "Shape " + m.name + " " + std::to_string(m.shapes.size() - 1);
      for (std::size_t s = 1; s < m.shapes.size(); ++s) {
        if (m.shapes[s].w <= 0 || m.shapes[s].h <= 0 ||
            m.shapes[s].w > kMaxCoord || m.shapes[s].h > kMaxCoord) {
          return fail("block '" + m.name + "' has a non-serializable shape");
        }
        text += " " + std::to_string(m.shapes[s].w) + " " +
                std::to_string(m.shapes[s].h);
      }
      text += "\n";
    }
  }

  const HierTree& tree = circuit.hierarchy();
  if (!tree.empty()) {
    text += "NumHierNodes " + std::to_string(tree.nodeCount()) + "\n";
    for (HierNodeId id = 0; id < tree.nodeCount(); ++id) {
      const HierNode& node = tree.node(id);
      if (!tokenOk(node.name)) {
        return fail("hierarchy node name '" + node.name + "' is not serializable");
      }
      if (node.isLeaf()) {
        if (*node.module >= circuit.moduleCount()) {
          return fail("hierarchy leaf '" + node.name + "' has out-of-range module");
        }
        text += "Leaf " + node.name + " " + circuit.module(*node.module).name + "\n";
      } else {
        if (node.symGroup.has_value() !=
            (node.constraint == GroupConstraint::Symmetry)) {
          return fail("hierarchy node '" + node.name +
                      "' pairs a symmetry group with a non-symmetry constraint");
        }
        text += "Group " + node.name + " " + toString(node.constraint) + " ";
        if (node.symGroup) {
          if (*node.symGroup >= circuit.symmetryGroups().size()) {
            return fail("hierarchy node '" + node.name + "' has out-of-range group");
          }
          text += circuit.symmetryGroup(*node.symGroup).name;
        } else {
          text += "-";
        }
        text += " " + std::to_string(node.children.size());
        for (HierNodeId c : node.children) {
          if (c >= id) return fail("hierarchy children must precede their parent");
          text += " " + std::to_string(c);
        }
        text += "\n";
      }
    }
    text += "Root " + std::to_string(tree.root()) + "\n";
  }
  return out;
}

bool writeBenchmarkFile(const std::string& path, const Circuit& circuit,
                        std::string* error) {
  WriteResult result = writeBenchmark(circuit);
  if (!result.ok()) {
    if (error) *error = result.error;
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  bool ok = std::fwrite(result.text.data(), 1, result.text.size(), f) ==
            result.text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error) *error = "short write to '" + path + "'";
  return ok;
}

void buildCanonicalHierarchy(Circuit& circuit) {
  circuit.hierarchy() = HierTree();
  HierTree& tree = circuit.hierarchy();

  // One leaf per module: leaf node id == module id.
  std::vector<bool> grouped(circuit.moduleCount(), false);
  for (ModuleId m = 0; m < circuit.moduleCount(); ++m) {
    tree.addLeaf(circuit.module(m).name, m);
  }

  std::vector<HierNodeId> tops;
  for (std::size_t g = 0; g < circuit.symmetryGroups().size(); ++g) {
    const SymmetryGroup& group = circuit.symmetryGroup(g);
    std::vector<HierNodeId> children;
    for (ModuleId m : group.members()) {
      children.push_back(m);  // leaf ids equal module ids
      grouped[m] = true;
    }
    HierNodeId node = tree.addGroup(group.name, std::move(children),
                                    GroupConstraint::Symmetry);
    tree.node(node).symGroup = g;
    tops.push_back(node);
  }

  // Free modules, clustered four at a time in id order: small basic sets
  // keep the deterministic placer's exhaustive enumeration tractable.
  std::vector<HierNodeId> chunk;
  std::size_t clusterIndex = 0;
  auto flushChunk = [&] {
    if (chunk.empty()) return;
    if (chunk.size() == 1) {
      tops.push_back(chunk.front());
    } else {
      tops.push_back(tree.addGroup("cluster" + std::to_string(clusterIndex++),
                                   chunk, GroupConstraint::None));
    }
    chunk.clear();
  };
  for (ModuleId m = 0; m < circuit.moduleCount(); ++m) {
    if (grouped[m]) continue;
    chunk.push_back(m);
    if (chunk.size() == 4) flushChunk();
  }
  flushChunk();

  if (tops.size() == 1 && !tree.node(tops.front()).isLeaf()) {
    tree.setRoot(tops.front());
  } else {
    tree.setRoot(tree.addGroup("top", std::move(tops), GroupConstraint::None));
  }
}

}  // namespace als
