#include "bstar/contour.h"

#include <algorithm>

namespace als {

// --------------------------------------------------------------- Contour ---

void Contour::splitAt(Coord x) {
  if (x < 0) return;
  auto it = height_.upper_bound(x);
  assert(it != height_.begin());
  --it;
  if (it->first != x) height_[x] = it->second;
}

Coord Contour::maxOver(Coord x1, Coord x2) const {
  assert(x1 < x2);
  auto it = height_.upper_bound(x1);
  assert(it != height_.begin());
  --it;
  Coord m = 0;
  for (; it != height_.end() && it->first < x2; ++it) m = std::max(m, it->second);
  return m;
}

Coord Contour::fitMacro(Coord x, std::span<const ProfileStep> bottom) const {
  Coord y = 0;
  for (const ProfileStep& step : bottom) {
    Coord clearance = maxOver(x + step.lo, x + step.hi) - step.v;
    y = std::max(y, clearance);
  }
  return y;
}

void Contour::raise(Coord x1, Coord x2, Coord h) {
  assert(x1 < x2);
  splitAt(x1);
  splitAt(x2);
  auto it = height_.lower_bound(x1);
  while (it != height_.end() && it->first < x2) {
    it->second = h;
    ++it;
  }
  // Merge equal adjacent segments to keep the map compact.
  auto merge = [&](Coord x) {
    auto cur = height_.find(x);
    if (cur == height_.end() || cur == height_.begin()) return;
    auto prev = std::prev(cur);
    if (prev->second == cur->second) height_.erase(cur);
  };
  merge(x2);
  merge(x1);
}

void Contour::placeMacro(Coord x, Coord yOffset, std::span<const ProfileStep> top) {
  for (const ProfileStep& step : top) {
    raise(x + step.lo, x + step.hi, yOffset + step.v);
  }
}

Coord Contour::heightAt(Coord x) const {
  auto it = height_.upper_bound(x);
  assert(it != height_.begin());
  return std::prev(it)->second;
}

// ----------------------------------------------------------- FlatContour ---

void FlatContour::reset() {
  // Segment is trivially destructible, so clear() is O(1) and the vector's
  // capacity — the only heap the contour ever touches — survives.
  segs_.clear();
  free_ = kNil;
  head_ = allocSeg(0, 0);
  hint_ = head_;
}

std::uint32_t FlatContour::allocSeg(Coord x, Coord h) {
  std::uint32_t s;
  if (free_ != kNil) {
    s = free_;
    free_ = segs_[s].next;
  } else {
    s = static_cast<std::uint32_t>(segs_.size());
    segs_.emplace_back();
  }
  segs_[s] = {x, h, kNil, kNil};
  return s;
}

std::uint32_t FlatContour::insertAfter(std::uint32_t s, Coord x, Coord h) {
  std::uint32_t n = allocSeg(x, h);
  std::uint32_t after = segs_[s].next;
  segs_[n].prev = s;
  segs_[n].next = after;
  segs_[s].next = n;
  if (after != kNil) segs_[after].prev = n;
  return n;
}

void FlatContour::unlinkRelease(std::uint32_t s) {
  assert(s != head_ && "the base segment at x = 0 is never removed");
  std::uint32_t p = segs_[s].prev;
  std::uint32_t n = segs_[s].next;
  segs_[p].next = n;
  if (n != kNil) segs_[n].prev = p;
  if (hint_ == s) hint_ = p;
  segs_[s].next = free_;
  free_ = s;
}

std::uint32_t FlatContour::findSeg(Coord x) const {
  assert(x >= 0);
  // Resume from the hint in either direction: the preorder DFS mostly walks
  // rightward and occasionally jumps back left, so the cost is the distance
  // from the previous query, never a restart from the base segment.
  std::uint32_t s = hint_;
  if (s == kNil) s = head_;
  while (segs_[s].x > x) s = segs_[s].prev;  // head_.x == 0 terminates
  while (segs_[s].next != kNil && segs_[segs_[s].next].x <= x) s = segs_[s].next;
  hint_ = s;
  return s;
}

Coord FlatContour::maxOver(Coord x1, Coord x2) const {
  assert(x1 < x2);
  Coord m = 0;
  for (std::uint32_t s = findSeg(x1); s != kNil && segs_[s].x < x2;
       s = segs_[s].next) {
    m = std::max(m, segs_[s].h);
  }
  return m;
}

Coord FlatContour::fitMacro(Coord x, std::span<const ProfileStep> bottom) const {
  Coord y = 0;
  for (const ProfileStep& step : bottom) {
    Coord clearance = maxOver(x + step.lo, x + step.hi) - step.v;
    y = std::max(y, clearance);
  }
  return y;
}

void FlatContour::raise(Coord x1, Coord x2, Coord h) {
  assert(0 <= x1 && x1 < x2);
  std::uint32_t s = findSeg(x1);
  if (segs_[s].x < x1) s = insertAfter(s, x1, segs_[s].h);
  // `s` now starts exactly at x1.  Absorb every breakpoint strictly inside
  // (x1, x2), remembering the height that covered x2's left side so the
  // remainder of a split segment keeps its value.
  Coord tailH = segs_[s].h;
  std::uint32_t nxt = segs_[s].next;
  while (nxt != kNil && segs_[nxt].x < x2) {
    tailH = segs_[nxt].h;
    std::uint32_t after = segs_[nxt].next;
    unlinkRelease(nxt);
    nxt = after;
  }
  segs_[s].h = h;
  if (nxt == kNil || segs_[nxt].x != x2) insertAfter(s, x2, tailH);
  // Merge equal-height neighbours (same invariant the map version keeps).
  std::uint32_t r = segs_[s].next;
  if (r != kNil && segs_[r].h == h) unlinkRelease(r);
  std::uint32_t p = segs_[s].prev;
  if (p != kNil && segs_[p].h == h) unlinkRelease(s);
}

void FlatContour::placeMacro(Coord x, Coord yOffset,
                             std::span<const ProfileStep> top) {
  for (const ProfileStep& step : top) {
    raise(x + step.lo, x + step.hi, yOffset + step.v);
  }
}

Coord FlatContour::heightAt(Coord x) const { return segs_[findSeg(x)].h; }

std::size_t FlatContour::segmentCount() const {
  std::size_t n = 0;
  for (std::uint32_t s = head_; s != kNil; s = segs_[s].next) ++n;
  return n;
}

std::size_t FlatContour::freeCount() const {
  std::size_t n = 0;
  for (std::uint32_t s = free_; s != kNil; s = segs_[s].next) ++n;
  return n;
}

}  // namespace als
