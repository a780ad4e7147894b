// Epoch-stamped mark set: the allocation-free replacement for the
// clear-a-vector<bool>-per-call membership-marking idiom.
//
// A mark set over n slots supports "start a fresh round" in O(1): instead of
// zeroing (or reallocating) a flag vector, each slot stores the epoch in
// which it was last marked and a slot counts as marked exactly when its
// stamp equals the current epoch.  The backing vector only grows, so warm
// instances never touch the heap — which is what lets per-move hot paths
// (Polish-expression validation, index deduplication)
// run allocation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace als {

class EpochMarks {
 public:
  /// Starts a fresh round over `n` slots; previously marked slots become
  /// unmarked in O(1).
  void beginRound(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    if (++epoch_ == 0) {
      // 64-bit wrap is unreachable in practice; handle it anyway so the
      // class is correct unconditionally.
      std::fill(stamp_.begin(), stamp_.end(), std::uint64_t{0});
      epoch_ = 1;
    }
  }

  /// Marks slot i; returns true when i was NOT yet marked this round.
  bool mark(std::size_t i) {
    if (stamp_[i] == epoch_) return false;
    stamp_[i] = epoch_;
    return true;
  }

  bool marked(std::size_t i) const { return stamp_[i] == epoch_; }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;
};

}  // namespace als
