// Cooperative stop token — the one stopping rule that is not a budget.
//
// A `CancelToken` is shared between a controller (a serve worker's client
// handler, a test) and a running computation.  It stops for one of two
// reasons: `cancel()` (Cancelled), or an armed steady-clock deadline passing
// (Deadline).  Every wall-clock limit of the library is such a deadline:
// the engine's `timeLimitSec` (engine/replica_session.cpp), serve's job
// deadlines (runtime/serve.cpp), the benches' time budgets.  A child token
// also stops when its PARENT does, so a per-session deadline still honours
// the caller's token.
//
// The annealing layer checks the token at SWEEP boundaries only
// (anneal/annealer.h): a stop never interrupts a move, so every invariant
// the hot loop maintains — the current cost, scratch contents — is intact
// when the run returns, and the next run on the same buffers is
// bit-identical to one in a fresh process.  The check reads the clock only
// while a deadline is armed.
//
// A stopped run returns its best-so-far result.  It depends on WHEN the stop
// was seen and is therefore not deterministic — callers that cache results
// (runtime/serve.h) must never store it.
//
// Reasons latch: the check that sees the deadline expired records it, and
// `reason()` ranks Deadline over Cancelled.  Deadline arithmetic saturates:
// a limit that is not positive and finite, or lands past the clock's range,
// arms no deadline.  Memory order is relaxed throughout — a one-sweep delay
// in observing a stop is within the acknowledgment contract.  `reset()` may
// only be called while no run consumes the token; a parent must outlive its
// children.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace als {

enum class StopReason : std::uint8_t { None = 0, Cancelled = 1, Deadline = 2 };

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  explicit CancelToken(const CancelToken* parent) noexcept : parent_(parent) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void cancel() noexcept { stop(StopReason::Cancelled); }
  void stop(StopReason why) noexcept {
    latched_.fetch_or(static_cast<std::uint8_t>(why),
                      std::memory_order_relaxed);
  }

  /// Arms a deadline `seconds` from now, or disarms (see the header).
  void setDeadlineAfter(double seconds) noexcept {
    const Clock::rep now = Clock::now().time_since_epoch().count();
    const double ticks = seconds * Clock::period::den / Clock::period::num;
    const Clock::rep room = kNoDeadline - now;
    // `ticks < room` rejects NaN and bounds the cast; the integer compare
    // absorbs the rounding of `room` to double.
    const bool armed = seconds > 0.0 && ticks < static_cast<double>(room) &&
                       static_cast<Clock::rep>(ticks) < room;
    deadline_.store(armed ? now + static_cast<Clock::rep>(ticks) : kNoDeadline,
                    std::memory_order_relaxed);
  }

  /// True when this token or an ancestor has a deadline armed.
  bool hasDeadline() const noexcept {
    return deadline_.load(std::memory_order_relaxed) != kNoDeadline ||
           (parent_ != nullptr && parent_->hasDeadline());
  }

  /// The per-sweep check: a latched stop, an expired deadline (latched
  /// here), or a stopped ancestor.
  bool stopRequested() const noexcept {
    if (latched_.load(std::memory_order_relaxed) != 0) return true;
    const Clock::rep at = deadline_.load(std::memory_order_relaxed);
    if (at != kNoDeadline && Clock::now().time_since_epoch().count() >= at) {
      latched_.fetch_or(static_cast<std::uint8_t>(StopReason::Deadline),
                        std::memory_order_relaxed);
      return true;
    }
    return parent_ != nullptr && parent_->stopRequested();
  }

  /// This token's own latched reason (ancestors are not consulted).
  StopReason reason() const noexcept {
    const std::uint8_t bits = latched_.load(std::memory_order_relaxed);
    return bits >= static_cast<std::uint8_t>(StopReason::Deadline)
               ? StopReason::Deadline
               : static_cast<StopReason>(bits);
  }

  /// Clears the latched reason and disarms the deadline.
  void reset() noexcept {
    latched_.store(0, std::memory_order_relaxed);
    deadline_.store(kNoDeadline, std::memory_order_relaxed);
  }

 private:
  static constexpr Clock::rep kNoDeadline =
      std::numeric_limits<Clock::rep>::max();

  const CancelToken* parent_ = nullptr;
  mutable std::atomic<std::uint8_t> latched_{0};   ///< StopReason bits
  std::atomic<Clock::rep> deadline_{kNoDeadline};  ///< steady-clock ticks
};

/// Null-safe check, the form every sweep loop uses.
inline bool cancelRequested(const CancelToken* token) noexcept {
  return token != nullptr && token->stopRequested();
}

}  // namespace als
