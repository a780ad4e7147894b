#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>

#include "util/cancel_token.h"
#include "util/epoch_marks.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace als {
namespace {

TEST(EpochMarks, MarksOncePerRound) {
  EpochMarks marks;
  marks.beginRound(4);
  EXPECT_TRUE(marks.mark(2));
  EXPECT_FALSE(marks.mark(2));
  EXPECT_TRUE(marks.mark(0));
  EXPECT_TRUE(marks.marked(2));
  EXPECT_FALSE(marks.marked(1));
}

TEST(EpochMarks, BeginRoundClearsInO1AndGrows) {
  EpochMarks marks;
  marks.beginRound(2);
  EXPECT_TRUE(marks.mark(1));
  marks.beginRound(8);  // grow + fresh round
  EXPECT_FALSE(marks.marked(1));
  EXPECT_TRUE(marks.mark(7));
  marks.beginRound(8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(marks.marked(i));
}

TEST(Table, RendersHeaderSeparatorAndRows) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("|-"), std::string::npos);
  // Four lines: header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.addRow({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("x"), std::string::npos);
}

TEST(Table, ColumnsSizeToWidestCell) {
  Table t({"h"});
  t.addRow({"wide-cell-content"});
  std::ostringstream os;
  t.print(os);
  std::string s = os.str();
  std::size_t header = s.find('\n');
  std::size_t row = s.rfind('\n', s.size() - 2);
  // Header line and row line have equal width (row spans row+1 .. size-2).
  EXPECT_EQ(header, s.size() - row - 2);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmtPercent(0.9986), "99.86%");
  EXPECT_EQ(Table::fmtPercent(0.5, 0), "50%");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.uniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo = sawLo || v == -3;
    sawHi = sawHi || v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, IndexStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(13), 13u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.index(1), 0u);
  }
}

TEST(Rng, UniformRealInHalfOpenRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += rng.uniform(2.0, 4.0);
  EXPECT_NEAR(sum / 10000.0, 3.0, 0.05);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Stopwatch, MonotoneAndResettable) {
  Stopwatch sw;
  double t0 = sw.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  double t1 = sw.seconds();
  EXPECT_GE(t1, t0);
  EXPECT_GT(t1, 0.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), t1);
  EXPECT_NEAR(sw.millis(), sw.seconds() * 1e3, 1.0);
}

/// Polls `token` the way a sweep loop does until it stops; false if it has
/// not stopped within 10 s.
bool waitForStop(const CancelToken& token) {
  const auto giveUp = CancelToken::Clock::now() + std::chrono::seconds(10);
  while (!token.stopRequested()) {
    if (CancelToken::Clock::now() > giveUp) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(CancelToken, DeadlineFiresAtOrAfterItsTimePoint) {
  CancelToken token;
  EXPECT_FALSE(token.hasDeadline());
  const auto before = CancelToken::Clock::now();
  token.setDeadlineAfter(0.05);
  EXPECT_TRUE(token.hasDeadline());
  EXPECT_EQ(token.reason(), StopReason::None);
  ASSERT_TRUE(waitForStop(token));
  EXPECT_GE(CancelToken::Clock::now() - before, std::chrono::milliseconds(50));
  EXPECT_EQ(token.reason(), StopReason::Deadline);
}

TEST(CancelToken, ReasonLatchesAndDeadlineOutranksCancel) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.stopRequested());
  EXPECT_EQ(token.reason(), StopReason::Cancelled);
  token.stop(StopReason::Deadline);
  EXPECT_EQ(token.reason(), StopReason::Deadline);
  token.cancel();
  EXPECT_EQ(token.reason(), StopReason::Deadline) << "deadline outranks";

  // A deadline is recorded by the check that sees it expired, and stays
  // recorded; one that passes after the stop was latched is not.
  CancelToken expired;
  expired.setDeadlineAfter(1e-9);
  ASSERT_TRUE(waitForStop(expired));
  expired.cancel();
  EXPECT_EQ(expired.reason(), StopReason::Deadline);
  CancelToken cancelledFirst;
  cancelledFirst.setDeadlineAfter(1e-9);
  cancelledFirst.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(cancelledFirst.stopRequested());
  EXPECT_EQ(cancelledFirst.reason(), StopReason::Cancelled);
}

TEST(CancelToken, ParentStopReachesTheChild) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_FALSE(cancelRequested(&child));
  child.cancel();
  EXPECT_TRUE(child.stopRequested());
  EXPECT_FALSE(parent.stopRequested()) << "a stop never flows upward";

  CancelToken other(&parent);
  std::thread canceller([&parent] { parent.cancel(); });
  const bool stopped = waitForStop(other);
  canceller.join();
  ASSERT_TRUE(stopped);
  EXPECT_EQ(other.reason(), StopReason::None)
      << "the parent's reason stays the parent's";
  EXPECT_EQ(parent.reason(), StopReason::Cancelled);

  CancelToken timedParent;
  CancelToken timedChild(&timedParent);
  EXPECT_FALSE(timedChild.hasDeadline());
  timedParent.setDeadlineAfter(1e-9);
  EXPECT_TRUE(timedChild.hasDeadline()) << "a parent's deadline counts";
  ASSERT_TRUE(waitForStop(timedChild));
  EXPECT_EQ(timedParent.reason(), StopReason::Deadline);
}

TEST(CancelToken, ResetDisarmsTheDeadline) {
  CancelToken token;
  token.setDeadlineAfter(1e-9);
  ASSERT_TRUE(waitForStop(token));
  token.reset();
  EXPECT_FALSE(token.hasDeadline());
  EXPECT_FALSE(token.stopRequested());
  EXPECT_EQ(token.reason(), StopReason::None);
}

TEST(CancelToken, LimitsPastTheClockRangeArmNothing) {
  CancelToken token;
  for (double seconds :
       {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity(),
        1e300, static_cast<double>(UINT64_MAX) / 1000.0}) {
    token.setDeadlineAfter(3600.0);
    token.setDeadlineAfter(seconds);
    EXPECT_FALSE(token.hasDeadline()) << seconds;
    EXPECT_FALSE(token.stopRequested()) << seconds;
  }
  token.setDeadlineAfter(3600.0);
  EXPECT_TRUE(token.hasDeadline());
  EXPECT_FALSE(token.stopRequested());
}

}  // namespace
}  // namespace als
