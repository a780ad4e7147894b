// The bench record reader (util/flat_records.h) and the bench_diff gate
// driven on synthetic record files.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "util/flat_records.h"

namespace als {
namespace {

BenchRecord row(std::string tool, std::string metric, std::string unit,
                std::string better, double value) {
  return {std::move(tool), "engine", std::move(metric), std::move(unit),
          std::move(better), "flat-bstar", "apte", 96, value};
}

BenchRecord rate(std::string tool, double value) {
  return row(std::move(tool), "moves_per_s", "moves/s", "higher", value);
}

BenchRecord cost(std::string tool, double value) {
  return row(std::move(tool), "cost", "objective", "lower", value);
}

bool sameRow(const BenchRecord& a, const BenchRecord& b) {
  return a.tool == b.tool && a.layer == b.layer && a.metric == b.metric &&
         a.unit == b.unit && a.better == b.better && a.backend == b.backend &&
         a.circuit == b.circuit && a.budget == b.budget && a.value == b.value;
}

TEST(FlatRecords, WriterOutputReadsBackBitForBit) {
  std::vector<BenchRecord> rows = {
      cost("als_place", 31154852480.597748), rate("bench_decode", 1.0 / 3.0),
      {"t\"q\\", "decode", "m", "x", "lower", "tab\there", "new\nline", 0, -0.0}};
  std::vector<BenchRecord> back;
  std::string error;
  ASSERT_TRUE(parseFlatRecords(formatFlatRecords(rows), back, error)) << error;
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(sameRow(back[i], rows[i])) << i;
  }
  back.clear();
  EXPECT_TRUE(parseFlatRecords("[]\n", back, error)) << error;
  EXPECT_TRUE(back.empty());
}

TEST(FlatRecords, RejectsMalformedRowsWithAnOffset) {
  const std::string good =
      R"({"tool": "t", "layer": "engine", "metric": "cost", "unit": "objective", )"
      R"("better": "lower", "backend": "b", "circuit": "c", "budget": 4, "value": 1.5})";
  std::vector<BenchRecord> out;
  std::string error;
  ASSERT_TRUE(parseFlatRecords("[" + good + "]", out, error)) << error;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].budget, 4u);
  EXPECT_EQ(out[0].value, 1.5);

  auto with = [&](const std::string& from, const std::string& to) {
    std::string text = "[" + good + "]";
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  const std::pair<std::string, std::string> bad[] = {
      {with(R"("tool": "t", )", ""), "row lacks a field"},
      {with(R"("budget": 4)", R"("budget": 4, "seconds": 2)"), "unknown field 'seconds'"},
      {with(R"("budget": 4)", R"("budget": 4, "tool": "u")"), "repeated field 'tool'"},
      {with(R"("lower")", R"("smaller")"), "better is neither lower nor higher"},
      {with(R"("budget": 4)", R"("budget": 4.5)"), "budget is not a count"},
      {with(R"("budget": 4)", R"("budget": -1)"), "budget is not a count"},
      {with(R"("budget": 4)", R"("budget": 1e300)"), "budget is not a count"},
      {with(R"("value": 1.5)", R"("value": "1.5")"), "bad number"},
      {with(R"("value": 1.5)", R"("value": )"), "bad number"},
      {"[" + good, "expected ']'"},
      {"[" + good + "] x", "trailing text"},
      {"{}", "expected '['"},
  };
  for (const auto& [text, message] : bad) {
    out.clear();
    EXPECT_FALSE(parseFlatRecords(text, out, error)) << text;
    EXPECT_NE(error.find(message + " at offset "), std::string::npos)
        << text << "\n-> " << error;
  }
}

TEST(FlatRecords, TierFollowsTheUnit) {
  EXPECT_EQ(tierOf(cost("t", 1)), Tier::Exact);
  EXPECT_EQ(tierOf(row("t", "moves", "count", "lower", 1)), Tier::Exact);
  EXPECT_EQ(tierOf(row("t", "area_usage", "ratio", "lower", 1)), Tier::Exact);
  EXPECT_EQ(tierOf(row("t", "flat_over_map", "x", "higher", 1)), Tier::Tight);
  EXPECT_EQ(tierOf(rate("t", 1)), Tier::Loose);
  EXPECT_EQ(tierOf(row("t", "latency_p50_ms", "ms", "lower", 1)), Tier::Loose);
  EXPECT_EQ(tierOf(row("t", "seconds", "s", "lower", 1)), Tier::Loose);
}

TEST(FlatRecords, SamplesShareAKeyAndReadQuartilesLikePython) {
  // statistics.quantiles(v, n=4): q3 - q1 of [1,2,3] is 2, of [1..5] is 3,
  // of [10,20] is 15 and of [4,1,3,2] is 2.5.
  const std::pair<std::vector<double>, double> cases[] = {
      {{1, 2, 3}, 2.0}, {{1, 2, 3, 4, 5}, 3.0}, {{10, 20}, 15.0},
      {{4, 1, 3, 2}, 2.5}, {{7}, 0.0}};
  for (const auto& [values, spread] : cases) {
    RowSamples s{rate("t", 0), values};
    EXPECT_DOUBLE_EQ(s.quartileSpread(), spread);
  }
  EXPECT_DOUBLE_EQ((RowSamples{rate("t", 0), {4, 1, 3, 2}}).median(), 2.5);

  auto groups = groupRows({rate("a", 1), rate("a", 3), rate("b", 2), cost("a", 5)});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.at("a engine moves_per_s flat-bstar x apte @96").values,
            (std::vector<double>{1, 3}));
}

// ------------------------------------------------------------ bench_diff --

class BenchDiff : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bench_diff_test." + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string file(const std::string& name, const std::vector<BenchRecord>& rows) {
    const std::string path = (dir_ / name).string();
    std::string error;
    EXPECT_TRUE(writeFlatRecords(path, rows, error)) << error;
    return path;
  }

  /// Runs bench_diff on the given files; returns its exit status and keeps
  /// its combined output in output_.
  int run(const std::string& args) {
    const std::string outPath = (dir_ / "out.txt").string();
    const int status = std::system((std::string(BENCH_GATE_BINARY) + " " + args +
                                    " > " + outPath + " 2>&1").c_str());
    std::ifstream in(outPath);
    output_.assign(std::istreambuf_iterator<char>(in), {});
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  int diff(const std::vector<BenchRecord>& base,
           const std::vector<BenchRecord>& curr) {
    return run(file("base.json", base) + " " + file("curr.json", curr));
  }

  std::filesystem::path dir_;
  std::string output_;
};

TEST_F(BenchDiff, TimedRowFailsAtHalfSpeedAndPassesAtDouble) {
  // Baseline spread: q3 - q1 = 10 on a median of 100.
  const std::vector<BenchRecord> base = {rate("t", 95), rate("t", 100),
                                         rate("t", 105)};
  EXPECT_EQ(diff(base, {rate("t", 50), rate("t", 51), rate("t", 49)}), 1)
      << output_;
  EXPECT_NE(output_.find("FAIL t engine moves_per_s flat-bstar x apte @96"),
            std::string::npos) << output_;
  EXPECT_EQ(diff(base, {rate("t", 200), rate("t", 201), rate("t", 199)}), 0)
      << output_;
  // Inside the spread passes; just past it fails.
  EXPECT_EQ(diff(base, {rate("t", 91), rate("t", 90)}), 0) << output_;
  EXPECT_EQ(diff(base, {rate("t", 89), rate("t", 88)}), 1) << output_;
  // The current run is read at its best sample: one capture slowed by
  // other load on the host does not fail the key.
  EXPECT_EQ(diff(base, {rate("t", 50), rate("t", 100), rate("t", 40)}), 0)
      << output_;
}

TEST_F(BenchDiff, LowerIsBetterTimedRowFailsAtTwiceTheLatency) {
  auto latency = [](double ms) {
    return row("t", "latency_p50_ms", "ms", "lower", ms);
  };
  const std::vector<BenchRecord> base = {latency(9), latency(10), latency(11)};
  EXPECT_EQ(diff(base, {latency(20), latency(21)}), 1) << output_;
  EXPECT_EQ(diff(base, {latency(5), latency(6)}), 0) << output_;
}

TEST_F(BenchDiff, ExactRowFailsWhenWorseByAnyAmount) {
  EXPECT_EQ(diff({cost("t", 1000)}, {cost("t", 1001)}), 1) << output_;
  EXPECT_NE(output_.find("exact"), std::string::npos) << output_;
  EXPECT_EQ(diff({cost("t", 1000)}, {cost("t", 1000)}), 0) << output_;
  EXPECT_EQ(diff({cost("t", 1000)}, {cost("t", 999)}), 0) << output_;
}

TEST_F(BenchDiff, MissingRowFails) {
  EXPECT_EQ(diff({cost("t", 1), rate("t", 5), rate("t", 6)}, {cost("t", 1)}), 1)
      << output_;
  EXPECT_NE(output_.find("missing from the current run"), std::string::npos)
      << output_;
  // A row the baseline lacks is new coverage, not a failure.
  EXPECT_EQ(diff({cost("t", 1)}, {cost("t", 1), cost("u", 1)}), 0) << output_;
  EXPECT_NE(output_.find("1 new key(s)"), std::string::npos) << output_;
}

TEST_F(BenchDiff, RowsOfTwoToolsStaySeparateKeys) {
  // flat-bstar x apte from two tools: tool b's rate is ten times tool a's.
  // Pooled, a current run holding only tool a's rows would pass.
  const std::vector<BenchRecord> base = {rate("a", 99),   rate("a", 100),
                                         rate("a", 101),  rate("b", 990),
                                         rate("b", 1000), rate("b", 1010),
                                         cost("a", 10),   cost("b", 20)};
  EXPECT_EQ(diff(base, base), 0) << output_;
  EXPECT_NE(output_.find("2 exact key(s) gated at zero, 2 timed key(s)"),
            std::string::npos) << output_;
  EXPECT_EQ(diff(base, {rate("a", 100), rate("a", 100), cost("a", 10)}), 1)
      << output_;
  EXPECT_NE(output_.find("FAIL b engine cost"), std::string::npos) << output_;
  EXPECT_NE(output_.find("FAIL b engine moves_per_s"), std::string::npos)
      << output_;
}

TEST_F(BenchDiff, OneSampleTimedRowIsReportedNotGated) {
  EXPECT_EQ(diff({rate("t", 100)}, {rate("t", 10), rate("t", 11)}), 0)
      << output_;
  EXPECT_NE(output_.find("1 timed key(s) with one sample on a side reported, "
                         "not gated"),
            std::string::npos) << output_;
  EXPECT_EQ(diff({rate("t", 99), rate("t", 100)}, {rate("t", 10)}), 0)
      << output_;
  EXPECT_NE(output_.find("1 vs 2 sample(s)"), std::string::npos) << output_;
  // An exact row is gated whatever its sample count.
  EXPECT_EQ(diff({cost("t", 1)}, {cost("t", 2)}), 1) << output_;
}

TEST_F(BenchDiff, MergeKeepsEveryTimedSampleAndOneCopyOfAnExactRow) {
  const std::string a = file("a.json", {cost("t", 7), rate("t", 1)});
  const std::string b = file("b.json", {cost("t", 7), rate("t", 2)});
  const std::string merged = (dir_ / "merged.json").string();
  ASSERT_EQ(run("--merge " + merged + " " + a + " " + b), 0) << output_;
  std::vector<BenchRecord> rows;
  std::string error;
  ASSERT_TRUE(loadFlatRecords(merged, rows, error)) << error;
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(sameRow(rows[0], cost("t", 7)));
  EXPECT_TRUE(sameRow(rows[1], rate("t", 1)));
  EXPECT_TRUE(sameRow(rows[2], rate("t", 2)));
}

TEST_F(BenchDiff, RejectsUnreadableInputAndStrayFlags) {
  const std::string base = file("base.json", {cost("t", 1)});
  EXPECT_EQ(run(base + " " + (dir_ / "absent.json").string()), 2) << output_;
  EXPECT_EQ(run("--tol 40 " + base + " " + base), 2) << output_;
}

}  // namespace
}  // namespace als
