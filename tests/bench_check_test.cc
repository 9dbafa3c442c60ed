// Tests for the bench regression checker (bench/check.h): metric
// direction inference, tolerance resolution, CompareDocs pass/fail
// classification, and the CheckDirs file driver's error paths
// (missing results file, malformed JSON, empty baseline dir), and the
// harness's --out writer keeping a baseline's hand-written tolerances.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/check.h"
#include "bench/harness.h"
#include "src/common/json_parse.h"

namespace autodc::bench {
namespace {

namespace fs = std::filesystem;

JsonValue Parse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return parsed.ok() ? std::move(parsed).ValueOrDie() : JsonValue{};
}

TEST(DirectionForMetricTest, ClassifiesBySuffixAndStem) {
  EXPECT_EQ(DirectionForMetric("scalar_ns"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("wall_ms"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("final_train_loss"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("overhead_pct"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("entity_count_err"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("speedup"), MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("simd_gflops"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("weighted_f1"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("hit_rate"), MetricDirection::kHigherIsBetter);
  // Position-independent stems: "throughput" / "hit_rate" anywhere in
  // the name gate as higher-is-better, not just as a suffix.
  EXPECT_EQ(DirectionForMetric("throughput_int8_mvps"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("scan_throughput"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("hit_rate_top5"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("cache_hit_rate_pct"),
            MetricDirection::kLowerIsBetter);  // suffix checks still win
  // Admission-control rejects gate as lower-is-better wherever the
  // stem appears (the serve bench's "reject_rate").
  EXPECT_EQ(DirectionForMetric("reject_rate"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("rejected_total"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("candidates"), MetricDirection::kTwoSided);
  EXPECT_EQ(DirectionForMetric("separation"), MetricDirection::kTwoSided);
}

// A two-row baseline used across the CompareDocs tests.
const char kBaseline[] = R"({
  "bench": "demo",
  "results": [
    {"name": "hot_loop", "metrics": {"time_ms": 100.0, "speedup": 4.0}},
    {"name": "quality", "metrics": {"f1": 0.8, "unmeasured": null}}
  ],
  "tolerances": {"hot_loop.time_ms": 0.5, "f1": 0.05, "default": 0.2}
})";

CheckReport RunCheck(const std::string& results_json,
                CheckOptions options = CheckOptions{}) {
  JsonValue baseline = Parse(kBaseline);
  JsonValue results = Parse(results_json);
  CheckReport report;
  CompareDocs("demo", baseline, results, options, &report);
  return report;
}

TEST(CompareDocsTest, IdenticalResultsPass) {
  CheckReport report = RunCheck(kBaseline);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_TRUE(report.errors.empty());
  // 3 compared metrics + 1 skipped null row.
  EXPECT_EQ(report.rows.size(), 4u);
}

TEST(CompareDocsTest, WithinToleranceDriftPasses) {
  // time_ms +40% is inside its per-metric 0.5 band; f1 -4% inside 0.05.
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 140.0, "speedup": 4.0}},
    {"name": "quality", "metrics": {"f1": 0.77}}
  ]})");
  EXPECT_TRUE(report.ok()) << FormatCheckReport(report, true);
}

TEST(CompareDocsTest, RegressionBeyondToleranceFails) {
  // time_ms +60% breaches 0.5; f1 -25% breaches 0.05; speedup -75%
  // breaches the file default 0.2.
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 160.0, "speedup": 1.0}},
    {"name": "quality", "metrics": {"f1": 0.6}}
  ]})");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failures(), 3u);
}

TEST(CompareDocsTest, ImprovementsNeverFailDirectionalMetrics) {
  // Faster time, higher speedup, higher f1: all moves in the good
  // direction, however large.
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 10.0, "speedup": 40.0}},
    {"name": "quality", "metrics": {"f1": 0.99}}
  ]})");
  EXPECT_TRUE(report.ok()) << FormatCheckReport(report, true);
}

TEST(CompareDocsTest, MissingResultRowFails) {
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 100.0, "speedup": 4.0}}
  ]})");
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const MetricCheckRow& row : report.rows) {
    if (row.result == "quality" && !row.ok) {
      EXPECT_EQ(row.note, "result row missing from current run");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompareDocsTest, MissingMetricFails) {
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 100.0}},
    {"name": "quality", "metrics": {"f1": 0.8}}
  ]})");
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures(), 1u);
  for (const MetricCheckRow& row : report.rows) {
    if (!row.ok) {
      EXPECT_EQ(row.metric, "speedup");
      EXPECT_EQ(row.note, "metric missing from current run");
    }
  }
}

TEST(CompareDocsTest, MetricTurnedNullFails) {
  // The results writer maps NaN/Inf to null; that must read as a
  // regression, not a silent skip.
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 100.0, "speedup": null}},
    {"name": "quality", "metrics": {"f1": 0.8}}
  ]})");
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures(), 1u);
  for (const MetricCheckRow& row : report.rows) {
    if (!row.ok) {
      EXPECT_EQ(row.note, "metric became null (NaN/Inf)");
    }
  }
}

TEST(CompareDocsTest, NullBaselineMetricIsSkippedNotCompared) {
  CheckReport report = RunCheck(kBaseline);
  bool skipped = false;
  for (const MetricCheckRow& row : report.rows) {
    if (row.metric == "unmeasured") {
      EXPECT_TRUE(row.ok);
      EXPECT_EQ(row.note, "skipped: baseline value is null");
      skipped = true;
    }
  }
  EXPECT_TRUE(skipped);
}

TEST(CompareDocsTest, CliToleranceOverridesFileDefaultOnly) {
  // With --tolerance 0.9 (an override): the per-metric bands still
  // apply, but the file's "default" 0.2 no longer governs speedup.
  CheckOptions options;
  options.default_tolerance = 0.9;
  options.tolerance_is_override = true;
  CheckReport report = RunCheck(R"({"results": [
    {"name": "hot_loop", "metrics": {"time_ms": 100.0, "speedup": 1.0}},
    {"name": "quality", "metrics": {"f1": 0.6}}
  ]})",
                           options);
  // speedup -75% now passes (0.9 band); f1 -25% still fails its
  // per-metric 0.05 band.
  EXPECT_EQ(report.failures(), 1u);
  for (const MetricCheckRow& row : report.rows) {
    if (!row.ok) {
      EXPECT_EQ(row.metric, "f1");
    }
  }
}

TEST(CompareDocsTest, BaselineWithoutResultsArrayIsAnError) {
  JsonValue baseline = Parse(R"({"bench": "demo"})");
  JsonValue results = Parse(R"({"results": []})");
  CheckReport report;
  CompareDocs("demo", baseline, results, CheckOptions{}, &report);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("no results[] array"), std::string::npos);
}

class CheckDirsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("bench_check_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    fs::remove_all(root_);
    base_dir_ = (root_ / "baselines").string();
    results_dir_ = (root_ / "results").string();
    fs::create_directories(base_dir_);
    fs::create_directories(results_dir_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteFile(const std::string& dir, const std::string& name,
                 const std::string& text) {
    std::ofstream out(fs::path(dir) / name);
    out << text;
  }

  fs::path root_;
  std::string base_dir_;
  std::string results_dir_;
};

const char kSimpleDoc[] =
    R"({"results": [{"name": "r", "metrics": {"x_ms": 10.0}}]})";

TEST_F(CheckDirsTest, MatchingDirsPass) {
  WriteFile(base_dir_, "BENCH_demo.json", kSimpleDoc);
  WriteFile(results_dir_, "BENCH_demo.json", kSimpleDoc);
  CheckReport report = CheckDirs(base_dir_, results_dir_, CheckOptions{});
  EXPECT_TRUE(report.ok()) << FormatCheckReport(report, true);
  EXPECT_EQ(report.rows.size(), 1u);
}

TEST_F(CheckDirsTest, MissingResultsFileIsAnError) {
  WriteFile(base_dir_, "BENCH_demo.json", kSimpleDoc);
  CheckReport report = CheckDirs(base_dir_, results_dir_, CheckOptions{});
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("no results file"), std::string::npos);
}

TEST_F(CheckDirsTest, MalformedJsonIsAnErrorNamingTheFile) {
  WriteFile(base_dir_, "BENCH_demo.json", kSimpleDoc);
  WriteFile(results_dir_, "BENCH_demo.json", "{\"results\": [trunc");
  CheckReport report = CheckDirs(base_dir_, results_dir_, CheckOptions{});
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("BENCH_demo.json"), std::string::npos);
}

TEST_F(CheckDirsTest, EmptyBaselineDirIsAnError) {
  CheckReport report = CheckDirs(base_dir_, results_dir_, CheckOptions{});
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("no BENCH_*.json baselines"),
            std::string::npos);
}

TEST_F(CheckDirsTest, NonBaselineFilesAreIgnored) {
  WriteFile(base_dir_, "BENCH_demo.json", kSimpleDoc);
  WriteFile(base_dir_, "notes.json", "not even json");
  WriteFile(base_dir_, "README.md", "prose");
  WriteFile(results_dir_, "BENCH_demo.json", kSimpleDoc);
  CheckReport report = CheckDirs(base_dir_, results_dir_, CheckOptions{});
  EXPECT_TRUE(report.ok()) << FormatCheckReport(report, true);
}

// Regenerating a baseline with --out rewrites its file; a hand-written
// "tolerances" object in the old file must survive, or every gate it
// tightened silently falls back to the CLI's wide default.
TEST_F(CheckDirsTest, OutKeepsTheReplacedFilesTolerances) {
  auto run_demo = [](const std::string& dir) {
    std::vector<std::string> args = {"bench_demo", "--repeats", "1",
                                     "--out", dir};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return BenchMain(static_cast<int>(argv.size()), argv.data(),
                     BenchSpec{"demo", "demo", "demo"}, [](Bench& b) {
                       b.Report("r", {{"recall", 0.5}});
                       return 0;
                     });
  };
  auto read_doc = [](const std::string& dir) {
    std::ifstream in(fs::path(dir) / "BENCH_demo.json");
    std::stringstream text;
    text << in.rdbuf();
    return Parse(text.str());
  };

  WriteFile(base_dir_, "BENCH_demo.json",
            R"({"results": [{"name": "r", "metrics": {"recall": 0.9}}],)"
            R"( "tolerances": {"r.recall": 0.02, "x_ms": 1.5}})");
  ASSERT_EQ(run_demo(base_dir_), 0);
  JsonValue doc = read_doc(base_dir_);
  const JsonValue* results = doc.Find("results");
  ASSERT_TRUE(results != nullptr && results->array.size() == 1u);
  EXPECT_EQ(results->array[0].Find("metrics")->Find("recall")->NumberOr(0),
            0.5);  // the rows are the new run's
  const JsonValue* tolerances = doc.Find("tolerances");
  ASSERT_NE(tolerances, nullptr);
  EXPECT_EQ(tolerances->object.size(), 2u);
  EXPECT_EQ(tolerances->Find("r.recall")->NumberOr(0), 0.02);
  EXPECT_EQ(tolerances->Find("x_ms")->NumberOr(0), 1.5);

  // A first write has no tolerances to keep and invents none.
  ASSERT_EQ(run_demo(results_dir_), 0);
  EXPECT_EQ(read_doc(results_dir_).Find("tolerances"), nullptr);
}

TEST(FormatCheckReportTest, SummaryLineNamesTheVerdict) {
  CheckReport report;
  MetricCheckRow row;
  row.label = "demo";
  row.result = "r";
  row.metric = "x_ms";
  row.ok = false;
  row.note = "regressed +50% (tol 35%)";
  report.rows.push_back(row);
  std::string text = FormatCheckReport(report, false);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("1 regressed"), std::string::npos);
  report.rows[0].ok = true;
  report.rows[0].note.clear();
  text = FormatCheckReport(report, false);
  EXPECT_NE(text.find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace autodc::bench
