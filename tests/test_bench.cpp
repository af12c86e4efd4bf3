// bwbench tests: BENCH_*.json schema round-trip, the noise-aware
// regression gate (regression detected, noise overlap passes,
// missing-metric is an error, direction handling for higher-is-better
// metrics), threshold parsing, merge, environment knobs, and the
// roofline-attribution report (entries populated from a real CloverLeaf
// 2D run; drift flag fires on a deliberately mis-calibrated machine
// model; attribution block lands in the run-report JSON).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/benchjson.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/app_registry.hpp"
#include "core/attribution.hpp"
#include "core/config.hpp"
#include "core/perf_model.hpp"
#include "core/report.hpp"
#include "sim/machine.hpp"

namespace bwlab {
namespace {

using benchjson::Better;
using benchjson::GateOptions;
using benchjson::Metric;
using benchjson::ResultFile;
using benchjson::Suite;
using benchjson::Verdict;

ResultFile one_metric_file(const std::string& name,
                           std::vector<double> samples,
                           Better better = Better::Lower) {
  ResultFile f;
  f.git_sha = "test";
  f.suites.push_back({"suite", "host", {{name, "ns", better, samples}}});
  return f;
}

// --- Schema round-trip -------------------------------------------------------

TEST(BenchJson, RoundTripPreservesEverything) {
  ResultFile f;
  f.git_sha = "abc123";
  f.suites.push_back(
      {"gb_one", "host",
       {{"triad.4096.gbs", "GB/s", Better::Higher, {10.5, 11.25, 10.75}},
        {"weird \"name\"\\path", "ns", Better::Lower, {1e-9, 2.5e6}}}});
  f.suites.push_back({"gb_two", "max9480", {{"pred.s", "s", Better::Lower,
                                             {0.125}}}});

  std::ostringstream os;
  benchjson::write(os, f);
  const ResultFile g = benchjson::parse(os.str());

  EXPECT_EQ(g.schema_version, benchjson::kSchemaVersion);
  EXPECT_EQ(g.git_sha, "abc123");
  ASSERT_EQ(g.suites.size(), 2u);
  EXPECT_EQ(g.suites[0].suite, "gb_one");
  EXPECT_EQ(g.suites[1].machine, "max9480");
  ASSERT_EQ(g.suites[0].metrics.size(), 2u);
  const Metric& m0 = g.suites[0].metrics[0];
  EXPECT_EQ(m0.name, "triad.4096.gbs");
  EXPECT_EQ(m0.unit, "GB/s");
  EXPECT_EQ(m0.better, Better::Higher);
  ASSERT_EQ(m0.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(m0.samples[1], 11.25);
  EXPECT_EQ(g.suites[0].metrics[1].name, "weird \"name\"\\path");
  EXPECT_DOUBLE_EQ(g.suites[0].metrics[1].samples[0], 1e-9);
}

TEST(BenchJson, RejectsWrongSchemaVersion) {
  EXPECT_THROW(
      benchjson::parse(
          R"({"schema_version": 99, "git_sha": "x", "suites": []})"),
      Error);
}

TEST(BenchJson, RejectsMalformedJson) {
  EXPECT_THROW(benchjson::parse("{"), Error);
  EXPECT_THROW(benchjson::parse(R"({"schema_version": 1})"), Error);
  EXPECT_THROW(
      benchjson::parse(
          R"({"schema_version": 1, "git_sha": "x", "suites": [{}]})"),
      Error);
  const auto one_metric = [](const std::string& better,
                             const std::string& samples) {
    return R"({"schema_version": 1, "git_sha": "x", "suites": [)"
           R"({"suite": "s", "machine": "host", "metrics": [)"
           R"({"name": "m", "unit": "ns", "better": ")" +
           better + R"(", "samples": )" + samples + "}]}]}";
  };
  EXPECT_NO_THROW(benchjson::parse(one_metric("lower", "[1, null]")));
  EXPECT_THROW(benchjson::parse(one_metric("lower", R"("1.5")")), Error);
  EXPECT_THROW(benchjson::parse(one_metric("lower", R"(["1.5"])")), Error);
  EXPECT_THROW(benchjson::parse(one_metric("sideways", "[1]")), Error);
}

TEST(BenchJson, MergeConcatenatesAndRejectsDuplicates) {
  const ResultFile a = one_metric_file("m", {1.0});
  ResultFile b = one_metric_file("m", {2.0});
  b.suites[0].suite = "other";
  const ResultFile merged = benchjson::merge({a, b});
  EXPECT_EQ(merged.suites.size(), 2u);
  EXPECT_THROW(benchjson::merge({a, a}), Error);
}

// --- Stats helpers the gate builds on ---------------------------------------

TEST(Stats, MedianAndMad) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  // Deviations from median 2: {1, 0, 1} -> MAD 1, scaled 1.4826.
  EXPECT_NEAR(mad({1.0, 2.0, 3.0}), 1.4826, 1e-12);
  EXPECT_DOUBLE_EQ(mad({5.0, 5.0, 5.0}), 0.0);
  // Robustness: one wild outlier does not explode the spread estimate
  // (median 1.05, deviations {.05,.05,.15,0,98.95} -> median dev .05).
  EXPECT_NEAR(mad({1.0, 1.1, 0.9, 1.05, 100.0}), 1.4826 * 0.05, 1e-9);
}

// --- The noise-aware gate ----------------------------------------------------

TEST(BenchGate, SelfCompareIsClean) {
  const ResultFile f = one_metric_file("m", {1.0, 1.1, 0.95});
  const benchjson::CompareReport r = benchjson::compare(f, f);
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].verdict, Verdict::Ok);
  EXPECT_NEAR(r.rows[0].worse_change, 0.0, 1e-12);
}

TEST(BenchGate, RegressionDetectedAndNamed) {
  const ResultFile base = one_metric_file("hot.ns", {100.0, 101.0, 99.0});
  const ResultFile cand = one_metric_file("hot.ns", {150.0, 151.5, 148.5});
  const benchjson::CompareReport r = benchjson::compare(base, cand);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.regressions, 1);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].verdict, Verdict::Regressed);
  EXPECT_NEAR(r.rows[0].worse_change, 0.5, 1e-9);
  ASSERT_EQ(r.failed_metrics().size(), 1u);
  EXPECT_EQ(r.failed_metrics()[0], "suite/hot.ns");
}

TEST(BenchGate, NoisyOverlapPasses) {
  // Medians differ by 20% (past the 10% threshold) but the repetitions
  // are noisy enough that the ±3·MAD intervals overlap: not a verdict.
  const ResultFile base = one_metric_file("m", {100.0, 80.0, 120.0, 95.0});
  const ResultFile cand = one_metric_file("m", {120.0, 96.0, 144.0, 114.0});
  const benchjson::CompareReport r = benchjson::compare(base, cand);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.rows[0].verdict, Verdict::Ok);
}

TEST(BenchGate, TightThresholdStillRespectsNoise) {
  // Same data, threshold 1%: still passes because the gate requires the
  // noise intervals to separate, not just the medians to move.
  const ResultFile base = one_metric_file("m", {100.0, 80.0, 120.0, 95.0});
  const ResultFile cand = one_metric_file("m", {120.0, 96.0, 144.0, 114.0});
  GateOptions opt;
  opt.threshold = 0.01;
  EXPECT_TRUE(benchjson::compare(base, cand, opt).ok());
}

TEST(BenchGate, MissingMetricIsAnError) {
  const ResultFile base = one_metric_file("m", {1.0});
  ResultFile cand = base;
  cand.suites[0].metrics[0].name = "renamed";
  const benchjson::CompareReport r = benchjson::compare(base, cand);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.missing, 1);
  // The renamed metric also shows up as new (informational, not fatal).
  bool saw_new = false;
  for (const benchjson::MetricDelta& d : r.rows)
    if (d.verdict == Verdict::New) saw_new = true;
  EXPECT_TRUE(saw_new);
  ASSERT_EQ(r.failed_metrics().size(), 1u);
  EXPECT_EQ(r.failed_metrics()[0], "suite/m");
}

TEST(BenchGate, HigherIsBetterDirection) {
  const ResultFile base = one_metric_file("bw.gbs", {100.0, 100.5, 99.5},
                                          Better::Higher);
  const ResultFile slower = one_metric_file("bw.gbs", {50.0, 50.25, 49.75},
                                            Better::Higher);
  const ResultFile faster = one_metric_file("bw.gbs", {200.0, 201.0, 199.0},
                                            Better::Higher);
  EXPECT_EQ(benchjson::compare(base, slower).rows[0].verdict,
            Verdict::Regressed);
  EXPECT_EQ(benchjson::compare(base, faster).rows[0].verdict,
            Verdict::Improved);
  EXPECT_EQ(benchjson::compare(base, faster).regressions, 0);
}

TEST(BenchGate, PerturbedRunRegressesTimeMetric) {
  // The BWBENCH_PERTURB contract the acceptance test relies on: scaling
  // every duration by 1.5 turns a self-compare into a regression.
  const ResultFile base = one_metric_file("m.ns", {100.0, 101.0, 99.0});
  ResultFile cand = base;
  for (double& s : cand.suites[0].metrics[0].samples) s *= 1.5;
  const benchjson::CompareReport r = benchjson::compare(base, cand);
  EXPECT_EQ(r.rows[0].verdict, Verdict::Regressed);
}

TEST(BenchGate, ThresholdParsing) {
  EXPECT_DOUBLE_EQ(benchjson::parse_threshold("10%"), 0.10);
  EXPECT_DOUBLE_EQ(benchjson::parse_threshold("0.1"), 0.1);
  EXPECT_DOUBLE_EQ(benchjson::parse_threshold("2.5%"), 0.025);
  EXPECT_THROW(benchjson::parse_threshold("ten"), Error);
  EXPECT_THROW(benchjson::parse_threshold(""), Error);
}

TEST(BenchEnv, PerturbFactorParsesEnv) {
  ASSERT_EQ(setenv("BWBENCH_PERTURB", "1.5", 1), 0);
  EXPECT_DOUBLE_EQ(benchjson::perturb_factor(), 1.5);
  ASSERT_EQ(setenv("BWBENCH_PERTURB", "zero", 1), 0);
  EXPECT_THROW(benchjson::perturb_factor(), Error);
  ASSERT_EQ(unsetenv("BWBENCH_PERTURB"), 0);
  EXPECT_DOUBLE_EQ(benchjson::perturb_factor(), 1.0);
}

TEST(BenchEnv, RepetitionOverride) {
  ASSERT_EQ(setenv("BWBENCH_REPS", "9", 1), 0);
  EXPECT_EQ(benchjson::repetitions(5), 9);
  ASSERT_EQ(unsetenv("BWBENCH_REPS"), 0);
  EXPECT_EQ(benchjson::repetitions(5), 5);
}

TEST(BenchEnv, Fig9ModelMetricsIdenticalAcrossRepCounts) {
  // The BENCH_fig9 model metrics (predicted tiling speedups) are pure
  // functions of machine model and profile; the BWBENCH_REPS sampling
  // knob must not move them by a single bit.
  auto model_speedups = [] {
    const core::AppProfile& prof = core::app_by_id("cloverleaf2d").profile;
    std::vector<double> out;
    for (const sim::MachineModel* m :
         {&sim::max9480(), &sim::icx8360y(), &sim::milanx()}) {
      core::PerfModel pm(*m);
      const core::Config c =
          core::default_config(*m, core::AppClass::Structured);
      out.push_back(pm.predict(prof, c).total() /
                    pm.predict_tiled(prof, c).total());
    }
    return out;
  };
  ASSERT_EQ(setenv("BWBENCH_REPS", "3", 1), 0);
  const std::vector<double> reps3 = model_speedups();
  ASSERT_EQ(setenv("BWBENCH_REPS", "9", 1), 0);
  const std::vector<double> reps9 = model_speedups();
  ASSERT_EQ(unsetenv("BWBENCH_REPS"), 0);
  ASSERT_EQ(reps3.size(), reps9.size());
  for (std::size_t i = 0; i < reps3.size(); ++i)
    EXPECT_EQ(reps3[i], reps9[i]) << "machine index " << i;
  // Sanity: the model still predicts a tiling win everywhere.
  for (const double s : reps3) EXPECT_GT(s, 1.0);
}

// --- Roofline attribution ----------------------------------------------------

class AttributionTest : public ::testing::Test {
 protected:
  static const apps::Result& clover_run() {
    static const apps::Result r = [] {
      apps::Options opt;
      opt.n = 24;
      opt.iterations = 2;
      return apps::clover2d::run(opt);
    }();
    return r;
  }
};

TEST_F(AttributionTest, EntriesPopulatedFromRealRun) {
  const core::Config cfg =
      core::default_config(sim::max9480(), core::AppClass::Structured);
  const core::AttributionReport rep =
      core::attribute(clover_run().instr, sim::max9480(), cfg);
  EXPECT_EQ(rep.machine_id, "max9480");
  ASSERT_FALSE(rep.loops.empty());
  EXPECT_GT(rep.measured_total, 0.0);
  EXPECT_GT(rep.predicted_total, 0.0);
  for (const core::LoopAttribution& a : rep.loops) {
    EXPECT_FALSE(a.name.empty());
    EXPECT_GT(a.predicted_s, 0.0) << a.name;
    EXPECT_GE(a.predicted_s, std::max(a.mem_roof_s, a.comp_roof_s) * 0.999);
    if (a.measured_s > 0) {
      EXPECT_GT(a.roof_fraction, 0.0) << a.name;
      EXPECT_NEAR(a.drift, a.measured_s / a.predicted_s - 1.0, 1e-12);
    }
  }
}

TEST_F(AttributionTest, MiscalibratedModelFiresDriftFlag) {
  const core::Config cfg =
      core::default_config(sim::max9480(), core::AppClass::Structured);
  // A machine model whose memory system is absurdly fast predicts times
  // far below anything this host measures: every timed loop must drift.
  sim::MachineModel fast = sim::max9480();
  fast.id = "max9480-miscal";
  fast.stream_triad_node *= 1e6;
  fast.stream_triad_node_ss *= 1e6;
  fast.mem_bw_peak_per_socket *= 1e6;
  fast.mem_latency_ns /= 1e6;
  for (sim::CacheLevel& c : fast.caches) {
    c.bw_bytes_per_core *= 1e6;
    c.bw_bytes_per_socket *= 1e6;
  }
  const core::AttributionReport rep =
      core::attribute(clover_run().instr, fast, cfg, /*tolerance=*/0.25);
  EXPECT_GT(rep.drifted_count, 0);
  for (const core::LoopAttribution& a : rep.loops)
    if (a.measured_s > 0) {
      EXPECT_TRUE(a.drifted) << a.name;
      EXPECT_GT(a.drift, 0.25) << a.name;
    }

  // The same join with an enormous tolerance keeps every flag quiet:
  // drift magnitude and the flag are independent.
  const core::AttributionReport lax =
      core::attribute(clover_run().instr, fast, cfg, /*tolerance=*/1e30);
  EXPECT_EQ(lax.drifted_count, 0);
}

TEST_F(AttributionTest, ReportJsonCarriesAttribution) {
  const core::Config cfg =
      core::default_config(sim::max9480(), core::AppClass::Structured);
  const core::AttributionReport rep =
      core::attribute(clover_run().instr, sim::max9480(), cfg);
  std::ostringstream os;
  core::write_run_report_json(
      os, core::make_run_report(clover_run().instr, nullptr, &rep));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"roof_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"drifted\""), std::string::npos);
  EXPECT_NE(json.find("\"machine\": \"max9480\""), std::string::npos);
}

TEST_F(AttributionTest, TableHasOneRowPerLoopPlusTotal) {
  const core::Config cfg =
      core::default_config(sim::max9480(), core::AppClass::Structured);
  const core::AttributionReport rep =
      core::attribute(clover_run().instr, sim::max9480(), cfg);
  const Table t = core::attribution_table(rep);
  // Loops + separator + total row.
  EXPECT_EQ(t.num_rows(), rep.loops.size() + 2);
}

}  // namespace
}  // namespace bwlab
