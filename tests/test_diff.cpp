// Tests for bwdiff (core/diff.hpp) and the full run-report round trip
// (core::parse_run_report): loop alignment across renames (gone + new
// rows, nothing silently dropped), per-loop and per-bucket delta
// contributions summing exactly to the measured totals, zero-duration
// buckets, a clean error on mismatched rank counts, MAD significance
// verdicts on synthetic repetition samples, bitwise
// write -> parse -> rewrite stability of a report carrying every section,
// truncated reports failing cleanly, a report written by the pre-codec
// writer reading back to the same value tree, and the acceptance
// scenario: a CloverLeaf run pair where one side carries an injected
// bwfault send delay must attribute the majority of the wall delta to
// comm_wait.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/json.hpp"
#include "common/live.hpp"
#include "common/memtier.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/trace.hpp"
#include "core/attribution.hpp"
#include "core/causal.hpp"
#include "core/config.hpp"
#include "core/datmove.hpp"
#include "core/diff.hpp"
#include "core/memtier.hpp"
#include "core/report.hpp"
#include "sim/machine.hpp"

namespace bwlab::core {
namespace {

/// Tracing, faults, resil, the datmove profiler, the memtier allocator and
/// the bwlive sampler are process-global; restore the clean state around
/// every test.
class DiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::disable();
    trace::reset();
    fault::clear();
    resil::clear();
  }
  void TearDown() override {
    trace::disable();
    trace::reset();
    fault::clear();
    resil::clear();
    DataMoveProfiler::disable();
    memtier::uninstall();
    live::stop();
  }
};

ReportLoop make_loop(const std::string& name, double seconds,
                     count_t bytes = 0) {
  ReportLoop l;
  l.name = name;
  l.calls = 1;
  l.host_seconds = seconds;
  l.bytes = bytes;
  l.pattern = "streaming";
  return l;
}

RunReport two_loop_report(double s1, double s2) {
  RunReport r;
  r.loops.push_back(make_loop("alpha", s1, 100));
  r.loops.push_back(make_loop("beta", s2, 200));
  r.total_loop_seconds = s1 + s2;
  return r;
}

const LoopDelta* find_loop(const DiffReport& d, const std::string& name) {
  for (const LoopDelta& l : d.loops)
    if (l.name == name) return &l;
  return nullptr;
}

// --- Alignment ----------------------------------------------------------------

TEST_F(DiffTest, RenamedLoopShowsAsGonePlusNew) {
  RunReport a = two_loop_report(1.0, 2.0);
  RunReport b = two_loop_report(1.0, 2.5);
  b.loops[1].name = "beta_v2";  // renamed between the runs

  const DiffReport d = diff_runs(a, b);
  ASSERT_EQ(d.loops.size(), 3u);
  const LoopDelta* gone = find_loop(d, "beta");
  const LoopDelta* fresh = find_loop(d, "beta_v2");
  const LoopDelta* common = find_loop(d, "alpha");
  ASSERT_NE(gone, nullptr);
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(common, nullptr);
  EXPECT_EQ(gone->status, DiffStatus::Gone);
  EXPECT_EQ(fresh->status, DiffStatus::New);
  EXPECT_EQ(common->status, DiffStatus::Common);
  // Gone contributes -a, new contributes +b: nothing is dropped, and the
  // rows still sum to the loop-seconds delta.
  EXPECT_DOUBLE_EQ(gone->delta_seconds, -2.0);
  EXPECT_DOUBLE_EQ(fresh->delta_seconds, 2.5);
  double sum = 0;
  for (const LoopDelta& l : d.loops) sum += l.delta_seconds;
  EXPECT_DOUBLE_EQ(sum, d.loop_delta_seconds);
  EXPECT_DOUBLE_EQ(d.loop_delta_seconds, 0.5);
}

TEST_F(DiffTest, ZeroDurationBucketsDiffCleanly) {
  RunReport a = two_loop_report(1.0, 1.0);
  RunReport b = two_loop_report(1.0, 1.0);
  a.causal.emplace();
  b.causal.emplace();
  a.causal->nranks = b.causal->nranks = 2;
  a.causal->wall_s = 2.0;
  b.causal->wall_s = 2.5;
  a.causal->critical_path.buckets = {{"kernel", 2.0}, {"comm_wait", 0.0}};
  b.causal->critical_path.buckets = {{"kernel", 2.0}, {"comm_wait", 0.5}};

  const DiffReport d = diff_runs(a, b);
  EXPECT_TRUE(d.wall_from_causal);
  EXPECT_DOUBLE_EQ(d.wall_delta_seconds, 0.5);
  ASSERT_EQ(d.buckets.size(), 2u);
  // Sorted by |delta|: the grown zero bucket leads, the unchanged one is
  // reported with delta 0 rather than dropped.
  EXPECT_EQ(d.buckets[0].bucket, "comm_wait");
  EXPECT_DOUBLE_EQ(d.buckets[0].delta_seconds, 0.5);
  EXPECT_DOUBLE_EQ(d.buckets[0].share, 1.0);
  EXPECT_EQ(d.buckets[1].bucket, "kernel");
  EXPECT_DOUBLE_EQ(d.buckets[1].delta_seconds, 0.0);
  double sum = 0;
  for (const BucketDelta& bd : d.buckets) sum += bd.delta_seconds;
  EXPECT_DOUBLE_EQ(sum, d.wall_delta_seconds);
}

TEST_F(DiffTest, BucketOnlyOnOneSideIsGoneOrNew) {
  RunReport a = two_loop_report(1.0, 1.0);
  RunReport b = two_loop_report(1.0, 1.0);
  a.causal.emplace();
  b.causal.emplace();
  a.causal->nranks = b.causal->nranks = 1;
  a.causal->critical_path.buckets = {{"kernel", 1.0}, {"recovery", 0.2}};
  b.causal->critical_path.buckets = {{"kernel", 1.0}, {"imbalance", 0.1}};

  const DiffReport d = diff_runs(a, b);
  ASSERT_EQ(d.buckets.size(), 3u);
  for (const BucketDelta& bd : d.buckets) {
    if (bd.bucket == "recovery") {
      EXPECT_EQ(bd.status, DiffStatus::Gone);
    } else if (bd.bucket == "imbalance") {
      EXPECT_EQ(bd.status, DiffStatus::New);
    } else {
      EXPECT_EQ(bd.status, DiffStatus::Common);
    }
  }
}

TEST_F(DiffTest, DifferentRankCountsIsCleanError) {
  RunReport a = two_loop_report(1.0, 1.0);
  RunReport b = two_loop_report(1.0, 1.0);
  a.causal.emplace();
  b.causal.emplace();
  a.causal->nranks = 2;
  b.causal->nranks = 4;
  EXPECT_THROW(diff_runs(a, b), Error);
}

// --- Significance (MAD gate) -------------------------------------------------

std::vector<RunReport> side_with_samples(const std::vector<double>& times) {
  std::vector<RunReport> runs;
  for (const double t : times) {
    RunReport r;
    r.loops.push_back(make_loop("hot", t));
    r.total_loop_seconds = t;
    runs.push_back(std::move(r));
  }
  return runs;
}

TEST_F(DiffTest, SingleReportsGiveNoSamplesVerdict) {
  const DiffReport d = diff_runs(two_loop_report(1.0, 1.0),
                                 two_loop_report(1.2, 1.0));
  for (const LoopDelta& l : d.loops)
    EXPECT_EQ(l.significance, Significance::NoSamples);
}

TEST_F(DiffTest, DisjointSamplesBeyondThresholdAreSignificant) {
  // Medians 1.0 vs 1.5 (50% move), MAD ~ 0.015: intervals are disjoint.
  const DiffReport d =
      diff_runs(side_with_samples({0.99, 1.00, 1.01, 1.02}),
                side_with_samples({1.49, 1.50, 1.51, 1.52}));
  const LoopDelta* l = find_loop(d, "hot");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->significance, Significance::Significant);
  EXPECT_NEAR(l->a_median, 1.005, 1e-9);
  EXPECT_NEAR(l->b_median, 1.505, 1e-9);
}

TEST_F(DiffTest, OverlappingMadIntervalsAreInsignificant) {
  // Medians move 50% but the samples are so noisy the k=3 MAD intervals
  // overlap: the gate must refuse to call it.
  const DiffReport d = diff_runs(side_with_samples({0.5, 1.0, 1.5, 2.0}),
                                 side_with_samples({0.9, 1.5, 2.1, 2.7}));
  const LoopDelta* l = find_loop(d, "hot");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->significance, Significance::Insignificant);
}

TEST_F(DiffTest, SmallMedianMoveIsInsignificantEvenWhenTight) {
  // 2% move with tiny MAD: disjoint intervals, but below the threshold.
  const DiffReport d =
      diff_runs(side_with_samples({0.999, 1.000, 1.001, 1.001}),
                side_with_samples({1.019, 1.020, 1.021, 1.021}));
  const LoopDelta* l = find_loop(d, "hot");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->significance, Significance::Insignificant);
}

// --- Round trip ---------------------------------------------------------------

/// A real 2-rank clover2d run, tiled, with every optional section live:
/// trace + causal, datmove, metrics, resil, attribution, the memtier
/// allocator, a bwlive series, and a provenance stamp.
RunReport all_sections_report() {
  resil::Policy pol;
  pol.enabled = true;
  pol.degraded = true;  // a non-default value to round-trip
  resil::install(pol);
  const sim::MachineModel& machine = sim::machine_by_id("max9480-flat");
  install_memtier_allocator(machine, "auto");
  DataMoveProfiler::enable();
  trace::enable();
  live::Config live_cfg;
  live_cfg.interval_ms = 1LL << 40;  // only the final sample at stop()
  live::start(live_cfg);
  apps::Options opt;
  opt.n = 48;
  opt.iterations = 2;
  opt.ranks = 2;
  opt.tiled = true;
  const apps::Result res = apps::clover2d::run(opt);
  live::stop();
  trace::disable();
  DataMoveProfiler::disable();
  EXPECT_NE(res.checksum, 0.0);

  const causal::Report causal_rep = causal::analyze_live();
  const DatMoveReport dm = DataMoveProfiler::analyze(res.instr);
  const AttributionReport attr = attribute(
      res.instr, machine, default_config(machine, AppClass::Structured));
  const MemTierSection mt = build_memtier_section(res.instr, machine, "auto");
  memtier::uninstall();
  const live::TimeSeries ts = live::series();
  RunProvenance prov;
  prov.git_sha = "deadbeef";
  prov.machine = "max9480";
  prov.cmdline = "run_app --app=clover2d \"quoted\"";
  prov.seed = 12345;
  return make_run_report(res.instr, &MetricsRegistry::global(), &attr,
                         &causal_rep, &dm, &prov, &ts, &mt);
}

TEST_F(DiffTest, RunReportRoundTripIsBitwise) {
  const RunReport report = all_sections_report();

  std::ostringstream first;
  write_run_report_json(first, report);
  for (const char* section :
       {"\"provenance\"", "\"loops\"", "\"exchanges\"", "\"tiling\"",
        "\"attribution\"", "\"metrics\"", "\"causal\"", "\"datmove\"",
        "\"memtier\"", "\"resil\"", "\"trace\"", "\"timeseries\""})
    EXPECT_NE(first.str().find(section), std::string::npos)
        << section << " missing from the report";

  std::istringstream in(first.str());
  const RunReport parsed = parse_run_report(in);
  EXPECT_TRUE(parsed.provenance.has_value());
  EXPECT_EQ(parsed.provenance->git_sha, "deadbeef");
  EXPECT_EQ(parsed.provenance->cmdline, "run_app --app=clover2d \"quoted\"");
  EXPECT_EQ(parsed.loops.size(), report.loops.size());
  EXPECT_TRUE(parsed.causal.has_value());
  EXPECT_TRUE(parsed.datmove.has_value());
  EXPECT_TRUE(parsed.resil.has_value());
  EXPECT_TRUE(parsed.tiling.has_value());
  EXPECT_TRUE(parsed.attribution.has_value());
  EXPECT_TRUE(parsed.memtier.has_value());
  EXPECT_TRUE(parsed.timeseries.has_value());

  std::ostringstream second;
  write_run_report_json(second, parsed);
  EXPECT_EQ(first.str(), second.str())
      << "write -> parse -> rewrite must be bitwise stable";
}

TEST_F(DiffTest, TruncatedReportIsADiagnosedError) {
  std::ostringstream os;
  write_run_report_json(os, all_sections_report());
  const std::string text = os.str();
  const std::size_t end = text.rfind('}');
  ASSERT_NE(end, std::string::npos);
  int cuts = 0;
  for (std::size_t len = 0; len < end; len += 97, ++cuts) {
    std::istringstream in(text.substr(0, len));
    EXPECT_THROW(parse_run_report(in), Error) << "cut at byte " << len;
  }
  EXPECT_GT(cuts, 100);
}

// tests/data/run_report_b7ace8d.json was written by run_app at commit
// b7ace8d, the last commit before the table-driven codec, with
//   BWBENCH_GIT_SHA=b7ace8d ./build/examples/run_app --app=clover2d --n=48
//     --iters=2 --ranks=2 --tiled --causal --datmove --mode=flat
//     --place=auto --resil --live-interval-ms=50 --live-out=ts.json
//     --report=run_report_b7ace8d.json
// (every section on). Reading it and writing it back must change nothing
// but whitespace and the retired bwresil timer knobs: the reader skips
// them, so the reprint is the parent tree minus exactly those keys, with
// every other key in the same order and every value the same text.
TEST_F(DiffTest, ParentFormatReportReprintsToTheSameTree) {
  const std::string path =
      std::string(BWLAB_TEST_DATA_DIR) + "/run_report_b7ace8d.json";
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << path;
  std::ostringstream text;
  text << is.rdbuf();
  std::istringstream in(text.str());
  std::ostringstream reprint;
  write_run_report_json(reprint, parse_run_report(in));
  json::Value before = json::parse(text.str());
  ASSERT_EQ(before.obj.size(), 13u);  // twelve sections + total_loop_seconds
  const auto erase = [](json::Value& obj, const std::string& key) {
    EXPECT_EQ(std::erase_if(obj.obj,
                            [&](const auto& m) { return m.first == key; }),
              1u)
        << key;
  };
  auto* resil = const_cast<json::Value*>(before.find("resil"));
  ASSERT_NE(resil, nullptr);
  auto* policy = const_cast<json::Value*>(resil->find("policy"));
  ASSERT_NE(policy, nullptr);
  erase(*resil, "backoff_waits");
  for (const char* key :
       {"retry_max", "timeout_us", "backoff_us", "backoff_cap_us", "seed"})
    erase(*policy, key);
  EXPECT_TRUE(before == json::parse(reprint.str()));
  EXPECT_NE(text.str(), reprint.str());  // the layout did change
}

TEST_F(DiffTest, RoundTripWithoutOptionalSectionsIsBitwise) {
  apps::Options opt;
  opt.n = 16;
  opt.iterations = 1;
  const apps::Result res = apps::clover2d::run(opt);
  std::ostringstream first;
  write_run_report_json(first, make_run_report(res.instr));
  std::istringstream in(first.str());
  std::ostringstream second;
  write_run_report_json(second, parse_run_report(in));
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(DiffTest, ParseRejectsMalformedInput) {
  std::istringstream not_json("not a report");
  EXPECT_THROW(parse_run_report(not_json), Error);
  std::istringstream no_loops("{\"exchanges\": []}");
  EXPECT_THROW(parse_run_report(no_loops), Error);
}

TEST_F(DiffTest, OutOfRangeCountIsADiagnosedError) {
  for (const char* calls : {"-1", "1e300", "nan"}) {
    std::istringstream in(std::string("{\"loops\": [{\"calls\": ") + calls +
                          "}]}");
    EXPECT_THROW(parse_run_report(in), Error) << calls;
  }
}

// --- Acceptance: perturbed CloverLeaf pair -----------------------------------

RunReport clover_causal_run(bool delayed) {
  if (delayed)
    fault::install(fault::FaultPlan::parse("delay:rank=1,us=20000,msg=0", 1));
  trace::enable();
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  opt.ranks = 2;
  const apps::Result res = apps::clover2d::run(opt);
  trace::disable();
  const causal::Report causal_rep = causal::analyze_live();
  RunReport r = make_run_report(res.instr, nullptr, nullptr, &causal_rep);
  trace::reset();
  fault::clear();
  return r;
}

TEST_F(DiffTest, DelayedRankAttributesWallDeltaToCommWait) {
  const RunReport a = clover_causal_run(/*delayed=*/false);
  const RunReport b = clover_causal_run(/*delayed=*/true);
  const DiffReport d = diff_runs(a, b);

  ASSERT_TRUE(d.wall_from_causal);
  // The injected 20 ms delay dominates the healthy run's ~ms wall.
  EXPECT_GT(d.wall_delta_seconds, 0.015);

  // Majority of the wall delta lands in comm_wait.
  const BucketDelta* comm = nullptr;
  double bucket_sum = 0;
  for (const BucketDelta& bd : d.buckets) {
    bucket_sum += bd.delta_seconds;
    if (bd.bucket == "comm_wait") comm = &bd;
  }
  ASSERT_NE(comm, nullptr);
  EXPECT_GT(comm->delta_seconds, 0.5 * d.wall_delta_seconds)
      << "comm_wait must absorb the majority of the injected delay";

  // Attribution invariants: bucket deltas decompose the wall delta and
  // loop deltas decompose the loop-seconds delta, both within 1%.
  EXPECT_NEAR(bucket_sum, d.wall_delta_seconds,
              0.01 * std::abs(d.wall_delta_seconds));
  double loop_sum = 0;
  for (const LoopDelta& l : d.loops) loop_sum += l.delta_seconds;
  EXPECT_NEAR(loop_sum, d.loop_delta_seconds,
              0.01 * std::max(std::abs(d.loop_delta_seconds), 1e-9));

  // The verdict is deterministic: diffing the same pair again (values
  // already fixed, no timestamps in compared fields) yields identical
  // JSON bytes.
  std::ostringstream once, twice;
  json::write(once, d);
  json::write(twice, diff_runs(a, b));
  EXPECT_EQ(once.str(), twice.str());
}

}  // namespace
}  // namespace bwlab::core
