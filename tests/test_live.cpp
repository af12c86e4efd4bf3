// Tests for bwlive: sampler session lifecycle and the bounded ring,
// monotone cumulative keys across a concurrent 4-rank CloverLeaf run (the
// suite the CI TSan job runs against the sampler), final-sample
// consistency with the run's exit aggregates (RankStats sums, 1-rank
// exact datmove bytes), the stall classifier flagging a slow but live
// run while a real deadlock is diagnosed before any sampling window, the
// schema-versioned timeseries JSON round-trip (alone
// and inside the run report), and the ThreadPool census provider.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/fault.hpp"
#include "common/instrument.hpp"
#include "common/json.hpp"
#include "common/live.hpp"
#include "common/timeseries.hpp"
#include "common/trace.hpp"
#include "core/livemon.hpp"
#include "core/report.hpp"
#include "par/simmpi.hpp"
#include "par/thread_pool.hpp"

namespace bwlab {
namespace {

/// The sampler session is process-global; every test leaves it stopped
/// (and the other bw* layers clean) so state never leaks across tests.
class LiveTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    live::stop();
    datmove::disable();
    fault::clear();
    trace::disable();
    trace::reset();
  }
};

/// A session whose timer thread never fires on its own: samples are
/// driven explicitly with sample_now(), so tests are deterministic.
live::Config quiet_config() {
  live::Config cfg;
  cfg.interval_ms = 1LL << 40;
  return cfg;
}

apps::Options clover_options(int ranks) {
  apps::Options opt;
  opt.n = 64;
  opt.iterations = 30;
  opt.ranks = ranks;
  opt.threads = 1;
  return opt;
}

/// True when the key's column never decreases across samples.
bool monotone(const live::TimeSeries& ts, const std::string& key) {
  const int k = ts.key_index(key);
  if (k < 0) return true;
  for (std::size_t i = 1; i < ts.size(); ++i)
    if (ts.value(i, k) < ts.value(i - 1, k)) return false;
  return true;
}

// --- Session lifecycle and hot-path hooks ------------------------------------

TEST_F(LiveTest, HooksAreInertWithoutSession) {
  // A start/stop pair zeroes the counters regardless of what earlier
  // tests in this process did, making the checks order-independent.
  live::start(quiet_config());
  live::stop();
  EXPECT_FALSE(live::enabled());
  live::on_step(0);
  live::on_loop_bytes(4096);
  EXPECT_EQ(live::rank_steps(0), 0u);
  EXPECT_EQ(live::loop_bytes(), 0u);
  live::stop();  // no-op when not running
  EXPECT_FALSE(live::running());
}

TEST_F(LiveTest, StepAndByteCountersResetPerSession) {
  live::start(quiet_config());
  EXPECT_TRUE(live::enabled());
  live::on_step(0);
  live::on_step(0);
  live::on_step(3);
  live::on_loop_bytes(100);
  // Out-of-range ranks are dropped, not crashed on.
  live::on_step(-1);
  live::on_step(100000);
  EXPECT_EQ(live::rank_steps(0), 2u);
  EXPECT_EQ(live::rank_steps(3), 1u);
  EXPECT_EQ(live::loop_bytes(), 100u);
  live::sample_now();
  live::stop();
  EXPECT_FALSE(live::enabled());
  const live::TimeSeries ts = live::series();
  EXPECT_EQ(ts.last(live::rank_key(0, "steps")), 2.0);
  EXPECT_EQ(ts.last(live::rank_key(3, "steps")), 1.0);
  EXPECT_EQ(ts.last("live.loop_bytes"), 100.0);

  // A new session starts from zero (counters are per-session).
  live::start(quiet_config());
  EXPECT_EQ(live::rank_steps(0), 0u);
  EXPECT_EQ(live::loop_bytes(), 0u);
  live::stop();
}

TEST_F(LiveTest, RingIsBoundedAndEvictionsAreCounted) {
  live::Config cfg = quiet_config();
  cfg.ring_capacity = 4;
  live::start(cfg);
  for (int i = 0; i < 10; ++i) live::sample_now();
  live::stop();  // takes one final sample
  const live::TimeSeries ts = live::series();
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.dropped_samples, 11u - 4u);
  EXPECT_EQ(ts.last("live.dropped_samples"), 6.0);  // as of the final sample
  // Times stay strictly ordered across evictions.
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_GE(ts.times[i], ts.times[i - 1]);
}

// --- Concurrent sampling against a real 4-rank run ---------------------------

TEST_F(LiveTest, CloverCumulativeKeysStayMonotone) {
  live::Config cfg = quiet_config();
  cfg.interval_ms = 2;  // sample aggressively while the ranks run
  live::start(cfg);
  const apps::Result res = apps::clover2d::run(clover_options(4));
  live::stop();
  const live::TimeSeries ts = live::series();
  ASSERT_GE(ts.size(), 3u);
  EXPECT_EQ(ts.interval_ms, 2);

  // Every cumulative family must be non-decreasing in a fault-free run —
  // the property the carry-forward export preserves even after the
  // per-world provider unregisters at run end.
  // (rank.*.mailbox / pending_irecv / blocked_op are instantaneous
  // gauges and legitimately go up and down — only the counters qualify.)
  std::vector<std::string> cumulative = {"live.loop_bytes",
                                         "trace.dropped_events"};
  const auto ends_with = [](const std::string& s, const std::string& suf) {
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
  };
  for (const std::string& k : ts.keys)
    if (k.rfind("counter.", 0) == 0 ||
        (k.rfind("rank.", 0) == 0 &&
         (ends_with(k, ".steps") || ends_with(k, ".msgs_sent") ||
          ends_with(k, ".bytes_sent"))))
      cumulative.push_back(k);
  for (const std::string& k : cumulative)
    EXPECT_TRUE(monotone(ts, k)) << "key not monotone: " << k;

  // The SimMPI provider contributed per-rank keys for all four ranks.
  EXPECT_EQ(ts.ranks(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ts.last("world.ranks"), 4.0);
  ASSERT_FALSE(res.rank_stats.empty());
}

TEST_F(LiveTest, FinalSampleMatchesExitAggregates) {
  live::start(quiet_config());
  const apps::Options opt = clover_options(4);
  const apps::Result res = apps::clover2d::run(opt);
  live::stop();
  const live::TimeSeries ts = live::series();
  ASSERT_FALSE(ts.empty());

  // Steps: each rank executed exactly `iterations` time steps.
  for (int r = 0; r < opt.ranks; ++r)
    EXPECT_EQ(ts.last(live::rank_key(r, "steps")),
              static_cast<double>(opt.iterations));

  // Messages and payload bytes: the final sample's per-rank counters are
  // the same numbers run_ranks returned as its exit aggregates.
  ASSERT_EQ(res.rank_stats.size(), static_cast<std::size_t>(opt.ranks));
  double msgs = 0, bytes = 0, stat_msgs = 0, stat_bytes = 0;
  for (int r = 0; r < opt.ranks; ++r) {
    msgs += ts.last(live::rank_key(r, "msgs_sent"));
    bytes += ts.last(live::rank_key(r, "bytes_sent"));
    const par::RankStats& st = res.rank_stats[static_cast<std::size_t>(r)];
    stat_msgs += static_cast<double>(st.messages_sent);
    stat_bytes += static_cast<double>(st.payload_bytes_sent);
  }
  EXPECT_EQ(msgs, stat_msgs);
  EXPECT_EQ(bytes, stat_bytes);
}

TEST_F(LiveTest, SingleRankDatmoveBytesMatchExactly) {
  // datmove.cum_bytes is process-wide while the report total is rank-0
  // scoped, so the exact-match assertion needs a 1-rank run.
  datmove::enable();
  live::start(quiet_config());
  const apps::Result res = apps::clover2d::run(clover_options(1));
  live::stop();
  datmove::disable();
  const live::TimeSeries ts = live::series();
  EXPECT_GT(res.instr.datmove_total_bytes(), 0);
  EXPECT_EQ(ts.last("datmove.cum_bytes"),
            static_cast<double>(res.instr.datmove_total_bytes()));
}

// --- Stall flags and deadlock diagnosis -------------------------------------

// A slow but live run: rank 1 sleeps 300 ms (running) before it sends, so
// both ranks' counters stay flat for many 20 ms windows. Both are flagged
// stalling mid-run, the offline classifier agrees on the series up to
// that sample, and the run still completes: a stall is not a deadlock.
TEST_F(LiveTest, SlowSenderIsFlaggedStallingAndCompletes) {
  live::Config cfg;
  cfg.interval_ms = 20;
  cfg.stall_windows = 3;
  live::start(cfg);
  double got = 0;
  EXPECT_NO_THROW(par::run_ranks(2, [&got](par::Comm& c) {
    double x = 2.5;
    if (c.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      c.send(0, 9, &x, sizeof x);
    } else {
      c.recv(1, 9, &x, sizeof x);
      got = x;
    }
  }));
  live::stop();
  EXPECT_EQ(got, 2.5);
  const live::TimeSeries ts = live::series();

  const int k = ts.key_index("live.stalled_ranks");
  ASSERT_GE(k, 0);
  std::size_t flagged = 0;
  while (flagged < ts.size() && ts.value(flagged, k) < 2) ++flagged;
  ASSERT_LT(flagged, ts.size()) << "both ranks never flagged together";
  EXPECT_LT(ts.times[flagged], 0.3) << "flag later than the send";
  // The run ended with rank 1's send: the last sample sees it moving.
  EXPECT_EQ(ts.last(live::rank_key(1, "msgs_sent")), 1.0);

  // The offline classifier (what bwtop runs on a saved series) agrees on
  // the series as it stood at the flagged sample.
  live::TimeSeries upto = ts;
  upto.times.resize(flagged + 1);
  upto.values.resize(flagged + 1);
  const std::vector<core::StallFlag> flags = core::classify_stalls(
      upto, static_cast<std::size_t>(cfg.stall_windows));
  ASSERT_EQ(flags.size(), 2u);
  EXPECT_EQ(flags[0].rank, 0);
  EXPECT_EQ(flags[1].rank, 1);
  for (const core::StallFlag& f : flags)
    EXPECT_GE(f.windows, static_cast<std::size_t>(cfg.stall_windows));
}

// A real deadlock (both ranks receive first) is diagnosed the moment the
// second rank parks — before the sampler's first 20 ms window closes, so
// no stall flag ever precedes it.
TEST_F(LiveTest, DeadlockIsDiagnosedBeforeTheFirstWindow) {
  live::Config cfg;
  cfg.interval_ms = 20;
  cfg.stall_windows = 3;
  live::start(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(par::run_ranks(2,
                              [](par::Comm& c) {
                                double x = 0;
                                c.recv(1 - c.rank(), 9, &x, sizeof x);
                              }),
               par::WatchdogError);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  live::stop();
  EXPECT_LT(elapsed_s, 0.02);
  const live::TimeSeries ts = live::series();
  const int k = ts.key_index("live.stalled_ranks");
  for (std::size_t i = 0; k >= 0 && i < ts.size(); ++i)
    EXPECT_EQ(ts.value(i, k), 0.0) << "stall flag at sample " << i;
}

// --- JSON round-trips --------------------------------------------------------

live::TimeSeries sample_series() {
  live::TimeSeries ts;
  ts.interval_ms = 50;
  ts.roof_bytes_per_s = 1446e9;
  ts.dropped_samples = 2;
  ts.keys = {"counter.comm.messages", "live.loop_bytes", "rank.0.steps"};
  ts.times = {0.052, 0.104, 0.151};
  ts.values = {{4, 1024, 1}, {9, 4096, 3}, {9, 8192, 7}};
  return ts;
}

TEST_F(LiveTest, TimeseriesJsonRoundTripIsBitwise) {
  const live::TimeSeries ts = sample_series();
  std::ostringstream first;
  json::write(first, ts);
  const live::TimeSeries back =
      json::read<live::TimeSeries>(json::parse(first.str()));
  EXPECT_EQ(back.interval_ms, ts.interval_ms);
  EXPECT_EQ(back.roof_bytes_per_s, ts.roof_bytes_per_s);
  EXPECT_EQ(back.dropped_samples, ts.dropped_samples);
  EXPECT_EQ(back.keys, ts.keys);
  EXPECT_EQ(back.times, ts.times);
  EXPECT_EQ(back.values, ts.values);
  std::ostringstream second;
  json::write(second, back);
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(LiveTest, TimeseriesFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bwlive_ts.json";
  live::write_timeseries_file(path, sample_series(), "clover2d", "abc123");
  const live::TimeSeriesFile f = live::read_timeseries_file(path);
  EXPECT_EQ(f.app, "clover2d");
  EXPECT_EQ(f.git_sha, "abc123");
  EXPECT_EQ(f.series.keys, sample_series().keys);
  EXPECT_EQ(f.series.values, sample_series().values);
  ::unlink(path.c_str());
}

TEST_F(LiveTest, RunReportRoundTripsTimeseriesSection) {
  Instrumentation instr;
  LoopRecord& lr = instr.loop("advec_cell");
  lr.calls = 100;
  lr.points = 4800;
  lr.bytes = 38400;
  lr.flops = 2.5;
  lr.host_seconds = 1e-3;
  const live::TimeSeries ts = sample_series();
  const core::RunReport rep = core::make_run_report(
      instr, nullptr, nullptr, nullptr, nullptr, nullptr, &ts);
  ASSERT_TRUE(rep.timeseries.has_value());
  std::ostringstream first;
  core::write_run_report_json(first, rep);
  std::istringstream is(first.str());
  const core::RunReport back = core::parse_run_report(is);
  ASSERT_TRUE(back.timeseries.has_value());
  EXPECT_EQ(back.timeseries->keys, ts.keys);
  EXPECT_EQ(back.timeseries->values, ts.values);
  std::ostringstream second;
  core::write_run_report_json(second, back);
  EXPECT_EQ(first.str(), second.str());

  // An empty series stays absent, keeping default reports byte-identical.
  const core::RunReport plain = core::make_run_report(instr);
  EXPECT_FALSE(plain.timeseries.has_value());
}

// --- Census providers --------------------------------------------------------

TEST_F(LiveTest, ThreadPoolCensusFeedsTheSampler) {
  live::start(quiet_config());
  {
    par::ThreadPool pool(3);
    pool.run([](int) {});
    const par::PoolCensus c = par::pool_census();
    EXPECT_GE(c.pools, 1);
    EXPECT_GE(c.threads, 3);
    live::sample_now();
  }
  live::stop();
  const live::TimeSeries ts = live::series();
  // The final stop() sample runs after the pool died, so pools/threads
  // are back to 0 there — the mid-run sample is the one that carries the
  // occupancy. regions is cumulative and survives the pool.
  const auto column_max = [&ts](const std::string& key) {
    const int k = ts.key_index(key);
    double m = 0;
    if (k >= 0)
      for (std::size_t i = 0; i < ts.size(); ++i)
        m = std::max(m, ts.value(i, k));
    return m;
  };
  EXPECT_GE(column_max("pool.pools"), 1.0);
  EXPECT_GE(column_max("pool.threads"), 3.0);
  EXPECT_GE(ts.last("pool.regions"), 1.0);
}

// --- livemon presentation helpers --------------------------------------------

TEST_F(LiveTest, RateLineAndRankTableRender) {
  live::TimeSeries ts = sample_series();
  const std::string rate = core::live_rate_line(ts);
  EXPECT_NE(rate.find("GB/s"), std::string::npos);
  EXPECT_NE(rate.find("%"), std::string::npos);  // roof is known
  const std::string table = core::live_rank_table(ts, 4);
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("0"), std::string::npos);
}

}  // namespace
}  // namespace bwlab
