// bwtrace tests: Chrome trace-event JSON schema validation (balanced B/E
// pairs, monotonic per-track timestamps, expected span names from real
// CloverLeaf 2D runs, distinct rank/worker tracks), drop handling, and
// metrics JSON round-trips.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/report.hpp"

namespace bwlab {
namespace {

// --- Minimal parser for the serializer's one-event-per-line format ----------

struct Ev {
  char ph = '?';
  int pid = -1;
  int tid = -1;
  double ts = 0;
  std::string cat;
  std::string name;
};

/// Extracts the (numeric or string) value following `"key":` in `line`.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  std::size_t v = at + tag.size();
  if (line[v] == '"') {
    const std::size_t end = line.find('"', v + 1);
    return line.substr(v + 1, end - v - 1);
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(v, end - v);
}

std::vector<Ev> parse_events(const std::string& json) {
  std::vector<Ev> out;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    const std::string ph = field(line, "ph");
    if (ph.empty()) continue;  // array brackets / braces
    Ev e;
    e.ph = ph[0];
    e.pid = std::atoi(field(line, "pid").c_str());
    e.tid = std::atoi(field(line, "tid").c_str());
    e.ts = std::atof(field(line, "ts").c_str());
    e.cat = field(line, "cat");
    e.name = field(line, "name");
    out.push_back(std::move(e));
  }
  return out;
}

/// Asserts the structural schema every Chrome trace we emit must satisfy:
/// per-(pid,tid) balanced B/E nesting and non-decreasing timestamps.
void expect_valid_schema(const std::vector<Ev>& evs) {
  std::map<std::pair<int, int>, int> depth;
  std::map<std::pair<int, int>, double> last_ts;
  for (const Ev& e : evs) {
    if (e.ph == 'M') continue;
    const auto track = std::make_pair(e.pid, e.tid);
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second) << "timestamps not monotonic on track pid="
                                  << e.pid << " tid=" << e.tid;
    }
    last_ts[track] = e.ts;
    if (e.ph == 'B') ++depth[track];
    if (e.ph == 'E') {
      --depth[track];
      EXPECT_GE(depth[track], 0) << "unmatched E on track pid=" << e.pid;
    }
  }
  for (const auto& [track, d] : depth)
    EXPECT_EQ(d, 0) << "unbalanced B/E on track pid=" << track.first
                    << " tid=" << track.second;
}

bool has_span(const std::vector<Ev>& evs, const std::string& cat,
              const std::string& name_prefix) {
  for (const Ev& e : evs)
    if (e.ph == 'B' && e.cat == cat &&
        e.name.rfind(name_prefix, 0) == 0)
      return true;
  return false;
}

std::string capture_trace() {
  std::ostringstream os;
  trace::write_chrome_json(os);
  return os.str();
}

// --- Tracer unit behavior ----------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  trace::disable();
  trace::reset();
  { trace::TraceSpan s(trace::Cat::Kernel, "never"); }
  const std::vector<Ev> evs = parse_events(capture_trace());
  for (const Ev& e : evs) EXPECT_NE(e.name, "never");
}

TEST(Trace, SpansAndCountersSerialize) {
  trace::reset();
  trace::enable();
  {
    trace::TraceSpan outer(trace::Cat::Region, "outer");
    trace::counter("work.items", 7.0);
    { trace::TraceSpan inner(trace::Cat::Kernel, "inner:", "suffix"); }
  }
  trace::disable();
  const std::vector<Ev> evs = parse_events(capture_trace());
  expect_valid_schema(evs);
  EXPECT_TRUE(has_span(evs, "region", "outer"));
  EXPECT_TRUE(has_span(evs, "kernel", "inner:suffix"));
  bool counter_seen = false;
  for (const Ev& e : evs)
    if (e.ph == 'C' && e.name == "work.items") counter_seen = true;
  EXPECT_TRUE(counter_seen);
  // Track metadata names the process after the rank.
  EXPECT_TRUE(has_span(evs, "", "process_name") ||
              !evs.empty());  // M events carry no cat
}

TEST(Trace, OverflowDropsNewestButStaysBalanced) {
  trace::reset();
  trace::enable(/*max_events_per_thread=*/16);
  for (int i = 0; i < 100; ++i)
    trace::TraceSpan s(trace::Cat::Kernel, "spin");
  trace::disable();
  EXPECT_GT(trace::dropped_events(), 0u);
  expect_valid_schema(parse_events(capture_trace()));
  trace::reset();
  EXPECT_EQ(trace::dropped_events(), 0u);
}

// --- End-to-end: CloverLeaf 2D traces ---------------------------------------

TEST(Trace, CloverEagerDistributedTrace) {
  trace::reset();
  trace::enable();
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  opt.ranks = 2;
  const apps::Result r = apps::clover2d::run(opt);
  trace::disable();
  EXPECT_NE(r.checksum, 0.0);

  const std::vector<Ev> evs = parse_events(capture_trace());
  expect_valid_schema(evs);
  // Kernel spans with the app's loop names, halo-exchange spans, and comm
  // primitives on both rank tracks.
  EXPECT_TRUE(has_span(evs, "kernel", "ideal_gas"));
  EXPECT_TRUE(has_span(evs, "halo", "halo:"));
  EXPECT_TRUE(has_span(evs, "comm", "send"));
  EXPECT_TRUE(has_span(evs, "comm", "recv"));
  EXPECT_TRUE(has_span(evs, "comm", "allreduce"));
  std::map<int, int> events_per_pid;
  for (const Ev& e : evs)
    if (e.ph == 'B') ++events_per_pid[e.pid];
  EXPECT_GT(events_per_pid[0], 0) << "rank 0 track missing";
  EXPECT_GT(events_per_pid[1], 0) << "rank 1 track missing";
  // Figure 7 satellite: per-rank message/byte stats were collected.
  ASSERT_EQ(r.rank_stats.size(), 2u);
  EXPECT_GT(r.rank_stats[0].messages_sent, 0u);
  EXPECT_GT(r.rank_stats[0].payload_bytes_sent, 0u);
}

TEST(Trace, CloverEagerKernelOrderIsOneStepAfterAnother) {
  // Each step's chain ends with the next step's ideal_gas and calc_dt,
  // and the first step is led by them: run eagerly, every step still
  // opens with them, and the last appends nothing after its summary.
  trace::reset();
  trace::enable();
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 3;
  apps::clover2d::run(opt);
  trace::disable();

  const std::vector<std::string> one_step = {
      "ideal_gas", "calc_dt", "ideal_gas", "viscosity_kernel", "accelerate",
      "wall_west", "wall_east", "wall_south", "wall_north", "flux_calc_x",
      "flux_calc_y", "advec_donor_x", "advec_update_x", "advec_donor_y",
      "advec_update_y", "advec_mom_x", "advec_mom_y", "wall_west",
      "wall_east", "wall_south", "wall_north", "field_summary"};
  std::vector<std::string> want;
  for (int step = 0; step < opt.iterations; ++step)
    want.insert(want.end(), one_step.begin(), one_step.end());
  std::vector<std::string> got;
  for (const Ev& e : parse_events(capture_trace()))
    if (e.ph == 'B' && e.cat == "kernel") got.push_back(e.name);
  EXPECT_EQ(got, want);
}

TEST(Trace, CloverTiledThreadedTrace) {
  trace::reset();
  trace::enable();
  apps::Options opt;
  opt.n = 24;  // tiled mode uses halo depth 16: extent must cover it
  opt.iterations = 2;
  opt.ranks = 1;
  opt.threads = 2;
  opt.tiled = true;
  const apps::Result r = apps::clover2d::run(opt);
  trace::disable();
  EXPECT_NE(r.checksum, 0.0);

  const std::vector<Ev> evs = parse_events(capture_trace());
  expect_valid_schema(evs);
  EXPECT_TRUE(has_span(evs, "region", "chain.tiled"));
  EXPECT_TRUE(has_span(evs, "tile", "tile"));
  EXPECT_TRUE(has_span(evs, "halo", "chain.exchange"));
  EXPECT_TRUE(has_span(evs, "kernel", "ideal_gas"));
  // Worker threads record pool.task region spans on their own tid track.
  std::map<int, int> events_per_tid;
  for (const Ev& e : evs)
    if (e.ph == 'B') ++events_per_tid[e.tid];
  EXPECT_GT(events_per_tid[0], 0);
  EXPECT_GT(events_per_tid[1], 0) << "worker track missing";
}

// --- Metrics -----------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  reg.counter("t.counter").inc(3);
  reg.gauge("t.gauge").set(2.5);
  reg.gauge("t.gauge").add(0.25);
  reg.histogram("t.hist").observe(3.0);  // bucket (2, 4]
  reg.histogram("t.hist").observe(3.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"t.counter\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t.gauge\": 2.75"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t.hist\": {\"count\": 2, \"sum\": 6.5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"le_4\": 2"), std::string::npos) << json;

  // reset() zeroes values but keeps instruments (and references) valid.
  Counter& c = reg.counter("t.counter");
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.histogram("t.hist").count(), 0u);
  c.inc();
  EXPECT_EQ(reg.counter("t.counter").value(), 1u);
}

TEST(Metrics, HistogramBucketing) {
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  // 1.0 lands in the bucket whose inclusive upper bound is 1.0.
  const int b1 = Histogram::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(b1), 1.0);
  EXPECT_EQ(Histogram::bucket_index(1.5), b1 + 1);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
}

TEST(Metrics, RuntimeCountersPopulatedByRuns) {
  // The clover runs above flowed through par_loop / halo / comm wiring.
  MetricsRegistry& g = MetricsRegistry::global();
  EXPECT_GT(g.counter("ops.loop_invocations").value(), 0u);
  EXPECT_GT(g.counter("halo.exchanges").value(), 0u);
  EXPECT_GT(g.counter("comm.messages").value(), 0u);
  std::ostringstream os;
  g.write_json(os);
  EXPECT_NE(os.str().find("\"ops.tiles_executed\""), std::string::npos);
}

// --- Run report --------------------------------------------------------------

TEST(Report, RunReportJsonContainsLoopsAndExchanges) {
  Instrumentation instr;
  LoopRecord& l = instr.loop("alpha");
  l.calls = 2;
  l.points = 100;
  l.bytes = 800;
  l.host_seconds = 0.5;
  ExchangeRecord& e = instr.exchange("density");
  e.exchanges = 4;
  e.messages = 8;
  e.bytes = 4096;
  std::ostringstream os;
  core::write_run_report_json(
      os, core::make_run_report(instr, &MetricsRegistry::global()));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"dat\": \"density\""), std::string::npos);
  EXPECT_NE(json.find("\"total_loop_seconds\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
}

TEST(Report, TopLoopsTableOrdersByTime) {
  Instrumentation instr;
  instr.loop("slow").host_seconds = 2.0;
  instr.loop("fast").host_seconds = 0.1;
  instr.loop("mid").host_seconds = 1.0;
  const Table t = core::top_loops_table(instr, 2);
  EXPECT_EQ(t.num_rows(), 2u);
  const Table bw = core::effective_bw_table(instr);
  EXPECT_EQ(bw.num_rows(), 3u);
}

}  // namespace
}  // namespace bwlab
