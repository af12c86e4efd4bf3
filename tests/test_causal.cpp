// Tests for bwcausal (core/causal.hpp + the trace-layer flow events):
// flow-id stability, wait-state classification on synthetic timelines,
// the live 2-rank late-sender scenario driven by a bwfault delay spec,
// matched s/f flow events in the exported Chrome JSON, offline
// trace::read_chrome_json equivalence, the trace codec's round trip (live
// tracks, merged two-run traces, a parent-commit trace fixture, truncated
// and malformed input), per-thread drop accounting in the run
// report, and the headline acceptance scenario — CloverLeaf 2D with a
// delayed halo send classified as late-sender, the critical path crossing
// the delayed rank, and bucket seconds summing to the traced wall time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"
#include "core/causal.hpp"
#include "core/diff.hpp"
#include "core/report.hpp"
#include "par/simmpi.hpp"

namespace bwlab {
namespace {

using core::causal::Options;
using core::causal::Report;
using core::causal::WaitClass;

/// Tracing and fault plans are process-global; restore the clean state
/// around every test.
class CausalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::disable();
    trace::reset();
    fault::clear();
  }
  void TearDown() override {
    trace::disable();
    trace::reset();
    fault::clear();
  }
};

// --- Synthetic-timeline helpers ---------------------------------------------

constexpr std::uint64_t kMs = 1000000;  // ns per millisecond

trace::EventView begin(std::uint64_t ts_ns, trace::Cat cat,
                       const std::string& name) {
  trace::EventView e;
  e.ph = 'B';
  e.ts_ns = ts_ns;
  e.cat = cat;
  e.name = name;
  return e;
}

trace::EventView begin_comm(std::uint64_t ts_ns, const std::string& name,
                            int peer, int tag, long long seq,
                            unsigned long long bytes) {
  trace::EventView e = begin(ts_ns, trace::Cat::Comm, name);
  e.has_args = true;
  e.peer = peer;
  e.tag = tag;
  e.seq = seq;
  e.bytes = bytes;
  return e;
}

trace::EventView end(std::uint64_t ts_ns) {
  trace::EventView e;
  e.ph = 'E';
  e.ts_ns = ts_ns;
  return e;
}

trace::EventView flow(char ph, std::uint64_t ts_ns, std::uint64_t id) {
  trace::EventView e;
  e.ph = ph;
  e.ts_ns = ts_ns;
  e.cat = trace::Cat::Comm;
  e.name = "msg";
  e.flow = id;
  return e;
}

/// Two-rank synthetic scenario: rank 1 sends one message to rank 0. The
/// send span covers [send0, send1] with delivery at `deliver`; the
/// receive span covers [w0, w1] with the flow-finish at w1.
std::vector<trace::TrackView> one_message(std::uint64_t send0,
                                          std::uint64_t deliver,
                                          std::uint64_t send1,
                                          std::uint64_t w0, std::uint64_t w1,
                                          unsigned long long bytes = 800) {
  const std::uint64_t id = trace::flow_id(1, 0, 7, 0);
  trace::TrackView sender;
  sender.rank = 1;
  sender.tid = 0;
  sender.events = {begin_comm(send0, "send", 0, 7, 0, bytes),
                   flow('s', deliver, id), end(send1)};
  trace::TrackView recver;
  recver.rank = 0;
  recver.tid = 0;
  recver.events = {begin_comm(w0, "recv", 1, 7, 0, bytes),
                   flow('f', w1, id), end(w1)};
  return {recver, sender};
}

// --- flow_id -----------------------------------------------------------------

TEST(CausalFlowId, StableAndDistinct) {
  EXPECT_EQ(trace::flow_id(0, 1, 42, 3), trace::flow_id(0, 1, 42, 3));
  std::set<std::uint64_t> ids;
  for (int src = 0; src < 4; ++src)
    for (int dest = 0; dest < 4; ++dest)
      for (int tag = 0; tag < 4; ++tag)
        for (long long seq = 0; seq < 4; ++seq)
          ids.insert(trace::flow_id(src, dest, tag, seq));
  EXPECT_EQ(ids.size(), 4u * 4u * 4u * 4u);
  EXPECT_NE(trace::flow_id(0, 1, 7, 0), trace::flow_id(1, 0, 7, 0));
}

// --- Wait-state classification on synthetic timelines ------------------------

TEST_F(CausalTest, ClassifiesLateSender) {
  // Receiver blocks at 5 ms; the message is delivered at 40 ms.
  const Report r = core::causal::analyze(
      one_message(10 * kMs, 40 * kMs, 40 * kMs + kMs / 2, 5 * kMs, 41 * kMs));
  ASSERT_EQ(r.messages.size(), 1u);
  EXPECT_EQ(r.messages[0].cls, WaitClass::LateSender);
  EXPECT_NEAR(r.messages[0].wait_s, 0.036, 1e-9);
  ASSERT_EQ(r.rank_waits.size(), 2u);
  EXPECT_NEAR(r.rank_waits[0].late_sender_s, 0.036, 1e-9);
  EXPECT_EQ(r.rank_waits[0].late_sender_n, 1);
  EXPECT_EQ(r.unmatched_sends, 0);
  EXPECT_EQ(r.unmatched_recvs, 0);
}

TEST_F(CausalTest, ClassifiesLateReceiver) {
  // Delivered at 5 ms; the receiver only arrives at 20 ms and blocks for
  // 10 us — within the copy allowance.
  const Report r = core::causal::analyze(one_message(
      4 * kMs, 5 * kMs, 6 * kMs, 20 * kMs, 20 * kMs + 10000));
  ASSERT_EQ(r.messages.size(), 1u);
  EXPECT_EQ(r.messages[0].cls, WaitClass::LateReceiver);
  EXPECT_GT(r.rank_waits[0].late_receiver_s, 0.0);
}

TEST_F(CausalTest, ClassifiesProgressStarved) {
  // Delivered at 5 ms, yet the receiver blocks from 10 ms to 30 ms —
  // far beyond progress_eps + bytes/copy_bw.
  const Report r = core::causal::analyze(
      one_message(4 * kMs, 5 * kMs, 6 * kMs, 10 * kMs, 30 * kMs));
  ASSERT_EQ(r.messages.size(), 1u);
  EXPECT_EQ(r.messages[0].cls, WaitClass::ProgressStarved);
  EXPECT_NEAR(r.messages[0].wait_s, 0.020, 1e-9);
}

TEST_F(CausalTest, MatrixAggregatesPairTraffic) {
  const Report r = core::causal::analyze(
      one_message(10 * kMs, 40 * kMs, 41 * kMs, 5 * kMs, 41 * kMs, 1234));
  ASSERT_EQ(r.matrix.size(), 1u);
  EXPECT_EQ(r.matrix[0].src, 1);
  EXPECT_EQ(r.matrix[0].dest, 0);
  EXPECT_EQ(r.matrix[0].messages, 1);
  EXPECT_EQ(r.matrix[0].bytes, 1234u);
}

TEST_F(CausalTest, UnmatchedEndpointsAreCounted) {
  std::vector<trace::TrackView> tracks =
      one_message(10 * kMs, 40 * kMs, 41 * kMs, 5 * kMs, 41 * kMs);
  // Orphan the receiver's flow-finish by perturbing the sender's id.
  tracks[1].events[1].flow ^= 1;
  const Report r = core::causal::analyze(tracks);
  EXPECT_EQ(r.messages.size(), 0u);
  EXPECT_EQ(r.unmatched_sends, 1);
  EXPECT_EQ(r.unmatched_recvs, 1);
}

// --- Live 2-rank late-sender scenario (bwfault delay) -------------------------

TEST_F(CausalTest, LiveDelayedSendClassifiesLateSender) {
  fault::install(fault::FaultPlan::parse("delay:rank=1,us=30000,msg=0", 1));
  trace::enable();
  par::run_ranks(2, [](par::Comm& comm) {
    double buf[100] = {};
    if (comm.rank() == 1) {
      comm.send(0, 7, buf, sizeof buf);
    } else {
      comm.recv(1, 7, buf, sizeof buf);
    }
  });
  trace::disable();

  const Report r = core::causal::analyze_live();
  ASSERT_EQ(r.messages.size(), 1u);
  const core::causal::MessageFlow& m = r.messages[0];
  EXPECT_EQ(m.src, 1);
  EXPECT_EQ(m.dest, 0);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.seq, 0);
  EXPECT_EQ(m.bytes, sizeof(double) * 100);
  EXPECT_EQ(m.cls, WaitClass::LateSender);
  // The receiver blocked for roughly the injected 30 ms.
  EXPECT_GE(m.wait_s, 0.020);
  EXPECT_LT(m.wait_s, 1.0);
  EXPECT_NEAR(r.rank_waits[0].late_sender_s, m.wait_s, 1e-12);

  // The exported Chrome JSON carries the same flow pair: every 's' id has
  // a matching 'f' id.
  std::ostringstream os;
  trace::write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  std::map<char, std::set<std::string>> ids;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const auto ph = line.find("\"ph\":\"");
    if (ph == std::string::npos) continue;
    const char c = line[ph + 6];
    if (c != 's' && c != 'f') continue;
    const auto at = line.find("\"id\":\"");
    ASSERT_NE(at, std::string::npos) << line;
    ids[c].insert(line.substr(at + 6, line.find('"', at + 6) - (at + 6)));
  }
  EXPECT_FALSE(ids['s'].empty());
  EXPECT_EQ(ids['s'], ids['f']);
}

// --- Offline parsing round-trip ----------------------------------------------

TEST_F(CausalTest, OfflineParseMatchesLiveAnalysis) {
  fault::install(fault::FaultPlan::parse("delay:rank=1,us=20000,msg=0", 1));
  trace::enable();
  par::run_ranks(2, [](par::Comm& comm) {
    double buf[64] = {};
    for (int i = 0; i < 5; ++i) {
      if (comm.rank() == 1) {
        comm.send(0, 3, buf, sizeof buf);
        comm.recv(0, 4, buf, sizeof buf);
      } else {
        comm.recv(1, 3, buf, sizeof buf);
        comm.send(1, 4, buf, sizeof buf);
      }
      comm.barrier();
    }
  });
  trace::disable();

  const Report live = core::causal::analyze_live();
  std::ostringstream os;
  trace::write_chrome_json(os);
  std::istringstream is(os.str());
  const Report offline =
      core::causal::analyze(trace::read_chrome_json(is));

  ASSERT_EQ(live.messages.size(), 10u);
  EXPECT_EQ(offline.messages.size(), live.messages.size());
  EXPECT_EQ(offline.nranks, live.nranks);
  EXPECT_EQ(offline.unmatched_sends, live.unmatched_sends);
  EXPECT_EQ(offline.unmatched_recvs, live.unmatched_recvs);
  // Timestamps round-trip through microsecond-precision JSON: classes and
  // aggregate wait seconds agree to well under a microsecond per event.
  for (std::size_t i = 0; i < live.messages.size(); ++i) {
    EXPECT_EQ(offline.messages[i].cls, live.messages[i].cls) << i;
    EXPECT_EQ(offline.messages[i].bytes, live.messages[i].bytes) << i;
  }
  ASSERT_EQ(offline.rank_waits.size(), live.rank_waits.size());
  for (std::size_t i = 0; i < live.rank_waits.size(); ++i)
    EXPECT_NEAR(offline.rank_waits[i].late_sender_s,
                live.rank_waits[i].late_sender_s, 1e-3);
  EXPECT_NEAR(offline.path.length_s, live.path.length_s, 1e-3);
}

// --- Trace codec: common/trace writes and reads the Chrome format ----------

std::string write_trace(const std::vector<trace::TrackView>& tracks) {
  std::ostringstream os;
  trace::write_chrome_json(os, tracks);
  return os.str();
}

std::vector<trace::TrackView> read_trace(const std::string& text) {
  std::istringstream is(text);
  return trace::read_chrome_json(is);
}

/// tests/data/trace_fab5b24.json was written at commit fab5b24 by
///   ./build/examples/run_app --app=clover2d --n=48 --iters=1 --ranks=2
///     --threads=2 --tiled --trace=trace_fab5b24.json
/// the smallest deck whose trace has flows, a counter track (the tile
/// executor's tile.start_row) and worker tracks.
std::string parent_trace() {
  const std::string path =
      std::string(BWLAB_TEST_DATA_DIR) + "/trace_fab5b24.json";
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

/// Field-by-field equality of two track lists, timestamps in exact ns.
void expect_same_tracks(const std::vector<trace::TrackView>& got,
                        const std::vector<trace::TrackView>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const trace::TrackView& g = got[i];
    const trace::TrackView& w = want[i];
    EXPECT_EQ(g.rank, w.rank) << i;
    EXPECT_EQ(g.tid, w.tid) << i;
    EXPECT_EQ(g.process, w.process) << i;
    EXPECT_EQ(g.label, w.label) << i;
    EXPECT_EQ(g.dropped, w.dropped) << i;
    ASSERT_EQ(g.events.size(), w.events.size()) << i;
    for (std::size_t j = 0; j < w.events.size(); ++j) {
      const trace::EventView& a = g.events[j];
      const trace::EventView& b = w.events[j];
      const std::string at = std::to_string(i) + "/" + std::to_string(j);
      EXPECT_EQ(a.ph, b.ph) << at;
      EXPECT_EQ(a.ts_ns, b.ts_ns) << at;
      EXPECT_EQ(a.value, b.value) << at;
      EXPECT_EQ(a.flow, b.flow) << at;
      EXPECT_EQ(a.cat, b.cat) << at;
      EXPECT_EQ(a.has_args, b.has_args) << at;
      EXPECT_EQ(a.peer, b.peer) << at;
      EXPECT_EQ(a.tag, b.tag) << at;
      EXPECT_EQ(a.seq, b.seq) << at;
      EXPECT_EQ(a.bytes, b.bytes) << at;
      EXPECT_EQ(a.name, b.name) << at;
    }
  }
}

TEST_F(CausalTest, ChromeTraceRoundTripsLiveTracks) {
  trace::enable();
  apps::Options opt;
  opt.n = 48;  // a tiled 2-rank run needs >= 24 rows per rank
  opt.iterations = 1;
  opt.ranks = 2;
  opt.threads = 2;
  opt.tiled = true;  // the tile executor records the tile.start_row counter
  apps::clover2d::run(opt);
  // One overflowed buffer: at a 16-event cap a fresh track opens 20
  // spans, so 4 begins and all 20 ends are dropped.
  trace::enable(/*max_events_per_thread=*/16);
  std::thread([] {
    trace::set_thread_track(7, 0, "overflow");
    std::vector<std::unique_ptr<trace::TraceSpan>> open;
    for (int i = 0; i < 20; ++i)
      open.push_back(
          std::make_unique<trace::TraceSpan>(trace::Cat::App, "nest"));
  }).join();
  trace::disable();

  const std::vector<trace::TrackView> tracks = trace::snapshot();
  bool counter = false, flow = false, args = false, worker = false;
  std::map<int, int> tracks_per_rank;
  for (const trace::TrackView& t : tracks) {
    worker |= t.tid > 0;
    ++tracks_per_rank[t.rank];
    for (const trace::EventView& e : t.events) {
      counter |= e.ph == 'C';
      flow |= e.ph == 's';
      args |= e.has_args;
    }
  }
  EXPECT_TRUE(counter && flow && args && worker);
  EXPECT_EQ(tracks_per_rank[0], 2);
  EXPECT_EQ(tracks_per_rank[1], 2);
  ASSERT_EQ(tracks.back().rank, 7);
  EXPECT_EQ(tracks.back().dropped, 24u);
  EXPECT_EQ(tracks.back().process, "rank 7");

  // The writer closes the overflowed track's 16 open spans at its last
  // timestamp; every other field reads back exactly.
  std::vector<trace::TrackView> want = tracks;
  trace::EventView closer;
  closer.ph = 'E';
  closer.ts_ns = want.back().events.back().ts_ns;
  want.back().events.insert(want.back().events.end(), 16, closer);
  const std::string text = write_trace(tracks);
  expect_same_tracks(read_trace(text), want);

  // Streaming the live buffers prints the same bytes.
  std::ostringstream live;
  trace::write_chrome_json(live);
  EXPECT_TRUE(live.str() == text);
}

TEST_F(CausalTest, CounterValuesReadBackExactly) {
  // The datmove.cum_bytes track counts bytes past 1e6, where six
  // significant digits would round them.
  datmove::enable();
  trace::enable();
  apps::Options opt;
  opt.n = 128;
  opt.iterations = 1;
  apps::clover2d::run(opt);
  trace::disable();
  datmove::disable();

  std::vector<trace::TrackView> tracks = trace::snapshot();
  ASSERT_FALSE(tracks.empty());
  int rounded = 0;
  for (const trace::EventView& e : tracks.front().events)
    if (e.ph == 'C' && e.name == "datmove.cum_bytes" && e.value > 1e6) {
      char six[32];
      std::snprintf(six, sizeof six, "%g", e.value);
      rounded += std::strtod(six, nullptr) != e.value;
    }
  EXPECT_GT(rounded, 0) << "no counter that six digits would round";
  // Counters that are no integer, and the largest double, read back too.
  std::vector<trace::EventView>& evs = tracks.front().events;
  trace::EventView c;
  c.ts_ns = evs.back().ts_ns;
  c.ph = 'C';
  c.cat = trace::Cat::App;
  c.name = "datmove.cum_bytes";
  for (const double v : {0.1, 1e300 / 3, std::numeric_limits<double>::max()}) {
    c.value = v;
    evs.push_back(c);
  }
  expect_same_tracks(read_trace(write_trace(tracks)), tracks);
}

TEST_F(CausalTest, MergedTraceReadsBackAsTwoRuns) {
  const std::vector<trace::TrackView> a = read_trace(parent_trace());
  std::vector<trace::TrackView> b = a;
  b.back().dropped = 3;
  std::ostringstream os;
  core::write_merged_chrome_trace(os, a, b);
  const std::vector<trace::TrackView> merged = read_trace(os.str());
  ASSERT_EQ(merged.size(), a.size() + b.size());
  for (int side = 0; side < 2; ++side) {
    const std::vector<trace::TrackView>& run = side == 0 ? a : b;
    for (std::size_t i = 0; i < run.size(); ++i) {
      trace::TrackView m = merged[side * a.size() + i];
      EXPECT_EQ(m.rank, 2 * run[i].rank + side);
      EXPECT_EQ(m.process, (side == 0 ? "A rank " : "B rank ") +
                               std::to_string(run[i].rank));
      // Apart from pid and process name, each track is the run's own.
      m.rank = run[i].rank;
      m.process = run[i].process;
      expect_same_tracks({m}, {run[i]});
    }
  }
}

TEST_F(CausalTest, ParentFormatTraceReprintsByteIdentically) {
  const std::string text = parent_trace();
  const std::vector<trace::TrackView> tracks = read_trace(text);
  ASSERT_EQ(tracks.size(), 4u);  // 2 ranks x (main + worker)
  const Report r = core::causal::analyze(tracks);
  EXPECT_EQ(r.nranks, 2);
  EXPECT_GT(r.messages.size(), 0u);
  EXPECT_EQ(r.unmatched_sends + r.unmatched_recvs, 0);
  const std::string reprint = write_trace(tracks);
  std::size_t at = 0;
  while (at < text.size() && at < reprint.size() && text[at] == reprint[at])
    ++at;
  EXPECT_TRUE(reprint == text) << "first difference at byte " << at;
}

TEST_F(CausalTest, TruncatedTraceIsADiagnosedError) {
  const std::string text = parent_trace();
  const std::size_t close = text.rfind("]}");
  ASSERT_NE(close, std::string::npos);
  int cuts = 0;
  for (std::size_t cut = 97; cut < close; cut += 97, ++cuts)
    EXPECT_THROW(read_trace(text.substr(0, cut)), Error) << "cut " << cut;
  EXPECT_GT(cuts, 400);
}

TEST_F(CausalTest, MalformedTraceLinesNameTheirLine) {
  const std::string head =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      R"({"ph":"M","pid":0,"tid":0,"name":"process_name",)"
      R"("args":{"name":"rank 0"}},)"
      "\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"ph":"X","pid":0,"tid":0,"ts":1.000})", "unknown ph"},
      {R"({"ph":"B","pid":0,"tid":0,"ts":1.000,"cat":"disk","name":"x"})",
       "unknown cat"},
      {R"({"ph":"s","pid":0,"tid":0,"ts":1.000,"cat":"comm","name":"msg",)"
       R"("id":"0xzz"})",
       "bad flow id"},
      {R"({"ph":"f","pid":0,"tid":0,"ts":1.000,"cat":"comm","name":"msg",)"
       R"("id":"0x1ffffffffffffffff"})",
       "bad flow id"},
      {R"({"ph":"E","pid":0,"tid":0})", "\"ts\""},
      {R"({"ph":"E","pid":0,"tid":0,"ts":1.000)", "JSON"},
  };
  for (const auto& [line, what] : cases) {
    try {
      read_trace(head + line + "\n]}\n");
      ADD_FAILURE() << "accepted " << line;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("line 3: ", 0), 0u) << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
  }
  try {  // a ',' after the last event shows at the closing line
    read_trace(head + R"({"ph":"E","pid":0,"tid":0,"ts":1.000},)" "\n]}\n");
    ADD_FAILURE() << "accepted a trailing ','";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "line 4: ',' after the last event");
  }
  EXPECT_THROW(read_trace("[\n]}\n"), Error);  // no envelope header
  EXPECT_TRUE(read_trace(write_trace({})).empty());
}

// --- Per-thread drop accounting (run-report satellite) ------------------------

TEST_F(CausalTest, DroppedEventsExposedPerThreadAndInReport) {
  trace::enable(/*max_events_per_thread=*/16);
  for (int i = 0; i < 200; ++i) trace::TraceSpan s(trace::Cat::Kernel, "spin");
  trace::disable();

  const std::vector<trace::ThreadDrops> drops = trace::dropped_by_thread();
  ASSERT_FALSE(drops.empty());
  std::uint64_t total = 0;
  for (const trace::ThreadDrops& d : drops) total += d.dropped;
  EXPECT_EQ(total, trace::dropped_events());
  EXPECT_GT(total, 0u);

  Instrumentation instr;
  std::ostringstream os;
  core::write_run_report_json(os, core::make_run_report(instr));
  const std::string json = os.str();
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\""), std::string::npos);
}

// --- Acceptance: CloverLeaf 2D with a delayed halo send ----------------------

TEST_F(CausalTest, CloverDelayedHaloSendAcceptance) {
  fault::install(fault::FaultPlan::parse("delay:rank=1,us=20000,msg=0", 1));
  trace::enable();
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  opt.ranks = 2;
  const apps::Result res = apps::clover2d::run(opt);
  trace::disable();
  EXPECT_NE(res.checksum, 0.0);

  const Report r = core::causal::analyze_live();
  EXPECT_EQ(r.nranks, 2);
  EXPECT_GT(r.messages.size(), 0u);
  EXPECT_EQ(r.unmatched_sends, 0);
  EXPECT_EQ(r.unmatched_recvs, 0);

  // The delayed send from rank 1 shows up as late-sender wait on rank 0,
  // roughly the injected 20 ms.
  ASSERT_EQ(r.rank_waits.size(), 2u);
  EXPECT_GT(r.rank_waits[0].late_sender_s, 0.015);

  // The critical path crosses the delayed rank.
  bool crosses_rank1 = false;
  for (const int rank : r.path.ranks) crosses_rank1 |= rank == 1;
  EXPECT_TRUE(crosses_rank1) << "critical path never visits rank 1";

  // Bucket seconds sum to the traced wall interval (within 5%).
  double bucket_sum = 0;
  for (const auto& [bucket, s] : r.path.bucket_s) bucket_sum += s;
  EXPECT_GT(r.wall_s, 0.0);
  EXPECT_NEAR(bucket_sum, r.wall_s, 0.05 * r.wall_s);
  EXPECT_NEAR(r.path.length_s, r.wall_s, 1e-12);

  // The exported trace JSON carries matched flow pairs.
  std::ostringstream os;
  trace::write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  // And the causal section lands in the run report JSON.
  std::ostringstream rep;
  core::write_run_report_json(
      rep, core::make_run_report(res.instr, nullptr, nullptr, &r));
  EXPECT_NE(rep.str().find("\"causal\""), std::string::npos);
  EXPECT_NE(rep.str().find("\"critical_path\""), std::string::npos);
}

// --- Cross-check: trace bytes vs runtime rank counters -----------------------

// Bug trap: the comm-matrix bytes bwcausal derives from matched trace
// flows and the payload bytes par::Comm counts at the send sites are two
// independent observations of the same traffic — they must agree exactly.
TEST_F(CausalTest, RankBytesMatchRankStats) {
  trace::enable();
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  opt.ranks = 2;
  const apps::Result res = apps::clover2d::run(opt);
  trace::disable();

  const Report r = core::causal::analyze_live();
  ASSERT_EQ(r.unmatched_sends, 0);
  ASSERT_EQ(r.unmatched_recvs, 0);
  ASSERT_EQ(res.rank_stats.size(), 2u);

  const core::causal::RankByteCheck chk =
      core::causal::cross_check_rank_bytes(r, res.rank_stats);
  EXPECT_TRUE(chk.ok) << chk.diagnosis;
  EXPECT_TRUE(chk.diagnosis.empty());

  // Deliberate miscount: the diagnosis names the drifting rank with its
  // per-(peer, tag) byte totals.
  std::vector<par::RankStats> bad = res.rank_stats;
  bad[1].payload_bytes_sent += 64;
  const core::causal::RankByteCheck miss =
      core::causal::cross_check_rank_bytes(r, bad);
  EXPECT_FALSE(miss.ok);
  EXPECT_NE(miss.diagnosis.find("rank 1"), std::string::npos)
      << miss.diagnosis;
  EXPECT_NE(miss.diagnosis.find("tag"), std::string::npos) << miss.diagnosis;
}

// A long path prints its hop count and rank set, not every hop: a
// 200-hop walk over four ranks keeps every table row within 80 columns,
// while the JSON summary keeps the full hop list.
TEST(CausalPathTable, LongPathRowsStayNarrow) {
  Report r;
  r.path.length_s = 1.5;
  r.path.bucket_s = {{"kernel", 1.0}, {"comm_wait", 0.5}};
  for (int hop = 0; hop <= 200; ++hop) r.path.ranks.push_back(hop % 4);
  std::ostringstream os;
  core::causal::critical_path_table(r).print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("path (200 hops, ranks 0-3)"), std::string::npos)
      << text;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    EXPECT_LE(line.size(), 80u) << line;
  EXPECT_EQ(core::causal::summarize(r).critical_path.ranks.size(), 201u);

  r.path.ranks = {2, 0, 2, 5};
  std::ostringstream gaps;
  core::causal::critical_path_table(r).print(gaps);
  EXPECT_NE(gaps.str().find("path (3 hops, ranks 0,2,5)"), std::string::npos)
      << gaps.str();
}

}  // namespace
}  // namespace bwlab
