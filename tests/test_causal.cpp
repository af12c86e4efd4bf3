// Tests for bwcausal (core/causal.hpp + the trace-layer flow events):
// flow-id stability, wait-state classification on synthetic timelines,
// the live 2-rank late-sender scenario driven by a bwfault delay spec,
// matched s/f flow events in the exported Chrome JSON, offline
// parse_chrome_trace equivalence, per-thread drop accounting in the run
// report, and the headline acceptance scenario — CloverLeaf 2D with a
// delayed halo send classified as late-sender, the critical path crossing
// the delayed rank, and bucket seconds summing to the traced wall time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/fault.hpp"
#include "common/instrument.hpp"
#include "common/trace.hpp"
#include "core/causal.hpp"
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
      core::causal::analyze(core::causal::parse_chrome_trace(is));

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

}  // namespace
}  // namespace bwlab
