// Tests for bwresil: exact step accounting across localized rollback, the
// resilient Comm replay protocol (drops recovered and delays survived with
// exact retry counts, degraded-mode continuation, a genuine deadlock named
// in the dump), bitwise buddy-checkpoint fidelity
// ghosts included, checksummed mirrors, the headline acceptance scenario
// — CloverLeaf 2D recovering from injected crashes via buddy restore with
// a checksum equal to the fault-free run, or a diagnosed error when a
// rank and its buddy fail together — and the `recovery` critical-path
// bucket.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "apps/resilient_loop.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/resil.hpp"
#include "common/snapshot.hpp"
#include "common/trace.hpp"
#include "core/causal.hpp"
#include "ops/checkpoint.hpp"
#include "par/simmpi.hpp"

namespace bwlab {
namespace {

/// Fault plans, the resil policy and the buddy board are process-global;
/// every test restores the clean state so nothing leaks across tests.
class ResilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    resil::clear();
    resil::buddy_clear();
    trace::disable();
    trace::reset();
  }
  void TearDown() override {
    fault::clear();
    resil::clear();
    resil::buddy_clear();
    trace::disable();
    trace::reset();
  }
};

resil::Policy enabled_policy() {
  resil::Policy p;
  p.enabled = true;
  return p;
}

// --- Step accounting across localized rollback -------------------------------

/// A scalar "solver" whose state depends on the exact step order, plus
/// the checkpoint plumbing run_resilient_loop expects.
struct ScalarLoop {
  double x = 0;
  fault::SnapshotStore store;

  apps::ResilientLoop loop(long long iters, int ckpt_every) {
    apps::ResilientLoop lp;
    lp.rank = 0;
    lp.iterations = iters;
    lp.checkpoint_every = ckpt_every;
    lp.store = &store;
    lp.step = [this](long long it) { x = 3.0 * x + double(it + 1); };
    lp.capture = [this](long long it) {
      store.begin(it);
      store.capture_raw("x", &x, sizeof x, sizeof x);
      store.commit();
    };
    lp.restore = [this] { store.restore_raw("x", &x, sizeof x, sizeof x); };
    lp.reinit = [this] { x = 0; };
    return lp;
  }
};

TEST_F(ResilTest, StepSequenceWithoutFaultsIsExact) {
  resil::buddy_resize(1);
  ScalarLoop s;
  const apps::LoopRun run = apps::run_resilient_loop(s.loop(10, 3));

  const std::vector<long long> want = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(run.executed, want);
  double x = 0;
  for (long long it = 0; it < 10; ++it) x = 3.0 * x + double(it + 1);
  EXPECT_DOUBLE_EQ(s.x, x);
  EXPECT_EQ(run.rollbacks, 0);
  EXPECT_EQ(run.buddy_restores, 0);
  EXPECT_EQ(resil::buddy_step(0), 8);  // commits after steps 2, 5 and 8
}

TEST_F(ResilTest, StepSequenceAcrossLocalizedRollbackIsExact) {
  // Fault-free reference value.
  resil::buddy_resize(1);
  ScalarLoop ref;
  apps::run_resilient_loop(ref.loop(10, 3));

  resil::buddy_resize(1);
  fault::install(fault::FaultPlan::parse("crash:rank=0,step=7", 42));
  ScalarLoop s;
  const apps::LoopRun run = apps::run_resilient_loop(s.loop(10, 3));

  // Checkpoints commit after steps 2 and 5; the crash at the top of step
  // 7 rolls back to 5+1=6, so 6 executes twice and nothing else repeats.
  // A 1-rank run is its own buddy: the restore reads its own mirror.
  const std::vector<long long> want = {0, 1, 2, 3, 4, 5, 6, 6, 7, 8, 9};
  EXPECT_EQ(run.executed, want);
  EXPECT_DOUBLE_EQ(s.x, ref.x);
  EXPECT_EQ(run.rollbacks, 1);
  EXPECT_EQ(run.buddy_restores, 1);
  EXPECT_EQ(resil::stats().rollbacks, 1);
  EXPECT_EQ(resil::stats().buddy_restores, 1);
  ASSERT_EQ(fault::events().size(), 1u);
  EXPECT_EQ(fault::events()[0].kind, fault::Kind::Crash);
}

TEST_F(ResilTest, CrashBeforeFirstCheckpointReinitializes) {
  ScalarLoop ref;
  apps::run_resilient_loop(ref.loop(5, 0));

  resil::buddy_resize(1);
  fault::install(fault::FaultPlan::parse("crash:rank=0,step=2", 42));
  ScalarLoop s;
  const apps::LoopRun run = apps::run_resilient_loop(s.loop(5, 0));

  // No checkpoint exists, so the rollback re-initializes to step 0.
  const std::vector<long long> want = {0, 1, 0, 1, 2, 3, 4};
  EXPECT_EQ(run.executed, want);
  EXPECT_DOUBLE_EQ(s.x, ref.x);
  EXPECT_EQ(run.rollbacks, 1);
  EXPECT_EQ(run.buddy_restores, 0);
}

// --- Resilient Comm: replay, degraded mode ------------------------------------

TEST_F(ResilTest, DroppedMessageIsRecoveredFromReplayLog) {
  // The exact scenario test_par proves wedges into a WatchdogError
  // without resil: with the policy on, the moment both ranks are stuck
  // (rank 0 finished, rank 1 parked) serves the receive from the sender's
  // replay log instead — exactly one retry.
  fault::install(fault::FaultPlan::parse("drop:rank=0,msg=0", 7));
  resil::install(enabled_policy());
  std::array<double, 2> got = {0, 0};
  EXPECT_NO_THROW(par::run_ranks(2, [&got](par::Comm& c) {
    double x = 1.25;
    if (c.rank() == 0) {
      c.send(1, 9, &x, sizeof x);
    } else {
      double y = 0;
      c.recv(0, 9, &y, sizeof y);
      got[1] = y;
    }
  }));
  EXPECT_DOUBLE_EQ(got[1], 1.25);
  EXPECT_EQ(resil::stats().retries, 1);
  EXPECT_EQ(resil::stats().recovered, 1);
}

TEST_F(ResilTest, DelayedMessageOutrunByReplayThenDeduplicated) {
  // A 50 ms delay sleeps in the sender, which is running, not parked: a
  // delay is no loss, so the receiver just waits. No retransmit happens,
  // and both values arrive in order.
  fault::install(fault::FaultPlan::parse("delay:rank=0,us=50000,msg=0", 7));
  resil::install(enabled_policy());
  std::array<double, 2> got = {0, 0};
  EXPECT_NO_THROW(par::run_ranks(2, [&got](par::Comm& c) {
    if (c.rank() == 0) {
      double a = 3.5, b = 4.5;
      c.send(1, 9, &a, sizeof a);
      c.send(1, 9, &b, sizeof b);
    } else {
      double a = 0, b = 0;
      c.recv(0, 9, &a, sizeof a);
      c.recv(0, 9, &b, sizeof b);
      got[0] = a;
      got[1] = b;
    }
  }));
  EXPECT_DOUBLE_EQ(got[0], 3.5);
  EXPECT_DOUBLE_EQ(got[1], 4.5);
  EXPECT_EQ(resil::stats().retries, 0);
  EXPECT_EQ(resil::stats().recovered, 0);
}

TEST_F(ResilTest, DegradedModeBreaksHeadToHeadDeadlock) {
  // Both ranks receive before either sends — a guaranteed deadlock on
  // the plain path. No replay log holds either message, so with degraded
  // mode on the lowest-ranked receiver (rank 0) continues with its stale
  // buffer; its send then satisfies rank 1.
  resil::Policy pol = enabled_policy();
  pol.degraded = true;
  resil::install(pol);
  std::array<double, 2> got = {-2, -2};
  EXPECT_NO_THROW(par::run_ranks(2, [&got](par::Comm& c) {
    const int peer = 1 - c.rank();
    double in = -1, out = 10.0 + c.rank();
    c.recv(peer, 5, &in, sizeof in);
    c.send(peer, 5, &out, sizeof out);
    got[static_cast<std::size_t>(c.rank())] = in;
  }));
  EXPECT_EQ(got, (std::array<double, 2>{-1.0, 10.0}));
  EXPECT_EQ(resil::stats().degraded_events, 1);
  EXPECT_EQ(resil::stats().retries, 0);
}

TEST_F(ResilTest, LateSenderSurvivedByBackoffCycles) {
  // The sender only sends after 60 ms of running; the receiver waits
  // parked the whole time. Nothing was lost, so nothing is retried.
  resil::install(enabled_policy());
  double got = 0;
  EXPECT_NO_THROW(par::run_ranks(2, [&got](par::Comm& c) {
    double x = 7.75;
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      c.send(1, 3, &x, sizeof x);
    } else {
      double y = 0;
      c.recv(0, 3, &y, sizeof y);
      got = y;
    }
  }));
  EXPECT_DOUBLE_EQ(got, 7.75);
  EXPECT_EQ(resil::stats().retries, 0);
}

TEST_F(ResilTest, WatchdogDumpNamesPendingRetries) {
  // A genuine deadlock — the wanted message is never sent, so no replay
  // log holds it — must still be diagnosed, naming the pending receive.
  resil::install(enabled_policy());
  try {
    par::run_ranks(2, [](par::Comm& c) {
      if (c.rank() == 0) {
        double x = 0;
        c.recv(1, 4, &x, sizeof x);  // never sent
      }
    });
    FAIL() << "expected WatchdogError";
  } catch (const par::WatchdogError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("recv(src=1, tag=4"), std::string::npos) << msg;
  }
  EXPECT_EQ(resil::stats().retries, 0);
}

// Retries are a function of the plan alone: CloverLeaf 2D with one
// dropped halo message counts the same stats on every run, at 2 and at 4
// ranks (the values the CI retry gate pins too).
TEST_F(ResilTest, DropPlanRetryCountsAreExact) {
  apps::Options opt;
  opt.n = 32;
  opt.iterations = 4;
  const auto expect_stats = [](const resil::Stats& st,
                               const resil::Stats& want) {
    EXPECT_EQ(st.retries, want.retries);
    EXPECT_EQ(st.recovered, want.recovered);
    EXPECT_EQ(st.degraded_events, want.degraded_events);
    EXPECT_EQ(st.rollbacks, want.rollbacks);
    EXPECT_EQ(st.buddy_restores, want.buddy_restores);
  };
  resil::Stats recorded;  // measured: one retry recovers the one drop
  recorded.retries = 1;
  recorded.recovered = 1;
  for (const int ranks : {2, 4}) {
    opt.ranks = ranks;
    resil::Stats first;
    for (int run = 0; run < 20; ++run) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " run=" + std::to_string(run));
      fault::install(fault::FaultPlan::parse("drop:rank=1,msg=3", 12345));
      resil::install(enabled_policy());
      apps::clover2d::run(opt);
      const resil::Stats st = resil::stats();
      if (run == 0) first = st;
      expect_stats(st, first);
      expect_stats(st, recorded);
    }
  }
}

// --- Buddy-checkpoint fidelity ----------------------------------------------

TEST_F(ResilTest, BuddyMirrorRoundTripsGhostsBitwise) {
  ops::Context ctx;
  ops::Block b(ctx, "g", 2, {8, 8, 1});
  ops::Dat<double> u(b, "u", 2);
  u.set_bc_all(ops::Bc::CopyNearest);
  u.fill_indexed(
      [](idx_t i, idx_t j, idx_t) { return 10.0 * double(i) + double(j); });
  u.exchange_halos();  // fills edge and corner ghosts
  const double interior = u.at(3, 4);
  const double edge_ghost = u.at(-1, 4);
  const double corner_ghost = u.at(-1, -1);
  std::vector<char> alloc_before(u.alloc_count() * sizeof(double));
  std::memcpy(alloc_before.data(), u.alloc_data(), alloc_before.size());

  ops::CheckpointStore store;
  store.begin(5);
  store.capture(u);
  store.commit();

  resil::buddy_resize(2);
  resil::buddy_mirror(0, store);
  ASSERT_FALSE(resil::buddy_bytes(0).empty());
  EXPECT_EQ(resil::buddy_step(0), 5);
  EXPECT_TRUE(resil::buddy_bytes(1).empty());
  // The mirror is the exact serialized wire format.
  EXPECT_EQ(resil::buddy_bytes(0), store.serialize());

  // Clobber the field, then restore through a *fresh* store from the
  // buddy's bytes — the failed-rank recovery path.
  u.fill_indexed([](idx_t, idx_t, idx_t) { return -1.0; });
  u.exchange_halos();
  ops::CheckpointStore recovered;
  resil::buddy_restore(0, recovered);
  EXPECT_TRUE(recovered.valid());
  EXPECT_EQ(recovered.step(), 5);
  recovered.restore(u);

  EXPECT_DOUBLE_EQ(u.at(3, 4), interior);
  EXPECT_DOUBLE_EQ(u.at(-1, 4), edge_ghost);
  EXPECT_DOUBLE_EQ(u.at(-1, -1), corner_ghost);  // PR-5 corner-ghost case
  // Bitwise equality over the whole allocation, ghosts included.
  EXPECT_EQ(std::memcmp(u.alloc_data(), alloc_before.data(),
                        alloc_before.size()),
            0);
  EXPECT_EQ(resil::stats().buddy_restores, 1);
  EXPECT_GE(resil::buddy_total_bytes(), alloc_before.size());
}

TEST_F(ResilTest, SnapshotSerializeDeserializeRoundTrips) {
  fault::SnapshotStore store;
  const std::vector<double> u = {1.5, -2.5, 3.25};
  const std::vector<float> w = {1.5f, 2.5f};
  store.begin(9);
  store.capture_raw("u", u.data(), u.size() * sizeof(double), sizeof(double));
  store.capture_raw("w", w.data(), w.size() * sizeof(float), sizeof(float));
  store.commit();
  const std::vector<char> bytes = store.serialize();

  fault::SnapshotStore loaded;
  loaded.deserialize(bytes);
  EXPECT_TRUE(loaded.valid());
  EXPECT_EQ(loaded.step(), 9);
  EXPECT_EQ(loaded.fields(), 2u);
  std::vector<double> u2(3, 0.0);
  std::vector<float> w2(2, 0.0f);
  loaded.restore_raw("u", u2.data(), u2.size() * sizeof(double),
                     sizeof(double));
  loaded.restore_raw("w", w2.data(), w2.size() * sizeof(float),
                     sizeof(float));
  EXPECT_EQ(u2, u);
  EXPECT_EQ(w2, w);
  EXPECT_EQ(loaded.serialize(), bytes);

  loaded.reset();
  EXPECT_FALSE(loaded.valid());
  EXPECT_EQ(loaded.step(), -1);
  EXPECT_EQ(loaded.fields(), 0u);

  // Truncated input is a diagnosed error, not a crash.
  std::vector<char> cut(bytes.begin(), bytes.begin() + 10);
  fault::SnapshotStore bad;
  EXPECT_THROW(bad.deserialize(cut), Error);

  // So is a single flipped payload bit: the checksum catches it.
  std::vector<char> flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 4);
  try {
    bad.deserialize(flipped);
    FAIL() << "expected a checksum mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(bad.valid());
}

// --- CloverLeaf acceptance scenarios -----------------------------------------

apps::Options clover_options() {
  apps::Options opt;
  opt.n = 16;
  opt.iterations = 6;
  opt.ranks = 2;
  opt.checkpoint_every = 2;
  return opt;
}

TEST_F(ResilTest, CloverCrashRecoversByBuddyRollback) {
  const apps::Options opt = clover_options();
  resil::install(enabled_policy());
  const apps::Result ref = apps::clover2d::run(opt);

  fault::install(fault::FaultPlan::parse("crash:rank=1,step=3", 42));
  resil::install(enabled_policy());  // reset stats
  const apps::Result res = apps::clover2d::run(opt);

  EXPECT_GE(res.metric("rollbacks"), 1.0);
  EXPECT_GE(res.metric("buddy_restores"), 1.0);
  EXPECT_NEAR(res.checksum, ref.checksum,
              1e-12 * std::max(1.0, std::abs(ref.checksum)));
}

TEST_F(ResilTest, CloverSurvivesDropAndDelayWithEqualChecksum) {
  const apps::Options opt = clover_options();
  resil::install(enabled_policy());
  const apps::Result ref = apps::clover2d::run(opt);

  fault::install(fault::FaultPlan::parse(
      "drop:rank=1,msg=2;delay:rank=0,us=20000,msg=1", 42));
  resil::install(enabled_policy());
  const apps::Result res = apps::clover2d::run(opt);

  EXPECT_GE(resil::stats().recovered, 1);
  EXPECT_NEAR(res.checksum, ref.checksum,
              1e-12 * std::max(1.0, std::abs(ref.checksum)));
}

/// A 4-rank clover run (rank r's mirror lives on rank r+1 mod 4).
apps::Options clover4_options() {
  apps::Options opt = clover_options();
  opt.n = 24;
  opt.ranks = 4;
  return opt;
}

TEST_F(ResilTest, SimultaneousCrashesRestoreEveryFailedRankFromItsBuddy) {
  // Ranks 0 and 2 die at the same step; their buddies (1 and 3) survive,
  // so both must restore from their mirrors — not just the highest.
  const apps::Options opt = clover4_options();
  const apps::Result ref = apps::clover2d::run(opt);

  fault::install(
      fault::FaultPlan::parse("crash:rank=0,step=3;crash:rank=2,step=3", 42));
  const apps::Result res = apps::clover2d::run(opt);

  EXPECT_EQ(res.metric("rollbacks"), 1.0);
  EXPECT_EQ(res.metric("buddy_restores"), 2.0);
  EXPECT_EQ(fault::events().size(), 2u);
  EXPECT_NEAR(res.checksum, ref.checksum, 1e-12);
}

TEST_F(ResilTest, BuddyPairLossIsDiagnosedOnEveryRank) {
  // Rank 1's mirror lives on rank 2; both die at step 3, after the
  // step-1 checkpoint. Every rank must raise the same diagnosis.
  apps::Options opt = clover4_options();
  fault::install(
      fault::FaultPlan::parse("crash:rank=1,step=3;crash:rank=2,step=3", 42));
  try {
    apps::clover2d::run(opt);
    FAIL() << "expected the buddy-pair loss to be diagnosed";
  } catch (const par::MultiRankError& e) {
    ASSERT_EQ(e.errors().size(), 4u);
    for (const par::RankError& re : e.errors()) {
      EXPECT_NE(re.message.find("rank 1 and its buddy rank 2"),
                std::string::npos)
          << re.message;
      EXPECT_FALSE(re.rank_failure);
    }
  }

  // Before any checkpoint there is no mirror to lose: the same pair
  // crash re-initializes every rank and reproduces the checksum.
  opt.checkpoint_every = 0;
  const apps::Result ref = apps::clover2d::run(opt);
  fault::install(
      fault::FaultPlan::parse("crash:rank=1,step=3;crash:rank=2,step=3", 42));
  const apps::Result res = apps::clover2d::run(opt);
  EXPECT_EQ(res.metric("rollbacks"), 1.0);
  EXPECT_EQ(res.metric("buddy_restores"), 0.0);
  EXPECT_NEAR(res.checksum, ref.checksum, 1e-12);
}

TEST_F(ResilTest, CampaignClassificationIsDeterministic) {
  // A miniature fault campaign run twice must classify identically —
  // the property tools/fault_campaign gates at full scale.
  const apps::Options opt = [] {
    apps::Options o;
    o.n = 12;
    o.iterations = 4;
    o.ranks = 2;
    o.checkpoint_every = 2;
    return o;
  }();
  // The last cell crashes both ranks of the buddy pair after the first
  // checkpoint: rank 0's mirror dies with rank 1, so the run must die
  // with a diagnosis rather than hang or restore from a dead slot.
  const std::vector<std::string> plans = {
      "drop:rank=1,msg=0", "delay:rank=0,us=5000,msg=1",
      "crash:rank=1,step=2", "crash:rank=0,step=3;crash:rank=1,step=3"};

  resil::install(enabled_policy());
  const apps::Result ref = apps::clover2d::run(opt);

  const auto classify = [&]() {
    std::string vec;
    for (const std::string& spec : plans) {
      fault::install(fault::FaultPlan::parse(spec, 42));
      resil::install(enabled_policy());
      char c = 'X';
      try {
        const apps::Result r = apps::clover2d::run(opt);
        const double err = std::abs(r.checksum - ref.checksum) /
                           std::max(1.0, std::abs(ref.checksum));
        c = resil::stats().degraded_events == 0 && err <= 1e-12 ? 'C' : 'D';
      } catch (const Error&) {
        c = 'X';
      }
      fault::clear();
      vec.push_back(c);
    }
    return vec;
  };

  const std::string first = classify();
  const std::string second = classify();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, "CCCX");  // only the buddy-pair loss dies
}

// --- The `recovery` critical-path bucket -------------------------------------

TEST_F(ResilTest, RecoverySpansGetTheirOwnCriticalPathBucket) {
  // Synthetic single-rank timeline: kernel work interrupted by a
  // recovery span. The walk must attribute exactly that interval to the
  // `recovery` bucket and the buckets must sum to the path length.
  constexpr std::uint64_t kMs = 1000000;
  trace::TrackView t;
  t.rank = 0;
  t.tid = 0;
  const auto span = [](std::uint64_t ts, trace::Cat cat,
                       const std::string& name) {
    trace::EventView e;
    e.ph = 'B';
    e.ts_ns = ts;
    e.cat = cat;
    e.name = name;
    return e;
  };
  const auto end = [](std::uint64_t ts) {
    trace::EventView e;
    e.ph = 'E';
    e.ts_ns = ts;
    return e;
  };
  t.events = {span(0, trace::Cat::Kernel, "advec"), end(10 * kMs),
              span(10 * kMs, trace::Cat::Fault, "recovery:rollback"),
              end(14 * kMs),
              span(14 * kMs, trace::Cat::Kernel, "advec"), end(20 * kMs)};
  const core::causal::Report r = core::causal::analyze({t});
  EXPECT_NEAR(r.path.bucket_s.at("recovery"), 0.004, 1e-9);
  EXPECT_NEAR(r.path.bucket_s.at("kernel"), 0.016, 1e-9);
  double sum = 0;
  for (const auto& [bucket, s] : r.path.bucket_s) sum += s;
  EXPECT_NEAR(sum, r.path.length_s, 1e-12);
}

TEST_F(ResilTest, LiveCrashRecoveryAppearsInRecoveryBucket) {
  fault::install(fault::FaultPlan::parse("crash:rank=1,step=3", 42));
  resil::install(enabled_policy());
  trace::enable();
  const apps::Result res = apps::clover2d::run(clover_options());
  trace::disable();
  EXPECT_GE(res.metric("rollbacks"), 1.0);

  const core::causal::Report r = core::causal::analyze_live();
  double sum = 0;
  for (const auto& [bucket, s] : r.path.bucket_s) sum += s;
  EXPECT_NEAR(sum, r.path.length_s, 1e-9);
  const auto it = r.path.bucket_s.find("recovery");
  ASSERT_NE(it, r.path.bucket_s.end());
  EXPECT_GT(it->second, 0.0);
}

}  // namespace
}  // namespace bwlab
