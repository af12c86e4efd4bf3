// Tests for bwfault: the deterministic fault-injection plan (parsing,
// one-shot firing, seeded flip masks, reproducible event sequences), the
// two-phase SnapshotStore, the typed ops checkpoint front-end, the
// NaN/Inf field guard, and the headline acceptance scenario — CloverLeaf
// 2D recovering from an injected rank crash via checkpoint/restart with a
// checksum equal to the fault-free run.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/snapshot.hpp"
#include "common/timer.hpp"
#include "ops/checkpoint.hpp"
#include "ops/par_loop.hpp"
#include "par/simmpi.hpp"

namespace bwlab::fault {
namespace {

/// Fault plans and the NaN policy are process-global; every test in this
/// file restores the clean state so nothing leaks across tests (or into
/// other test binaries' assumptions about the fast path).
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear();
    set_nan_policy(NanPolicy::Off);
  }
  void TearDown() override {
    clear();
    set_nan_policy(NanPolicy::Off);
  }
};

// --- FaultPlan parsing -------------------------------------------------------

using FaultPlanParse = FaultTest;

TEST_F(FaultPlanParse, ParsesEveryKind) {
  const FaultPlan p = FaultPlan::parse(
      "drop:rank=2,msg=17;delay:rank=0,us=500;crash:rank=1,step=40;"
      "flip:rank=3,byte=12",
      99);
  ASSERT_EQ(p.specs().size(), 4u);
  EXPECT_EQ(p.seed(), 99u);

  EXPECT_EQ(p.specs()[0].kind, Kind::Drop);
  EXPECT_EQ(p.specs()[0].rank, 2);
  EXPECT_EQ(p.specs()[0].msg, 17);

  EXPECT_EQ(p.specs()[1].kind, Kind::Delay);
  EXPECT_EQ(p.specs()[1].rank, 0);
  EXPECT_EQ(p.specs()[1].us, 500);
  EXPECT_EQ(p.specs()[1].msg, -1);  // "the next message sent"

  EXPECT_EQ(p.specs()[2].kind, Kind::Crash);
  EXPECT_EQ(p.specs()[2].rank, 1);
  EXPECT_EQ(p.specs()[2].step, 40);

  EXPECT_EQ(p.specs()[3].kind, Kind::Flip);
  EXPECT_EQ(p.specs()[3].rank, 3);
  EXPECT_EQ(p.specs()[3].byte, 12);
  EXPECT_EQ(p.specs()[3].msg, 0);  // defaulted to the first message
}

TEST_F(FaultPlanParse, StrRoundTrips) {
  const std::string spec =
      "drop:rank=2,msg=17;delay:rank=0,us=500;crash:rank=1,step=40;"
      "flip:rank=3,byte=12,msg=0";
  const FaultPlan p = FaultPlan::parse(spec, 7);
  EXPECT_EQ(p.str(), spec);
  EXPECT_EQ(FaultPlan::parse(p.str(), 7).str(), p.str());
}

TEST_F(FaultPlanParse, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("", 1).empty());
  EXPECT_TRUE(FaultPlan::parse(";;", 1).empty());
  install(FaultPlan::parse("", 1));
  EXPECT_FALSE(active());
}

TEST_F(FaultPlanParse, DiagnosesMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("boom:rank=1", 0), Error);     // bad kind
  EXPECT_THROW(FaultPlan::parse("drop rank=1", 0), Error);     // no ':'
  EXPECT_THROW(FaultPlan::parse("drop:rank", 0), Error);       // no '='
  EXPECT_THROW(FaultPlan::parse("drop:rank=x", 0), Error);     // bad number
  EXPECT_THROW(FaultPlan::parse("drop:msg=1", 0), Error);      // no rank
  EXPECT_THROW(FaultPlan::parse("crash:rank=1", 0), Error);    // no step
  EXPECT_THROW(FaultPlan::parse("crash:rank=1,msg=2", 0), Error);
  EXPECT_THROW(FaultPlan::parse("drop:rank=1,us=5", 0), Error);
  EXPECT_THROW(FaultPlan::parse("drop:rank=-1,msg=0", 0), Error);
  // The offending clause is named in the message.
  try {
    FaultPlan::parse("drop:rank=1,msg=0;wat:rank=2", 0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("wat:rank=2"), std::string::npos);
  }
}

// --- Injection hooks (called directly, no threads) ---------------------------

using FaultHooks = FaultTest;

TEST_F(FaultHooks, DropFiresOnceOnTargetedSendIndex) {
  install(FaultPlan::parse("drop:rank=0,msg=1", 0));
  ASSERT_TRUE(active());
  double payload[2] = {1.0, 2.0};
  // Rank 1's sends never match a rank=0 entry.
  EXPECT_EQ(on_send(1, 0, 5, payload, sizeof payload), MsgAction::Deliver);
  // Rank 0: send index 0 delivered, index 1 dropped, index 2 delivered
  // (one-shot: the entry is disarmed after firing).
  EXPECT_EQ(on_send(0, 1, 5, payload, sizeof payload), MsgAction::Deliver);
  EXPECT_EQ(on_send(0, 1, 6, payload, sizeof payload), MsgAction::Drop);
  EXPECT_EQ(on_send(0, 1, 7, payload, sizeof payload), MsgAction::Deliver);

  const std::vector<Event> evs = events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::Drop);
  EXPECT_EQ(evs[0].rank, 0);
  EXPECT_EQ(evs[0].peer, 1);
  EXPECT_EQ(evs[0].tag, 6);
  EXPECT_EQ(evs[0].msg_index, 1);
}

TEST_F(FaultHooks, FlipMaskIsSeededAndDeterministic) {
  const std::array<unsigned char, 8> original = {0, 1, 2, 3, 4, 5, 6, 7};

  auto flipped_with_seed = [&original](std::uint64_t seed) {
    install(FaultPlan::parse("flip:rank=0,byte=3,msg=0", seed));
    std::array<unsigned char, 8> buf = original;
    EXPECT_EQ(on_send(0, 1, 0, buf.data(), buf.size()), MsgAction::Deliver);
    const std::vector<Event> evs = events();
    EXPECT_EQ(evs.size(), 1u);
    clear();
    return std::pair{buf, evs};
  };

  const auto [buf_a, evs_a] = flipped_with_seed(42);
  // Exactly byte 3 changed, by a nonzero XOR mask.
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (i == 3)
      EXPECT_NE(buf_a[i], original[i]);
    else
      EXPECT_EQ(buf_a[i], original[i]);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(buf_a[3] ^ original[3]),
            evs_a[0].detail);

  // Same seed: identical corruption and identical event log.
  const auto [buf_b, evs_b] = flipped_with_seed(42);
  EXPECT_EQ(buf_a, buf_b);
  EXPECT_EQ(evs_a, evs_b);

  // The mask is seed-derived: across a handful of seeds at least two
  // distinct masks must appear (all-equal would mean the seed is ignored).
  std::set<std::uint64_t> masks;
  for (std::uint64_t seed = 0; seed < 8; ++seed)
    masks.insert(flipped_with_seed(seed).second[0].detail);
  EXPECT_GT(masks.size(), 1u);
}

TEST_F(FaultHooks, CrashThrowsRankFailureExactlyOnce) {
  install(FaultPlan::parse("crash:rank=1,step=3", 0));
  EXPECT_NO_THROW(on_step(1, 2));  // wrong step
  EXPECT_NO_THROW(on_step(0, 3));  // wrong rank
  try {
    on_step(1, 3);
    FAIL() << "expected RankFailure";
  } catch (const par::RankFailure& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.step(), 3);
  }
  // One-shot: the retry attempt passes the same step unharmed.
  EXPECT_NO_THROW(on_step(1, 3));

  const std::vector<Event> evs = events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::Crash);
  EXPECT_EQ(evs[0].rank, 1);
  EXPECT_EQ(evs[0].step, 3);
}

TEST_F(FaultHooks, DelayStallsTheSenderAndRecordsDetail) {
  install(FaultPlan::parse("delay:rank=0,us=2000,msg=0", 0));
  double payload = 0;
  Timer t;
  EXPECT_EQ(on_send(0, 1, 0, &payload, sizeof payload), MsgAction::Deliver);
  EXPECT_GE(t.elapsed(), 0.0019);  // sleep_for guarantees the lower bound
  const std::vector<Event> evs = events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::Delay);
  EXPECT_EQ(evs[0].detail, 2000u);
}

TEST_F(FaultHooks, ReinstallRearmsAndClearsLog) {
  install(FaultPlan::parse("drop:rank=0,msg=0", 0));
  double payload = 0;
  EXPECT_EQ(on_send(0, 1, 0, &payload, sizeof payload), MsgAction::Drop);
  EXPECT_EQ(events().size(), 1u);
  install(FaultPlan::parse("drop:rank=0,msg=0", 0));
  EXPECT_EQ(events().size(), 0u);  // fresh log
  EXPECT_EQ(on_send(0, 1, 0, &payload, sizeof payload), MsgAction::Drop);
}

// The acceptance property: running the same workload under the same plan
// and seed twice produces the *identical* fault event sequence. All
// entries target one rank's send stream, so the sequence is strictly
// ordered by the per-rank send index even in a threaded run.
TEST_F(FaultHooks, IdenticalSpecAndSeedGiveIdenticalEventSequence) {
  const std::string spec =
      "drop:rank=0,msg=1;flip:rank=0,byte=2,msg=3;delay:rank=0,us=10,msg=5";

  auto run_workload = [&spec]() {
    install(FaultPlan::parse(spec, 1234));
    par::run_ranks(2, [](par::Comm& c) {
      std::array<unsigned char, 16> buf{};
      if (c.rank() == 0) {
        for (int i = 0; i < 6; ++i) {
          buf.fill(static_cast<unsigned char>(i));
          c.send(1, i, buf.data(), buf.size());
        }
      } else {
        for (int i = 0; i < 6; ++i) {
          if (i == 1) continue;  // message 1 is dropped by the plan
          c.recv(0, i, buf.data(), buf.size());
        }
      }
    });
    const std::vector<Event> evs = events();
    clear();
    return evs;
  };

  const std::vector<Event> first = run_workload();
  const std::vector<Event> second = run_workload();
  EXPECT_EQ(first, second);

  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].kind, Kind::Drop);
  EXPECT_EQ(first[0].msg_index, 1);
  EXPECT_EQ(first[1].kind, Kind::Flip);
  EXPECT_EQ(first[1].msg_index, 3);
  EXPECT_EQ(first[2].kind, Kind::Delay);
  EXPECT_EQ(first[2].msg_index, 5);
}

// --- SnapshotStore -----------------------------------------------------------

using Snapshot = FaultTest;

TEST_F(Snapshot, TwoPhaseCommitNeverExposesPartialState) {
  SnapshotStore store;
  EXPECT_FALSE(store.valid());
  EXPECT_EQ(store.step(), -1);

  const std::vector<double> v1 = {1.0, 2.0, 3.0};
  store.begin(4);
  store.capture_raw("u", v1.data(), v1.size() * sizeof(double),
                    sizeof(double));
  store.commit();
  EXPECT_TRUE(store.valid());
  EXPECT_EQ(store.step(), 4);
  EXPECT_EQ(store.fields(), 1u);

  // Stage a new snapshot but "die" before commit: restore must still see
  // the previously committed data.
  const std::vector<double> v2 = {9.0, 8.0, 7.0};
  store.begin(8);
  store.capture_raw("u", v2.data(), v2.size() * sizeof(double),
                    sizeof(double));
  std::vector<double> out(3, 0.0);
  store.restore_raw("u", out.data(), out.size() * sizeof(double),
                    sizeof(double));
  EXPECT_EQ(out, v1);
  EXPECT_EQ(store.step(), 4);

  store.commit();
  store.restore_raw("u", out.data(), out.size() * sizeof(double),
                    sizeof(double));
  EXPECT_EQ(out, v2);
  EXPECT_EQ(store.step(), 8);
}

TEST_F(Snapshot, RestoreDiagnosesMissingFieldAndShapeMismatch) {
  SnapshotStore store;
  const std::vector<double> v = {1.0, 2.0};
  store.begin(0);
  store.capture_raw("u", v.data(), v.size() * sizeof(double),
                    sizeof(double));
  store.commit();

  std::vector<double> out(2, 0.0);
  EXPECT_THROW(store.restore_raw("nope", out.data(),
                                 out.size() * sizeof(double),
                                 sizeof(double)),
               Error);
  EXPECT_THROW(store.restore_raw("u", out.data(), sizeof(double),
                                 sizeof(double)),
               Error);
  EXPECT_THROW(store.restore_raw("u", out.data(),
                                 out.size() * sizeof(double), sizeof(float)),
               Error);
}

TEST_F(Snapshot, FileRoundTripAndReset) {
  const std::string path =
      ::testing::TempDir() + "bwfault_snapshot_roundtrip.ckpt";
  const std::vector<double> u = {3.14, 2.71};
  const std::vector<float> w = {1.5f, 2.5f, 3.5f};
  {
    SnapshotStore store;
    store.begin(12);
    store.capture_raw("u", u.data(), u.size() * sizeof(double),
                      sizeof(double));
    store.capture_raw("w", w.data(), w.size() * sizeof(float),
                      sizeof(float));
    store.commit();
    store.write_file(path);
  }
  SnapshotStore loaded;
  loaded.read_file(path);
  EXPECT_TRUE(loaded.valid());
  EXPECT_EQ(loaded.step(), 12);
  EXPECT_EQ(loaded.fields(), 2u);
  std::vector<double> u2(2, 0.0);
  std::vector<float> w2(3, 0.0f);
  loaded.restore_raw("u", u2.data(), u2.size() * sizeof(double),
                     sizeof(double));
  loaded.restore_raw("w", w2.data(), w2.size() * sizeof(float),
                     sizeof(float));
  EXPECT_EQ(u2, u);
  EXPECT_EQ(w2, w);

  loaded.reset();
  EXPECT_FALSE(loaded.valid());
  EXPECT_EQ(loaded.step(), -1);
  EXPECT_EQ(loaded.fields(), 0u);
  std::remove(path.c_str());
}

TEST_F(Snapshot, OpsCheckpointRestoresFullAllocationIncludingGhosts) {
  ops::Context ctx;
  ops::Block b(ctx, "g", 2, {8, 8, 1});
  ops::Dat<double> u(b, "u", 2);
  u.set_bc_all(ops::Bc::CopyNearest);
  u.fill_indexed(
      [](idx_t i, idx_t j, idx_t) { return 10.0 * double(i) + double(j); });
  u.exchange_halos();
  const double interior = u.at(3, 4);
  const double ghost = u.at(-1, 4);

  ops::CheckpointStore store;
  store.begin(0);
  store.capture(u);
  store.commit();

  u.fill_indexed([](idx_t, idx_t, idx_t) { return -1.0; });
  u.exchange_halos();
  EXPECT_NE(u.at(3, 4), interior);

  store.restore(u);
  EXPECT_DOUBLE_EQ(u.at(3, 4), interior);
  EXPECT_DOUBLE_EQ(u.at(-1, 4), ghost);  // ghosts round-trip too
}

// --- NaN/Inf field guard -----------------------------------------------------

using NanGuard = FaultTest;

TEST_F(NanGuard, AbortNamesLoopDatAndIndex) {
  set_nan_policy(NanPolicy::Abort);
  ops::Context ctx;
  ops::Block b(ctx, "g", 1, {8, 1, 1});
  ops::Dat<double> u(b, "u", 2);
  try {
    ops::par_loop({"poison", 1.0}, b, ops::Range::make2d(0, 8, 0, 1),
                  [](ops::Acc<double> a) {
                    a(0, 0) = std::numeric_limits<double>::quiet_NaN();
                  },
                  ops::write(u));
    FAIL() << "expected nan-guard Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("poison"), std::string::npos);
    EXPECT_NE(msg.find("u"), std::string::npos);
  }
}

// A chain is guarded once it ran: each written dat is scanned once and a
// finding names the last loop of the chain that wrote it.
TEST_F(NanGuard, AbortCoversTiledChains) {
  set_nan_policy(NanPolicy::Abort);
  ops::Context ctx;
  ops::Block b(ctx, "g", 2, {16, 16, 1});
  ops::Dat<double> u(b, "u", 2), v(b, "v", 2);
  u.fill(1.0);
  ctx.set_lazy(true);
  ops::par_loop({"copy", 1.0}, b, ops::Range::make2d(0, 16, 0, 16),
                [](ops::Acc<const double> a, ops::Acc<double> o) {
                  o(0, 0) = a(0, 0);
                },
                ops::read(u), ops::write(v));
  ops::par_loop({"poison", 1.0}, b, ops::Range::make2d(0, 16, 0, 16),
                [](ops::Acc<const double> a, ops::Acc<double> o) {
                  o(0, 0) = a(0, 0) * std::numeric_limits<double>::quiet_NaN();
                },
                ops::read(u), ops::write(v));
  ctx.set_lazy(false);
  try {
    ctx.chain().execute_tiled(4);
    FAIL() << "expected nan-guard Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("loop 'poison'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dat 'v'"), std::string::npos) << msg;
  }
  EXPECT_TRUE(ctx.chain().empty());
}

TEST_F(NanGuard, ReportCountsWithoutThrowing) {
  set_nan_policy(NanPolicy::Report);
  Counter& fields = MetricsRegistry::global().counter(
      "guard.nonfinite_fields");
  const count_t before = fields.value();
  ops::Context ctx;
  ops::Block b(ctx, "g", 1, {8, 1, 1});
  ops::Dat<double> u(b, "u", 2);
  EXPECT_NO_THROW(
      ops::par_loop({"poison", 1.0}, b, ops::Range::make2d(0, 8, 0, 1),
                    [](ops::Acc<double> a) {
                    a(0, 0) = std::numeric_limits<double>::quiet_NaN();
                  },
                    ops::write(u)));
  EXPECT_GT(fields.value(), before);
}

TEST_F(NanGuard, OffIsFree) {
  set_nan_policy(NanPolicy::Off);
  ops::Context ctx;
  ops::Block b(ctx, "g", 1, {8, 1, 1});
  ops::Dat<double> u(b, "u", 2);
  EXPECT_NO_THROW(
      ops::par_loop({"poison", 1.0}, b, ops::Range::make2d(0, 8, 0, 1),
                    [](ops::Acc<double> a) {
                    a(0, 0) = std::numeric_limits<double>::quiet_NaN();
                  },
                    ops::write(u)));
}

// --- CloverLeaf 2D crash recovery -------------------------------------------

using Recovery = FaultTest;

// The headline acceptance scenario: kill rank 1 at step 4 of a 2-rank
// CloverLeaf 2D run with checkpoints every 2 steps. The supervisor must
// restart from the last committed checkpoint and the recovered checksum
// must match the fault-free run to 1e-12.
TEST_F(Recovery, CloverleafRestartsFromCheckpointAfterInjectedCrash) {
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 6;
  opt.ranks = 2;

  const apps::Result baseline = apps::clover2d::run(opt);

  install(FaultPlan::parse("crash:rank=1,step=4", 7));
  opt.checkpoint_every = 2;
  const apps::Result recovered = apps::clover2d::run(opt);

  EXPECT_NEAR(recovered.checksum, baseline.checksum, 1e-12);
  EXPECT_DOUBLE_EQ(recovered.metric("restarts"), 1.0);

  const std::vector<Event> evs = events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, Kind::Crash);
  EXPECT_EQ(evs[0].rank, 1);
  EXPECT_EQ(evs[0].step, 4);
}

// Without checkpoints the injected crash is fatal and surfaces as an
// aggregated MultiRankError naming the failed rank.
TEST_F(Recovery, CrashWithoutCheckpointsIsFatal) {
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 6;
  opt.ranks = 2;
  opt.checkpoint_every = 0;
  install(FaultPlan::parse("crash:rank=1,step=2", 7));
  try {
    apps::clover2d::run(opt);
    FAIL() << "expected the injected crash to propagate";
  } catch (const par::MultiRankError& e) {
    EXPECT_TRUE(e.any_rank_failure());
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_EQ(e.errors()[0].rank, 1);
  }
}

}  // namespace
}  // namespace bwlab::fault
