// Tests for the parallel runtime substrate: thread pool, SimMPI (ranks as
// threads), and cartesian partitioning.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/resil.hpp"
#include "par/partition.hpp"
#include "par/simmpi.hpp"
#include "par/thread_pool.hpp"

namespace bwlab::par {
namespace {

// --- ThreadPool -------------------------------------------------------------

class PoolSizes : public ::testing::TestWithParam<int> {};

TEST_P(PoolSizes, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, [&](idx_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(PoolSizes, ReduceSumMatchesClosedForm) {
  ThreadPool pool(GetParam());
  const idx_t n = 10001;
  const double s =
      pool.parallel_reduce_sum(0, n, [](idx_t i) { return double(i); });
  EXPECT_DOUBLE_EQ(s, double(n - 1) * double(n) / 2.0);
}

TEST_P(PoolSizes, RunExecutesEveryMember) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(pool.size()));
  pool.run([&](int tid) { seen[static_cast<std::size_t>(tid)].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolSizes, ::testing::Values(1, 2, 3, 7));

TEST(ThreadPool, ChunksPartitionRange) {
  ThreadPool pool(5);
  std::vector<bool> covered(103, false);
  for (int t = 0; t < 5; ++t) {
    const auto [lo, hi] = pool.chunk(0, 103, t);
    for (idx_t i = lo; i < hi; ++i) {
      EXPECT_FALSE(covered[static_cast<std::size_t>(i)]);
      covered[static_cast<std::size_t>(i)] = true;
    }
  }
  for (bool c : covered) EXPECT_TRUE(c);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(3);
  int count = 0;
  pool.parallel_for(5, 5, [&](idx_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 200; ++rep)
    pool.parallel_for(0, 64, [&](idx_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 200 * 64);
}

// --- SimMPI -----------------------------------------------------------------

TEST(SimMpi, PingPong) {
  run_ranks(2, [](Comm& c) {
    double x = c.rank() == 0 ? 42.0 : 0.0;
    if (c.rank() == 0) {
      c.send(1, 7, &x, sizeof(x));
      c.recv(1, 8, &x, sizeof(x));
      EXPECT_DOUBLE_EQ(x, 43.0);
    } else {
      c.recv(0, 7, &x, sizeof(x));
      x += 1.0;
      c.send(0, 8, &x, sizeof(x));
    }
  });
}

TEST(SimMpi, TagMatchingOutOfOrder) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      int a = 1, b = 2;
      c.send(1, 100, &a, sizeof(a));
      c.send(1, 200, &b, sizeof(b));
    } else {
      int a = 0, b = 0;
      // Receive in reverse tag order: matching is per (src, tag).
      c.recv(0, 200, &b, sizeof(b));
      c.recv(0, 100, &a, sizeof(a));
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(SimMpi, IsendIrecvWaitAll) {
  run_ranks(3, [](Comm& c) {
    const int me = c.rank();
    const int n = c.size();
    std::vector<double> out(static_cast<std::size_t>(n), double(me));
    std::vector<double> in(static_cast<std::size_t>(n), -1.0);
    std::vector<Comm::Request> reqs;
    for (int r = 0; r < n; ++r) {
      if (r == me) continue;
      reqs.push_back(c.irecv(r, 5, &in[static_cast<std::size_t>(r)],
                             sizeof(double)));
      reqs.push_back(c.isend(r, 5, &out[static_cast<std::size_t>(r)],
                             sizeof(double)));
    }
    c.wait_all(reqs);
    for (int r = 0; r < n; ++r)
      if (r != me) {
        EXPECT_DOUBLE_EQ(in[static_cast<std::size_t>(r)], double(r));
      }
  });
}

class AllreduceRanks : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceRanks, SumMinMax) {
  const int n = GetParam();
  run_ranks(n, [n](Comm& c) {
    const double me = static_cast<double>(c.rank() + 1);
    EXPECT_DOUBLE_EQ(c.allreduce_sum(me), n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(c.allreduce_min(me), 1.0);
    EXPECT_DOUBLE_EQ(c.allreduce_max(me), static_cast<double>(n));
    // Vector form.
    double v[2] = {me, -me};
    c.allreduce(v, 2, ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v[0], n * (n + 1) / 2.0);
    EXPECT_DOUBLE_EQ(v[1], -n * (n + 1) / 2.0);
  });

  // A sum whose bits depend on association: whatever order the ranks
  // arrive in, the result is the serial fold in rank order.
  const auto part = [](int r) {
    return r % 2 ? 1.0 : 1e16 * (r % 4 == 0 ? 1 : -1);
  };
  double serial = part(0);
  for (int r = 1; r < n; ++r) serial += part(r);
  run_ranks(n, [&](Comm& c) {
    for (int rep = 0; rep < 20; ++rep) {
      const int turn = (c.rank() * 3 + rep) % n;  // a new order each rep
      std::this_thread::sleep_for(std::chrono::microseconds(200 * turn));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.allreduce_sum(part(c.rank()))),
                std::bit_cast<std::uint64_t>(serial))
          << "rep " << rep;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, AllreduceRanks, ::testing::Values(1, 2, 5, 8));

TEST(SimMpi, BackToBackCollectivesStayInSync) {
  run_ranks(4, [](Comm& c) {
    for (int i = 0; i < 50; ++i) {
      const double s = c.allreduce_sum(1.0);
      EXPECT_DOUBLE_EQ(s, 4.0);
      c.barrier();
    }
  });
}

TEST(SimMpi, CommSecondsAccounted) {
  const auto stats = run_ranks(2, [](Comm& c) {
    if (c.rank() == 1) {
      // Make rank 0 wait measurably.
      volatile double x = 0;
      for (int i = 0; i < 2000000; ++i) x = x + 1.0;
      (void)x;
    }
    c.barrier();
  });
  // Rank 0 blocked in the barrier while rank 1 computed.
  EXPECT_GT(stats[0].comm_seconds, 0.0);
}

TEST(SimMpi, ExceptionInOneRankPropagatesWithoutDeadlock) {
  EXPECT_THROW(run_ranks(3,
                         [](Comm& c) {
                           if (c.rank() == 1)
                             BWLAB_REQUIRE(false, "rank 1 fails");
                           // Other ranks block; the abort must wake them.
                           double x = 0;
                           c.recv(1, 9, &x, sizeof(x));
                         }),
               Error);
}

TEST(SimMpi, SizeMismatchDetected) {
  EXPECT_THROW(run_ranks(2,
                         [](Comm& c) {
                           double x = 0;
                           if (c.rank() == 0) {
                             c.send(1, 1, &x, 4);
                           } else {
                             c.recv(0, 1, &x, 8);
                           }
                         }),
               Error);
}

// --- SimMPI robustness (bwfault) --------------------------------------------

namespace {
/// True when `haystack` contains every needle (diagnostic-message check).
bool contains_all(const std::string& haystack,
                  std::initializer_list<const char*> needles) {
  for (const char* n : needles)
    if (haystack.find(n) == std::string::npos) return false;
  return true;
}
}  // namespace

// The plain and the resilient receive share one size check.
TEST(SimMpi, SizeMismatchNamesRanksTagAndBothSizes) {
  for (const bool resil_on : {false, true}) {
    SCOPED_TRACE(resil_on ? "resil policy on" : "resil policy off");
    resil::Policy pol;
    pol.enabled = resil_on;
    resil::install(pol);
    try {
      run_ranks(2, [](Comm& c) {
        double x = 0;
        if (c.rank() == 0) {
          c.send(1, 5, &x, 4);
        } else {
          c.recv(0, 5, &x, 8);
        }
      });
      ADD_FAILURE() << "expected a size-mismatch error";
    } catch (const MultiRankError& e) {
      ASSERT_EQ(e.errors().size(), 1u);
      EXPECT_EQ(e.errors()[0].rank, 1);
      EXPECT_FALSE(e.errors()[0].rank_failure);
      EXPECT_TRUE(contains_all(
          e.errors()[0].message,
          {"size mismatch", "rank 1", "rank 0", "tag 5", "8", "4"}))
          << e.errors()[0].message;
    }
    resil::clear();
  }
}

// A barrier is an allreduce of no values: meeting an allreduce on another
// rank is a diagnosed count mismatch, not a silent pairing.
TEST(SimMpi, BarrierMeetingAllreduceIsDiagnosed) {
  try {
    run_ranks(2, [](Comm& c) {
      if (c.rank() == 0)
        c.barrier();
      else
        c.allreduce_sum(1.0);
    });
    FAIL() << "expected a count-mismatch error";
  } catch (const MultiRankError& e) {
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_TRUE(contains_all(e.errors()[0].message, {"count mismatch"}))
        << e.errors()[0].message;
  }
}

// A mismatched-tag hang: rank 0 sends tag 1 but rank 1 waits on tag 2.
// The deadlock is diagnosed the moment the last rank parks — the whole
// run, thread start and join included, stays under 0.1 s — naming each
// rank's blocking operation, peer and tag, and the unmatched message
// sitting in the mailbox.
TEST(SimMpi, WatchdogDiagnosesMismatchedTagHang) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_ranks(2, [](Comm& c) {
      double x = 0;
      if (c.rank() == 0) {
        c.send(1, 1, &x, sizeof x);
        c.recv(1, 3, &x, sizeof x);  // never sent either
      } else {
        c.recv(0, 2, &x, sizeof x);  // wrong tag: hangs
      }
    });
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    EXPECT_TRUE(contains_all(e.what(),
                             {"no progress", "rank 0", "rank 1",
                              "blocked in recv", "src=0, tag=2",
                              "unmatched", "src=0 tag=1"}))
        << e.what();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_s, 0.1);
}

// An injected message drop turns a correct program into a hang; the
// deadlock check attributes it instead of letting the run wedge forever.
TEST(SimMpi, WatchdogCatchesInjectedMessageDrop) {
  fault::install(fault::FaultPlan::parse("drop:rank=0,msg=0", 7));
  EXPECT_THROW(run_ranks(2,
                         [](Comm& c) {
                           double x = 1.0;
                           if (c.rank() == 0) {
                             c.send(1, 9, &x, sizeof x);
                           } else {
                             c.recv(0, 9, &x, sizeof x);
                           }
                         }),
               WatchdogError);
  const auto evs = fault::events();
  fault::clear();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].kind, fault::Kind::Drop);
}

// An injected crash kills one rank; its peers, blocked in a collective,
// must be cancelled promptly and must NOT appear in the aggregated error
// (they are victims, not causes).
TEST(SimMpi, InjectedCrashAggregatesOnlyTheOriginalFailure) {
  fault::install(fault::FaultPlan::parse("crash:rank=1,step=0", 7));
  try {
    run_ranks(3, [](Comm& c) {
      fault::on_step(c.rank(), 0);
      c.barrier();  // survivors block here until cancelled
      c.barrier();
    });
    FAIL() << "expected MultiRankError";
  } catch (const MultiRankError& e) {
    EXPECT_TRUE(e.any_rank_failure());
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_EQ(e.errors()[0].rank, 1);
    EXPECT_TRUE(e.errors()[0].rank_failure);
  }
  fault::clear();
}

// Two ranks failing independently are BOTH reported.
TEST(SimMpi, AllOriginalRankErrorsAreAggregated) {
  try {
    run_ranks(4, [](Comm& c) {
      if (c.rank() == 1) BWLAB_REQUIRE(false, "rank 1 boom");
      if (c.rank() == 3) BWLAB_REQUIRE(false, "rank 3 boom");
      double x = 0;
      c.recv(1, 9, &x, sizeof x);  // survivors block; cancelled by aborts
    });
    FAIL() << "expected MultiRankError";
  } catch (const MultiRankError& e) {
    ASSERT_EQ(e.errors().size(), 2u);
    EXPECT_FALSE(e.any_rank_failure());
    EXPECT_EQ(e.errors()[0].rank, 1);
    EXPECT_EQ(e.errors()[1].rank, 3);
    EXPECT_TRUE(contains_all(e.what(), {"rank 1 boom", "rank 3 boom"}))
        << e.what();
  }
}

// A healthy (if slow) run must never look deadlocked: one rank computes
// for 300 ms while the other waits in a collective. A computing rank is
// running, not parked, so the deadlock check never runs.
TEST(SimMpi, WatchdogIgnoresSlowButLiveRanks) {
  const auto stats = run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      // 300 ms of pure compute, no messages.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
      volatile double x = 0;
      while (std::chrono::steady_clock::now() < until) x = x + 1.0;
      (void)x;
    }
    c.barrier();
    const double s = c.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(s, 2.0);
  });
  EXPECT_EQ(stats.size(), 2u);
}

// The dump names what each rank is blocked in: rank 0 waits in a barrier
// that rank 1 never joins, rank 1 in a recv that rank 0 never sends.
TEST(SimMpi, WatchdogNamesRankBlockedInBarrier) {
  try {
    run_ranks(2, [](Comm& c) {
      double x = 0;
      if (c.rank() == 0)
        c.barrier();
      else
        c.recv(0, 4, &x, sizeof x);
    });
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    EXPECT_TRUE(contains_all(e.what(), {"rank 0: blocked in barrier",
                                        "rank 1: blocked in recv(src=0"}))
        << e.what();
  }
}

// A run ends as soon as its ranks do: no helper thread polls on a tick
// the join would have to wait for, so 20 runs of 2 ms each finish far
// inside 1 s.
TEST(SimMpi, WatchdogStopsWhenTheRunEnds) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i)
    run_ranks(1, [](Comm& c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      c.barrier();
    });
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_s, 1.0);
}

// --- Partitioning -----------------------------------------------------------

TEST(Partition, DimsCreateBalanced) {
  EXPECT_EQ(dims_create(8, 3), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(dims_create(12, 2), (std::array<int, 3>{4, 3, 1}));
  EXPECT_EQ(dims_create(7, 1), (std::array<int, 3>{7, 1, 1}));
  EXPECT_EQ(dims_create(1, 3), (std::array<int, 3>{1, 1, 1}));
  // Product always preserved.
  for (int n : {2, 6, 24, 36, 100, 224}) {
    for (int d : {1, 2, 3}) {
      const auto dims = dims_create(n, d);
      EXPECT_EQ(dims[0] * dims[1] * dims[2], n) << n << "," << d;
    }
  }
}

TEST(Partition, BlockRangePartitions) {
  for (idx_t n : {10, 17, 64}) {
    for (int p : {1, 3, 7}) {
      idx_t covered = 0;
      idx_t prev_hi = 0;
      for (int b = 0; b < p; ++b) {
        const auto [lo, hi] = block_range(n, p, b);
        EXPECT_EQ(lo, prev_hi);
        EXPECT_GE(hi, lo);
        covered += hi - lo;
        prev_hi = hi;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(Partition, CartGridNeighbors) {
  CartGrid g(6, 2, {12, 18, 1});
  EXPECT_EQ(g.nranks(), 6);
  // Every rank's coords invert rank_at.
  for (int r = 0; r < 6; ++r) EXPECT_EQ(g.rank_at(g.coords(r)), r);
  // Neighbor relations are symmetric.
  for (int r = 0; r < 6; ++r)
    for (int d = 0; d < 2; ++d) {
      const int nb = g.neighbor(r, d, +1);
      if (nb >= 0) {
        EXPECT_EQ(g.neighbor(nb, d, -1), r);
      }
    }
}

TEST(Partition, CartGridAssignsLargestDimToLargestExtent) {
  CartGrid g(6, 2, {4, 400, 1});
  EXPECT_GE(g.dims[1], g.dims[0]);
}

}  // namespace
}  // namespace bwlab::par
