// Tests for the mini-OPS structured-mesh DSL: dats and halo exchange
// (boundary conditions, staggering, periodicity, multi-rank), par_loop
// semantics (stencils, reductions, ownership, instrumentation), and the
// cache-blocking tiling executor (bitwise equivalence with eager
// execution, serial and distributed).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "core/report.hpp"
#include "ops/chain.hpp"
#include "ops/par_loop.hpp"

namespace bwlab::ops {
namespace {

// --- Dat / halo exchange ----------------------------------------------------

TEST(Dat, ExecOwnershipCoversStaggeredExtent) {
  Context ctx;
  Block b(ctx, "g", 2, {16, 16, 1});
  Dat<double> cell(b, "cell", 2);
  Dat<double> node(b, "node", 2, {1, 1, 0});
  EXPECT_EQ(cell.exec_hi(0), 16);
  EXPECT_EQ(node.exec_hi(0), 17);
  EXPECT_EQ(node.global_hi(0), 17);
}

TEST(Dat, CopyNearestAndReflectFills) {
  Context ctx;
  Block b(ctx, "g", 1, {8, 1, 1});
  Dat<double> u(b, "u", 2);
  u.fill_indexed([](idx_t i, idx_t, idx_t) { return double(i + 1); });
  u.set_bc(0, 0, Bc::Reflect);
  u.set_bc(0, 1, Bc::CopyNearest);
  u.exchange_halos();
  // Reflect about the cell wall: u(-1) = u(0), u(-2) = u(1).
  EXPECT_DOUBLE_EQ(u.at(-1), 1.0);
  EXPECT_DOUBLE_EQ(u.at(-2), 2.0);
  // CopyNearest: ghosts replicate the last interior value.
  EXPECT_DOUBLE_EQ(u.at(8), 8.0);
  EXPECT_DOUBLE_EQ(u.at(9), 8.0);
}

TEST(Dat, ReflectNegOnStaggeredMirrorsAboutBoundaryNode) {
  Context ctx;
  Block b(ctx, "g", 1, {8, 1, 1});
  Dat<double> v(b, "v", 2, {1, 0, 0});
  v.fill_indexed([](idx_t i, idx_t, idx_t) { return double(i); });
  v.set_bc(0, 0, Bc::ReflectNeg);
  v.set_bc(0, 1, Bc::ReflectNeg);
  v.exchange_halos();
  // Node-centered: ghost(-1) mirrors node(+1) with sign flip.
  EXPECT_DOUBLE_EQ(v.at(-1), -1.0);
  EXPECT_DOUBLE_EQ(v.at(-2), -2.0);
  // High side: boundary node is 8, ghost(9) = -v(7).
  EXPECT_DOUBLE_EQ(v.at(9), -7.0);
}

TEST(Dat, PeriodicSingleRankWraps) {
  Context ctx;
  Block b(ctx, "g", 2, {8, 8, 1});
  Dat<double> u(b, "u", 2);
  u.set_bc_all(Bc::Periodic);
  u.fill_indexed(
      [](idx_t i, idx_t j, idx_t) { return double(10 * i + j); });
  u.exchange_halos();
  EXPECT_DOUBLE_EQ(u.at(-1, 3), u.at(7, 3));
  EXPECT_DOUBLE_EQ(u.at(8, 3), u.at(0, 3));
  EXPECT_DOUBLE_EQ(u.at(3, -2), u.at(3, 6));
  // Corner consistency from the dimension-ordered exchange.
  EXPECT_DOUBLE_EQ(u.at(-1, -1), u.at(7, 7));
}

TEST(Dat, MultiRankExchangeMatchesSingleRank) {
  // Fill a dat with a global function, exchange, and compare the halo
  // contents of a distributed run against the single-rank run.
  auto value = [](idx_t i, idx_t j) { return std::sin(0.3 * double(i)) +
                                             0.7 * double(j); };
  // Reference: single rank.
  Context ref_ctx;
  Block ref_b(ref_ctx, "g", 2, {24, 24, 1});
  Dat<double> ref(ref_b, "u", 2);
  ref.set_bc_all(Bc::Periodic);
  ref.fill_indexed([&](idx_t i, idx_t j, idx_t) { return value(i, j); });
  ref.exchange_halos();

  par::run_ranks(4, [&](par::Comm& comm) {
    Context ctx(comm, 1);
    Block b(ctx, "g", 2, {24, 24, 1});
    Dat<double> u(b, "u", 2);
    u.set_bc_all(Bc::Periodic);
    u.fill_indexed([&](idx_t i, idx_t j, idx_t) { return value(i, j); });
    u.exchange_halos();
    // Every allocated element (owned + ghosts) must match the reference
    // at the wrapped global index.
    for (idx_t j = u.alloc_lo(1); j < u.alloc_hi(1); ++j)
      for (idx_t i = u.alloc_lo(0); i < u.alloc_hi(0); ++i) {
        const idx_t wi = (i + 24) % 24, wj = (j + 24) % 24;
        EXPECT_DOUBLE_EQ(u.at(i, j), ref.at(wi, wj))
            << "rank " << comm.rank() << " at " << i << "," << j;
      }
  });
}

TEST(Dat, ExchangeCountsRecorded) {
  Context ctx;
  Block b(ctx, "g", 2, {16, 16, 1});
  Dat<double> u(b, "u", 2);
  u.fill(1.0);
  u.exchange_halos();
  u.exchange_halos();  // clean: no-op
  const ExchangeRecord& rec = ctx.instr().exchange("u");
  EXPECT_EQ(rec.exchanges, 2u);  // one per dimension of the first exchange
  EXPECT_EQ(rec.halo_depth, 2);
}

// --- par_loop ----------------------------------------------------------------

TEST(ParLoop, FivePointStencilMatchesReference) {
  Context ctx;
  Block b(ctx, "g", 2, {20, 20, 1});
  Dat<double> u(b, "u", 1), v(b, "v", 1);
  u.fill_indexed([](idx_t i, idx_t j, idx_t) { return double(i * i + j); });
  par_loop({"lap", 4.0}, b, Range::make2d(1, 19, 1, 19),
           [](Acc<const double> a, Acc<double> out) {
             out(0, 0) = a(-1, 0) + a(1, 0) + a(0, -1) + a(0, 1) -
                         4.0 * a(0, 0);
           },
           read(u, Stencil::star(2, 1)), write(v));
  // Laplacian of i^2 + j is 2 exactly.
  for (idx_t j = 1; j < 19; ++j)
    for (idx_t i = 1; i < 19; ++i) EXPECT_DOUBLE_EQ(v.at(i, j), 2.0);
}

class ParLoopThreads : public ::testing::TestWithParam<int> {};

TEST_P(ParLoopThreads, ReductionsMatchSerial) {
  Context ctx(GetParam());
  Block b(ctx, "g", 3, {12, 12, 12});
  Dat<double> u(b, "u", 1);
  u.fill_indexed([](idx_t i, idx_t j, idx_t k) {
    return double(i) - double(j) + 0.5 * double(k);
  });
  double sum = 0, mx = -1e300, mn = 1e300;
  par_loop({"reduce", 3.0}, b, Range::make3d(0, 12, 0, 12, 0, 12),
           [](Acc<const double> a, double& s, double& m, double& n) {
             s += a(0, 0, 0);
             m = std::max(m, a(0, 0, 0));
             n = std::min(n, a(0, 0, 0));
           },
           read(u), reduce_sum(sum), reduce_max(mx), reduce_min(mn));
  // sum over i - j cancels; 0.5k contributes 144 * 0.5 * (0+..+11)
  EXPECT_NEAR(sum, 144.0 * 0.5 * 66.0, 1e-9);
  EXPECT_DOUBLE_EQ(mx, 11.0 + 0.5 * 11.0);
  EXPECT_DOUBLE_EQ(mn, -11.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParLoopThreads, ::testing::Values(1, 3, 4));

TEST(ParLoop, InstrumentationCountsBytesAndFlops) {
  Context ctx;
  Block b(ctx, "g", 2, {10, 10, 1});
  Dat<double> u(b, "u", 1), v(b, "v", 1);
  u.fill(1.0);
  par_loop({"k", 7.0}, b, Range::make2d(0, 10, 0, 10),
           [](Acc<const double> a, Acc<double> o) { o(0, 0) = a(0, 0); },
           read(u), write(v));
  const LoopRecord& rec = ctx.instr().loop("k");
  EXPECT_EQ(rec.calls, 1u);
  EXPECT_EQ(rec.points, 100u);
  EXPECT_EQ(rec.bytes, 100u * 16u);  // one read + one write of 8 B
  EXPECT_DOUBLE_EQ(rec.flops, 700.0);
  EXPECT_EQ(rec.pattern, Pattern::Streaming);

  // par_loop_blocked records exactly what par_loop records for the same
  // range and descriptors.
  const auto stencil_loop = [](bool blocked) {
    Context c;
    Block blk(c, "g", 2, {10, 10, 1});
    Dat<double> x(blk, "x", 1), y(blk, "y", 1);
    x.fill(1.0);
    const auto k = [](Acc<const double> a, Acc<double> o) {
      o(0, 0) = a(-1, 0) + a(0, 1);
    };
    const Range r = Range::make2d(1, 9, 1, 9);
    if (blocked)
      par_loop_blocked({"s", 3.0}, blk, r, {4, 2, 1}, k,
                       read(x, Stencil::star(2, 1)), write(y));
    else
      par_loop({"s", 3.0}, blk, r, k, read(x, Stencil::star(2, 1)), write(y));
    return c.instr().loop("s");
  };
  const LoopRecord eager = stencil_loop(false);
  const LoopRecord blocked = stencil_loop(true);
  EXPECT_EQ(blocked.calls, eager.calls);
  EXPECT_EQ(blocked.points, eager.points);
  EXPECT_EQ(blocked.bytes, eager.bytes);
  EXPECT_DOUBLE_EQ(blocked.flops, eager.flops);
  EXPECT_EQ(blocked.pattern, eager.pattern);
  EXPECT_EQ(eager.pattern, Pattern::Stencil);
  EXPECT_EQ(blocked.max_radius, eager.max_radius);
  EXPECT_EQ(eager.max_radius, 1);
  EXPECT_EQ(blocked.ndims, eager.ndims);
}

TEST(ParLoop, PatternInference) {
  Context ctx;
  Block b(ctx, "g", 2, {64, 64, 1});
  Dat<double> u(b, "u", 4), v(b, "v", 4);
  u.fill(0.0);
  auto copy = [](Acc<const double> a, Acc<double> o) { o(0, 0) = a(0, 0); };
  par_loop({"bdy", 1.0}, b, Range::make2d(0, 1, 0, 64), copy, read(u),
           write(v));
  EXPECT_EQ(ctx.instr().loop("bdy").pattern, Pattern::Boundary);
  par_loop({"wide", 1.0}, b, Range::make2d(4, 60, 4, 60),
           [](Acc<const double> a, Acc<double> o) { o(0, 0) = a(-4, 0); },
           read(u, Stencil::star(2, 4)), write(v));
  EXPECT_EQ(ctx.instr().loop("wide").pattern, Pattern::WideStencil);
}

TEST(ParLoop, RangeClampedToOwnership) {
  par::run_ranks(3, [](par::Comm& comm) {
    Context ctx(comm, 1);
    Block b(ctx, "g", 1, {30, 1, 1});
    Dat<double> u(b, "u", 1);
    u.fill(0.0);
    par_loop({"set", 0.0}, b, Range::make2d(5, 25, 0, 1),
             [](Acc<double> a) { a(0, 0) = 1.0; }, write(u));
    double sum = 0;
    par_loop({"sum", 0.0}, b, Range::make2d(0, 30, 0, 1),
             [](Acc<const double> a, double& s) { s += a(0, 0); }, read(u),
             reduce_sum(sum));
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(sum), 20.0);
  });
}

// --- Tiling (Figure 9 executor) ----------------------------------------------

/// A small three-loop chain with radius-1 and radius-2 dependencies.
struct Chain {
  Context& ctx;
  Block b;
  Dat<double> a, c, d, e;
  explicit Chain(Context& ctx_, int depth)
      : ctx(ctx_), b(ctx_, "g", 2, {40, 40, 1}), a(b, "a", depth),
        c(b, "c", depth), d(b, "d", depth), e(b, "e", depth) {
    for (Dat<double>* x : {&a, &c, &d, &e}) x->set_bc_all(Bc::Periodic);
    a.fill_indexed([](idx_t i, idx_t j, idx_t) {
      return std::cos(0.2 * double(i)) * std::sin(0.1 * double(j));
    });
    c.fill(0.0);
    d.fill(0.0);
    e.fill(0.0);
  }
  void run_loops() {
    par_loop({"l1", 2.0}, b, Range::make2d(0, 40, 0, 40),
             [](Acc<const double> x, Acc<double> y) {
               y(0, 0) = 0.25 * (x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1));
             },
             read(a, Stencil::star(2, 1)), write(c));
    par_loop({"l2", 2.0}, b, Range::make2d(0, 40, 0, 40),
             [](Acc<const double> y, Acc<double> z) {
               z(0, 0) = y(0, -2) + y(0, 2) - 2.0 * y(0, 0);
             },
             read(c, Stencil::star(2, 2)), write(d));
    par_loop({"l3", 2.0}, b, Range::make2d(0, 40, 0, 40),
             [](Acc<const double> z, Acc<double> w) {
               w(0, 0) = z(0, 0) + z(1, 0);
             },
             read(d, Stencil::star(2, 1)), write(e));
  }
  /// Sum and sum-of-squares of the final field: bitwise comparable for
  /// identical single-rank runs, allreduce-able for distributed ones.
  double checksum() {
    double s = 0, sq = 0;
    par_loop({"cks", 0.0}, b, Range::make2d(0, 40, 0, 40),
             [](Acc<const double> w, double& acc, double& acc2) {
               acc += w(0, 0);
               acc2 += w(0, 0) * w(0, 0);
             },
             read(e), reduce_sum(s), reduce_sum(sq));
    if (ctx.comm() != nullptr) {
      s = ctx.comm()->allreduce_sum(s);
      sq = ctx.comm()->allreduce_sum(sq);
    }
    return s + 3.0 * sq;
  }
};

class TileSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(TileSizes, TiledMatchesEagerBitwise) {
  Context eager_ctx;
  Chain eager(eager_ctx, 8);
  eager.run_loops();
  const double ref = eager.checksum();

  Context tiled_ctx;
  Chain tiled(tiled_ctx, 8);
  tiled_ctx.set_lazy(true);
  tiled.run_loops();
  tiled_ctx.set_lazy(false);
  tiled_ctx.chain().execute_tiled(GetParam());
  EXPECT_DOUBLE_EQ(tiled.checksum(), ref);
}

INSTANTIATE_TEST_SUITE_P(Tiles, TileSizes,
                         ::testing::Values<idx_t>(3, 5, 8, 16, 40, 100));

TEST(Tiling, UntiledChainAlsoMatches) {
  Context e_ctx;
  Chain eager(e_ctx, 8);
  eager.run_loops();
  const double ref = eager.checksum();

  Context l_ctx;
  Chain lazy(l_ctx, 8);
  l_ctx.set_lazy(true);
  lazy.run_loops();
  l_ctx.set_lazy(false);
  l_ctx.chain().execute_untiled();
  EXPECT_DOUBLE_EQ(lazy.checksum(), ref);
}

TEST(Tiling, DistributedTiledMatchesSerialEager) {
  Context e_ctx;
  Chain eager(e_ctx, 8);
  eager.run_loops();
  const double ref = eager.checksum();

  par::run_ranks(4, [&](par::Comm& comm) {
    Context ctx(comm, 1);
    Chain tiled(ctx, 8);
    ctx.set_lazy(true);
    tiled.run_loops();
    ctx.set_lazy(false);
    ctx.chain().execute_tiled(6);
    const double s = tiled.checksum();
    if (comm.rank() == 0) {
      EXPECT_NEAR(s, ref, std::max(std::abs(ref), 1.0) * 1e-10);
    }
  });
}

TEST(Tiling, RejectsInsufficientHaloDepth) {
  Context ctx;
  Chain chain(ctx, 2);  // chain needs depth >= sum of radii (4)
  ctx.set_lazy(true);
  chain.run_loops();
  ctx.set_lazy(false);
  EXPECT_THROW(ctx.chain().execute_tiled(8), Error);
}

/// Tiled execution with a thread team must stay bitwise equal to the
/// eager serial reference for every (tile height, pool size) pair —
/// including degenerate tiles taller than the domain.
class TiledParallel
    : public ::testing::TestWithParam<std::tuple<idx_t, int>> {};

TEST_P(TiledParallel, BitwiseEqualToEagerSerial) {
  const auto [tile, pool] = GetParam();
  Context eager_ctx;  // 1 thread: the reference
  Chain eager(eager_ctx, 8);
  eager.run_loops();
  const double ref = eager.checksum();

  Context tiled_ctx(pool);
  Chain tiled(tiled_ctx, 8);
  tiled_ctx.set_lazy(true);
  tiled.run_loops();
  tiled_ctx.set_lazy(false);
  tiled_ctx.chain().execute_tiled(tile);
  // Exact equality: per-point writes partition cleanly over the team and
  // the checksum reduction merges per-row partials in a fixed order.
  EXPECT_EQ(tiled.checksum(), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TiledParallel,
    ::testing::Combine(::testing::Values<idx_t>(3, 8, 40, 100),
                       ::testing::Values(1, 2, 4)));

/// Satellite regression for the par_loop team-size fix: reductions go
/// through per-thread (per-row) partials and must merge to the same bits
/// on every team size.
TEST(ParLoop, ReductionBitwiseIdenticalAcrossTeamSizes) {
  auto run_sum = [](int threads) {
    Context ctx(threads);
    Block b(ctx, "g", 2, {37, 29, 1});  // odd extents: uneven chunks
    Dat<double> u(b, "u", 1);
    u.fill_indexed([](idx_t i, idx_t j, idx_t) {
      return std::sin(0.7 * double(i)) * std::cos(0.3 * double(j)) + 1e-7;
    });
    double s = 0;
    par_loop({"s", 0.0}, b, Range::make2d(0, 37, 0, 29),
             [](Acc<const double> a, double& acc) { acc += a(0, 0); },
             read(u), reduce_sum(s));
    return s;
  };
  const double ref = run_sum(1);
  EXPECT_EQ(run_sum(2), ref);
  EXPECT_EQ(run_sum(3), ref);
  EXPECT_EQ(run_sum(4), ref);
}

// --- Tile-height auto-tuner --------------------------------------------------

TEST(AutoTileHeight, ShrinksMonotonicallyWithCache) {
  const double row = 64.0 * 1024.0;  // 64 KiB per tile row
  idx_t prev = 1 << 20;
  for (double cache = 64e6; cache >= 1e5; cache /= 2) {
    const idx_t h = auto_tile_height(row, cache, 4, 4096);
    EXPECT_LE(h, prev) << "cache " << cache;
    prev = h;
  }
  // Large cache saturates at the domain, tiny cache at the floor.
  EXPECT_EQ(auto_tile_height(row, 1e12, 4, 4096), 4096);
  EXPECT_EQ(auto_tile_height(row, 1.0, 4, 4096), 4);
}

TEST(AutoTileHeight, RespectsStencilFloorAndDegenerateBounds) {
  // The floor (the chain's total stencil extension) always wins over the
  // cache-derived height.
  EXPECT_EQ(auto_tile_height(1e9, 1.0, 7, 100), 7);
  // max < min (domain shorter than the extension): degenerate single tile.
  EXPECT_EQ(auto_tile_height(1024.0, 1e6, 10, 3), 10);
  // Zero footprint / budget fall back to the largest tile.
  EXPECT_EQ(auto_tile_height(0.0, 1e6, 2, 50), 50);
}

TEST(AutoTileHeight, AutoRunRecordsTilingAndMatchesEager) {
  Context eager_ctx;
  Chain eager(eager_ctx, 8);
  eager.run_loops();
  const double ref = eager.checksum();

  Context ctx(2);
  ctx.set_tile_cache_bytes(40.0 * 1024.0);  // small budget -> short tiles
  Chain tiled(ctx, 8);
  ctx.set_lazy(true);
  tiled.run_loops();
  ctx.set_lazy(false);
  ctx.chain().execute_tiled(0);  // 0 = auto-tune
  EXPECT_EQ(tiled.checksum(), ref);

  const TilingRecord& rec = ctx.instr().tiling();
  EXPECT_EQ(rec.chains, 1u);
  EXPECT_TRUE(rec.auto_tuned);
  EXPECT_GT(rec.tiles, 1u);  // the budget forces more than one tile
  // Floor: the chain's total stencil extension (sigma0 + r0 = 4).
  EXPECT_GE(rec.tile_height, 4);
  EXPECT_LE(rec.tile_height, 40);
  EXPECT_GT(rec.row_bytes, 0.0);
  EXPECT_DOUBLE_EQ(rec.cache_budget_bytes, 40.0 * 1024.0);
}

TEST(AutoTileHeight, RoundTripsIntoReportJson) {
  Context ctx;
  Chain tiled(ctx, 8);
  ctx.set_lazy(true);
  tiled.run_loops();
  ctx.set_lazy(false);
  ctx.chain().execute_tiled(0);
  std::ostringstream os;
  core::write_run_report_json(os, ctx.instr());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"tiling\""), std::string::npos);
  EXPECT_NE(json.find("\"auto_tuned\": true"), std::string::npos);
  EXPECT_NE(json.find("\"tile_height\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_budget_bytes\""), std::string::npos);
}

/// Determinism satellite: a tiled CloverLeaf 2D run must produce the
/// identical checksum for pool sizes 1, 2 and 4.
TEST(Tiling, CloverLeaf2DDeterministicAcrossPoolSizes) {
  auto checksum = [](int threads) {
    apps::Options o;
    o.n = 48;
    o.iterations = 2;
    o.threads = threads;
    o.tiled = true;
    o.tile_size = 8;
    return apps::clover2d::run(o).checksum;
  };
  const double ref = checksum(1);
  EXPECT_EQ(checksum(2), ref);
  EXPECT_EQ(checksum(4), ref);
}

TEST(Tiling, ReductionsRejectedInLazyMode) {
  Context ctx;
  Block b(ctx, "g", 2, {8, 8, 1});
  Dat<double> u(b, "u", 2);
  u.fill(1.0);
  double s = 0;
  ctx.set_lazy(true);
  EXPECT_THROW(
      par_loop({"r", 0.0}, b, Range::make2d(0, 8, 0, 8),
               [](Acc<const double> a, double& x) { x += a(0, 0); }, read(u),
               reduce_sum(s)),
      Error);
  ctx.set_lazy(false);
}

}  // namespace
}  // namespace bwlab::ops
