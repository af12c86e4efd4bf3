// Tests for the mini-OPS structured-mesh DSL: dats and halo exchange
// (boundary conditions, staggering, periodicity, multi-rank, physical
// ghosts filled to the read radius), par_loop semantics (stencils,
// reductions, ownership, instrumentation), and the cache-blocking tiling
// executor (bitwise equivalence with eager execution, serial and
// distributed).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/aligned.hpp"
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

// Ghost value of a non-periodic face by the per-point mirror rule: the
// source index in dimension d of ghost index g, or g itself for None.
idx_t mirror_src(Bc bc, int side, bool node, idx_t lo, idx_t hi, idx_t g) {
  switch (bc) {
    case Bc::CopyNearest:
      return side == 0 ? lo : hi - 1;
    case Bc::Reflect:
    case Bc::ReflectNeg:
      if (side == 0) return node ? 2 * lo - g : 2 * lo - 1 - g;
      return node ? 2 * (hi - 1) - g : 2 * hi - 1 - g;
    default:
      return g;
  }
}

constexpr Bc kNonPeriodicBcs[] = {Bc::CopyNearest, Bc::Reflect,
                                  Bc::ReflectNeg, Bc::None};

// A field with a distinct value at every point of the test blocks.
double ramp(idx_t i, idx_t j, idx_t k) {
  return 1.0 + double(i) + 100.0 * double(j) + 10000.0 * double(k);
}
// The same points after a write.
double ramp_rewritten(idx_t i, idx_t j, idx_t k) {
  return -3.0 * ramp(i, j, k) + 0.5;
}

TEST(Dat, FillBcMatchesPointwiseMirror) {
  const std::array<idx_t, 3> sizes[] = {{10, 1, 1}, {9, 10, 1}, {7, 8, 9}};
  constexpr double kInit = -7.0;  // what a ghost no fill reaches keeps
  for (int nd = 1; nd <= 3; ++nd)
    for (int st = 0; st <= 1; ++st)
      for (int rot = 0; rot < 4; ++rot) {
        Context ctx;
        Block b(ctx, "g", nd, sizes[nd - 1]);
        std::array<int, 3> stagger{0, 0, 0};
        for (int d = 0; d < nd; ++d) stagger[static_cast<std::size_t>(d)] = st;
        Dat<double> u(b, "u", 3, stagger, kInit);
        // Rotate the BCs over the faces so every (dim, side) meets every
        // BC, and corners join faces of different BCs.
        for (int d = 0; d < nd; ++d)
          for (int side = 0; side < 2; ++side)
            u.set_bc(d, side, kNonPeriodicBcs[(rot + 2 * d + side) % 4]);
        u.fill_indexed(ramp);
        u.exchange_halos();
        // The last fill to touch a point is that of its highest ghost
        // dimension; it copies from the point mirrored in that dimension,
        // whose own ghost coordinates were filled earlier.
        std::function<double(std::array<idx_t, 3>)> expect =
            [&](std::array<idx_t, 3> p) -> double {
          for (int d = nd - 1; d >= 0; --d) {
            const auto ds = static_cast<std::size_t>(d);
            const idx_t lo = u.exec_lo(d), hi = u.exec_hi(d);
            if (p[ds] >= lo && p[ds] < hi) continue;
            const int side = p[ds] < lo ? 0 : 1;
            const Bc bc = u.bc(d, side);
            if (bc == Bc::None) return kInit;
            p[ds] = mirror_src(bc, side, st == 1, lo, hi, p[ds]);
            const double v = expect(p);
            return bc == Bc::ReflectNeg ? -v : v;
          }
          return ramp(p[0], p[1], p[2]);
        };
        for (idx_t k = u.alloc_lo(2); k < u.alloc_hi(2); ++k)
          for (idx_t j = u.alloc_lo(1); j < u.alloc_hi(1); ++j)
            for (idx_t i = u.alloc_lo(0); i < u.alloc_hi(0); ++i)
              ASSERT_EQ(u.at(i, j, k), expect({i, j, k}))
                  << nd << "D stagger " << st << " rotation " << rot
                  << " at " << i << "," << j << "," << k;
      }
}

TEST(Dat, RowRestrictedRefreshEqualsFullRefresh) {
  constexpr int kDepth = 3;
  const std::array<idx_t, 3> sizes[] = {{9, 14, 1}, {7, 8, 14}};
  for (int nd = 2; nd <= 3; ++nd)
    for (int st = 0; st <= 1; ++st)
      for (const Bc bc : {Bc::CopyNearest, Bc::Reflect, Bc::ReflectNeg}) {
        Context ctx;
        Block b(ctx, "g", nd, sizes[nd - 2]);
        std::array<int, 3> stagger{0, 0, 0};
        for (int d = 0; d < nd; ++d) stagger[static_cast<std::size_t>(d)] = st;
        const int outer = nd - 1;
        auto make = [&] {
          auto u = std::make_unique<Dat<double>>(b, "u", kDepth, stagger);
          u->set_bc_all(bc);
          u->fill_indexed(ramp);
          u->exchange_halos();  // consistent ghosts to start from
          return u;
        };
        const auto probe = make();
        const idx_t lo = probe->exec_lo(outer), hi = probe->exec_hi(outer);
        // Windows at the low edge, the high edge, in the middle, shorter
        // than the depth, and on the last row an outer strip is sourced
        // from (exec_lo + depth, exec_hi - depth - 1).
        const std::pair<idx_t, idx_t> windows[] = {
            {lo, lo + kDepth + 2},
            {hi - kDepth - 2, hi},
            {lo + kDepth + 2, hi - kDepth - 2},
            {lo + 1, lo + 2},
            {hi - 2, hi - 1},
            {lo + kDepth, lo + kDepth + 1},
            {hi - kDepth - 1, hi - kDepth},
        };
        for (const auto& [wlo, whi] : windows) {
          auto rows = make();
          auto full = make();
          for (Dat<double>* u : {rows.get(), full.get()})
            for (idx_t k = u->exec_lo(2); k < u->exec_hi(2); ++k)
              for (idx_t j = u->exec_lo(1); j < u->exec_hi(1); ++j)
                for (idx_t i = u->exec_lo(0); i < u->exec_hi(0); ++i) {
                  const idx_t r = outer == 1 ? j : k;
                  if (r >= wlo && r < whi)
                    u->at(i, j, k) = ramp_rewritten(i, j, k);
                }
          rows->refresh_physical_bcs(wlo, whi);
          full->refresh_physical_bcs();
          ASSERT_EQ(rows->alloc_count(), full->alloc_count());
          EXPECT_EQ(std::memcmp(rows->alloc_data(), full->alloc_data(),
                                rows->alloc_count() * sizeof(double)),
                    0)
              << nd << "D stagger " << st << " bc " << static_cast<int>(bc)
              << " rows [" << wlo << ", " << whi << ")";
        }
      }
}

TEST(Dat, RowRestrictedRefreshCoversPeriodicGhostRows) {
  // With a periodic outer dimension the tiled executor also writes the
  // outer ghost rows (redundantly computed periodic images); their side
  // ghosts must follow. Reference: the new field everywhere, exchanged.
  constexpr int kDepth = 3;
  const std::array<idx_t, 3> sizes[] = {{9, 14, 1}, {7, 8, 14}};
  for (int nd = 2; nd <= 3; ++nd)
    for (int st = 0; st <= 1; ++st)
      for (const Bc bc : {Bc::CopyNearest, Bc::Reflect, Bc::ReflectNeg}) {
        Context ctx;
        Block b(ctx, "g", nd, sizes[nd - 2]);
        const int outer = nd - 1;
        const auto os = static_cast<std::size_t>(outer);
        std::array<int, 3> stagger{0, 0, 0};
        for (int d = 0; d < outer; ++d)
          stagger[static_cast<std::size_t>(d)] = st;
        auto make = [&](double (*value)(idx_t, idx_t, idx_t)) {
          auto u = std::make_unique<Dat<double>>(b, "u", kDepth, stagger);
          u->set_bc_all(bc);
          u->set_bc(outer, 0, Bc::Periodic);
          u->set_bc(outer, 1, Bc::Periodic);
          u->fill_indexed(value);
          u->exchange_halos();
          return u;
        };
        const auto ref = make(ramp_rewritten);
        const idx_t lo = ref->exec_lo(outer), hi = ref->exec_hi(outer);
        const idx_t alo = ref->alloc_lo(outer), ahi = ref->alloc_hi(outer);
        const std::pair<idx_t, idx_t> windows[] = {
            {alo, lo + 2}, {hi - 2, ahi}, {lo - 1, lo + kDepth}};
        for (const auto& [wlo, whi] : windows) {
          // Write the window's rows, outer ghost rows included, with the
          // new values of their periodic images.
          auto rows = make(ramp);
          std::array<idx_t, 3> blo{}, bhi{};
          for (int d = 0; d < 3; ++d) {
            const auto ds = static_cast<std::size_t>(d);
            blo[ds] = d == outer ? std::max(wlo, alo) : rows->exec_lo(d);
            bhi[ds] = d == outer ? std::min(whi, ahi) : rows->exec_hi(d);
          }
          const idx_t n = hi - lo;
          for (idx_t k = blo[2]; k < bhi[2]; ++k)
            for (idx_t j = blo[1]; j < bhi[1]; ++j)
              for (idx_t i = blo[0]; i < bhi[0]; ++i) {
                std::array<idx_t, 3> img{i, j, k};
                img[os] = lo + ((img[os] - lo) % n + n) % n;
                rows->at(i, j, k) = ramp_rewritten(img[0], img[1], img[2]);
              }
          rows->refresh_physical_bcs(wlo, whi);
          // Every point of the written rows, side ghosts and corners
          // included, must equal the exchanged reference.
          for (idx_t k = rows->alloc_lo(2); k < rows->alloc_hi(2); ++k)
            for (idx_t j = rows->alloc_lo(1); j < rows->alloc_hi(1); ++j)
              for (idx_t i = rows->alloc_lo(0); i < rows->alloc_hi(0); ++i) {
                const idx_t r = outer == 1 ? j : k;
                if (r < wlo || r >= whi) continue;
                ASSERT_EQ(std::memcmp(&rows->at(i, j, k), &ref->at(i, j, k),
                                      sizeof(double)),
                          0)
                    << nd << "D stagger " << st << " bc "
                    << static_cast<int>(bc) << " rows [" << wlo << ", "
                    << whi << ") at " << i << "," << j << "," << k;
              }
        }
      }
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

/// The association every executor shares: one partial per row, started
/// from zero and accumulated along i, folded into the target rows
/// ascending. Eager and chained execution are compared against this
/// plain loop, not just against each other.
TEST(ParLoop, ReductionAssociatesRowsAscending) {
  Context ctx(3);
  Block b(ctx, "g", 2, {23, 17, 1});
  Dat<double> u(b, "u", 1);
  const auto value = [](idx_t i, idx_t j) {
    return std::exp(0.31 * double(i)) - 1e3 * std::cos(0.7 * double(j));
  };
  u.fill_indexed([&](idx_t i, idx_t j, idx_t) { return value(i, j); });
  double want = 0.5;
  for (idx_t j = 0; j < 17; ++j) {
    double row = 0;
    for (idx_t i = 0; i < 23; ++i) row += value(i, j);
    want += row;
  }
  const auto sum = [&](bool lazy) {
    double s = 0.5;
    ctx.set_lazy(lazy);
    par_loop({"s", 0.0}, b, Range::make2d(0, 23, 0, 17),
             [](Acc<const double> a, double& acc) { acc += a(0, 0); },
             read(u), reduce_sum(s));
    ctx.set_lazy(false);
    if (lazy) ctx.chain().execute_tiled(4);
    return s;
  };
  EXPECT_EQ(sum(false), want);
  EXPECT_EQ(sum(true), want);
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
  core::write_run_report_json(os, core::make_run_report(ctx.instr()));
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

TEST(Tiling, ChainedReductionsNeedTwoDims) {
  // A 1-D block's rows are single points of the tiled dimension, so a
  // reduction could not keep eager's association; it is rejected.
  Context ctx;
  Block b(ctx, "g", 1, {8, 1, 1});
  Dat<double> u(b, "u", 2);
  u.fill(1.0);
  double s = 0;
  ctx.set_lazy(true);
  EXPECT_THROW(
      par_loop({"r", 0.0}, b, Range::make2d(0, 8, 0, 1),
               [](Acc<const double> a, double& x) { x += a(0, 0); }, read(u),
               reduce_sum(s)),
      Error);
  ctx.set_lazy(false);
}

// --- Point-write contract ----------------------------------------------------

TEST(ParLoop, RejectsStencilReadOfWrittenDat) {
  Context ctx;
  Block b(ctx, "g", 2, {8, 8, 1});
  Dat<double> u(b, "u", 1), v(b, "v", 1);
  u.fill(1.0);
  const Range r = Range::make2d(1, 7, 1, 7);
  const auto smooth = [](Acc<const double> a, Acc<double> o) {
    o(0, 0) = a(-1, 0) + a(1, 0);
  };
  EXPECT_THROW(par_loop({"w", 1.0}, b, r, smooth,
                        read(u, Stencil::star(2, 1)), write(u)),
               Error);
  EXPECT_THROW(par_loop({"rw", 1.0}, b, r, smooth,
                        read(u, Stencil::star(2, 1)), read_write(u)),
               Error);
  EXPECT_THROW(par_loop_blocked({"bw", 1.0}, b, r, {4, 2, 1}, smooth,
                                read(u, Stencil::star(2, 1)), write(u)),
               Error);
  ctx.set_lazy(true);
  EXPECT_THROW(par_loop({"lazy", 1.0}, b, r, smooth,
                        read(u, Stencil::star(2, 1)), write(u)),
               Error);
  ctx.set_lazy(false);
  EXPECT_TRUE(ctx.chain().empty());
  // A point read of a written dat, and a stencil read of another one,
  // are per-point and allowed.
  par_loop({"pt", 1.0}, b, r,
           [](Acc<const double> a, Acc<double> o) { o(0, 0) = 2.0 * a(0, 0); },
           read(u), write(u));
  par_loop({"ok", 1.0}, b, r, smooth, read(u, Stencil::star(2, 1)), write(v));
  EXPECT_EQ(v.at(3, 3), 4.0);
}

// --- Set-up: fresh dats read zero --------------------------------------------

/// Every allocated element (ghosts included) of `d` equals `want`.
bool all_equal(const Dat<double>& d, double want) {
  for (std::size_t i = 0; i < d.alloc_count(); ++i)
    if (std::memcmp(&d.alloc_data()[i], &want, sizeof(double)) != 0)
      return false;
  return true;
}

TEST(Dat, FreshDatReadsZeroOnBothAllocatorPaths) {
  Context ctx;
  // Small path: a freed, dirty block of the same size is likely reused.
  Block small(ctx, "s", 2, {30, 30, 1});
  { aligned_vector<double> dirty(34 * 34, 7.0); }
  Dat<double> s(small, "s", 2);
  ASSERT_LT(s.alloc_count() * sizeof(double), kLargeArrayBytes);
  EXPECT_TRUE(all_equal(s, 0.0));
  // Large (mmap) path.
  Block large(ctx, "l", 2, {760, 760, 1});
  Dat<double> l(large, "l", 2, {1, 1, 0});
  ASSERT_GE(l.alloc_count() * sizeof(double), kLargeArrayBytes);
  EXPECT_TRUE(all_equal(l, 0.0));
}

TEST(Dat, NonZeroInitStillFillsEveryElement) {
  Context ctx;
  Block small(ctx, "s", 2, {30, 30, 1});
  Dat<double> s(small, "s", 2, {0, 0, 0}, 1.5);
  EXPECT_TRUE(all_equal(s, 1.5));
  Dat<double> neg(small, "neg", 2, {0, 0, 0}, -0.0);  // not all-zero bits
  EXPECT_TRUE(all_equal(neg, -0.0));
  Block large(ctx, "l", 2, {760, 760, 1});
  Dat<double> l(large, "l", 2, {0, 0, 0}, -2.25);
  EXPECT_TRUE(all_equal(l, -2.25));
}

// --- Reductions inside tiled chains -------------------------------------------

/// Reduced values of a chain, compared bit for bit.
struct Reduced {
  double sum = 0, mn = 1e300, mx = -1e300, count = 0, tail = 0;
  bool operator==(const Reduced& o) const {
    return std::memcmp(this, &o, sizeof(Reduced)) == 0;
  }
};

/// A chain with a mid-chain reduction: `red` reads c (radius 1, written
/// by l1) and writes d, which l3 reads with radius 1, so the reduction's
/// executed range extends into the halo. l3 then rewrites c, a dat the
/// reduction reads (the WAR skew), and a final reduction sums e.
struct RedChain {
  Context& ctx;
  Block b;
  Dat<double> a, c, d, e;
  RedChain(Context& ctx_, idx_t nx, idx_t ny)
      : ctx(ctx_), b(ctx_, "g", 2, {nx, ny, 1}), a(b, "a", 8), c(b, "c", 8),
        d(b, "d", 8), e(b, "e", 8) {
    for (Dat<double>* x : {&a, &c, &d, &e}) x->set_bc_all(Bc::Reflect);
    a.fill_indexed([](idx_t i, idx_t j, idx_t) {
      return std::sin(0.37 * double(i)) * std::cos(0.21 * double(j)) + 0.1;
    });
  }
  /// Runs the chain eagerly (tile < 0), tiled at height `tile` (0: auto),
  /// or, with `untiled`, captured and run loop by loop.
  Reduced run(idx_t tile, bool untiled = false) {
    Reduced r;
    const idx_t nx = b.size(0), ny = b.size(1);
    const Range all = Range::make2d(0, nx, 0, ny);
    const bool lazy = tile >= 0 || untiled;
    ctx.set_lazy(lazy);
    par_loop({"l1", 2.0}, b, all,
             [](Acc<const double> x, Acc<double> y) {
               y(0, 0) = 0.5 * (x(-1, 0) + x(0, 1)) + 1e-3 * x(0, 0);
             },
             read(a, Stencil::star(2, 1)), write(c));
    par_loop({"red", 4.0}, b, all,
             [](Acc<const double> y, Acc<double> z, double& s, double& mn,
                double& mx, double& n) {
               const double v = y(0, -1) + y(1, 0) - y(0, 0);
               z(0, 0) = v;
               s += v;
               mn = std::min(mn, v);
               mx = std::max(mx, v);
               n += 1.0;
             },
             read(c, Stencil::star(2, 1)), write(d), reduce_sum(r.sum),
             reduce_min(r.mn), reduce_max(r.mx), reduce_sum(r.count));
    par_loop({"l3", 2.0}, b, all,
             [](Acc<const double> z, Acc<double> w, Acc<double> y) {
               w(0, 0) = z(-1, 0) * z(0, 1);
               y(0, 0) = -z(0, 0);
             },
             read(d, Stencil::star(2, 1)), write(e), write(c));
    par_loop({"tail", 1.0}, b, all,
             [](Acc<const double> w, double& s) { s += w(0, 0); }, read(e),
             reduce_sum(r.tail));
    ctx.set_lazy(false);
    if (untiled)
      ctx.chain().execute_untiled();
    else if (lazy)
      ctx.chain().execute_tiled(tile);
    return r;
  }
  /// Sum of c after the chain: l3 must have rewritten it everywhere.
  double c_sum() {
    double s = 0;
    par_loop({"cs", 0.0}, b, Range::make2d(0, b.size(0), 0, b.size(1)),
             [](Acc<const double> y, double& acc) { acc += y(0, 0); },
             read(c), reduce_sum(s));
    return s;
  }
};

class ChainedReductions
    : public ::testing::TestWithParam<std::tuple<idx_t, int>> {};

TEST_P(ChainedReductions, BitwiseEqualToEager) {
  const auto [tile, pool] = GetParam();
  Context eager_ctx;
  RedChain eager(eager_ctx, 37, 29);
  const Reduced ref = eager.run(-1);
  EXPECT_EQ(ref.count, 37.0 * 29.0);

  Context ctx(pool);
  RedChain tiled(ctx, 37, 29);
  const Reduced got = tiled.run(tile);  // tile 0: auto height
  EXPECT_TRUE(got == ref) << "sum " << got.sum << " vs " << ref.sum
                          << ", tail " << got.tail << " vs " << ref.tail;
  EXPECT_EQ(tiled.c_sum(), eager.c_sum());
  EXPECT_EQ(ctx.instr().loop("red").calls, 1u);
  EXPECT_EQ(ctx.instr().loop("red").points, 37u * 29u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainedReductions,
    ::testing::Combine(::testing::Values<idx_t>(1, 3, 7, 0, 100),
                       ::testing::Values(1, 2, 4)));

TEST(ChainedReductions, UntiledChainMatchesEager) {
  Context eager_ctx;
  RedChain eager(eager_ctx, 24, 20);
  const Reduced ref = eager.run(-1);
  Context ctx(2);
  RedChain lazy(ctx, 24, 20);
  EXPECT_TRUE(lazy.run(-1, /*untiled=*/true) == ref);
  EXPECT_EQ(lazy.c_sum(), eager.c_sum());
}

/// On 4 SimMPI ranks with depth-8 halos, the reduction's executed range
/// reaches into neighbours' rows; each rank must still count exactly its
/// owned points, with per-rank values bitwise equal to 4-rank eager.
TEST(ChainedReductions, DistributedCountsNoHaloPointTwice) {
  std::vector<Reduced> eager(4), tiled(4);
  for (const bool lazy : {false, true})
    par::run_ranks(4, [&](par::Comm& comm) {
      Context ctx(comm, 1);
      RedChain chain(ctx, 40, 36);
      (lazy ? tiled : eager)[static_cast<std::size_t>(comm.rank())] =
          chain.run(lazy ? 5 : -1);
    });
  double count = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(tiled[r] == eager[r]) << "rank " << r;
    count += tiled[r].count;
  }
  EXPECT_EQ(count, 40.0 * 36.0);
}

// --- Physical ghosts filled to the read radius ------------------------------

/// Ghost poisoning (ops::poison_unfilled_ghosts) for the guard's lifetime.
struct PoisonGhosts {
  PoisonGhosts() { poison_unfilled_ghosts() = true; }
  ~PoisonGhosts() { poison_unfilled_ghosts() = false; }
  PoisonGhosts(const PoisonGhosts&) = delete;
  PoisonGhosts& operator=(const PoisonGhosts&) = delete;
};

TEST(ReadRadius, DeeperReadRefillsCleanHalos) {
  // A depth-3 dat that starts as NaN, with reflecting walls. A radius-1
  // read fills ring 1 of every wall and leaves rings 2 and 3 alone; a
  // radius-2 read of the unchanged dat, whose halos are clean, must fill
  // ring 2. Eagerly and in a tiled chain alike.
  constexpr idx_t nx = 12, ny = 10;
  for (const bool tiled : {false, true}) {
    Context ctx;
    Block b(ctx, "g", 2, {nx, ny, 1});
    Dat<double> u(b, "u", 3, {0, 0, 0},
                  std::numeric_limits<double>::quiet_NaN());
    Dat<double> out(b, "out", 3);
    u.set_bc_all(Bc::Reflect);
    u.fill_indexed(ramp);
    auto read_at = [&](int r) {
      run_chain(ctx, tiled, 4, [&] {
        par_loop({"r" + std::to_string(r), 4.0}, b,
                 Range::make2d(0, nx, 0, ny),
                 [r](Acc<const double> a, Acc<double> o) {
                   o(0, 0) = a(-r, 0) + a(r, 0) + a(0, -r) + a(0, r);
                 },
                 read(u, Stencil::star(2, r)), write(out));
      });
    };
    // Ring g (1-based) of each wall mirrors interior ring g.
    auto expect_ring = [&](idx_t g, bool filled) {
      for (idx_t j = 0; j < ny; ++j)
        for (const auto& [ghost, src] : {std::pair{-g, g - 1},
                                         std::pair{nx - 1 + g, nx - g}}) {
          if (filled)
            EXPECT_EQ(u.at(ghost, j), u.at(src, j)) << ghost << "," << j;
          else
            EXPECT_TRUE(std::isnan(u.at(ghost, j))) << ghost << "," << j;
        }
      for (idx_t i = 0; i < nx; ++i)
        for (const auto& [ghost, src] : {std::pair{-g, g - 1},
                                         std::pair{ny - 1 + g, ny - g}}) {
          if (filled)
            EXPECT_EQ(u.at(i, ghost), u.at(i, src)) << i << "," << ghost;
          else
            EXPECT_TRUE(std::isnan(u.at(i, ghost))) << i << "," << ghost;
        }
    };
    read_at(1);
    EXPECT_EQ(u.read_radius(), 1);
    EXPECT_FALSE(u.halos_dirty());
    expect_ring(1, true);
    expect_ring(2, false);
    read_at(2);
    EXPECT_EQ(u.read_radius(), 2);
    expect_ring(2, true);
    expect_ring(3, false);
    for (idx_t j = 0; j < ny; ++j)
      for (idx_t i = 0; i < nx; ++i)
        ASSERT_FALSE(std::isnan(out.at(i, j))) << (tiled ? "tiled " : "")
                                               << i << "," << j;
  }
}

TEST(ReadRadius, PoisonedDeepGhostsLeaveCloverLeaf2DBitwise) {
  // Every ghost no fill reaches holds NaN: with physical rings filled only
  // as deep as loops read, CloverLeaf 2D must still match its unpoisoned
  // eager run bit for bit, eager and tiled, on 1 and 2 ranks.
  apps::Options o;
  o.n = 40;
  o.iterations = 4;
  double ref[2];
  for (const int ranks : {1, 2}) {
    o.ranks = ranks;
    ref[ranks - 1] = apps::clover2d::run(o).checksum;
  }
  PoisonGhosts poison;
  for (const int ranks : {1, 2})
    for (const idx_t tile : {idx_t{-1}, idx_t{7}, idx_t{0}}) {
      o.ranks = ranks;
      o.tiled = tile >= 0;
      o.tile_size = std::max<idx_t>(tile, 0);
      EXPECT_EQ(apps::clover2d::run(o).checksum, ref[ranks - 1])
          << ranks << " rank(s), tile " << tile;
    }
}

TEST(ReadRadius, PoisonedPeriodicChainMatchesEager) {
  Context eager_ctx;
  Chain eager(eager_ctx, 8);
  eager.run_loops();
  const double ref = eager.checksum();
  PoisonGhosts poison;
  for (const idx_t tile : {idx_t{7}, idx_t{0}}) {
    Context ctx;
    Chain tiled(ctx, 8);
    ctx.set_lazy(true);
    tiled.run_loops();
    ctx.set_lazy(false);
    ctx.chain().execute_tiled(tile);
    EXPECT_EQ(tiled.checksum(), ref) << "tile " << tile;
  }
}

// --- Chain-local dats ---------------------------------------------------------

/// A chain over two chain-local dats on a 2-D or 3-D block. t1 is written
/// once and read through a stencil; t2 is written, read, rewritten (a WAW
/// pair, like clover3d's mflux) and read again by a reduction. a, out and
/// b cross the chain.
struct LocalChain {
  Context& ctx;
  int nd;
  Block blk;
  Dat<double> a, t1, t2, out, b;
  LocalChain(Context& c, int ndims)
      : ctx(c), nd(ndims),
        blk(c, "g", ndims,
            ndims == 2 ? std::array<idx_t, 3>{29, 37, 1}
                       : std::array<idx_t, 3>{14, 15, 33}),
        a(blk, "a", 6), t1(blk, "t1", 6), t2(blk, "t2", 6),
        out(blk, "out", 6), b(blk, "b", 6) {
    for (Dat<double>* d : {&a, &t1, &t2, &out, &b}) d->set_bc_all(Bc::Reflect);
    t1.set_chain_local();
    t2.set_chain_local();
    a.fill_indexed([](idx_t i, idx_t j, idx_t k) {
      return std::sin(0.3 * double(i) + 0.1) * std::cos(0.17 * double(j)) +
             0.05 * double(k);
    });
  }
  Range all() const {
    return Range::make3d(0, blk.size(0), 0, blk.size(1), 0, blk.size(2));
  }
  /// Runs the chain eagerly (tile < 0) or tiled at height `tile` (0:
  /// auto); returns the reduced sum and max and an eager checksum of out
  /// and b, all of this rank.
  std::array<double, 3> run(idx_t tile) {
    const bool three = nd == 3;
    const Stencil st = Stencil::star(nd, 1);
    double s = 0, m = -1e300;
    run_chain(ctx, tile >= 0, std::max<idx_t>(tile, 0), [&] {
      par_loop({"l1", 6.0}, blk, all(),
               [three](Acc<const double> x, Acc<double> y) {
                 const double z = three ? x(0, 0, -1) + x(0, 0, 1) : 0.0;
                 y(0, 0, 0) = x(0, 0, 0) + 0.25 * (x(-1, 0, 0) + x(1, 0, 0) +
                                                   x(0, -1, 0) + x(0, 1, 0) + z);
               },
               read(a, st), write(t1));
      par_loop({"l2", 3.0}, blk, all(),
               [three](Acc<const double> x, Acc<double> y) {
                 const double z = three ? x(0, 0, 1) : 0.0;
                 y(0, 0, 0) = x(0, 0, 0) * x(1, 0, 0) - x(0, -1, 0) + z;
               },
               read(t1, st), write(t2));
      par_loop({"l3", 3.0}, blk, all(),
               [three](Acc<const double> x, Acc<double> y) {
                 const double z = three ? x(0, 0, -1) : 0.0;
                 y(0, 0, 0) = x(-1, 0, 0) + x(0, 1, 0) + z - 2.0 * x(0, 0, 0);
               },
               read(t2, st), write(out));
      par_loop({"l4", 2.0}, blk, all(),
               [](Acc<const double> x, Acc<double> y) {
                 y(0, 0, 0) = 0.5 * x(0, 0, 0) + 1.0;
               },
               read(out), write(t2));
      par_loop({"l5", 4.0}, blk, all(),
               [three](Acc<const double> x, Acc<double> y, double& sum,
                       double& mx) {
                 const double z = three ? x(0, 0, 1) : x(0, -1, 0);
                 const double v = x(0, 0, 0) + x(1, 0, 0) - z;
                 y(0, 0, 0) = v;
                 sum += v;
                 mx = std::max(mx, v);
               },
               read(t2, st), write(b), reduce_sum(s), reduce_max(m));
    });
    double cks = 0;
    par_loop({"cks", 0.0}, blk, all(),
             [](Acc<const double> o, Acc<const double> w, double& acc) {
               acc += o(0, 0, 0) + 3.0 * w(0, 0, 0);
             },
             read(out), read(b), reduce_sum(cks));
    return {s, m, cks};
  }
  /// Whether no element of `d`'s full allocation is a number: under
  /// poison_unfilled_ghosts(), whether no loop or exchange touched it.
  static bool untouched(const Dat<double>& d) {
    return std::all_of(d.alloc_data(), d.alloc_data() + d.alloc_count(),
                       [](double v) { return std::isnan(v); });
  }
};

using LocalResults = std::vector<std::array<double, 3>>;

/// Per-rank results of LocalChain on `ranks` SimMPI ranks (1: none).
LocalResults run_local_chain(int nd, idx_t tile, int threads, int ranks,
                             bool* full_untouched = nullptr) {
  LocalResults out(static_cast<std::size_t>(ranks));
  auto rank_run = [&](par::Comm* comm) {
    std::unique_ptr<Context> ctx = comm ? std::make_unique<Context>(*comm, threads)
                                        : std::make_unique<Context>(threads);
    LocalChain c(*ctx, nd);
    const std::size_t r = comm ? static_cast<std::size_t>(comm->rank()) : 0;
    out[r] = c.run(tile);
    if (full_untouched != nullptr && r == 0) {
      *full_untouched = LocalChain::untouched(c.t1) &&
                        LocalChain::untouched(c.t2);
      for (const ExchangeRecord* e : ctx->instr().exchanges())
        if (e->dat_name == "t1" || e->dat_name == "t2")
          *full_untouched = false;
    }
  };
  if (ranks > 1)
    par::run_ranks(ranks, [&](par::Comm& comm) { rank_run(&comm); });
  else
    rank_run(nullptr);
  return out;
}

class ChainLocal
    : public ::testing::TestWithParam<std::tuple<int, idx_t, int, int>> {};

// Declared chain-local, t1 and t2 are not exchanged and live in row
// windows: bitwise equal to the unpoisoned eager run with every dat and
// window starting as NaN, and their full allocations never touched.
TEST_P(ChainLocal, TiledMatchesEagerBitwiseWithPoison) {
  const auto [nd, tile, threads, ranks] = GetParam();
  const LocalResults ref = run_local_chain(nd, -1, 1, ranks);
  PoisonGhosts poison;
  EXPECT_EQ(run_local_chain(nd, -1, threads, ranks), ref) << "eager";
  bool untouched = false;
  EXPECT_EQ(run_local_chain(nd, tile, threads, ranks, &untouched), ref);
  EXPECT_TRUE(untouched);
  for (const auto& r : ref)
    for (const double v : r) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainLocal,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values<idx_t>(1, 3, 7, 17, 0),
                       ::testing::Values(1, 3), ::testing::Values(1, 2)));

TEST(ChainLocalContract, FirstUseMustBeAPureWrite) {
  for (const bool rw : {false, true}) {
    Context ctx;
    LocalChain c(ctx, 2);
    ctx.set_lazy(true);
    try {
      if (rw)
        par_loop({"bump", 1.0}, c.blk, c.all(),
                 [](Acc<double> y) { y(0, 0) += 1.0; }, read_write(c.t1));
      else
        par_loop({"peek", 1.0}, c.blk, c.all(),
                 [](Acc<const double> y, Acc<double> o) { o(0, 0) = y(0, 0); },
                 read(c.t1), write(c.out));
      ADD_FAILURE() << "expected a chain-local Error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("dat 't1'"), std::string::npos) << msg;
      EXPECT_NE(msg.find(rw ? "loop 'bump'" : "loop 'peek'"),
                std::string::npos)
          << msg;
    }
    ctx.set_lazy(false);
    EXPECT_TRUE(ctx.chain().empty());
  }
}

TEST(ChainLocalContract, FirstWriteMustCoverLaterReads) {
  Context ctx;
  LocalChain c(ctx, 2);
  const idx_t nx = c.blk.size(0), ny = c.blk.size(1);
  ctx.set_lazy(true);
  auto copy = [](Acc<const double> x, Acc<double> y) { y(0, 0) = x(0, 0); };
  par_loop({"inner", 1.0}, c.blk, Range::make2d(1, nx - 1, 0, ny), copy,
           read(c.a), write(c.t1));
  // Reads inside the written range are fine; one past it is not, while
  // ghosts outside the domain are the per-tile refresh's.
  par_loop({"inside", 1.0}, c.blk, Range::make2d(2, nx - 2, 0, ny),
           [](Acc<const double> x, Acc<double> y) {
             y(0, 0) = x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1);
           },
           read(c.t1, Stencil::star(2, 1)), write(c.out));
  try {
    par_loop({"smooth", 1.0}, c.blk, Range::make2d(1, nx - 1, 0, ny),
             [](Acc<const double> x, Acc<double> y) {
               y(0, 0) = x(-1, 0) + x(1, 0);
             },
             read(c.t1, Stencil::star(2, 1)), write(c.b));
    ADD_FAILURE() << "expected a chain-local Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dat 't1'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("loop 'smooth'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("loop 'inner'"), std::string::npos) << msg;
  }
  ctx.set_lazy(false);
  EXPECT_EQ(ctx.chain().size(), 2u);
  ctx.chain().clear();
}

}  // namespace
}  // namespace bwlab::ops
