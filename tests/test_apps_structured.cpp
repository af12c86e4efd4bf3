// Physics validation of the structured-mesh applications: conservation
// laws, scheme properties (eigenmode propagation, variant equivalence),
// and agreement of serial / threaded / distributed / tiled executions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>

#include "apps/acoustic/acoustic.hpp"
#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "apps/cloverleaf/cloverleaf3d.hpp"
#include "apps/miniweather/miniweather.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "common/aligned.hpp"
#include "ops/context.hpp"
#include "ops/dat.hpp"

namespace bwlab::apps {
namespace {

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-30});
}

std::map<std::string, count_t> calls_by_loop(const Instrumentation& in) {
  std::map<std::string, count_t> calls;
  for (const LoopRecord* rec : in.loops_in_order()) calls[rec->name] = rec->calls;
  return calls;
}

/// Tiled CloverLeaf runs its dt and summary reductions inside chains. On
/// one rank every chained loop still executes exactly its owned range, so
/// a tiled run is bitwise equal to eager and counts the same loop calls
/// and exact bytes; `seed_bytes` is the count both made before the
/// reductions moved into chains.
void expect_tiled_counts_equal_eager(Result (*run)(const Options&),
                                     Options o, count_t seed_bytes) {
  datmove::enable();
  const Result eager = run(o);
  o.tiled = true;
  const Result tiled = run(o);
  datmove::disable();
  EXPECT_EQ(tiled.checksum, eager.checksum);
  EXPECT_EQ(calls_by_loop(tiled.instr), calls_by_loop(eager.instr));
  EXPECT_EQ(tiled.instr.counted_bytes_by_loop(),
            eager.instr.counted_bytes_by_loop());
  EXPECT_EQ(tiled.instr.datmove_total_bytes(), seed_bytes);
  EXPECT_EQ(eager.instr.datmove_total_bytes(), seed_bytes);
}

// --- CloverLeaf 2D -----------------------------------------------------------

TEST(CloverLeaf2D, MassConservedExactly) {
  Options o;
  o.n = 48;
  o.iterations = 8;
  const Result r = clover2d::run(o);
  // Initial deck: 2.5x2.5 at rho=1 plus the rest of the 10x10 box at 0.2.
  const double m0 = 2.5 * 2.5 * 1.0 + (100.0 - 6.25) * 0.2;
  EXPECT_NEAR(r.metric("mass"), m0, m0 * 1e-12);
}

TEST(CloverLeaf2D, EnergyReleasedIntoKineticEnergy) {
  Options o;
  o.n = 48;
  o.iterations = 10;
  const Result r = clover2d::run(o);
  EXPECT_GT(r.metric("kinetic_energy"), 1e-4);  // the bomb drives flow
  EXPECT_GT(r.metric("internal_energy"), 0.0);
}

class Clover2DVariants : public ::testing::TestWithParam<int> {};

TEST_P(Clover2DVariants, ExecutionVariantsAgree) {
  Options base;
  base.n = 40;
  base.iterations = 5;
  const Result ref = clover2d::run(base);
  Options v = base;
  switch (GetParam()) {
    case 0: v.threads = 3; break;
    case 1: v.ranks = 4; break;
    case 2:
      v.tiled = true;
      v.tile_size = 7;
      break;
    case 3:
      v.ranks = 2;
      v.threads = 2;
      break;
    case 4:  // physical ghosts next to inter-rank halos, tiled
      v.ranks = 2;
      v.tiled = true;
      v.tile_size = 7;
      break;
  }
  const Result r = clover2d::run(v);
  EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Variants, Clover2DVariants,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(CloverLeaf2D, TiledIsBitwiseIdenticalSerially) {
  Options o;
  o.n = 40;
  o.iterations = 6;
  const Result eager = clover2d::run(o);
  Options t = o;
  t.tiled = true;
  t.tile_size = 9;
  const Result tiled = clover2d::run(t);
  EXPECT_EQ(eager.checksum, tiled.checksum);
}

TEST(CloverLeaf2D, TiledCountsEqualEagerAndSeed) {
  Options o;
  o.n = 40;
  o.iterations = 3;
  o.tile_size = 7;
  expect_tiled_counts_equal_eager(&clover2d::run, o, 2472264);
}

// At n = 768 every CloverLeaf dat (772² doubles at the eager halo depth,
// ≈ 4.8 MB) takes the allocator's huge-page path, which the small decks
// above never reach.
TEST(CloverLeaf2D, LargeStorageBitwiseEagerVsTiled) {
  constexpr idx_t n = 768;
  {
    ops::Context ctx;
    ops::Block block(ctx, "clover2d", 2, {n, n, 1});
    // The four CloverLeaf dat shapes: cell, node, x-face and y-face.
    for (std::array<int, 3> stagger : {std::array<int, 3>{0, 0, 0},
                                       std::array<int, 3>{1, 1, 0},
                                       std::array<int, 3>{1, 0, 0},
                                       std::array<int, 3>{0, 1, 0}}) {
      ops::Dat<double> d(block, "field", 2, stagger);
      EXPECT_GE(d.alloc_count() * sizeof(double), kLargeArrayBytes);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.alloc_data()) %
                    kCacheLineBytes,
                0u);
    }
  }
  Options o;
  o.n = n;
  o.iterations = 2;
  const Result eager = clover2d::run(o);
  Options t = o;
  t.tiled = true;  // tile_size 0: auto height
  const Result tiled = clover2d::run(t);
  EXPECT_EQ(eager.checksum, tiled.checksum);
}

TEST(CloverLeaf2D, BoundaryKernelsInProfile) {
  Options o;
  o.n = 32;
  o.iterations = 2;
  const Result r = clover2d::run(o);
  // The SYCL discussion of §5.1 depends on CloverLeaf's many small
  // boundary kernels — they must exist and be classified as such.
  int boundary_loops = 0;
  for (const LoopRecord* rec : r.instr.loops_in_order())
    if (rec->pattern == Pattern::Boundary) ++boundary_loops;
  EXPECT_GE(boundary_loops, 4);
}

// --- CloverLeaf 3D -----------------------------------------------------------

TEST(CloverLeaf3D, MassConservedExactly) {
  Options o;
  o.n = 20;
  o.iterations = 5;
  const Result r = clover3d::run(o);
  const double m0 = 2.5 * 2.5 * 2.5 * 1.0 + (1000.0 - 15.625) * 0.2;
  EXPECT_NEAR(r.metric("mass"), m0, m0 * 1e-12);
}

TEST(CloverLeaf3D, DistributedMatchesSerial) {
  Options o;
  o.n = 16;
  o.iterations = 4;
  const Result ref = clover3d::run(o);
  Options m = o;
  m.ranks = 4;
  const Result r = clover3d::run(m);
  EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-11);
}

TEST(CloverLeaf3D, TiledIsBitwiseIdenticalSerially) {
  // The 3D chain tiles over k, so every tile refreshes the i and j faces
  // on its own k rows and the k faces only near the domain edges.
  Options o;
  o.n = 20;
  o.iterations = 3;
  const Result eager = clover3d::run(o);
  for (const idx_t h : {1, 4, 7, 17})
    for (const int threads : {1, 3}) {
      Options t = o;
      t.tiled = true;
      t.tile_size = h;
      t.threads = threads;
      EXPECT_EQ(clover3d::run(t).checksum, eager.checksum)
          << "tile height " << h << ", " << threads << " threads";
    }
}

TEST(CloverLeaf3D, TiledCountsEqualEagerAndSeed) {
  Options o;
  o.n = 20;  // tiled depth-16 halos need a local extent >= 17
  o.iterations = 2;
  o.tile_size = 5;
  expect_tiled_counts_equal_eager(&clover3d::run, o, 12539696);
}

// --- Acoustic ----------------------------------------------------------------

TEST(Acoustic, PlaneWaveEigenmodePreserved) {
  // The leapfrog update of a discrete plane-wave eigenmode keeps the mode
  // shape: sum of squares stays N^3/2 (average of cos^2).
  Options o;
  o.n = 24;
  o.iterations = 25;
  const Result r = acoustic::run(o);
  const double expect = 24.0 * 24.0 * 24.0 / 2.0;
  EXPECT_NEAR(r.metric("sum_sq"), expect, expect * 1e-3);
  EXPECT_NEAR(r.metric("max_abs"), 1.0, 2e-2);
}

TEST(Acoustic, StableForManySteps) {
  Options o;
  o.n = 16;
  o.iterations = 200;
  const Result r = acoustic::run(o);
  EXPECT_LT(r.metric("max_abs"), 1.01);  // no growth at CFL 0.3
}

TEST(Acoustic, DistributedMatchesSerial) {
  Options o;
  o.n = 24;
  o.iterations = 10;
  const Result ref = acoustic::run(o);
  for (int ranks : {2, 4}) {
    Options m = o;
    m.ranks = ranks;
    const Result r = acoustic::run(m);
    EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-6) << ranks;
  }
}

TEST(Acoustic, WideStencilDominatesProfile) {
  Options o;
  o.n = 24;
  o.iterations = 3;
  const Result r = acoustic::run(o);
  const LoopRecord& wave = [&]() -> const LoopRecord& {
    for (const LoopRecord* rec : r.instr.loops_in_order())
      if (rec->name == "wave_update") return *rec;
    throw std::runtime_error("wave_update not found");
  }();
  EXPECT_EQ(wave.pattern, Pattern::WideStencil);
  EXPECT_EQ(wave.max_radius, 4);
}

// --- OpenSBLI SA / SN ---------------------------------------------------------

TEST(OpenSbli, StoreAllEqualsStoreNone) {
  Options o;
  o.n = 16;
  o.iterations = 3;
  const Result sa = opensbli::run(o, opensbli::Variant::StoreAll);
  const Result sn = opensbli::run(o, opensbli::Variant::StoreNone);
  EXPECT_LT(rel_diff(sa.checksum, sn.checksum), 1e-12);
  EXPECT_LT(rel_diff(sa.metric("kinetic_energy"), sn.metric("kinetic_energy")),
            1e-10);
}

TEST(OpenSbli, MassConservedOnPeriodicDomain) {
  Options o;
  o.n = 16;
  o.iterations = 4;
  const Result r = opensbli::run(o, opensbli::Variant::StoreAll);
  EXPECT_LT(rel_diff(r.metric("mass"), r.metric("mass_initial")), 1e-12);
}

TEST(OpenSbli, TaylorGreenKineticEnergyDecays) {
  Options o;
  o.n = 16;
  o.iterations = 10;
  const Result r = opensbli::run(o, opensbli::Variant::StoreNone);
  EXPECT_LT(r.metric("kinetic_energy"), r.metric("kinetic_energy_initial"));
  EXPECT_GT(r.metric("kinetic_energy"),
            0.5 * r.metric("kinetic_energy_initial"));
}

TEST(OpenSbli, DistributedMatchesSerial) {
  Options o;
  o.n = 16;
  o.iterations = 3;
  const Result ref = opensbli::run(o, opensbli::Variant::StoreAll);
  Options m = o;
  m.ranks = 2;
  const Result r = opensbli::run(m, opensbli::Variant::StoreAll);
  EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-12);
}

TEST(OpenSbli, StoreAllMovesMoreBytesStoreNoneMoreFlops) {
  Options o;
  o.n = 16;
  o.iterations = 2;
  const Result sa = opensbli::run(o, opensbli::Variant::StoreAll);
  const Result sn = opensbli::run(o, opensbli::Variant::StoreNone);
  count_t sa_bytes = 0, sn_bytes = 0;
  double sa_flops = 0, sn_flops = 0;
  for (const LoopRecord* rec : sa.instr.loops_in_order()) {
    sa_bytes += rec->bytes;
    sa_flops += rec->flops;
  }
  for (const LoopRecord* rec : sn.instr.loops_in_order()) {
    sn_bytes += rec->bytes;
    sn_flops += rec->flops;
  }
  EXPECT_GT(sa_bytes, sn_bytes * 3 / 2);  // SA moves >1.5x the data
  EXPECT_GT(sn_flops, sa_flops);          // SN recomputes
}

// --- miniWeather --------------------------------------------------------------

TEST(MiniWeather, MassAndThetaConservedExactly) {
  Options o;
  o.n = 48;
  o.iterations = 10;
  const Result r = miniweather::run(o);
  EXPECT_LT(std::abs(r.metric("mass") - r.metric("mass_initial")), 1e-6);
  EXPECT_LT(rel_diff(r.metric("theta_integral"),
                     r.metric("theta_integral_initial")),
            1e-12);
}

TEST(MiniWeather, WarmBubbleRises) {
  Options o;
  o.n = 48;
  o.iterations = 30;
  const Result r = miniweather::run(o);
  EXPECT_GT(r.metric("w_max"), 0.1);  // buoyant acceleration developed
  EXPECT_LT(r.metric("w_max"), 50.0);  // but bounded (no blow-up)
}

TEST(MiniWeather, DistributedMatchesSerial) {
  Options o;
  o.n = 40;
  o.iterations = 5;
  const Result ref = miniweather::run(o);
  Options m = o;
  m.ranks = 3;
  const Result r = miniweather::run(m);
  EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-11);
}

TEST(MiniWeather, ThreadedMatchesSerial) {
  Options o;
  o.n = 40;
  o.iterations = 5;
  const Result ref = miniweather::run(o);
  Options t = o;
  t.threads = 4;
  const Result r = miniweather::run(t);
  EXPECT_LT(rel_diff(r.checksum, ref.checksum), 1e-12);
}

}  // namespace
}  // namespace bwlab::apps
