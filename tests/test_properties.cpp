// Property-based sweeps across the whole (application x machine x
// configuration) space: invariants that must hold for EVERY combination,
// not just the calibrated points. These are the guard rails that keep
// future tuning changes physically sensible.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/cloverleaf/time_step.hpp"
#include "common/instrument.hpp"
#include "core/app_registry.hpp"
#include "core/memtier.hpp"
#include "core/perf_model.hpp"
#include "ops/par_loop.hpp"
#include "common/units.hpp"
#include "sim/bandwidth.hpp"

namespace bwlab::core {
namespace {

using AppMachine = std::tuple<const AppInfo*, const sim::MachineModel*>;

std::vector<AppMachine> app_machine_grid() {
  std::vector<AppMachine> out;
  for (const AppInfo& a : all_apps())
    for (const sim::MachineModel* m : sim::cpu_machines())
      out.push_back({&a, m});
  return out;
}

std::string app_machine_name(
    const ::testing::TestParamInfo<AppMachine>& info) {
  return std::get<0>(info.param)->id + "_" + std::get<1>(info.param)->id;
}

class EveryAppMachine : public ::testing::TestWithParam<AppMachine> {};

TEST_P(EveryAppMachine, PredictionsFiniteAndDecomposed) {
  const auto [a, m] = GetParam();
  PerfModel pm(*m);
  for (const Config& c : config_space(*m, a->cls)) {
    const Prediction p = pm.predict(a->profile, c);
    ASSERT_TRUE(std::isfinite(p.total())) << c.label();
    EXPECT_GT(p.kernel_s, 0.0) << c.label();
    EXPECT_GE(p.comm_s, 0.0) << c.label();
    EXPECT_GE(p.overhead_s, 0.0) << c.label();
    EXPECT_GE(p.mpi_fraction(), 0.0);
    EXPECT_LT(p.mpi_fraction(), 0.95) << c.label();
    EXPECT_EQ(p.kernels.size(), a->profile.kernels.size());
  }
}

TEST_P(EveryAppMachine, KernelRoofsArePositiveAndBounded) {
  const auto [a, m] = GetParam();
  PerfModel pm(*m);
  const Config c = default_config(*m, a->cls);
  for (const KernelProfile& k : a->profile.kernels) {
    const double bw = pm.kernel_bw(a->profile, k, c);
    const double fr = pm.kernel_flop_rate(a->profile, k, c);
    EXPECT_GT(bw, 1e9) << k.name;  // never below 1 GB/s on these machines
    // Cache-resident working sets (miniBUDE) may exceed STREAM; nothing
    // exceeds the fastest cache level.
    double cache_top = m->stream_triad_node * 1.2;
    sim::BandwidthModel bwm(*m);
    for (const sim::CacheLevel& l : m->caches)
      cache_top = std::max(cache_top, bwm.cache_bw(l, sim::Scope::Node));
    EXPECT_LE(bw, cache_top) << k.name;
    EXPECT_GT(fr, 1e10) << k.name;
    EXPECT_LE(fr, m->fp32_peak(m->allcore_turbo_ghz) * 1.01) << k.name;
  }
}

TEST_P(EveryAppMachine, CommMonotoneInExchangeVolume) {
  const auto [a, m] = GetParam();
  if (!a->profile.structured || a->profile.exchanges.empty())
    GTEST_SKIP() << "structured comm only";
  AppProfile doubled = a->profile;
  for (ExchangeProfile& x : doubled.exchanges) x.exchanges_per_iter *= 2;
  PerfModel pm(*m);
  const Config c{m->has_avx512 ? Compiler::OneAPI : Compiler::Aocc,
                 Zmm::Default, false, ParMode::Mpi};
  EXPECT_GT(pm.comm_per_iter(doubled, c), pm.comm_per_iter(a->profile, c));
}

TEST_P(EveryAppMachine, ScalingProblemScalesKernelTime) {
  const auto [a, m] = GetParam();
  AppProfile big = a->profile;
  for (KernelProfile& k : big.kernels) k.points_per_call *= 8;
  big.working_set_bytes *= 8;
  PerfModel pm(*m);
  const Config c = default_config(*m, a->cls);
  const double t1 = pm.predict(a->profile, c).kernel_s;
  const double t8 = pm.predict(big, c).kernel_s;
  EXPECT_GT(t8, 6.0 * t1);  // near-linear in points (bandwidth regime)
  EXPECT_LT(t8, 10.0 * t1);
}

INSTANTIATE_TEST_SUITE_P(Grid, EveryAppMachine,
                         ::testing::ValuesIn(app_machine_grid()),
                         app_machine_name);

// --- Whole-space dominance properties ----------------------------------------

TEST(Dominance, MaxNeverLosesToDdrCpusInAnyFeasibleConfig) {
  // Strongest form of the Figure 6 headline: even comparing best-of-space
  // per machine, the MAX CPU wins every application.
  for (const AppInfo& a : all_apps()) {
    auto best = [&](const sim::MachineModel& m) {
      double b = 1e300;
      for (const Config& c : config_space(m, a.cls))
        b = std::min(b, PerfModel(m).predict(a.profile, c).total());
      return b;
    };
    const double tmax = best(sim::max9480());
    EXPECT_LT(tmax, best(sim::icx8360y())) << a.id;
    EXPECT_LT(tmax, best(sim::milanx())) << a.id;
  }
}

TEST(Dominance, StreamingKernelNeverBeatsStreamRoof) {
  // Synthetic pure-streaming profile: time can never be below
  // bytes / STREAM on any machine or configuration.
  AppProfile p;
  p.app_id = "synthetic_stream";
  p.structured = true;
  p.ndims = 2;
  p.fp_bytes = 8;
  p.iterations = 10;
  // Large enough that no platform's cache (including the 7V73X's 1.5 GB
  // V-Cache) shelters any of it.
  p.global = {16384, 16384, 1};
  p.working_set_bytes = 3.0 * 16384 * 16384 * 8;
  KernelProfile k;
  k.name = "triad";
  k.points_per_call = 16384.0 * 16384.0;
  k.bytes_per_point = 24;
  k.flops_per_point = 2;
  k.pattern = Pattern::Streaming;
  p.kernels.push_back(k);
  for (const sim::MachineModel* m : sim::cpu_machines()) {
    PerfModel pm(*m);
    for (const Config& c : config_space(*m, AppClass::Structured)) {
      const Prediction pred = pm.predict(p, c);
      const double roof = pred.bytes / m->stream_triad_node;
      EXPECT_GE(pred.kernel_s, roof * 0.999) << m->id << " " << c.label();
    }
  }
}

TEST(Dominance, TilingNeverHurtsBandwidthBoundChains) {
  for (const char* id : {"cloverleaf2d", "cloverleaf3d", "miniweather"}) {
    const AppProfile& p = app_by_id(id).profile;
    for (const sim::MachineModel* m : sim::cpu_machines()) {
      PerfModel pm(*m);
      const Config c = default_config(*m, AppClass::Structured);
      EXPECT_LE(pm.predict_tiled(p, c).total(),
                pm.predict(p, c).total() * 1.02)
          << id << " on " << m->id;
    }
  }
}

// --- Bandwidth-curve sweeps ----------------------------------------------------

using MachineScope = std::tuple<const sim::MachineModel*, sim::Scope>;

class CurveSweep : public ::testing::TestWithParam<MachineScope> {};

TEST_P(CurveSweep, CurveWithinMachineEnvelope) {
  const auto [m, scope] = GetParam();
  sim::BandwidthModel bwm(*m);
  double fastest = 0;
  for (const sim::CacheLevel& l : m->caches)
    fastest = std::max(fastest, bwm.cache_bw(l, scope));
  for (double ws = 8 * kKiB; ws < 32 * kGiB; ws *= 2.7) {
    const double bw = bwm.stream_bw(ws, scope);
    EXPECT_GT(bw, 0.0);
    EXPECT_LE(bw, fastest * 1.001) << "ws=" << ws;
    EXPECT_GE(bw, bwm.mem_bw(scope) * 0.999) << "ws=" << ws;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, CurveSweep,
    ::testing::Combine(::testing::ValuesIn(sim::cpu_machines()),
                       ::testing::Values(sim::Scope::OneNuma,
                                         sim::Scope::OneSocket,
                                         sim::Scope::Node)),
    [](const auto& inf) {
      // NB: no structured bindings here — the comma inside [m, s] would
      // split the INSTANTIATE macro's arguments.
      const sim::MachineModel* m = std::get<0>(inf.param);
      const sim::Scope s = std::get<1>(inf.param);
      return m->id + (s == sim::Scope::OneNuma     ? "_numa"
                      : s == sim::Scope::OneSocket ? "_socket"
                                                   : "_node");
    });

}  // namespace
}  // namespace bwlab::core

// --- Structured DSL property sweeps -------------------------------------------

namespace bwlab::ops {
namespace {

struct BcCase {
  Bc bc;
  const char* name;
};

class BcRankSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BcRankSweep, DistributedFieldsMatchSerialForEveryBcAndRankCount) {
  const auto [bc_idx, ranks] = GetParam();
  const BcCase cases[] = {{Bc::Periodic, "periodic"},
                          {Bc::CopyNearest, "copy"},
                          {Bc::Reflect, "reflect"},
                          {Bc::ReflectNeg, "reflectneg"}};
  const Bc bc = cases[static_cast<std::size_t>(bc_idx)].bc;
  const idx_t n = 24;

  // Serial reference: one smoothing step including halo reads.
  auto run_one = [&](par::Comm* comm, std::vector<double>& out) {
    std::unique_ptr<Context> ctx = comm ? std::make_unique<Context>(*comm, 1)
                                        : std::make_unique<Context>(1);
    Block b(*ctx, "g", 2, {n, n, 1});
    Dat<double> u(b, "u", 2), v(b, "v", 2);
    u.set_bc_all(bc);
    v.set_bc_all(bc);
    u.fill_indexed([](idx_t i, idx_t j, idx_t) {
      return std::cos(0.4 * double(i)) + 0.1 * double(j);
    });
    par_loop({"sm", 4.0}, b, Range::make2d(0, n, 0, n),
             [](Acc<const double> a, Acc<double> o) {
               o(0, 0) = a(-2, 0) + a(2, 0) + a(0, -2) + a(0, 2) -
                         3.9 * a(0, 0);
             },
             read(u, Stencil::star(2, 2)), write(v));
    // Gather owned values to global layout.
    for (idx_t j = v.exec_lo(1); j < v.exec_hi(1); ++j)
      for (idx_t i = v.exec_lo(0); i < v.exec_hi(0); ++i)
        out[static_cast<std::size_t>(j * n + i)] = v.at(i, j);
  };

  std::vector<double> ref(static_cast<std::size_t>(n * n), 0.0);
  run_one(nullptr, ref);
  std::vector<double> dist(static_cast<std::size_t>(n * n), 0.0);
  par::run_ranks(ranks, [&](par::Comm& c) { run_one(&c, dist); });
  for (std::size_t i = 0; i < ref.size(); ++i)
    ASSERT_DOUBLE_EQ(dist[i], ref[i]) << "index " << i;
}

std::string bc_rank_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& inf) {
  static const char* bc_names[] = {"periodic", "copy", "reflect",
                                   "reflectneg"};
  return std::string(
             bc_names[static_cast<std::size_t>(std::get<0>(inf.param))]) +
         "_r" + std::to_string(std::get<1>(inf.param));
}

INSTANTIATE_TEST_SUITE_P(
    BcsByRanks, BcRankSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(2, 3, 4, 6)),
    bc_rank_name);

// --- Randomized loop-chain fuzzing --------------------------------------------
//
// Property: for ANY loop chain — random dat count, random stencil taps and
// radii, random per-dimension periodicity — tiled-parallel execution is
// bitwise identical to the eager serial reference for every (tile height,
// pool size) pair, including degenerate tiles taller than the domain.

constexpr idx_t kFuzzN = 24;
constexpr int kFuzzDepth = 8;  // covers any chain of <= 4 radius-2 loops

struct FuzzLoop {
  int src = 0, dst = 0, radius = 0;
  std::array<int, 6> off{};     // 3 taps x (di, dj), within the box radius
  std::array<double, 3> coef{};
};

struct FuzzSpec {
  int ndats = 2;
  bool periodic_x = false, periodic_y = false;
  /// Non-periodic face BCs: x-low, x-high, y-low, y-high.
  std::array<Bc, 4> walls{Bc::CopyNearest, Bc::CopyNearest, Bc::CopyNearest,
                          Bc::CopyNearest};
  std::vector<FuzzLoop> loops;
};

FuzzSpec random_spec(std::mt19937& rng) {
  auto ri = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  FuzzSpec s;
  s.ndats = ri(2, 4);
  s.periodic_x = ri(0, 1) == 1;
  s.periodic_y = ri(0, 1) == 1;
  const int nloops = ri(2, 4);
  for (int l = 0; l < nloops; ++l) {
    FuzzLoop fl;
    fl.src = ri(0, s.ndats - 1);
    do {
      fl.dst = ri(0, s.ndats - 1);
    } while (fl.dst == fl.src);
    fl.radius = ri(0, 2);
    for (int t = 0; t < 3; ++t) {
      fl.off[static_cast<std::size_t>(2 * t)] = ri(-fl.radius, fl.radius);
      fl.off[static_cast<std::size_t>(2 * t + 1)] = ri(-fl.radius, fl.radius);
      fl.coef[static_cast<std::size_t>(t)] =
          0.1 + 0.3 * static_cast<double>(ri(0, 100)) / 100.0;
    }
    s.loops.push_back(fl);
  }
  return s;
}

using DatPtrs = std::vector<std::unique_ptr<Dat<double>>>;

DatPtrs make_fuzz_dats(Block& b, const FuzzSpec& spec) {
  DatPtrs dats;
  for (int d = 0; d < spec.ndats; ++d) {
    std::string name = "f";
    name += std::to_string(d);
    auto dat = std::make_unique<Dat<double>>(b, name, kFuzzDepth);
    // Periodicity is per dimension and uniform across dats (tiled chains
    // require that); the non-periodic alternative still has halo reads.
    for (int side = 0; side < 2; ++side) {
      const auto s = static_cast<std::size_t>(side);
      dat->set_bc(0, side, spec.periodic_x ? Bc::Periodic : spec.walls[s]);
      dat->set_bc(1, side,
                  spec.periodic_y ? Bc::Periodic : spec.walls[2 + s]);
    }
    const double phase = 0.1 * static_cast<double>(d + 1);
    dat->fill_indexed([phase](idx_t i, idx_t j, idx_t) {
      return std::sin(phase * double(i)) + std::cos(0.3 * phase * double(j));
    });
    dats.push_back(std::move(dat));
  }
  return dats;
}

void run_fuzz_loops(Block& b, DatPtrs& dats, const FuzzSpec& spec) {
  for (std::size_t li = 0; li < spec.loops.size(); ++li) {
    const FuzzLoop fl = spec.loops[li];
    const auto src = static_cast<std::size_t>(fl.src);
    const auto dst = static_cast<std::size_t>(fl.dst);
    const auto off = fl.off;
    const auto coef = fl.coef;
    auto kernel = [off, coef](Acc<const double> a, Acc<double> o) {
      o(0, 0) = coef[0] * a(off[0], off[1]) + coef[1] * a(off[2], off[3]) +
                coef[2] * a(off[4], off[5]);
    };
    const Range r = Range::make2d(0, kFuzzN, 0, kFuzzN);
    if (fl.radius == 0)
      par_loop({"fz" + std::to_string(li), 2.0}, b, r, kernel,
               read(*dats[src]), write(*dats[dst]));
    else
      par_loop({"fz" + std::to_string(li), 2.0}, b, r, kernel,
               read(*dats[src], Stencil::box(2, fl.radius)),
               write(*dats[dst]));
  }
}

/// Runs `spec` eagerly on one thread as the reference, then tiled at every
/// (tile height, pool size) pair, and asserts every dat bitwise equal.
void expect_tiled_matches_eager(const FuzzSpec& spec,
                                std::initializer_list<idx_t> heights,
                                std::initializer_list<int> pools, int trial) {
  Context ref_ctx;
  Block ref_b(ref_ctx, "g", 2, {kFuzzN, kFuzzN, 1});
  DatPtrs ref = make_fuzz_dats(ref_b, spec);
  run_fuzz_loops(ref_b, ref, spec);
  for (const idx_t h : heights)
    for (const int p : pools) {
      Context ctx(p);
      Block b(ctx, "g", 2, {kFuzzN, kFuzzN, 1});
      DatPtrs dats = make_fuzz_dats(b, spec);
      ctx.set_lazy(true);
      run_fuzz_loops(b, dats, spec);
      ctx.set_lazy(false);
      ctx.chain().execute_tiled(h);
      for (int d = 0; d < spec.ndats; ++d)
        for (idx_t j = 0; j < kFuzzN; ++j)
          for (idx_t i = 0; i < kFuzzN; ++i)
            ASSERT_EQ(dats[static_cast<std::size_t>(d)]->at(i, j),
                      ref[static_cast<std::size_t>(d)]->at(i, j))
                << "trial " << trial << " tile " << h << " pool " << p
                << " dat " << d << " at " << i << "," << j;
    }
}

TEST(FuzzChains, TiledParallelBitwiseEqualsEagerForRandomChains) {
  std::mt19937 rng(20260805u);
  // Tile height 1000 is far taller than the 24-row domain.
  for (int trial = 0; trial < 6; ++trial)
    ASSERT_NO_FATAL_FAILURE(expect_tiled_matches_eager(
        random_spec(rng), {2, 5, 9, 64, 1000}, {1, 2, 4}, trial));
}

// Reflecting walls: the tiled executor refreshes wall ghosts per tile on
// the rows it wrote, and a mirrored ghost reads a different row than a
// copied one. Outer-dim (y) walls, side walls with a periodic y, and
// both, each with Reflect/ReflectNeg/CopyNearest drawn per face.
TEST(FuzzChains, ReflectingWallsTiledBitwiseEqualsEager) {
  std::mt19937 rng(20261017u);
  for (int trial = 0; trial < 12; ++trial) {
    FuzzSpec spec = random_spec(rng);
    spec.periodic_x = trial % 3 == 1;
    spec.periodic_y = trial % 3 == 2;
    for (Bc& w : spec.walls)
      w = std::array<Bc, 3>{Bc::Reflect, Bc::ReflectNeg,
                            Bc::CopyNearest}[rng() % 3];
    ASSERT_NO_FATAL_FAILURE(expect_tiled_matches_eager(
        spec, {1, 2, 5, 9, 64, 1000}, {1, 3}, trial));
  }
}

TEST(FuzzChains, AutoTunedRandomChainsAlsoMatch) {
  std::mt19937 rng(4242u);
  for (int trial = 0; trial < 3; ++trial) {
    const FuzzSpec spec = random_spec(rng);
    Context ref_ctx;
    Block ref_b(ref_ctx, "g", 2, {kFuzzN, kFuzzN, 1});
    DatPtrs ref = make_fuzz_dats(ref_b, spec);
    run_fuzz_loops(ref_b, ref, spec);

    Context ctx(4);
    ctx.set_tile_cache_bytes(16.0 * 1024.0);  // force several short tiles
    Block b(ctx, "g", 2, {kFuzzN, kFuzzN, 1});
    DatPtrs dats = make_fuzz_dats(b, spec);
    ctx.set_lazy(true);
    run_fuzz_loops(b, dats, spec);
    ctx.set_lazy(false);
    ctx.chain().execute_tiled(0);  // auto-tuned
    EXPECT_TRUE(ctx.instr().tiling().auto_tuned);
    for (int d = 0; d < spec.ndats; ++d)
      for (idx_t j = 0; j < kFuzzN; ++j)
        for (idx_t i = 0; i < kFuzzN; ++i)
          ASSERT_EQ(dats[static_cast<std::size_t>(d)]->at(i, j),
                    ref[static_cast<std::size_t>(d)]->at(i, j))
              << "trial " << trial << " dat " << d << " at " << i << ","
              << j;
  }
}

// --- bwmem: counted bytes are an execution-schedule invariant -----------------
//
// Property: the exact bytes bwmem counts for a chain depend only on the
// loops and their access descriptors — NEVER on how the executor
// scheduled them. Any (pool size, tile height) pair must produce the
// identical per-(loop, dat) byte map.

/// Process-global datmove switch, scoped per test.
struct DatMoveGuard {
  DatMoveGuard() { datmove::enable(); }
  ~DatMoveGuard() { datmove::disable(); }
};

using DatMoveMap =
    std::map<std::pair<std::string, std::string>, std::array<count_t, 3>>;

DatMoveMap datmove_map(const Instrumentation& instr) {
  DatMoveMap out;
  for (const DatMoveRecord* r : instr.datmoves())
    out[{r->loop, r->dat}] = {r->executions, r->bytes_read,
                              r->bytes_written};
  return out;
}

TEST(FuzzChains, CountedBytesIdenticalAcrossPoolsAndTileHeights) {
  const DatMoveGuard guard;
  const idx_t heights[] = {2, 5, 9, 64, 1000};
  const int pools[] = {1, 2, 4};
  std::mt19937 rng(31337u);
  for (int trial = 0; trial < 3; ++trial) {
    const FuzzSpec spec = random_spec(rng);
    DatMoveMap base;
    count_t base_chain_bytes = 0;
    bool first = true;
    for (const idx_t h : heights)
      for (const int p : pools) {
        Context ctx(p);
        Block b(ctx, "g", 2, {kFuzzN, kFuzzN, 1});
        DatPtrs dats = make_fuzz_dats(b, spec);
        ctx.set_lazy(true);
        run_fuzz_loops(b, dats, spec);
        ctx.set_lazy(false);
        ctx.chain().execute_tiled(h);
        const DatMoveMap m = datmove_map(ctx.instr());
        ASSERT_FALSE(m.empty());
        ASSERT_EQ(ctx.instr().chain_moves().size(), 1u);
        const count_t cb = ctx.instr().chain_moves()[0].counted_bytes;
        if (first) {
          base = m;
          base_chain_bytes = cb;
          first = false;
          continue;
        }
        EXPECT_EQ(cb, base_chain_bytes)
            << "trial " << trial << " tile " << h << " pool " << p;
        ASSERT_EQ(m.size(), base.size())
            << "trial " << trial << " tile " << h << " pool " << p;
        for (const auto& [k, v] : base) {
          const auto it = m.find(k);
          ASSERT_NE(it, m.end()) << k.first << "/" << k.second;
          EXPECT_EQ(it->second[0], v[0]) << k.first << "/" << k.second;
          EXPECT_EQ(it->second[1], v[1])
              << k.first << "/" << k.second << " read bytes, trial "
              << trial << " tile " << h << " pool " << p;
          EXPECT_EQ(it->second[2], v[2])
              << k.first << "/" << k.second << " written bytes, trial "
              << trial << " tile " << h << " pool " << p;
        }
      }
  }
}

// Property: for a reuse-heavy chain (a dat read by non-adjacent loops),
// tiled execution keeps the re-touch within the tile's small slices, so
// at a cache-sized capacity its estimated spill traffic is strictly
// below the eager schedule's, whose re-touches are full-array distances.
TEST(FuzzChains, TiledSpillsFewerBytesThanEagerForReuseHeavyChains) {
  const DatMoveGuard guard;
  constexpr double kCapacity = 8192.0;  // between slice and array scale

  const auto run_loops = [](Block& b, Dat<double>& a, Dat<double>& bb,
                            Dat<double>& c, Dat<double>& d,
                            Dat<double>& e) {
    const Range r = Range::make2d(0, kFuzzN, 0, kFuzzN);
    par_loop({"l0", 2.0}, b, r,
             [](Acc<const double> x, Acc<double> o) {
               o(0, 0) = 0.25 * (x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1));
             },
             read(a, Stencil::star(2, 1)), write(bb));
    par_loop({"l1", 1.0}, b, r,
             [](Acc<const double> x, Acc<double> o) {
               o(0, 0) = 2.0 * x(0, 0);
             },
             read(c), write(d));
    // Re-reads `a` after two unrelated streams flushed it.
    par_loop({"l2", 1.0}, b, r,
             [](Acc<const double> x, Acc<double> o) {
               o(0, 0) = x(0, 0) + 1.0;
             },
             read(a), write(e));
  };
  const auto make = [](Block& b, const char* n) {
    auto d = std::make_unique<Dat<double>>(b, n, 4);
    d->set_bc_all(Bc::CopyNearest);
    d->fill_indexed([](idx_t i, idx_t j, idx_t) {
      return 0.01 * double(i) + 0.02 * double(j);
    });
    return d;
  };

  Context ectx;
  Block eb(ectx, "g", 2, {kFuzzN, kFuzzN, 1});
  auto ea = make(eb, "a"), eb2 = make(eb, "b"), ec = make(eb, "c"),
       ed = make(eb, "d"), ee = make(eb, "e");
  run_loops(eb, *ea, *eb2, *ec, *ed, *ee);
  const count_t eager_spill = ectx.instr().reuse().est_spill_bytes(kCapacity);
  EXPECT_GT(eager_spill, 0u);

  Context tctx;
  Block tb(tctx, "g", 2, {kFuzzN, kFuzzN, 1});
  auto ta = make(tb, "a"), tb2 = make(tb, "b"), tc = make(tb, "c"),
       td = make(tb, "d"), te = make(tb, "e");
  tctx.set_lazy(true);
  run_loops(tb, *ta, *tb2, *tc, *td, *te);
  tctx.set_lazy(false);
  tctx.chain().execute_tiled(4);
  const count_t tiled_spill = tctx.instr().reuse().est_spill_bytes(kCapacity);
  EXPECT_LT(tiled_spill, eager_spill);

  // Both schedules still computed the same values.
  for (idx_t j = 0; j < kFuzzN; ++j)
    for (idx_t i = 0; i < kFuzzN; ++i)
      ASSERT_EQ(te->at(i, j), ee->at(i, j)) << i << "," << j;
}

// Property (memory-mode tie-in): the SAME random chains, priced by a
// Cache-mode MAX part whose HBM tier is shrunk to the fuzz domain's
// scale. The memtier section's est_spill_bytes is the traffic the
// transparent HBM cache would send on to DDR; tiling must strictly
// reduce it, because the tiled schedule re-touches within tile-sized
// slices while the eager schedule re-touches at full-array distances.
TEST(FuzzChains, TiledChainsSpillLessUnderCacheModeWithShrunkenHbm) {
  const DatMoveGuard guard;
  // 4 KiB/socket -> 8 KiB node HBM: between the tile-slice scale and the
  // full-array scale of the kFuzzN x kFuzzN double dats.
  sim::MachineModel shrunk = sim::machine_by_id("max9480-cache");
  shrunk.id = "max9480-cache-shrunk";
  shrunk.hbm_capacity_per_socket = 4096;

  std::mt19937 rng(20260808u);
  for (int trial = 0; trial < 3; ++trial) {
    const FuzzSpec spec = random_spec(rng);
    // Extra dats for a reuse-heavy coda, with the spec's periodicity
    // (tiled chains require uniform bcs per dimension).
    const auto make_extra = [&spec](Block& b, const char* n) {
      auto d = std::make_unique<Dat<double>>(b, n, kFuzzDepth);
      for (int side = 0; side < 2; ++side) {
        d->set_bc(0, side,
                  spec.periodic_x ? Bc::Periodic : Bc::CopyNearest);
        d->set_bc(1, side,
                  spec.periodic_y ? Bc::Periodic : Bc::CopyNearest);
      }
      d->fill_indexed([](idx_t i, idx_t j, idx_t) {
        return 0.05 * double(i) - 0.01 * double(j);
      });
      return d;
    };
    // Random chain, then: one full stream over two fresh dats (flushes
    // the 8 KiB cache by construction), then a re-read of loop 0's
    // source — an eager re-touch at > capacity reuse distance.
    const auto run_chain = [&spec](Block& b, DatPtrs& dats, Dat<double>& p,
                                   Dat<double>& q, Dat<double>& z) {
      run_fuzz_loops(b, dats, spec);
      const Range r = Range::make2d(0, kFuzzN, 0, kFuzzN);
      par_loop({"flush", 1.0}, b, r,
               [](Acc<const double> x, Acc<double> o) {
                 o(0, 0) = 0.5 * x(0, 0);
               },
               read(p), write(q));
      par_loop({"reread", 1.0}, b, r,
               [](Acc<const double> x, Acc<double> o) {
                 o(0, 0) = x(0, 0) + 1.0;
               },
               read(*dats[static_cast<std::size_t>(spec.loops[0].src)]),
               write(z));
    };

    Context ectx;
    Block eb(ectx, "g", 2, {kFuzzN, kFuzzN, 1});
    DatPtrs edats = make_fuzz_dats(eb, spec);
    auto ep = make_extra(eb, "p"), eq = make_extra(eb, "q"),
         ez = make_extra(eb, "z");
    run_chain(eb, edats, *ep, *eq, *ez);
    const core::MemTierSection es =
        core::build_memtier_section(ectx.instr(), shrunk, "auto");
    EXPECT_EQ(es.mode, "cache") << "trial " << trial;
    EXPECT_GT(es.working_set_bytes,
              static_cast<count_t>(es.hbm_capacity_bytes));
    EXPECT_LT(es.hbm_hit_fraction, 1.0) << "trial " << trial;
    ASSERT_GT(es.est_spill_bytes, 0u) << "trial " << trial;

    Context tctx;
    Block tb(tctx, "g", 2, {kFuzzN, kFuzzN, 1});
    DatPtrs tdats = make_fuzz_dats(tb, spec);
    auto tp = make_extra(tb, "p"), tq = make_extra(tb, "q"),
         tz = make_extra(tb, "z");
    tctx.set_lazy(true);
    run_chain(tb, tdats, *tp, *tq, *tz);
    tctx.set_lazy(false);
    tctx.chain().execute_tiled(4);
    const core::MemTierSection ts =
        core::build_memtier_section(tctx.instr(), shrunk, "auto");

    // Tiling strictly reduces the modeled spill traffic... (counted
    // bytes may differ slightly — skewed tiles re-read slice-boundary
    // halos — but the working set and the computed values may not.)
    EXPECT_LT(ts.est_spill_bytes, es.est_spill_bytes) << "trial " << trial;
    EXPECT_EQ(ts.working_set_bytes, es.working_set_bytes);
    for (idx_t j = 0; j < kFuzzN; ++j)
      for (idx_t i = 0; i < kFuzzN; ++i)
        ASSERT_EQ(tz->at(i, j), ez->at(i, j))
            << "trial " << trial << " at " << i << "," << j;
  }
}

/// Random chains with a reduction after the first loop (later loops may
/// rewrite the dat it reads: the WAR skew) and one after the last: the
/// reduced values are bitwise equal to eager for every tile height and
/// pool size.
TEST(FuzzChains, RandomChainsReduceBitwiseLikeEager) {
  using Reduced = std::array<double, 4>;  // sum, min, max, tail sum
  // `out` must outlive a lazy capture: the chain writes it when it runs.
  const auto run = [](Block& b, DatPtrs& dats, const FuzzSpec& spec,
                      Reduced& out) {
    out = {0.0, 1e300, -1e300, 0.0};
    FuzzSpec first = spec, rest = spec;
    first.loops.resize(1);
    rest.loops.erase(rest.loops.begin());
    const Range all = Range::make2d(0, kFuzzN, 0, kFuzzN);
    run_fuzz_loops(b, dats, first);
    par_loop({"fzred", 3.0}, b, all,
             [](Acc<const double> a, double& s, double& mn, double& mx) {
               const double v = a(1, 0) - 0.5 * a(0, -1);
               s += v;
               mn = std::min(mn, v);
               mx = std::max(mx, v);
             },
             read(*dats[0], Stencil::box(2, 1)), reduce_sum(out[0]),
             reduce_min(out[1]), reduce_max(out[2]));
    run_fuzz_loops(b, dats, rest);
    par_loop({"fztail", 1.0}, b, all,
             [](Acc<const double> a, double& s) { s += a(0, 0); },
             read(*dats[1]), reduce_sum(out[3]));
  };
  std::mt19937 rng(777u);
  for (int trial = 0; trial < 4; ++trial) {
    const FuzzSpec spec = random_spec(rng);
    Context ref_ctx;
    Block ref_b(ref_ctx, "g", 2, {kFuzzN, kFuzzN, 1});
    DatPtrs ref_dats = make_fuzz_dats(ref_b, spec);
    Reduced ref{};
    run(ref_b, ref_dats, spec, ref);
    for (const idx_t h : {2, 5, 64})
      for (const int p : {1, 3}) {
        Context ctx(p);
        Block b(ctx, "g", 2, {kFuzzN, kFuzzN, 1});
        DatPtrs dats = make_fuzz_dats(b, spec);
        Reduced got{};
        ctx.set_lazy(true);
        run(b, dats, spec, got);
        ctx.set_lazy(false);
        ctx.chain().execute_tiled(h);
        EXPECT_EQ(std::memcmp(got.data(), ref.data(), sizeof(Reduced)), 0)
            << "trial " << trial << " tile " << h << " pool " << p;
      }
  }
}

}  // namespace
}  // namespace bwlab::ops

// --- CloverLeaf's hoisted time-step division ---------------------------------
//
// Property: for any cells' signal speeds, one division by the largest speed
// (cloverleaf::dt_bound) equals the per-cell minimum of dx / max(speed,
// 1e-30) from 1e30, bit for bit — zeros, subnormals, Inf and NaN included.

namespace bwlab::apps::cloverleaf {
namespace {

TEST(FuzzTimeStep, HoistedDivisionEqualsPerCellMinimum) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double special[] = {0.0,  -0.0,   tiny,  3 * tiny, 1e-310, 1e-300,
                            1e-31, 1e-30, 2e-30, 0.5,     1.0,    1e30,
                            1e300, std::numeric_limits<double>::max(),
                            inf,  nan};
  const double spacings[] = {tiny, 1e-300, 1e-3, 10.0 / 2048, 0.25, 1.0,
                             3.7,  1e10,   1e300};
  std::mt19937_64 rng(20261018u);
  auto speed = [&] {
    const auto pick = rng() % 4;
    if (pick == 0) return special[rng() % std::size(special)];
    // A random non-negative double: any exponent, any mantissa.
    const std::uint64_t bits = rng() >> 1;
    double s;
    std::memcpy(&s, &bits, sizeof s);
    return s;
  };
  for (int trial = 0; trial < 20000; ++trial) {
    const double dx = spacings[rng() % std::size(spacings)];
    const int cells = static_cast<int>(rng() % 9);  // 0: a rank with none
    double per_cell = 1e30, speed_max = kNoSpeed;
    for (int c = 0; c < cells; ++c) {
      const double s = speed();
      per_cell = std::min(per_cell, dx / std::max(s, 1e-30));
      speed_max = std::max(speed_max, s);
    }
    const double hoisted = dt_bound(dx, speed_max);
    ASSERT_EQ(std::memcmp(&hoisted, &per_cell, sizeof(double)), 0)
        << "trial " << trial << " dx " << dx << ": " << hoisted << " vs "
        << per_cell;
  }
}

// --- CloverLeaf's stored squared sound speed --------------------------------
//
// Property: the signal speed calc_dt roots from the c² that ideal_gas
// stores equals sqrt(γp/ρ) + |u| + |v| [+ |w|] bit for bit wherever that
// is not NaN, and is NaN wherever it is; and the stored c² is non-finite
// exactly when sqrt(γp/ρ) is, so the NaN guard flags the same ideal_gas
// cells a stored root would.

TEST(FuzzSoundSpeed, RootedSquareEqualsStoredRoot) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  const double special[] = {0.0,   -0.0,  tiny, -tiny, 3 * tiny, 1e-310,
                            -1e-310, 1e-300, -1e-300, 0.2, -0.2, 1.0, 2.5,
                            -1.0,  1e300, -1e300, big, -big, inf, -inf, nan,
                            -nan};
  std::mt19937_64 rng(20261020u);
  auto value = [&] {
    if (rng() % 2 == 0) return special[rng() % std::size(special)];
    // Any bit pattern: either sign, any exponent, NaNs and Infs included.
    const std::uint64_t bits = rng();
    double x;
    std::memcpy(&x, &bits, sizeof x);
    return x;
  };
  const double gamma = 1.4;
  auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (int trial = 0; trial < 100000; ++trial) {
    const double d = value(), e = value();
    const double u = value(), v = value(), w = value();
    const double p = (gamma - 1.0) * d * e;
    const double root = std::sqrt(gamma * p / d);
    const double c2 = sound_speed_sq(gamma, p, d);
    ASSERT_EQ(std::isfinite(c2), std::isfinite(root))
        << "trial " << trial << " d " << d << " e " << e << ": c2 " << c2;
    const double old2 = root + std::abs(u) + std::abs(v);
    const double old3 = old2 + std::abs(w);
    const double new2 = signal_speed(c2, u, v);
    const double new3 = signal_speed(c2, u, v, w);
    if (std::isnan(old2))
      ASSERT_TRUE(std::isnan(new2)) << "trial " << trial << ": " << new2;
    else
      ASSERT_TRUE(same(new2, old2))
          << "trial " << trial << ": " << new2 << " vs " << old2;
    if (std::isnan(old3))
      ASSERT_TRUE(std::isnan(new3)) << "trial " << trial << ": " << new3;
    else
      ASSERT_TRUE(same(new3, old3))
          << "trial " << trial << ": " << new3 << " vs " << old3;
  }
}

}  // namespace
}  // namespace bwlab::apps::cloverleaf
