// Property/fuzz layer for the memory-tier model (21st suite): randomized
// (dat sizes x memory modes x SNC on/off x placement policies) trials
// asserting the invariants the mode model must never lose —
//   * mode invariance: counted datmove bytes are bitwise identical across
//     all modes, SNC settings and placement policies (placement decides
//     where bytes live, never how many move);
//   * monotone spill: est_spill_bytes is non-decreasing as the HBM
//     capacity shrinks;
//   * mode ordering: Cache-mode predicted time >= Flat >= HbmOnly at
//     equal working set, with all three equal while the set fits;
//   * placement determinism: the same seed + config produces the same
//     tier map, and pin policies land every dat on the pinned tier.
// Plus the "memtier" report-section JSON round-trip and the live
// allocator's decisions driving that section's tier table and roofs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/error.hpp"
#include "common/instrument.hpp"
#include "common/memtier.hpp"
#include "common/units.hpp"
#include "core/app_registry.hpp"
#include "core/config.hpp"
#include "core/datmove.hpp"
#include "core/memtier.hpp"
#include "core/perf_model.hpp"
#include "core/report.hpp"
#include "ops/par_loop.hpp"
#include "sim/bandwidth.hpp"
#include "sim/machine.hpp"

namespace bwlab::ops {
namespace {

/// Builds "d<n>" without the operator+(const char*, string&&) overload
/// (GCC 12's -Wrestrict misfires on it at -O2 and warnings are errors).
std::string dname(int d) {
  std::string s("d");
  s += std::to_string(d);
  return s;
}

/// datmove and the memtier allocator are process-global; scope both to
/// each test.
struct LayerGuard {
  LayerGuard() { datmove::enable(); }
  ~LayerGuard() {
    datmove::disable();
    memtier::uninstall();
  }
};

// --- Random loop chains ------------------------------------------------------

struct TrialSpec {
  idx_t n = 24;          ///< grid extent (randomized: dat sizes vary)
  int ndats = 3;
  std::vector<std::array<int, 2>> loops;  ///< (src, dst) per loop
};

TrialSpec random_trial(std::mt19937& rng) {
  auto ri = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  TrialSpec s;
  s.n = ri(12, 40);
  s.ndats = ri(2, 5);
  const int nloops = ri(2, 5);
  for (int l = 0; l < nloops; ++l) {
    const int src = ri(0, s.ndats - 1);
    int dst = src;
    while (dst == src) dst = ri(0, s.ndats - 1);
    s.loops.push_back({src, dst});
  }
  return s;
}

using DatMoveMap =
    std::map<std::pair<std::string, std::string>, std::array<count_t, 3>>;

/// Runs the trial's loops in a fresh Context and returns (counted-byte
/// map, per-dat tier map from the live allocator).
std::pair<DatMoveMap, std::vector<memtier::Placement>> run_trial(
    const TrialSpec& spec) {
  Context ctx;
  Block b(ctx, "g", 2, {spec.n, spec.n, 1});
  std::vector<std::unique_ptr<Dat<double>>> dats;
  for (int d = 0; d < spec.ndats; ++d) {
    auto dat = std::make_unique<Dat<double>>(b, dname(d), 2);
    dat->set_bc_all(Bc::CopyNearest);
    dat->fill_indexed([d](idx_t i, idx_t j, idx_t) {
      return 0.01 * double(i + d) + 0.02 * double(j);
    });
    dats.push_back(std::move(dat));
  }
  const Range r = Range::make2d(0, spec.n, 0, spec.n);
  for (std::size_t li = 0; li < spec.loops.size(); ++li) {
    auto& src = *dats[static_cast<std::size_t>(spec.loops[li][0])];
    auto& dst = *dats[static_cast<std::size_t>(spec.loops[li][1])];
    par_loop({"t" + std::to_string(li), 2.0}, b, r,
             [](Acc<const double> a, Acc<double> o) {
               o(0, 0) = 0.25 * (a(-1, 0) + a(1, 0) + a(0, -1) + a(0, 1));
             },
             read(src, Stencil::star(2, 1)), write(dst));
  }
  DatMoveMap m;
  for (const DatMoveRecord* rec : ctx.instr().datmoves())
    m[{rec->loop, rec->dat}] = {rec->executions, rec->bytes_read,
                                rec->bytes_written};
  return {m, memtier::placements()};
}

/// Machine variants x placement policies valid for each variant: the
/// fuzz axes (mode x SNC x place).
std::vector<std::pair<std::string, std::string>> mode_place_axes() {
  std::vector<std::pair<std::string, std::string>> axes;
  for (const char* id :
       {"max9480", "max9480-flat", "max9480-cache", "max9480-quad",
        "max9480-flat-quad", "max9480-cache-quad"}) {
    axes.emplace_back(id, "auto");
    axes.emplace_back(id, "firsttouch");
    for (const sim::MemoryTier& t : sim::machine_by_id(id).tiers)
      axes.emplace_back(id, t.name);  // pin policies
  }
  return axes;
}

// --- Mode invariance of counted bytes ---------------------------------------

TEST(FuzzMemTier, CountedBytesBitwiseIdenticalAcrossModesSncAndPlacement) {
  std::mt19937 rng(20260808u);
  for (int trial = 0; trial < 4; ++trial) {
    const TrialSpec spec = random_trial(rng);
    DatMoveMap base;
    bool first = true;
    for (const auto& [id, place] : mode_place_axes()) {
      const LayerGuard guard;
      core::install_memtier_allocator(sim::machine_by_id(id), place);
      const auto [m, placements] = run_trial(spec);
      ASSERT_FALSE(m.empty());
      // Every dat got a placement decision, on a tier the machine has.
      ASSERT_EQ(placements.size(), static_cast<std::size_t>(spec.ndats))
          << id << " place " << place;
      for (const memtier::Placement& p : placements) {
        bool known = false;
        for (const sim::MemoryTier& t : sim::machine_by_id(id).tiers)
          known = known || t.name == p.tier;
        EXPECT_TRUE(known) << p.dat << " -> '" << p.tier << "' on " << id;
      }
      if (first) {
        base = m;
        first = false;
        continue;
      }
      // The invariance: counted bytes never depend on mode/SNC/placement.
      ASSERT_EQ(m.size(), base.size()) << id << " place " << place;
      for (const auto& [k, v] : base) {
        const auto it = m.find(k);
        ASSERT_NE(it, m.end())
            << k.first << "/" << k.second << " on " << id;
        EXPECT_EQ(it->second, v) << k.first << "/" << k.second << " on "
                                 << id << " place " << place;
      }
    }
  }
}

// --- Monotone spill ----------------------------------------------------------

TEST(FuzzMemTier, SpillEstimateNonDecreasingAsHbmShrinks) {
  const LayerGuard guard;
  std::mt19937 rng(424242u);
  const TrialSpec spec = random_trial(rng);
  Context ctx;
  Block b(ctx, "g", 2, {32, 32, 1});
  std::vector<std::unique_ptr<Dat<double>>> dats;
  for (int d = 0; d < 4; ++d) {
    auto dat = std::make_unique<Dat<double>>(b, "s" + std::to_string(d), 2);
    dat->set_bc_all(Bc::CopyNearest);
    dat->fill(1.0);
    dats.push_back(std::move(dat));
  }
  const Range r = Range::make2d(0, 32, 0, 32);
  // Re-read d0 after unrelated streams so there IS reuse distance.
  for (int rep = 0; rep < 3; ++rep)
    for (int d = 1; d < 4; ++d)
      par_loop({"sp" + std::to_string(rep * 4 + d), 1.0}, b, r,
               [](Acc<const double> a, Acc<double> o) {
                 o(0, 0) = a(0, 0) + 1.0;
               },
               read(*dats[0]), write(*dats[static_cast<std::size_t>(d)]));
  const auto& reuse = ctx.instr().reuse();
  ASSERT_GT(reuse.total_bytes(), 0u);
  // Random capacity ladder, sorted descending: spill non-decreasing.
  std::vector<double> caps;
  for (int i = 0; i < 24; ++i)
    caps.push_back(std::pow(2.0, 8.0 + 16.0 * (rng() % 1000) / 1000.0));
  std::sort(caps.rbegin(), caps.rend());
  count_t prev = 0;
  for (const double c : caps) {
    const count_t s = reuse.est_spill_bytes(c);
    EXPECT_GE(s, prev) << "capacity " << c;
    prev = s;
  }
  (void)spec;
}

// --- Mode ordering of predicted time ----------------------------------------

TEST(FuzzMemTier, PredictedTimeCacheGeFlatGeHbmOnly) {
  const sim::MachineModel& hbm = sim::machine_by_id("max9480");
  const sim::MachineModel& flat = sim::machine_by_id("max9480-flat");
  const sim::MachineModel& cache = sim::machine_by_id("max9480-cache");
  const core::AppProfile& base = core::app_by_id("cloverleaf2d").profile;
  const core::Config cfg =
      core::default_config(hbm, core::AppClass::Structured);
  const double cap = hbm.tier_capacity("hbm");
  std::mt19937 rng(777u);
  for (int trial = 0; trial < 16; ++trial) {
    // Log-uniform working sets from deep-fit to far past HBM capacity.
    const double ws =
        cap * std::pow(2.0, -3.0 + 8.0 * (rng() % 1000) / 1000.0);
    core::AppProfile p = base;
    p.working_set_bytes = ws;
    const double th = core::PerfModel(hbm).predict(p, cfg).total();
    const double tf = core::PerfModel(flat).predict(p, cfg).total();
    const double tc = core::PerfModel(cache).predict(p, cfg).total();
    EXPECT_GE(tf, th * (1 - 1e-12)) << "ws " << ws;
    EXPECT_GE(tc, tf * (1 - 1e-12)) << "ws " << ws;
    if (ws < 0.5 * cap) {
      EXPECT_NEAR(tf / th, 1.0, 1e-9) << "ws " << ws;
      EXPECT_NEAR(tc / th, 1.0, 1e-9) << "ws " << ws;
    }
  }
}

// Acceptance shape: the clover2d sweep reproduces the Ibeid degradation —
// Flat == HbmOnly == Cache at fit working sets, Cache slowdown vs the
// HBM-only baseline grows monotonically past HBM capacity.
TEST(MemTier, CloverSweepReproducesIbeidDegradationShape) {
  const sim::MachineModel& hbm = sim::machine_by_id("max9480");
  const sim::MachineModel& cache = sim::machine_by_id("max9480-cache");
  const core::AppProfile& base = core::app_by_id("cloverleaf2d").profile;
  const core::Config cfg =
      core::default_config(hbm, core::AppClass::Structured);
  const double cap = hbm.tier_capacity("hbm");
  double prev = 0;
  for (const double r : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0}) {
    core::AppProfile p = base;
    p.working_set_bytes = r * cap;
    const double th = core::PerfModel(hbm).predict(p, cfg).total();
    const double tc = core::PerfModel(cache).predict(p, cfg).total();
    const double slowdown = tc / th;
    if (r <= 0.75) {
      EXPECT_NEAR(slowdown, 1.0, 0.005) << "ws/cap " << r;
    } else {
      EXPECT_GE(slowdown + 1e-9, prev) << "ws/cap " << r;
      EXPECT_GT(slowdown, 1.05) << "ws/cap " << r;
    }
    prev = slowdown;
  }
}

// --- Placement determinism & policy correctness ------------------------------

memtier::Config two_tier_config(std::mt19937& rng, const std::string& pol) {
  memtier::Config cfg;
  cfg.policy = pol;
  cfg.numa_domains = 8;
  cfg.tiers.push_back(
      {"hbm", 4096.0 * (1 + rng() % 64), 1446.0});
  cfg.tiers.push_back({"ddr", 0, 490.0});  // unbounded slow tier
  return cfg;
}

TEST(FuzzMemTier, SameSeedAndConfigProducesIdenticalTierMap) {
  for (const char* pol : {"auto", "firsttouch", "hbm", "ddr"}) {
    for (std::uint32_t seed : {1u, 99u, 31337u}) {
      std::vector<std::vector<memtier::Placement>> maps;
      for (int run = 0; run < 2; ++run) {
        std::mt19937 rng(seed);
        memtier::install(two_tier_config(rng, pol));
        const int ndats = 3 + static_cast<int>(rng() % 6);
        for (int d = 0; d < ndats; ++d)
          memtier::on_alloc(dname(d),
                            512 * (1 + rng() % 32));
        maps.push_back(memtier::placements());
        memtier::uninstall();
      }
      ASSERT_EQ(maps[0].size(), maps[1].size()) << pol << " seed " << seed;
      for (std::size_t i = 0; i < maps[0].size(); ++i) {
        EXPECT_EQ(maps[0][i].dat, maps[1][i].dat);
        EXPECT_EQ(maps[0][i].tier, maps[1][i].tier)
            << pol << " seed " << seed << " dat " << maps[0][i].dat;
        EXPECT_EQ(maps[0][i].bytes, maps[1][i].bytes);
      }
      // Pin policies put every dat on the pinned tier.
      if (pol == std::string("hbm") || pol == std::string("ddr")) {
        for (const memtier::Placement& p : maps[0]) EXPECT_EQ(p.tier, pol);
      }
    }
  }
}

TEST(MemTier, FirstTouchPacksAtMostTheAutoFastBytes) {
  // firsttouch divides the fast tier by numa_domains, so its fast-tier
  // resident bytes can never exceed auto's.
  for (std::uint32_t seed : {7u, 2026u}) {
    std::array<std::uint64_t, 2> fast{};
    int i = 0;
    for (const char* pol : {"auto", "firsttouch"}) {
      std::mt19937 rng(seed);
      memtier::install(two_tier_config(rng, pol));
      const int ndats = 4 + static_cast<int>(rng() % 5);
      for (int d = 0; d < ndats; ++d)
        memtier::on_alloc(dname(d), 512 * (1 + rng() % 32));
      for (const memtier::Placement& p : memtier::placements())
        if (p.tier == "hbm") fast[static_cast<std::size_t>(i)] += p.bytes;
      memtier::uninstall();
      ++i;
    }
    EXPECT_LE(fast[1], fast[0]) << "seed " << seed;
  }
}

TEST(MemTier, FirstAllocationWinsAndPinValidation) {
  std::mt19937 rng(5u);
  memtier::install(two_tier_config(rng, "auto"));
  memtier::on_alloc("a", 1024);
  memtier::on_alloc("a", 999999);  // per-rank replica: no new decision
  ASSERT_EQ(memtier::placements().size(), 1u);
  EXPECT_EQ(memtier::placements()[0].bytes, 1024u);
  memtier::uninstall();
  EXPECT_TRUE(memtier::placements().empty());
  // A pin to a tier the machine lacks is rejected at install time.
  memtier::Config bad;
  bad.policy = "hbm";
  bad.tiers.push_back({"ddr", 0, 1.0});
  EXPECT_THROW(memtier::install(bad), Error);
  EXPECT_FALSE(memtier::enabled());
}

// --- The "memtier" report section -------------------------------------------

TEST(MemTier, SectionJsonRoundTripIsBitwise) {
  const LayerGuard guard;
  const sim::MachineModel& m = sim::machine_by_id("max9480-flat");
  core::install_memtier_allocator(m, "auto");
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  const apps::Result res = apps::clover2d::run(opt);
  const core::MemTierSection mt =
      core::build_memtier_section(res.instr, m, "auto");
  EXPECT_EQ(mt.machine_id, "max9480-flat");
  EXPECT_EQ(mt.mode, "flat");
  EXPECT_TRUE(mt.snc);
  EXPECT_GT(mt.working_set_bytes, 0u);
  EXPECT_GT(mt.tiers.size(), 1u);
  EXPECT_FALSE(mt.placements.empty());
  EXPECT_FALSE(mt.loop_roofs.empty());
  // clover at n=24 fits HBM with room: everything lands on the fast tier
  // and the modeled hit fraction is 1.
  EXPECT_EQ(mt.tiers[0].name, "hbm");
  EXPECT_EQ(mt.tiers[0].resident_bytes, mt.working_set_bytes);
  EXPECT_DOUBLE_EQ(mt.hbm_hit_fraction, 1.0);

  const core::RunReport report =
      core::make_run_report(res.instr, nullptr, nullptr, nullptr, nullptr,
                            nullptr, nullptr, &mt);
  ASSERT_TRUE(report.memtier.has_value());
  std::ostringstream first;
  core::write_run_report_json(first, report);
  EXPECT_NE(first.str().find("\"memtier\""), std::string::npos);
  std::istringstream in(first.str());
  const core::RunReport parsed = core::parse_run_report(in);
  ASSERT_TRUE(parsed.memtier.has_value());
  EXPECT_EQ(parsed.memtier->mode, "flat");
  EXPECT_EQ(parsed.memtier->placements.size(), mt.placements.size());
  std::ostringstream second;
  core::write_run_report_json(second, parsed);
  EXPECT_EQ(first.str(), second.str())
      << "memtier write -> parse -> rewrite must be bitwise stable";
}

TEST(MemTier, PinPlacesEveryDatAndTierTrafficSumsToCountedTotal) {
  const LayerGuard guard;
  const sim::MachineModel& m = sim::machine_by_id("max9480-flat");
  constexpr idx_t kN = 64;
  for (const std::string pin : {"hbm", "ddr"}) {
    core::install_memtier_allocator(m, pin);
    Context ctx;
    Block blk(ctx, "g", 2, {kN, kN, 1});
    Dat<double> a(blk, "a", 0), b(blk, "b", 0);
    a.fill(1.0);
    par_loop({"copy", 0.0}, blk, Range::make2d(0, kN, 0, kN),
             [](Acc<const double> x, Acc<double> o) { o(0, 0) = x(0, 0); },
             read(a), write(b));
    const core::MemTierSection mt =
        core::build_memtier_section(ctx.instr(), m, pin);
    ASSERT_EQ(mt.placements.size(), 2u) << pin;
    for (const core::MemTierPlacement& p : mt.placements)
      EXPECT_EQ(p.tier, pin) << p.dat;
    const count_t counted =
        core::DataMoveProfiler::analyze(ctx.instr()).total_bytes;
    EXPECT_GT(counted, 0u);
    count_t traffic = 0;
    for (const core::MemTierTier& t : mt.tiers) {
      traffic += t.traffic_bytes;
      EXPECT_EQ(t.traffic_bytes, t.name == pin ? counted : 0u) << t.name;
    }
    EXPECT_EQ(traffic, counted) << pin;
    memtier::uninstall();
  }
  // A pin the machine cannot honour is rejected, never silently moved to
  // another tier: HBM-only max9480 has no "ddr".
  EXPECT_THROW(
      core::install_memtier_allocator(sim::machine_by_id("max9480"), "ddr"),
      Error);
  EXPECT_THROW(core::install_memtier_allocator(m, "weird"), Error);
}

TEST(MemTier, LiveAllocatorDecisionsDriveTheSectionEndToEnd) {
  const LayerGuard guard;
  const sim::MachineModel& m = sim::machine_by_id("max9480-flat");
  // Pin every dat to DDR at construction time: the section's placements,
  // tier table and per-tier loop roofs all follow the live decisions.
  core::install_memtier_allocator(m, "ddr");
  apps::Options opt;
  opt.n = 16;
  opt.iterations = 1;
  const apps::Result res = apps::clover2d::run(opt);
  const core::MemTierSection mt =
      core::build_memtier_section(res.instr, m, "ddr");
  ASSERT_FALSE(mt.placements.empty());
  for (const core::MemTierPlacement& p : mt.placements)
    EXPECT_EQ(p.tier, "ddr") << p.dat;
  ASSERT_EQ(mt.tiers.size(), 2u);
  EXPECT_EQ(mt.tiers[0].name, "hbm");
  EXPECT_EQ(mt.tiers[0].resident_bytes, 0u);
  EXPECT_EQ(mt.tiers[0].traffic_bytes, 0u);
  EXPECT_EQ(mt.tiers[1].resident_bytes, mt.working_set_bytes);
  EXPECT_EQ(mt.tiers[1].traffic_bytes,
            core::DataMoveProfiler::analyze(res.instr).total_bytes);
  ASSERT_FALSE(mt.loop_roofs.empty());
  for (const core::LoopTierRoofs& l : mt.loop_roofs) {
    EXPECT_EQ(l.binding_tier, "ddr") << l.loop;
    ASSERT_EQ(l.tiers.size(), 1u) << l.loop;
  }
}

}  // namespace
}  // namespace bwlab::ops
