// Tests for bwmem (common/instrument.hpp datmove collection +
// core/datmove.hpp analysis): exact byte accounting on analytic cases (a
// BabelStream-triad-shaped loop counts exactly 3*N*8 bytes), halo
// pack/unpack bytes agreeing with the runtime's own RankStats counters on
// a distributed CloverLeaf run, the counted-vs-modeled byte-drift
// diagnostic staying under tolerance on clover2d (and firing on a
// deliberately miscalibrated model), memory-tier placement policies, and
// the "datmove" JSON section round-tripping through write_json /
// parse_datmove_json.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "common/instrument.hpp"
#include "core/attribution.hpp"
#include "core/config.hpp"
#include "core/datmove.hpp"
#include "core/report.hpp"
#include "ops/par_loop.hpp"
#include "sim/machine.hpp"

namespace bwlab::ops {
namespace {

/// The datmove switch is process-global; scope it to each test.
struct DatMoveGuard {
  DatMoveGuard() { datmove::enable(); }
  ~DatMoveGuard() { datmove::disable(); }
};

// --- Exact accounting --------------------------------------------------------

TEST(DatMove, TriadCountsExactlyThreeNTimesEight) {
  const DatMoveGuard guard;
  constexpr idx_t kN = 1024;
  Context ctx;
  Block blk(ctx, "g", 1, {kN, 1, 1});
  // halo depth 0, point stencils: the footprint is exactly the range.
  Dat<double> a(blk, "a", 0), b(blk, "b", 0), c(blk, "c", 0);
  b.fill(1.0);
  c.fill(2.0);
  const double scalar = 0.4;
  par_loop({"triad", 2.0}, blk, Range{{0, 0, 0}, {kN, 1, 1}},
           [scalar](Acc<double> out, Acc<const double> x,
                    Acc<const double> y) {
             out(0, 0) = x(0, 0) + scalar * y(0, 0);
           },
           write(a), read(b), read(c));

  EXPECT_EQ(ctx.instr().datmove_total_bytes(),
            static_cast<count_t>(3 * kN * 8));
  const std::map<std::string, count_t> by_loop =
      ctx.instr().counted_bytes_by_loop();
  ASSERT_EQ(by_loop.count("triad"), 1u);
  EXPECT_EQ(by_loop.at("triad"), static_cast<count_t>(3 * kN * 8));

  // Per-dat split: one written stream, two read streams.
  ASSERT_EQ(ctx.instr().datmoves().size(), 3u);
  for (const DatMoveRecord* r : ctx.instr().datmoves()) {
    if (r->dat == "a") {
      EXPECT_EQ(r->bytes_read, 0u);
      EXPECT_EQ(r->bytes_written, static_cast<count_t>(kN * 8));
    } else {
      EXPECT_EQ(r->bytes_read, static_cast<count_t>(kN * 8));
      EXPECT_EQ(r->bytes_written, 0u);
    }
  }

  // Zero drift by construction on a radius-0 loop: the modeled estimate
  // (arg_bytes x points) and the counted footprint coincide.
  const core::DatMoveReport rep =
      core::DataMoveProfiler::analyze(ctx.instr());
  ASSERT_EQ(rep.loops.size(), 1u);
  EXPECT_EQ(rep.loops[0].counted_bytes, rep.loops[0].modeled_bytes);
  EXPECT_DOUBLE_EQ(rep.loops[0].drift, 0.0);
  EXPECT_EQ(rep.total_bytes, static_cast<count_t>(3 * kN * 8));
  EXPECT_EQ(rep.working_set_bytes, static_cast<count_t>(3 * kN * 8));
}

TEST(DatMove, StencilReadsDilateTheCountedFootprint) {
  const DatMoveGuard guard;
  constexpr idx_t kN = 16;
  Context ctx;
  Block blk(ctx, "g", 2, {kN, kN, 1});
  Dat<double> u(blk, "u", 1), v(blk, "v", 1);
  u.fill(1.0);
  par_loop({"lap", 4.0}, blk, Range::make2d(1, kN - 1, 1, kN - 1),
           [](Acc<const double> x, Acc<double> o) {
             o(0, 0) = x(-1, 0) + x(1, 0) + x(0, -1) + x(0, 1) -
                       4.0 * x(0, 0);
           },
           read(u, Stencil::star(2, 1)), write(v));
  // Read footprint: the executed (kN-2)^2 range dilated by radius 1 per
  // dimension -> kN^2 points; write footprint: the range itself.
  const count_t expect_read = static_cast<count_t>(kN * kN * 8);
  const count_t expect_write =
      static_cast<count_t>((kN - 2) * (kN - 2) * 8);
  for (const DatMoveRecord* r : ctx.instr().datmoves()) {
    if (r->dat == "u") {
      EXPECT_EQ(r->bytes_read, expect_read);
    }
    if (r->dat == "v") {
      EXPECT_EQ(r->bytes_written, expect_write);
    }
  }
}

// The read footprint is the executed range dilated by the stencil radius in
// each dimension, whichever executor ran the loop: an anisotropic chain
// counts the same bytes eagerly, untiled and tiled at any tile height.
TEST(DatMove, AnisotropicReadsCountTheSameBytesInEveryExecutor) {
  const DatMoveGuard guard;
  using ByteMap = std::map<std::pair<std::string, std::string>,
                           std::pair<count_t, count_t>>;
  constexpr idx_t kEager = -1, kUntiled = 0;
  // Runs the two-loop chain; `mode` is kEager, kUntiled or a tile height.
  const auto run = [](idx_t mode) {
    constexpr idx_t kN = 64;
    Context ctx;
    Block blk(ctx, "g", 2, {kN, kN, 1});
    Dat<double> u(blk, "u", 4), f(blk, "f", 4), g(blk, "g", 4);
    u.fill(1.0);
    ctx.set_lazy(mode != kEager);
    par_loop({"flux_x", 1.0}, blk, Range::make2d(0, kN, 0, kN),
             [](Acc<const double> a, Acc<double> o) {
               o(0, 0) = a(-1, 0) + a(1, 0);
             },
             read(u, Stencil::radii({1, 0, 0}, 2)), write(f));
    par_loop({"flux_y", 1.0}, blk, Range::make2d(0, kN, 0, kN),
             [](Acc<const double> a, Acc<double> o) {
               o(0, 0) = a(0, -1) + a(0, 1);
             },
             read(f, Stencil::radii({0, 1, 0}, 2)), write(g));
    ctx.set_lazy(false);
    if (mode == kUntiled) ctx.chain().execute_untiled();
    if (mode > 0) ctx.chain().execute_tiled(mode);
    ByteMap out;
    for (const DatMoveRecord* r : ctx.instr().datmoves())
      out[{r->loop, r->dat}] = {r->bytes_read, r->bytes_written};
    return out;
  };

  const ByteMap eager = run(kEager);
  ASSERT_EQ(eager.size(), 4u);
  // Dilated in x only (flux_x) or in y only (flux_y): 66 x 64 points.
  EXPECT_EQ(eager.at({"flux_x", "u"}).first, 66u * 64u * 8u);
  EXPECT_EQ(eager.at({"flux_y", "f"}).first, 64u * 66u * 8u);
  EXPECT_EQ(eager.at({"flux_y", "g"}).second, 64u * 64u * 8u);
  EXPECT_EQ(run(kUntiled), eager);
  for (const idx_t h : {2, 7, 64})
    EXPECT_EQ(run(h), eager) << "tile height " << h;
}

// --- Distributed halo accounting --------------------------------------------

TEST(DatMove, CloverHaloBytesMatchRankStats) {
  const DatMoveGuard guard;
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  opt.ranks = 2;
  const apps::Result res = apps::clover2d::run(opt);
  ASSERT_EQ(res.rank_stats.size(), 2u);

  // Result.instr is rank 0's registry: its pack-side exchange bytes are
  // exactly the payload bytes par::Comm counted for rank 0's sends, and
  // the unpack side actually received data from rank 1.
  count_t sent = 0, received = 0;
  for (const ExchangeRecord* e : res.instr.exchanges()) {
    sent += e->bytes;
    received += e->bytes_received;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(received, 0u);
  EXPECT_EQ(sent, res.rank_stats[0].payload_bytes_sent);
  // Two symmetric ranks exchange symmetric halos.
  EXPECT_EQ(received, res.rank_stats[1].payload_bytes_sent);

  const core::DatMoveReport rep =
      core::DataMoveProfiler::analyze(res.instr);
  EXPECT_EQ(rep.halo_bytes_sent, sent);
  EXPECT_EQ(rep.halo_bytes_received, received);
}

// --- Attribution: counted bytes + drift diagnostic ---------------------------

TEST(DatMove, CloverByteDriftUnderToleranceAndMiscalibrationFires) {
  const DatMoveGuard guard;
  apps::Options opt;
  opt.n = 64;
  opt.iterations = 2;
  const apps::Result res = apps::clover2d::run(opt);

  const sim::MachineModel& m = sim::machine_by_id("max9480");
  const core::Config cfg =
      core::default_config(m, core::AppClass::Structured);
  const core::AttributionReport attr =
      core::attribute(res.instr, m, cfg, 0.25, 0.10);

  // Every executed loop was counted, the roofline join runs off counted
  // bytes, and counted-vs-modeled drift stays under 10% at this size.
  int counted_loops = 0;
  for (const core::LoopAttribution& a : attr.loops) {
    if (a.calls == 0) continue;
    EXPECT_TRUE(a.counted) << a.name;
    EXPECT_GT(a.counted_bytes, 0.0) << a.name;
    EXPECT_LE(std::abs(a.byte_drift), 0.10) << a.name;
    EXPECT_FALSE(a.byte_drifted) << a.name;
    ++counted_loops;
  }
  EXPECT_GT(counted_loops, 10);
  EXPECT_EQ(attr.byte_drifted_count, 0);

  // Deliberately miscalibrate the model: halving one loop's modeled
  // bytes makes counted/modeled - 1 ~ +1.0, well past tolerance.
  Instrumentation bad = res.instr;
  bad.loop("advec_donor_x").bytes /= 2;
  const core::AttributionReport attr2 =
      core::attribute(bad, m, cfg, 0.25, 0.10);
  EXPECT_GT(attr2.byte_drifted_count, 0);
  for (const core::LoopAttribution& a : attr2.loops)
    if (a.name == "advec_donor_x") {
      EXPECT_TRUE(a.byte_drifted);
      EXPECT_GT(a.byte_drift, 0.5);
    }
}

// --- Tier placement ----------------------------------------------------------

TEST(DatMove, PlacementPoliciesPinAndPack) {
  const DatMoveGuard guard;
  constexpr idx_t kN = 64;
  Context ctx;
  Block blk(ctx, "g", 2, {kN, kN, 1});
  Dat<double> a(blk, "a", 0), b(blk, "b", 0);
  a.fill(1.0);
  par_loop({"copy", 0.0}, blk, Range::make2d(0, kN, 0, kN),
           [](Acc<const double> x, Acc<double> o) { o(0, 0) = x(0, 0); },
           read(a), write(b));

  const sim::MachineModel& m = sim::machine_by_id("max9480");
  const core::DatMoveReport hbm =
      core::DataMoveProfiler::analyze(ctx.instr(), &m, "hbm");
  ASSERT_EQ(hbm.dats.size(), 2u);
  for (const core::DatMovePlacement& p : hbm.dats) EXPECT_EQ(p.tier, "hbm");
  ASSERT_EQ(hbm.tiers.size(), 1u);
  EXPECT_EQ(hbm.tiers[0].traffic_bytes, hbm.total_bytes);
  EXPECT_GT(hbm.tiers[0].seconds_at_bw, 0.0);

  // max9480 has no "ddr" tier: the pin falls back to the slowest tier.
  const core::DatMoveReport ddr =
      core::DataMoveProfiler::analyze(ctx.instr(), &m, "ddr");
  for (const core::DatMovePlacement& p : ddr.dats)
    EXPECT_EQ(p.tier, "hbm");

  // Tierless analysis still produces totals and an occupancy curve.
  const core::DatMoveReport bare =
      core::DataMoveProfiler::analyze(ctx.instr());
  EXPECT_EQ(bare.machine_id, "");
  EXPECT_EQ(bare.total_bytes, hbm.total_bytes);
  for (const core::DatMovePlacement& p : bare.dats) EXPECT_EQ(p.tier, "");

  EXPECT_THROW(core::DataMoveProfiler::analyze(ctx.instr(), &m, "weird"),
               Error);
}

// --- JSON round-trip ---------------------------------------------------------

void expect_reports_equal(const core::DatMoveReport& x,
                          const core::DatMoveReport& y) {
  EXPECT_EQ(x.placement_policy, y.placement_policy);
  EXPECT_EQ(x.machine_id, y.machine_id);
  EXPECT_EQ(x.total_bytes, y.total_bytes);
  EXPECT_EQ(x.working_set_bytes, y.working_set_bytes);
  EXPECT_EQ(x.halo_bytes_sent, y.halo_bytes_sent);
  EXPECT_EQ(x.halo_bytes_received, y.halo_bytes_received);
  ASSERT_EQ(x.records.size(), y.records.size());
  for (std::size_t i = 0; i < x.records.size(); ++i) {
    EXPECT_EQ(x.records[i].loop, y.records[i].loop);
    EXPECT_EQ(x.records[i].dat, y.records[i].dat);
    EXPECT_EQ(x.records[i].executions, y.records[i].executions);
    EXPECT_EQ(x.records[i].bytes_read, y.records[i].bytes_read);
    EXPECT_EQ(x.records[i].bytes_written, y.records[i].bytes_written);
  }
  ASSERT_EQ(x.loops.size(), y.loops.size());
  for (std::size_t i = 0; i < x.loops.size(); ++i) {
    EXPECT_EQ(x.loops[i].loop, y.loops[i].loop);
    EXPECT_EQ(x.loops[i].counted_bytes, y.loops[i].counted_bytes);
    EXPECT_EQ(x.loops[i].modeled_bytes, y.loops[i].modeled_bytes);
    EXPECT_NEAR(x.loops[i].drift, y.loops[i].drift,
                1e-5 * (1.0 + std::abs(x.loops[i].drift)));
  }
  ASSERT_EQ(x.dats.size(), y.dats.size());
  for (std::size_t i = 0; i < x.dats.size(); ++i) {
    EXPECT_EQ(x.dats[i].dat, y.dats[i].dat);
    EXPECT_EQ(x.dats[i].alloc_bytes, y.dats[i].alloc_bytes);
    EXPECT_EQ(x.dats[i].bytes_moved, y.dats[i].bytes_moved);
    EXPECT_EQ(x.dats[i].tier, y.dats[i].tier);
  }
  EXPECT_EQ(x.reuse.cold_bytes, y.reuse.cold_bytes);
  for (int i = 0; i < Histogram::kBuckets; ++i)
    EXPECT_EQ(x.reuse.moved_bytes[static_cast<std::size_t>(i)],
              y.reuse.moved_bytes[static_cast<std::size_t>(i)]);
  ASSERT_EQ(x.occupancy.size(), y.occupancy.size());
  for (std::size_t i = 0; i < x.occupancy.size(); ++i) {
    EXPECT_NEAR(x.occupancy[i].capacity_bytes, y.occupancy[i].capacity_bytes,
                1e-5 * (1.0 + x.occupancy[i].capacity_bytes));
    EXPECT_NEAR(x.occupancy[i].served_fraction, y.occupancy[i].served_fraction,
                1e-5);
  }
  ASSERT_EQ(x.tiers.size(), y.tiers.size());
  for (std::size_t i = 0; i < x.tiers.size(); ++i) {
    EXPECT_EQ(x.tiers[i].name, y.tiers[i].name);
    EXPECT_EQ(x.tiers[i].resident_bytes, y.tiers[i].resident_bytes);
    EXPECT_EQ(x.tiers[i].traffic_bytes, y.tiers[i].traffic_bytes);
  }
  ASSERT_EQ(x.chains.size(), y.chains.size());
  for (std::size_t i = 0; i < x.chains.size(); ++i) {
    EXPECT_EQ(x.chains[i].working_set_bytes, y.chains[i].working_set_bytes);
    EXPECT_EQ(x.chains[i].counted_bytes, y.chains[i].counted_bytes);
    EXPECT_EQ(x.chains[i].tile_height, y.chains[i].tile_height);
    EXPECT_EQ(x.chains[i].loops, y.chains[i].loops);
    EXPECT_EQ(x.chains[i].tiled, y.chains[i].tiled);
  }
}

TEST(DatMove, JsonRoundTripsBareAndInsideRunReport) {
  const DatMoveGuard guard;
  apps::Options opt;
  opt.n = 24;
  opt.iterations = 2;
  const apps::Result res = apps::clover2d::run(opt);
  const sim::MachineModel& m = sim::machine_by_id("max9480");
  const core::DatMoveReport rep =
      core::DataMoveProfiler::analyze(res.instr, &m, "auto");
  EXPECT_GT(rep.total_bytes, 0u);
  EXPECT_FALSE(rep.records.empty());

  // Bare object.
  std::ostringstream os;
  core::write_json(os, rep, 0);
  std::istringstream is(os.str());
  const core::DatMoveReport back = core::parse_datmove_json(is);
  expect_reports_equal(rep, back);

  // Embedded in the full run report (the tools/datmove_report path).
  std::ostringstream ros;
  core::write_run_report_json(ros, res.instr, nullptr, nullptr, nullptr,
                              &rep);
  EXPECT_NE(ros.str().find("\"datmove\""), std::string::npos);
  std::istringstream ris(ros.str());
  const core::DatMoveReport back2 = core::parse_datmove_json(ris);
  expect_reports_equal(rep, back2);

  // A report with no datmove section is a diagnosed error.
  std::ostringstream plain;
  core::write_run_report_json(plain, res.instr);
  std::istringstream pis(plain.str());
  EXPECT_THROW(core::parse_datmove_json(pis), Error);
}

// Multiple chain records must be comma-separated in the JSON output
// (regression: the writer once dropped the separator after the first
// chain, producing unparseable reports for any tiled multi-chain run).
TEST(DatMove, MultiChainJsonStaysParseable) {
  core::DatMoveReport rep;
  for (int i = 0; i < 3; ++i) {
    ChainMoveRecord c;
    c.working_set_bytes = 1000u * static_cast<count_t>(i + 1);
    c.counted_bytes = 1100u * static_cast<count_t>(i + 1);
    c.tile_height = 8 + i;
    c.loops = 4;
    c.tiled = (i != 1);
    rep.chains.push_back(c);
  }
  std::ostringstream os;
  core::write_json(os, rep, 0);
  std::istringstream is(os.str());
  const core::DatMoveReport back = core::parse_datmove_json(is);
  ASSERT_EQ(back.chains.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.chains[i].working_set_bytes, rep.chains[i].working_set_bytes);
    EXPECT_EQ(back.chains[i].counted_bytes, rep.chains[i].counted_bytes);
    EXPECT_EQ(back.chains[i].tile_height, rep.chains[i].tile_height);
    EXPECT_EQ(back.chains[i].tiled, rep.chains[i].tiled);
  }
}

}  // namespace
}  // namespace bwlab::ops
