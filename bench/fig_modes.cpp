// Memory-mode sweep (the Xeon MAX's defining axis): CloverLeaf 2D
// predicted runtime under the three shipping modes — HBM-only, flat
// (HBM + DDR as separate placement targets) and HBM-cache — as the
// working set grows from comfortably HBM-resident past the 64 GB/socket
// HBM capacity, with and without SNC4. The lanes reproduce the
// qualitative degradation the Aurora study measures (Ibeid et al.,
// 2504.03632): cache mode tracks flat mode while the set fits, then
// falls away monotonically once it spills, while flat mode degrades
// gently toward the DDR plateau. The binary FAILS if the model loses
// that shape, so the mode model is gated like every other bwbench suite.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hpp"
#include "common/units.hpp"
#include "sim/bandwidth.hpp"

using namespace bwlab;
using namespace bwlab::core;

namespace {

/// Rescales a structured profile to a target working set: interior
/// kernels scale with the volume, boundary kernels and halo surfaces
/// with the surface (profile.hpp scaling rules), so the per-point byte
/// and flop costs stay those extracted from the real application.
AppProfile rescale(const AppProfile& base, double target_ws_bytes) {
  AppProfile p = base;
  const double lin =
      std::pow(target_ws_bytes / base.working_set_bytes, 1.0 / base.ndims);
  const double vol = std::pow(lin, base.ndims);
  const double surf = std::pow(lin, base.ndims - 1);
  for (auto& g : p.global) g *= lin;
  p.working_set_bytes = base.working_set_bytes * vol;
  for (KernelProfile& k : p.kernels)
    k.points_per_call *= k.pattern == Pattern::Boundary ? surf : vol;
  for (ExchangeProfile& e : p.exchanges) e.exchanges_per_iter *= 1.0;
  p.halo_coeff *= surf;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig_modes");
  cli.reject_unknown();
  const AppProfile& prof = app_by_id("cloverleaf2d").profile;

  const sim::MachineModel& hbm = sim::machine_by_id("max9480");
  const sim::MachineModel& flat = sim::machine_by_id("max9480-flat");
  const sim::MachineModel& cache = sim::machine_by_id("max9480-cache");
  const sim::MachineModel& cacheq = sim::machine_by_id("max9480-cache-quad");
  const Config cfg = default_config(hbm, AppClass::Structured);
  const double cap = hbm.tier_capacity("hbm");  // 128 GiB node HBM

  // Working-set ladder: fit, knee, and three spill points (x HBM cap).
  const double ratios[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};

  Table t("Memory-mode sweep — CloverLeaf 2D predicted time (model)");
  t.set_columns({{"ws / HBM cap", 2},
                 {"hbm-only s", 3},
                 {"flat s", 3},
                 {"cache s", 3},
                 {"cache-quad s", 3},
                 {"cache slowdown", 3},
                 {"cache hit frac", 3}});
  bool shape_ok = true;
  double prev_slowdown = 0;
  double fit_cache_over_flat = 0, spill_cache_over_flat = 0;
  double flat_over_hbm_fit = 0;
  const sim::BandwidthModel cbw(cache);
  for (const double r : ratios) {
    const AppProfile p = rescale(prof, r * cap);
    const double th = PerfModel(hbm).predict(p, cfg).total();
    const double tf = PerfModel(flat).predict(p, cfg).total();
    const double tc = PerfModel(cache).predict(p, cfg).total();
    const double tcq = PerfModel(cacheq).predict(p, cfg).total();
    // "Slowdown" is cache-mode time over the HBM-only baseline at the
    // same working set — the curve whose monotone growth past capacity
    // is the Ibeid degradation signature. (cache/flat instead peaks and
    // re-converges once flat mode itself starts spilling to DDR.)
    const double slowdown = tc / th;
    const double hit =
        cbw.hbm_service_fraction(p.working_set_bytes, sim::Scope::Node);
    t.add_row({r, th, tf, tc, tcq, slowdown, hit});
    // Ibeid shape: Flat == HbmOnly == Cache while the set fits; past
    // capacity the cache-mode slowdown grows monotonically.
    if (r <= 0.75) {
      if (tf > 1.005 * th || tc > 1.005 * th) shape_ok = false;
      fit_cache_over_flat = tc / tf;
      flat_over_hbm_fit = tf / th;
    } else {
      if (slowdown + 1e-9 < prev_slowdown) shape_ok = false;
    }
    if (tc + 1e-12 < tf || tf + 1e-12 < th) shape_ok = false;
    prev_slowdown = slowdown;
    if (r == 3.0) spill_cache_over_flat = tc / tf;
  }
  run.emit(t);

  // Deterministic model metrics for the bwbench gate.
  run.record_value("model.fit.cache_over_flat", "x",
                   benchjson::Better::Lower, fit_cache_over_flat);
  run.record_value("model.fit.flat_over_hbm", "x", benchjson::Better::Lower,
                   flat_over_hbm_fit);
  run.record_value("model.spill3x.cache_over_flat", "x",
                   benchjson::Better::Lower, spill_cache_over_flat);
  run.record_value("model.hit_fraction.2x", "frac",
                   benchjson::Better::Higher,
                   cbw.hbm_service_fraction(2.0 * cap, sim::Scope::Node));
  run.finish();

  if (!shape_ok) {
    std::fprintf(stderr,
                 "FAIL: mode sweep lost the Ibeid degradation shape\n");
    return EXIT_FAILURE;
  }
  if (spill_cache_over_flat <= 1.05) {
    std::fprintf(stderr,
                 "FAIL: cache mode shows no spill penalty at 3x HBM "
                 "capacity (cache/flat = %.3f)\n",
                 spill_cache_over_flat);
    return EXIT_FAILURE;
  }
  std::printf("PASS\n");
  return 0;
}
