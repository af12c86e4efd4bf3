#include "apps/cloverleaf/cloverleaf2d.hpp"

#include <algorithm>

#include "apps/cloverleaf/time_step.hpp"
#include "apps/resilient_loop.hpp"
#include "common/resil.hpp"
#include "common/timer.hpp"
#include "ops/checkpoint.hpp"
#include "ops/par_loop.hpp"

namespace bwlab::apps::clover2d {

namespace {

constexpr double kGamma = 1.4;
constexpr double kCfl = 0.2;
constexpr double kViscCoef = 2.0;

struct Solver {
  ops::Context& ctx;
  idx_t n;
  double dx, dy, vol;
  ops::Block block;

  // Cell-centered fields.
  ops::Dat<double> density, energy, pressure, soundspeed, viscosity;
  // Node-centered velocities (double-buffered for momentum advection).
  ops::Dat<double> xvel, yvel, xvel1, yvel1;
  // Face-staggered fluxes.
  ops::Dat<double> vol_flux_x, vol_flux_y;
  ops::Dat<double> mass_flux_x, mass_flux_y, ene_flux_x, ene_flux_y;

  Solver(ops::Context& c, idx_t n_, int depth)
      : ctx(c), n(n_), dx(10.0 / static_cast<double>(n_)),
        dy(10.0 / static_cast<double>(n_)), vol(dx * dy),
        block(c, "clover2d", 2, {n_, n_, 1}),
        density(block, "density", depth),
        energy(block, "energy", depth),
        pressure(block, "pressure", depth),
        soundspeed(block, "soundspeed", depth),
        viscosity(block, "viscosity", depth),
        xvel(block, "xvel", depth, {1, 1, 0}),
        yvel(block, "yvel", depth, {1, 1, 0}),
        xvel1(block, "xvel1", depth, {1, 1, 0}),
        yvel1(block, "yvel1", depth, {1, 1, 0}),
        vol_flux_x(block, "vol_flux_x", depth, {1, 0, 0}),
        vol_flux_y(block, "vol_flux_y", depth, {0, 1, 0}),
        mass_flux_x(block, "mass_flux_x", depth, {1, 0, 0}),
        mass_flux_y(block, "mass_flux_y", depth, {0, 1, 0}),
        ene_flux_x(block, "ene_flux_x", depth, {1, 0, 0}),
        ene_flux_y(block, "ene_flux_y", depth, {0, 1, 0}) {
    // Reflective walls: scalars mirror, normal velocities flip sign.
    for (ops::Dat<double>* d :
         {&density, &energy, &pressure, &soundspeed, &viscosity})
      d->set_bc_all(ops::Bc::Reflect);
    for (ops::Dat<double>* d : {&xvel, &xvel1}) {
      d->set_bc(0, 0, ops::Bc::ReflectNeg);
      d->set_bc(0, 1, ops::Bc::ReflectNeg);
      d->set_bc(1, 0, ops::Bc::Reflect);
      d->set_bc(1, 1, ops::Bc::Reflect);
    }
    for (ops::Dat<double>* d : {&yvel, &yvel1}) {
      d->set_bc(0, 0, ops::Bc::Reflect);
      d->set_bc(0, 1, ops::Bc::Reflect);
      d->set_bc(1, 0, ops::Bc::ReflectNeg);
      d->set_bc(1, 1, ops::Bc::ReflectNeg);
    }
    for (ops::Dat<double>* d : {&vol_flux_x, &vol_flux_y, &mass_flux_x,
                                &mass_flux_y, &ene_flux_x, &ene_flux_y})
      d->set_bc_all(ops::Bc::Reflect);
    // Every chain, and every eager step, writes these before it reads
    // them: only density, energy and the velocities outlive a chain.
    for (ops::Dat<double>* d :
         {&pressure, &soundspeed, &viscosity, &xvel1, &yvel1, &vol_flux_x,
          &vol_flux_y, &mass_flux_x, &mass_flux_y, &ene_flux_x, &ene_flux_y})
      d->set_chain_local();
  }

  void initialize() {
    // Background state with a dense energetic region in the corner — the
    // standard CloverLeaf deck shape.
    const double dxl = dx;
    const idx_t nn = n;
    density.fill_indexed([dxl, nn](idx_t i, idx_t j, idx_t) {
      const double x = (static_cast<double>(i) + 0.5) * dxl;
      const double y = (static_cast<double>(j) + 0.5) * dxl;
      (void)nn;
      return (x < 2.5 && y < 2.5) ? 1.0 : 0.2;
    });
    energy.fill_indexed([dxl](idx_t i, idx_t j, idx_t) {
      const double x = (static_cast<double>(i) + 0.5) * dxl;
      const double y = (static_cast<double>(j) + 0.5) * dxl;
      return (x < 2.5 && y < 2.5) ? 2.5 : 1.0;
    });
    xvel.fill(0.0);
    yvel.fill(0.0);
  }

  ops::Range cells() const { return ops::Range::make2d(0, n, 0, n); }
  ops::Range nodes() const { return ops::Range::make2d(0, n + 1, 0, n + 1); }

  /// Pressure, and the squared sound speed (cloverleaf::sound_speed_sq).
  void ideal_gas() {
    ops::par_loop(
        {"ideal_gas", 7.0}, block, cells(),
        [](ops::Acc<const double> d, ops::Acc<const double> e,
           ops::Acc<double> p, ops::Acc<double> c) {
          p(0, 0) = (kGamma - 1.0) * d(0, 0) * e(0, 0);
          c(0, 0) = cloverleaf::sound_speed_sq(kGamma, p(0, 0), d(0, 0));
        },
        ops::read(density), ops::read(energy), ops::write(pressure),
        ops::write(soundspeed));
  }

  void calc_viscosity() {
    const double coef = kViscCoef;
    const double dxl = dx, dyl = dy;
    ops::par_loop(
        {"viscosity_kernel", 12.0}, block, cells(),
        [coef, dxl, dyl](ops::Acc<const double> u, ops::Acc<const double> v,
                         ops::Acc<const double> d, ops::Acc<double> q) {
          const double dudx =
              0.5 * (u(1, 0) + u(1, 1) - u(0, 0) - u(0, 1)) / dxl;
          const double dvdy =
              0.5 * (v(0, 1) + v(1, 1) - v(0, 0) - v(1, 0)) / dyl;
          const double div = dudx + dvdy;
          // q = div < 0 ? coef·d·div²·dx·dy : 0, with the operands
          // selected instead of the product, so the row vectorizes. Off
          // compression both operands are +0 and the product is the +0 of
          // the original whatever d holds (NaN and Inf included), since
          // coef, dx and dy are positive and finite.
          const double d0 = d(0, 0);
          const double dc = div < 0.0 ? d0 : 0.0;
          const double vc = div < 0.0 ? div : 0.0;
          q(0, 0) = coef * dc * vc * vc * dxl * dyl;
        },
        ops::read(xvel, ops::Stencil::box(2, 1)),
        ops::read(yvel, ops::Stencil::box(2, 1)), ops::read(density),
        ops::write(viscosity));
  }

  /// Reduces the rank's largest signal speed, rooted from the stored c²,
  /// into `speed_max` (start it at cloverleaf::kNoSpeed); finish_dt
  /// divides once.
  void calc_dt(double& speed_max) {
    ops::par_loop(
        {"calc_dt", 8.0}, block, cells(),
        [](ops::Acc<const double> c, ops::Acc<const double> u,
           ops::Acc<const double> v, double& sm) {
          sm = std::max(sm,
                        cloverleaf::signal_speed(c(0, 0), u(0, 0), v(0, 0)));
        },
        ops::read(soundspeed), ops::read(xvel, ops::Stencil::box(2, 1)),
        ops::read(yvel, ops::Stencil::box(2, 1)), ops::reduce_max(speed_max));
  }

  /// The global time step from this rank's calc_dt speed.
  double finish_dt(double speed_max) {
    double dt_min = cloverleaf::dt_bound(dx, speed_max);
    if (ctx.comm() != nullptr) dt_min = ctx.comm()->allreduce_min(dt_min);
    return kCfl * dt_min;
  }

  void accelerate(double dt) {
    const double dxl = dx, dyl = dy;
    ops::par_loop(
        {"accelerate", 20.0}, block, nodes(),
        [dt, dxl, dyl](ops::Acc<const double> d, ops::Acc<const double> p,
                       ops::Acc<const double> q, ops::Acc<double> u,
                       ops::Acc<double> v) {
          const double davg = 0.25 * (d(-1, -1) + d(0, -1) + d(-1, 0) +
                                      d(0, 0)) +
                              1e-30;
          const double dpx = 0.5 * (p(0, -1) + p(0, 0) - p(-1, -1) - p(-1, 0) +
                                    q(0, -1) + q(0, 0) - q(-1, -1) - q(-1, 0));
          const double dpy = 0.5 * (p(-1, 0) + p(0, 0) - p(-1, -1) - p(0, -1) +
                                    q(-1, 0) + q(0, 0) - q(-1, -1) - q(0, -1));
          u(0, 0) -= dt * dpx / (dxl * davg);
          v(0, 0) -= dt * dpy / (dyl * davg);
        },
        ops::read(density, ops::Stencil::box(2, 1)),
        ops::read(pressure, ops::Stencil::box(2, 1)),
        ops::read(viscosity, ops::Stencil::box(2, 1)),
        ops::read_write(xvel), ops::read_write(yvel));
  }

  void wall_bcs() {
    // Explicit small boundary kernels enforcing zero normal velocity on
    // the walls — CloverLeaf's update_halo-style face loops.
    auto zero_u = [](ops::Acc<double> u) { u(0, 0) = 0.0; };
    ops::par_loop({"wall_west", 0.0}, block,
                  ops::Range::make2d(0, 1, 0, n + 1), zero_u,
                  ops::write(xvel));
    ops::par_loop({"wall_east", 0.0}, block,
                  ops::Range::make2d(n, n + 1, 0, n + 1), zero_u,
                  ops::write(xvel));
    ops::par_loop({"wall_south", 0.0}, block,
                  ops::Range::make2d(0, n + 1, 0, 1), zero_u,
                  ops::write(yvel));
    ops::par_loop({"wall_north", 0.0}, block,
                  ops::Range::make2d(0, n + 1, n, n + 1), zero_u,
                  ops::write(yvel));
  }

  void flux_calc_x(double dt) {
    const double dyl = dy;
    ops::par_loop(
        {"flux_calc_x", 4.0}, block, ops::Range::make2d(0, n + 1, 0, n),
        [dt, dyl](ops::Acc<const double> u, ops::Acc<double> fx) {
          fx(0, 0) = 0.5 * dt * dyl * (u(0, 0) + u(0, 1));
        },
        ops::read(xvel, ops::Stencil::radii({0, 1, 0}, 2)),
        ops::write(vol_flux_x));
  }

  void flux_calc_y(double dt) {
    const double dxl = dx;
    ops::par_loop(
        {"flux_calc_y", 4.0}, block, ops::Range::make2d(0, n, 0, n + 1),
        [dt, dxl](ops::Acc<const double> v, ops::Acc<double> fy) {
          fy(0, 0) = 0.5 * dt * dxl * (v(0, 0) + v(1, 0));
        },
        ops::read(yvel, ops::Stencil::radii({1, 0, 0}, 2)),
        ops::write(vol_flux_y));
  }

  void advec_donor_x() {
    ops::par_loop(
        {"advec_donor_x", 4.0}, block, ops::Range::make2d(0, n + 1, 0, n),
        [](ops::Acc<const double> fx, ops::Acc<const double> d,
           ops::Acc<const double> e, ops::Acc<double> mf,
           ops::Acc<double> ef) {
          const double f = fx(0, 0);
          // Donor (upwind) cell: cell (i-1) for rightward flow, (i) else.
          // Both candidates are loaded before the select, so the row
          // vectorizes (a conditional load would not).
          const double dm = d(-1, 0), d0 = d(0, 0);
          const double em = e(-1, 0), e0 = e(0, 0);
          const double dd = f > 0.0 ? dm : d0;
          const double de = f > 0.0 ? em : e0;
          mf(0, 0) = f * dd;
          ef(0, 0) = f * dd * de;
        },
        ops::read(vol_flux_x), ops::read(density, ops::Stencil::star(2, 1)),
        ops::read(energy, ops::Stencil::star(2, 1)), ops::write(mass_flux_x),
        ops::write(ene_flux_x));
  }

  void advec_update_x() {
    const double v = vol;
    ops::par_loop(
        {"advec_update_x", 10.0}, block, cells(),
        [v](ops::Acc<const double> mf, ops::Acc<const double> ef,
            ops::Acc<double> d, ops::Acc<double> e) {
          const double m_old = d(0, 0) * v;
          const double m_new = m_old + mf(0, 0) - mf(1, 0);
          const double en = (m_old * e(0, 0) + ef(0, 0) - ef(1, 0)) / m_new;
          d(0, 0) = m_new / v;
          e(0, 0) = en;
        },
        ops::read(mass_flux_x, ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read(ene_flux_x, ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read_write(density), ops::read_write(energy));
  }

  void advec_donor_y() {
    ops::par_loop(
        {"advec_donor_y", 4.0}, block, ops::Range::make2d(0, n, 0, n + 1),
        [](ops::Acc<const double> fy, ops::Acc<const double> d,
           ops::Acc<const double> e, ops::Acc<double> mf,
           ops::Acc<double> ef) {
          const double f = fy(0, 0);
          const double dm = d(0, -1), d0 = d(0, 0);
          const double em = e(0, -1), e0 = e(0, 0);
          const double dd = f > 0.0 ? dm : d0;
          const double de = f > 0.0 ? em : e0;
          mf(0, 0) = f * dd;
          ef(0, 0) = f * dd * de;
        },
        ops::read(vol_flux_y), ops::read(density, ops::Stencil::star(2, 1)),
        ops::read(energy, ops::Stencil::star(2, 1)), ops::write(mass_flux_y),
        ops::write(ene_flux_y));
  }

  void advec_update_y() {
    const double v = vol;
    ops::par_loop(
        {"advec_update_y", 10.0}, block, cells(),
        [v](ops::Acc<const double> mf, ops::Acc<const double> ef,
            ops::Acc<double> d, ops::Acc<double> e) {
          const double m_old = d(0, 0) * v;
          const double m_new = m_old + mf(0, 0) - mf(0, 1);
          const double en = (m_old * e(0, 0) + ef(0, 0) - ef(0, 1)) / m_new;
          d(0, 0) = m_new / v;
          e(0, 0) = en;
        },
        ops::read(mass_flux_y, ops::Stencil::radii({0, 1, 0}, 2)),
        ops::read(ene_flux_y, ops::Stencil::radii({0, 1, 0}, 2)),
        ops::read_write(density), ops::read_write(energy));
  }

  // Upwind advection of nodal momentum, double-buffered per sweep. The
  // upwind select picks the two operands of the one-sided difference, and
  // the difference is taken once: GCC computed two differences in
  // branches and, under -ftrapping-math, would not speculate them into a
  // vector select. Every select comes before any difference, or GCC's
  // jump threading rebuilds the branches.
  void advec_mom_x(double dt) {
    const double cx = dt / dx;
    ops::par_loop(
        {"advec_mom_x", 14.0}, block, nodes(),
        [cx](ops::Acc<const double> u, ops::Acc<const double> v,
             ops::Acc<double> u1, ops::Acc<double> v1) {
          const double um = u(-1, 0), u0 = u(0, 0), up = u(1, 0);
          const double vm = v(-1, 0), v0 = v(0, 0), vp = v(1, 0);
          const double a = u0;
          const bool wind = a > 0.0;
          const double uh = wind ? u0 : up, ul = wind ? um : u0;
          const double vh = wind ? v0 : vp, vl = wind ? vm : v0;
          u1(0, 0) = u0 - cx * a * (uh - ul);
          v1(0, 0) = v0 - cx * a * (vh - vl);
        },
        ops::read(xvel, ops::Stencil::star(2, 1)),
        ops::read(yvel, ops::Stencil::star(2, 1)), ops::write(xvel1),
        ops::write(yvel1));
  }

  void advec_mom_y(double dt) {
    const double cy = dt / dy;
    ops::par_loop(
        {"advec_mom_y", 14.0}, block, nodes(),
        [cy](ops::Acc<const double> u1, ops::Acc<const double> v1,
             ops::Acc<double> u, ops::Acc<double> v) {
          const double um = u1(0, -1), u0 = u1(0, 0), up = u1(0, 1);
          const double vm = v1(0, -1), v0 = v1(0, 0), vp = v1(0, 1);
          const double a = v0;
          const bool wind = a > 0.0;
          const double uh = wind ? u0 : up, ul = wind ? um : u0;
          const double vh = wind ? v0 : vp, vl = wind ? vm : v0;
          u(0, 0) = u0 - cy * a * (uh - ul);
          v(0, 0) = v0 - cy * a * (vh - vl);
        },
        ops::read(xvel1, ops::Stencil::star(2, 1)),
        ops::read(yvel1, ops::Stencil::star(2, 1)), ops::write(xvel),
        ops::write(yvel));
  }

  /// The fields whose values cross a chain, in a fixed order — the
  /// checkpoint unit. The chain-local temporaries are recomputed by the
  /// chain that follows a restore.
  std::array<ops::Dat<double>*, 4> fields() {
    return {&density, &energy, &xvel, &yvel};
  }

  struct Summary {
    double mass = 0, ie = 0, ke = 0, vmax = 0, press = 0;
  };

  /// Reduces this rank's share of the field summary into `s`.
  void field_summary(Summary& s) {
    const double v = vol;
    ops::par_loop(
        {"field_summary", 12.0}, block, cells(),
        [v](ops::Acc<const double> d, ops::Acc<const double> e,
            ops::Acc<const double> p, ops::Acc<const double> u,
            ops::Acc<const double> w, double& mass, double& ie, double& ke,
            double& press) {
          mass += d(0, 0) * v;
          ie += d(0, 0) * e(0, 0) * v;
          const double uc = 0.5 * (u(0, 0) + u(1, 1));
          const double wc = 0.5 * (w(0, 0) + w(1, 1));
          ke += 0.5 * d(0, 0) * (uc * uc + wc * wc) * v;
          press += p(0, 0) * v;
        },
        ops::read(density), ops::read(energy), ops::read(pressure),
        ops::read(xvel, ops::Stencil::box(2, 1)),
        ops::read(yvel, ops::Stencil::box(2, 1)), ops::reduce_sum(s.mass),
        ops::reduce_sum(s.ie), ops::reduce_sum(s.ke),
        ops::reduce_sum(s.press));
  }

  /// The global summary from this rank's field_summary share.
  Summary finish_summary(Summary s) {
    if (ctx.comm() != nullptr) {
      double vals[4] = {s.mass, s.ie, s.ke, s.press};
      ctx.comm()->allreduce(vals, 4, par::ReduceOp::Sum);
      s.mass = vals[0];
      s.ie = vals[1];
      s.ke = vals[2];
      s.press = vals[3];
    }
    return s;
  }

  /// One full hydro step: Lagrangian phase + advective remap.
  void step(double dt) {
    ideal_gas();
    calc_viscosity();
    accelerate(dt);
    wall_bcs();
    flux_calc_x(dt);
    flux_calc_y(dt);
    advec_donor_x();
    advec_update_x();
    advec_donor_y();
    advec_update_y();
    advec_mom_x(dt);
    advec_mom_y(dt);
    wall_bcs();
  }
};

}  // namespace

Result run(const Options& opt) {
  apply_robustness(opt);
  Result result;
  // Buddy board: each rank mirrors its committed checkpoints here, so a
  // crashed rank restores from its buddy's copy (apps/resilient_loop).
  resil::buddy_resize(opt.ranks > 0 ? opt.ranks : 1);

  auto run_rank = [&](par::Comm* comm) {
    const int rank = comm ? comm->rank() : 0;
    std::unique_ptr<ops::Context> ctx =
        comm ? std::make_unique<ops::Context>(*comm, opt.threads)
             : std::make_unique<ops::Context>(opt.threads);
    // Tiled chains need halo depth >= the chain's accumulated radius.
    const int depth = opt.tiled ? 16 : 2;
    if (opt.tile_cache_bytes > 0)
      ctx->set_tile_cache_bytes(opt.tile_cache_bytes);
    Solver s(*ctx, opt.n, depth);
    s.initialize();
    // Consistency across ranks is structural: every step holds
    // collective allreduces (finish_dt, finish_summary), so no rank can
    // commit checkpoint K before every rank finished step K-1.
    ops::CheckpointStore store;
    Timer timer;
    Solver::Summary sum;
    ResilientLoop lp;
    lp.rank = rank;
    lp.comm = comm;
    lp.iterations = opt.iterations;
    lp.checkpoint_every = opt.checkpoint_every;
    lp.store = &store;
    cloverleaf::StepChain<Solver> steps(s, *ctx, opt.tiled, opt.tile_size,
                                        opt.iterations);
    lp.step = [&](long long it) { sum = steps.step(it); };
    lp.capture = [&](long long it) {
      store.begin(it);
      for (ops::Dat<double>* d : s.fields()) store.capture(*d);
      store.commit();
    };
    lp.restore = [&] {
      for (ops::Dat<double>* d : s.fields()) store.restore(*d);
      steps.clear();
    };
    lp.reinit = [&] {
      s.initialize();
      steps.clear();
    };
    const LoopRun run = run_resilient_loop(lp);
    if (rank == 0) {
      result.elapsed = timer.elapsed();
      result.metrics["mass"] = sum.mass;
      result.metrics["internal_energy"] = sum.ie;
      result.metrics["kinetic_energy"] = sum.ke;
      result.metrics["pressure_integral"] = sum.press;
      result.metrics["rollbacks"] = static_cast<double>(run.rollbacks);
      result.metrics["buddy_restores"] =
          static_cast<double>(run.buddy_restores);
      result.checksum = sum.mass + sum.ie + sum.ke;
      result.instr = ctx->instr();
      if (comm) result.comm_seconds = comm->comm_seconds();
    }
  };

  if (opt.ranks > 1)
    result.rank_stats =
        run_distributed(opt, [&](par::Comm& c) { run_rank(&c); });
  else
    run_rank(nullptr);
  return result;
}

}  // namespace bwlab::apps::clover2d
