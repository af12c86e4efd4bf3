#include "apps/cloverleaf/cloverleaf3d.hpp"

#include <algorithm>

#include "apps/cloverleaf/time_step.hpp"
#include "apps/resilient_loop.hpp"
#include "common/resil.hpp"
#include "common/timer.hpp"
#include "ops/checkpoint.hpp"
#include "ops/par_loop.hpp"

namespace bwlab::apps::clover3d {

namespace {

constexpr double kGamma = 1.4;
constexpr double kCfl = 0.15;
constexpr double kViscCoef = 2.0;

struct Solver {
  ops::Context& ctx;
  idx_t n;
  double dx, vol;
  ops::Block block;

  ops::Dat<double> density, energy, pressure, soundspeed, viscosity;
  ops::Dat<double> xvel, yvel, zvel, xvel1, yvel1, zvel1;
  ops::Dat<double> flux_x, flux_y, flux_z;      // volume fluxes
  ops::Dat<double> mflux, eflux;                // per-sweep mass/energy flux

  Solver(ops::Context& c, idx_t n_, int depth)
      : ctx(c), n(n_), dx(10.0 / static_cast<double>(n_)),
        vol(dx * dx * dx), block(c, "clover3d", 3, {n_, n_, n_}),
        density(block, "density", depth),
        energy(block, "energy", depth),
        pressure(block, "pressure", depth),
        soundspeed(block, "soundspeed", depth),
        viscosity(block, "viscosity", depth),
        xvel(block, "xvel", depth, {1, 1, 1}),
        yvel(block, "yvel", depth, {1, 1, 1}),
        zvel(block, "zvel", depth, {1, 1, 1}),
        xvel1(block, "xvel1", depth, {1, 1, 1}),
        yvel1(block, "yvel1", depth, {1, 1, 1}),
        zvel1(block, "zvel1", depth, {1, 1, 1}),
        flux_x(block, "flux_x", depth, {1, 0, 0}),
        flux_y(block, "flux_y", depth, {0, 1, 0}),
        flux_z(block, "flux_z", depth, {0, 0, 1}),
        mflux(block, "mflux", depth, {1, 1, 1}),
        eflux(block, "eflux", depth, {1, 1, 1}) {
    for (ops::Dat<double>* d :
         {&density, &energy, &pressure, &soundspeed, &viscosity, &mflux,
          &eflux, &flux_x, &flux_y, &flux_z})
      d->set_bc_all(ops::Bc::Reflect);
    auto set_vel_bc = [](ops::Dat<double>& d, int normal_dim) {
      for (int dim = 0; dim < 3; ++dim)
        for (int side = 0; side < 2; ++side)
          d.set_bc(dim, side,
                   dim == normal_dim ? ops::Bc::ReflectNeg : ops::Bc::Reflect);
    };
    set_vel_bc(xvel, 0);
    set_vel_bc(xvel1, 0);
    set_vel_bc(yvel, 1);
    set_vel_bc(yvel1, 1);
    set_vel_bc(zvel, 2);
    set_vel_bc(zvel1, 2);
  }

  ops::Range cells() const {
    return ops::Range::make3d(0, n, 0, n, 0, n);
  }
  ops::Range nodes() const {
    return ops::Range::make3d(0, n + 1, 0, n + 1, 0, n + 1);
  }

  void initialize() {
    const double dxl = dx;
    density.fill_indexed([dxl](idx_t i, idx_t j, idx_t k) {
      const double x = (static_cast<double>(i) + 0.5) * dxl;
      const double y = (static_cast<double>(j) + 0.5) * dxl;
      const double z = (static_cast<double>(k) + 0.5) * dxl;
      return (x < 2.5 && y < 2.5 && z < 2.5) ? 1.0 : 0.2;
    });
    energy.fill_indexed([dxl](idx_t i, idx_t j, idx_t k) {
      const double x = (static_cast<double>(i) + 0.5) * dxl;
      const double y = (static_cast<double>(j) + 0.5) * dxl;
      const double z = (static_cast<double>(k) + 0.5) * dxl;
      return (x < 2.5 && y < 2.5 && z < 2.5) ? 2.5 : 1.0;
    });
    for (ops::Dat<double>* d :
         {&pressure, &soundspeed, &viscosity, &xvel, &yvel, &zvel, &xvel1,
          &yvel1, &zvel1, &flux_x, &flux_y, &flux_z, &mflux, &eflux})
      d->fill(0.0);
  }

  /// Pressure, and the squared sound speed (cloverleaf::sound_speed_sq).
  void ideal_gas() {
    ops::par_loop(
        {"ideal_gas3", 7.0}, block, cells(),
        [](ops::Acc<const double> d, ops::Acc<const double> e,
           ops::Acc<double> p, ops::Acc<double> c) {
          p(0, 0, 0) = (kGamma - 1.0) * d(0, 0, 0) * e(0, 0, 0);
          c(0, 0, 0) =
              cloverleaf::sound_speed_sq(kGamma, p(0, 0, 0), d(0, 0, 0));
        },
        ops::read(density), ops::read(energy), ops::write(pressure),
        ops::write(soundspeed));
  }

  void calc_viscosity() {
    const double coef = kViscCoef, dxl = dx;
    ops::par_loop(
        {"viscosity3", 20.0}, block, cells(),
        [coef, dxl](ops::Acc<const double> u, ops::Acc<const double> v,
                    ops::Acc<const double> w, ops::Acc<const double> d,
                    ops::Acc<double> q) {
          const double dudx = 0.25 *
                              (u(1, 0, 0) + u(1, 1, 0) + u(1, 0, 1) +
                               u(1, 1, 1) - u(0, 0, 0) - u(0, 1, 0) -
                               u(0, 0, 1) - u(0, 1, 1)) /
                              dxl;
          const double dvdy = 0.25 *
                              (v(0, 1, 0) + v(1, 1, 0) + v(0, 1, 1) +
                               v(1, 1, 1) - v(0, 0, 0) - v(1, 0, 0) -
                               v(0, 0, 1) - v(1, 0, 1)) /
                              dxl;
          const double dwdz = 0.25 *
                              (w(0, 0, 1) + w(1, 0, 1) + w(0, 1, 1) +
                               w(1, 1, 1) - w(0, 0, 0) - w(1, 0, 0) -
                               w(0, 1, 0) - w(1, 1, 0)) /
                              dxl;
          const double div = dudx + dvdy + dwdz;
          // Operands selected instead of the product, as in CloverLeaf 2D:
          // off compression the product is +0 whatever d holds.
          const double d0 = d(0, 0, 0);
          const double dc = div < 0.0 ? d0 : 0.0;
          const double vc = div < 0.0 ? div : 0.0;
          q(0, 0, 0) = coef * dc * vc * vc * dxl * dxl;
        },
        ops::read(xvel, ops::Stencil::box(3, 1)),
        ops::read(yvel, ops::Stencil::box(3, 1)),
        ops::read(zvel, ops::Stencil::box(3, 1)), ops::read(density),
        ops::write(viscosity));
  }

  /// Reduces the rank's largest signal speed, rooted from the stored c²,
  /// into `speed_max` (start it at cloverleaf::kNoSpeed); finish_dt
  /// divides once.
  void calc_dt(double& speed_max) {
    ops::par_loop(
        {"calc_dt3", 10.0}, block, cells(),
        [](ops::Acc<const double> c, ops::Acc<const double> u,
           ops::Acc<const double> v, ops::Acc<const double> w, double& sm) {
          sm = std::max(sm, cloverleaf::signal_speed(c(0, 0, 0), u(0, 0, 0),
                                                     v(0, 0, 0), w(0, 0, 0)));
        },
        ops::read(soundspeed), ops::read(xvel, ops::Stencil::box(3, 1)),
        ops::read(yvel, ops::Stencil::box(3, 1)),
        ops::read(zvel, ops::Stencil::box(3, 1)),
        ops::reduce_max(speed_max));
  }

  /// The global time step from this rank's calc_dt speed.
  double finish_dt(double speed_max) {
    double dt_min = cloverleaf::dt_bound(dx, speed_max);
    if (ctx.comm() != nullptr) dt_min = ctx.comm()->allreduce_min(dt_min);
    return kCfl * dt_min;
  }

  void accelerate(double dt) {
    const double dxl = dx;
    ops::par_loop(
        {"accelerate3", 40.0}, block, nodes(),
        [dt, dxl](ops::Acc<const double> d, ops::Acc<const double> p,
                  ops::Acc<const double> q, ops::Acc<double> u,
                  ops::Acc<double> v, ops::Acc<double> w) {
          double davg = 1e-30, dpx = 0, dpy = 0, dpz = 0;
          for (int b = 0; b < 2; ++b)
            for (int a = 0; a < 2; ++a) {
              davg += 0.125 * (d(-1, a - 1, b - 1) + d(0, a - 1, b - 1));
              dpx += 0.25 * (p(0, a - 1, b - 1) - p(-1, a - 1, b - 1) +
                             q(0, a - 1, b - 1) - q(-1, a - 1, b - 1));
              dpy += 0.25 * (p(a - 1, 0, b - 1) - p(a - 1, -1, b - 1) +
                             q(a - 1, 0, b - 1) - q(a - 1, -1, b - 1));
              dpz += 0.25 * (p(a - 1, b - 1, 0) - p(a - 1, b - 1, -1) +
                             q(a - 1, b - 1, 0) - q(a - 1, b - 1, -1));
            }
          u(0, 0, 0) -= dt * dpx / (dxl * davg);
          v(0, 0, 0) -= dt * dpy / (dxl * davg);
          w(0, 0, 0) -= dt * dpz / (dxl * davg);
        },
        ops::read(density, ops::Stencil::box(3, 1)),
        ops::read(pressure, ops::Stencil::box(3, 1)),
        ops::read(viscosity, ops::Stencil::box(3, 1)),
        ops::read_write(xvel), ops::read_write(yvel), ops::read_write(zvel));
  }

  void wall_bcs() {
    auto zero = [](ops::Acc<double> a) { a(0, 0, 0) = 0.0; };
    const idx_t m = n;
    ops::par_loop({"wall_x_lo3", 0.0}, block,
                  ops::Range::make3d(0, 1, 0, m + 1, 0, m + 1), zero,
                  ops::write(xvel));
    ops::par_loop({"wall_x_hi3", 0.0}, block,
                  ops::Range::make3d(m, m + 1, 0, m + 1, 0, m + 1), zero,
                  ops::write(xvel));
    ops::par_loop({"wall_y_lo3", 0.0}, block,
                  ops::Range::make3d(0, m + 1, 0, 1, 0, m + 1), zero,
                  ops::write(yvel));
    ops::par_loop({"wall_y_hi3", 0.0}, block,
                  ops::Range::make3d(0, m + 1, m, m + 1, 0, m + 1), zero,
                  ops::write(yvel));
    ops::par_loop({"wall_z_lo3", 0.0}, block,
                  ops::Range::make3d(0, m + 1, 0, m + 1, 0, 1), zero,
                  ops::write(zvel));
    ops::par_loop({"wall_z_hi3", 0.0}, block,
                  ops::Range::make3d(0, m + 1, 0, m + 1, m, m + 1), zero,
                  ops::write(zvel));
  }

  void flux_calc(double dt) {
    const double a = 0.25 * dt * dx * dx;
    ops::par_loop(
        {"flux_calc_x3", 6.0}, block,
        ops::Range::make3d(0, n + 1, 0, n, 0, n),
        [a](ops::Acc<const double> u, ops::Acc<double> f) {
          f(0, 0, 0) =
              a * (u(0, 0, 0) + u(0, 1, 0) + u(0, 0, 1) + u(0, 1, 1));
        },
        ops::read(xvel, ops::Stencil::radii({0, 1, 1}, 4)),
        ops::write(flux_x));
    ops::par_loop(
        {"flux_calc_y3", 6.0}, block,
        ops::Range::make3d(0, n, 0, n + 1, 0, n),
        [a](ops::Acc<const double> v, ops::Acc<double> f) {
          f(0, 0, 0) =
              a * (v(0, 0, 0) + v(1, 0, 0) + v(0, 0, 1) + v(1, 0, 1));
        },
        ops::read(yvel, ops::Stencil::radii({1, 0, 1}, 4)),
        ops::write(flux_y));
    ops::par_loop(
        {"flux_calc_z3", 6.0}, block,
        ops::Range::make3d(0, n, 0, n, 0, n + 1),
        [a](ops::Acc<const double> w, ops::Acc<double> f) {
          f(0, 0, 0) =
              a * (w(0, 0, 0) + w(1, 0, 0) + w(0, 1, 0) + w(1, 1, 0));
        },
        ops::read(zvel, ops::Stencil::radii({1, 1, 0}, 4)),
        ops::write(flux_z));
  }

  /// One directional advection sweep (donor-cell) along dimension `dim`.
  template <int Dim>
  void advec_sweep(const char* name, ops::Dat<double>& fdat) {
    constexpr int di = Dim == 0 ? 1 : 0;
    constexpr int dj = Dim == 1 ? 1 : 0;
    constexpr int dk = Dim == 2 ? 1 : 0;
    // Donor fluxes on faces.
    ops::Range frange = cells();
    frange.hi[static_cast<std::size_t>(Dim)] += 1;
    ops::par_loop(
        {std::string(name) + "_donor", 4.0}, block, frange,
        [](ops::Acc<const double> f, ops::Acc<const double> d,
           ops::Acc<const double> e, ops::Acc<double> mf,
           ops::Acc<double> ef) {
          const double fl = f(0, 0, 0);
          // Both donor candidates are loaded before the select, so the
          // row vectorizes (a conditional load would not).
          const double dm = d(-di, -dj, -dk), d0 = d(0, 0, 0);
          const double em = e(-di, -dj, -dk), e0 = e(0, 0, 0);
          const double dd = fl > 0.0 ? dm : d0;
          const double de = fl > 0.0 ? em : e0;
          mf(0, 0, 0) = fl * dd;
          ef(0, 0, 0) = fl * dd * de;
        },
        ops::read(fdat), ops::read(density, ops::Stencil::star(3, 1)),
        ops::read(energy, ops::Stencil::star(3, 1)), ops::write(mflux),
        ops::write(eflux));
    const double v = vol;
    ops::par_loop(
        {std::string(name) + "_update", 10.0}, block, cells(),
        [v](ops::Acc<const double> mf, ops::Acc<const double> ef,
            ops::Acc<double> d, ops::Acc<double> e) {
          const double m_old = d(0, 0, 0) * v;
          const double m_new = m_old + mf(0, 0, 0) - mf(di, dj, dk);
          const double en =
              (m_old * e(0, 0, 0) + ef(0, 0, 0) - ef(di, dj, dk)) / m_new;
          d(0, 0, 0) = m_new / v;
          e(0, 0, 0) = en;
        },
        ops::read(mflux, ops::Stencil::star(3, 1)),
        ops::read(eflux, ops::Stencil::star(3, 1)),
        ops::read_write(density), ops::read_write(energy));
  }

  void advec_mom(double dt) {
    const double c = dt / dx;
    ops::par_loop(
        {"advec_mom3_a", 30.0}, block, nodes(),
        [c](ops::Acc<const double> u, ops::Acc<const double> v,
            ops::Acc<const double> w, ops::Acc<double> u1,
            ops::Acc<double> v1, ops::Acc<double> w1) {
          // The upwind select picks the operands of the one-sided
          // difference, which is taken once (see CloverLeaf 2D's
          // advec_mom_x). Every select comes before any difference: with
          // a difference between them, GCC's jump threading rebuilt the
          // branches.
          const double um = u(-1, 0, 0), u0 = u(0, 0, 0), up = u(1, 0, 0);
          const double vm = v(-1, 0, 0), v0 = v(0, 0, 0), vp = v(1, 0, 0);
          const double wm = w(-1, 0, 0), w0 = w(0, 0, 0), wp = w(1, 0, 0);
          const double a = u0;
          const bool wind = a > 0.0;
          const double uh = wind ? u0 : up, ul = wind ? um : u0;
          const double vh = wind ? v0 : vp, vl = wind ? vm : v0;
          const double wh = wind ? w0 : wp, wl = wind ? wm : w0;
          u1(0, 0, 0) = u0 - c * a * (uh - ul);
          v1(0, 0, 0) = v0 - c * a * (vh - vl);
          w1(0, 0, 0) = w0 - c * a * (wh - wl);
        },
        ops::read(xvel, ops::Stencil::star(3, 1)),
        ops::read(yvel, ops::Stencil::star(3, 1)),
        ops::read(zvel, ops::Stencil::star(3, 1)), ops::write(xvel1),
        ops::write(yvel1), ops::write(zvel1));
    ops::par_loop(
        {"advec_mom3_b", 30.0}, block, nodes(),
        [c](ops::Acc<const double> u1, ops::Acc<const double> v1,
            ops::Acc<const double> w1, ops::Acc<double> u,
            ops::Acc<double> v, ops::Acc<double> w) {
          const double ay = v1(0, 0, 0), az = w1(0, 0, 0);
          const bool wy = ay > 0.0, wz = az > 0.0;
          auto upy = [&](ops::Acc<const double>& q) {
            const double qm = q(0, -1, 0), q0 = q(0, 0, 0), qp = q(0, 1, 0);
            const double hi = wy ? q0 : qp, lo = wy ? qm : q0;
            return hi - lo;
          };
          auto upz = [&](ops::Acc<const double>& q) {
            const double qm = q(0, 0, -1), q0 = q(0, 0, 0), qp = q(0, 0, 1);
            const double hi = wz ? q0 : qp, lo = wz ? qm : q0;
            return hi - lo;
          };
          u(0, 0, 0) = u1(0, 0, 0) - c * (ay * upy(u1) + az * upz(u1));
          v(0, 0, 0) = v1(0, 0, 0) - c * (ay * upy(v1) + az * upz(v1));
          w(0, 0, 0) = w1(0, 0, 0) - c * (ay * upy(w1) + az * upz(w1));
        },
        ops::read(xvel1, ops::Stencil::star(3, 1)),
        ops::read(yvel1, ops::Stencil::star(3, 1)),
        ops::read(zvel1, ops::Stencil::star(3, 1)), ops::write(xvel),
        ops::write(yvel), ops::write(zvel));
  }

  struct Summary {
    double mass = 0, ie = 0, ke = 0;
  };
  /// Reduces this rank's share of the field summary into `s`.
  void field_summary(Summary& s) {
    const double v = vol;
    ops::par_loop(
        {"field_summary3", 16.0}, block, cells(),
        [v](ops::Acc<const double> d, ops::Acc<const double> e,
            ops::Acc<const double> u, ops::Acc<const double> w,
            ops::Acc<const double> z, double& mass, double& ie, double& ke) {
          mass += d(0, 0, 0) * v;
          ie += d(0, 0, 0) * e(0, 0, 0) * v;
          const double uc = 0.5 * (u(0, 0, 0) + u(1, 1, 1));
          const double vc = 0.5 * (w(0, 0, 0) + w(1, 1, 1));
          const double wc = 0.5 * (z(0, 0, 0) + z(1, 1, 1));
          ke += 0.5 * d(0, 0, 0) * (uc * uc + vc * vc + wc * wc) * v;
        },
        ops::read(density), ops::read(energy),
        ops::read(xvel, ops::Stencil::box(3, 1)),
        ops::read(yvel, ops::Stencil::box(3, 1)),
        ops::read(zvel, ops::Stencil::box(3, 1)), ops::reduce_sum(s.mass),
        ops::reduce_sum(s.ie), ops::reduce_sum(s.ke));
  }

  /// The global summary from this rank's field_summary share.
  Summary finish_summary(Summary s) {
    if (ctx.comm() != nullptr) {
      double vals[3] = {s.mass, s.ie, s.ke};
      ctx.comm()->allreduce(vals, 3, par::ReduceOp::Sum);
      s.mass = vals[0];
      s.ie = vals[1];
      s.ke = vals[2];
    }
    return s;
  }

  void step(double dt) {
    ideal_gas();
    calc_viscosity();
    accelerate(dt);
    wall_bcs();
    flux_calc(dt);
    advec_sweep<0>("advec_x3", flux_x);
    advec_sweep<1>("advec_y3", flux_y);
    advec_sweep<2>("advec_z3", flux_z);
    advec_mom(dt);
    wall_bcs();
  }

  /// Every evolving field, in a fixed order — the checkpoint unit.
  std::array<ops::Dat<double>*, 16> fields() {
    return {&density, &energy, &pressure, &soundspeed, &viscosity,
            &xvel, &yvel, &zvel, &xvel1, &yvel1, &zvel1,
            &flux_x, &flux_y, &flux_z, &mflux, &eflux};
  }
};

}  // namespace

Result run(const Options& opt) {
  apply_robustness(opt);
  Result result;
  // Buddy board for the checkpoint mirrors, as in CloverLeaf 2D.
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

}  // namespace bwlab::apps::clover3d
