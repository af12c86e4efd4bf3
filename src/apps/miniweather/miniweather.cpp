#include "apps/miniweather/miniweather.hpp"

#include <array>
#include <cmath>

#include "apps/resilient_loop.hpp"
#include "common/resil.hpp"
#include "common/timer.hpp"
#include "ops/checkpoint.hpp"
#include "ops/par_loop.hpp"

namespace bwlab::apps::miniweather {

namespace {

constexpr double kGrav = 9.8;
constexpr double kCp = 1004.0;
constexpr double kRd = 287.0;
constexpr double kP0 = 1.0e5;
constexpr double kTheta0 = 300.0;
constexpr double kGammaAtm = kCp / (kCp - kRd);
// p = C0 (rho theta)^gamma
const double kC0 = std::pow(kRd * std::pow(kP0, -kRd / kCp), kGammaAtm);

constexpr int kNvar = 4;  // rho', rho*u, rho*w, (rho theta)'

// 4th-order interface interpolation: (-f(-2) + 7f(-1) + 7f(0) - f(1))/12,
// and the 3rd-derivative hyperviscosity difference.
inline double interp4(double m2, double m1, double p0, double p1) {
  return (-m2 + 7.0 * (m1 + p0) - p1) / 12.0;
}
inline double d3(double m2, double m1, double p0, double p1) {
  return -m2 + 3.0 * (m1 - p0) + p1;
}

/// Hydrostatic dry-isentropic background at height z.
struct Background {
  double dens, dens_theta;
};
Background hydrostatic(double z) {
  const double exner = 1.0 - kGrav * z / (kCp * kTheta0);
  const double p = kP0 * std::pow(exner, kCp / kRd);
  const double rt = std::pow(p / kC0, 1.0 / kGammaAtm);  // rho*theta
  return {rt / kTheta0, rt};
}

using DatArr = std::array<ops::Dat<double>, kNvar>;

struct Solver {
  ops::Context& ctx;
  idx_t nx, nz;
  double dx, dz, dt, hv;
  ops::Block block;
  DatArr state, state_tmp;
  DatArr fx;  // x-interface fluxes (staggered in x)
  DatArr fz;  // z-interface fluxes (staggered in z)
  ops::Dat<double> hy_dens, hy_dens_theta;        // cell-centered background
  ops::Dat<double> hy_dens_i, hy_dens_theta_i;    // z-interface background

  static DatArr make(ops::Block& b, const char* base, int depth,
                     std::array<int, 3> stag) {
    return DatArr{ops::Dat<double>(b, std::string(base) + "0", depth, stag),
                  ops::Dat<double>(b, std::string(base) + "1", depth, stag),
                  ops::Dat<double>(b, std::string(base) + "2", depth, stag),
                  ops::Dat<double>(b, std::string(base) + "3", depth, stag)};
  }

  Solver(ops::Context& c, idx_t nx_, idx_t nz_)
      : ctx(c), nx(nx_), nz(nz_), dx(20000.0 / static_cast<double>(nx_)),
        dz(10000.0 / static_cast<double>(nz_)),
        dt(0.35 * std::min(dx, dz) / 350.0),  // sound-speed CFL
        hv(0.25 * std::min(dx, dz) / dt / 16.0),  // miniWeather's hv_beta*dx/(16 dt)
        block(c, "miniweather", 2, {nx_, nz_, 1}),
        state(make(block, "state", 2, {0, 0, 0})),
        state_tmp(make(block, "state_tmp", 2, {0, 0, 0})),
        fx(make(block, "flux_x", 2, {1, 0, 0})),
        fz(make(block, "flux_z", 2, {0, 1, 0})),
        hy_dens(block, "hy_dens", 2),
        hy_dens_theta(block, "hy_dens_theta", 2),
        hy_dens_i(block, "hy_dens_i", 2, {0, 1, 0}),
        hy_dens_theta_i(block, "hy_dens_theta_i", 2, {0, 1, 0}) {
    for (DatArr* a : {&state, &state_tmp}) {
      for (int v = 0; v < kNvar; ++v) {
        ops::Dat<double>& d = (*a)[static_cast<std::size_t>(v)];
        d.set_bc(0, 0, ops::Bc::Periodic);
        d.set_bc(0, 1, ops::Bc::Periodic);
        // Solid walls: vertical momentum is antisymmetric and everything
        // else symmetric — this makes both the 4th-order interpolant of
        // rho*w and the hyperviscosity differences of the symmetric
        // fields vanish exactly at the walls, so wall mass/theta fluxes
        // are identically zero (exact conservation).
        d.set_bc(1, 0, v == 2 ? ops::Bc::ReflectNeg : ops::Bc::Reflect);
        d.set_bc(1, 1, v == 2 ? ops::Bc::ReflectNeg : ops::Bc::Reflect);
      }
    }
    const double dzl = dz;
    hy_dens.fill_indexed([dzl](idx_t, idx_t k, idx_t) {
      return hydrostatic((static_cast<double>(k) + 0.5) * dzl).dens;
    });
    hy_dens_theta.fill_indexed([dzl](idx_t, idx_t k, idx_t) {
      return hydrostatic((static_cast<double>(k) + 0.5) * dzl).dens_theta;
    });
    hy_dens_i.fill_indexed([dzl](idx_t, idx_t k, idx_t) {
      return hydrostatic(static_cast<double>(k) * dzl).dens;
    });
    hy_dens_theta_i.fill_indexed([dzl](idx_t, idx_t k, idx_t) {
      return hydrostatic(static_cast<double>(k) * dzl).dens_theta;
    });
    hy_dens.set_bc(1, 0, ops::Bc::CopyNearest);
    // Background dats get zero-gradient fills everywhere (periodic in x
    // is equivalent since they are x-constant).
    for (ops::Dat<double>* d :
         {&hy_dens, &hy_dens_theta, &hy_dens_i, &hy_dens_theta_i})
      d->set_bc_all(ops::Bc::CopyNearest);
  }

  ops::Range cells() const { return ops::Range::make2d(0, nx, 0, nz); }

  void initialize() {
    // Warm bubble: theta perturbation ellipse at the lower middle.
    const double dxl = dx, dzl = dz;
    for (int v = 0; v < kNvar; ++v)
      state[static_cast<std::size_t>(v)].fill(0.0);
    state[3].fill_indexed([dxl, dzl](idx_t i, idx_t k, idx_t) {
      const double x = (static_cast<double>(i) + 0.5) * dxl;
      const double z = (static_cast<double>(k) + 0.5) * dzl;
      const double rx = (x - 10000.0) / 2000.0;
      const double rz = (z - 2000.0) / 2000.0;
      const double r = std::sqrt(rx * rx + rz * rz);
      const double dtheta = r <= 1.0
                                ? 3.0 * std::cos(0.5 * M_PI * r) *
                                      std::cos(0.5 * M_PI * r)
                                : 0.0;
      return hydrostatic(z).dens * dtheta;
    });
    for (int v = 0; v < kNvar; ++v)
      state_tmp[static_cast<std::size_t>(v)].fill(0.0);
    for (DatArr* a : {&fx, &fz})
      for (ops::Dat<double>& d : *a) d.fill(0.0);
  }

  void compute_flux_x(DatArr& s) {
    const double hvl = hv;
    ops::par_loop(
        {"flux_x", 70.0}, block, ops::Range::make2d(0, nx + 1, 0, nz),
        [hvl](ops::Acc<const double> r, ops::Acc<const double> ru,
              ops::Acc<const double> rw, ops::Acc<const double> rt,
              ops::Acc<const double> hr, ops::Acc<const double> hrt,
              ops::Acc<double> f0, ops::Acc<double> f1, ops::Acc<double> f2,
              ops::Acc<double> f3) {
          // Interface value: cells -2,-1,0,1 relative to the interface.
          const double rho =
              interp4(r(-2, 0), r(-1, 0), r(0, 0), r(1, 0)) + hr(0, 0);
          const double rum = interp4(ru(-2, 0), ru(-1, 0), ru(0, 0), ru(1, 0));
          const double rwm = interp4(rw(-2, 0), rw(-1, 0), rw(0, 0), rw(1, 0));
          const double rtm =
              interp4(rt(-2, 0), rt(-1, 0), rt(0, 0), rt(1, 0)) + hrt(0, 0);
          const double u = rum / rho;
          const double p = kC0 * std::pow(rtm, kGammaAtm);
          f0(0, 0) = rum + hvl * d3(r(-2, 0), r(-1, 0), r(0, 0), r(1, 0));
          f1(0, 0) = rum * u + p +
                     hvl * d3(ru(-2, 0), ru(-1, 0), ru(0, 0), ru(1, 0));
          f2(0, 0) = rwm * u +
                     hvl * d3(rw(-2, 0), rw(-1, 0), rw(0, 0), rw(1, 0));
          f3(0, 0) = rtm * u +
                     hvl * d3(rt(-2, 0), rt(-1, 0), rt(0, 0), rt(1, 0));
        },
        ops::read(s[0], ops::Stencil::radii({2, 0, 0}, 4)),
        ops::read(s[1], ops::Stencil::radii({2, 0, 0}, 4)),
        ops::read(s[2], ops::Stencil::radii({2, 0, 0}, 4)),
        ops::read(s[3], ops::Stencil::radii({2, 0, 0}, 4)),
        // The interface loop runs one past the last cell; declaring a
        // 1-wide stencil makes the runtime fill the background ghosts.
        ops::read(hy_dens, ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read(hy_dens_theta, ops::Stencil::radii({1, 0, 0}, 2)),
        ops::write(fx[0]),
        ops::write(fx[1]), ops::write(fx[2]), ops::write(fx[3]));
  }

  void compute_flux_z(DatArr& s) {
    const double hvl = hv;
    ops::par_loop(
        {"flux_z", 70.0}, block, ops::Range::make2d(0, nx, 0, nz + 1),
        [hvl](ops::Acc<const double> r, ops::Acc<const double> ru,
              ops::Acc<const double> rw, ops::Acc<const double> rt,
              ops::Acc<const double> hri, ops::Acc<const double> hrti,
              ops::Acc<double> f0, ops::Acc<double> f1, ops::Acc<double> f2,
              ops::Acc<double> f3) {
          const double rho =
              interp4(r(0, -2), r(0, -1), r(0, 0), r(0, 1)) + hri(0, 0);
          const double rum = interp4(ru(0, -2), ru(0, -1), ru(0, 0), ru(0, 1));
          const double rwm = interp4(rw(0, -2), rw(0, -1), rw(0, 0), rw(0, 1));
          const double rtm =
              interp4(rt(0, -2), rt(0, -1), rt(0, 0), rt(0, 1)) + hrti(0, 0);
          const double w = rwm / rho;
          const double p = kC0 * std::pow(rtm, kGammaAtm);
          const double p0z = kC0 * std::pow(hrti(0, 0), kGammaAtm);
          f0(0, 0) = rwm + hvl * d3(r(0, -2), r(0, -1), r(0, 0), r(0, 1));
          f1(0, 0) = rum * w +
                     hvl * d3(ru(0, -2), ru(0, -1), ru(0, 0), ru(0, 1));
          f2(0, 0) = rwm * w + (p - p0z) +
                     hvl * d3(rw(0, -2), rw(0, -1), rw(0, 0), rw(0, 1));
          f3(0, 0) = rtm * w +
                     hvl * d3(rt(0, -2), rt(0, -1), rt(0, 0), rt(0, 1));
        },
        ops::read(s[0], ops::Stencil::radii({0, 2, 0}, 4)),
        ops::read(s[1], ops::Stencil::radii({0, 2, 0}, 4)),
        ops::read(s[2], ops::Stencil::radii({0, 2, 0}, 4)),
        ops::read(s[3], ops::Stencil::radii({0, 2, 0}, 4)),
        ops::read(hy_dens_i), ops::read(hy_dens_theta_i), ops::write(fz[0]),
        ops::write(fz[1]), ops::write(fz[2]), ops::write(fz[3]));
  }

  /// dst = src + dt_stage * tend(fluxes, gravity).
  void apply_tend(DatArr& dst, DatArr& src, double dts) {
    const double idx = dts / dx, idz = dts / dz;
    ops::par_loop(
        {"update", 24.0}, block, cells(),
        [idx, idz, dts](
            ops::Acc<const double> s0, ops::Acc<const double> s1,
            ops::Acc<const double> s2, ops::Acc<const double> s3,
            ops::Acc<const double> src0, ops::Acc<const double> fx0,
            ops::Acc<const double> fx1,
            ops::Acc<const double> fx2, ops::Acc<const double> fx3,
            ops::Acc<const double> fz0, ops::Acc<const double> fz1,
            ops::Acc<const double> fz2, ops::Acc<const double> fz3,
            ops::Acc<double> d0, ops::Acc<double> d1, ops::Acc<double> d2,
            ops::Acc<double> d3a) {
          const double t0 = -(fx0(1, 0) - fx0(0, 0)) * idx -
                            (fz0(0, 1) - fz0(0, 0)) * idz;
          const double t1 = -(fx1(1, 0) - fx1(0, 0)) * idx -
                            (fz1(0, 1) - fz1(0, 0)) * idz;
          const double t2 = -(fx2(1, 0) - fx2(0, 0)) * idx -
                            (fz2(0, 1) - fz2(0, 0)) * idz -
                            dts * kGrav * src0(0, 0);
          const double t3 = -(fx3(1, 0) - fx3(0, 0)) * idx -
                            (fz3(0, 1) - fz3(0, 0)) * idz;
          d0(0, 0) = s0(0, 0) + t0;
          d1(0, 0) = s1(0, 0) + t1;
          d2(0, 0) = s2(0, 0) + t2;
          d3a(0, 0) = s3(0, 0) + t3;
        },
        ops::read(state[0]), ops::read(state[1]), ops::read(state[2]),
        ops::read(state[3]), ops::read(src[0]),
        ops::read(fx[0], ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read(fx[1], ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read(fx[2], ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read(fx[3], ops::Stencil::radii({1, 0, 0}, 2)),
        ops::read(fz[0], ops::Stencil::radii({0, 1, 0}, 2)),
        ops::read(fz[1], ops::Stencil::radii({0, 1, 0}, 2)),
        ops::read(fz[2], ops::Stencil::radii({0, 1, 0}, 2)),
        ops::read(fz[3], ops::Stencil::radii({0, 1, 0}, 2)),
        ops::write(dst[0]), ops::write(dst[1]), ops::write(dst[2]),
        ops::write(dst[3]));
    (void)src;
  }

  void rhs_into(DatArr& dst, DatArr& src, double dts) {
    compute_flux_x(src);
    compute_flux_z(src);
    apply_tend(dst, src, dts);
  }

  /// miniWeather's low-storage 3-stage integrator:
  ///   tmp   = state + dt/3 R(state)
  ///   tmp   = state + dt/2 R(tmp)
  ///   state = state + dt   R(tmp)
  void step() {
    rhs_into(state_tmp, state, dt / 3.0);
    rhs_into(state_tmp, state_tmp, dt / 2.0);
    rhs_into(state, state_tmp, dt);
  }

  struct Summary {
    double mass = 0, te = 0, wmax = 0;
  };
  Summary summary() {
    Summary s;
    const double cellv = dx * dz;
    ops::par_loop(
        {"reductions", 8.0}, block, cells(),
        [cellv](ops::Acc<const double> r, ops::Acc<const double> rw,
                ops::Acc<const double> rt, ops::Acc<const double> hr,
                double& mass, double& te, double& wmax) {
          mass += r(0, 0) * cellv;
          te += rt(0, 0) * cellv;
          wmax = std::max(wmax, std::abs(rw(0, 0) / (hr(0, 0) + r(0, 0))));
        },
        ops::read(state[0]), ops::read(state[2]), ops::read(state[3]),
        ops::read(hy_dens), ops::reduce_sum(s.mass), ops::reduce_sum(s.te),
        ops::reduce_max(s.wmax));
    if (ctx.comm() != nullptr) {
      s.mass = ctx.comm()->allreduce_sum(s.mass);
      s.te = ctx.comm()->allreduce_sum(s.te);
      s.wmax = ctx.comm()->allreduce_max(s.wmax);
    }
    return s;
  }
};

}  // namespace

Result run(const Options& opt) {
  apply_robustness(opt);
  Result result;
  // Buddy board for the checkpoint mirrors, as in CloverLeaf.
  resil::buddy_resize(opt.ranks > 0 ? opt.ranks : 1);

  auto run_rank = [&](par::Comm* comm) {
    const int rank = comm ? comm->rank() : 0;
    std::unique_ptr<ops::Context> ctx =
        comm ? std::make_unique<ops::Context>(*comm, opt.threads)
             : std::make_unique<ops::Context>(opt.threads);
    Solver s(*ctx, opt.n, std::max<idx_t>(opt.n / 2, 8));
    s.initialize();
    const Solver::Summary s0 = s.summary();
    // Checkpoints hold the four evolving DatArrs, ghosts included.
    ops::CheckpointStore store;
    auto each_field = [&s](auto&& fn) {
      for (DatArr* a : {&s.state, &s.state_tmp, &s.fx, &s.fz})
        for (ops::Dat<double>& d : *a) fn(d);
    };
    Timer timer;
    ResilientLoop lp;
    lp.rank = rank;
    lp.comm = comm;
    lp.iterations = opt.iterations;
    lp.checkpoint_every = opt.checkpoint_every;
    lp.store = &store;
    lp.step = [&](long long) { s.step(); };
    lp.capture = [&](long long it) {
      store.begin(it);
      each_field([&store](ops::Dat<double>& d) { store.capture(d); });
      store.commit();
    };
    lp.restore = [&] {
      each_field([&store](ops::Dat<double>& d) { store.restore(d); });
    };
    lp.reinit = [&] { s.initialize(); };
    const LoopRun run = run_resilient_loop(lp);
    const Solver::Summary s1 = s.summary();
    if (rank == 0) {
      result.elapsed = timer.elapsed();
      result.metrics["mass"] = s1.mass;
      result.metrics["mass_initial"] = s0.mass;
      result.metrics["theta_integral"] = s1.te;
      result.metrics["theta_integral_initial"] = s0.te;
      result.metrics["w_max"] = s1.wmax;
      result.metrics["rollbacks"] = static_cast<double>(run.rollbacks);
      result.metrics["buddy_restores"] =
          static_cast<double>(run.buddy_restores);
      result.checksum = s1.te + s1.wmax;
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

}  // namespace bwlab::apps::miniweather
