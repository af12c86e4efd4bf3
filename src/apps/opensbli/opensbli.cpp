#include "apps/opensbli/opensbli.hpp"

#include <array>
#include <cmath>

#include "common/timer.hpp"
#include "ops/par_loop.hpp"

namespace bwlab::apps::opensbli {

namespace {

constexpr double kGamma = 1.4;
constexpr double kMu = 0.01;  // dynamic viscosity (TGV Re ~ 100 at n pi)
constexpr int kNvar = 5;

// 4th-order central first-derivative weights: (f(-2) - 8f(-1) + 8f(1)
// - f(2)) / 12h.
constexpr double kD1a = 8.0 / 12.0, kD1b = 1.0 / 12.0;

struct State {
  double rho, ru, rv, rw, e;
};

// Pointwise Euler fluxes; shared by the SA store kernels and the SN fused
// kernel so the two variants are arithmetically identical.
inline State flux_x(const State& q) {
  const double u = q.ru / q.rho;
  const double p =
      (kGamma - 1.0) * (q.e - 0.5 * (q.ru * q.ru + q.rv * q.rv + q.rw * q.rw) /
                                  q.rho);
  return {q.ru, q.ru * u + p, q.rv * u, q.rw * u, (q.e + p) * u};
}
inline State flux_y(const State& q) {
  const double v = q.rv / q.rho;
  const double p =
      (kGamma - 1.0) * (q.e - 0.5 * (q.ru * q.ru + q.rv * q.rv + q.rw * q.rw) /
                                  q.rho);
  return {q.rv, q.ru * v, q.rv * v + p, q.rw * v, (q.e + p) * v};
}
inline State flux_z(const State& q) {
  const double w = q.rw / q.rho;
  const double p =
      (kGamma - 1.0) * (q.e - 0.5 * (q.ru * q.ru + q.rv * q.rv + q.rw * q.rw) /
                                  q.rho);
  return {q.rw, q.ru * w, q.rv * w, q.rw * w + p, (q.e + p) * w};
}

using DatArr = std::array<ops::Dat<double>, kNvar>;

struct Solver {
  ops::Context& ctx;
  idx_t n;
  double h, dt;
  Variant variant;
  ops::Block block;

  DatArr q, q1, res;
  // SA storage: fluxes per direction and per variable.
  DatArr fx, fy, fz;

  static DatArr make(ops::Block& b, const char* base, int depth) {
    return DatArr{ops::Dat<double>(b, std::string(base) + "0", depth),
                  ops::Dat<double>(b, std::string(base) + "1", depth),
                  ops::Dat<double>(b, std::string(base) + "2", depth),
                  ops::Dat<double>(b, std::string(base) + "3", depth),
                  ops::Dat<double>(b, std::string(base) + "4", depth)};
  }

  Solver(ops::Context& c, idx_t n_, Variant var, int depth)
      : ctx(c), n(n_), h(2.0 * M_PI / static_cast<double>(n_)),
        // Sound speed at the TGV base state (p0 = 100/gamma, rho = 1) is
        // c = sqrt(gamma p / rho) = 10; CFL 0.2 against it.
        dt(0.2 * h / 10.0),
        variant(var), block(c, "opensbli", 3, {n_, n_, n_}),
        q(make(block, "q", depth)), q1(make(block, "q1", depth)),
        res(make(block, "res", depth)), fx(make(block, "fx", depth)),
        fy(make(block, "fy", depth)), fz(make(block, "fz", depth)) {
    for (DatArr* a : {&q, &q1, &res, &fx, &fy, &fz})
      for (ops::Dat<double>& d : *a) d.set_bc_all(ops::Bc::Periodic);
  }

  ops::Range interior() const { return ops::Range::make3d(0, n, 0, n, 0, n); }

  void initialize() {
    const double hh = h;
    auto at = [hh](idx_t i) { return (static_cast<double>(i) + 0.5) * hh; };
    q[0].fill_indexed([](idx_t, idx_t, idx_t) { return 1.0; });
    q[1].fill_indexed([at](idx_t i, idx_t j, idx_t k) {
      return std::sin(at(i)) * std::cos(at(j)) * std::cos(at(k));
    });
    q[2].fill_indexed([at](idx_t i, idx_t j, idx_t k) {
      return -std::cos(at(i)) * std::sin(at(j)) * std::cos(at(k));
    });
    q[3].fill_indexed([](idx_t, idx_t, idx_t) { return 0.0; });
    const double p0 = 100.0 / kGamma;  // Mach ~ 0.1
    q[4].fill_indexed([at, p0](idx_t i, idx_t j, idx_t k) {
      const double x = at(i), y = at(j), z = at(k);
      const double p = p0 + ((std::cos(2 * x) + std::cos(2 * y)) *
                             (std::cos(2 * z) + 2.0)) /
                                16.0;
      const double u = std::sin(x) * std::cos(y) * std::cos(z);
      const double v = -std::cos(x) * std::sin(y) * std::cos(z);
      return p / (kGamma - 1.0) + 0.5 * (u * u + v * v);
    });
    for (DatArr* a : {&q1, &res, &fx, &fy, &fz})
      for (ops::Dat<double>& d : *a) d.fill(0.0);
  }

  /// SA phase 1: evaluate and store all fluxes (bandwidth-heavy writes).
  void store_fluxes(DatArr& src) {
    ops::par_loop(
        {"sa_store_flux", 60.0}, block, interior(),
        [](ops::Acc<const double> r, ops::Acc<const double> ru,
           ops::Acc<const double> rv, ops::Acc<const double> rw,
           ops::Acc<const double> e, ops::Acc<double> fx0,
           ops::Acc<double> fx1, ops::Acc<double> fx2, ops::Acc<double> fx3,
           ops::Acc<double> fx4, ops::Acc<double> fy0, ops::Acc<double> fy1,
           ops::Acc<double> fy2, ops::Acc<double> fy3, ops::Acc<double> fy4,
           ops::Acc<double> fz0, ops::Acc<double> fz1, ops::Acc<double> fz2,
           ops::Acc<double> fz3, ops::Acc<double> fz4) {
          const State s{r(0, 0, 0), ru(0, 0, 0), rv(0, 0, 0), rw(0, 0, 0),
                        e(0, 0, 0)};
          const State a = flux_x(s), b = flux_y(s), c = flux_z(s);
          fx0(0, 0, 0) = a.rho;
          fx1(0, 0, 0) = a.ru;
          fx2(0, 0, 0) = a.rv;
          fx3(0, 0, 0) = a.rw;
          fx4(0, 0, 0) = a.e;
          fy0(0, 0, 0) = b.rho;
          fy1(0, 0, 0) = b.ru;
          fy2(0, 0, 0) = b.rv;
          fy3(0, 0, 0) = b.rw;
          fy4(0, 0, 0) = b.e;
          fz0(0, 0, 0) = c.rho;
          fz1(0, 0, 0) = c.ru;
          fz2(0, 0, 0) = c.rv;
          fz3(0, 0, 0) = c.rw;
          fz4(0, 0, 0) = c.e;
        },
        ops::read(src[0]), ops::read(src[1]), ops::read(src[2]),
        ops::read(src[3]), ops::read(src[4]), ops::write(fx[0]),
        ops::write(fx[1]), ops::write(fx[2]), ops::write(fx[3]),
        ops::write(fx[4]), ops::write(fy[0]), ops::write(fy[1]),
        ops::write(fy[2]), ops::write(fy[3]), ops::write(fy[4]),
        ops::write(fz[0]), ops::write(fz[1]), ops::write(fz[2]),
        ops::write(fz[3]), ops::write(fz[4]));
  }

  /// Residual for one conservative variable v: -div(F) + viscous Laplacian
  /// on momentum components.
  template <class GetF>
  void residual_var(const char* name, int v, DatArr& src, GetF&& get_flux,
                    bool store_all) {
    const double ih = 1.0 / h;
    const double visc = (v >= 1 && v <= 3) ? kMu / (h * h) : 0.0;
    if (store_all) {
      ops::par_loop(
          {std::string("sa_divergence_") + name, 40.0}, block, interior(),
          [ih, visc](ops::Acc<const double> fxa, ops::Acc<const double> fya,
                     ops::Acc<const double> fza, ops::Acc<const double> qa,
                     ops::Acc<double> out) {
            const double dfx = kD1a * (fxa(1, 0, 0) - fxa(-1, 0, 0)) -
                               kD1b * (fxa(2, 0, 0) - fxa(-2, 0, 0));
            const double dfy = kD1a * (fya(0, 1, 0) - fya(0, -1, 0)) -
                               kD1b * (fya(0, 2, 0) - fya(0, -2, 0));
            const double dfz = kD1a * (fza(0, 0, 1) - fza(0, 0, -1)) -
                               kD1b * (fza(0, 0, 2) - fza(0, 0, -2));
            double r = -(dfx + dfy + dfz) * ih;
            if (visc != 0.0)
              r += visc * (qa(1, 0, 0) + qa(-1, 0, 0) + qa(0, 1, 0) +
                           qa(0, -1, 0) + qa(0, 0, 1) + qa(0, 0, -1) -
                           6.0 * qa(0, 0, 0));
            out(0, 0, 0) = r;
          },
          ops::read(fx[static_cast<std::size_t>(v)], ops::Stencil::star(3, 2)),
          ops::read(fy[static_cast<std::size_t>(v)], ops::Stencil::star(3, 2)),
          ops::read(fz[static_cast<std::size_t>(v)], ops::Stencil::star(3, 2)),
          ops::read(src[static_cast<std::size_t>(v)],
                    ops::Stencil::star(3, 1)),
          ops::write(res[static_cast<std::size_t>(v)]));
      return;
    }
    BWLAB_REQUIRE(false, "per-variable SN path removed; use residual_sn");
    (void)get_flux;
    (void)name;
    (void)v;
    (void)src;
    (void)ih;
    (void)visc;
  }

  /// Store None: ONE fused kernel recomputes the full 5-component flux
  /// vectors at the 12 stencil neighbors and writes all residuals — the
  /// flux evaluations are shared across variables exactly as OpenSBLI's
  /// generated SN code shares subexpressions.
  void residual_sn(DatArr& src) {
    const double ih = 1.0 / h;
    const double visc = kMu / (h * h);
    ops::par_loop(
        {"sn_fused", 12 * 35.0 + 160.0, Pattern::Stencil}, block, interior(),
        [ih, visc](ops::Acc<const double> r0, ops::Acc<const double> r1,
             ops::Acc<const double> r2, ops::Acc<const double> r3,
             ops::Acc<const double> r4, ops::Acc<double> o0,
             ops::Acc<double> o1, ops::Acc<double> o2, ops::Acc<double> o3,
             ops::Acc<double> o4) {
          auto st = [&](int di, int dj, int dk) {
            return State{r0(di, dj, dk), r1(di, dj, dk), r2(di, dj, dk),
                         r3(di, dj, dk), r4(di, dj, dk)};
          };
          // Accumulate -dF/dx - dG/dy - dH/dz with 4th-order weights;
          // each neighbor flux vector is evaluated once.
          double acc[kNvar] = {0, 0, 0, 0, 0};
          auto add = [&](const State& f, double w) {
            acc[0] += w * f.rho;
            acc[1] += w * f.ru;
            acc[2] += w * f.rv;
            acc[3] += w * f.rw;
            acc[4] += w * f.e;
          };
          add(flux_x(st(1, 0, 0)), -kD1a * ih);
          add(flux_x(st(-1, 0, 0)), kD1a * ih);
          add(flux_x(st(2, 0, 0)), kD1b * ih);
          add(flux_x(st(-2, 0, 0)), -kD1b * ih);
          add(flux_y(st(0, 1, 0)), -kD1a * ih);
          add(flux_y(st(0, -1, 0)), kD1a * ih);
          add(flux_y(st(0, 2, 0)), kD1b * ih);
          add(flux_y(st(0, -2, 0)), -kD1b * ih);
          add(flux_z(st(0, 0, 1)), -kD1a * ih);
          add(flux_z(st(0, 0, -1)), kD1a * ih);
          add(flux_z(st(0, 0, 2)), kD1b * ih);
          add(flux_z(st(0, 0, -2)), -kD1b * ih);
          // Laplacian viscosity on the momentum components, fused (reads
          // are already resident from the flux stencils).
          acc[1] += visc * (r1(1, 0, 0) + r1(-1, 0, 0) + r1(0, 1, 0) +
                            r1(0, -1, 0) + r1(0, 0, 1) + r1(0, 0, -1) -
                            6.0 * r1(0, 0, 0));
          acc[2] += visc * (r2(1, 0, 0) + r2(-1, 0, 0) + r2(0, 1, 0) +
                            r2(0, -1, 0) + r2(0, 0, 1) + r2(0, 0, -1) -
                            6.0 * r2(0, 0, 0));
          acc[3] += visc * (r3(1, 0, 0) + r3(-1, 0, 0) + r3(0, 1, 0) +
                            r3(0, -1, 0) + r3(0, 0, 1) + r3(0, 0, -1) -
                            6.0 * r3(0, 0, 0));
          o0(0, 0, 0) = acc[0];
          o1(0, 0, 0) = acc[1];
          o2(0, 0, 0) = acc[2];
          o3(0, 0, 0) = acc[3];
          o4(0, 0, 0) = acc[4];
        },
        ops::read(src[0], ops::Stencil::star(3, 2)),
        ops::read(src[1], ops::Stencil::star(3, 2)),
        ops::read(src[2], ops::Stencil::star(3, 2)),
        ops::read(src[3], ops::Stencil::star(3, 2)),
        ops::read(src[4], ops::Stencil::star(3, 2)), ops::write(res[0]),
        ops::write(res[1]), ops::write(res[2]), ops::write(res[3]),
        ops::write(res[4]));
  }

  void compute_residual(DatArr& src) {
    static const char* names[kNvar] = {"rho", "rhou", "rhov", "rhow", "E"};
    const bool sa = variant == Variant::StoreAll;
    if (sa) {
      store_fluxes(src);
      for (int v = 0; v < kNvar; ++v) {
        auto get_flux = [](int, const State&) { return 0.0; };
        residual_var(names[v], v, src, get_flux, true);
      }
    } else {
      residual_sn(src);
    }
  }

  /// dst = a * x + b * (y + dt * res), all five variables in one sweep
  /// (the generated OpenSBLI update kernel is a single fused loop).
  void axpby(const char* name, DatArr& dst, double a, DatArr& x, double b,
             DatArr& y) {
    const double dtl = dt;
    ops::par_loop(
        {std::string("rk_") + name, 5 * 4.0}, block, interior(),
        [a, b, dtl](ops::Acc<const double> x0, ops::Acc<const double> x1,
                    ops::Acc<const double> x2, ops::Acc<const double> x3,
                    ops::Acc<const double> x4, ops::Acc<const double> y0,
                    ops::Acc<const double> y1, ops::Acc<const double> y2,
                    ops::Acc<const double> y3, ops::Acc<const double> y4,
                    ops::Acc<const double> q0, ops::Acc<const double> q1a,
                    ops::Acc<const double> q2, ops::Acc<const double> q3,
                    ops::Acc<const double> q4, ops::Acc<double> d0,
                    ops::Acc<double> d1, ops::Acc<double> d2,
                    ops::Acc<double> d3, ops::Acc<double> d4) {
          d0(0, 0, 0) = a * x0(0, 0, 0) + b * (y0(0, 0, 0) + dtl * q0(0, 0, 0));
          d1(0, 0, 0) = a * x1(0, 0, 0) + b * (y1(0, 0, 0) + dtl * q1a(0, 0, 0));
          d2(0, 0, 0) = a * x2(0, 0, 0) + b * (y2(0, 0, 0) + dtl * q2(0, 0, 0));
          d3(0, 0, 0) = a * x3(0, 0, 0) + b * (y3(0, 0, 0) + dtl * q3(0, 0, 0));
          d4(0, 0, 0) = a * x4(0, 0, 0) + b * (y4(0, 0, 0) + dtl * q4(0, 0, 0));
        },
        ops::read(x[0]), ops::read(x[1]), ops::read(x[2]), ops::read(x[3]),
        ops::read(x[4]), ops::read(y[0]), ops::read(y[1]), ops::read(y[2]),
        ops::read(y[3]), ops::read(y[4]), ops::read(res[0]),
        ops::read(res[1]), ops::read(res[2]), ops::read(res[3]),
        ops::read(res[4]), ops::write(dst[0]), ops::write(dst[1]),
        ops::write(dst[2]), ops::write(dst[3]), ops::write(dst[4]));
  }

  /// One SSP-RK3 step. Tiled: each RK stage (residual + update) is one
  /// lazy chain through the skewed cache-blocking executor — the stage
  /// boundary is a true dependence (the next residual reads the update).
  void step(bool tiled, idx_t tile_size) {
    auto stage = [&](DatArr& src, auto&& update) {
      ops::run_chain(ctx, tiled, tile_size, [&] {
        compute_residual(src);
        update();
      });
    };
    stage(q, [&] { axpby("stage1", q1, 0.0, q, 1.0, q); });
    stage(q1, [&] { axpby("stage2", q1, 0.75, q, 0.25, q1); });
    stage(q1, [&] { axpby("stage3", q, 1.0 / 3.0, q, 2.0 / 3.0, q1); });
  }

  struct Summary {
    double mass = 0, ke = 0, max_u = 0;
  };
  Summary summary() {
    Summary s;
    const double cellv = h * h * h;
    ops::par_loop(
        {"tgv_summary", 12.0}, block, interior(),
        [cellv](ops::Acc<const double> r, ops::Acc<const double> ru,
                ops::Acc<const double> rv, ops::Acc<const double> rw,
                double& mass, double& ke, double& mu) {
          mass += r(0, 0, 0) * cellv;
          ke += 0.5 *
                (ru(0, 0, 0) * ru(0, 0, 0) + rv(0, 0, 0) * rv(0, 0, 0) +
                 rw(0, 0, 0) * rw(0, 0, 0)) /
                r(0, 0, 0) * cellv;
          mu = std::max(mu, std::abs(ru(0, 0, 0) / r(0, 0, 0)));
        },
        ops::read(q[0]), ops::read(q[1]), ops::read(q[2]), ops::read(q[3]),
        ops::reduce_sum(s.mass), ops::reduce_sum(s.ke),
        ops::reduce_max(s.max_u));
    if (ctx.comm() != nullptr) {
      s.mass = ctx.comm()->allreduce_sum(s.mass);
      s.ke = ctx.comm()->allreduce_sum(s.ke);
      s.max_u = ctx.comm()->allreduce_max(s.max_u);
    }
    return s;
  }

  /// L2 norm of rho over the local+global domain (variant-equality tests).
  double q_norm() {
    double sq = 0;
    ops::par_loop(
        {"q_norm", 2.0}, block, interior(),
        [](ops::Acc<const double> r, double& s) {
          s += r(0, 0, 0) * r(0, 0, 0);
        },
        ops::read(q[0]), ops::reduce_sum(sq));
    if (ctx.comm() != nullptr) sq = ctx.comm()->allreduce_sum(sq);
    return sq;
  }
};

}  // namespace

Result run(const Options& opt, Variant variant) {
  apply_robustness(opt);
  Result result;
  auto run_rank = [&](par::Comm* comm) {
    std::unique_ptr<ops::Context> ctx =
        comm ? std::make_unique<ops::Context>(*comm, opt.threads)
             : std::make_unique<ops::Context>(opt.threads);
    // Tiled chains need halo depth >= the chain's accumulated radius
    // (the SA stage chain accumulates 10: five radius-2 divergences).
    const int depth = opt.tiled ? 12 : 2;
    if (opt.tile_cache_bytes > 0)
      ctx->set_tile_cache_bytes(opt.tile_cache_bytes);
    Solver s(*ctx, opt.n, variant, depth);
    s.initialize();
    const Solver::Summary s0 = s.summary();
    Timer timer;
    for (int it = 0; it < opt.iterations; ++it) {
      fault::on_step(comm ? comm->rank() : 0, it);
      s.step(opt.tiled, opt.tile_size);
    }
    const Solver::Summary s1 = s.summary();
    const double qn = s.q_norm();  // collective: every rank participates
    if (!comm || comm->rank() == 0) {
      result.elapsed = timer.elapsed();
      result.metrics["mass"] = s1.mass;
      result.metrics["mass_initial"] = s0.mass;
      result.metrics["kinetic_energy"] = s1.ke;
      result.metrics["kinetic_energy_initial"] = s0.ke;
      result.metrics["max_u"] = s1.max_u;
      result.checksum = qn;
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

}  // namespace bwlab::apps::opensbli
