#include "apps/volna/volna.hpp"

#include <cmath>

#include "common/timer.hpp"
#include "op2/meshgen.hpp"
#include "op2/par_loop.hpp"
#include "op2/dist.hpp"
#include "op2/partition.hpp"

namespace bwlab::apps::volna {

namespace {

using real = float;

constexpr real kG = 9.81f;
constexpr real kDry = 1e-6f;
constexpr real kCfl = 0.4f;

/// Rusanov flux for the shallow-water system through a unit normal
/// (nx, ny), state (h, hu, hv), into f[3].
inline void sw_flux(const real* ul, const real* ur, real nx, real ny,
                    real* f) {
  auto point = [nx, ny](const real* q, real* out, real& lambda) {
    const real h = q[0];
    const real inv = h > kDry ? 1.0f / h : 0.0f;
    const real u = q[1] * inv, v = q[2] * inv;
    const real vn = u * nx + v * ny;
    const real half_gh2 = 0.5f * kG * h * h;
    out[0] = h * vn;
    out[1] = q[1] * vn + half_gh2 * nx;
    out[2] = q[2] * vn + half_gh2 * ny;
    lambda = std::fabs(vn) + std::sqrt(kG * h);
  };
  real fl[3], fr[3], ll, lr;
  point(ul, fl, ll);
  point(ur, fr, lr);
  const real lam = std::max(ll, lr);
  for (int v = 0; v < 3; ++v)
    f[v] = 0.5f * (fl[v] + fr[v]) - 0.5f * lam * (ur[v] - ul[v]);
}

struct Solver {
  op2::Runtime& rt;
  op2::Mode mode;
  op2::TriMesh mesh;
  std::unique_ptr<op2::Set> cells, edges;
  std::unique_ptr<op2::Map> e2c;
  std::unique_ptr<op2::Dat<real>> U, res, bathy, cell_area, edge_geom;
  op2::Coloring flux_colors;

  double h_char_override = 0;  ///< set for rank-local submeshes

  Solver(op2::Runtime& r, op2::Mode m, op2::TriMesh mesh_in)
      : rt(r), mode(m), mesh(std::move(mesh_in)) {
    cells = std::make_unique<op2::Set>("cells", mesh.ncells);
    edges = std::make_unique<op2::Set>("edges", mesh.nedges);
    e2c = std::make_unique<op2::Map>("edge_cells", *edges, *cells, 2,
                                     mesh.edge_cells);
    U = std::make_unique<op2::Dat<real>>(*cells, "U", 3);
    res = std::make_unique<op2::Dat<real>>(*cells, "res", 3);
    bathy = std::make_unique<op2::Dat<real>>(*cells, "bathy", 1);
    cell_area = std::make_unique<op2::Dat<real>>(*cells, "area", 1);
    // edge geometry: nx, ny, length, wall flag
    edge_geom = std::make_unique<op2::Dat<real>>(*edges, "edge_geom", 4);
    for (idx_t e = 0; e < mesh.nedges; ++e) {
      edge_geom->at(e, 0) = static_cast<real>(mesh.edge_nx[static_cast<std::size_t>(e)]);
      edge_geom->at(e, 1) = static_cast<real>(mesh.edge_ny[static_cast<std::size_t>(e)]);
      edge_geom->at(e, 2) = static_cast<real>(mesh.edge_len[static_cast<std::size_t>(e)]);
      edge_geom->at(e, 3) =
          mesh.edge_cells[static_cast<std::size_t>(2 * e + 1)] < 0 ? 1.0f
                                                                   : 0.0f;
    }
    // Synthetic ocean basin: deep center, radial continental shelf.
    for (idx_t c = 0; c < mesh.ncells; ++c) {
      const double x = mesh.cell_cx[static_cast<std::size_t>(c)];
      const double y = mesh.cell_cy[static_cast<std::size_t>(c)];
      const double rr = std::hypot(x - 50000.0, y - 50000.0) / 50000.0;
      // bottom elevation (negative = below sea level), shelf near the rim
      const double bottom = -4000.0 + 3500.0 * rr * rr;
      bathy->at(c) = static_cast<real>(bottom);
      cell_area->at(c) =
          static_cast<real>(mesh.cell_area[static_cast<std::size_t>(c)]);
    }
    res->fill(0.0f);
    if (mode == op2::Mode::Colored)
      flux_colors = op2::color_set(*edges, {e2c.get()});
  }

  /// Sea surface eta = 0 lake at rest, plus an optional Gaussian hump.
  void init_state(real hump_amp) {
    for (idx_t c = 0; c < mesh.ncells; ++c) {
      const double x = mesh.cell_cx[static_cast<std::size_t>(c)];
      const double y = mesh.cell_cy[static_cast<std::size_t>(c)];
      const double r2 = (std::pow(x - 50000.0, 2) + std::pow(y - 50000.0, 2)) /
                        (8000.0 * 8000.0);
      const real eta =
          hump_amp * static_cast<real>(std::exp(-r2));
      const real h = std::max(0.0f, eta - bathy->at(c));
      U->at(c, 0) = h;
      U->at(c, 1) = 0.0f;
      U->at(c, 2) = 0.0f;
    }
  }

  real compute_dt() {
    real lam_max = 1e-10f;
    op2::par_loop(
        rt, {"dt_reduction", 10.0}, *cells, op2::Mode::Serial,
        [](const real* u, real& lm) {
          const real h = u[0];
          const real inv = h > kDry ? 1.0f / h : 0.0f;
          const real speed = std::sqrt((u[1] * u[1] + u[2] * u[2])) * inv;
          lm = std::max(lm, speed + std::sqrt(kG * std::max(h, 0.0f)));
        },
        op2::read(*U), op2::reduce_max(lam_max));
    // Characteristic length of a right triangle from a dq x dq quad:
    // inradius scale area / longest edge = (dq^2/2) / (dq sqrt(2)). Rank-
    // local submeshes get the GLOBAL length injected by the caller.
    real h_char = static_cast<real>(h_char_override);
    if (h_char <= 0.0f) {
      const double dq =
          mesh.lx / std::sqrt(static_cast<double>(mesh.ncells) / 2.0);
      h_char = static_cast<real>(dq / (2.0 * std::sqrt(2.0)));
    }
    return kCfl * h_char / lam_max;
  }

  void compute_fluxes() {
    auto kern = [](const real* geom, const real* ul, const real* ur,
                   const real* bl, const real* br, real* rl, real* rr) {
      const real nx = geom[0], ny = geom[1], len = geom[2];
      const bool wall = geom[3] > 0.5f;
      real urw[3], brw;
      const real* u_r = ur;
      const real* b_r = br;
      if (wall) {
        // Reflective wall: mirror the velocity about the edge normal.
        const real vn = ul[1] * nx + ul[2] * ny;
        urw[0] = ul[0];
        urw[1] = ul[1] - 2.0f * vn * nx;
        urw[2] = ul[2] - 2.0f * vn * ny;
        brw = bl[0];
        u_r = urw;
        b_r = &brw;
      }
      // Audusse hydrostatic reconstruction (well-balanced).
      const real bmax = std::max(bl[0], b_r[0]);
      const real etal = ul[0] + bl[0], etar = u_r[0] + b_r[0];
      const real hls = std::max(0.0f, etal - bmax);
      const real hrs = std::max(0.0f, etar - bmax);
      const real invl = ul[0] > kDry ? hls / ul[0] : 0.0f;
      const real invr = u_r[0] > kDry ? hrs / u_r[0] : 0.0f;
      const real uls[3] = {hls, ul[1] * invl, ul[2] * invl};
      const real urs[3] = {hrs, u_r[1] * invr, u_r[2] * invr};
      real f[3];
      sw_flux(uls, urs, nx, ny, f);
      // Bed-slope source corrections keeping the scheme well-balanced.
      const real sl = 0.5f * kG * (ul[0] * ul[0] - hls * hls);
      const real sr = 0.5f * kG * (u_r[0] * u_r[0] - hrs * hrs);
      rl[0] -= f[0] * len;
      rl[1] -= (f[1] + sl * nx) * len;
      rl[2] -= (f[2] + sl * ny) * len;
      rr[0] += f[0] * len;
      rr[1] += (f[1] + sr * nx) * len;
      rr[2] += (f[2] + sr * ny) * len;
    };
    if (mode == op2::Mode::Colored) {
      op2::par_loop_colored(rt, {"compute_fluxes", 90.0}, *edges, flux_colors,
                            kern, op2::read(*edge_geom),
                            op2::read_via(*U, *e2c, 0),
                            op2::read_via(*U, *e2c, 1),
                            op2::read_via(*bathy, *e2c, 0),
                            op2::read_via(*bathy, *e2c, 1),
                            op2::inc_via(*res, *e2c, 0),
                            op2::inc_via(*res, *e2c, 1));
    } else {
      op2::par_loop(rt, {"compute_fluxes", 90.0}, *edges, mode, kern,
                    op2::read(*edge_geom), op2::read_via(*U, *e2c, 0),
                    op2::read_via(*U, *e2c, 1),
                    op2::read_via(*bathy, *e2c, 0),
                    op2::read_via(*bathy, *e2c, 1),
                    op2::inc_via(*res, *e2c, 0), op2::inc_via(*res, *e2c, 1));
    }
  }

  void update(real dt) {
    op2::par_loop(
        rt, {"update_cells", 10.0}, *cells, op2::Mode::Serial,
        [dt](const real* area, real* u, real* r) {
          const real f = dt / area[0];
          for (int v = 0; v < 3; ++v) {
            u[v] += f * r[v];
            r[v] = 0.0f;
          }
          if (u[0] < 0.0f) u[0] = 0.0f;  // positivity
        },
        op2::read(*cell_area), op2::read_write(*U), op2::read_write(*res));
  }

  void step() {
    const real dt = compute_dt();
    compute_fluxes();
    update(dt);
  }

  struct Summary {
    double mass = 0, eta_max = -1e30, speed_max = 0;
  };
  Summary summary() {
    Summary s;
    op2::par_loop(
        rt, {"summary", 10.0}, *cells, op2::Mode::Serial,
        [](const real* u, const real* b, const real* area, double& mass,
           double& eta, double& sp) {
          mass += static_cast<double>(u[0]) * static_cast<double>(area[0]);
          if (u[0] > kDry) {
            eta = std::max(eta, static_cast<double>(u[0] + b[0]));
            const double inv = 1.0 / static_cast<double>(u[0]);
            sp = std::max(sp, std::hypot(static_cast<double>(u[1]),
                                         static_cast<double>(u[2])) *
                                  inv);
          }
        },
        op2::read(*U), op2::read(*bathy), op2::read(*cell_area),
        op2::reduce_sum(s.mass), op2::reduce_max(s.eta_max),
        op2::reduce_max(s.speed_max));
    return s;
  }

  double checksum() {
    double sq = 0;
    op2::par_loop(
        rt, {"checksum", 2.0}, *cells, op2::Mode::Serial,
        [](const real* u, double& s) {
          for (int v = 0; v < 3; ++v)
            s += static_cast<double>(u[v]) * static_cast<double>(u[v]);
        },
        op2::read(*U), op2::reduce_sum(sq));
    return sq;
  }
};

/// Rank-local view of the global mesh per a DistPlan: geometry copied for
/// owned + ghost cells and for the rank's owned edges.
op2::TriMesh local_mesh(const op2::TriMesh& g, const op2::RankLocal& rl) {
  op2::TriMesh m;
  m.lx = g.lx;
  m.ly = g.ly;
  m.ncells = rl.n_local();
  m.nedges = static_cast<idx_t>(rl.edges_global.size());
  m.edge_cells = rl.edge_cells_local;
  for (idx_t e : rl.edges_global) {
    m.edge_nx.push_back(g.edge_nx[static_cast<std::size_t>(e)]);
    m.edge_ny.push_back(g.edge_ny[static_cast<std::size_t>(e)]);
    m.edge_len.push_back(g.edge_len[static_cast<std::size_t>(e)]);
  }
  for (idx_t gcell : rl.cells_global) {
    m.cell_cx.push_back(g.cell_cx[static_cast<std::size_t>(gcell)]);
    m.cell_cy.push_back(g.cell_cy[static_cast<std::size_t>(gcell)]);
    m.cell_area.push_back(g.cell_area[static_cast<std::size_t>(gcell)]);
  }
  return m;
}

/// Distributed run: owner-compute over SimMPI ranks with forward (state)
/// and reverse (flux-increment) halo exchanges each step.
Result run_distributed(const Options& opt, real hump, op2::Mode mode,
                       const op2::TriMesh& gmesh) {
  Result result;
  const op2::Partition part =
      op2::rcb_partition(gmesh.cell_cx, gmesh.cell_cy, {}, opt.ranks);
  const op2::DistPlan plan = op2::build_dist_plan(gmesh.edge_cells, part);
  const double dq =
      gmesh.lx / std::sqrt(static_cast<double>(gmesh.ncells) / 2.0);
  const double h_char = dq / (2.0 * std::sqrt(2.0));

  result.rank_stats = par::run_ranks(
      opt.ranks,
      [&](par::Comm& comm) {
    const op2::RankLocal& rl =
        plan.rank[static_cast<std::size_t>(comm.rank())];
    op2::Runtime rt(opt.threads);
    Solver s(rt, mode, local_mesh(gmesh, rl));
    s.h_char_override = h_char;
    s.init_state(hump);  // deterministic from centroids: ghosts included

    auto owned_summary = [&](double& mass, double& eta, double& sp) {
      mass = 0;
      eta = -1e30;
      sp = 0;
      for (idx_t l = 0; l < rl.n_owned; ++l) {
        const real h = s.U->at(l, 0);
        mass += static_cast<double>(h) *
                static_cast<double>(s.cell_area->at(l));
        if (h > kDry) {
          eta = std::max(eta, static_cast<double>(h + s.bathy->at(l)));
          sp = std::max(sp, std::hypot(static_cast<double>(s.U->at(l, 1)),
                                       static_cast<double>(s.U->at(l, 2))) /
                                static_cast<double>(h));
        }
      }
      mass = comm.allreduce_sum(mass);
      eta = comm.allreduce_max(eta);
      sp = comm.allreduce_max(sp);
    };

    double mass0, eta0, sp0;
    owned_summary(mass0, eta0, sp0);
    Timer timer;
    for (int it = 0; it < opt.iterations; ++it) {
      fault::on_step(comm.rank(), it);
      op2::halo_gather(comm, rl, *s.U, 1000, &rt.instr());
      const real dt = static_cast<real>(comm.allreduce_min(
          static_cast<double>(s.compute_dt())));
      s.compute_fluxes();
      op2::halo_scatter_add(comm, rl, *s.res, 2000, &rt.instr());
      s.update(dt);  // ghost res slots are zero: ghosts stay put
    }
    double mass1, eta1, sp1;
    owned_summary(mass1, eta1, sp1);
    double cks = 0;
    for (idx_t l = 0; l < rl.n_owned; ++l)
      for (int v = 0; v < 3; ++v)
        cks += static_cast<double>(s.U->at(l, v)) *
               static_cast<double>(s.U->at(l, v));
    cks = comm.allreduce_sum(cks);
    if (comm.rank() == 0) {
      result.elapsed = timer.elapsed();
      result.metrics["mass"] = mass1;
      result.metrics["mass_initial"] = mass0;
      result.metrics["eta_max"] = eta1;
      result.metrics["eta_max_initial"] = eta0;
      result.metrics["speed_max"] = sp1;
      result.checksum = cks;
      result.instr = rt.instr();
      result.comm_seconds = comm.comm_seconds();
    }
      });
  return result;
}

Result run_impl(const Options& opt, real hump) {
  apply_robustness(opt);
  Result result;
  const op2::Mode mode = opt.exec_mode == 1 ? op2::Mode::Vec
                         : opt.exec_mode == 2 ? op2::Mode::Colored
                                              : op2::Mode::Serial;
  if (opt.ranks > 1) {
    const op2::TriMesh gmesh =
        op2::make_tri_mesh(opt.n, opt.n, 100000.0, 100000.0, opt.seed);
    return run_distributed(opt, hump, mode, gmesh);
  }
  op2::Runtime rt(opt.threads);
  Solver s(rt, mode,
           op2::make_tri_mesh(opt.n, opt.n, 100000.0, 100000.0, opt.seed));
  s.init_state(hump);
  const Solver::Summary s0 = s.summary();
  Timer timer;
  for (int it = 0; it < opt.iterations; ++it) {
    fault::on_step(0, it);
    s.step();
  }
  result.elapsed = timer.elapsed();
  const Solver::Summary s1 = s.summary();
  result.metrics["mass"] = s1.mass;
  result.metrics["mass_initial"] = s0.mass;
  result.metrics["eta_max"] = s1.eta_max;
  result.metrics["eta_max_initial"] = s0.eta_max;
  result.metrics["speed_max"] = s1.speed_max;
  {
    op2::Partition part = op2::rcb_partition(s.mesh.cell_cx, s.mesh.cell_cy,
                                             {}, std::max(opt.ranks, 8));
    result.metrics["cut_fraction"] = part.cut_fraction(s.mesh.edge_cells);
  }
  result.checksum = s.checksum();
  result.instr = rt.instr();
  return result;
}

}  // namespace

Result run(const Options& opt) { return run_impl(opt, 2.0f); }

Result run_lake_at_rest(const Options& opt) { return run_impl(opt, 0.0f); }

}  // namespace bwlab::apps::volna
