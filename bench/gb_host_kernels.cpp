// Real pattern micro-kernels on this host — the structured stencil
// (CloverLeaf-like), the wide stencil (Acoustic-like), and the
// unstructured gather-scatter (MG-CFD-like) in its serial and vec lanes —
// demonstrating the relative costs the performance model's pattern
// classes encode. Runs on the shared bench::Runner harness; --bench-json
// records ns/point metrics into BENCH_gb_host_kernels.json for the CI
// performance trajectory.
#include "bench/bench_common.hpp"
#include "op2/meshgen.hpp"
#include "op2/par_loop.hpp"
#include "ops/par_loop.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "gb_host_kernels");
  const idx_t stencil_n = cli.get_int("stencil-n", 512);
  const idx_t wide_n = cli.get_int("wide-n", 48);
  const idx_t mesh_n = cli.get_int("mesh-n", 128);
  cli.reject_unknown();

  Table t("Pattern micro-kernels on THIS host (median of " +
          std::to_string(run.reps()) + " reps)");
  t.set_columns({{"kernel", 0}, {"points", 0}, {"ns/point", 3}});

  {
    const idx_t n = stencil_n;
    ops::Context ctx;
    ops::Block b(ctx, "g", 2, {n, n, 1});
    ops::Dat<double> u(b, "u", 1), v(b, "v", 1);
    u.fill_indexed([](idx_t i, idx_t j, idx_t) { return double(i + j); });
    const double pts = static_cast<double>((n - 2) * (n - 2));
    std::vector<double> ns = run.measure(1, [&] {
      ops::par_loop({"lap", 4.0}, b, ops::Range::make2d(1, n - 1, 1, n - 1),
                    [](ops::Acc<const double> a, ops::Acc<double> o) {
                      o(0, 0) = a(-1, 0) + a(1, 0) + a(0, -1) + a(0, 1) -
                                4.0 * a(0, 0);
                    },
                    ops::read(u, ops::Stencil::star(2, 1)), ops::write(v));
    });
    for (double& s : ns) s = s * 1e9 / pts;
    const double med = run.record("stencil5.ns_per_point", "ns",
                                  benchjson::Better::Lower, ns);
    t.add_row({std::string("stencil5 (2D)"), pts, med});
  }

  {
    const idx_t n = wide_n;
    ops::Context ctx;
    ops::Block b(ctx, "g", 3, {n, n, n});
    ops::Dat<float> u(b, "u", 4), v(b, "v", 4);
    u.fill_indexed([](idx_t i, idx_t j, idx_t k) {
      return float(i) + 0.5f * float(j) - float(k);
    });
    const double pts = static_cast<double>(n * n * n);
    std::vector<double> ns = run.measure(1, [&] {
      ops::par_loop({"wave", 31.0}, b, ops::Range::make3d(0, n, 0, n, 0, n),
                    [](ops::Acc<const float> a, ops::Acc<float> o) {
                      float acc = 0;
                      for (int r = 1; r <= 4; ++r)
                        acc += a(-r, 0, 0) + a(r, 0, 0) + a(0, -r, 0) +
                               a(0, r, 0) + a(0, 0, -r) + a(0, 0, r);
                      o(0, 0, 0) = acc - 24.0f * a(0, 0, 0);
                    },
                    ops::read(u, ops::Stencil::star(3, 4)), ops::write(v));
    });
    for (double& s : ns) s = s * 1e9 / pts;
    const double med = run.record("wide_stencil.ns_per_point", "ns",
                                  benchjson::Better::Lower, ns);
    t.add_row({std::string("wide stencil (3D, r=4)"), pts, med});
  }

  {
    const idx_t n = mesh_n;
    // Renumbered mesh: production-like indirect locality.
    const op2::TriMesh mesh = op2::make_tri_mesh(n, n, 1.0, 1.0, 1234);
    op2::Set cells("cells", mesh.ncells), edges("edges", mesh.nedges);
    op2::Map e2c("e2c", edges, cells, 2, mesh.edge_cells);
    op2::Dat<double> q(cells, "q", 4), acc(cells, "acc", 4);
    q.fill_indexed([](idx_t e, int c) { return double(e % 17) + c; });
    op2::Runtime rt(1);
    for (const auto& [mode, name] :
         {std::pair{op2::Mode::Serial, "gather_scatter.serial"},
          std::pair{op2::Mode::Vec, "gather_scatter.vec"}}) {
      std::vector<double> ns = run.measure(1, [&, m = mode] {
        op2::par_loop(rt, {"flux", 12.0}, edges, m,
                      [](const double* a, const double* b, double* ia,
                         double* ib) {
                        for (int c = 0; c < 4; ++c) {
                          const double f = 0.5 * (a[c] - b[c]);
                          ia[c] += f;
                          ib[c] -= f;
                        }
                      },
                      op2::read_via(q, e2c, 0), op2::read_via(q, e2c, 1),
                      op2::inc_via(acc, e2c, 0), op2::inc_via(acc, e2c, 1));
      });
      for (double& s : ns) s = s * 1e9 / static_cast<double>(mesh.nedges);
      const double med = run.record(std::string(name) + ".ns_per_edge", "ns",
                                    benchjson::Better::Lower, ns);
      t.add_row({std::string(name), static_cast<double>(mesh.nedges), med});
    }
  }

  run.emit(t);
  run.finish();
  return 0;
}
