// Ablation (paper §5.1): SYCL workgroup shapes. The paper found that for
// an OpenSBLI SN kernel at 320^3, an ndrange shape spanning the domain in
// the contiguous dimension and thin elsewhere (160x4x4) ran ~2% faster
// than the runtime-chosen "flat" default, and that shapes fragmenting the
// contiguous dimension are bad for the prefetchers.
//
// Left: the model's streaming-efficiency view of different shapes.
// Right: REAL host runs of a stencil kernel through the workgroup-blocked
// executor, validated bitwise against the canonical loop order.
#include "bench/bench_common.hpp"
#include "core/tuning.hpp"
#include "ops/par_loop.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "abl_workgroup");
  const idx_t n = cli.get_int("n", 96);
  cli.reject_unknown();

  Table model(
      "Model — streaming efficiency of workgroup shapes (domain 320^3, "
      "doubles)");
  model.set_columns(
      {{"workgroup", 0}, {"stream efficiency", 3}, {"note", 0}});
  struct Shape {
    const char* label;
    double wx;
    const char* note;
  };
  const Shape shapes[] = {
      {"320x1x1 (full row)", 320, "ideal: one run per row"},
      {"160x4x4 (paper's tuned ndrange)", 160, "~the flat default +2%"},
      {"64x4x4", 64, ""},
      {"16x8x8", 16, "fragmented rows"},
      {"4x16x16", 4, "prefetch-hostile"},
      {"1x32x32 (GPU-ish shape)", 1, "fine on GPUs, bad on CPUs (S5.1)"},
  };
  for (const Shape& s : shapes)
    model.add_row({std::string(s.label),
                   core::workgroup_stream_efficiency(s.wx, 320, 8),
                   std::string(s.note)});
  run.emit(model);

  // Real executor: a 3-D stencil at several shapes on this host.
  ops::Context ctx;
  ops::Block b(ctx, "g", 3, {n, n, n});
  ops::Dat<double> u(b, "u", 1), v(b, "v", 1);
  u.fill_indexed([](idx_t i, idx_t j, idx_t k) {
    return 0.01 * double(i) + 0.02 * double(j) - 0.005 * double(k);
  });
  auto kern = [](ops::Acc<const double> a, ops::Acc<double> o) {
    o(0, 0, 0) = a(-1, 0, 0) + a(1, 0, 0) + a(0, -1, 0) + a(0, 1, 0) +
                 a(0, 0, -1) + a(0, 0, 1) - 6.0 * a(0, 0, 0);
  };
  const ops::Range r = ops::Range::make3d(1, n - 1, 1, n - 1, 1, n - 1);

  // Canonical order reference (checksum target).
  ops::par_loop({"ref", 8.0}, b, r, kern,
                ops::read(u, ops::Stencil::star(3, 1)), ops::write(v));
  double ref_sum = 0;
  ops::par_loop({"sum", 1.0}, b, r,
                [](ops::Acc<const double> a, double& s) { s += a(0, 0, 0); },
                ops::read(v), ops::reduce_sum(ref_sum));

  Table host("Workgroup-blocked executor on THIS host (n=" +
             std::to_string(n) + ", stencil kernel)");
  host.set_columns({{"shape", 0}, {"seconds", 4}, {"matches canonical", 0}});
  for (std::array<idx_t, 3> wg :
       {std::array<idx_t, 3>{n, 1, 1}, {n / 2, 4, 4}, {16, 8, 8},
        {4, 16, 16}, {1, 32, 32}}) {
    const std::string shape = std::to_string(wg[0]) + "x" +
                              std::to_string(wg[1]) + "x" +
                              std::to_string(wg[2]);
    const double el = run.time_seconds("host.wg" + shape + ".s", [&] {
      ops::par_loop_blocked({"wg", 8.0}, b, r, wg, kern,
                            ops::read(u, ops::Stencil::star(3, 1)),
                            ops::write(v));
    });
    double sum = 0;
    ops::par_loop({"sum2", 1.0}, b, r,
                  [](ops::Acc<const double> a, double& s) {
                    s += a(0, 0, 0);
                  },
                  ops::read(v), ops::reduce_sum(sum));
    host.add_row({shape, el, std::string(sum == ref_sum ? "yes" : "NO")});
  }
  run.emit(host);
  run.finish();
  return 0;
}
