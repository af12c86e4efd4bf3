// Quickstart: the whole bwlab workflow in one file.
//
//  1. Write a small structured-mesh solver (2-D heat diffusion) against
//     the mini-OPS DSL and run it for real — serially, threaded, and
//     distributed over SimMPI ranks, with identical results.
//  2. Extract the instrumented profile of the real run.
//  3. Ask the performance model how this kernel would perform on the four
//     platforms of the paper (Xeon CPU MAX 9480, Xeon 8360Y, EPYC 7V73X,
//     A100), in the spirit of the paper's Figures 6 and 8.
//
// Build & run:  ./build/examples/quickstart [--n=256] [--steps=100]
#include <iostream>

#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "common/units.hpp"
#include "core/perf_model.hpp"
#include "core/profile.hpp"
#include "core/report.hpp"
#include "ops/par_loop.hpp"

using namespace bwlab;

namespace {

/// Runs `steps` Jacobi diffusion sweeps on an n x n periodic grid and
/// returns the rank-0 instrumentation plus the final field average.
struct HeatResult {
  double average = 0;
  Instrumentation instr;
};

HeatResult run_heat(idx_t n, int steps, int threads, par::Comm* comm) {
  std::unique_ptr<ops::Context> ctx =
      comm ? std::make_unique<ops::Context>(*comm, threads)
           : std::make_unique<ops::Context>(threads);
  ops::Block grid(*ctx, "grid", 2, {n, n, 1});
  ops::Dat<double> t_old(grid, "t_old", 1);
  ops::Dat<double> t_new(grid, "t_new", 1);
  t_old.set_bc_all(ops::Bc::Periodic);
  t_new.set_bc_all(ops::Bc::Periodic);

  // A hot square in the middle of a cold plate.
  t_old.fill_indexed([n](idx_t i, idx_t j, idx_t) {
    const bool hot = i > n / 3 && i < 2 * n / 3 && j > n / 3 && j < 2 * n / 3;
    return hot ? 100.0 : 0.0;
  });
  t_new.fill(0.0);

  const ops::Range interior = ops::Range::make2d(0, n, 0, n);
  for (int s = 0; s < steps; ++s) {
    ops::par_loop({"diffuse", 6.0}, grid, interior,
                  [](ops::Acc<const double> t, ops::Acc<double> out) {
                    out(0, 0) = t(0, 0) + 0.2 * (t(-1, 0) + t(1, 0) +
                                                 t(0, -1) + t(0, 1) -
                                                 4.0 * t(0, 0));
                  },
                  ops::read(t_old, ops::Stencil::star(2, 1)),
                  ops::write(t_new));
    std::swap(t_old, t_new);
  }

  double sum = 0;
  ops::par_loop({"average", 1.0}, grid, interior,
                [](ops::Acc<const double> t, double& s) { s += t(0, 0); },
                ops::read(t_old), ops::reduce_sum(sum));
  if (comm) sum = comm->allreduce_sum(sum);

  HeatResult r;
  r.average = sum / static_cast<double>(n * n);
  r.instr = ctx->instr();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const idx_t n = cli.get_int("n", 256);
  const int steps = static_cast<int>(cli.get_int("steps", 100));
  const ObservabilityFlags obs = observability_flags(cli);
  if (!obs.trace_path.empty()) trace::enable();

  std::cout << "bwlab quickstart: " << n << "x" << n << " heat diffusion, "
            << steps << " steps\n\n";

  // 1. Real executions — all three must agree (diffusion conserves heat).
  const HeatResult serial = run_heat(n, steps, 1, nullptr);
  const HeatResult threaded = run_heat(n, steps, 4, nullptr);
  HeatResult distributed;
  par::run_ranks(4, [&](par::Comm& comm) {
    HeatResult r = run_heat(n, steps, 1, &comm);
    if (comm.rank() == 0) distributed = std::move(r);
  });
  std::cout << "average temperature (serial)      = " << serial.average
            << "\naverage temperature (4 threads)   = " << threaded.average
            << "\naverage temperature (4 MPI ranks) = " << distributed.average
            << "\n\n";

  // Observability artifacts (--trace/--metrics/--report, see README).
  trace::disable();
  if (!obs.trace_path.empty()) trace::write_chrome_json_file(obs.trace_path);
  if (!obs.metrics_path.empty())
    MetricsRegistry::global().write_json_file(obs.metrics_path);
  if (!obs.report_path.empty())
    core::write_run_report_json_file(
        obs.report_path,
        core::make_run_report(serial.instr, &MetricsRegistry::global()));

  // 2. Profile extraction: scale the measured kernel up to a 7680^2 run.
  core::AppProfile prof =
      core::scale_profile(serial.instr, steps, double(n), 7680.0, 2);
  prof.app_id = "quickstart_heat";
  prof.display = "Heat diffusion";
  prof.fp_bytes = 8;
  prof.iterations = 100;
  prof.global = {7680.0, 7680.0, 1.0};
  prof.working_set_bytes = 2.0 * 7680.0 * 7680.0 * 8.0;

  // 3. Model the paper's platforms.
  Table t("Predicted performance of a 7680^2 x100-step run");
  t.set_columns({{"platform", 0},
                 {"runtime s", 3},
                 {"eff GB/s", 0},
                 {"% of STREAM", 1},
                 {"MPI %", 1}});
  for (const sim::MachineModel* m : sim::all_machines()) {
    core::PerfModel pm(*m);
    const core::Config cfg = core::default_config(
        *m, core::AppClass::Structured);
    const core::Prediction p = pm.predict(prof, cfg);
    t.add_row({m->name, p.total(), p.eff_bw() / kGB,
               100.0 * p.eff_bw() / m->stream_triad_node,
               100.0 * p.mpi_fraction()});
  }
  t.print(std::cout);
  std::cout << "\nThe MAX CPU's HBM buys this bandwidth-bound kernel its "
               "~4-5x advantage\nover the DDR platforms — the paper's core "
               "result.\n";
  return 0;
}
