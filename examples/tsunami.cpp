// Tsunami scenario on the Volna reproduction: a Gaussian sea-surface hump
// over the synthetic ocean basin (the stand-in for the paper's
// Indian-Ocean case) propagates outward over the radial continental
// shelf. Prints a wave-gauge time series and conservation diagnostics,
// then models the production-scale run (30M cells, 200 steps) on the
// paper's platforms.
//
// Run:  ./build/examples/tsunami [--n=64] [--steps=60] [--exec=vec]
#include <iostream>

#include "apps/volna/volna.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/app_registry.hpp"
#include "core/perf_model.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  apps::Options o;
  o.n = cli.get_int("n", 64);
  const int total_steps = static_cast<int>(cli.get_int("steps", 60));
  const std::string exec = cli.get("exec", "vec");
  o.exec_mode = apps::exec_mode_from_name(exec);
  o.threads = static_cast<int>(cli.get_int("threads", 1));

  std::cout << "Volna tsunami demo: " << 2 * o.n * o.n
            << " triangles, execution mode '" << exec << "'\n\n";

  Table gauges("Wave evolution (cumulative re-runs of the same scenario)");
  gauges.set_columns({{"steps", 0},
                      {"max eta m", 3},
                      {"max speed m/s", 3},
                      {"mass drift (rel)", 9}});
  for (int steps : {0, total_steps / 4, total_steps / 2, total_steps}) {
    apps::Options oi = o;
    oi.iterations = steps;
    const apps::Result r = apps::volna::run(oi);
    gauges.add_row(
        {double(steps), r.metric("eta_max"), r.metric("speed_max"),
         std::abs(r.metric("mass") - r.metric("mass_initial")) /
             r.metric("mass_initial")});
  }
  gauges.print(std::cout);

  std::cout << "\nThe hump collapses into an outgoing ring wave; mass is "
               "conserved to\nsingle-precision round-off and the wall "
               "edges reflect it back.\n\n";

  // Production scale on the paper's platforms.
  const core::AppInfo& volna = core::app_by_id("volna");
  Table model("Paper-scale Volna (30M cells, 200 steps) — model");
  model.set_columns({{"platform", 0}, {"best config", 0}, {"runtime s", 2}});
  for (const sim::MachineModel* m : sim::cpu_machines()) {
    core::Config best;
    double t = 1e300;
    for (const core::Config& c :
         core::config_space(*m, core::AppClass::Unstructured)) {
      const double ti = core::PerfModel(*m).predict(volna.profile, c).total();
      if (ti < t) {
        t = ti;
        best = c;
      }
    }
    model.add_row({m->name, best.label(), t});
  }
  model.print(std::cout);
  std::cout << "\nThe auto-vectorizing MPI lane wins on the AVX-512 "
               "platforms (the paper's\nFigure 4/5 finding); on the EPYC "
               "the 256-bit pack gains are smaller.\n";
  return 0;
}
