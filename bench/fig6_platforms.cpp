// Figure 6: best performance of every application on the four platforms
// (Intel Xeon CPU MAX 9480, Xeon Platinum 8360Y, EPYC 7V73X, NVIDIA A100)
// with the best-performing implementation labels, and the speedup table
// of the MAX CPU over the other two CPUs — including the paper's
// headline numbers for comparison.
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig6_platforms");
  cli.reject_unknown();

  Table t("Figure 6 — best modeled runtime (s) and winning configuration");
  t.set_columns({{"application", 0},
                 {"MAX 9480", 3},
                 {"best config on MAX", 0},
                 {"8360Y", 3},
                 {"7V73X", 3},
                 {"A100", 3}});
  for (const AppInfo& a : all_apps()) {
    Config best;
    const double tm = bench::best_time(a, sim::max9480(), &best);
    t.add_row({a.display, tm, best.label(),
               bench::best_time(a, sim::icx8360y()),
               bench::best_time(a, sim::milanx()),
               bench::best_time(a, sim::a100())});
    run.record_value("model." + a.id + ".max9480.best_s", "s",
                     benchjson::Better::Lower, tm);
  }
  run.emit(t);

  // Speedup table under the runtime chart, as in the paper.
  struct PaperRow {
    const char* id;
    double vs_icx;  // paper §6 where stated; -1 where the paper gives a range
    double vs_amd;
  };
  const PaperRow paper[] = {
      {"minibude", 1.9, 1.36}, {"cloverleaf2d", 4.2, -1},
      {"cloverleaf3d", -1, -1}, {"acoustic", 1.98, -1},
      {"opensbli_sa", 3.8, -1}, {"opensbli_sn", 2.5, -1},
      {"mgcfd", 2.5, 2.0},      {"volna", -1, -1},
      {"miniweather", -1, -1},
  };
  Table sp("Figure 6 — speedup of MAX 9480 (paper value in parentheses "
           "where §6 states one; paper range 2.0-4.3x overall)");
  sp.set_columns({{"application", 0},
                  {"vs 8360Y", 2},
                  {"paper", 2},
                  {"vs 7V73X", 2},
                  {"paper", 2},
                  {"A100 vs MAX", 2}});
  for (const PaperRow& row : paper) {
    const AppInfo& a = app_by_id(row.id);
    const double tm = bench::best_time(a, sim::max9480());
    sp.add_row({a.display, bench::best_time(a, sim::icx8360y()) / tm,
                row.vs_icx > 0 ? Cell(row.vs_icx) : Cell(std::monostate{}),
                bench::best_time(a, sim::milanx()) / tm,
                row.vs_amd > 0 ? Cell(row.vs_amd) : Cell(std::monostate{}),
                tm / bench::best_time(a, sim::a100())});
  }
  run.emit(sp);

  // §5 headline: miniBUDE absolute compute rate on the MAX CPU.
  const AppInfo& bude = app_by_id("minibude");
  const Config c{Compiler::OneAPI, Zmm::High, false, ParMode::MpiOmp};
  const Prediction p = PerfModel(sim::max9480()).predict(bude.profile, c);
  Table bud("miniBUDE on MAX 9480 — paper vs model");
  bud.set_columns({{"quantity", 0}, {"paper", 2}, {"model", 2}});
  bud.add_row({std::string("achieved TFLOP/s (OneAPI, ZMM high, no HT)"),
               6.0, p.achieved_flops() / 1e12});
  run.emit(bud);
  run.record_value("model.minibude.max9480.tflops", "TFLOP/s",
                   benchjson::Better::Higher, p.achieved_flops() / 1e12);
  run.finish();
  return 0;
}
