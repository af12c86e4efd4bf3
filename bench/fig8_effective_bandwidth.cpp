// Figure 8: achieved effective bandwidth of the structured applications
// on the Intel Xeon CPU MAX 9480 — the OPS-style useful-bytes /
// kernel-time metric, as a fraction of the achieved STREAM bandwidth —
// against the paper's reported fractions, plus the 8360Y / 7V73X contrast
// (75-85% and 79-96% respectively).
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig8_effective_bandwidth");
  cli.reject_unknown();

  struct PaperFrac {
    const char* id;
    double frac;  // of achieved STREAM; -1 where the paper gives none
  };
  const PaperFrac paper[] = {
      {"cloverleaf2d", 0.75}, {"cloverleaf3d", 0.66}, {"opensbli_sa", 0.66},
      {"opensbli_sn", 0.53},  {"acoustic", 0.41},     {"miniweather", -1},
  };

  Table t("Figure 8 — effective bandwidth on " + sim::max9480().name);
  t.set_columns({{"application", 0},
                 {"eff GB/s", 0},
                 {"% of STREAM (model)", 1},
                 {"% (paper)", 1},
                 {"% on 8360Y", 1},
                 {"% on 7V73X", 1}});
  for (const PaperFrac& row : paper) {
    const AppInfo& a = app_by_id(row.id);
    Config cm;
    bench::best_time(a, sim::max9480(), &cm);
    const Prediction pm =
        PerfModel(sim::max9480()).predict(a.profile, cm);
    Config ci;
    bench::best_time(a, sim::icx8360y(), &ci);
    const Prediction pi =
        PerfModel(sim::icx8360y()).predict(a.profile, ci);
    Config ca;
    bench::best_time(a, sim::milanx(), &ca);
    const Prediction pa = PerfModel(sim::milanx()).predict(a.profile, ca);
    t.add_row({a.display, pm.eff_bw() / kGB,
               100.0 * pm.eff_bw() / sim::max9480().stream_triad_node,
               row.frac > 0 ? Cell(100.0 * row.frac) : Cell(std::monostate{}),
               100.0 * pi.eff_bw() / sim::icx8360y().stream_triad_node,
               100.0 * pa.eff_bw() / sim::milanx().stream_triad_node});
    run.record_value("model." + a.id + ".max9480.eff_gbs", "GB/s",
                     benchjson::Better::Higher, pm.eff_bw() / kGB);
  }
  run.emit(t);

  Table note("Figure 8 context — paper vs model ranges");
  note.set_columns({{"claim", 0}, {"paper", 0}, {"model", 0}});
  note.add_row({std::string("8360Y range on these apps"),
                std::string("75-85%"), std::string("see column above")});
  note.add_row({std::string("7V73X range on these apps"),
                std::string("79-96%"), std::string("see column above")});
  run.emit(note);
  run.finish();
  return 0;
}
