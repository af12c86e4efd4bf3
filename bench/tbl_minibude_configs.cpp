// Section 5 miniBUDE findings on the Intel Xeon CPU MAX 9480: ~6 TFLOP/s
// with OneAPI / ZMM high / HT off; ZMM high is worth +45%; enabling HT
// costs 28%; SYCL reaches only ~50% of OpenMP; Classic is infeasible.
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "tbl_minibude_configs");
  cli.reject_unknown();
  const AppProfile& p = app_by_id("minibude").profile;
  PerfModel pm(sim::max9480());
  const Config best{Compiler::OneAPI, Zmm::High, false, ParMode::MpiOmp};

  Table t("miniBUDE configuration study on " + sim::max9480().name);
  t.set_columns(
      {{"configuration", 0}, {"runtime s", 3}, {"TFLOP/s", 2}});
  for (const Config& c : config_space(sim::max9480(), AppClass::ComputeBound)) {
    const Prediction pred = pm.predict(p, c);
    t.add_row({c.label(), pred.total(), pred.achieved_flops() / 1e12});
  }
  run.emit(t);

  Config zmm_dflt = best;
  zmm_dflt.zmm = Zmm::Default;
  Config ht_on = best;
  ht_on.ht = true;
  Config sycl = best;
  sycl.par = ParMode::MpiSyclFlat;

  Table claims("miniBUDE claims (§5) — paper vs model");
  claims.set_columns({{"claim", 0}, {"paper", 2}, {"model", 2}});
  claims.add_row({std::string("TFLOP/s with OneAPI, ZMM high, no HT"), 6.0,
                  pm.predict(p, best).achieved_flops() / 1e12});
  claims.add_row({std::string("ZMM high speedup over default"), 1.45,
                  pm.predict(p, zmm_dflt).total() /
                      pm.predict(p, best).total()});
  claims.add_row({std::string("HT-on slowdown (paper: -28% perf)"), 1.39,
                  pm.predict(p, ht_on).total() / pm.predict(p, best).total()});
  claims.add_row({std::string("SYCL relative to OpenMP"), 0.5,
                  pm.predict(p, best).total() / pm.predict(p, sycl).total()});
  claims.add_row(
      {std::string("Classic rows in the feasible space (stalls)"), 0.0,
       [&] {
         double classic = 0;
         for (const Config& c :
              config_space(sim::max9480(), AppClass::ComputeBound))
           classic += c.compiler == Compiler::Classic ? 1 : 0;
         return classic;
       }()});
  run.emit(claims);
  run.record_value("model.minibude.best_tflops", "TFLOP/s",
                   benchjson::Better::Higher,
                   pm.predict(p, best).achieved_flops() / 1e12);
  run.record_value("model.minibude.zmm_gain", "x", benchjson::Better::Higher,
                   pm.predict(p, zmm_dflt).total() /
                       pm.predict(p, best).total());
  run.finish();
  return 0;
}
