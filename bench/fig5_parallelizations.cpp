// Figure 5: relative speedup of the parallelization strategies over pure
// MPI on the Intel Xeon CPU MAX 9480 (OneAPI, ZMM high, HT off):
// MPI+OpenMP, MPI+SYCL flat, MPI+SYCL ndrange, and — for the unstructured
// apps — the auto-vectorizing MPI lane.
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig5_parallelizations");
  cli.reject_unknown();
  const sim::MachineModel& m = sim::max9480();
  PerfModel pm(m);

  Table t("Figure 5 — speedup vs pure MPI on " + m.name);
  t.set_columns({{"application", 0},
                 {"MPI+OpenMP", 2},
                 {"MPI+SYCL flat", 2},
                 {"MPI+SYCL ndrange", 2},
                 {"MPI vec", 2}});
  for (const AppInfo& a : all_apps()) {
    const Config base{Compiler::OneAPI, Zmm::High, false, ParMode::Mpi};
    const double t0 = pm.predict(a.profile, base).total();
    auto rel = [&](ParMode p) {
      Config c = base;
      c.par = p;
      return t0 / pm.predict(a.profile, c).total();
    };
    t.add_row({a.display, rel(ParMode::MpiOmp), rel(ParMode::MpiSyclFlat),
               rel(ParMode::MpiSyclNd),
               a.cls == AppClass::Unstructured
                   ? Cell(rel(ParMode::MpiVec))
                   : Cell(std::monostate{})});
  }
  run.emit(t);

  Table claims("Figure 5 claims — paper vs model");
  claims.set_columns({{"claim", 0}, {"paper", 2}, {"model", 2}});
  PerfModel pmx(m);
  const Config base{Compiler::OneAPI, Zmm::High, false, ParMode::Mpi};
  auto rel_for = [&](const char* id, ParMode p) {
    const AppProfile& prof = app_by_id(id).profile;
    Config c = base;
    c.par = p;
    return pmx.predict(prof, base).total() / pmx.predict(prof, c).total();
  };
  claims.add_row({std::string("MG-CFD: MPI vec over MPI (1.6-1.8x band)"),
                  1.7, rel_for("mgcfd", ParMode::MpiVec)});
  claims.add_row({std::string("Volna: MPI vec over MPI (1.6-1.8x band)"),
                  1.7, rel_for("volna", ParMode::MpiVec)});
  claims.add_row(
      {std::string("Acoustic: MPI+OpenMP gain (comm-bound, largest)"), 1.2,
       rel_for("acoustic", ParMode::MpiOmp)});
  claims.add_row({std::string("miniBUDE: SYCL reaches only ~x of OpenMP"),
                  0.5, rel_for("minibude", ParMode::MpiSyclFlat) /
                           rel_for("minibude", ParMode::MpiOmp)});
  run.emit(claims);
  run.record_value("model.mgcfd.vec_speedup", "x", benchjson::Better::Higher,
                   rel_for("mgcfd", ParMode::MpiVec));
  run.record_value("model.acoustic.omp_speedup", "x",
                   benchjson::Better::Higher,
                   rel_for("acoustic", ParMode::MpiOmp));
  run.finish();
  return 0;
}
