// Figure 7: fraction of total runtime spent in MPI for the pure-MPI and
// MPI+OpenMP implementations on the three CPU platforms, plus the §6
// aggregate claims (hybrid reduces overhead by ~15% on the older CPUs but
// only ~8% on the MAX; the MAX fraction is 1.2-5.3x the 8360Y's), plus a
// measured SimMPI table: real blocked time / message counts / payload
// bytes per rank from a small CloverLeaf 2D run (the same RankStats the
// paper's MPI_Wait instrumentation produces).
#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig7_mpi_overhead");
  const idx_t n = cli.get_int("n", 48);
  const int iters = static_cast<int>(cli.get_int("iters", 2));
  cli.reject_unknown();

  Table t("Figure 7 — % of runtime in MPI (model)");
  std::vector<Column> cols = {{"application", 0}};
  for (const sim::MachineModel* m : sim::cpu_machines()) {
    cols.push_back({m->id + " MPI", 1});
    cols.push_back({m->id + " MPI+OMP", 1});
  }
  t.set_columns(cols);

  std::vector<const AppInfo*> apps = structured_apps();
  for (const AppInfo* a : unstructured_apps()) apps.push_back(a);

  for (const AppInfo* a : apps) {
    std::vector<Cell> row = {a->display};
    for (const sim::MachineModel* m : sim::cpu_machines()) {
      PerfModel pm(*m);
      const Compiler comp =
          m->has_avx512 ? Compiler::OneAPI : Compiler::Aocc;
      const Config mpi{comp, Zmm::Default, false,
                       a->cls == AppClass::Unstructured ? ParMode::MpiVec
                                                        : ParMode::Mpi};
      Config omp = mpi;
      omp.par = ParMode::MpiOmp;
      const double f_mpi = 100.0 * pm.predict(a->profile, mpi).mpi_fraction();
      const double f_omp = 100.0 * pm.predict(a->profile, omp).mpi_fraction();
      row.emplace_back(std::in_place_type<double>, f_mpi);
      row.emplace_back(std::in_place_type<double>, f_omp);
    }
    t.add_row(std::move(row));
  }
  run.emit(t);

  // Aggregate claims.
  auto mean_improvement = [&](const sim::MachineModel& m) {
    PerfModel pm(m);
    std::vector<double> gains;
    const Compiler comp = m.has_avx512 ? Compiler::OneAPI : Compiler::Aocc;
    for (const AppInfo* a : structured_apps()) {
      const Config mpi{comp, Zmm::Default, false, ParMode::Mpi};
      Config omp = mpi;
      omp.par = ParMode::MpiOmp;
      const double f_mpi = pm.predict(a->profile, mpi).mpi_fraction();
      const double f_omp = pm.predict(a->profile, omp).mpi_fraction();
      gains.push_back(f_mpi > 0 ? (f_mpi - f_omp) / f_mpi : 0.0);
    }
    return 100.0 * mean(gains);
  };
  Table claims("Figure 7 claims — paper vs model");
  claims.set_columns({{"claim", 0}, {"paper %", 1}, {"model %", 1}});
  claims.add_row({std::string("MPI->MPI+OpenMP overhead reduction, 8360Y"),
                  15.0, mean_improvement(sim::icx8360y())});
  claims.add_row({std::string("MPI->MPI+OpenMP overhead reduction, 7V73X"),
                  15.0, mean_improvement(sim::milanx())});
  claims.add_row({std::string("MPI->MPI+OpenMP overhead reduction, MAX"),
                  8.2, mean_improvement(sim::max9480())});
  run.emit(claims);
  run.record_value("model.max9480.hybrid_gain_pct", "%",
                   benchjson::Better::Higher,
                   mean_improvement(sim::max9480()));

  // Measured SimMPI overheads (host execution, not the model): run
  // CloverLeaf 2D distributed and report the per-run maxima/sums of the
  // RankStats that run_ranks collects.
  Table measured("Measured SimMPI overhead — CloverLeaf 2D on host");
  measured.set_columns({{"ranks", 0},
                        {"elapsed s", 4},
                        {"max blocked s", 4},
                        {"blocked %", 1},
                        {"messages", 0},
                        {"payload MB", 2}});
  for (int ranks : {2, 4}) {
    apps::Options opt;
    opt.n = n;
    opt.iterations = iters;
    opt.ranks = ranks;
    const apps::Result r = apps::clover2d::run(opt);
    seconds_t max_blocked = 0;
    count_t msgs = 0, bytes = 0;
    for (const par::RankStats& st : r.rank_stats) {
      max_blocked = std::max(max_blocked, st.comm_seconds);
      msgs += st.messages_sent;
      bytes += st.payload_bytes_sent;
    }
    measured.add_row({static_cast<double>(ranks), r.elapsed, max_blocked,
                      r.elapsed > 0 ? 100.0 * max_blocked / r.elapsed : 0.0,
                      static_cast<double>(msgs),
                      static_cast<double>(bytes) / 1e6});
    run.record_value("host.clover2d.r" + std::to_string(ranks) + ".elapsed_s",
                     "s", benchjson::Better::Lower, r.elapsed);
  }
  run.emit(measured);
  run.finish();
  return 0;
}
