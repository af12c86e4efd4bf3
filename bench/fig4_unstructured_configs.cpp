// Figure 4: unstructured-mesh configuration sweep on the Intel Xeon CPU
// MAX 9480 — the 25 rows of the paper ({MPI, MPI vec, MPI+OpenMP} x
// 2 compilers x 2 ZMM x 2 HT + one MPI+SYCL row) for MG-CFD and Volna,
// normalized to each application's best.
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig4_unstructured_configs");
  cli.reject_unknown();
  const sim::MachineModel& m = sim::max9480();
  const auto apps = unstructured_apps();
  const auto space = config_space(m, AppClass::Unstructured);

  std::vector<std::vector<double>> times;
  for (const Config& c : space) {
    std::vector<double> row;
    for (const AppInfo* a : apps)
      row.push_back(PerfModel(m).predict(a->profile, c).total());
    times.push_back(std::move(row));
  }
  const auto norm = normalize_columns_to_best(times);
  const auto order = order_rows_by_mean(norm);

  Table t("Figure 4 — unstructured config sweep on " + m.name +
          " (slowdown vs best per app, " + std::to_string(space.size()) +
          " rows)");
  t.set_columns({{"configuration", 0}, {"MG-CFD", 2}, {"Volna", 2}});
  for (std::size_t r : order)
    t.add_row({space[r].label(), norm[r][0], norm[r][1]});
  run.emit(t);

  // Paper claims: "MPI vec implementations perform the best — on average
  // by 66% compared to others"; vec wants ZMM high; HT helps by ~13%.
  double vec_mean = 0, other_mean = 0;
  int nvec = 0, nother = 0;
  for (std::size_t r = 0; r < space.size(); ++r) {
    const double v = mean(norm[r]);
    if (space[r].par == ParMode::MpiVec) {
      vec_mean += v;
      ++nvec;
    } else {
      other_mean += v;
      ++nother;
    }
  }
  vec_mean /= nvec;
  other_mean /= nother;
  Table claims("Figure 4 claims — paper vs model");
  claims.set_columns({{"claim", 0}, {"paper", 2}, {"model", 2}});
  claims.add_row({std::string("non-vec rows slower than vec rows (avg)"),
                  1.66, other_mean / vec_mean});
  claims.add_row({std::string("best row uses MPI vec (1 = yes)"), 1.0,
                  space[order.front()].par == ParMode::MpiVec ? 1.0 : 0.0});
  run.emit(claims);
  run.record_value("model.max9480.nonvec_over_vec", "x",
                   benchjson::Better::Lower, other_mean / vec_mean);
  run.finish();
  return 0;
}
