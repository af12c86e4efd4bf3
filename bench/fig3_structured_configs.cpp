// Figure 3: structured-mesh configuration sweep on the Intel Xeon CPU MAX
// 9480 — normalized runtime (slowdown vs the per-application best) for
// every feasible compiler x ZMM x HT x parallelization combination, rows
// ordered by ascending average, plus the §5 mean/median summary and the
// same sweep on the 8360Y for the sensitivity contrast.
#include "bench/bench_common.hpp"

using namespace bwlab;
using namespace bwlab::core;

namespace {

void sweep(bench::Runner& run, const sim::MachineModel& m) {
  const auto apps = structured_apps();
  const auto space = config_space(m, AppClass::Structured);

  std::vector<std::vector<double>> times;
  for (const Config& c : space) {
    std::vector<double> row;
    for (const AppInfo* a : apps)
      row.push_back(PerfModel(m).predict(a->profile, c).total());
    times.push_back(std::move(row));
  }
  const auto norm = normalize_columns_to_best(times);
  const auto order = order_rows_by_mean(norm);

  Table t("Figure 3 — config sweep on " + m.name +
          " (slowdown vs best per app)");
  std::vector<Column> cols = {{"configuration", 0}};
  for (const AppInfo* a : apps) cols.push_back({a->display, 2});
  cols.push_back({"mean", 2});
  t.set_columns(cols);
  for (std::size_t r : order) {
    std::vector<Cell> row = {space[r].label()};
    for (double v : norm[r]) row.push_back(v);
    row.push_back(mean(norm[r]));
    t.add_row(std::move(row));
  }
  run.emit(t);

  const auto s = summarize_slowdowns(norm);
  Table sum("Sensitivity summary on " + m.name);
  sum.set_columns({{"stat", 0}, {"paper", 2}, {"model", 2}});
  const bool is_max = m.id == "max9480";
  sum.add_row({std::string("mean slowdown vs best"), is_max ? 1.25 : 1.11,
               s.mean});
  sum.add_row({std::string("median slowdown vs best"), is_max ? 1.12 : 1.05,
               s.median});
  run.emit(sum);
  run.record_value("model." + m.id + ".mean_slowdown", "x",
                   benchjson::Better::Lower, s.mean);
  run.record_value("model." + m.id + ".median_slowdown", "x",
                   benchjson::Better::Lower, s.median);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "fig3_structured_configs");
  cli.reject_unknown();
  sweep(run, sim::max9480());
  sweep(run, sim::icx8360y());
  run.finish();
  return 0;
}
