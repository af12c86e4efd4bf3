#include "core/report.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <ostream>
#include <utility>

#include "common/benchjson.hpp"
#include "common/error.hpp"
#include "common/pattern.hpp"

namespace bwlab::core {

std::vector<std::vector<double>> normalize_columns_to_best(
    const std::vector<std::vector<double>>& times) {
  BWLAB_REQUIRE(!times.empty(), "no rows to normalize");
  const std::size_t cols = times.front().size();
  std::vector<double> best(cols, 1e300);
  for (const auto& row : times) {
    BWLAB_REQUIRE(row.size() == cols, "ragged time matrix");
    for (std::size_t c = 0; c < cols; ++c) best[c] = std::min(best[c], row[c]);
  }
  std::vector<std::vector<double>> out(times.size(),
                                       std::vector<double>(cols));
  for (std::size_t r = 0; r < times.size(); ++r)
    for (std::size_t c = 0; c < cols; ++c) out[r][c] = times[r][c] / best[c];
  return out;
}

std::vector<std::size_t> order_rows_by_mean(
    const std::vector<std::vector<double>>& values) {
  std::vector<std::size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<double> means(values.size());
  for (std::size_t r = 0; r < values.size(); ++r) means[r] = mean(values[r]);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return means[a] < means[b];
  });
  return idx;
}

SlowdownSummary summarize_slowdowns(
    const std::vector<std::vector<double>>& normalized) {
  std::vector<double> all;
  for (const auto& row : normalized)
    all.insert(all.end(), row.begin(), row.end());
  return {mean(all), median(all)};
}

Table top_loops_table(const Instrumentation& instr, std::size_t top_n) {
  std::vector<const LoopRecord*> loops = instr.loops_in_order();
  std::stable_sort(loops.begin(), loops.end(),
                   [](const LoopRecord* a, const LoopRecord* b) {
                     return a->host_seconds > b->host_seconds;
                   });
  if (loops.size() > top_n) loops.resize(top_n);

  Table t("Top loops by host time");
  t.set_columns({{"loop", 0},
                 {"calls", 0},
                 {"seconds", 4},
                 {"GB moved", 3},
                 {"GB/s", 2},
                 {"pattern", 0}});
  for (const LoopRecord* l : loops)
    t.add_row({l->name, static_cast<double>(l->calls), l->host_seconds,
               static_cast<double>(l->bytes) / 1e9, l->effective_bw() / 1e9,
               std::string(to_string(l->pattern))});
  return t;
}

Table effective_bw_table(const Instrumentation& instr) {
  Table t("Effective bandwidth per loop (Figure 8 convention)");
  t.set_columns({{"loop", 0},
                 {"bytes/point", 1},
                 {"flops/point", 1},
                 {"GB/s", 2}});
  for (const LoopRecord* l : instr.loops_in_order())
    t.add_row({l->name, l->bytes_per_point(), l->flops_per_point(),
               l->effective_bw() / 1e9});
  return t;
}

RunReport make_run_report(const Instrumentation& instr,
                          const MetricsRegistry* metrics,
                          const AttributionReport* attr,
                          const causal::Report* causal_rep,
                          const DatMoveReport* datmove,
                          const RunProvenance* provenance,
                          const live::TimeSeries* timeseries,
                          const MemTierSection* memtier) {
  RunReport r;
  if (memtier != nullptr) r.memtier = *memtier;
  if (timeseries != nullptr && !timeseries->empty()) r.timeseries = *timeseries;
  if (provenance != nullptr) r.provenance = *provenance;
  // $BWBENCH_PERTURB scales the snapshotted loop times exactly as it
  // scales bench::Runner durations — a known synthetic slowdown for
  // exercising the diff/gate pipelines end to end, applied at report
  // time so the hot path never pays for it.
  const double perturb = benchjson::perturb_factor();
  for (const LoopRecord* l : instr.loops_in_order()) {
    ReportLoop out;
    out.name = l->name;
    out.calls = l->calls;
    out.points = l->points;
    out.bytes = l->bytes;
    out.flops = l->flops;
    out.host_seconds = l->host_seconds * perturb;
    out.effective_bw_gbs =
        out.host_seconds > 0
            ? static_cast<double>(out.bytes) / out.host_seconds / 1e9
            : 0.0;
    out.pattern = to_string(l->pattern);
    out.max_radius = l->max_radius;
    out.ndims = l->ndims;
    r.loops.push_back(std::move(out));
  }
  for (const ExchangeRecord* e : instr.exchanges()) r.exchanges.push_back(*e);
  r.total_loop_seconds = instr.total_loop_seconds() * perturb;
  if (instr.tiling().chains > 0) r.tiling = instr.tiling();
  if (attr != nullptr) r.attribution = *attr;
  if (metrics != nullptr) r.metrics = metrics->snapshot();
  if (causal_rep != nullptr) r.causal = causal::summarize(*causal_rep);
  if (datmove != nullptr) r.datmove = *datmove;
  // bwresil: only present when the resilience policy is active, so
  // resil-off runs keep their report unchanged.
  if (resil::active()) {
    const resil::Stats st = resil::stats();
    r.resil = ResilSection{resil::policy(),   st.retries,
                           st.recovered,      st.degraded_events,
                           st.rollbacks,      st.buddy_restores,
                           resil::buddy_total_bytes()};
  }
  // Trace health: only present when the tracer has (or had) events, so
  // untraced runs keep their report unchanged.
  std::vector<trace::ThreadDrops> drops = trace::dropped_by_thread();
  if (!drops.empty()) {
    TraceSection& th = r.trace_health.emplace();
    for (const trace::ThreadDrops& d : drops) th.dropped_events += d.dropped;
    th.threads = std::move(drops);
  }
  return r;
}

void write_run_report_json(std::ostream& os, const RunReport& r) {
  json::write(os, r);
  os << '\n';
}

void write_run_report_json_file(const std::string& path, const RunReport& r) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open report output file '" << path << "'");
  write_run_report_json(os, r);
  BWLAB_REQUIRE(os.good(), "failed writing report to '" << path << "'");
}

RunReport parse_run_report(std::istream& is) {
  return json::read<RunReport>(json::parse(is));
}

RunReport read_run_report(const std::string& path) {
  std::ifstream is(path);
  BWLAB_REQUIRE(is.good(), "cannot open run report '" << path << "'");
  return parse_run_report(is);
}

}  // namespace bwlab::core
