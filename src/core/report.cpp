#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <utility>

#include "common/benchjson.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/pattern.hpp"
#include "common/resil.hpp"
#include "common/trace.hpp"

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

namespace {

}  // namespace

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
  if (memtier != nullptr && memtier->present) {
    r.has_memtier = true;
    r.memtier = *memtier;
  }
  if (timeseries != nullptr && !timeseries->empty()) {
    r.has_timeseries = true;
    r.timeseries = *timeseries;
  }
  if (provenance != nullptr) {
    r.provenance = *provenance;
    r.provenance.present = true;
  }
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
  for (const ExchangeRecord* e : instr.exchanges()) {
    ReportExchange out;
    out.dat = e->dat_name;
    out.exchanges = e->exchanges;
    out.messages = e->messages;
    out.bytes = e->bytes;
    out.bytes_received = e->bytes_received;
    out.halo_depth = e->halo_depth;
    out.elem_bytes = e->elem_bytes;
    r.exchanges.push_back(std::move(out));
  }
  r.total_loop_seconds = instr.total_loop_seconds() * perturb;
  if (instr.tiling().chains > 0) {
    const TilingRecord& t = instr.tiling();
    r.tiling.present = true;
    r.tiling.chains = t.chains;
    r.tiling.tiles = t.tiles;
    r.tiling.tile_height = t.tile_height;
    r.tiling.auto_tuned = t.auto_tuned;
    r.tiling.row_bytes = t.row_bytes;
    r.tiling.cache_budget_bytes = t.cache_budget_bytes;
  }
  if (attr != nullptr) {
    r.has_attribution = true;
    r.attribution = *attr;
  }
  if (metrics != nullptr) {
    r.has_metrics = true;
    r.metrics = metrics->snapshot();
  }
  if (causal_rep != nullptr) r.causal = causal::summarize(*causal_rep);
  if (datmove != nullptr) {
    r.has_datmove = true;
    r.datmove = *datmove;
  }
  // bwresil: only present when the resilience policy is active, so
  // resil-off runs keep their report unchanged.
  if (resil::active()) {
    const resil::Policy& pol = resil::policy();
    const resil::Stats st = resil::stats();
    r.resil.present = true;
    r.resil.retry_max = pol.retry_max;
    r.resil.timeout_us = pol.timeout_us;
    r.resil.backoff_us = pol.backoff_us;
    r.resil.backoff_cap_us = pol.backoff_cap_us;
    r.resil.degraded = pol.degraded;
    r.resil.seed = pol.seed;
    r.resil.retries = st.retries;
    r.resil.recovered = st.recovered;
    r.resil.degraded_events = st.degraded_events;
    r.resil.backoff_waits = st.backoff_waits;
    r.resil.rollbacks = st.rollbacks;
    r.resil.buddy_restores = st.buddy_restores;
    r.resil.buddy_bytes = resil::buddy_total_bytes();
  }
  // Trace health: only present when the tracer has (or had) events, so
  // untraced runs keep their report unchanged.
  std::vector<trace::ThreadDrops> drops = trace::dropped_by_thread();
  if (!drops.empty()) {
    r.trace_health.present = true;
    for (const trace::ThreadDrops& d : drops)
      r.trace_health.dropped_events += d.dropped;
    r.trace_health.threads = std::move(drops);
  }
  return r;
}

void write_run_report_json(std::ostream& os, const RunReport& r) {
  os << "{\n";
  if (r.provenance.present) {
    os << "  \"provenance\": {\"git_sha\": \"";
    json::write_escaped(os, r.provenance.git_sha);
    os << "\", \"machine\": \"";
    json::write_escaped(os, r.provenance.machine);
    os << "\", \"cmdline\": \"";
    json::write_escaped(os, r.provenance.cmdline);
    os << "\", \"seed\": " << r.provenance.seed << "},\n";
  }
  os << "  \"loops\": [";
  bool first = true;
  for (const ReportLoop& l : r.loops) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"";
    first = false;
    json::write_escaped(os, l.name);
    os << "\", \"calls\": " << l.calls << ", \"points\": " << l.points
       << ", \"bytes\": " << l.bytes << ", \"flops\": " << l.flops
       << ", \"host_seconds\": " << l.host_seconds
       << ", \"effective_bw_gbs\": " << l.effective_bw_gbs
       << ", \"pattern\": \"" << l.pattern
       << "\", \"max_radius\": " << l.max_radius
       << ", \"ndims\": " << l.ndims << "}";
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"exchanges\": [";
  first = true;
  for (const ReportExchange& e : r.exchanges) {
    os << (first ? "\n" : ",\n") << "    {\"dat\": \"";
    first = false;
    json::write_escaped(os, e.dat);
    os << "\", \"exchanges\": " << e.exchanges
       << ", \"messages\": " << e.messages << ", \"bytes\": " << e.bytes
       << ", \"bytes_received\": " << e.bytes_received
       << ", \"halo_depth\": " << e.halo_depth
       << ", \"elem_bytes\": " << e.elem_bytes << "}";
  }
  os << (first ? "]" : "\n  ]") << ",\n  \"total_loop_seconds\": "
     << r.total_loop_seconds;
  if (r.tiling.present) {
    const TilingSection& t = r.tiling;
    os << ",\n  \"tiling\": {\"chains\": " << t.chains
       << ", \"tiles\": " << t.tiles << ", \"tile_height\": " << t.tile_height
       << ", \"auto_tuned\": " << (t.auto_tuned ? "true" : "false")
       << ", \"row_bytes\": " << t.row_bytes
       << ", \"cache_budget_bytes\": " << t.cache_budget_bytes << "}";
  }
  if (r.has_attribution) {
    const AttributionReport& attr = r.attribution;
    os << ",\n  \"attribution\": {\n    \"machine\": \"";
    json::write_escaped(os, attr.machine_id);
    os << "\", \"config\": \"";
    json::write_escaped(os, attr.config_label);
    os << "\", \"tolerance\": " << attr.tolerance
       << ", \"byte_tolerance\": " << attr.byte_tolerance
       << ",\n    \"measured_total_seconds\": " << attr.measured_total
       << ", \"predicted_total_seconds\": " << attr.predicted_total
       << ", \"drifted_count\": " << attr.drifted_count
       << ", \"byte_drifted_count\": " << attr.byte_drifted_count
       << ",\n    \"loops\": [";
    bool afirst = true;
    for (const LoopAttribution& a : attr.loops) {
      os << (afirst ? "\n" : ",\n") << "      {\"name\": \"";
      afirst = false;
      json::write_escaped(os, a.name);
      os << "\", \"measured_seconds\": " << a.measured_s
         << ", \"predicted_seconds\": " << a.predicted_s
         << ", \"mem_roof_seconds\": " << a.mem_roof_s
         << ", \"comp_roof_seconds\": " << a.comp_roof_s
         << ", \"memory_bound\": " << (a.memory_bound ? "true" : "false")
         << ", \"roof_fraction\": " << a.roof_fraction
         << ", \"drift\": " << a.drift
         << ", \"drifted\": " << (a.drifted ? "true" : "false")
         << ", \"counted\": " << (a.counted ? "true" : "false")
         << ", \"counted_bytes\": " << a.counted_bytes
         << ", \"modeled_bytes\": " << a.modeled_bytes
         << ", \"byte_drift\": " << a.byte_drift
         << ", \"byte_drifted\": " << (a.byte_drifted ? "true" : "false")
         << "}";
    }
    os << (afirst ? "]" : "\n    ]") << "\n  }";
  }
  if (r.has_metrics) {
    os << ",\n  \"metrics\": ";
    write_metrics_json(os, r.metrics);
  }
  if (r.causal.present) {
    os << ",\n  \"causal\": ";
    causal::write_json(os, r.causal, 2);
  }
  if (r.has_datmove) {
    os << ",\n  \"datmove\": ";
    core::write_json(os, r.datmove, 2);
  }
  if (r.has_memtier) {
    os << ",\n  \"memtier\": ";
    core::write_json(os, r.memtier, 2);
  }
  if (r.resil.present) {
    const ResilSection& rs = r.resil;
    os << ",\n  \"resil\": {\n    \"policy\": {\"retry_max\": " << rs.retry_max
       << ", \"timeout_us\": " << rs.timeout_us
       << ", \"backoff_us\": " << rs.backoff_us
       << ", \"backoff_cap_us\": " << rs.backoff_cap_us
       << ", \"degraded\": " << (rs.degraded ? "true" : "false")
       << ", \"seed\": " << rs.seed
       << "},\n    \"retries\": " << rs.retries
       << ", \"recovered\": " << rs.recovered
       << ", \"degraded_events\": " << rs.degraded_events
       << ", \"backoff_waits\": " << rs.backoff_waits
       << ", \"rollbacks\": " << rs.rollbacks
       << ", \"buddy_restores\": " << rs.buddy_restores
       << ", \"buddy_bytes\": " << rs.buddy_bytes << "\n  }";
  }
  if (r.trace_health.present) {
    os << ",\n  \"trace\": {\n    \"dropped_events\": "
       << r.trace_health.dropped_events << ",\n    \"threads\": [";
    bool tfirst = true;
    for (const trace::ThreadDrops& d : r.trace_health.threads) {
      os << (tfirst ? "\n" : ",\n") << "      {\"rank\": " << d.rank
         << ", \"tid\": " << d.tid << ", \"label\": \"";
      tfirst = false;
      json::write_escaped(os, d.label);
      os << "\", \"dropped\": " << d.dropped << "}";
    }
    os << (tfirst ? "]" : "\n    ]") << "\n  }";
  }
  if (r.has_timeseries) {
    os << ",\n  \"timeseries\": ";
    live::write_timeseries_json(os, r.timeseries, 2);
  }
  os << "\n}\n";
}

void write_run_report_json_file(const std::string& path, const RunReport& r) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open report output file '" << path << "'");
  write_run_report_json(os, r);
  BWLAB_REQUIRE(os.good(), "failed writing report to '" << path << "'");
}

// --- Parsing ----------------------------------------------------------------

namespace {

using json::bool_field;
using json::count_field;
using json::num_field;
using json::str_field;

RunProvenance parse_provenance(const json::Value& v) {
  RunProvenance p;
  p.present = true;
  p.git_sha = str_field(v, "git_sha");
  p.machine = str_field(v, "machine");
  p.cmdline = str_field(v, "cmdline");
  p.seed = count_field(v, "seed");
  return p;
}

AttributionReport parse_attribution(const json::Value& v) {
  AttributionReport attr;
  attr.machine_id = str_field(v, "machine");
  attr.config_label = str_field(v, "config");
  attr.tolerance = num_field(v, "tolerance");
  attr.byte_tolerance = num_field(v, "byte_tolerance");
  attr.measured_total = num_field(v, "measured_total_seconds");
  attr.predicted_total = num_field(v, "predicted_total_seconds");
  attr.drifted_count = static_cast<int>(num_field(v, "drifted_count"));
  attr.byte_drifted_count =
      static_cast<int>(num_field(v, "byte_drifted_count"));
  for (const json::Value& e : json::arr_field(v, "loops").arr) {
    LoopAttribution a;
    a.name = str_field(e, "name");
    a.measured_s = num_field(e, "measured_seconds");
    a.predicted_s = num_field(e, "predicted_seconds");
    a.mem_roof_s = num_field(e, "mem_roof_seconds");
    a.comp_roof_s = num_field(e, "comp_roof_seconds");
    a.memory_bound = bool_field(e, "memory_bound");
    a.roof_fraction = num_field(e, "roof_fraction");
    a.drift = num_field(e, "drift");
    a.drifted = bool_field(e, "drifted");
    a.counted = bool_field(e, "counted");
    a.counted_bytes = count_field(e, "counted_bytes");
    a.modeled_bytes = count_field(e, "modeled_bytes");
    a.byte_drift = num_field(e, "byte_drift");
    a.byte_drifted = bool_field(e, "byte_drifted");
    attr.loops.push_back(std::move(a));
  }
  return attr;
}

/// Maps a "le_<bound>" histogram-bucket key back to the bucket index:
/// bounds are exact powers of two, so log2 of the printed value rounds to
/// the stored exponent even at 6 printed digits.
int bucket_index_from_key(const std::string& key) {
  BWLAB_REQUIRE(key.rfind("le_", 0) == 0,
                "bad histogram bucket key '" << key << "'");
  const double ub = std::stod(key.substr(3));
  BWLAB_REQUIRE(ub > 0, "bad histogram bucket bound in '" << key << "'");
  const int i =
      Histogram::kZeroBucket + static_cast<int>(std::llround(std::log2(ub)));
  BWLAB_REQUIRE(i >= 0 && i < Histogram::kBuckets,
                "histogram bucket '" << key << "' out of range");
  return i;
}

MetricsSnapshot parse_metrics(const json::Value& v) {
  MetricsSnapshot snap;
  for (const auto& [name, val] : json::obj_field(v, "counters").obj)
    snap.counters[name] = val.as_count();
  for (const auto& [name, val] : json::obj_field(v, "gauges").obj)
    snap.gauges[name] = val.num;
  for (const auto& [name, h] : json::obj_field(v, "histograms").obj) {
    HistogramSnapshot hs;
    hs.count = count_field(h, "count");
    hs.sum = num_field(h, "sum");
    hs.p50 = num_field(h, "p50");
    hs.p95 = num_field(h, "p95");
    hs.p99 = num_field(h, "p99");
    for (const auto& [key, n] : json::obj_field(h, "buckets").obj)
      hs.buckets.emplace_back(bucket_index_from_key(key), n.as_count());
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

causal::CausalSection parse_causal(const json::Value& v) {
  causal::CausalSection s;
  s.present = true;
  s.wall_s = num_field(v, "wall_seconds");
  s.nranks = static_cast<int>(num_field(v, "nranks"));
  s.matched_messages =
      static_cast<long long>(num_field(v, "matched_messages"));
  s.unmatched_sends = static_cast<long long>(num_field(v, "unmatched_sends"));
  s.unmatched_recvs = static_cast<long long>(num_field(v, "unmatched_recvs"));
  for (const json::Value& e : json::arr_field(v, "wait_states").arr) {
    causal::RankWaits w;
    w.rank = static_cast<int>(num_field(e, "rank"));
    w.late_sender_s = num_field(e, "late_sender_seconds");
    w.late_sender_n =
        static_cast<long long>(num_field(e, "late_sender_count"));
    w.progress_starved_s = num_field(e, "progress_starved_seconds");
    w.progress_starved_n =
        static_cast<long long>(num_field(e, "progress_starved_count"));
    w.late_receiver_s = num_field(e, "late_receiver_seconds");
    w.late_receiver_n =
        static_cast<long long>(num_field(e, "late_receiver_count"));
    w.collective_s = num_field(e, "collective_seconds");
    s.wait_states.push_back(w);
  }
  for (const json::Value& e : json::arr_field(v, "matrix").arr) {
    causal::PairStats p;
    p.src = static_cast<int>(num_field(e, "src"));
    p.dest = static_cast<int>(num_field(e, "dest"));
    p.messages = static_cast<long long>(num_field(e, "messages"));
    p.bytes = count_field(e, "bytes");
    p.wait_s = num_field(e, "wait_seconds");
    s.matrix.push_back(p);
  }
  if (const json::Value* cp = v.find("critical_path")) {
    s.path_length_s = num_field(*cp, "length_seconds");
    for (const auto& [bucket, sec] : json::obj_field(*cp, "buckets").obj)
      s.path_buckets[bucket] = sec.num;
    for (const json::Value& rank : json::arr_field(*cp, "ranks").arr)
      s.path_ranks.push_back(static_cast<int>(rank.num));
    s.path_segments = static_cast<long long>(num_field(*cp, "segments"));
  }
  return s;
}

ResilSection parse_resil(const json::Value& v) {
  ResilSection rs;
  rs.present = true;
  if (const json::Value* pol = v.find("policy")) {
    rs.retry_max = static_cast<int>(num_field(*pol, "retry_max"));
    rs.timeout_us = static_cast<long long>(num_field(*pol, "timeout_us"));
    rs.backoff_us = static_cast<long long>(num_field(*pol, "backoff_us"));
    rs.backoff_cap_us =
        static_cast<long long>(num_field(*pol, "backoff_cap_us"));
    rs.degraded = bool_field(*pol, "degraded");
    rs.seed = count_field(*pol, "seed");
  }
  rs.retries = static_cast<long long>(num_field(v, "retries"));
  rs.recovered = static_cast<long long>(num_field(v, "recovered"));
  rs.degraded_events =
      static_cast<long long>(num_field(v, "degraded_events"));
  rs.backoff_waits = static_cast<long long>(num_field(v, "backoff_waits"));
  rs.rollbacks = static_cast<long long>(num_field(v, "rollbacks"));
  rs.buddy_restores = static_cast<long long>(num_field(v, "buddy_restores"));
  rs.buddy_bytes = count_field(v, "buddy_bytes");
  return rs;
}

TraceSection parse_trace(const json::Value& v) {
  TraceSection t;
  t.present = true;
  t.dropped_events = count_field(v, "dropped_events");
  for (const json::Value& e : json::arr_field(v, "threads").arr) {
    trace::ThreadDrops d;
    d.rank = static_cast<int>(num_field(e, "rank"));
    d.tid = static_cast<int>(num_field(e, "tid"));
    d.label = str_field(e, "label");
    d.dropped = count_field(e, "dropped");
    t.threads.push_back(std::move(d));
  }
  return t;
}

}  // namespace

RunReport parse_run_report(std::istream& is) {
  const json::Value root = json::parse(is);
  BWLAB_REQUIRE(root.kind == json::Value::Kind::Obj,
                "run report must be a JSON object");
  BWLAB_REQUIRE(root.find("loops") != nullptr,
                "run report has no \"loops\" section");
  RunReport r;
  if (const json::Value* p = root.find("provenance"))
    r.provenance = parse_provenance(*p);
  for (const json::Value& e : json::arr_field(root, "loops").arr) {
    ReportLoop l;
    l.name = str_field(e, "name");
    l.calls = count_field(e, "calls");
    l.points = count_field(e, "points");
    l.bytes = count_field(e, "bytes");
    l.flops = num_field(e, "flops");
    l.host_seconds = num_field(e, "host_seconds");
    l.effective_bw_gbs = num_field(e, "effective_bw_gbs");
    l.pattern = str_field(e, "pattern");
    l.max_radius = static_cast<int>(num_field(e, "max_radius"));
    l.ndims = static_cast<int>(num_field(e, "ndims"));
    r.loops.push_back(std::move(l));
  }
  for (const json::Value& e : json::arr_field(root, "exchanges").arr) {
    ReportExchange x;
    x.dat = str_field(e, "dat");
    x.exchanges = count_field(e, "exchanges");
    x.messages = count_field(e, "messages");
    x.bytes = count_field(e, "bytes");
    x.bytes_received = count_field(e, "bytes_received");
    x.halo_depth = static_cast<int>(num_field(e, "halo_depth"));
    x.elem_bytes = count_field(e, "elem_bytes");
    r.exchanges.push_back(std::move(x));
  }
  r.total_loop_seconds = num_field(root, "total_loop_seconds");
  if (const json::Value* t = root.find("tiling")) {
    r.tiling.present = true;
    r.tiling.chains = count_field(*t, "chains");
    r.tiling.tiles = count_field(*t, "tiles");
    r.tiling.tile_height = static_cast<idx_t>(num_field(*t, "tile_height"));
    r.tiling.auto_tuned = bool_field(*t, "auto_tuned");
    r.tiling.row_bytes = num_field(*t, "row_bytes");
    r.tiling.cache_budget_bytes = num_field(*t, "cache_budget_bytes");
  }
  if (const json::Value* a = root.find("attribution")) {
    r.has_attribution = true;
    r.attribution = parse_attribution(*a);
  }
  if (const json::Value* m = root.find("metrics")) {
    r.has_metrics = true;
    r.metrics = parse_metrics(*m);
  }
  if (const json::Value* c = root.find("causal")) r.causal = parse_causal(*c);
  if (const json::Value* d = root.find("datmove")) {
    r.has_datmove = true;
    r.datmove = datmove_from_json(*d);
  }
  if (const json::Value* mt = root.find("memtier")) {
    r.has_memtier = true;
    r.memtier = memtier_from_json(*mt);
  }
  if (const json::Value* rs = root.find("resil")) r.resil = parse_resil(*rs);
  if (const json::Value* t = root.find("trace"))
    r.trace_health = parse_trace(*t);
  if (const json::Value* ts = root.find("timeseries")) {
    r.has_timeseries = true;
    r.timeseries = live::timeseries_from_json(*ts);
  }
  return r;
}

RunReport read_run_report(const std::string& path) {
  std::ifstream is(path);
  BWLAB_REQUIRE(is.good(), "cannot open run report '" << path << "'");
  return parse_run_report(is);
}

// --- Legacy live-state entry points -----------------------------------------

void write_run_report_json(std::ostream& os, const Instrumentation& instr,
                           const MetricsRegistry* metrics,
                           const AttributionReport* attr,
                           const causal::Report* causal_rep,
                           const DatMoveReport* datmove) {
  write_run_report_json(
      os, make_run_report(instr, metrics, attr, causal_rep, datmove));
}

void write_run_report_json_file(const std::string& path,
                                const Instrumentation& instr,
                                const MetricsRegistry* metrics,
                                const AttributionReport* attr,
                                const causal::Report* causal_rep,
                                const DatMoveReport* datmove) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open report output file '" << path << "'");
  write_run_report_json(os, instr, metrics, attr, causal_rep, datmove);
  BWLAB_REQUIRE(os.good(), "failed writing report to '" << path << "'");
}

}  // namespace bwlab::core
