// Small report helpers shared by the figure generators: normalization to
// the per-application best (Figures 3/4 are slowdown heatmaps), row
// ordering by average, speedup tables, and the bwtrace run-summary report
// (top-N loops, Figure 8 effective-bandwidth table, JSON export).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/stats.hpp"
#include "common/timeseries.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/attribution.hpp"
#include "core/causal.hpp"
#include "core/datmove.hpp"
#include "core/memtier.hpp"

namespace bwlab::core {

/// times[row][col] -> slowdown vs the column's best (>= 1.0 everywhere,
/// exactly 1.0 for each column's winner).
std::vector<std::vector<double>> normalize_columns_to_best(
    const std::vector<std::vector<double>>& times);

/// Row indices sorted ascending by the row's mean value (the ordering of
/// Figures 3 and 4).
std::vector<std::size_t> order_rows_by_mean(
    const std::vector<std::vector<double>>& values);

/// Mean and median of all entries (the paper's §5 "mean slowdown vs best
/// 1.25, median 1.12" summary).
struct SlowdownSummary {
  double mean = 0;
  double median = 0;
};
SlowdownSummary summarize_slowdowns(
    const std::vector<std::vector<double>>& normalized);

// --- Run-summary reporting (bwtrace) ----------------------------------------

/// The `top_n` loops by host time: calls, seconds, useful GB moved, and
/// effective bandwidth. Rows are ordered descending by host_seconds.
Table top_loops_table(const Instrumentation& instr, std::size_t top_n = 10);

/// Per-loop effective bandwidth in the Figure 8 convention (useful bytes /
/// kernel host seconds, comm excluded), in first-execution order.
Table effective_bw_table(const Instrumentation& instr);

// --- Run report as a value (bwdiff input) ------------------------------------
//
// Everything the run-report JSON holds, as plain data: write_run_report_json
// on a RunReport reproduces the bytes parse_run_report read (round-trip is
// bitwise — every section serializes stored values, never re-derived ones),
// and make_run_report snapshots the live process state (instrumentation,
// metrics registry, resilience counters, tracer drop counts) into the same
// struct so the live and offline paths share one writer. Every section is
// a fields list (common/json.hpp); an optional section is written only
// when present.

/// Who/what/how of the run, stamped into the report when the caller
/// provides it (run_app does). Deliberately timestamp-free so reports are
/// byte-comparable across identical runs.
struct RunProvenance {
  std::string git_sha;    ///< benchjson::git_sha(): $BWBENCH_GIT_SHA or build
  std::string machine;    ///< machine model or host identifier
  std::string cmdline;    ///< full CLI line that produced the run
  std::uint64_t seed = 0;
};
template <class Io>
void fields(Io& io, RunProvenance& p) {
  io("git_sha", p.git_sha);
  io("machine", p.machine);
  io("cmdline", p.cmdline);
  io("seed", p.seed);
}

/// One "loops" entry. effective_bw_gbs is stored, not re-derived from
/// bytes/host_seconds, so reprinting a parsed report is exact.
struct ReportLoop {
  std::string name;
  count_t calls = 0;
  count_t points = 0;
  count_t bytes = 0;
  double flops = 0;
  seconds_t host_seconds = 0;
  double effective_bw_gbs = 0;
  std::string pattern;
  int max_radius = 0;
  int ndims = 2;
};
template <class Io>
void fields(Io& io, ReportLoop& l) {
  io("name", l.name);
  io("calls", l.calls);
  io("points", l.points);
  io("bytes", l.bytes);
  io("flops", l.flops);
  io("host_seconds", l.host_seconds);
  io("effective_bw_gbs", l.effective_bw_gbs);
  io("pattern", l.pattern);
  io("max_radius", l.max_radius);
  io("ndims", l.ndims);
}

/// The "resil" section (present only when the resilience policy was
/// active): policy knobs plus recovery counters.
struct ResilSection {
  resil::Policy policy;
  long long retries = 0;
  long long recovered = 0;
  long long degraded_events = 0;
  long long rollbacks = 0;
  long long buddy_restores = 0;
  count_t buddy_bytes = 0;
};
template <class Io>
void fields(Io& io, ResilSection& r) {
  io("policy", r.policy);
  io("retries", r.retries);
  io("recovered", r.recovered);
  io("degraded_events", r.degraded_events);
  io("rollbacks", r.rollbacks);
  io("buddy_restores", r.buddy_restores);
  io("buddy_bytes", r.buddy_bytes);
}

/// The "trace" health section (present only when the tracer had events):
/// dropped-event totals per thread, so truncated timelines are visible.
struct TraceSection {
  std::uint64_t dropped_events = 0;
  std::vector<trace::ThreadDrops> threads;
};
template <class Io>
void fields(Io& io, TraceSection& t) {
  io("dropped_events", t.dropped_events);
  io("threads", t.threads);
}

struct RunReport {
  std::optional<RunProvenance> provenance;
  std::vector<ReportLoop> loops;
  std::vector<ExchangeRecord> exchanges;  ///< halo traffic per Dat
  seconds_t total_loop_seconds = 0;
  std::optional<TilingRecord> tiling;  ///< present when chains ran tiled
  std::optional<AttributionReport> attribution;
  std::optional<MetricsSnapshot> metrics;
  std::optional<causal::CausalSection> causal;
  std::optional<DatMoveReport> datmove;
  /// The bwmem x memory-mode section (present when run_app modeled
  /// placement): tier map, mode pricing, per-tier loop roofs.
  std::optional<MemTierSection> memtier;
  std::optional<ResilSection> resil;
  std::optional<TraceSection> trace_health;
  /// The bwlive telemetry series (present only when a run sampled),
  /// stored verbatim so reprinting a parsed report is exact.
  std::optional<live::TimeSeries> timeseries;
};
template <class Io>
void fields(Io& io, RunReport& r) {
  io("provenance", r.provenance);
  io("loops", r.loops, json::required);
  io("exchanges", r.exchanges);
  io("total_loop_seconds", r.total_loop_seconds);
  io("tiling", r.tiling);
  io("attribution", r.attribution);
  io("metrics", r.metrics);
  io("causal", r.causal);
  io("datmove", r.datmove);
  io("memtier", r.memtier);
  io("resil", r.resil);
  io("trace", r.trace_health);
  io("timeseries", r.timeseries);
}

/// Snapshots the live run state into a RunReport: instrumentation records,
/// the optional metrics registry / attribution / causal / datmove /
/// provenance / timeseries / memtier sections, plus the process-wide
/// resil counters (when resil::active()) and tracer drop counts (when any
/// events were recorded).
RunReport make_run_report(const Instrumentation& instr,
                          const MetricsRegistry* metrics = nullptr,
                          const AttributionReport* attr = nullptr,
                          const causal::Report* causal_rep = nullptr,
                          const DatMoveReport* datmove = nullptr,
                          const RunProvenance* provenance = nullptr,
                          const live::TimeSeries* timeseries = nullptr,
                          const MemTierSection* memtier = nullptr);

/// Serializes `r` as the run-report JSON (absent sections are omitted).
void write_run_report_json(std::ostream& os, const RunReport& r);

/// write_run_report_json to `path`; throws bwlab::Error if unwritable.
void write_run_report_json_file(const std::string& path, const RunReport& r);

/// Parses a run report previously written by write_run_report_json back
/// into a RunReport — ALL sections. Writing the result reproduces the
/// input bitwise. Throws bwlab::Error on malformed input or a report
/// without "loops".
RunReport parse_run_report(std::istream& is);

/// parse_run_report from `path`; throws bwlab::Error if unreadable.
RunReport read_run_report(const std::string& path);

}  // namespace bwlab::core
