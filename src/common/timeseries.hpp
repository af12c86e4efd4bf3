// bwlive sample storage: a run's telemetry as a time series of cumulative
// counter snapshots. The sampler (common/live.hpp) appends one sample per
// interval; this module is the value side — the canonical key/value
// matrix, windowed-rate helpers, and the schema-versioned JSON that
// becomes both the run report's "timeseries" section and the standalone
// TIMESERIES_<app>.json that tools/bwtop renders.
//
// Timestamps are run-relative steady-clock seconds (t = 0 at
// live::start()): wall-clock timestamps would make reports
// machine/locale-dependent and can jump under NTP, while run-relative
// steady time is exactly the x-axis every derived rate needs. The *schema*
// (key set, field layout) is deterministic for a given app/config even
// though the timestamps and sample count are not: keys are exported in
// sorted order and samples are dense (missing keys carry the last seen
// value forward, 0 before first sight).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::live {

/// Bumped whenever the timeseries JSON layout changes incompatibly
/// (benchjson convention); readers reject other major versions.
inline constexpr int kTimeseriesSchemaVersion = 1;

/// The exported series: `keys` in sorted order, one aligned value row per
/// sample. Every value is a cumulative counter or an instantaneous gauge
/// sampled at `times[i]` seconds after the sampler started.
struct TimeSeries {
  long long interval_ms = 0;      ///< configured sampling interval
  double roof_bytes_per_s = 0;    ///< MachineModel STREAM-triad roof (0 = unknown)
  std::uint64_t dropped_samples = 0;  ///< ring overwrites (oldest evicted)
  std::vector<std::string> keys;
  std::vector<double> times;                 ///< run-relative seconds
  std::vector<std::vector<double>> values;   ///< [sample][key index]

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }

  /// Index of `key` in keys, or -1 when absent.
  int key_index(const std::string& key) const;
  double value(std::size_t sample, int key) const;
  /// Value of `key` at `sample`; 0 when the key is absent.
  double value(std::size_t sample, const std::string& key) const;
  /// Value of `key` at the last sample; 0 when absent or empty.
  double last(const std::string& key) const;

  /// Windowed rate (value[i] - value[i-1]) / (t[i] - t[i-1]);
  /// 0 for sample 0, a missing key, or a non-positive window.
  double rate(std::size_t sample, int key) const;
  double rate(std::size_t sample, const std::string& key) const;
  /// Rate over the last window.
  double last_rate(const std::string& key) const;

  /// Ranks that contributed any "rank.<R>." key, ascending.
  std::vector<int> ranks() const;
};

/// One element of the JSON "samples" array: {"t": time, "v": row}.
struct TimeSample {
  double t = 0;
  std::vector<double> v;
};
template <class Io>
void fields(Io& io, TimeSample& s) {
  io("t", s.t);
  io("v", s.v);
}

/// The timeseries JSON object. A reader rejects any schema_version but
/// kTimeseriesSchemaVersion and any sample row whose length differs from
/// the key count. Stored values print with default stream formatting, so
/// parse -> reprint is bitwise (the run-report round-trip convention).
template <class Io>
void fields(Io& io, TimeSeries& ts) {
  io.custom(
      "schema_version", [] { return kTimeseriesSchemaVersion; },
      [](int schema) {
        BWLAB_REQUIRE(schema == kTimeseriesSchemaVersion,
                      "unsupported timeseries schema_version "
                          << schema << " (this build reads "
                          << kTimeseriesSchemaVersion << ")");
      });
  io("interval_ms", ts.interval_ms);
  io("roof_bytes_per_s", ts.roof_bytes_per_s);
  io("dropped_samples", ts.dropped_samples);
  io("keys", ts.keys);
  io.custom(
      "samples",
      [&ts] {
        std::vector<TimeSample> out;
        for (std::size_t i = 0; i < ts.size(); ++i)
          out.push_back({ts.times[i], ts.values[i]});
        return out;
      },
      [&ts](const std::vector<TimeSample>& in) {
        ts.times.clear();
        ts.values.clear();
        for (const TimeSample& s : in) {
          BWLAB_REQUIRE(s.v.size() == ts.keys.size(),
                        "timeseries sample has " << s.v.size()
                                                 << " values for "
                                                 << ts.keys.size() << " keys");
          ts.times.push_back(s.t);
          ts.values.push_back(s.v);
        }
      });
}

/// Key of one per-rank quantity, e.g. rank_key(3, "steps") ->
/// "rank.3.steps". The sampler and the readers must agree on these.
std::string rank_key(int rank, const std::string& what);

/// A standalone TIMESERIES_<app>.json: app/git_sha provenance wrapping
/// the same timeseries object.
struct TimeSeriesFile {
  std::string app;
  std::string git_sha;
  TimeSeries series;
};
template <class Io>
void fields(Io& io, TimeSeriesFile& f) {
  io.custom(
      "schema_version", [] { return kTimeseriesSchemaVersion; }, [](int) {});
  io("app", f.app);
  io("git_sha", f.git_sha);
  io("timeseries", f.series, json::required);
}

void write_timeseries_file(const std::string& path, const TimeSeries& ts,
                           const std::string& app, const std::string& git_sha);
TimeSeriesFile parse_timeseries_file(std::istream& is);
TimeSeriesFile read_timeseries_file(const std::string& path);

}  // namespace bwlab::live
