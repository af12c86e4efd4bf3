// bwbench result files: the machine-readable performance trajectory of
// this repository. Every bench/ binary writes its measurements through
// this schema (BENCH_<suite>.json), tools/bench_compare diffs two files
// with a noise-aware gate, and CI keeps a committed baseline — so "every
// PR makes a hot path measurably faster" (ROADMAP) is checkable instead
// of aspirational. The format stores raw repetition samples, not
// pre-digested numbers: robust statistics (median/MAD, common/stats.hpp)
// are recomputed on read, and the gate reasons about noise intervals.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"

namespace bwlab::benchjson {

/// Bumped whenever the JSON layout changes incompatibly; readers reject
/// files with a different major version instead of misparsing them.
inline constexpr int kSchemaVersion = 1;

/// Which direction of change is an improvement for a metric.
enum class Better { Lower, Higher };

const char* to_string(Better b);

/// One measured quantity: raw per-repetition samples plus the metadata
/// needed to compare it across runs.
struct Metric {
  std::string name;  ///< e.g. "triad.4MiB.gbs"
  std::string unit;  ///< "ns", "s", "GB/s", ...
  Better better = Better::Lower;
  std::vector<double> samples;  ///< one value per repetition, raw order

  double median() const;
  /// Median absolute deviation with the normal-consistency factor
  /// (1.4826), i.e. a robust stddev estimate.
  double mad() const;
  double min() const;
  double max() const;
};

/// One benchmark binary's results.
struct Suite {
  std::string suite;             ///< binary name, e.g. "gb_host_stream"
  std::string machine = "host";  ///< machine-model id the numbers refer to
                                 ///< ("host" = measured on this machine)
  std::vector<Metric> metrics;

  const Metric* find(const std::string& name) const;
};

/// A BENCH_*.json file: schema version, provenance, one or more suites.
struct ResultFile {
  int schema_version = kSchemaVersion;
  std::string git_sha;  ///< commit the numbers were produced from
  std::vector<Suite> suites;

  const Suite* find(const std::string& suite) const;
};

// --- Provenance / environment ------------------------------------------------

/// Commit id for result provenance: $BWBENCH_GIT_SHA if set, else the
/// sha of the last build (src/common/git_sha.cmake), else "unknown".
std::string git_sha();

/// Synthetic slowdown factor for gate testing: $BWBENCH_PERTURB (> 0)
/// multiplies every measured duration, so a perturbed run regresses
/// every timing-derived metric by a known amount. 1.0 when unset.
/// Applied by bench::Runner at sample-recording time and by
/// core::make_run_report to the snapshotted per-loop times, so both
/// the bench_compare gate and the run_diff pipeline can be exercised
/// against a known regression.
double perturb_factor();

/// Repetition-count override for CI determinism: $BWBENCH_REPS if set
/// and positive, else `fallback`.
int repetitions(int fallback);

// --- Serialization -----------------------------------------------------------

void write(std::ostream& os, const ResultFile& f);
/// write() to `path`; throws bwlab::Error if unwritable.
void write_file(const std::string& path, const ResultFile& f);

/// Parses a result file; throws bwlab::Error on malformed JSON, missing
/// fields, or an unsupported schema_version.
ResultFile parse(const std::string& json);
ResultFile read_file(const std::string& path);

/// Concatenates the suites of several files (e.g. one per gb_* binary)
/// into one baseline file; throws on duplicate suite names.
ResultFile merge(const std::vector<ResultFile>& files);

// --- The noise-aware regression gate -----------------------------------------

struct GateOptions {
  /// Relative median change (in the metric's "worse" direction) that
  /// counts as a regression when the noise intervals are also disjoint.
  double threshold = 0.10;
  /// Half-width of the noise interval in MADs: [median ± mad_k * MAD].
  double mad_k = 3.0;
};

/// Parses "10%" or "0.1" into a fraction; throws bwlab::Error otherwise.
double parse_threshold(const std::string& s);

enum class Verdict {
  Ok,        ///< within threshold or within noise
  Improved,  ///< beyond threshold in the good direction, outside noise
  Regressed, ///< beyond threshold in the bad direction, outside noise
  Missing,   ///< in the baseline but not the candidate (an error: the
             ///< trajectory must never silently lose a metric)
  New,       ///< in the candidate only (fine: the suite grew)
};

const char* to_string(Verdict v);

/// One metric's baseline-vs-candidate comparison.
struct MetricDelta {
  std::string suite;
  std::string name;
  std::string unit;
  Better better = Better::Lower;
  double base_median = 0, base_mad = 0;
  double cand_median = 0, cand_mad = 0;
  /// Relative median change in the metric's WORSE direction (> 0 means
  /// the candidate is worse), so time-like and bandwidth-like metrics
  /// read the same way in the gate and the table.
  double worse_change = 0;
  Verdict verdict = Verdict::Ok;
};

struct CompareReport {
  std::vector<MetricDelta> rows;  ///< baseline order, then new metrics
  int regressions = 0;
  int improvements = 0;
  int missing = 0;

  /// Gate outcome: no regressions and no missing metrics.
  bool ok() const { return regressions == 0 && missing == 0; }
  /// The regressed/missing metric names, for error messages.
  std::vector<std::string> failed_metrics() const;
};

/// Joins metrics on (suite, name) and applies the gate: a metric
/// regresses when its median moved beyond `threshold` in the worse
/// direction AND the [median ± mad_k·MAD] intervals of baseline and
/// candidate do not overlap — so noisy-but-overlapping runs pass and
/// identical runs trivially pass.
CompareReport compare(const ResultFile& baseline, const ResultFile& candidate,
                      const GateOptions& opt = {});

/// Regression/improvement table for console output.
Table compare_table(const CompareReport& r);

}  // namespace bwlab::benchjson
