// Shared helpers for the figure-generator and gb_* microbenchmark
// binaries: config sweeps, best times, table output (text by default,
// CSV with --csv), and the bwbench Runner every binary measures and
// records through, so all of bench/ emits the same machine-readable
// BENCH_<suite>.json trajectory (src/common/benchjson.hpp).
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/benchjson.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/units.hpp"
#include "core/app_registry.hpp"
#include "core/perf_model.hpp"
#include "core/report.hpp"

namespace bwlab::bench {

/// Best predicted runtime of `a` over the machine's feasible configuration
/// space (what the paper's "best performing implementation" labels mean).
inline double best_time(const core::AppInfo& a, const sim::MachineModel& m,
                        core::Config* best_cfg = nullptr) {
  double best = 1e300;
  for (const core::Config& c : core::config_space(m, a.cls)) {
    const double t = core::PerfModel(m).predict(a.profile, c).total();
    if (t < best) {
      best = t;
      if (best_cfg) *best_cfg = c;
    }
  }
  return best;
}

/// The one timing-and-recording harness for bench/ binaries. Centralizes
/// what the gb_* benches used to each hand-roll (and subtly disagree on):
/// warmup repetitions, measured repetitions, and the statistic reported —
/// every Runner measurement does `kWarmupReps` untimed passes, times
/// `reps` passes, records ALL repetition samples into the suite's result
/// file, and reports the median. Durations are scaled by
/// $BWBENCH_PERTURB (benchjson::perturb_factor), which gives the
/// regression gate a synthetic-slowdown test handle; repetition counts
/// honor $BWBENCH_REPS and --reps for CI determinism.
///
///   Runner run(cli, "gb_example");
///   double ns = run.time_ns_per_iter("hook.ns", 1'000'000, [] { ... });
///   run.emit(table);
///   run.finish();  // writes BENCH_gb_example.json when --bench-json
class Runner {
 public:
  static constexpr int kWarmupReps = 1;
  static constexpr int kDefaultReps = 5;

  /// Reads its flags (--reps, --bench-json, --csv) here, so a tool that
  /// calls Cli::reject_unknown() after constructing it accepts them.
  Runner(const Cli& cli, std::string suite)
      : reps_(static_cast<int>(
            cli.get_int("reps", benchjson::repetitions(kDefaultReps)))),
        bench_json_(cli.has("bench-json")),
        bench_json_path_(cli.get("bench-json", "")),
        csv_(cli.get_bool("csv", false)),
        name_(suite) {
    file_.git_sha = benchjson::git_sha();
    file_.suites.push_back({std::move(suite), "host", {}});
  }

  /// Records into suite `name` from here on, starting it on first use, so
  /// one binary can fill several suites of its result file (still named
  /// after the constructor's suite). A suite left empty is dropped.
  void use_suite(const std::string& name) {
    if (suite().metrics.empty())
      file_.suites.erase(file_.suites.begin() +
                         static_cast<std::ptrdiff_t>(cur_));
    cur_ = 0;
    while (cur_ < file_.suites.size() && file_.suites[cur_].suite != name)
      ++cur_;
    if (cur_ == file_.suites.size()) file_.suites.push_back({name, "host", {}});
  }

  int reps() const { return reps_; }

  /// Times `reps()` repetitions of `body()` (after warmup), in seconds
  /// per repetition; records the samples as `name` and returns the
  /// median.
  template <class F>
  double time_seconds(const std::string& name, F&& body) {
    return record(name, "s", benchjson::Better::Lower,
                  measure(1, std::forward<F>(body)));
  }

  /// Times `iters` calls of `body()` per repetition, in ns per call —
  /// the overhead-microbenchmark shape (gb_layer_overhead). Records the
  /// per-repetition ns samples as `name` and returns the median.
  template <class F>
  double time_ns_per_iter(const std::string& name, std::uint64_t iters,
                          F&& body) {
    std::vector<double> ns = measure(iters, std::forward<F>(body));
    for (double& x : ns) x *= 1e9;
    return record(name, "ns", benchjson::Better::Lower, std::move(ns));
  }

  /// Raw measurement: warmup passes, then `reps()` timed passes of
  /// `iters` calls each; returns seconds per call for every repetition,
  /// scaled by the synthetic perturbation factor.
  template <class F>
  std::vector<double> measure(std::uint64_t iters, F&& body) {
    const double perturb = benchjson::perturb_factor();
    for (int w = 0; w < kWarmupReps; ++w)
      for (std::uint64_t i = 0; i < iters; ++i) body();
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(reps_));
    for (int r = 0; r < reps_; ++r) {
      Timer t;
      for (std::uint64_t i = 0; i < iters; ++i) body();
      out.push_back(t.elapsed() * perturb / static_cast<double>(iters));
    }
    return out;
  }

  /// Records already-computed samples (e.g. GB/s derived from measured
  /// seconds, or deterministic model outputs) and returns their median.
  double record(const std::string& name, const std::string& unit,
                benchjson::Better better, std::vector<double> samples) {
    suite().metrics.push_back({name, unit, better, std::move(samples)});
    return suite().metrics.back().median();
  }

  /// Single-sample convenience for deterministic values (model
  /// predictions have no run-to-run noise; one sample, zero MAD).
  void record_value(const std::string& name, const std::string& unit,
                    benchjson::Better better, double value) {
    record(name, unit, better, {value});
  }

  /// Machine-model id the recorded numbers refer to ("host" unless the
  /// suite records model predictions for a paper platform).
  void set_machine(const std::string& id) { suite().machine = id; }

  /// Prints `t` as text, or as CSV with --csv.
  void emit(const Table& t) const {
    if (csv_) {
      t.print_csv(std::cout);
    } else {
      t.print(std::cout);
      std::cout << "\n";
    }
  }

  /// Writes BENCH_<suite>.json if --bench-json was given (with an
  /// optional explicit path: --bench-json=FILE). Returns the path
  /// written, or "" when the flag is absent.
  std::string finish() {
    if (!bench_json_) return "";
    std::string path = bench_json_path_;
    if (path.empty()) path = "BENCH_" + name_ + ".json";
    benchjson::write_file(path, file_);
    std::cout << "bench results written to " << path << "\n";
    return path;
  }

 private:
  benchjson::Suite& suite() { return file_.suites[cur_]; }

  int reps_;
  bool bench_json_;
  std::string bench_json_path_;
  bool csv_;
  std::string name_;  ///< names the result file
  std::size_t cur_ = 0;  ///< the suite recorded into
  benchjson::ResultFile file_;
};

}  // namespace bwlab::bench
