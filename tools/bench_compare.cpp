// bench_compare: the bwbench regression gate. Diffs BENCH_*.json result
// files (src/common/benchjson.hpp) with the noise-aware rule — a metric
// regresses when its median moved beyond --threshold in the worse
// direction AND the median ± mad-k·MAD intervals of baseline and
// candidate are disjoint — and exits non-zero so CI can gate on it.
//
//   bench_compare [--threshold=10%] [--mad-k=3] BASELINE CAND [CAND...]
//   bench_compare --merge OUT IN [IN...]     # build a multi-suite baseline
//
// Exit codes: 0 gate passed, 1 regression or missing metric, 2 usage,
// unknown flag or file/parse error.
#include <iostream>
#include <string>
#include <vector>

#include "common/benchjson.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

using namespace bwlab;

namespace {

int usage(const std::string& program) {
  std::cerr
      << "usage: " << program
      << " [--threshold=10%] [--mad-k=3] [--csv] BASELINE CANDIDATE...\n"
      << "       " << program << " --merge OUT IN...\n";
  return 2;
}

benchjson::ResultFile read_and_merge(const std::vector<std::string>& paths,
                                     std::size_t first) {
  std::vector<benchjson::ResultFile> files;
  for (std::size_t i = first; i < paths.size(); ++i)
    files.push_back(benchjson::read_file(paths[i]));
  return benchjson::merge(files);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::vector<std::string>& paths = cli.positional();
  try {
    // Every flag is read first: a misspelt one must not default a gate.
    const bool merge = cli.get_bool("merge", false);
    benchjson::GateOptions opt;
    opt.threshold = benchjson::parse_threshold(cli.get("threshold", "10%"));
    opt.mad_k = cli.get_double("mad-k", opt.mad_k);
    const bool csv = cli.get_bool("csv", false);
    cli.reject_unknown();

    if (merge) {
      if (paths.size() < 2) return usage(cli.program());
      benchjson::ResultFile merged = read_and_merge(paths, 1);
      merged.git_sha = benchjson::git_sha();
      benchjson::write_file(paths.front(), merged);
      std::cout << "merged " << paths.size() - 1 << " file(s), "
                << merged.suites.size() << " suite(s) into " << paths.front()
                << "\n";
      return 0;
    }

    if (paths.size() < 2) return usage(cli.program());

    const benchjson::ResultFile baseline = benchjson::read_file(paths[0]);
    const benchjson::ResultFile candidate = read_and_merge(paths, 1);
    const benchjson::CompareReport report =
        benchjson::compare(baseline, candidate, opt);

    const Table t = benchjson::compare_table(report);
    if (csv)
      t.print_csv(std::cout);
    else
      t.print(std::cout);

    std::cout << "\nbaseline " << baseline.git_sha << " vs candidate "
              << candidate.git_sha << ": " << report.regressions
              << " regression(s), " << report.improvements
              << " improvement(s), " << report.missing
              << " missing metric(s), threshold "
              << 100.0 * opt.threshold << "%\n";
    if (!report.ok()) {
      std::cerr << "FAIL:";
      for (const std::string& m : report.failed_metrics())
        std::cerr << " " << m;
      std::cerr << "\n";
      return 1;
    }
    std::cout << "PASS\n";
    return 0;
  } catch (const Error& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }
}
