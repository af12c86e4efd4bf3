// run_diff: bwdiff differential run forensics between two saved run
// reports (run_app --report=FILE JSON).
//
// Aligns the two reports by stable keys (loops by name, critical-path
// buckets by bucket, comm matrix by rank pair, counted bytes by
// (loop, dat)), splits the wall-time delta into per-loop and per-bucket
// contributions that sum exactly to it, and flags which loop deltas rise
// above run-to-run noise when repetition reports are supplied.
//
// Usage:
//   run_diff A.json B.json [options]
//
//   --json[=FILE]      emit the diff as JSON (stdout when no FILE)
//   --csv              emit the diff as flat CSV on stdout
//   --top=N            rows per table (default 10, 0 = all)
//   --threshold=T      relative-change significance gate (default 0.10)
//   --mad-k=K          MAD interval half-width multiplier (default 3)
//   --a-samples=F1,F2  extra run reports of side A (repetitions) for the
//   --b-samples=F1,F2  MAD noise gate on per-loop deltas
//   --trace-a=FILE     side A Chrome trace for --merged-trace
//   --trace-b=FILE     side B Chrome trace for --merged-trace
//   --merged-trace=F   write both traces into one Chrome JSON: run A's
//                      tracks on pid 2·rank, run B's on pid 2·rank+1
//   --check            verify the attribution invariants (per-loop and
//                      per-bucket deltas each sum to their measured total
//                      within 1%) and fail with exit 1 when violated
//
// Exit status: 0 on success, 1 on error or failed --check, 2 on usage.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "core/diff.hpp"
#include "core/report.hpp"

using namespace bwlab;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::vector<core::RunReport> load_side(const std::string& primary,
                                       const std::string& samples_csv) {
  std::vector<core::RunReport> runs;
  runs.push_back(core::read_run_report(primary));
  for (const std::string& path : split_csv(samples_csv))
    runs.push_back(core::read_run_report(path));
  return runs;
}

/// |sum of parts - total| within 1% of max(|total|, 1 us): the parts are
/// 6-significant-digit reprints of each side's values, so tiny rounding
/// residue is expected; anything larger is an attribution bug.
bool sums_ok(double parts, double total) {
  const double tol = 0.01 * std::max(std::abs(total), 1e-6);
  return std::abs(parts - total) <= tol;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help") || cli.positional().size() != 2) {
    std::cout << "usage: " << cli.program()
              << " A.json B.json [--json[=FILE]] [--csv] [--top=N]\n"
                 "  [--threshold=T] [--mad-k=K] [--a-samples=F1,F2,...]\n"
                 "  [--b-samples=F1,F2,...] [--trace-a=F --trace-b=F\n"
                 "  --merged-trace=OUT] [--check]\n";
    return cli.has("help") ? 0 : 2;
  }
  try {
    const std::string a_samples = cli.get("a-samples", "");
    const std::string b_samples = cli.get("b-samples", "");
    core::DiffOptions opts;
    opts.threshold = cli.get_double("threshold", 0.10);
    opts.mad_k = cli.get_double("mad-k", 3.0);
    const std::string merged = cli.get("merged-trace", "");
    const std::string ta = cli.get("trace-a", "");
    const std::string tb = cli.get("trace-b", "");
    const bool check = cli.has("check");
    const bool json_out = cli.has("json");
    const std::string json_path = cli.get("json", "");
    const bool csv = cli.get_bool("csv", false);
    const auto top = static_cast<std::size_t>(cli.get_int("top", 10));
    cli.reject_unknown();

    const std::vector<core::RunReport> a =
        load_side(cli.positional()[0], a_samples);
    const std::vector<core::RunReport> b =
        load_side(cli.positional()[1], b_samples);
    const core::DiffReport diff = core::diff_runs(a, b, opts);

    if (!merged.empty()) {
      BWLAB_REQUIRE(!ta.empty() && !tb.empty(),
                    "--merged-trace needs --trace-a and --trace-b");
      std::ofstream os(merged);
      BWLAB_REQUIRE(os.good(), "cannot open '" << merged << "'");
      core::write_merged_chrome_trace(os, trace::read_chrome_json_file(ta),
                                      trace::read_chrome_json_file(tb));
      BWLAB_REQUIRE(os.good(), "failed writing '" << merged << "'");
      std::cerr << "merged trace -> " << merged << "\n";
    }

    if (check) {
      double loop_parts = 0;
      for (const core::LoopDelta& l : diff.loops)
        loop_parts += l.delta_seconds;
      if (!sums_ok(loop_parts, diff.loop_delta_seconds)) {
        std::cerr << "run_diff: per-loop deltas sum to " << loop_parts
                  << " s but the loop-seconds delta is "
                  << diff.loop_delta_seconds << " s\n";
        return 1;
      }
      if (diff.has_buckets) {
        double bucket_parts = 0;
        for (const core::BucketDelta& bd : diff.buckets)
          bucket_parts += bd.delta_seconds;
        if (!sums_ok(bucket_parts, diff.wall_delta_seconds)) {
          std::cerr << "run_diff: per-bucket deltas sum to " << bucket_parts
                    << " s but the wall delta is " << diff.wall_delta_seconds
                    << " s\n";
          return 1;
        }
      }
    }

    if (json_out) {
      if (json_path.empty() || json_path == "true") {
        json::write(std::cout, diff);
        std::cout << '\n';
      } else {
        std::ofstream os(json_path);
        BWLAB_REQUIRE(os.good(), "cannot open '" << json_path << "'");
        json::write(os, diff);
        os << '\n';
        BWLAB_REQUIRE(os.good(), "failed writing '" << json_path << "'");
        std::cerr << "diff -> " << json_path << "\n";
      }
      return 0;
    }
    if (csv) {
      core::write_csv(std::cout, diff);
      return 0;
    }

    std::cout << cli.positional()[0] << " (A) vs " << cli.positional()[1]
              << " (B)\n"
              << "wall (" << (diff.wall_from_causal ? "causal" : "loops")
              << "): " << diff.a_wall_seconds << " s -> "
              << diff.b_wall_seconds << " s (delta "
              << diff.wall_delta_seconds << " s)\n"
              << "loop seconds: " << diff.a_loop_seconds << " s -> "
              << diff.b_loop_seconds << " s (delta "
              << diff.loop_delta_seconds << " s)\n\n";
    core::diff_loops_table(diff, top).print(std::cout);
    if (diff.has_buckets) {
      std::cout << "\n";
      core::diff_buckets_table(diff).print(std::cout);
      std::cout << "\n";
      core::diff_comm_table(diff, top).print(std::cout);
    }
    if (diff.has_dats) {
      std::cout << "\n";
      core::diff_dats_table(diff, top).print(std::cout);
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "run_diff: " << e.what() << "\n";
    return 1;
  }
}
