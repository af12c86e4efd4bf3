// bwtop: renders bwlive telemetry (a TIMESERIES_<app>.json written by
// run_app --live-*) as a terminal dashboard — per-rank progress, current
// vs roof bandwidth, stall flags, drop counters.
//
//   tools/bwtop TIMESERIES_clover2d.json            one-shot render
//   tools/bwtop TIMESERIES_clover2d.json --follow   re-read + re-render
//       [--interval-ms=M]                           refresh period
//       [--max-refresh=N]                           stop after N renders
//   --windows=W        stall-classifier flat-window threshold (default 4)
//   --min-samples=N    exit 1 when the series has fewer samples — the CI
//                      smoke gate ("did the sampler actually sample?")
//
// To watch a run in real time, point --follow at the file the run will
// write and start the run with --live-out to the same path; bwtop keeps
// rendering the latest state each refresh.
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/timeseries.hpp"
#include "core/livemon.hpp"

using namespace bwlab;

namespace {

void render(const live::TimeSeriesFile& f, std::size_t windows) {
  const live::TimeSeries& ts = f.series;
  std::cout << "bwtop — " << f.app << " (git " << f.git_sha << ")\n"
            << "  samples: " << ts.size() << " @ " << ts.interval_ms
            << " ms";
  if (!ts.empty())
    std::cout << ", span " << ts.times.back() - ts.times.front() << " s";
  if (ts.dropped_samples > 0)
    std::cout << ", " << ts.dropped_samples << " samples evicted";
  std::cout << "\n  bandwidth: " << core::live_rate_line(ts) << "\n";
  const double tdrops = ts.last("trace.dropped_events");
  if (tdrops > 0)
    std::cout << "  trace drops: " << static_cast<long long>(tdrops)
              << " events (timeline truncated — raise --trace-buffer)\n";
  const std::string table = core::live_rank_table(ts, windows);
  if (!table.empty()) std::cout << table;
  for (const core::StallFlag& s : core::classify_stalls(ts, windows))
    std::cout << "  rank " << s.rank << " STALLING: no progress for "
              << s.windows << " windows (since t=" << s.since_s << " s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help") || cli.positional().empty()) {
    std::cout << "usage: " << cli.program()
              << " TIMESERIES.json [--follow] [--interval-ms=M]\n"
              << "       [--windows=W] [--min-samples=N] [--max-refresh=N]\n";
    return cli.has("help") ? 0 : 1;
  }
  const std::string path = cli.positional().front();
  const auto windows =
      static_cast<std::size_t>(cli.get_int("windows", 4));
  const long long min_samples = cli.get_int("min-samples", 0);
  const bool follow = cli.get_bool("follow", false);
  const long long max_refresh = cli.get_int("max-refresh", 0);
  const bool has_interval = cli.has("interval-ms");
  const long long interval_flag = cli.get_int("interval-ms", 0);

  try {
    cli.reject_unknown();
    live::TimeSeriesFile f = live::read_timeseries_file(path);
    long long refreshes = 1;
    render(f, windows);
    if (follow) {
      const long long interval_ms =
          has_interval               ? interval_flag
          : f.series.interval_ms > 0 ? f.series.interval_ms
                                     : 250;
      while (max_refresh <= 0 || refreshes < max_refresh) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
        f = live::read_timeseries_file(path);
        std::cout << "\n";
        render(f, windows);
        ++refreshes;
      }
    }
    if (min_samples > 0 &&
        static_cast<long long>(f.series.size()) < min_samples) {
      std::cerr << "bwtop: only " << f.series.size() << " samples, expected "
                << ">= " << min_samples << "\n";
      return 1;
    }
  } catch (const Error& e) {
    std::cerr << "bwtop: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
