// trace_analyze: offline bwcausal analysis of a saved Chrome trace.
//
// Runs the same send→recv matching, wait-state classification and
// critical-path extraction as `run_app --causal`, but on a .trace.json
// written by an earlier run (trace::write_chrome_json) and read back by
// trace::read_chrome_json, so a timeline captured on one machine can be
// diagnosed on another. A malformed or truncated trace exits 1 with
// "trace_analyze: <path>:<line>: ..." on stderr.
//
// Usage:
//   trace_analyze FILE.trace.json [--json] [--progress-eps-us=U]
//                 [--copy-bw-gbs=G]
//
//   --json             emit the causal report as JSON instead of tables
//   --progress-eps-us  progress-starved threshold slack (default 50)
//   --copy-bw-gbs      assumed mailbox copy bandwidth (default 1)
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "core/causal.hpp"

using namespace bwlab;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help") || cli.positional().empty()) {
    std::cout << "usage: " << cli.program()
              << " FILE.trace.json [--json] [--progress-eps-us=U] "
                 "[--copy-bw-gbs=G]\n";
    return cli.has("help") ? 0 : 2;
  }
  const std::string path = cli.positional().front();
  core::causal::Options opts;
  opts.progress_eps_s = cli.get_double("progress-eps-us", 50.0) * 1e-6;
  opts.copy_bw_bytes_per_s = cli.get_double("copy-bw-gbs", 1.0) * 1e9;
  const bool json_out = cli.get_bool("json", false);
  std::vector<trace::TrackView> tracks;
  try {
    cli.reject_unknown();
    tracks = trace::read_chrome_json_file(path);
  } catch (const Error& e) {
    std::cerr << "trace_analyze: " << e.what() << "\n";
    return 1;
  }
  if (tracks.empty()) {
    std::cerr << "trace_analyze: no trace events in '" << path << "'\n";
    return 1;
  }

  const core::causal::Report rep = core::causal::analyze(tracks, opts);

  if (json_out) {
    json::write(std::cout, core::causal::summarize(rep));
    std::cout << "\n";
    return 0;
  }
  std::cout << path << ": " << rep.nranks << " ranks, "
            << rep.messages.size() << " matched messages ("
            << rep.unmatched_sends << " unmatched sends, "
            << rep.unmatched_recvs << " unmatched recvs), wall "
            << rep.wall_s << " s\n\n";
  core::causal::wait_state_table(rep).print(std::cout);
  std::cout << "\n";
  core::causal::comm_matrix_table(rep).print(std::cout);
  std::cout << "\n";
  core::causal::critical_path_table(rep).print(std::cout);
  std::uint64_t dropped = 0;
  for (const trace::TrackView& t : tracks) dropped += t.dropped;
  if (dropped > 0)
    std::cerr << "\nwarning: the trace recorded " << dropped
              << " dropped events; the analysis is truncated\n";
  return 0;
}
