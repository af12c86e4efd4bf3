// run_app: the observability harness. Runs any of the proxy applications
// with chosen size / ranks / threads / execution mode and writes the
// bwtrace artifacts (a flag run_app does not know is rejected, exit 1):
//
//   --trace=FILE    Chrome trace-event JSON (open in Perfetto or
//                   chrome://tracing): kernel, halo, tile, and comm spans
//                   on one track per SimMPI rank and ThreadPool worker.
//   --metrics=FILE  MetricsRegistry JSON (counters / gauges / histograms).
//   --report=FILE   machine-readable run summary (per-loop records,
//                   exchanges, Figure 8 effective bandwidths, and the
//                   roofline attribution: measured vs model-predicted
//                   seconds per loop, roof fraction, drift flags).
//   --machine=ID    machine model the attribution predicts against
//                   (default max9480); --attr-tol=X sets the drift
//                   tolerance (default 0.25).
//   --datmove       bwmem: count exact per-loop/per-dat bytes moved,
//                   print the data-movement and reuse tables, and add a
//                   "datmove" section to --report. --byte-tol=X sets the
//                   counted-vs-modeled byte-drift tolerance (default 0.10).
//   --exec=serial|vec|colored  execution mode of the op2 apps (mgcfd,
//                   volna) and miniBUDE (vec = batched lanes)
//
// Memory modes (memtier):
//   --mode=hbm|hbmonly|flat|cache  memory mode of the machine: resolves
//                   the corresponding machine_by_id variant
//   --snc=0|1       sub-NUMA clustering; --snc=0 resolves the "-quad"
//                   variant (one NUMA domain per socket)
//   --place=auto|hbm|ddr|firsttouch  placement policy of the tier-aware
//                   allocator (default auto). Any of --place, --mode or
//                   --snc installs it: every Dat constructed during the
//                   run is placed on a memory tier, and the "memtier"
//                   table and report section show where each dat lived
//
// Examples:
//   ./build/examples/run_app --app=clover2d --n=64 --iters=3 --ranks=2
//       --threads=2 --trace=clover2d.trace.json --report=clover2d.json
//   ./build/examples/run_app --app=clover2d --tiled --n=24 --iters=2
//       --trace=tiled.trace.json
//
// Robustness (bwfault):
//   --faults=SPEC        deterministic fault plan, e.g.
//                        "drop:rank=1,msg=3;crash:rank=2,step=4" (seeded
//                        by --seed; see src/common/fault.hpp)
//   --checkpoint-every=K commit a checkpoint every K steps; an injected
//                        rank crash rolls every rank back to the last one,
//                        the crashed rank restoring from its buddy's mirror
//                        (CloverLeaf 2D/3D, miniWeather; without
//                        checkpoints a crash restarts from step 0)
//   --nan-guard=0|1|2    post-loop NaN/Inf guard: off / report / abort
//
// Resilience (bwresil; crash rollback runs with or without it):
//   --resil              resilient Comm policy: a receive no rank can
//                        satisfy any more is served from the sender's
//                        replay log (recovers dropped messages)
//   --degraded           when no replay log holds the message, continue
//                        with stale halo data instead of a diagnosed
//                        deadlock
#include <charconv>
#include <iostream>
#include <string>

#include "apps/acoustic/acoustic.hpp"
#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "apps/cloverleaf/cloverleaf3d.hpp"
#include "apps/mgcfd/mgcfd.hpp"
#include "apps/minibude/minibude.hpp"
#include "apps/miniweather/miniweather.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "apps/volna/volna.hpp"
#include "common/benchjson.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/live.hpp"
#include "common/memtier.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/attribution.hpp"
#include "core/causal.hpp"
#include "core/config.hpp"
#include "core/datmove.hpp"
#include "core/diff.hpp"
#include "core/livemon.hpp"
#include "core/memtier.hpp"
#include "core/report.hpp"
#include "core/tuning.hpp"

using namespace bwlab;

namespace {

constexpr const char* kApps =
    "clover2d clover3d acoustic miniweather opensbli_sa opensbli_sn "
    "mgcfd volna minibude";

/// Long-form aliases (the profile/registry ids) for the short app names.
std::string canonical_app(const std::string& app) {
  if (app == "cloverleaf2d") return "clover2d";
  if (app == "cloverleaf3d") return "clover3d";
  return app;
}

core::AppClass app_class(const std::string& app) {
  if (app == "mgcfd" || app == "volna") return core::AppClass::Unstructured;
  if (app == "minibude") return core::AppClass::ComputeBound;
  return core::AppClass::Structured;
}

apps::Result dispatch(const std::string& app, const apps::Options& opt) {
  if (app == "clover2d") return apps::clover2d::run(opt);
  if (app == "clover3d") return apps::clover3d::run(opt);
  if (app == "acoustic") return apps::acoustic::run(opt);
  if (app == "miniweather") return apps::miniweather::run(opt);
  if (app == "opensbli_sa")
    return apps::opensbli::run(opt, apps::opensbli::Variant::StoreAll);
  if (app == "opensbli_sn")
    return apps::opensbli::run(opt, apps::opensbli::Variant::StoreNone);
  if (app == "mgcfd") return apps::mgcfd::run(opt);
  if (app == "volna") return apps::volna::run(opt);
  if (app == "minibude") return apps::minibude::run(opt);
  BWLAB_REQUIRE(false, "unknown --app '" << app << "'; one of: " << kApps);
  return {};  // unreachable
}

/// `v` in the shortest form that reads back as the same double, so two
/// runs' printed checksums are equal exactly when the values are.
std::string round_trip(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

/// The exact command line, for the report's provenance stamp.
std::string join_cmdline(int argc, char** argv) {
  std::string out;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) out += ' ';
    out += argv[i];
  }
  return out;
}

/// Histogram tail latencies (p50/p95/p99 from the log2 buckets, linear
/// within-bucket interpolation), printed alongside --metrics.
Table metrics_percentile_table(const MetricsSnapshot& snap) {
  Table t("Histogram percentiles");
  t.set_columns({{"histogram", 0},
                 {"count", 0},
                 {"mean", 6},
                 {"p50", 6},
                 {"p95", 6},
                 {"p99", 6}});
  for (const auto& [name, h] : snap.histograms)
    t.add_row({name, static_cast<double>(h.count),
               h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0,
               h.p50, h.p95, h.p99});
  return t;
}

int run_main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.has("help")) {
    std::cout << "usage: " << cli.program() << " [APP | --app=NAME] [options]\n"
              << "  apps: " << kApps << "\n"
              << "  --n=N --iters=I --ranks=R --threads=T --tiled\n"
              << "  --tile-size=S --tile=auto|H --exec=serial|vec|colored "
                 "--scenario=K\n"
              << "  --seed=S\n"
              << "  --trace=FILE --metrics=FILE --report=FILE --summary\n"
              << "  --causal --trace-buffer=N\n"
              << "  --diff-against=REPORT.json (print the bwdiff delta "
                 "tables vs a saved run)\n"
              << "  --datmove\n"
              << "  --mode=hbm|hbmonly|flat|cache --snc=0|1 "
                 "--place=auto|hbm|ddr|firsttouch\n"
              << "  --machine=ID --attr-tol=X\n"
              << "  --faults=SPEC --nan-guard=0|1|2\n"
              << "  --checkpoint-every=K (crash rollback checkpoints)\n"
              << "  --resil --degraded (Comm replay policy)\n"
              << "  --live --live-interval-ms=M --live-status\n"
              << "  --live-out=FILE --live-ring=N --live-stall-windows=W\n";
    return 0;
  }
  const std::string app_flag = cli.get("app", "clover2d");
  const std::string app = canonical_app(
      cli.positional().empty() ? app_flag : cli.positional().front());
  apps::Options opt;
  opt.n = cli.get_int("n", 32);
  opt.iterations = static_cast<int>(cli.get_int("iters", 3));
  opt.ranks = static_cast<int>(cli.get_int("ranks", 1));
  opt.threads = static_cast<int>(cli.get_int("threads", 1));
  opt.tiled = cli.get_bool("tiled", false);
  opt.tile_size = cli.get_int("tile-size", 0);
  // The attribution machine also scopes the tile-height auto-tuner's
  // cache budget, so resolve it before dispatch. --mode resolves the
  // machine's memory-mode variant, --snc=0 its "-quad" (SNC-off) variant.
  std::string machine_id = cli.get("machine", "max9480");
  const std::string mode = cli.get("mode", "");
  BWLAB_REQUIRE(mode.empty() || mode == "hbm" || mode == "hbmonly" ||
                    mode == "flat" || mode == "cache",
                "unknown --mode '" << mode
                                   << "' (hbm|hbmonly|flat|cache); the app "
                                      "execution mode is --exec=serial|vec|"
                                      "colored");
  if (!mode.empty()) machine_id += "-" + mode;
  if (!cli.get_bool("snc", true)) machine_id += "-quad";
  const sim::MachineModel& machine = sim::machine_by_id(machine_id);
  const std::string tile = cli.get("tile", "");
  if (!tile.empty()) {
    // --tile=H implies --tiled; --tile=auto lets the executor size the
    // tile from the chain footprint and the machine's cache capacity.
    opt.tiled = true;
    if (tile == "auto") {
      opt.tile_size = 0;
      opt.tile_cache_bytes =
          core::tile_cache_budget_bytes(machine, std::max(opt.threads, 1));
    } else {
      opt.tile_size = std::stoll(tile);
    }
  }
  opt.exec_mode = apps::exec_mode_from_name(cli.get("exec", "serial"));
  opt.scenario = static_cast<int>(cli.get_int("scenario", 0));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345));

  const core::Robustness rob = core::robustness_from_cli(cli);
  const ObservabilityFlags obs = observability_flags(cli);
  const auto trace_buffer =
      static_cast<std::size_t>(cli.get_int("trace-buffer", 1LL << 20));
  const bool datmove_on = cli.get_bool("datmove", false);
  const std::string place = cli.get("place", "");
  const bool memtier_on = !place.empty() || !mode.empty() || cli.has("snc");
  const std::string place_policy = place.empty() ? "auto" : place;
  // bwlive: any --live-* flag arms per-run sampling.
  bool live_on = false;
  for (const char* flag : {"live", "live-interval-ms", "live-status",
                           "live-out", "live-ring", "live-stall-windows"})
    live_on = cli.has(flag) || live_on;
  const double attr_tol = cli.get_double("attr-tol", 0.25);
  const double byte_tol = cli.get_double("byte-tol", 0.10);
  const bool summary = cli.get_bool("summary", false);
  const std::string diff_against = cli.get("diff-against", "");
  cli.reject_unknown();

  rob.apply(opt);
  rob.install();
  // --causal needs the event stream even when no trace file was asked for.
  if (!obs.trace_path.empty() || obs.causal) trace::enable(trace_buffer);
  // bwmem: exact data-movement accounting must be armed before dispatch
  // so every par_loop counts its descriptor x executed-range bytes.
  if (datmove_on) core::DataMoveProfiler::enable();

  // memtier: any of --place / --mode=<memory mode> / --snc arms the
  // tier-aware allocator (installed before dispatch so every Dat
  // constructor records its placement) and the "memtier" report section.
  if (memtier_on) core::install_memtier_allocator(machine, place_policy);

  // bwlive: started before dispatch so every run_ranks world registers
  // its per-rank census, and stopped on both the success and the failure
  // path (the series up to a deadlock abort is exactly what one wants to
  // look at).
  live::Config live_cfg;
  std::string live_out;
  if (live_on) {
    live_cfg.interval_ms = cli.get_int("live-interval-ms", 250);
    live_cfg.ring_capacity =
        static_cast<std::size_t>(cli.get_int("live-ring", 4096));
    live_cfg.stall_windows =
        static_cast<int>(cli.get_int("live-stall-windows", 4));
    live_cfg.status_line = cli.get_bool("live-status", false);
    live_cfg.roof_bytes_per_s = core::live_roof_bytes_per_s(machine);
    live_out = cli.get("live-out", "TIMESERIES_" + app + ".json");
    live::start(live_cfg);
  }
  const auto finish_live = [&]() {
    live::TimeSeries ts;
    if (!live_on) return ts;
    live::stop();
    ts = live::series();
    live::write_timeseries_file(live_out, ts, app, benchjson::git_sha());
    std::cerr << "timeseries (" << ts.size() << " samples) written to "
              << live_out << "\n";
    return ts;
  };

  apps::Result result;
  try {
    result = dispatch(app, opt);
  } catch (const Error& e) {
    finish_live();
    // A diagnosed failure (deadlock dump, aggregated rank
    // errors, NaN-guard abort). Flush the trace first — the timeline up
    // to the failure is exactly what one wants to look at.
    trace::disable();
    if (!obs.trace_path.empty()) {
      trace::write_chrome_json_file(obs.trace_path);
      std::cerr << "trace written to " << obs.trace_path << "\n";
    }
    std::cerr << "run failed: " << e.what() << "\n";
    return 1;
  }

  const live::TimeSeries live_ts = finish_live();

  trace::disable();  // all rank/worker threads have joined inside run()
  if (!obs.trace_path.empty()) {
    trace::write_chrome_json_file(obs.trace_path);
    std::cout << "trace written to " << obs.trace_path;
    if (trace::dropped_events() > 0)
      std::cout << " (" << trace::dropped_events() << " events dropped)";
    std::cout << "\n";
  }
  if ((!obs.trace_path.empty() || obs.causal) && trace::dropped_events() > 0)
    std::cerr << "warning: trace buffers overflowed ("
              << trace::dropped_events()
              << " events dropped); timeline and causal analysis are "
                 "truncated — raise --trace-buffer\n";
  core::causal::Report causal_rep;
  if (obs.causal) causal_rep = core::causal::analyze_live();
  if (!obs.metrics_path.empty()) {
    MetricsRegistry::global().write_json_file(obs.metrics_path);
    std::cout << "metrics written to " << obs.metrics_path << "\n";
    metrics_percentile_table(MetricsRegistry::global().snapshot())
        .print(std::cout);
  }
  // Roofline attribution: the measured loop records vs the chosen
  // machine model's predictions at the run's own scale.
  const core::AttributionReport attr = core::attribute(
      result.instr, machine,
      core::default_config(machine, app_class(app)), attr_tol, byte_tol);
  core::DatMoveReport dm;
  if (datmove_on) {
    core::DataMoveProfiler::disable();
    dm = core::DataMoveProfiler::analyze(result.instr);
  }
  // memtier: snapshot the allocator's tier map plus the mode pricing and
  // per-tier loop roofs into the report section, then release the
  // allocator (its gate must not outlive the run).
  core::MemTierSection mt;
  if (memtier_on) {
    mt = core::build_memtier_section(result.instr, machine, place_policy);
    memtier::uninstall();
  }
  // Provenance stamp: commit, machine model, exact command line, seed —
  // no timestamps, so identical runs produce byte-identical reports.
  core::RunProvenance prov;
  prov.git_sha = benchjson::git_sha();
  prov.machine = machine.id;
  prov.cmdline = join_cmdline(argc, argv);
  prov.seed = opt.seed;
  const core::RunReport report = core::make_run_report(
      result.instr, &MetricsRegistry::global(), &attr,
      obs.causal ? &causal_rep : nullptr, datmove_on ? &dm : nullptr, &prov,
      live_on ? &live_ts : nullptr, memtier_on ? &mt : nullptr);
  if (!obs.report_path.empty()) {
    core::write_run_report_json_file(obs.report_path, report);
    std::cout << "report written to " << obs.report_path << "\n";
  }

  std::cout << app << ": n=" << opt.n << " iters=" << opt.iterations
            << " ranks=" << opt.ranks << " threads=" << opt.threads
            << (opt.tiled ? " tiled" : "") << "\n"
            << "checksum = " << round_trip(result.checksum)
            << ", elapsed = " << result.elapsed << " s, rank-0 blocked = "
            << result.comm_seconds << " s\n";
  for (std::size_t r = 0; r < result.rank_stats.size(); ++r) {
    const par::RankStats& st = result.rank_stats[r];
    std::cout << "  rank " << r << ": blocked " << st.comm_seconds << " s, "
              << st.messages_sent << " msgs, " << st.payload_bytes_sent
              << " payload bytes\n";
  }
  if (live_on && !live_ts.empty()) {
    std::cout << "live: " << live_ts.size() << " samples @ "
              << live_ts.interval_ms << " ms, last window "
              << core::live_rate_line(live_ts) << "\n"
              << core::live_rank_table(
                     live_ts,
                     static_cast<std::size_t>(live_cfg.stall_windows));
  }
  if (!rob.faults.empty()) {
    const std::vector<fault::Event> events = fault::events();
    std::cout << "faults fired: " << events.size() << "\n";
    for (const fault::Event& e : events) {
      std::cout << "  " << fault::to_string(e.kind) << " rank=" << e.rank;
      if (e.kind == fault::Kind::Crash)
        std::cout << " step=" << e.step;
      else
        std::cout << " msg=" << e.msg_index << " dest=" << e.peer
                  << " tag=" << e.tag;
      std::cout << "\n";
    }
    if (result.metric("rollbacks") > 0)
      std::cout << "recovered via buddy rollback: "
                << result.metric("rollbacks") << " rollback(s), "
                << result.metric("buddy_restores") << " buddy restore(s)\n";
  }
  if (rob.resil) {
    const resil::Stats st = resil::stats();
    std::cout << "resil: retries=" << st.retries
              << " recovered=" << st.recovered
              << " degraded=" << st.degraded_events << "\n";
  }
  if (summary) {
    std::cout << "\n";
    core::top_loops_table(result.instr).print(std::cout);
    std::cout << "\n";
    core::effective_bw_table(result.instr).print(std::cout);
    std::cout << "\n";
    core::attribution_table(attr).print(std::cout);
  }
  if (obs.causal) {
    std::cout << "\n";
    core::causal::wait_state_table(causal_rep).print(std::cout);
    std::cout << "\n";
    core::causal::comm_matrix_table(causal_rep).print(std::cout);
    std::cout << "\n";
    core::causal::critical_path_table(causal_rep).print(std::cout);
  }
  if (datmove_on) {
    std::cout << "\n";
    core::datmove_table(dm).print(std::cout);
    std::cout << "\n";
    core::datmove_reuse_table(dm).print(std::cout);
  }
  if (memtier_on) {
    std::cout << "\n";
    core::memtier_table(mt).print(std::cout);
    if (!mt.loop_roofs.empty()) {
      std::cout << "\n";
      core::memtier_roof_table(mt).print(std::cout);
    }
  }
  // bwdiff: compare this run against a saved baseline report at exit.
  if (!diff_against.empty()) {
    const core::RunReport baseline = core::read_run_report(diff_against);
    const core::DiffReport diff = core::diff_runs(baseline, report);
    std::cout << "\ndiff vs " << diff_against << " (A = baseline, B = this "
              << "run)\nwall ("
              << (diff.wall_from_causal ? "causal" : "loops")
              << "): " << diff.a_wall_seconds << " s -> "
              << diff.b_wall_seconds << " s (delta "
              << diff.wall_delta_seconds << " s)\n\n";
    core::diff_loops_table(diff).print(std::cout);
    if (diff.has_buckets) {
      std::cout << "\n";
      core::diff_buckets_table(diff).print(std::cout);
    }
    if (diff.has_dats) {
      std::cout << "\n";
      core::diff_dats_table(diff).print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A request the run cannot honour (an unknown --app, --machine, --mode
  // or --exec, a --place pin to a tier the machine lacks) is reported the
  // way a failed run is: the diagnosis on stderr, exit 1.
  try {
    return run_main(argc, argv);
  } catch (const Error& e) {
    std::cerr << "run failed: " << e.what() << "\n";
    return 1;
  }
}
