// The layer-overhead bench: what every observability and robustness layer
// costs the runtime it is compiled into. The contract that makes it safe
// to compile a layer's hooks into par_loop, the halo exchange, Comm and
// the step loop is that each hook costs one relaxed atomic load plus a
// branch while its layer is off. This binary times every such site from
// one table with its layer off, then the enabled paths for reference, and
// FAILS (exit 1, naming each failed check on stderr) if
//   * a layer-off site with a budget reaches 5 ns (median),
//   * an idle layer slows the same workload by more than 25 % plus a
//     scheduling-noise floor (the accidental-locking trip wires: an inert
//     fault plan and a disabled resil policy on a 2-rank ping-pong, the
//     live sampler at its default interval on a small clover2d run),
//   * one live sample at the default 250 ms interval models to more than
//     1 % of wall time, or
//   * memtier makes other than one placement decision for a repeated dat.
// Timing and recording go through bench::Runner; --bench-json writes one
// BENCH_gb_layer_overhead.json with one suite per layer
// (gb_trace_overhead ... gb_memtier_overhead), the names the committed
// baselines gate.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "bench/bench_common.hpp"
#include "common/fault.hpp"
#include "common/instrument.hpp"
#include "common/live.hpp"
#include "common/memtier.hpp"
#include "common/resil.hpp"
#include "common/trace.hpp"
#include "par/simmpi.hpp"
#include "par/thread_pool.hpp"
#include "sim/machine.hpp"

using namespace bwlab;

namespace {

constexpr std::uint64_t kIters = 20'000'000;
constexpr double kBudgetNs = 5.0;
constexpr double kIdleSlowdown = 1.25;  // A/B trip wire: on <= 1.25 x off
constexpr long long kLiveIntervalMs = 250;  // live's default interval
constexpr double kLiveWallBudget = 0.01;    // modeled sampling overhead
constexpr int kMsgs = 20'000;               // ping-pong round trips

// State the sites touch, set up in main before anything is timed (a
// function-local static would add its guard to every timed call).
Instrumentation g_instr;
const std::string g_dat = "a";
const LoopDatArg g_arg{&g_dat, &g_dat, 4096, 192, 64, nullptr};
LoopEvent g_loop;
const std::string g_alloc_name = "bench.dat";
double g_payload[8] = {};

// --- The guarded call sites, as the runtime compiles them in -----------------

void kernel_span() { trace::TraceSpan span(trace::Cat::Kernel, "bench.noop"); }
void comm_span() {
  trace::TraceSpan span(trace::Cat::Comm, "bench.send", {},
                        trace::CommArgs{1, 7, 0, 800});
}
void flow_start() { trace::flow_start(trace::flow_id(0, 1, 7, 0)); }
void send_site() {  // a comm span with a flow start inside it
  trace::TraceSpan span(trace::Cat::Comm, "bench.send", {},
                        trace::CommArgs{1, 7, 0, 800});
  flow_start();
}
void datmove_add() {
  if (datmove::enabled()) g_instr.datmove_add("bench.loop", "a", 192, 64);
}
void datmove_touch() {
  if (datmove::enabled()) g_instr.datmove_touch(&g_instr, 256, 256);
}
// The single counting site of the loop-event path, as record_loop() calls
// it for a one-dat loop.
void datmove_record() { datmove::record(g_loop); }
void fault_send() {
  if (fault::active())
    (void)fault::on_send(0, 1, 0, g_payload, sizeof g_payload);
}
void fault_step() { fault::on_step(0, 0); }
// The guard Comm::send and Comm::recv evaluate per message; the counter
// bump is dead with no policy installed.
void resil_hook() {
  if (resil::active()) resil::count_retry();
}
void live_step() { live::on_step(0); }
// The ops::Dat constructor site: a named dat of a fixed footprint, so with
// memtier on it is one logical dat (first allocation wins).
void alloc() { memtier::on_alloc(g_alloc_name, 4096); }
void live_sample() { live::sample_now(); }

/// Times `iters` calls of `Call` per repetition in ns per call. A template
/// so the call inlines into the timed loop instead of going through a
/// pointer.
template <void (*Call)()>
double timed(bench::Runner& run, const char* metric, std::uint64_t iters) {
  return run.time_ns_per_iter(metric, iters, [] { Call(); });
}

/// One timed site; budget 0 records it for reference only.
struct Site {
  const char* suite;
  const char* metric;
  std::uint64_t iters;
  double (*time)(bench::Runner&, const char*, std::uint64_t);
  double budget_ns = 0;
};

/// Every site with its layer off.
const Site kLayerOff[] = {
    {"gb_trace_overhead", "span.disabled", kIters, timed<kernel_span>,
     kBudgetNs},
    {"gb_causal_overhead", "span_args.disabled", kIters, timed<comm_span>,
     kBudgetNs},
    {"gb_causal_overhead", "flow.disabled", kIters, timed<flow_start>,
     kBudgetNs},
    {"gb_causal_overhead", "send_site.disabled", kIters, timed<send_site>},
    {"gb_datmove_overhead", "loop_hook.disabled", kIters, timed<datmove_add>,
     kBudgetNs},
    {"gb_datmove_overhead", "touch_hook.disabled", kIters,
     timed<datmove_touch>, kBudgetNs},
    {"gb_datmove_overhead", "loop_site.disabled", kIters,
     timed<datmove_record>, kBudgetNs},
    {"gb_fault_overhead", "hook.on_send", kIters, timed<fault_send>,
     kBudgetNs},
    {"gb_fault_overhead", "hook.on_step", kIters, timed<fault_step>,
     kBudgetNs},
    {"gb_resil_overhead", "hook.active", kIters, timed<resil_hook>,
     kBudgetNs},
    {"gb_live_overhead", "hook.on_step", kIters, timed<live_step>, kBudgetNs},
    {"gb_memtier_overhead", "alloc_hook.disabled", kIters,
     timed<alloc>, kBudgetNs},
};

/// Times `s` into its suite and prints it; a site at or over its budget
/// counts in `failed`. Returns the median in ns.
double time_site(bench::Runner& run, const Site& s, int& failed) {
  run.use_suite(s.suite);
  const double ns = s.time(run, s.metric, s.iters);
  if (s.budget_ns > 0) {
    std::printf("%-20s %-20s %10.3f ns (budget %.1f ns)\n", s.suite,
                s.metric, ns, s.budget_ns);
    if (ns >= s.budget_ns) {
      std::fprintf(stderr, "FAIL: %s %s %.3f ns, budget %.1f ns\n", s.suite,
                   s.metric, ns, s.budget_ns);
      ++failed;
    }
  } else {
    std::printf("%-20s %-20s %10.3f ns (reference only)\n", s.suite,
                s.metric, ns);
  }
  return ns;
}

/// One 2-rank ping-pong pass: kMsgs round trips per rank.
void pingpong() {
  par::run_ranks(
      2,
      [](par::Comm& c) {
        double payload[8] = {};
        const int peer = 1 - c.rank();
        for (int i = 0; i < kMsgs; ++i) {
          if (c.rank() == 0) {
            c.send(peer, 1, payload, sizeof payload);
            c.recv(peer, 2, payload, sizeof payload);
          } else {
            c.recv(peer, 1, payload, sizeof payload);
            c.send(peer, 2, payload, sizeof payload);
          }
        }
      });
}

/// One small clover2d pass: 2 ranks, enough steps to run real halo
/// exchanges and par_loops with the hooks in the loop bodies.
void clover_pass() {
  apps::Options opt;
  opt.n = 48;
  opt.iterations = 10;
  opt.ranks = 2;
  opt.threads = 1;
  (void)apps::clover2d::run(opt);
}

/// A sampler whose interval is far beyond the bench runtime: its thread
/// exists but never fires on its own; samples are driven explicitly.
live::Config quiet_live() {
  live::Config cfg;
  cfg.interval_ms = 1LL << 40;
  return cfg;
}

/// A workload timed without and with an idle layer.
struct TripWire {
  const char* suite;
  const char* off;   ///< metric of the passes with the layer cleared
  const char* on;    ///< metric of the passes with the layer armed
  const char* unit;
  double per_pass;   ///< seconds per pass -> recorded unit
  double floor;      ///< scheduling-noise floor, in `unit`
  void (*work)();
  void (*arm)();
  void (*clear)();
};

/// Times passes of `w.work` alternately with the layer cleared and armed
/// (one warm-up pair, then run.reps() pairs), so a shift in the machine's
/// state mid-bench (thread placement, clocks) lands on both sides; fails
/// when the armed median exceeds 1.25 x the cleared one + floor.
/// Scheduling noise dominates passes this small, so the bound catches
/// accidental locking, not microseconds.
void trip_wire(bench::Runner& run, const TripWire& w, int& failed) {
  const double scale = benchjson::perturb_factor() * w.per_pass;
  std::vector<double> off_x, on_x;
  for (int r = -1; r < run.reps(); ++r)
    for (std::vector<double>* side : {&off_x, &on_x}) {
      if (side == &on_x) w.arm();
      Timer t;
      w.work();
      const double x = t.elapsed() * scale;
      w.clear();
      if (r >= 0) side->push_back(x);
    }
  run.use_suite(w.suite);
  const double off = run.record(w.off, w.unit, benchjson::Better::Lower, off_x);
  const double on = run.record(w.on, w.unit, benchjson::Better::Lower, on_x);
  std::printf("%-20s %-20s %10.4g %s, %s %.4g %s (budget %.0f%% + %g %s)\n",
              w.suite, w.off, off, w.unit, w.on, on, w.unit,
              (kIdleSlowdown - 1.0) * 100.0, w.floor, w.unit);
  if (on > off * kIdleSlowdown + w.floor) {
    std::fprintf(stderr, "FAIL: %s %s %.4g %s > %.2f x %s %.4g %s + %g\n",
                 w.suite, w.on, on, w.unit, kIdleSlowdown, w.off, off, w.unit,
                 w.floor);
    ++failed;
  }
}

constexpr double kNsPerMsg = 1e9 / (2.0 * kMsgs);

const TripWire kInertFaultPlan = {
    "gb_fault_overhead", "pingpong.no_plan", "pingpong.inert_plan", "ns",
    kNsPerMsg, 200.0, pingpong,
    [] {
      // Entries target rank 3 of a 2-rank run: the hook takes its slow
      // path bookkeeping decision but never fires.
      fault::install(fault::FaultPlan::parse("drop:rank=3,msg=0", 7));
    },
    fault::clear};
const TripWire kDisabledResilPolicy = {
    "gb_resil_overhead", "pingpong.no_policy", "pingpong.disabled_policy",
    "ns", kNsPerMsg, 200.0, pingpong,
    [] {
      // Installing a disabled policy must be indistinguishable from clear().
      resil::Policy off;
      off.enabled = false;
      resil::install(off);
    },
    resil::clear};
const TripWire kLiveSampler = {
    "gb_live_overhead", "clover2d.live_off", "clover2d.live_on", "s", 1.0,
    0.05, clover_pass,
    [] {
      live::Config cfg;
      cfg.interval_ms = kLiveIntervalMs;
      live::start(cfg);
    },
    live::stop};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "gb_layer_overhead");
  cli.reject_unknown();

  g_loop.instr = &g_instr;
  g_loop.rec = &g_instr.loop("bench.loop");
  g_loop.args = {&g_arg, 1};
  int failed = 0;

  // Every layer off, before any is enabled.
  trace::disable();
  datmove::disable();
  fault::clear();
  resil::clear();
  memtier::uninstall();
  for (const Site& s : kLayerOff) time_site(run, s, failed);

  // Enabled paths, reference only; each group clears its layer after.
  // A small trace buffer keeps the steady state on the drop path.
  trace::enable(/*max_events_per_thread=*/1 << 12);
  time_site(run, {"gb_trace_overhead", "span.enabled", kIters / 10,
                  timed<kernel_span>}, failed);
  time_site(run, {"gb_causal_overhead", "send_site.enabled", kIters / 10,
                  timed<send_site>}, failed);
  trace::disable();
  trace::reset();

  datmove::enable();
  time_site(run, {"gb_datmove_overhead", "loop_site.enabled", kIters / 100,
                  timed<datmove_record>}, failed);
  datmove::disable();
  g_instr.clear();

  trip_wire(run, kInertFaultPlan, failed);
  trip_wire(run, kDisabledResilPolicy, failed);
  // Enabled, no faults: pays the sequence stamp + replay-log copy.
  resil::Policy on;
  on.enabled = true;
  resil::install(on);
  std::vector<double> enabled = run.measure(1, pingpong);
  for (double& x : enabled) x *= kNsPerMsg;
  run.record("pingpong.enabled", "ns", benchjson::Better::Lower, enabled);
  resil::clear();

  // Per-sample cost (registry snapshot + provider sweep + ring push),
  // sampled synchronously so it excludes thread wakeup noise.
  live::start(quiet_live());
  const double sample_ns =
      time_site(run, {"gb_live_overhead", "sample.ns", 20'000,
                      timed<live_sample>}, failed);
  live::stop();
  const double modeled =
      sample_ns * (1000.0 / static_cast<double>(kLiveIntervalMs)) / 1e9;
  run.record_value("sample.modeled_overhead", "frac",
                   benchjson::Better::Lower, modeled);
  trip_wire(run, kLiveSampler, failed);
  // Deterministic schema gate: the built-in key count of a canonical
  // 2-rank session (pool census + world census + comm counters + derived
  // live gauges). Changing the exported schema moves this number and
  // trips the CI baseline.
  live::start(quiet_live());
  {
    par::ThreadPool pool(2);
    pool.run([](int) {});
    par::run_ranks(2, [](par::Comm& c) {
      double x = 1.0;
      const int peer = 1 - c.rank();
      c.send(peer, 7, &x, sizeof x);
      c.recv(peer, 7, &x, sizeof x);
    });
  }
  live::stop();
  run.record_value("schema.builtin_keys", "keys", benchjson::Better::Higher,
                   static_cast<double>(live::series().keys.size()));

  // The flat-mode MAX: two placement targets.
  memtier::Config cfg;
  cfg.policy = "auto";
  cfg.numa_domains = sim::max9480().total_numa();
  for (const sim::MemoryTier& t : sim::machine_by_id("max9480-flat").tiers)
    cfg.tiers.push_back({t.name, t.capacity_bytes, t.bw_bytes_per_s});
  memtier::install(cfg);
  time_site(run, {"gb_memtier_overhead", "alloc_hook.enabled", kIters / 200,
                  timed<alloc>}, failed);
  const std::size_t decisions = memtier::placements().size();
  memtier::uninstall();
  run.record_value("model.flat_tiers", "tiers", benchjson::Better::Higher,
                   static_cast<double>(cfg.tiers.size()));
  run.record_value("model.decisions_per_dat", "n", benchjson::Better::Lower,
                   static_cast<double>(decisions));

  std::printf("live: %.0f ns per sample -> modeled %.4f%% of wall at %lld ms "
              "(budget %.0f%%); %zu memtier decision(s) for one dat\n",
              sample_ns, modeled * 100.0, kLiveIntervalMs,
              kLiveWallBudget * 100.0, decisions);
  run.finish();

  if (modeled > kLiveWallBudget) {
    std::fprintf(stderr,
                 "FAIL: gb_live_overhead sample.modeled_overhead %.3f%% over "
                 "the 1%% wall budget\n",
                 modeled * 100.0);
    ++failed;
  }
  if (decisions != 1) {
    std::fprintf(stderr,
                 "FAIL: gb_memtier_overhead model.decisions_per_dat %zu "
                 "placement decisions for one repeated dat\n",
                 decisions);
    ++failed;
  }
  if (failed > 0) return EXIT_FAILURE;
  std::printf("PASS\n");
  return 0;
}
