// Microbenchmark of the bwmem instrumentation's disabled fast path.
// Every loop execution passes its loop event through datmove::record (the
// bwmem stage of record_loop), and every chain tile carries a
// `datmove::enabled()` guard in front of its reuse touches; with the
// profiler OFF each must cost one relaxed atomic load plus a branch (the
// record/touch arguments must not even be evaluated). This binary
// measures those sites and FAILS if the median cost exceeds the same 5 ns
// budget gb_trace_overhead and gb_causal_overhead enforce, so the guard
// runs under `ctest -L bench`.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "common/instrument.hpp"

using namespace bwlab;

namespace {
Instrumentation g_instr;
const std::string g_dat = "a";
}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  bench::Runner run(cli, "gb_datmove_overhead");

  constexpr std::uint64_t kIters = 20'000'000;
  constexpr double kBudgetNs = 5.0;

  datmove::disable();
  const double add_ns =
      run.time_ns_per_iter("loop_hook.disabled", kIters, [] {
        if (datmove::enabled())
          g_instr.datmove_add("bench.loop", "a", 192, 64);
      });
  const double touch_ns =
      run.time_ns_per_iter("touch_hook.disabled", kIters, [] {
        if (datmove::enabled()) g_instr.datmove_touch(&g_instr, 256, 256);
      });
  // The single counting site of the loop-event path, as record_loop()
  // calls it for a one-dat loop.
  const LoopDatArg arg{&g_dat, &g_dat, 4096, 192, 64, nullptr};
  LoopEvent ev;
  ev.instr = &g_instr;
  ev.rec = &g_instr.loop("bench.loop");
  ev.args = {&arg, 1};
  const double site_ns = run.time_ns_per_iter(
      "loop_site.disabled", kIters, [&ev] { datmove::record(ev); });

  // Enabled path for reference only (real map/stack updates; not
  // asserted).
  datmove::enable();
  const double enabled_ns = run.time_ns_per_iter(
      "loop_site.enabled", kIters / 100, [&ev] { datmove::record(ev); });
  datmove::disable();
  g_instr.clear();

  std::printf("loop hook, disabled:   %.3f ns (budget %.1f ns)\n", add_ns,
              kBudgetNs);
  std::printf("reuse touch, disabled: %.3f ns (budget %.1f ns)\n", touch_ns,
              kBudgetNs);
  std::printf("full site, disabled:   %.3f ns (budget %.1f ns)\n", site_ns,
              kBudgetNs);
  std::printf("full site, enabled:    %.3f ns (reference only)\n", enabled_ns);
  run.finish();

  bool fail = false;
  if (add_ns >= kBudgetNs) {
    std::fprintf(stderr, "FAIL: disabled loop hook %.3f ns >= %.1f ns budget\n",
                 add_ns, kBudgetNs);
    fail = true;
  }
  if (touch_ns >= kBudgetNs) {
    std::fprintf(stderr,
                 "FAIL: disabled reuse touch %.3f ns >= %.1f ns budget\n",
                 touch_ns, kBudgetNs);
    fail = true;
  }
  if (site_ns >= kBudgetNs) {
    std::fprintf(stderr, "FAIL: disabled full site %.3f ns >= %.1f ns budget\n",
                 site_ns, kBudgetNs);
    fail = true;
  }
  if (fail) return EXIT_FAILURE;
  std::printf("PASS\n");
  return 0;
}
