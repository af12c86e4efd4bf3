// bwlive: the always-on telemetry sampler. A background thread snapshots,
// at a configurable interval, the cumulative counters the other
// observability layers already maintain — MetricsRegistry counters and
// gauges, trace drop counts, datmove cumulative bytes, resil recovery
// counters, per-rank step counters, plus whatever registered providers
// contribute (SimMPI per-rank census, ThreadPool census) — into a bounded
// ring of run-relative, steady-clock timestamped samples
// (common/timeseries.hpp).
//
// Contracts, matching the other bw* layers:
//  - Compiled in, runtime-disabled. The hot-path hooks (on_step,
//    on_loop_bytes) cost one relaxed load + branch when the sampler is
//    off (asserted < 5 ns by bench/gb_layer_overhead).
//  - The sampler never takes a lock a rank thread holds: everything it
//    reads is a relaxed atomic or a provider built on relaxed atomics.
//    (Exception: the MetricsRegistry map mutex, which rank threads only
//    take when first *registering* an instrument — hot paths hoist
//    references.)
//  - Sampling is opt-in per run (run_app --live-* flags): samples carry
//    timestamps, and default runs must stay byte-comparable.
//
// Two surfaces: the TimeSeries (report section + TIMESERIES_<app>.json,
// rendered by tools/bwtop) and an in-terminal status line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/gate.hpp"
#include "common/timeseries.hpp"

namespace bwlab::live {

namespace detail {
inline Gate g_on;
void bump_step(int rank);
void bump_loop_bytes(std::uint64_t bytes);
}  // namespace detail

/// Single-branch fast path checked by every hook site.
inline bool enabled() { return detail::g_on.enabled(); }

/// Per-rank application progress: called at the top of each time step
/// (apps/resilient_loop.cpp). Steps are cumulative across rollbacks.
inline void on_step(int rank) {
  if (enabled()) detail::bump_step(rank);
}

/// Useful bytes of one executed par_loop (the Figure-8 "effective
/// bandwidth" numerator), summed process-wide so the sampler can derive
/// the current bandwidth and its fraction of the machine roof.
inline void on_loop_bytes(std::uint64_t bytes) {
  if (enabled()) detail::bump_loop_bytes(bytes);
}

struct Config {
  long long interval_ms = 250;
  std::size_t ring_capacity = 4096;  ///< oldest samples evicted (counted)
  /// Consecutive flat windows (no step/message/byte progress) before a
  /// rank is flagged as stalling (slow but live; a deadlock is diagnosed
  /// by SimMPI at once, before any window closes).
  int stall_windows = 4;
  bool status_line = false;       ///< render a live \r status to stderr
  double roof_bytes_per_s = 0;    ///< MachineModel STREAM-triad roof
};

/// A sampler data source: fills key -> current value. Must be lock-free
/// from the ranks' point of view (relaxed atomics only) — the sampler
/// calls providers under its own registry mutex, which rank threads only
/// touch inside add/remove at run start/end.
using Provider = std::function<void(std::map<std::string, double>&)>;

/// Registers a provider; returns an id for remove_provider. Safe before
/// or during a sampling session.
int add_provider(Provider p);
/// Unregisters; blocks until any in-flight sample stops using the
/// provider, so the captured state may be destroyed afterwards.
void remove_provider(int id);

/// Starts a sampling session: resets the ring and step/byte counters,
/// opens the gate, spawns the sampler. Throws if already running.
void start(const Config& cfg);

/// Takes one final sample, closes the gate, joins the sampler. The
/// collected series stays available via series(). No-op when not running.
void stop();

bool running();

/// Takes one sample synchronously (run_ranks calls this right before the
/// per-world provider unregisters, so the last sample with rank keys is
/// the ranks' exact final state). No-op when not running.
void sample_now();

/// The collected series in canonical export form: keys sorted, rows
/// dense (a key missing from an early sample reads 0, one missing from a
/// late sample carries the last seen value forward — cumulative counters
/// stay monotone even when a provider unregisters mid-run).
TimeSeries series();

/// Ranks currently flagged as stalling (flat for >= stall_windows).
std::vector<int> stalled_ranks();

/// Current per-rank step counter / process-wide loop-byte counter.
std::uint64_t rank_steps(int rank);
std::uint64_t loop_bytes();

}  // namespace bwlab::live
