#include "common/live.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/instrument.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/trace.hpp"

namespace bwlab::live {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-rank step counters. Fixed-size so bump_step is one bounds check +
/// one relaxed fetch_add, with no allocation or lock on the hot path.
constexpr int kMaxRanks = 512;
std::array<std::atomic<std::uint64_t>, kMaxRanks> g_steps{};
std::atomic<int> g_max_rank{-1};
std::atomic<std::uint64_t> g_loop_bytes{0};

/// One raw sample: the key -> value map exactly as collected. Export to
/// the dense TimeSeries matrix happens in series().
struct RawSample {
  double t = 0;
  std::map<std::string, double> kv;
};

/// Session state. g_mu guards everything below; rank threads only take it
/// inside add/remove_provider (run start/end), never on a hot path.
std::mutex g_mu;
std::condition_variable g_cv;
bool g_running = false;
bool g_stop = false;
Config g_cfg;
Clock::time_point g_epoch;
std::deque<RawSample> g_ring;
std::uint64_t g_dropped = 0;
std::map<int, Provider> g_providers;
int g_next_provider = 0;
std::map<int, int> g_flat;                          // rank -> flat windows
std::map<int, std::vector<double>> g_last_progress; // rank -> counters
std::set<int> g_stalled;
std::thread g_sampler;

double elapsed_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// The built-in sources: metrics registry, trace drops, datmove mirror,
/// resil counters, step/loop-byte counters. All relaxed-atomic reads
/// (the registry snapshot takes the registry map mutex, which rank hot
/// paths do not hold — instrument references are hoisted at first use).
void collect_builtin(std::map<std::string, double>& kv) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  for (const auto& [name, v] : snap.counters)
    kv["counter." + name] = static_cast<double>(v);
  for (const auto& [name, v] : snap.gauges)
    if (name.rfind("live.", 0) != 0)  // don't re-sample our own gauges
      kv["gauge." + name] = v;
  kv["trace.dropped_events"] =
      static_cast<double>(trace::dropped_events_now());
  if (datmove::enabled() || datmove::cum_bytes() > 0)
    kv["datmove.cum_bytes"] = static_cast<double>(datmove::cum_bytes());
  if (resil::active()) {
    const resil::Stats st = resil::stats();
    kv["resil.retries"] = static_cast<double>(st.retries);
    kv["resil.recovered"] = static_cast<double>(st.recovered);
    kv["resil.degraded"] = static_cast<double>(st.degraded_events);
    kv["resil.rollbacks"] = static_cast<double>(st.rollbacks);
  }
  kv["live.loop_bytes"] =
      static_cast<double>(g_loop_bytes.load(std::memory_order_relaxed));
  const int max_rank = g_max_rank.load(std::memory_order_relaxed);
  for (int r = 0; r <= std::min(max_rank, kMaxRanks - 1); ++r)
    kv[rank_key(r, "steps")] = static_cast<double>(
        g_steps[static_cast<std::size_t>(r)].load(std::memory_order_relaxed));
}

/// Flat-window stall tracking: a rank whose step AND message AND byte
/// counters are all unchanged across `stall_windows` consecutive samples
/// is flagged. It sees slow but live ranks; a real deadlock never shows
/// here, because SimMPI diagnoses it as the last live rank parks, before
/// a sampling window closes — tests assert both.
void update_stalls(const std::map<std::string, double>& kv) {
  std::set<int> seen;
  for (const auto& [k, v] : kv) {
    (void)v;
    if (k.rfind("rank.", 0) != 0) continue;
    const std::size_t dot = k.find('.', 5);
    if (dot == std::string::npos) continue;
    try {
      seen.insert(std::stoi(k.substr(5, dot - 5)));
    } catch (...) {
    }
  }
  for (const int r : seen) {
    std::vector<double> progress;
    for (const char* what : {"steps", "msgs_sent", "bytes_sent"}) {
      const auto it = kv.find(rank_key(r, what));
      progress.push_back(it == kv.end() ? 0.0 : it->second);
    }
    const auto last = g_last_progress.find(r);
    if (last != g_last_progress.end() && last->second == progress)
      ++g_flat[r];
    else
      g_flat[r] = 0;
    g_last_progress[r] = std::move(progress);
    if (g_flat[r] >= g_cfg.stall_windows)
      g_stalled.insert(r);
    else
      g_stalled.erase(r);
  }
}

void render_status(const RawSample& s) {
  const auto find = [&](const char* k) {
    const auto it = s.kv.find(k);
    return it == s.kv.end() ? 0.0 : it->second;
  };
  std::ostringstream stalls;
  if (g_stalled.empty()) {
    stalls << "-";
  } else {
    bool first = true;
    for (const int r : g_stalled) {
      stalls << (first ? "" : ",") << r;
      first = false;
    }
  }
  std::fprintf(stderr,
               "\r[bwlive t=%6.1fs] bw %7.2f GB/s (%5.1f%% of roof) "
               "msgs %8.0f  stalling: %s  drops trace=%.0f samples=%.0f   ",
               s.t, find("live.bw_bytes_per_s") / 1e9,
               100.0 * find("live.roof_fraction"), find("counter.comm.messages"),
               stalls.str().c_str(), find("trace.dropped_events"),
               find("live.dropped_samples"));
  std::fflush(stderr);
}

/// Takes one sample. Caller holds g_mu.
void take_sample_locked() {
  RawSample s;
  s.t = elapsed_s();
  collect_builtin(s.kv);
  for (const auto& [id, p] : g_providers) {
    (void)id;
    p(s.kv);
  }
  // Windowed bandwidth: exact counted bytes when bwmem is armed, the
  // modeled per-loop useful bytes otherwise.
  double bw = 0;
  if (!g_ring.empty()) {
    const RawSample& prev = g_ring.back();
    const double dt = s.t - prev.t;
    const char* src =
        s.kv.count("datmove.cum_bytes") ? "datmove.cum_bytes"
                                        : "live.loop_bytes";
    const auto cur = s.kv.find(src);
    const auto was = prev.kv.find(src);
    if (dt > 0 && cur != s.kv.end() && was != prev.kv.end())
      bw = std::max(0.0, (cur->second - was->second) / dt);
  }
  const double roof = g_cfg.roof_bytes_per_s;
  s.kv["live.bw_bytes_per_s"] = bw;
  s.kv["live.roof_fraction"] = roof > 0 ? bw / roof : 0.0;
  update_stalls(s.kv);
  s.kv["live.stalled_ranks"] = static_cast<double>(g_stalled.size());
  s.kv["live.dropped_samples"] = static_cast<double>(g_dropped);
  // The roof-fraction / drop gauges in the registry: the mid-run view
  // --metrics and the status line read, updated every sample.
  static Gauge& roof_g = MetricsRegistry::global().gauge("live.roof_fraction");
  static Gauge& bw_g =
      MetricsRegistry::global().gauge("live.bw_bytes_per_s");
  static Gauge& tdrop_g =
      MetricsRegistry::global().gauge("live.trace_dropped_events");
  static Gauge& sdrop_g =
      MetricsRegistry::global().gauge("live.dropped_samples");
  static Gauge& stall_g =
      MetricsRegistry::global().gauge("live.stalled_ranks");
  roof_g.set(s.kv["live.roof_fraction"]);
  bw_g.set(bw);
  tdrop_g.set(s.kv["trace.dropped_events"]);
  sdrop_g.set(static_cast<double>(g_dropped));
  stall_g.set(static_cast<double>(g_stalled.size()));
  if (g_cfg.status_line) render_status(s);
  if (g_ring.size() >= std::max<std::size_t>(g_cfg.ring_capacity, 2)) {
    g_ring.pop_front();
    ++g_dropped;
  }
  g_ring.push_back(std::move(s));
}

void sampler_main() {
  std::unique_lock<std::mutex> lock(g_mu);
  const auto interval =
      std::chrono::milliseconds(std::max<long long>(g_cfg.interval_ms, 1));
  auto next = g_epoch + interval;
  for (;;) {
    if (g_cv.wait_until(lock, next, [] { return g_stop; })) return;
    take_sample_locked();
    next += interval;
    // Sampling slower than the interval (a debugger stop, a loaded
    // machine): skip the missed ticks instead of bursting to catch up.
    const auto now = Clock::now();
    while (next < now) next += interval;
  }
}

}  // namespace

namespace detail {

void bump_step(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return;
  g_steps[static_cast<std::size_t>(rank)].fetch_add(
      1, std::memory_order_relaxed);
  int cur = g_max_rank.load(std::memory_order_relaxed);
  while (rank > cur && !g_max_rank.compare_exchange_weak(
                           cur, rank, std::memory_order_relaxed)) {
  }
}

void bump_loop_bytes(std::uint64_t bytes) {
  g_loop_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

}  // namespace detail

int add_provider(Provider p) {
  std::lock_guard<std::mutex> lock(g_mu);
  const int id = g_next_provider++;
  g_providers.emplace(id, std::move(p));
  return id;
}

void remove_provider(int id) {
  // Acquiring g_mu waits out any in-flight sample, so the provider's
  // captured state (e.g. a run_ranks World) may die once this returns.
  std::lock_guard<std::mutex> lock(g_mu);
  g_providers.erase(id);
}

void start(const Config& cfg) {
  std::lock_guard<std::mutex> lock(g_mu);
  BWLAB_REQUIRE(!g_running, "bwlive sampler already running");
  BWLAB_REQUIRE(cfg.interval_ms > 0,
                "bwlive interval must be positive, got " << cfg.interval_ms);
  g_cfg = cfg;
  g_ring.clear();
  g_dropped = 0;
  g_flat.clear();
  g_last_progress.clear();
  g_stalled.clear();
  for (auto& s : g_steps) s.store(0, std::memory_order_relaxed);
  g_max_rank.store(-1, std::memory_order_relaxed);
  g_loop_bytes.store(0, std::memory_order_relaxed);
  g_stop = false;
  g_epoch = Clock::now();
  g_sampler = std::thread(sampler_main);
  g_running = true;
  detail::g_on.enable();
}

void stop() {
  std::thread sampler;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!g_running) return;
    // Final sample: the exit-time aggregates, so the series' last
    // cumulative values match what the run report stores.
    take_sample_locked();
    detail::g_on.disable();
    g_stop = true;
    sampler = std::move(g_sampler);
  }
  g_cv.notify_all();
  if (sampler.joinable()) sampler.join();
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_cfg.status_line) std::fprintf(stderr, "\n");
  g_running = false;
}

bool running() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_running;
}

void sample_now() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_running) return;
  take_sample_locked();
}

TimeSeries series() {
  std::lock_guard<std::mutex> lock(g_mu);
  TimeSeries ts;
  ts.interval_ms = g_cfg.interval_ms;
  ts.roof_bytes_per_s = g_cfg.roof_bytes_per_s;
  ts.dropped_samples = g_dropped;
  std::set<std::string> keyset;
  for (const RawSample& s : g_ring)
    for (const auto& [k, v] : s.kv) {
      (void)v;
      keyset.insert(k);
    }
  ts.keys.assign(keyset.begin(), keyset.end());
  // Dense rows with carry-forward: a key a provider stopped contributing
  // (its run_ranks World ended) keeps its last value, so cumulative
  // counters stay monotone; before first sight it reads 0.
  std::map<std::string, double> carried;
  for (const RawSample& s : g_ring) {
    ts.times.push_back(s.t);
    std::vector<double> row;
    row.reserve(ts.keys.size());
    for (const std::string& k : ts.keys) {
      const auto it = s.kv.find(k);
      if (it != s.kv.end()) carried[k] = it->second;
      const auto c = carried.find(k);
      row.push_back(c == carried.end() ? 0.0 : c->second);
    }
    ts.values.push_back(std::move(row));
  }
  return ts;
}

std::vector<int> stalled_ranks() {
  std::lock_guard<std::mutex> lock(g_mu);
  return {g_stalled.begin(), g_stalled.end()};
}

std::uint64_t rank_steps(int rank) {
  if (rank < 0 || rank >= kMaxRanks) return 0;
  return g_steps[static_cast<std::size_t>(rank)].load(
      std::memory_order_relaxed);
}

std::uint64_t loop_bytes() {
  return g_loop_bytes.load(std::memory_order_relaxed);
}

}  // namespace bwlab::live
