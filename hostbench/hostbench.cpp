// hostbench: the bwlab host benchmark driver (see NOTES.md for the
// workloads, the metrics and what each metric is expected to move).
// run.py builds it and calls its two modes in separate processes, so the
// reference solve does not count towards the workload's peak resident set:
//
//   hostbench reference --workload W --seed S
//       the 1-rank, 1-thread eager solve of the workload's deck; prints
//       {"checksum"}.
//   hostbench solve --workload W --seed S --seconds T --trace 0|1
//                   --ref-checksum C [--trace-file F] [--corrupt-checksum]
//       closed-loop timed solves, one at a time, each followed by a
//       set-up-only run (--trace 0) or by a traced solve and one repetition
//       of the STREAM triad roof probe (--trace 1); prints the result line
//       {"correct", "attempted", "failed", "metrics"} as the last line.
//       --corrupt-checksum perturbs each solve's checksum, so the
//       correctness gate must report every solve as failed.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/cloverleaf/cloverleaf2d.hpp"
#include "apps/mgcfd/mgcfd.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "core/datmove.hpp"
#include "microbench/babelstream.hpp"
#include "op2/meshgen.hpp"
#include "op2/partition.hpp"
#include "ops/context.hpp"
#include "par/simmpi.hpp"
#include "par/thread_pool.hpp"

using namespace bwlab;

namespace {

constexpr int kMaxThreads = 4;          // the host has 4 cores
constexpr double kChecksumTol = 1e-12;  // relative
constexpr int kMinSamples = 3;
constexpr idx_t kCloverN = 2048;        // the clover2d deck: n and steps
constexpr int kCloverSteps = 5;

// --- Bench-owned spans ------------------------------------------------------

/// A span the benchmark records around its calls in a solve: an App span
/// in the bwtrace timeline while tracing is on, and a steady-clock
/// duration always.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) : span_(trace::Cat::App, name) {}
  double seconds() const { return timer_.elapsed(); }

 private:
  trace::TraceSpan span_;
  Timer timer_;
};

// --- Correctness gate -------------------------------------------------------

/// Counts every solve of a run against the correctness gate: a solve fails
/// when it throws, or when its checksum differs from the reference by more
/// than kChecksumTol relative.
struct Tally {
  bool corrupt = false;  ///< test knob: perturb every checksum by 1e-9
  int attempted = 0;
  int failed = 0;

  /// Runs `solve`, checks its checksum against `ref` and counts it.
  /// Returns false when the solve failed; `out` is set unless it threw.
  bool run(const char* what, const std::function<apps::Result()>& solve,
           double ref, apps::Result& out) {
    ++attempted;
    try {
      out = solve();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hostbench: %s threw: %s\n", what, e.what());
      ++failed;
      return false;
    }
    BenchSpan span("bench.verify");
    const double c = out.checksum * (corrupt ? 1.0 + 1e-9 : 1.0);
    if (std::abs(c - ref) <= kChecksumTol * std::max(std::abs(c), std::abs(ref)))
      return true;
    std::fprintf(stderr, "hostbench: %s checksum %.17g != reference %.17g\n",
                 what, c, ref);
    ++failed;
    return false;
  }
};

// --- Workloads --------------------------------------------------------------

/// CloverLeaf 2D's standard deck, n=2048, 5 steps, in the workload's
/// execution layout. The deck ignores the seed.
apps::Options make_workload(const Cli& cli) {
  const std::string name = cli.get("workload", "");
  apps::Options o;
  o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  o.n = kCloverN;
  o.iterations = kCloverSteps;
  // The bwfault progress watchdog is off like every other gate. It polls
  // every 100 ms and run() joins it, so it would add 0 to 100 ms of
  // waiting to each distributed run.
  o.watchdog_ms = 0;
  if (name == "clover2d-tiled") {
    // One thread: with a team, each of the ~7,000 pool regions of a solve
    // waits for the host to wake the workers, and the scheduler alternates
    // between running them side by side and on one vCPU; that made both
    // the wall and the CPU time of a solve swing by 25% or more on a shared
    // host. The pool's cost per region is measured by a probe instead.
    o.tiled = true;
    o.tile_size = 0;  // auto height at the context's cache budget
  } else if (name == "clover2d-mpi") {
    o.ranks = kMaxThreads;
  } else {
    BWLAB_REQUIRE(false, "unknown workload '" << name << "'");
  }
  return o;
}

/// The correctness reference: the same deck on one rank and one thread,
/// eager. clover2d-tiled and clover2d-mpi share it.
apps::Options reference_options(apps::Options o) {
  o.ranks = 1;
  o.threads = 1;
  o.tiled = false;
  return o;
}

// --- Traced-run reducer -----------------------------------------------------

/// Per-layer self times of one traced solve, computed from the span
/// categories the layers emit. A span's self time is its duration minus
/// the time its direct child spans cover.
struct TraceLayers {
  double tile_self_s = 0;       ///< rank 0 Tile self time (per-tile overhead)
  double halo_self_s = 0;       ///< rank 0 Halo self time outside chain.exchange
  double chain_exchange_s = 0;  ///< rank 0 chain.exchange inclusive time
  double comm_self_s = 0;       ///< max over ranks of Comm self time
};

TraceLayers reduce_trace(const std::vector<trace::TrackView>& tracks) {
  struct Open {
    trace::Cat cat;
    const std::string* name;
    std::uint64_t ts;
    std::uint64_t child;
    bool in_chain_exchange;  ///< opened inside a chain.exchange span
  };
  const auto is_chain_exchange = [](const Open& o) {
    return o.cat == trace::Cat::Halo && *o.name == "chain.exchange";
  };
  TraceLayers out;
  std::map<int, double> comm_by_rank;
  for (const trace::TrackView& tr : tracks) {
    std::vector<Open> stack;
    for (const trace::EventView& e : tr.events) {
      if (e.ph == 'B') {
        const bool inside = !stack.empty() && (stack.back().in_chain_exchange ||
                                               is_chain_exchange(stack.back()));
        stack.push_back({e.cat, &e.name, e.ts_ns, 0, inside});
        continue;
      }
      if (e.ph != 'E' || stack.empty()) continue;
      const Open o = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts_ns - std::min(e.ts_ns, o.ts);
      const double self = 1e-9 * static_cast<double>(dur - std::min(dur, o.child));
      if (!stack.empty()) stack.back().child += dur;
      const bool rank0 = tr.rank == 0;
      if (o.cat == trace::Cat::Comm) {
        comm_by_rank[tr.rank] += self;
      } else if (o.cat == trace::Cat::Tile && rank0) {
        out.tile_self_s += self;
      } else if (is_chain_exchange(o) && rank0) {
        out.chain_exchange_s += 1e-9 * static_cast<double>(dur);
      } else if (o.cat == trace::Cat::Halo && rank0 && !o.in_chain_exchange) {
        // The per-dat exchanges a chain makes count in chain_exchange_s.
        out.halo_self_s += self;
      }
    }
  }
  for (const auto& [rank, s] : comm_by_rank)
    out.comm_self_s = std::max(out.comm_self_s, s);
  return out;
}

// --- One solve and its derived quantities -----------------------------------

/// CPU seconds the process has used, over all its threads, including those
/// that have already ended (the SimMPI ranks of a finished run). Time a
/// thread spends blocked, or descheduled by the hypervisor, does not count.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Sample {
  bool ok = false;   ///< passed the correctness gate
  double run_s = 0;  ///< wall time of the run() call
  double cpu_s = 0;  ///< CPU time of the run() call, all threads
  long long pool_regions = 0;
  apps::Result result;

  double solve_s() const { return result.elapsed; }
  double setup_s() const { return run_s - result.elapsed; }
};

/// Useful bytes (OPS/OP2 convention) of all loops, times `ranks`: only
/// rank 0's records come back, and the ranks own equal shares of the grid.
double useful_bytes(const Instrumentation& in, int ranks) {
  double b = 0;
  for (const LoopRecord* r : in.loops_in_order()) b += static_cast<double>(r->bytes);
  return b * std::max(ranks, 1);
}

double max_comm_seconds(const Sample& s) {
  double m = 0;
  for (const par::RankStats& r : s.result.rank_stats)
    m = std::max(m, r.comm_seconds);
  return m;
}

double comm_imbalance(const Sample& s) {
  if (s.result.rank_stats.empty()) return 0;
  double sum = 0;
  for (const par::RankStats& r : s.result.rank_stats) sum += r.comm_seconds;
  const double mean_s = sum / static_cast<double>(s.result.rank_stats.size());
  return mean_s > 0 ? max_comm_seconds(s) / mean_s : 0;
}

template <class F>
double median_of(const std::vector<Sample>& v, F f) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const Sample& s : v) x.push_back(f(s));
  return median(x);
}

/// Runs the workload's solves through the correctness gate.
struct Runner {
  apps::Options opt;
  double ref_checksum = 0;
  Tally tally;

  /// One closed-loop solve.
  Sample solve() {
    Sample s;
    const long long regions0 = par::pool_census().regions;
    s.ok = tally.run(
        "clover2d solve",
        [&] {
          BenchSpan span("bench.run");
          const double c0 = process_cpu_s();
          apps::Result res = apps::clover2d::run(opt);
          s.cpu_s = process_cpu_s() - c0;
          s.run_s = span.seconds();
          return res;
        },
        ref_checksum, s.result);
    s.pool_regions = par::pool_census().regions - regions0;
    return s;
  }

  /// CPU seconds of one run() of the deck with no steps: the set-up and
  /// teardown of a solve. Its checksum is that of an empty summary, so it
  /// is not checked.
  double setup_cpu_s() {
    apps::Options o = opt;
    o.iterations = 0;
    const double c0 = process_cpu_s();
    apps::clover2d::run(o);
    return process_cpu_s() - c0;
  }

  /// One solve with bwtrace on, reduced to per-layer self times. A
  /// timeline that dropped events fails the solve.
  Sample traced_solve(TraceLayers& layers, std::uint64_t& dropped) {
    trace::reset();
    trace::enable();
    Sample s = solve();
    trace::disable();
    const std::uint64_t d = trace::dropped_events();
    dropped += d;
    if (d > 0 && s.ok) {
      s.ok = false;
      ++tally.failed;
    }
    layers = reduce_trace(trace::snapshot());
    return s;
  }
};

/// Calls `step` back to back, one at a time, until `seconds` have passed
/// and it ran at least kMinSamples times.
void closed_loop(double seconds, const std::function<void()>& step) {
  Timer t;
  for (int i = 0; i < kMinSamples || t.elapsed() < seconds; ++i) step();
}

// --- Outside-in layer probes ------------------------------------------------
//
// The probes run with tracing off and are timed by the benchmark's own
// steady-clock Timer around the public call, so their values carry no
// trace overhead.

/// b_eff-style ring: every rank sends `bytes` to rank+1 and receives from
/// rank-1; microseconds per ring step, median of 5 repetitions.
double probe_ring_us(std::size_t bytes) {
  constexpr int kSteps = 200;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    double us = 0;
    par::run_ranks(kMaxThreads, [&](par::Comm& c) {
      std::vector<char> sbuf(bytes, 1), rbuf(bytes);
      const int next = (c.rank() + 1) % c.size();
      const int prev = (c.rank() + c.size() - 1) % c.size();
      c.barrier();
      const Timer timer;
      for (int s = 0; s < kSteps; ++s) {
        c.send(next, s, sbuf.data(), bytes);
        c.recv(prev, s, rbuf.data(), bytes);
      }
      if (c.rank() == 0) us = 1e6 * timer.elapsed() / kSteps;
    });
    reps.push_back(us);
  }
  return median(reps);
}

/// allreduce_min of one double on 4 ranks, microseconds per call.
double probe_allreduce_us() {
  constexpr int kCalls = 500;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    double us = 0;
    par::run_ranks(kMaxThreads, [&](par::Comm& c) {
      c.barrier();
      const Timer timer;
      double v = c.rank();
      for (int i = 0; i < kCalls; ++i) v = c.allreduce_min(v + 1.0);
      if (c.rank() == 0) us = 1e6 * timer.elapsed() / kCalls;
    });
    reps.push_back(us);
  }
  return median(reps);
}

/// An empty parallel region on a 4-thread pool, microseconds per region.
double probe_pool_region_us() {
  constexpr int kRegions = 2000;
  par::ThreadPool pool(kMaxThreads);
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const Timer timer;
    for (int i = 0; i < kRegions; ++i) pool.run([](int) {});
    reps.push_back(1e6 * timer.elapsed() / kRegions);
  }
  return median(reps);
}

struct Op2Layer {
  double kernel_s = 0, bytes = 0, loop_calls = 0, flux_ns_per_edge = 0;
  double mesh_s = 0, coarsen_s = 0, partition_s = 0;
};

/// The op2 layer, measured from outside: MG-CFD's Vec lane on its n=128
/// deck (a 128x128x64 hex mesh plus the coarse level, 3 multigrid cycles,
/// 1 thread) with the run's seed, checked against the Serial lane, and
/// MG-CFD's set-up calls with the same n and seed, as mgcfd::run makes
/// them.
Op2Layer probe_op2(std::uint64_t seed, Tally& tally) {
  apps::Options o;
  o.n = 128;
  o.iterations = 3;
  o.seed = seed;
  Op2Layer out;
  const double ref = apps::mgcfd::run(o).checksum;  // exec_mode 0: Serial
  o.exec_mode = 1;
  apps::Result r;
  if (tally.run("mgcfd-vec solve",
                [&] { return apps::mgcfd::run(o); },
                ref, r)) {
    // "summary" and "checksum" run outside the timed cycles.
    for (const LoopRecord* rec : r.instr.loops_in_order()) {
      if (rec->name == "summary" || rec->name == "checksum") continue;
      out.kernel_s += rec->host_seconds;
      out.bytes += static_cast<double>(rec->bytes);
      out.loop_calls += static_cast<double>(rec->calls);
      if (rec->name == "compute_flux" && rec->points > 0)
        out.flux_ns_per_edge = 1e9 * rec->host_seconds / static_cast<double>(rec->points);
    }
  }

  const idx_t ni = o.n, nj = o.n, nk = std::max<idx_t>(o.n / 2, 2);
  op2::HexMesh mesh;
  {
    const Timer timer;
    mesh = op2::make_hex_mesh(ni, nj, nk, seed);
    out.mesh_s = timer.elapsed();
  }
  {
    const Timer timer;
    const auto perm = op2::hex_permutation(ni * nj * nk, seed);
    const op2::MgLevel lvl = op2::coarsen_hex(ni, nj, nk, perm, seed ^ 0x9e3779b9);
    out.coarsen_s = timer.elapsed();
  }
  {
    const Timer timer;
    const op2::Partition p =
        op2::rcb_partition(mesh.cell_cx, mesh.cell_cy, mesh.cell_cz, 8);
    out.partition_s = timer.elapsed();
    BWLAB_REQUIRE(static_cast<idx_t>(p.part.size()) == mesh.ncells,
                  "partition covers " << p.part.size() << " of "
                                      << mesh.ncells << " cells");
  }
  return out;
}

// --- Host roof probe --------------------------------------------------------

/// host.triad_gbs: BabelStream triad through `micro::BabelStream`, over
/// arrays of 4x the L3 size the host reports (`sysconf`, the figure lscpu
/// prints). The repetitions are spread over the timed loop, one after
/// each pair of solves, and the roof is their median, just as
/// apps.solve_s is the median of the solves. Numerator and denominator of
/// apps.roof_frac thus see the same minutes of other tenants' memory
/// traffic on a shared host; a roof taken at another moment, or a best
/// repetition set against a median solve, moves apps.roof_frac with that
/// traffic.
class TriadRoof {
 public:
  TriadRoof()
      : l3_bytes_(host_l3_bytes()),
        n_(4 * l3_bytes_ / static_cast<idx_t>(sizeof(double))),
        pool_(kMaxThreads),
        stream_(n_, pool_) {
    stream_.triad();  // warm-up: a = 0.2 + 0.4 * 0.0
  }

  /// Times `reps` more repetitions.
  void measure(int reps) {
    for (int i = 0; i < reps; ++i) {
      const Timer timer;
      stream_.triad();
      secs_.push_back(timer.elapsed());
    }
  }

  double gbs() {
    BWLAB_REQUIRE(stream_.dot() > 0, "triad arrays hold no data");
    return 3.0 * array_bytes() / median(secs_) / 1e9;
  }
  double array_bytes() const { return static_cast<double>(n_) * sizeof(double); }
  double l3_bytes() const { return static_cast<double>(l3_bytes_); }
  std::size_t reps() const { return secs_.size(); }

 private:
  static idx_t host_l3_bytes() {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    return l3 > 0 ? l3 : idx_t{32} << 20;
  }

  idx_t l3_bytes_;
  idx_t n_;
  par::ThreadPool pool_;
  micro::BabelStream stream_;
  std::vector<double> secs_;
};

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics,
                  std::size_t samples) {
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  std::fprintf(stderr, "  %zu timed solves; %d attempted, %d failed, "
                       "fail_frac %.4g\n",
               samples, t.attempted, t.failed,
               static_cast<double>(t.failed) / t.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              t.failed == 0 ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- Modes ------------------------------------------------------------------

int cmd_reference(const Cli& cli) {
  const apps::Result r = apps::clover2d::run(reference_options(make_workload(cli)));
  std::printf("{\"checksum\": %.17g}\n", r.checksum);
  return 0;
}

int cmd_solve(const Cli& cli) {
  // Every array of a solve gets fresh pages from mmap, as in a process
  // that solves once. By default glibc raises the mmap threshold after the
  // first large free, and the SimMPI ranks' arrays then come now from
  // fresh pages, now from memory a previous solve left in a rank thread's
  // arena, which made the set-up time of clover2d-mpi swing by 1.5x.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Runner r;
  r.opt = make_workload(cli);
  r.ref_checksum = cli.get_double("ref-checksum", 0);
  r.tally.corrupt = cli.has("corrupt-checksum");
  const double seconds = cli.get_double("seconds", 10);
  const bool traced = cli.get_int("trace", 0) != 0;

  // One verified warm-up solve lets the allocator and the page tables
  // settle. The peak resident set is read after it, so it is the peak of
  // one solve rather than of allocator growth over however many solves
  // fit in the run, and before the triad arrays are allocated.
  r.solve();
  const double rss_mb = peak_rss_mb();
  // Untraced solves give the end-to-end metrics and the instrumentation-
  // derived layers; in an untraced run each is followed by a set-up-only
  // run. A traced run instead alternates them with traced solves, so both
  // halves of trace.overhead_frac see the same machine state, and with
  // repetitions of the host roof, which only the per-layer metrics use.
  // Only solves that passed the correctness gate enter the medians.
  std::optional<TriadRoof> roof;
  if (traced) {
    roof.emplace();
    roof->measure(kMinSamples);
  }
  std::vector<Sample> samples, traced_samples;
  std::vector<TraceLayers> layers;
  std::vector<double> setup_cpu;
  std::uint64_t dropped = 0;
  closed_loop(seconds, [&] {
    if (Sample s = r.solve(); s.ok) samples.push_back(std::move(s));
    if (!traced) {
      setup_cpu.push_back(r.setup_cpu_s());
      return;
    }
    TraceLayers l;
    if (Sample s = r.traced_solve(l, dropped); s.ok) {
      traced_samples.push_back(std::move(s));
      layers.push_back(l);
    }
    roof->measure(1);
  });
  const auto solve_time = [](const Sample& s) { return s.solve_s(); };
  const auto cpu_time = [](const Sample& s) { return s.cpu_s; };
  const auto setup_time = [](const Sample& s) { return s.setup_s(); };
  const auto print_samples = [&](const char* name, auto f) {
    std::fprintf(stderr, "  %-12s samples:", name);
    for (const Sample& s : samples) std::fprintf(stderr, " %.4f", f(s));
    std::fprintf(stderr, "\n");
  };
  print_samples("apps.solve_s", solve_time);
  print_samples("run_cpu_s", cpu_time);
  print_samples("apps.setup_s", setup_time);
  if (samples.empty() || (traced && traced_samples.empty())) {
    print_result(r.tally, {}, 0);  // no verified solve, so no figures
    return 0;
  }
  if (!traced) {
    std::fprintf(stderr, "  %-12s samples:", "setup_s");
    for (const double c : setup_cpu) std::fprintf(stderr, " %.4f", c);
    std::fprintf(stderr, "\n");
    print_result(r.tally,
                 {{"run_cpu_s", median_of(samples, cpu_time), "s"},
                  {"setup_s", median(setup_cpu), "s"},
                  {"peak_rss_mb", rss_mb, "MB"}},
                 samples.size());
    return 0;
  }

  const double triad_gbs = roof->gbs();
  const double triad_array_mb = roof->array_bytes() / 1048576.0;
  const double l3_mb = roof->l3_bytes() / 1048576.0;
  std::fprintf(stderr, "  triad %.2f GB/s over %.0f MiB arrays (L3 %.0f MiB), "
                       "median of %zu\n",
               triad_gbs, triad_array_mb, l3_mb, roof->reps());
  roof.reset();  // frees the triad arrays before the probes allocate theirs
  const double solve_s = median_of(samples, solve_time);
  const double bytes = useful_bytes(samples.front().result.instr, r.opt.ranks);

  const std::string trace_file = cli.get("trace-file", "");
  if (!trace_file.empty()) trace::write_chrome_json_file(trace_file);
  trace::reset();
  auto layer_median = [&](double TraceLayers::*field) {
    std::vector<double> x;
    for (const TraceLayers& l : layers) x.push_back(l.*field);
    return median(x);
  };

  // One solve with exact byte counting on.
  core::DataMoveProfiler::enable();
  const Sample dm = r.solve();
  core::DataMoveProfiler::disable();
  const core::DatMoveReport dmr = core::DataMoveProfiler::analyze(dm.result.instr);
  // The budget the tiled solve sized its tiles against. An eager solve
  // has none; it gets the budget of a context with the same team.
  const double tile_budget = dm.result.instr.tiling().cache_budget_bytes > 0
                                 ? dm.result.instr.tiling().cache_budget_bytes
                                 : ops::Context(r.opt.threads).tile_cache_bytes();

  // Exact counts from the instrumentation of the last untraced solve.
  const Sample& last = samples.back();
  const apps::Result& lr = last.result;
  count_t loop_calls = 0, halo_msgs = 0, halo_bytes = 0;
  for (const LoopRecord* rec : lr.instr.loops_in_order()) loop_calls += rec->calls;
  for (const ExchangeRecord* ex : lr.instr.exchanges()) {
    halo_msgs += ex->messages;
    halo_bytes += ex->bytes;
  }
  count_t par_msgs = 0, par_bytes = 0;
  for (const par::RankStats& rs : lr.rank_stats) {
    par_msgs += rs.messages_sent;
    par_bytes += rs.payload_bytes_sent;
  }
  const auto kernel_time = [](const Sample& s) {
    return s.result.instr.total_loop_seconds();
  };
  const double kernel_s = median_of(samples, kernel_time);

  // Outside-in probes. Ring and allreduce run where the workload sends
  // messages, the pool probe where it dispatches tiles; the op2 probes always.
  const double ring_us =
      halo_msgs > 0 ? probe_ring_us(static_cast<std::size_t>(halo_bytes / halo_msgs)) : 0;
  const double allreduce_us = halo_msgs > 0 ? probe_allreduce_us() : 0;
  const double pool_region_us = r.opt.tiled ? probe_pool_region_us() : 0;
  const Op2Layer op2l = probe_op2(r.opt.seed, r.tally);

  print_result(
      r.tally,
      {{"apps.solve_s", solve_s, "s"},
       {"apps.roof_frac", bytes / solve_s / (triad_gbs * 1e9), "ratio"},
       {"apps.setup_s", median_of(samples, setup_time), "s"},
       {"ops.kernel_s", kernel_s, "s"},
       {"ops.kernel_gbs", bytes / std::max(r.opt.ranks, 1) / kernel_s / 1e9, "GB/s"},
       {"ops.loop_calls", static_cast<double>(loop_calls), "count"},
       {"ops.tiles", static_cast<double>(lr.instr.tiling().tiles), "count"},
       {"ops.tile_height", static_cast<double>(lr.instr.tiling().tile_height), "rows"},
       {"ops.tile_overhead_s", layer_median(&TraceLayers::tile_self_s), "s"},
       {"ops.chain_exchange_s", layer_median(&TraceLayers::chain_exchange_s), "s"},
       {"ops.halo_s", layer_median(&TraceLayers::halo_self_s), "s"},
       {"ops.halo_msgs", static_cast<double>(halo_msgs), "count"},
       {"ops.halo_bytes", static_cast<double>(halo_bytes), "B"},
       {"op2.kernel_s", op2l.kernel_s, "s"},
       {"op2.kernel_gbs", op2l.kernel_s > 0 ? op2l.bytes / op2l.kernel_s / 1e9 : 0, "GB/s"},
       {"op2.loop_calls", op2l.loop_calls, "count"},
       {"op2.flux_ns_per_edge", op2l.flux_ns_per_edge, "ns"},
       {"op2.mesh_s", op2l.mesh_s, "s"},
       {"op2.coarsen_s", op2l.coarsen_s, "s"},
       {"op2.partition_s", op2l.partition_s, "s"},
       {"par.comm_wait_s", median_of(samples, max_comm_seconds), "s"},
       {"par.comm_wait_imbalance", median_of(samples, comm_imbalance), "ratio"},
       {"par.msgs", static_cast<double>(par_msgs), "count"},
       {"par.bytes", static_cast<double>(par_bytes), "B"},
       {"par.comm_self_s", layer_median(&TraceLayers::comm_self_s), "s"},
       {"par.ring_us", ring_us, "us"},
       {"par.allreduce_us", allreduce_us, "us"},
       {"par.pool_regions", static_cast<double>(last.pool_regions), "count"},
       {"par.pool_region_us", pool_region_us, "us"},
       {"apps.outside_kernel_s",
        median_of(samples, [&](const Sample& s) {
          return s.solve_s() - kernel_time(s) - s.result.comm_seconds;
        }),
        "s"},
       {"trace.overhead_frac", median_of(traced_samples, solve_time) / solve_s - 1, "ratio"},
       {"trace.dropped_events", static_cast<double>(dropped), "count"},
       {"datmove.counted_bytes", static_cast<double>(dmr.total_bytes), "B"},
       {"datmove.spill_bytes",
        static_cast<double>(dm.result.instr.reuse().est_spill_bytes(tile_budget)), "B"},
       {"host.triad_gbs", triad_gbs, "GB/s"},
       {"host.triad_array_mb", triad_array_mb, "MB"},
       {"host.l3_mb", l3_mb, "MB"}},
      samples.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    const std::string mode =
        cli.positional().empty() ? "" : cli.positional().front();
    if (mode == "reference") return cmd_reference(cli);
    if (mode == "solve") return cmd_solve(cli);
    std::fprintf(stderr, "usage: hostbench reference | solve [options]\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
  }
  return 1;
}
