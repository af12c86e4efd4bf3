// Shared application-facing types: run options and results. Every
// application exposes `Result run(const Options&)` executing the real
// numerics on the host (optionally distributed over SimMPI ranks and/or a
// thread team), returning physics metrics for validation and the
// instrumentation records the profile extractor consumes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/instrument.hpp"
#include "common/types.hpp"
#include "par/simmpi.hpp"

namespace bwlab::apps {

struct Options {
  idx_t n = 32;         ///< linear problem size (grid extent / mesh scale)
  int iterations = 5;   ///< time steps / solver iterations
  int ranks = 1;        ///< SimMPI ranks (1 = no message passing)
  int threads = 1;      ///< thread-team size within a rank
  bool tiled = false;   ///< structured apps: run through the tiling executor
  idx_t tile_size = 0;  ///< tile height (0 = auto-tune from cache budget)
  /// Cache budget (bytes) for the tile-height auto-tuner; 0 keeps the
  /// context's host default. run_app fills it from the machine model when
  /// `--tile=auto` is given (core::tile_cache_budget_bytes).
  double tile_cache_bytes = 0;
  int exec_mode = 0;    ///< unstructured apps: 0 serial, 1 vec, 2 colored
  int scenario = 0;     ///< app-specific test scenario (0 = default)
  std::uint64_t seed = 12345;  ///< synthetic input seed

  // --- Robustness (bwfault) --------------------------------------------------
  /// Unread: SimMPI diagnoses a deadlock exactly, with no grace period.
  /// Kept only because hostbench/hostbench.cpp still assigns it.
  double watchdog_ms = 1000.0;
  /// Checkpoint the field state every K steps (0 = off) in the apps that
  /// recover from crashes (CloverLeaf 2D/3D, miniWeather): an injected
  /// rank crash rolls every rank back to the last checkpoint, the failed
  /// rank from its buddy's mirror (apps/resilient_loop.hpp).
  int checkpoint_every = 0;
  /// Post-loop NaN/Inf field guard: 0 off, 1 report, 2 abort.
  int nan_guard = 0;
};

/// Options::exec_mode from its command-line spelling
/// (--exec=serial|vec|colored); throws bwlab::Error for anything else.
inline int exec_mode_from_name(const std::string& name) {
  if (name == "serial") return 0;
  if (name == "vec") return 1;
  BWLAB_REQUIRE(name == "colored",
                "unknown --exec '" << name << "' (serial|vec|colored)");
  return 2;
}

/// Applies process-global robustness knobs (currently the NaN/Inf field
/// guard policy). Called at the top of every app's run().
inline void apply_robustness(const Options& opt) {
  fault::set_nan_policy(opt.nan_guard >= 2   ? fault::NanPolicy::Abort
                        : opt.nan_guard == 1 ? fault::NanPolicy::Report
                                             : fault::NanPolicy::Off);
}

/// Standard distributed launch: run_ranks on the app's rank count.
template <class Fn>
std::vector<par::RankStats> run_distributed(const Options& opt, Fn&& fn) {
  return par::run_ranks(opt.ranks, std::forward<Fn>(fn));
}

struct Result {
  /// A scalar that any two correct runs must reproduce (used to compare
  /// serial / threaded / distributed / tiled executions).
  double checksum = 0;
  /// Named physics metrics (mass, energy, max velocity, ...).
  std::map<std::string, double> metrics;
  /// Rank-0 loop/exchange records (profile extraction, Figure 8 on host).
  Instrumentation instr;
  seconds_t elapsed = 0;
  seconds_t comm_seconds = 0;  ///< rank-0 blocked time in SimMPI
  /// Per-rank communication stats from run_ranks (empty for ranks == 1):
  /// blocked seconds, messages and payload bytes sent (Figure 7 inputs).
  std::vector<par::RankStats> rank_stats;

  double metric(const std::string& key) const {
    const auto it = metrics.find(key);
    return it == metrics.end() ? 0.0 : it->second;
  }
};

}  // namespace bwlab::apps
