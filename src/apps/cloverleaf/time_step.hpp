// CloverLeaf's time step, shared by the 2-D and 3-D solvers: the sound
// speed arithmetic of ideal_gas and calc_dt, the CFL time-step bound, and
// the order in which a run's steps execute their loops.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "ops/chain.hpp"

namespace bwlab::apps::cloverleaf {

/// A cell's squared sound speed γp/ρ, which ideal_gas stores in
/// `soundspeed`; calc_dt takes the root (signal_speed), so a step roots
/// each cell once and ideal_gas's row vectorizes in a build that keeps
/// errno. A negative quotient, whose root is NaN, is stored as NaN, so the
/// stored value is non-finite exactly when its root is and the NaN guard
/// flags the same ideal_gas cells a stored root would. -0 stays -0, whose
/// root is -0.
inline double sound_speed_sq(double gamma, double p, double d) {
  const double c2 = gamma * p / d;
  return c2 < 0.0 ? std::numeric_limits<double>::quiet_NaN() : c2;
}

/// A cell's signal speed c + |u| + |v| from its stored c² (calc_dt's row).
/// The root is off the row's loop-carried max.
inline double signal_speed(double c2, double u, double v) {
  return std::sqrt(c2) + std::abs(u) + std::abs(v);
}

/// The 3-D signal speed c + |u| + |v| + |w|, added in that order.
inline double signal_speed(double c2, double u, double v, double w) {
  return signal_speed(c2, u, v) + std::abs(w);
}

/// Start value of a rank's signal-speed reduction: below every speed.
inline constexpr double kNoSpeed = -1.0;

/// A rank's time-step bound from the largest signal speed `speed_max` of
/// its cells (c + |u| + |v| [+ |w|], reduced with std::max from kNoSpeed):
/// the minimum over its cells of dx / max(speed, 1e-30), never above
/// 1e30, and 1e30 when it owns no cell. One division replaces one per
/// cell, bit for bit: rounded division is monotone in the divisor, so the
/// largest divisor gives the smallest quotient; and std::max skips a NaN
/// speed exactly as std::min skips its NaN quotient. Speeds are >= 0 or
/// NaN, so kNoSpeed is never a speed.
inline double dt_bound(double dx, double speed_max) {
  if (speed_max < 0.0) return 1e30;
  return std::min(1e30, dx / std::max(speed_max, 1e-30));
}

/// Runs a CloverLeaf solver's steps, each as one loop chain: the hydro
/// step, the field summary and then, unless it is the run's last step,
/// the next step's ideal_gas and calc_dt, which read the fields the chain
/// just wrote while its tiles are still in cache. The speed that tail
/// reduces is carried to the next step. Before the first step, and after
/// clear() (a restore or re-init replaced the fields), a prologue chain of
/// ideal_gas and calc_dt computes it instead. Eager runs therefore execute
/// the same loops in the same order as steps that each open with ideal_gas
/// and calc_dt, and the collectives keep their order too: the dt allreduce
/// (finish_dt) opens every step, the summary's closes it.
///
/// `Solver` provides ideal_gas(), calc_dt(double&), finish_dt(double),
/// step(double), field_summary(Summary&) and finish_summary(Summary).
template <class Solver>
class StepChain {
 public:
  using Summary = typename Solver::Summary;

  StepChain(Solver& s, ops::Context& ctx, bool tiled, idx_t tile_height,
            long long iterations)
      : s_(s), ctx_(ctx), tiled_(tiled), tile_height_(tile_height),
        iterations_(iterations) {}

  /// Runs step `it`; returns its global field summary.
  Summary step(long long it) {
    if (!carried_)
      ops::run_chain(ctx_, tiled_, tile_height_, [&] { next_speed(); });
    const double dt = s_.finish_dt(speed_max_);
    carried_ = it + 1 < iterations_;
    Summary part;
    ops::run_chain(ctx_, tiled_, tile_height_, [&] {
      s_.step(dt);
      s_.field_summary(part);
      if (carried_) next_speed();
    });
    return s_.finish_summary(part);
  }

  /// Drops the carried speed: the fields it was reduced from are gone.
  void clear() { carried_ = false; }

 private:
  void next_speed() {
    speed_max_ = kNoSpeed;
    s_.ideal_gas();
    s_.calc_dt(speed_max_);
  }

  Solver& s_;
  ops::Context& ctx_;
  bool tiled_;
  idx_t tile_height_;
  long long iterations_;
  bool carried_ = false;
  double speed_max_ = kNoSpeed;
};

}  // namespace bwlab::apps::cloverleaf
