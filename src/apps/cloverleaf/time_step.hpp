// CloverLeaf's CFL time-step bound, shared by the 2-D and 3-D solvers.
#pragma once

#include <algorithm>

namespace bwlab::apps::cloverleaf {

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

}  // namespace bwlab::apps::cloverleaf
