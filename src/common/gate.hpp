// The "compiled in, runtime-disabled" gate shared by every always-on
// observability/robustness layer (bwtrace, bwmem, bwfault, bwresil,
// bwlive). Each layer's hot-path hook is guarded by one of these: the
// disabled fast path is a single relaxed atomic load plus one branch
// (asserted < 5 ns by bench/gb_layer_overhead), so the hooks can
// stay in production builds. Enable/disable use release stores so a gate
// flipped after installing a policy publishes that policy to the rank
// threads that observe the gate.
#pragma once

#include <atomic>

namespace bwlab {

class Gate {
 public:
  constexpr Gate() = default;

  /// The hot-path check: one relaxed load + branch.
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  void enable() { on_.store(true, std::memory_order_release); }
  void disable() { on_.store(false, std::memory_order_release); }
  void set(bool on) { on_.store(on, std::memory_order_release); }

 private:
  std::atomic<bool> on_{false};
};

}  // namespace bwlab
