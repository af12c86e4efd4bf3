// memtier: the tier-aware dat allocator (the executable half of the
// memory-mode model). ops::Dat and op2::Dat call on_alloc() from their
// constructors; when a placement config is installed the allocator
// assigns each dat to a memory tier (HBM/DDR) by policy. It is the only
// dat -> tier decision in the repo: its decisions are what the run
// report's "memtier" section (core/memtier.hpp) reports per dat and per
// tier, and counted bytes never depend on them. Like every always-on
// layer the hook is compiled in and gated: the disabled fast path is one
// relaxed load plus a branch (asserted < 5 ns by bench/gb_layer_overhead).
//
// This lives in common (not core/sim) so the ops/op2 runtimes can call
// the hook without a dependency cycle; core adapts sim::MachineModel
// tiers into the Config.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/gate.hpp"

namespace bwlab::memtier {

/// One placement target, fastest first (mirrors sim::MemoryTier without
/// pulling sim into the common layer). capacity_bytes == 0 = unbounded.
struct Tier {
  std::string name;
  double capacity_bytes = 0;
  double bw_bytes_per_s = 0;
};

/// A recorded placement decision, in allocation order. Decisions are
/// keyed by dat name and the FIRST allocation wins: per-rank replicas of
/// the same logical dat reuse the decision instead of debiting tier
/// capacity once per rank, and re-runs with the same config reproduce
/// the same tier map (the determinism property test_memtier locks in).
struct Placement {
  std::string dat;          ///< dat name
  std::string tier;         ///< tier the dat was assigned to
  std::uint64_t bytes = 0;  ///< bytes of the deciding (first) allocation
};

/// Allocator configuration (install() activates it).
struct Config {
  /// Placement policy (--place):
  ///   auto        pack the fastest tier to its node capacity in
  ///               allocation order; overflow moves to the next tier
  ///   hbm | ddr   pin every dat to the named tier
  ///   firsttouch  OS first-touch: pages land in the allocating NUMA
  ///               domain's tier slice, so packing is bounded by
  ///               capacity/numa_domains per tier (SNC-4 quarters it)
  std::string policy = "auto";
  /// Tiers, fastest first (sim::MachineModel::tiers adapted by core).
  std::vector<Tier> tiers;
  /// Total NUMA domains (sockets x numa_per_socket); the firsttouch
  /// policy divides tier capacity by this.
  int numa_domains = 1;
};

/// Validates and installs `cfg`, clears prior decisions, opens the gate.
/// Throws bwlab::Error for an unknown policy or a pin to an absent tier.
void install(Config cfg);
/// Closes the gate and drops the config and all recorded decisions.
void uninstall();

namespace detail {
extern Gate g_on;
void record(const std::string& name, std::uint64_t bytes);
}  // namespace detail

/// True while a placement config is installed.
inline bool enabled() { return detail::g_on.enabled(); }

/// Allocation hook called by the dat constructors. Disabled fast path:
/// one relaxed load + branch.
inline void on_alloc(const std::string& name, std::uint64_t bytes) {
  if (!detail::g_on.enabled()) return;
  detail::record(name, bytes);
}

/// Snapshot of the decisions so far, in allocation order.
std::vector<Placement> placements();

}  // namespace bwlab::memtier
