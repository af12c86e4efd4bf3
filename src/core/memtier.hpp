// The "memtier" run-report section: where the run's data lived (the
// memtier allocator's tier map), how the machine's memory mode priced it
// (hit fraction, tiered bandwidth, spill estimate), and the bwmem x
// roofline join split per tier (core/attribution.cpp tier_roof_join).
// Schema-versioned and stored-value-only like every other section, so
// write -> parse -> write is bitwise.
#pragma once

#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/table.hpp"
#include "core/attribution.hpp"
#include "sim/machine.hpp"

namespace bwlab::core {

inline constexpr int kMemTierSchemaVersion = 1;

/// One tier's capacity/bandwidth spec plus what the run put on it.
struct MemTierTier {
  std::string name;
  double capacity_bytes = 0;
  double bw_bytes_per_s = 0;
  count_t resident_bytes = 0;  ///< sum of alloc bytes of dats placed here
  count_t traffic_bytes = 0;   ///< counted bytes moved by those dats
};
template <class Io>
void fields(Io& io, MemTierTier& t) {
  io("name", t.name);
  io("capacity_bytes", t.capacity_bytes);
  io("bw_bytes_per_s", t.bw_bytes_per_s);
  io("resident_bytes", t.resident_bytes);
  io("traffic_bytes", t.traffic_bytes);
}

/// One dat's placement decision.
struct MemTierPlacement {
  std::string dat;
  std::string tier;
  count_t alloc_bytes = 0;
};
template <class Io>
void fields(Io& io, MemTierPlacement& p) {
  io("dat", p.dat);
  io("tier", p.tier);
  io("alloc_bytes", p.alloc_bytes);
}

/// The "memtier" section (RunReport::memtier).
struct MemTierSection {
  int schema_version = kMemTierSchemaVersion;
  std::string machine_id;  ///< machine (or variant) the run modeled
  std::string mode;        ///< "hbmonly" | "flat" | "cache"
  bool snc = false;        ///< sub-NUMA clustering partitions the tiers
  std::string place;       ///< placement policy (--place)
  count_t working_set_bytes = 0;  ///< sum of dat allocation footprints
  double hbm_capacity_bytes = 0;  ///< node HBM capacity (0 when absent)
  /// BandwidthModel::hbm_service_fraction at the run's working set: the
  /// flat-mode packing fraction or the cache-mode hit curve.
  double hbm_hit_fraction = 0;
  /// Reuse-histogram bytes whose stack distance exceeds the HBM capacity
  /// — the traffic a transparent HBM cache of that size cannot serve.
  count_t est_spill_bytes = 0;
  /// Mode-aware DRAM bandwidth at the run's working set (node scope).
  double tiered_bw_bytes_per_s = 0;
  std::vector<MemTierTier> tiers;             ///< fastest first
  std::vector<MemTierPlacement> placements;   ///< allocation order
  std::vector<LoopTierRoofs> loop_roofs;      ///< first-execution order
};
template <class Io>
void fields(Io& io, MemTierSection& s) {
  io("schema_version", s.schema_version);
  io("machine", s.machine_id);
  io("mode", s.mode);
  io("snc", s.snc);
  io("place", s.place);
  io("working_set_bytes", s.working_set_bytes);
  io("hbm_capacity_bytes", s.hbm_capacity_bytes);
  io("hbm_hit_fraction", s.hbm_hit_fraction);
  io("est_spill_bytes", s.est_spill_bytes);
  io("tiered_bw_bytes_per_s", s.tiered_bw_bytes_per_s);
  io("tiers", s.tiers);
  io("placements", s.placements);
  io("loop_roofs", s.loop_roofs);
}

/// Builds the section from the run's instrumentation and machine model.
/// Placement decisions come from the live memtier allocator, the repo's
/// only dat -> tier decision; a dat it did not place (or every dat, when
/// it is not installed) is attributed to the fastest tier.
MemTierSection build_memtier_section(const Instrumentation& instr,
                                     const sim::MachineModel& m,
                                     const std::string& place);

/// Adapts `m`'s tiers into a memtier::Config (node capacities, SNC-aware
/// numa_domains) and installs the allocator with policy `place`.
void install_memtier_allocator(const sim::MachineModel& m,
                               const std::string& place);

/// Console tables: tier placement summary and the per-tier loop roofs.
Table memtier_table(const MemTierSection& s);
Table memtier_roof_table(const MemTierSection& s);

}  // namespace bwlab::core
