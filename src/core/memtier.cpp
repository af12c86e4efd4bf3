#include "core/memtier.hpp"

#include <map>

#include "common/error.hpp"
#include "common/memtier.hpp"
#include "sim/bandwidth.hpp"

namespace bwlab::core {

MemTierSection build_memtier_section(const Instrumentation& instr,
                                     const sim::MachineModel& m,
                                     const std::string& place) {
  MemTierSection s;
  s.machine_id = m.id;
  s.mode = to_string(m.memory_mode);
  s.snc = m.snc;
  s.place = place;

  // The dat -> tier map: the live allocator's decisions, and the fastest
  // tier for any dat it did not place.
  std::map<std::string, std::string> dat_tier;
  if (memtier::enabled())
    for (const memtier::Placement& p : memtier::placements())
      dat_tier[p.dat] = p.tier;

  s.tiers.reserve(m.tiers.size());
  for (const sim::MemoryTier& t : m.tiers)
    s.tiers.push_back({t.name, t.capacity_bytes, t.bw_bytes_per_s, 0, 0});
  if (s.tiers.empty()) s.tiers.push_back({"", 0, 0, 0, 0});
  auto tier_at = [&](const std::string& name) -> MemTierTier& {
    for (MemTierTier& t : s.tiers)
      if (t.name == name) return t;
    return s.tiers.front();
  };

  for (const DatFootprint* f : instr.dat_footprints()) {
    const auto it = dat_tier.find(f->dat);
    const std::string tier =
        it == dat_tier.end() ? s.tiers.front().name : it->second;
    dat_tier[f->dat] = tier;
    MemTierTier& t = tier_at(tier);
    t.resident_bytes += f->alloc_bytes;
    t.traffic_bytes += f->bytes_moved;
    s.placements.push_back({f->dat, tier, f->alloc_bytes});
    s.working_set_bytes += f->alloc_bytes;
  }
  // Without bwmem counting there are no footprints; the allocator's own
  // records still describe where every dat went (traffic stays 0).
  if (memtier::enabled())
    for (const memtier::Placement& p : memtier::placements()) {
      bool seen = false;
      for (const MemTierPlacement& q : s.placements)
        seen = seen || q.dat == p.dat;
      if (seen) continue;
      MemTierTier& t = tier_at(p.tier);
      t.resident_bytes += p.bytes;
      s.placements.push_back({p.dat, p.tier, p.bytes});
      s.working_set_bytes += p.bytes;
    }

  s.hbm_capacity_bytes = m.sockets * m.hbm_capacity_per_socket;
  if (s.working_set_bytes > 0) {
    const sim::BandwidthModel bwm(m);
    const auto ws = static_cast<double>(s.working_set_bytes);
    s.hbm_hit_fraction = bwm.hbm_service_fraction(ws, sim::Scope::Node);
    s.tiered_bw_bytes_per_s = bwm.tiered_mem_bw(ws, sim::Scope::Node);
  }
  if (s.hbm_capacity_bytes > 0)
    s.est_spill_bytes = instr.reuse().est_spill_bytes(s.hbm_capacity_bytes);

  s.loop_roofs = tier_roof_join(instr, m, dat_tier);
  return s;
}

void install_memtier_allocator(const sim::MachineModel& m,
                               const std::string& place) {
  memtier::Config cfg;
  cfg.policy = place;
  cfg.numa_domains = m.total_numa();
  for (const sim::MemoryTier& t : m.tiers)
    cfg.tiers.push_back({t.name, t.capacity_bytes, t.bw_bytes_per_s});
  memtier::install(std::move(cfg));
}

// --- Presentation -----------------------------------------------------------

Table memtier_table(const MemTierSection& s) {
  Table t("Memory-tier placement — " + s.machine_id + ", mode " + s.mode +
          (s.snc ? ", SNC" : "") + ", place " + s.place);
  t.set_columns({{"dat", 0}, {"alloc MB", 3}, {"tier", 0}});
  for (const MemTierPlacement& p : s.placements)
    t.add_row({p.dat, static_cast<double>(p.alloc_bytes) / 1e6, p.tier});
  t.add_separator();
  for (const MemTierTier& tt : s.tiers)
    t.add_row({std::string("tier ") + (tt.name.empty() ? "-" : tt.name),
               static_cast<double>(tt.resident_bytes) / 1e6,
               std::to_string(tt.traffic_bytes / 1000000) + " MB moved"});
  return t;
}

Table memtier_roof_table(const MemTierSection& s) {
  Table t("Per-tier loop roofs (binding tier bounds the loop)");
  t.set_columns({{"loop", 0},
                 {"measured s", 5},
                 {"tier roof s", 5},
                 {"binding tier", 0}});
  for (const LoopTierRoofs& l : s.loop_roofs)
    t.add_row({l.loop, l.measured_s, l.roof_seconds, l.binding_tier});
  return t;
}

}  // namespace bwlab::core
