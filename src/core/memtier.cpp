#include "core/memtier.hpp"

#include <map>
#include <ostream>

#include "common/error.hpp"
#include "common/memtier.hpp"
#include "sim/bandwidth.hpp"

namespace bwlab::core {

MemTierSection build_memtier_section(const Instrumentation& instr,
                                     const sim::MachineModel& m,
                                     const std::string& place) {
  MemTierSection s;
  s.present = true;
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

// --- JSON out ---------------------------------------------------------------

void write_json(std::ostream& os, const MemTierSection& s, int indent) {
  const std::string i0(static_cast<std::size_t>(indent), ' ');
  const std::string in = i0 + "  ";
  const std::string in2 = in + "  ";
  os << "{\n" << in << "\"schema_version\": " << s.schema_version << ",\n"
     << in << "\"machine\": \"";
  json::write_escaped(os, s.machine_id);
  os << "\",\n" << in << "\"mode\": \"";
  json::write_escaped(os, s.mode);
  os << "\",\n" << in << "\"snc\": " << (s.snc ? "true" : "false") << ",\n"
     << in << "\"place\": \"";
  json::write_escaped(os, s.place);
  os << "\",\n" << in << "\"working_set_bytes\": " << s.working_set_bytes
     << ",\n" << in << "\"hbm_capacity_bytes\": " << s.hbm_capacity_bytes
     << ",\n" << in << "\"hbm_hit_fraction\": " << s.hbm_hit_fraction << ",\n"
     << in << "\"est_spill_bytes\": " << s.est_spill_bytes << ",\n"
     << in << "\"tiered_bw_bytes_per_s\": " << s.tiered_bw_bytes_per_s
     << ",\n" << in << "\"tiers\": [";
  bool first = true;
  for (const MemTierTier& t : s.tiers) {
    os << (first ? "\n" : ",\n") << in2 << "{\"name\": \"";
    first = false;
    json::write_escaped(os, t.name);
    os << "\", \"capacity_bytes\": " << t.capacity_bytes
       << ", \"bw_bytes_per_s\": " << t.bw_bytes_per_s
       << ", \"resident_bytes\": " << t.resident_bytes
       << ", \"traffic_bytes\": " << t.traffic_bytes << "}";
  }
  os << (first ? "]" : "\n" + in + "]") << ",\n" << in << "\"placements\": [";
  first = true;
  for (const MemTierPlacement& p : s.placements) {
    os << (first ? "\n" : ",\n") << in2 << "{\"dat\": \"";
    first = false;
    json::write_escaped(os, p.dat);
    os << "\", \"tier\": \"";
    json::write_escaped(os, p.tier);
    os << "\", \"alloc_bytes\": " << p.alloc_bytes << "}";
  }
  os << (first ? "]" : "\n" + in + "]") << ",\n" << in << "\"loop_roofs\": [";
  first = true;
  for (const LoopTierRoofs& l : s.loop_roofs) {
    os << (first ? "\n" : ",\n") << in2 << "{\"loop\": \"";
    first = false;
    json::write_escaped(os, l.loop);
    os << "\", \"measured_s\": " << l.measured_s << ", \"binding_tier\": \"";
    json::write_escaped(os, l.binding_tier);
    os << "\", \"roof_seconds\": " << l.roof_seconds << ", \"tiers\": [";
    bool tfirst = true;
    for (const TierRoofEntry& e : l.tiers) {
      os << (tfirst ? "" : ", ") << "{\"tier\": \"";
      tfirst = false;
      json::write_escaped(os, e.tier);
      os << "\", \"bytes\": " << e.bytes
         << ", \"roof_seconds\": " << e.roof_seconds << "}";
    }
    os << "]}";
  }
  os << (first ? "]" : "\n" + in + "]") << "\n" << i0 << "}";
}

// --- JSON in ----------------------------------------------------------------

MemTierSection memtier_from_json(const json::Value& v) {
  using json::bool_field;
  using json::count_field;
  using json::num_field;
  using json::str_field;
  BWLAB_REQUIRE(v.kind == json::Value::Kind::Obj,
                "memtier JSON must be an object");
  MemTierSection s;
  s.present = true;
  s.schema_version = static_cast<int>(num_field(v, "schema_version"));
  s.machine_id = str_field(v, "machine");
  s.mode = str_field(v, "mode");
  s.snc = bool_field(v, "snc");
  s.place = str_field(v, "place");
  s.working_set_bytes = count_field(v, "working_set_bytes");
  s.hbm_capacity_bytes = num_field(v, "hbm_capacity_bytes");
  s.hbm_hit_fraction = num_field(v, "hbm_hit_fraction");
  s.est_spill_bytes = count_field(v, "est_spill_bytes");
  s.tiered_bw_bytes_per_s = num_field(v, "tiered_bw_bytes_per_s");
  s.tiers.clear();
  if (const json::Value* a = v.find("tiers"))
    for (const json::Value& e : a->arr) {
      MemTierTier t;
      t.name = str_field(e, "name");
      t.capacity_bytes = num_field(e, "capacity_bytes");
      t.bw_bytes_per_s = num_field(e, "bw_bytes_per_s");
      t.resident_bytes = count_field(e, "resident_bytes");
      t.traffic_bytes = count_field(e, "traffic_bytes");
      s.tiers.push_back(std::move(t));
    }
  if (const json::Value* a = v.find("placements"))
    for (const json::Value& e : a->arr) {
      MemTierPlacement p;
      p.dat = str_field(e, "dat");
      p.tier = str_field(e, "tier");
      p.alloc_bytes = count_field(e, "alloc_bytes");
      s.placements.push_back(std::move(p));
    }
  if (const json::Value* a = v.find("loop_roofs"))
    for (const json::Value& e : a->arr) {
      LoopTierRoofs l;
      l.loop = str_field(e, "loop");
      l.measured_s = num_field(e, "measured_s");
      l.binding_tier = str_field(e, "binding_tier");
      l.roof_seconds = num_field(e, "roof_seconds");
      if (const json::Value* ta = e.find("tiers"))
        for (const json::Value& te : ta->arr) {
          TierRoofEntry entry;
          entry.tier = str_field(te, "tier");
          entry.bytes = count_field(te, "bytes");
          entry.roof_seconds = num_field(te, "roof_seconds");
          l.tiers.push_back(std::move(entry));
        }
      s.loop_roofs.push_back(std::move(l));
    }
  return s;
}

}  // namespace bwlab::core
