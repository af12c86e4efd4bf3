#include "core/datmove.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::core {

DatMoveReport DataMoveProfiler::analyze(const Instrumentation& instr) {
  DatMoveReport r;

  for (const DatMoveRecord* d : instr.datmoves()) {
    r.records.push_back(*d);
    r.total_bytes += d->bytes();
  }

  // Per-loop counted vs modeled, in first-execution order; loops the
  // profiler never saw (e.g. executed before enable()) are skipped.
  const std::map<std::string, count_t> counted = instr.counted_bytes_by_loop();
  for (const LoopRecord* l : instr.loops_in_order()) {
    const auto it = counted.find(l->name);
    if (it == counted.end()) continue;
    DatMoveLoopSummary s;
    s.loop = l->name;
    s.counted_bytes = it->second;
    s.modeled_bytes = l->bytes;
    if (s.modeled_bytes > 0)
      s.drift = static_cast<double>(s.counted_bytes) /
                    static_cast<double>(s.modeled_bytes) -
                1.0;
    r.loops.push_back(std::move(s));
  }

  for (const DatFootprint* f : instr.dat_footprints()) {
    r.dats.push_back({f->dat, f->alloc_bytes, f->bytes_moved});
    r.working_set_bytes += f->alloc_bytes;
  }

  // Reuse histogram -> capacity-occupancy curve. Points span the occupied
  // bucket range; served fraction counts reused bytes with distance <=
  // capacity (cold traffic is compulsory and never "fits").
  r.reuse = instr.reuse();
  const count_t total = r.reuse.total_bytes();
  if (total > 0) {
    int first = Histogram::kBuckets, last = -1;
    for (int i = 0; i < Histogram::kBuckets; ++i)
      if (r.reuse.moved_bytes[static_cast<std::size_t>(i)] > 0) {
        first = std::min(first, i);
        last = std::max(last, i);
      }
    count_t cum = 0;
    for (int i = first; i <= last; ++i) {
      cum += r.reuse.moved_bytes[static_cast<std::size_t>(i)];
      OccupancyPoint p;
      p.capacity_bytes = Histogram::bucket_upper_bound(i);
      p.served_fraction =
          static_cast<double>(cum) / static_cast<double>(total);
      r.occupancy.push_back(p);
    }
  }

  for (const ExchangeRecord* e : instr.exchanges()) {
    r.halo_bytes_sent += e->bytes;
    r.halo_bytes_received += e->bytes_received;
  }
  r.chains = instr.chain_moves();
  return r;
}

// --- Presentation -----------------------------------------------------------

Table datmove_table(const DatMoveReport& r) {
  Table t("Data movement per loop — counted vs modeled bytes");
  t.set_columns({{"loop", 0},
                 {"counted MB", 3},
                 {"modeled MB", 3},
                 {"drift %", 2}});
  for (const DatMoveLoopSummary& s : r.loops)
    t.add_row({s.loop, static_cast<double>(s.counted_bytes) / 1e6,
               static_cast<double>(s.modeled_bytes) / 1e6, 100.0 * s.drift});
  t.add_separator();
  t.add_row({std::string("total"), static_cast<double>(r.total_bytes) / 1e6,
             std::monostate{}, std::monostate{}});
  return t;
}

Table datmove_reuse_table(const DatMoveReport& r) {
  Table t("Reuse distance / capacity occupancy (cold bytes: " +
          std::to_string(r.reuse.cold_bytes) + ")");
  t.set_columns({{"capacity <=", 0},
                 {"moved MB", 3},
                 {"served %", 1}});
  std::size_t oi = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const count_t b = r.reuse.moved_bytes[static_cast<std::size_t>(i)];
    if (b == 0) continue;
    double served = 0;
    // The occupancy curve holds the cumulative fraction for this bucket.
    while (oi < r.occupancy.size() &&
           r.occupancy[oi].capacity_bytes < Histogram::bucket_upper_bound(i))
      ++oi;
    if (oi < r.occupancy.size()) served = r.occupancy[oi].served_fraction;
    const double ub = Histogram::bucket_upper_bound(i);
    std::ostringstream cap;
    // Sub-byte buckets only hold distance-0 re-touches of the same dat.
    if (ub < 1.0)
      cap << "0 B";
    else
      cap << ub << " B";
    t.add_row({cap.str(), static_cast<double>(b) / 1e6, 100.0 * served});
  }
  return t;
}

// --- JSON out ---------------------------------------------------------------

void write_json(std::ostream& os, const DatMoveReport& r, int indent) {
  const std::string i0(static_cast<std::size_t>(indent), ' ');
  const std::string in = i0 + "  ";
  const std::string in2 = in + "  ";
  os << "{\n" << in << "\"total_bytes\": " << r.total_bytes << ",\n"
     << in << "\"working_set_bytes\": " << r.working_set_bytes << ",\n"
     << in << "\"halo_bytes_sent\": " << r.halo_bytes_sent << ",\n"
     << in << "\"halo_bytes_received\": " << r.halo_bytes_received << ",\n"
     << in << "\"records\": [";
  bool first = true;
  for (const DatMoveRecord& d : r.records) {
    os << (first ? "\n" : ",\n") << in2 << "{\"loop\": \"";
    first = false;
    json::write_escaped(os, d.loop);
    os << "\", \"dat\": \"";
    json::write_escaped(os, d.dat);
    os << "\", \"executions\": " << d.executions
       << ", \"bytes_read\": " << d.bytes_read
       << ", \"bytes_written\": " << d.bytes_written << "}";
  }
  os << (first ? "]" : "\n" + in + "]") << ",\n" << in << "\"loops\": [";
  first = true;
  for (const DatMoveLoopSummary& s : r.loops) {
    os << (first ? "\n" : ",\n") << in2 << "{\"loop\": \"";
    first = false;
    json::write_escaped(os, s.loop);
    os << "\", \"counted_bytes\": " << s.counted_bytes
       << ", \"modeled_bytes\": " << s.modeled_bytes
       << ", \"drift\": " << s.drift << "}";
  }
  os << (first ? "]" : "\n" + in + "]") << ",\n" << in << "\"dats\": [";
  first = true;
  for (const DatTraffic& d : r.dats) {
    os << (first ? "\n" : ",\n") << in2 << "{\"dat\": \"";
    first = false;
    json::write_escaped(os, d.dat);
    os << "\", \"alloc_bytes\": " << d.alloc_bytes
       << ", \"bytes_moved\": " << d.bytes_moved << "}";
  }
  os << (first ? "]" : "\n" + in + "]") << ",\n" << in
     << "\"reuse\": {\"cold_bytes\": " << r.reuse.cold_bytes
     << ", \"buckets\": [";
  first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    const count_t b = r.reuse.moved_bytes[static_cast<std::size_t>(i)];
    if (b == 0) continue;
    os << (first ? "" : ", ") << "{\"bucket\": " << i
       << ", \"upper_bound\": " << Histogram::bucket_upper_bound(i)
       << ", \"moved_bytes\": " << b << "}";
    first = false;
  }
  os << "]}" << ",\n" << in << "\"occupancy\": [";
  first = true;
  for (const OccupancyPoint& p : r.occupancy) {
    os << (first ? "" : ", ") << "{\"capacity_bytes\": " << p.capacity_bytes
       << ", \"served_fraction\": " << p.served_fraction << "}";
    first = false;
  }
  os << "],\n" << in << "\"chains\": [";
  first = true;
  for (const ChainMoveRecord& c : r.chains) {
    os << (first ? "\n" : ",\n") << in2
       << "{\"working_set_bytes\": " << c.working_set_bytes;
    first = false;
    os << ", \"counted_bytes\": " << c.counted_bytes
       << ", \"tile_height\": " << c.tile_height
       << ", \"loops\": " << c.loops
       << ", \"tiled\": " << (c.tiled ? "true" : "false") << "}";
  }
  os << (first ? "]" : "\n" + in + "]") << "\n" << i0 << "}";
}

// --- JSON in ----------------------------------------------------------------
//
// The value parser lives in common/json.hpp (shared with the full
// run-report reader in core/report.cpp); this side only maps the parsed
// values back onto DatMoveReport.

DatMoveReport datmove_from_json(const json::Value& dm) {
  using json::count_field;
  using json::num_field;
  using json::str_field;
  const json::Value* root = &dm;
  BWLAB_REQUIRE(root->kind == json::Value::Kind::Obj,
                "datmove JSON must be an object");
  BWLAB_REQUIRE(root->find("records") != nullptr,
                "input has no datmove section");

  DatMoveReport r;
  r.total_bytes = count_field(dm, "total_bytes");
  r.working_set_bytes = count_field(dm, "working_set_bytes");
  r.halo_bytes_sent = count_field(dm, "halo_bytes_sent");
  r.halo_bytes_received = count_field(dm, "halo_bytes_received");

  if (const json::Value* a = dm.find("records"))
    for (const json::Value& e : a->arr) {
      DatMoveRecord d;
      d.loop = str_field(e, "loop");
      d.dat = str_field(e, "dat");
      d.executions = count_field(e, "executions");
      d.bytes_read = count_field(e, "bytes_read");
      d.bytes_written = count_field(e, "bytes_written");
      r.records.push_back(std::move(d));
    }
  if (const json::Value* a = dm.find("loops"))
    for (const json::Value& e : a->arr) {
      DatMoveLoopSummary s;
      s.loop = str_field(e, "loop");
      s.counted_bytes = count_field(e, "counted_bytes");
      s.modeled_bytes = count_field(e, "modeled_bytes");
      s.drift = num_field(e, "drift");
      r.loops.push_back(std::move(s));
    }
  if (const json::Value* a = dm.find("dats"))
    for (const json::Value& e : a->arr) {
      r.dats.push_back({str_field(e, "dat"), count_field(e, "alloc_bytes"),
                        count_field(e, "bytes_moved")});
    }
  if (const json::Value* o = dm.find("reuse")) {
    r.reuse.cold_bytes = count_field(*o, "cold_bytes");
    if (const json::Value* a = o->find("buckets"))
      for (const json::Value& e : a->arr) {
        const auto i = static_cast<std::size_t>(num_field(e, "bucket"));
        if (i < r.reuse.moved_bytes.size())
          r.reuse.moved_bytes[i] = count_field(e, "moved_bytes");
      }
  }
  if (const json::Value* a = dm.find("occupancy"))
    for (const json::Value& e : a->arr) {
      OccupancyPoint p;
      p.capacity_bytes = num_field(e, "capacity_bytes");
      p.served_fraction = num_field(e, "served_fraction");
      r.occupancy.push_back(p);
    }
  if (const json::Value* a = dm.find("chains"))
    for (const json::Value& e : a->arr) {
      ChainMoveRecord c;
      c.working_set_bytes = count_field(e, "working_set_bytes");
      c.counted_bytes = count_field(e, "counted_bytes");
      c.tile_height = static_cast<idx_t>(num_field(e, "tile_height"));
      c.loops = static_cast<int>(num_field(e, "loops"));
      const json::Value* t = e.find("tiled");
      c.tiled = t != nullptr && t->b;
      r.chains.push_back(c);
    }
  return r;
}


DatMoveReport parse_datmove_json(std::istream& is) {
  const json::Value root = json::parse(is);
  BWLAB_REQUIRE(root.kind == json::Value::Kind::Obj,
                "datmove JSON must be an object");
  const json::Value* dm = root.find("datmove");
  if (dm == nullptr) dm = &root;  // bare "datmove" object
  return datmove_from_json(*dm);
}

}  // namespace bwlab::core
