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

DatMoveReport parse_datmove_json(std::istream& is) {
  const json::Value root = json::parse(is);
  BWLAB_REQUIRE(root.kind == json::Value::Kind::Obj,
                "datmove JSON must be an object");
  const json::Value* dm = root.find("datmove");
  return json::read<DatMoveReport>(dm != nullptr ? *dm : root);
}

}  // namespace bwlab::core
