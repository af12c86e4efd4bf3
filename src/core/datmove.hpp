// bwmem analysis: turns the exact data-movement records collected by the
// runtime (common/instrument.hpp, gathered by ops::par_loop /
// op2::par_loop / ops::ChainQueue when datmove is enabled) into a
// DatMoveReport — per-loop counted-vs-modeled byte summaries, per-dat
// traffic, the byte-weighted reuse-distance histogram with its
// capacity-occupancy curve, per-chain working sets, and halo pack/unpack
// totals. This is the measured ground truth the HBM cache/flat tier
// model needs: the occupancy curve says what fraction of traffic a fast
// tier of a given size could serve. Which tier each dat lives on is the
// memtier allocator's decision (common/memtier.hpp), reported in the
// "memtier" section (core/memtier.hpp); counted bytes never depend on it.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace bwlab::core {

/// One loop's counted bytes joined against its modeled (arg_bytes ×
/// points) estimate.
struct DatMoveLoopSummary {
  std::string loop;
  count_t counted_bytes = 0;  ///< exact (descriptor × executed range)
  count_t modeled_bytes = 0;  ///< LoopRecord::bytes estimate
  double drift = 0;           ///< counted/modeled - 1 (0 = exact agreement)
};
template <class Io>
void fields(Io& io, DatMoveLoopSummary& s) {
  io("loop", s.loop);
  io("counted_bytes", s.counted_bytes);
  io("modeled_bytes", s.modeled_bytes);
  io("drift", s.drift);
}

/// One dat's allocation footprint and the bytes its loops moved.
struct DatTraffic {
  std::string dat;
  count_t alloc_bytes = 0;
  count_t bytes_moved = 0;
};
template <class Io>
void fields(Io& io, DatTraffic& d) {
  io("dat", d.dat);
  io("alloc_bytes", d.alloc_bytes);
  io("bytes_moved", d.bytes_moved);
}

/// One point of the capacity-occupancy curve: the fraction of total
/// counted traffic a fast tier of `capacity_bytes` could serve (reuse
/// distance <= capacity; cold/compulsory traffic always misses).
struct OccupancyPoint {
  double capacity_bytes = 0;
  double served_fraction = 0;
};
template <class Io>
void fields(Io& io, OccupancyPoint& p) {
  io("capacity_bytes", p.capacity_bytes);
  io("served_fraction", p.served_fraction);
}

/// The "datmove" run-report section.
struct DatMoveReport {
  count_t total_bytes = 0;        ///< all counted loop bytes
  count_t working_set_bytes = 0;  ///< sum of dat allocation footprints
  count_t halo_bytes_sent = 0;
  count_t halo_bytes_received = 0;
  std::vector<DatMoveRecord> records;        ///< per (loop, dat)
  std::vector<DatMoveLoopSummary> loops;     ///< first-execution order
  std::vector<DatTraffic> dats;              ///< first-touch order
  ReuseHistogram reuse;
  std::vector<OccupancyPoint> occupancy;
  std::vector<ChainMoveRecord> chains;
};
template <class Io>
void fields(Io& io, DatMoveReport& r) {
  io("total_bytes", r.total_bytes);
  io("working_set_bytes", r.working_set_bytes);
  io("halo_bytes_sent", r.halo_bytes_sent);
  io("halo_bytes_received", r.halo_bytes_received);
  io("records", r.records, json::required);
  io("loops", r.loops);
  io("dats", r.dats);
  io("reuse", r.reuse);
  io("occupancy", r.occupancy);
  io("chains", r.chains);
}

/// Facade over the collection switch plus the post-run analysis. The
/// runtime side costs one relaxed load + branch per loop while disabled
/// (bench/gb_layer_overhead enforces < 5 ns).
class DataMoveProfiler {
 public:
  static void enable() { datmove::enable(); }
  static void disable() { datmove::disable(); }
  static bool enabled() { return datmove::enabled(); }

  /// Builds the report from a finished run's instrumentation.
  static DatMoveReport analyze(const Instrumentation& instr);
};

/// Per-loop counted-vs-modeled summary table for console output.
Table datmove_table(const DatMoveReport& r);
/// Reuse-distance / capacity-occupancy table.
Table datmove_reuse_table(const DatMoveReport& r);

/// Parses a "datmove" JSON object — either the bare object or a full run
/// report containing a "datmove" member — back into a DatMoveReport
/// (round-trip tested). Throws bwlab::Error on malformed input or when
/// the object has no "records" member (a run report without a "datmove"
/// section).
DatMoveReport parse_datmove_json(std::istream& is);

}  // namespace bwlab::core
