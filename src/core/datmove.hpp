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

/// One dat's allocation footprint and the bytes its loops moved.
struct DatTraffic {
  std::string dat;
  count_t alloc_bytes = 0;
  count_t bytes_moved = 0;
};

/// One point of the capacity-occupancy curve: the fraction of total
/// counted traffic a fast tier of `capacity_bytes` could serve (reuse
/// distance <= capacity; cold/compulsory traffic always misses).
struct OccupancyPoint {
  double capacity_bytes = 0;
  double served_fraction = 0;
};

/// The "datmove" run-report section (see write_json for the layout).
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

/// Facade over the collection switch plus the post-run analysis. The
/// runtime side costs one relaxed load + branch per loop while disabled
/// (bench/gb_datmove_overhead enforces < 5 ns).
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

/// The "datmove" JSON object (no surrounding key), embedded in the run
/// report by core/report.cpp. `indent` is the base indentation in spaces.
void write_json(std::ostream& os, const DatMoveReport& r, int indent = 2);

/// Parses a "datmove" JSON object previously written by write_json —
/// either the bare object or a full run report containing a "datmove"
/// member — back into a DatMoveReport (round-trip tested). Throws
/// bwlab::Error on malformed input or when a run report has no "datmove"
/// section.
DatMoveReport parse_datmove_json(std::istream& is);

/// Maps an already-parsed "datmove" JSON object (common/json.hpp value)
/// back onto a DatMoveReport. core::parse_run_report reuses this for the
/// report's "datmove" section. Throws bwlab::Error when the value is not
/// an object or lacks a "records" member.
DatMoveReport datmove_from_json(const json::Value& dm);

}  // namespace bwlab::core
