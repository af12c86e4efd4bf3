// Roofline attribution: joins the MEASURED per-loop records of an
// instrumented run (common/instrument.hpp) against the machine model's
// PREDICTED roofline times for the same loops — closing the loop the
// measurement/model split leaves open. For every loop it reports measured
// vs predicted seconds, which roof binds (memory or compute), the
// fraction of that roof the measured run achieved, and a drift flag when
// |measured/predicted - 1| exceeds a tolerance, so a mis-calibrated
// machine model (or a genuinely regressed kernel) is visible in the run
// report instead of silently absorbed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/instrument.hpp"
#include "common/table.hpp"
#include "core/config.hpp"

namespace bwlab::core {

/// One loop's measured-vs-model comparison.
struct LoopAttribution {
  std::string name;
  count_t calls = 0;
  seconds_t measured_s = 0;   ///< host time from the instrumented run
  seconds_t predicted_s = 0;  ///< model roofline time, max(mem, comp)
  seconds_t mem_roof_s = 0;   ///< time at the model's bandwidth roof
  seconds_t comp_roof_s = 0;  ///< time at the model's compute roof
  bool memory_bound = false;  ///< which roof binds in the model
  /// Measured rate / binding-roof rate: effective bandwidth over the
  /// model's bandwidth roof for memory-bound loops, achieved flop rate
  /// over the flop roof otherwise. > 1 means the run beat the model.
  double roof_fraction = 0;
  /// measured/predicted - 1 (0 = perfect agreement, 1 = 2x slower than
  /// predicted, -0.5 = 2x faster).
  double drift = 0;
  bool drifted = false;  ///< |drift| > tolerance

  // --- bwmem: counted-bytes join -------------------------------------------
  /// True when the run counted exact bytes for this loop (datmove was
  /// enabled); the roofline join then runs off counted_bytes instead of
  /// the modeled estimate.
  bool counted = false;
  double counted_bytes = 0;  ///< exact bytes (descriptor × executed range)
  double modeled_bytes = 0;  ///< arg_bytes × points estimate
  /// counted/modeled - 1: positive when the model under-counts traffic
  /// (e.g. ignores stencil dilation), negative when it over-counts.
  double byte_drift = 0;
  bool byte_drifted = false;  ///< |byte_drift| > byte_tolerance
};
template <class Io>
void fields(Io& io, LoopAttribution& a) {
  io("name", a.name);
  io("measured_seconds", a.measured_s);
  io("predicted_seconds", a.predicted_s);
  io("mem_roof_seconds", a.mem_roof_s);
  io("comp_roof_seconds", a.comp_roof_s);
  io("memory_bound", a.memory_bound);
  io("roof_fraction", a.roof_fraction);
  io("drift", a.drift);
  io("drifted", a.drifted);
  io("counted", a.counted);
  io("counted_bytes", a.counted_bytes);
  io("modeled_bytes", a.modeled_bytes);
  io("byte_drift", a.byte_drift);
  io("byte_drifted", a.byte_drifted);
}

struct AttributionReport {
  std::string machine_id;     ///< model the predictions come from
  std::string config_label;   ///< configuration the model assumed
  double tolerance = 0;       ///< drift flag threshold
  double byte_tolerance = 0;  ///< counted-vs-modeled byte drift threshold
  seconds_t measured_total = 0;
  seconds_t predicted_total = 0;
  int drifted_count = 0;
  int byte_drifted_count = 0;  ///< loops whose byte accounting drifted
  std::vector<LoopAttribution> loops;  ///< first-execution order
};
template <class Io>
void fields(Io& io, AttributionReport& r) {
  io("machine", r.machine_id);
  io("config", r.config_label);
  io("tolerance", r.tolerance);
  io("byte_tolerance", r.byte_tolerance);
  io("measured_total_seconds", r.measured_total);
  io("predicted_total_seconds", r.predicted_total);
  io("drifted_count", r.drifted_count);
  io("byte_drifted_count", r.byte_drifted_count);
  io("loops", r.loops);
}

/// Attributes every recorded loop against `m`'s roofline at the RUN's
/// OWN scale (no paper-size scaling: the model is evaluated on exactly
/// the points/bytes/flops the instrumented run executed). Loops that
/// recorded no time are included with measured_s = 0 and never flagged.
/// When the run counted exact bytes (bwmem, --datmove), the memory roof
/// and roof fraction are computed from the COUNTED bytes and each loop
/// carries a counted-vs-modeled byte-drift diagnostic flagged beyond
/// `byte_tolerance`.
AttributionReport attribute(const Instrumentation& instr,
                            const sim::MachineModel& m, const Config& cfg,
                            double tolerance = 0.25,
                            double byte_tolerance = 0.10);

/// Per-loop measured/predicted/roof table for console output.
Table attribution_table(const AttributionReport& r);

// --- bwmem x memtier: per-tier roofline join ---------------------------------

/// One tier's slice of a loop's counted traffic and its roof time at that
/// tier's bandwidth.
struct TierRoofEntry {
  std::string tier;
  count_t bytes = 0;
  seconds_t roof_seconds = 0;
};
template <class Io>
void fields(Io& io, TierRoofEntry& e) {
  io("tier", e.tier);
  io("bytes", e.bytes);
  io("roof_seconds", e.roof_seconds);
}

/// One loop's counted bytes split across memory tiers by the dat→tier
/// placement map. The per-loop tier roof is the max over slices — the
/// slowest tier the loop's data lives in bounds the loop.
struct LoopTierRoofs {
  std::string loop;
  seconds_t measured_s = 0;
  std::string binding_tier;     ///< tier with the largest slice roof
  seconds_t roof_seconds = 0;   ///< max over `tiers` roof_seconds
  std::vector<TierRoofEntry> tiers;
};
template <class Io>
void fields(Io& io, LoopTierRoofs& l) {
  io("loop", l.loop);
  io("measured_s", l.measured_s);
  io("binding_tier", l.binding_tier);
  io("roof_seconds", l.roof_seconds);
  io("tiers", l.tiers);
}

/// Splits every loop's counted (bwmem) traffic across `m`'s tiers using
/// `dat_tier` (dat name → tier name; unmapped dats land on the fastest
/// tier) and computes the roof time of each slice at the tier's node
/// bandwidth. Loops without counted bytes are omitted; order follows
/// first execution.
std::vector<LoopTierRoofs> tier_roof_join(
    const Instrumentation& instr, const sim::MachineModel& m,
    const std::map<std::string, std::string>& dat_tier);

}  // namespace bwlab::core
