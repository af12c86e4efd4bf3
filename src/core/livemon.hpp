// bwlive analysis: the machine-model join and the stall classifier for
// live telemetry (common/live.hpp collects; this layer interprets).
//
// The roof the live bandwidth is compared against is the MachineModel's
// achieved STREAM-triad node bandwidth — the paper's Figure 1 plateau and
// the denominator of every roof-fraction in the repo — not the theoretical
// peak, so "100% of roof" means "as fast as STREAM", the honest ceiling
// for a bandwidth-bound code.
//
// The stall classifier is the offline twin of the sampler's online
// flat-window flagging: a rank whose progress counters (steps, messages,
// bytes sent) are all flat across the last `windows` sampling windows is
// stalling. A stall is not a deadlock: SimMPI diagnoses a deadlock (a
// WatchdogError) the moment the last live rank parks, before any
// sampling window can close, so the flag marks what it alone can see — a
// slow but live rank, e.g. a late sender — and tests assert both.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/timeseries.hpp"

namespace bwlab::sim {
struct MachineModel;
}

namespace bwlab::core {

/// The bandwidth roof live telemetry is measured against: the machine's
/// achieved STREAM-triad node bandwidth in bytes/s.
double live_roof_bytes_per_s(const sim::MachineModel& machine);

/// One stalling rank: flat for `windows` consecutive trailing windows,
/// i.e. no observed progress since `since_s` (run-relative seconds).
struct StallFlag {
  int rank = -1;
  std::size_t windows = 0;
  double since_s = 0;
};

/// Ranks whose progress counters are flat across the last `windows`
/// windows of `ts` (needs windows + 1 trailing samples; fewer samples or
/// no per-rank keys => no flags). Progress = any of rank.<R>.steps /
/// .msgs_sent / .bytes_sent changing.
std::vector<StallFlag> classify_stalls(const live::TimeSeries& ts,
                                       std::size_t windows);

/// Per-rank table of the last sample (rank, steps, msgs, MB sent,
/// pending irecvs, mailbox, blocked op, stall flag) — what bwtop and the
/// run_app summary both print.
std::string live_rank_table(const live::TimeSeries& ts, std::size_t windows);

/// One-line bandwidth summary of the last window: current bytes/s from
/// the exact (datmove) counter when present, the modeled loop bytes
/// otherwise, plus the roof fraction when the series carries a roof.
std::string live_rate_line(const live::TimeSeries& ts);

}  // namespace bwlab::core
