// bwdiff: differential run forensics — align two run reports and
// attribute every microsecond of the wall-time delta.
//
// bwtrace/bwcausal/bwmem explain ONE run; performance work is always
// about TWO (before/after a change, tiled vs untiled, healthy vs
// faulty). diff_runs() aligns everything the run report holds by stable
// keys — loops by name, critical-path buckets by bucket name, counted
// bytes by (loop, dat), comm matrix cells by (src, dest) — and splits
// the measured wall-time delta into per-loop and per-bucket
// contributions that sum exactly to it (gone rows contribute -a,
// new rows +b; nothing is silently dropped).
//
// When repetition samples are available (extra reports per side), each
// loop delta gets a noise verdict using the same MAD gate as
// bench_compare: a change is significant only when the median moves
// beyond the threshold AND the [median ± k·MAD] intervals do not
// overlap. Byte deltas from the bwmem datmove section are cross-
// referenced per loop so "slower AND moving more data" is visible in
// one row.
//
// Surfaces: the run_diff CLI (tables/JSON/CSV), run_app
// --diff-against=<report.json>, and a merged Chrome trace that emits
// both runs' tracks side by side (run A on pid 2·rank, run B on
// pid 2·rank+1) for visual alignment in Perfetto; the merge relabels
// tracks and trace::write_chrome_json prints them.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/trace.hpp"
#include "core/report.hpp"

namespace bwlab::core {

/// Alignment status of one keyed row: present in both runs, only in run
/// B ("new") or only in run A ("gone").
enum class DiffStatus { Common, New, Gone };
const char* to_string(DiffStatus s);

/// Noise verdict of one delta (MAD gate, bench_compare semantics).
enum class Significance {
  NoSamples,     ///< fewer than 2 repetition samples on a side
  Significant,   ///< beyond threshold and MAD intervals disjoint
  Insignificant  ///< within threshold or intervals overlap
};
const char* to_string(Significance s);

/// One loop aligned across the two runs. delta_seconds is b - a with
/// absent sides as 0, so summing over all rows (including new/gone)
/// reproduces the total loop-seconds delta exactly.
struct LoopDelta {
  std::string name;
  DiffStatus status = DiffStatus::Common;
  double a_seconds = 0;
  double b_seconds = 0;
  double delta_seconds = 0;  ///< b_seconds - a_seconds
  double rel_change = 0;     ///< delta / a_seconds (0 when a is 0)
  /// Data-movement cross-reference: counted bytes (bwmem) when both
  /// reports carry a datmove section, the loop's useful-bytes record
  /// otherwise.
  bool counted = false;  ///< bytes are exact datmove counts on both sides
  count_t a_bytes = 0;
  count_t b_bytes = 0;
  double byte_ratio = 0;  ///< b_bytes / a_bytes (0 when a_bytes is 0)
  /// MAD verdict (NoSamples without repetition reports).
  Significance significance = Significance::NoSamples;
  double a_median = 0;
  double a_mad = 0;
  double b_median = 0;
  double b_mad = 0;
};
template <class Io>
void fields(Io& io, LoopDelta& l) {
  io("name", l.name);
  io("status", l.status);
  io("a_seconds", l.a_seconds);
  io("b_seconds", l.b_seconds);
  io("delta_seconds", l.delta_seconds);
  io("rel_change", l.rel_change);
  io("counted", l.counted);
  io("a_bytes", l.a_bytes);
  io("b_bytes", l.b_bytes);
  io("byte_ratio", l.byte_ratio);
  io("significance", l.significance);
  io("a_median", l.a_median);
  io("a_mad", l.a_mad);
  io("b_median", l.b_median);
  io("b_mad", l.b_mad);
}

/// One critical-path bucket (kernel / halo_pack / comm_wait / imbalance /
/// recovery / other) aligned across the runs. Deltas sum to the causal
/// wall delta (each side's buckets sum to its wall by construction).
struct BucketDelta {
  std::string bucket;
  DiffStatus status = DiffStatus::Common;
  double a_seconds = 0;
  double b_seconds = 0;
  double delta_seconds = 0;
  double share = 0;  ///< delta_seconds / wall_delta (0 when wall delta ~0)
};
template <class Io>
void fields(Io& io, BucketDelta& b) {
  io("bucket", b.bucket);
  io("status", b.status);
  io("a_seconds", b.a_seconds);
  io("b_seconds", b.b_seconds);
  io("delta_seconds", b.delta_seconds);
  io("share", b.share);
}

/// One directed rank pair of the comm matrix aligned across the runs.
struct PairDelta {
  int src = -1;
  int dest = -1;
  DiffStatus status = DiffStatus::Common;
  long long a_messages = 0;
  long long b_messages = 0;
  count_t a_bytes = 0;
  count_t b_bytes = 0;
  double a_wait_seconds = 0;
  double b_wait_seconds = 0;
  double delta_wait_seconds = 0;
};
template <class Io>
void fields(Io& io, PairDelta& p) {
  io("src", p.src);
  io("dest", p.dest);
  io("status", p.status);
  io("a_messages", p.a_messages);
  io("b_messages", p.b_messages);
  io("a_bytes", p.a_bytes);
  io("b_bytes", p.b_bytes);
  io("a_wait_seconds", p.a_wait_seconds);
  io("b_wait_seconds", p.b_wait_seconds);
  io("delta_wait_seconds", p.delta_wait_seconds);
}

/// One (loop, dat) counted-bytes cell of the bwmem datmove section.
struct DatDelta {
  std::string loop;
  std::string dat;
  DiffStatus status = DiffStatus::Common;
  count_t a_bytes = 0;  ///< bytes_read + bytes_written
  count_t b_bytes = 0;
  long long delta_bytes = 0;
};
template <class Io>
void fields(Io& io, DatDelta& x) {
  io("loop", x.loop);
  io("dat", x.dat);
  io("status", x.status);
  io("a_bytes", x.a_bytes);
  io("b_bytes", x.b_bytes);
  io("delta_bytes", x.delta_bytes);
}

struct DiffOptions {
  double threshold = 0.10;  ///< relative-change gate for significance
  double mad_k = 3.0;       ///< MAD interval half-width multiplier
};

struct DiffReport {
  /// Wall time per side: causal traced wall when both reports carry a
  /// causal section (wall_from_causal), total_loop_seconds otherwise.
  bool wall_from_causal = false;
  double a_wall_seconds = 0;
  double b_wall_seconds = 0;
  double wall_delta_seconds = 0;
  /// Loop-seconds totals (sum of per-loop host seconds, so the loops
  /// vector's deltas sum to loop_delta_seconds exactly).
  double a_loop_seconds = 0;
  double b_loop_seconds = 0;
  double loop_delta_seconds = 0;
  std::vector<LoopDelta> loops;      ///< |delta| descending
  std::vector<BucketDelta> buckets;  ///< |delta| descending
  std::vector<PairDelta> pairs;      ///< |wait delta| descending
  std::vector<DatDelta> dats;        ///< |byte delta| descending
  bool has_buckets = false;          ///< both runs carried causal sections
  bool has_dats = false;             ///< both runs carried datmove sections
};
/// The machine-readable diff (stable key order, no timestamps — identical
/// inputs produce identical bytes). Written only: there is no diff reader.
template <class Io>
void fields(Io& io, DiffReport& d) {
  io("wall_source", d.wall_from_causal ? "causal" : "loops");
  io("a_wall_seconds", d.a_wall_seconds);
  io("b_wall_seconds", d.b_wall_seconds);
  io("wall_delta_seconds", d.wall_delta_seconds);
  io("a_loop_seconds", d.a_loop_seconds);
  io("b_loop_seconds", d.b_loop_seconds);
  io("loop_delta_seconds", d.loop_delta_seconds);
  io("loops", d.loops);
  io("buckets", d.buckets);
  io("comm", d.pairs);
  io("dats", d.dats);
}

/// Aligns run B against run A. Throws bwlab::Error when both reports
/// carry causal sections with different rank counts (a per-rank diff of
/// different topologies is meaningless; diff loop timings instead by
/// stripping the causal section).
DiffReport diff_runs(const RunReport& a, const RunReport& b,
                     const DiffOptions& opts = {});

/// Repetition-aware variant: the FIRST report of each side is the run
/// being diffed; additional reports contribute per-loop host-seconds
/// samples for the MAD significance gate.
DiffReport diff_runs(const std::vector<RunReport>& a_runs,
                     const std::vector<RunReport>& b_runs,
                     const DiffOptions& opts = {});

// --- Presentation ------------------------------------------------------------

/// Top-N loops by |delta| (all rows when top_n is 0).
Table diff_loops_table(const DiffReport& d, std::size_t top_n = 10);
Table diff_buckets_table(const DiffReport& d);
Table diff_comm_table(const DiffReport& d, std::size_t top_n = 10);
Table diff_dats_table(const DiffReport& d, std::size_t top_n = 10);

/// Flat CSV: section,key,status,a,b,delta rows for loops/buckets/comm/dats.
void write_csv(std::ostream& os, const DiffReport& d);

/// Merged Chrome trace: run A's tracks on pid 2·rank, run B's on
/// pid 2·rank+1 (process names "A rank R" / "B rank R"), both at their
/// own epoch 0 so the timelines align visually in Perfetto.
void write_merged_chrome_trace(std::ostream& os,
                               std::vector<trace::TrackView> a,
                               std::vector<trace::TrackView> b);

}  // namespace bwlab::core
