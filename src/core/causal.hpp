// bwcausal: post-run causal analysis of SimMPI trace streams.
//
// bwtrace shows each rank's spans in isolation — *that* a rank waited.
// This module replays the buffered events after run_ranks joins and
// explains *why*, in the spirit of wait-state / critical-path analysis
// (Scalasca-style), scaled down to the SimMPI runtime:
//
//  * send→recv matching: every delivered point-to-point message links the
//    sender's flow-start (delivery point, inside the send span) to the
//    receiver's flow-finish (inside the blocking recv/wait span) via the
//    shared trace::flow_id;
//  * wait-state classification: each blocked recv/wait interval becomes
//    late-sender (the message was delivered after the receiver started
//    waiting), progress-starved (the message was already there, yet the
//    receiver stayed blocked well past the expected copy time), or
//    late-receiver (the message sat in the mailbox; the receiver arrived
//    late and barely blocked);
//  * a per-rank-pair communication matrix (messages, bytes, receiver wait
//    seconds);
//  * critical-path extraction: a backward walk from the last event that
//    jumps to the sending rank across late-sender waits and to the
//    last-arriving rank across collectives, attributing the end-to-end
//    wall time to kernel / halo_pack / comm_wait / imbalance / recovery /
//    other buckets that sum exactly to the traced wall interval
//    (recovery covers the bwresil "recovery:*" spans — rollback, buddy
//    mirror/restore, replay, degraded).
//
// Everything here runs post-join on the snapshot (or on the tracks
// trace::read_chrome_json reads back from a saved .trace.json for the
// offline tools/trace_analyze) — the hot path pays nothing beyond the
// existing disabled-tracer branch.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/trace.hpp"
#include "par/simmpi.hpp"

namespace bwlab::core::causal {

enum class WaitClass { LateSender, LateReceiver, ProgressStarved };

const char* to_string(WaitClass c);

/// One matched point-to-point message: sender-side delivery joined with
/// the receiver's blocking span. Timestamps are seconds since the trace
/// epoch.
struct MessageFlow {
  int src = -1;
  int dest = -1;
  int tag = -1;
  long long seq = -1;
  unsigned long long bytes = 0;
  double send_begin_s = 0;  ///< sender's send-span begin
  double deliver_s = 0;     ///< flow-start: message entered the mailbox
  double wait_begin_s = 0;  ///< receiver's recv/wait-span begin
  double wait_end_s = 0;    ///< receiver's recv/wait-span end
  WaitClass cls = WaitClass::LateReceiver;
  double wait_s = 0;  ///< wait_end_s - wait_begin_s
};

/// Communication-matrix cell: traffic and induced receiver wait for one
/// directed rank pair.
struct PairStats {
  int src = -1;
  int dest = -1;
  long long messages = 0;
  unsigned long long bytes = 0;
  double wait_s = 0;
};
template <class Io>
void fields(Io& io, PairStats& p) {
  io("src", p.src);
  io("dest", p.dest);
  io("messages", p.messages);
  io("bytes", p.bytes);
  io("wait_seconds", p.wait_s);
}

/// Per-rank wait-state totals (p2p classes plus collective blocking).
struct RankWaits {
  int rank = -1;
  double late_sender_s = 0;
  double late_receiver_s = 0;
  double progress_starved_s = 0;
  double collective_s = 0;  ///< time inside barrier/allreduce spans
  long long late_sender_n = 0;
  long long late_receiver_n = 0;
  long long progress_starved_n = 0;
};
template <class Io>
void fields(Io& io, RankWaits& w) {
  io("rank", w.rank);
  io("late_sender_seconds", w.late_sender_s);
  io("late_sender_count", w.late_sender_n);
  io("progress_starved_seconds", w.progress_starved_s);
  io("progress_starved_count", w.progress_starved_n);
  io("late_receiver_seconds", w.late_receiver_s);
  io("late_receiver_count", w.late_receiver_n);
  io("collective_seconds", w.collective_s);
}

/// One hop of the extracted critical path (start→end order).
struct PathSegment {
  int rank = -1;
  double t0_s = 0;
  double t1_s = 0;
  std::string bucket;  ///< kernel | halo_pack | comm_wait | imbalance |
                       ///< recovery | other
};

struct CriticalPath {
  double length_s = 0;  ///< == traced wall interval by construction
  /// Bucket seconds; values sum to length_s.
  std::map<std::string, double> bucket_s;
  std::vector<int> ranks;  ///< distinct ranks the path visits, start→end
  std::vector<PathSegment> segments;  ///< start→end order
};

struct Report {
  double wall_s = 0;  ///< last minus first event across rank-main tracks
  int nranks = 0;
  std::vector<MessageFlow> messages;  ///< matched, receive-completion order
  long long unmatched_sends = 0;  ///< flow-starts with no flow-finish
  long long unmatched_recvs = 0;  ///< flow-finishes with no flow-start
  std::vector<PairStats> matrix;  ///< (src, dest) ascending
  std::vector<RankWaits> rank_waits;  ///< rank ascending
  CriticalPath path;
};

struct Options {
  /// A wait whose message was already delivered is progress-starved once
  /// it blocks longer than progress_eps_s + bytes / copy_bw_bytes_per_s
  /// (the allowance for the mailbox memcpy of large payloads).
  double progress_eps_s = 50e-6;
  double copy_bw_bytes_per_s = 1e9;
};

/// Analyzes decoded track views (trace::snapshot() or
/// trace::read_chrome_json). Only rank-main tracks (tid 0) participate;
/// pool-worker tracks are ignored.
Report analyze(const std::vector<trace::TrackView>& tracks,
               const Options& opts = {});

/// analyze() on a snapshot of the global tracer. Call post-join, after
/// trace::disable().
Report analyze_live(const Options& opts = {});

/// Result of cross-checking the trace-derived communication matrix
/// against the runtime's own per-rank counters.
struct RankByteCheck {
  bool ok = true;
  std::string diagnosis;  ///< empty when ok; per-rank/pair/tag detail else
};

/// bwmem/bwcausal cross-check bug trap: the bytes the causal analysis
/// attributes to each sending rank (summed over its matched message
/// flows) must equal the payload bytes par::Comm counted for that rank
/// (RankStats::payload_bytes_sent), and likewise message counts — the
/// two are independent observations of the same traffic (trace events vs
/// send-site counters). A mismatch means dropped trace events, unmatched
/// flows, or an accounting bug; the diagnosis names each drifting rank
/// with its per-(peer, tag) byte totals so the divergence is locatable.
RankByteCheck cross_check_rank_bytes(const Report& r,
                                     const std::vector<par::RankStats>& stats);

// --- Presentation ------------------------------------------------------------

Table wait_state_table(const Report& r);
Table comm_matrix_table(const Report& r);
Table critical_path_table(const Report& r);

/// The critical path as the report keeps it (segments as a count).
struct PathSummary {
  double length_s = 0;
  std::map<std::string, double> buckets;  ///< sums to length_s
  std::vector<int> ranks;
  long long segments = 0;
};
template <class Io>
void fields(Io& io, PathSummary& p) {
  io("length_seconds", p.length_s);
  io("buckets", p.buckets);
  io("ranks", p.ranks);
  io("segments", p.segments);
}

/// Exactly what the "causal" run-report JSON section holds — the
/// round-trippable subset of Report (matched messages are summarized as a
/// count, path segments as a count; everything else is value-complete).
/// core::parse_run_report reads this back, and writing a parsed section
/// reproduces the original bytes. bwdiff aligns two of these;
/// tools/trace_analyze --json prints one.
struct CausalSection {
  double wall_s = 0;
  int nranks = 0;
  long long matched_messages = 0;
  long long unmatched_sends = 0;
  long long unmatched_recvs = 0;
  std::vector<RankWaits> wait_states;  ///< rank ascending
  std::vector<PairStats> matrix;       ///< (src, dest) ascending
  PathSummary critical_path;
};
template <class Io>
void fields(Io& io, CausalSection& s) {
  io("wall_seconds", s.wall_s);
  io("nranks", s.nranks);
  io("matched_messages", s.matched_messages);
  io("unmatched_sends", s.unmatched_sends);
  io("unmatched_recvs", s.unmatched_recvs);
  io("wait_states", s.wait_states);
  io("matrix", s.matrix);
  io("critical_path", s.critical_path);
}

/// The serializable summary of a full analysis Report.
CausalSection summarize(const Report& r);

}  // namespace bwlab::core::causal
