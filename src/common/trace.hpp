// bwtrace: per-thread span tracing with Chrome trace-event JSON export.
//
// The paper's methodology is measurement — Figure 7's MPI_Wait overhead,
// Figure 8's per-loop effective bandwidth, Figure 9's tiling gains — and
// this is the timeline counterpart of the post-hoc aggregates in
// common/instrument.hpp: every kernel, halo exchange, tile and
// communication primitive can record a span onto a per-thread ring
// buffer, serialized as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) with one track per SimMPI rank (pid) and one per
// ThreadPool worker (tid).
//
// bwcausal extends the event model with causal message links: comm spans
// can carry (peer, tag, seq, bytes) correlation args, and delivered
// messages emit flow events ('s' at the sender's delivery point, 'f'
// inside the receiver's blocking recv/wait) sharing a flow_id(), so
// Perfetto draws message arrows between rank tracks and the post-run
// analyzer (core/causal.hpp) can match send→recv pairs. snapshot()
// exposes the buffered events post-join for that in-process analysis.
//
// The tracer is compiled in but runtime-disabled by default. The disabled
// fast path is a single relaxed atomic load plus one branch (asserted
// < 5 ns by bench/gb_trace_overhead); enabling costs one buffered event
// per span endpoint, no locks on the hot path.
//
// Usage:
//   trace::enable();
//   { trace::TraceSpan s(trace::Cat::Kernel, "ideal_gas"); ... }
//   trace::disable();                       // stop recording
//   trace::write_chrome_json_file("run.trace.json");
//
// Serialization must not race with recording: call write_chrome_json /
// reset only after disable() once the traced threads have joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/gate.hpp"

namespace bwlab::trace {

/// Span/counter category, serialized as the Chrome "cat" field.
enum class Cat : std::uint8_t {
  Kernel,  ///< par_loop kernel execution
  Halo,    ///< halo exchange of one dat (or a chain's deep exchange)
  Comm,    ///< SimMPI primitive (send/recv/wait/allreduce/barrier)
  Tile,    ///< one tile of the cache-blocking executor
  Region,  ///< coarse region (thread-pool parallel region, chain run)
  App,     ///< application-defined phases
  Fault,   ///< bwfault events (injections, watchdog, checkpoint/restore)
};

const char* to_string(Cat c);

/// Correlation args a communication span can carry (bwcausal): the peer
/// rank, message tag, per-(peer, tag) delivered-message sequence number
/// (collective sequence for barrier/allreduce) and payload bytes. A
/// negative seq means "not correlated" (tracing was off at the matching
/// counter bump); serialized as the Chrome "args" object.
struct CommArgs {
  int peer = -1;
  int tag = -1;
  long long seq = -1;
  unsigned long long bytes = 0;
};

namespace detail {
inline Gate g_on;
void begin_span(Cat c, std::string_view name, std::string_view suffix);
void begin_span_args(Cat c, std::string_view name, std::string_view suffix,
                     const CommArgs& args);
void end_span();
void flow_event(bool start, std::uint64_t id);
}  // namespace detail

/// Single-branch fast path checked by every instrumentation site.
inline bool enabled() { return detail::g_on.enabled(); }

/// Starts recording. `max_events_per_thread` bounds each thread's buffer;
/// events past the cap are dropped (newest-first) and counted.
void enable(std::size_t max_events_per_thread = std::size_t{1} << 20);

/// Stops recording; buffered events are kept for serialization.
void disable();

/// Clears all buffered events and resets the trace clock epoch. Thread
/// buffers (and the tracks they belong to) survive so long-lived threads
/// keep recording after a reset.
void reset();

/// Declares the calling thread's track: Chrome pid = SimMPI rank, tid =
/// thread-team member index. Called by run_ranks for rank threads and by
/// ThreadPool workers; the main thread defaults to rank 0 / tid 0.
void set_thread_track(int rank, int tid, std::string label);

/// Rank of the calling thread's track (used by ThreadPool to attribute
/// its workers to the rank that created the pool).
int current_rank();

/// Records a named counter sample ('C' event) on the caller's rank track.
void counter(std::string_view name, double value);

/// Events dropped across all threads since the last reset().
std::uint64_t dropped_events();

/// Lock-free mirror of dropped_events(), for mid-run readers: the bwlive
/// sampler surfaces buffer overflow *while* the run is going (live gauge
/// + status line) instead of only in the exit-time trace-health section.
/// dropped_events() walks the buffer registry under its mutex and must
/// not be called concurrently with recording; this relaxed counter may.
std::uint64_t dropped_events_now();

/// Per-thread drop accounting, surfaced in the run-report JSON so a
/// truncated timeline is visible post-run (satellite of ISSUE 4). One
/// entry per thread that ever recorded an event (including zero-drop
/// threads, so the report shows which tracks exist).
struct ThreadDrops {
  int rank = 0;
  int tid = 0;
  std::string label;
  std::uint64_t dropped = 0;
};
std::vector<ThreadDrops> dropped_by_thread();

// --- Causal message links (bwcausal) -----------------------------------------

/// Stable correlation id of the seq-th delivered (src, tag) message from
/// `src` to `dest`: both endpoints can compute it independently from
/// their own counters because SimMPI mailbox matching is FIFO per
/// (src, tag). Used as the Chrome flow-event "id".
std::uint64_t flow_id(int src, int dest, int tag, long long seq);

/// Records a flow-start ('s') event on the caller's track: call at the
/// sender's delivery point, inside the send span.
inline void flow_start(std::uint64_t id) {
  if (enabled()) detail::flow_event(true, id);
}

/// Records a flow-finish ('f', bound to the enclosing slice) event: call
/// on the receiver once the message is collected, inside the recv/wait
/// span.
inline void flow_finish(std::uint64_t id) {
  if (enabled()) detail::flow_event(false, id);
}

// --- Post-join snapshot (core/causal.hpp input) ------------------------------

/// One buffered event, decoded. `ph` uses the Chrome phase letters:
/// 'B' begin, 'E' end, 'C' counter, 's' flow start, 'f' flow finish.
/// Timestamps are nanoseconds since the trace epoch (enable()/reset()).
struct EventView {
  std::uint64_t ts_ns = 0;
  double value = 0;            ///< counters only
  std::uint64_t flow = 0;      ///< flow events only
  char ph = '?';
  Cat cat = Cat::Kernel;
  bool has_args = false;
  int peer = -1;
  int tag = -1;
  long long seq = -1;
  unsigned long long bytes = 0;
  std::string name;
};

/// One thread's track with its decoded events, in record (= timestamp)
/// order.
struct TrackView {
  int rank = 0;
  int tid = 0;
  std::string label;
  std::uint64_t dropped = 0;
  std::vector<EventView> events;
};

/// Decodes every thread buffer. Call only after disable() once traced
/// threads have joined (same contract as write_chrome_json).
std::vector<TrackView> snapshot();

/// Serializes all buffered events as Chrome trace-event JSON, one event
/// per line. Unmatched begin events (buffer overflow, still-open spans)
/// are closed at the thread's last timestamp so B/E pairs always balance.
void write_chrome_json(std::ostream& os);

/// write_chrome_json to `path`; throws bwlab::Error if unwritable.
void write_chrome_json_file(const std::string& path);

/// RAII span: records a begin event on construction and an end event on
/// destruction when tracing is enabled; a no-op otherwise. The name is
/// `name` + `suffix`, truncated to the event's fixed-size name buffer —
/// pass the dynamic part as `suffix` to avoid building strings on the
/// disabled path.
class TraceSpan {
 public:
  explicit TraceSpan(Cat c, std::string_view name,
                     std::string_view suffix = {}) {
    if (!enabled()) return;
    active_ = true;
    detail::begin_span(c, name, suffix);
  }
  /// Span with correlation args (comm primitives). Same single-branch
  /// disabled fast path; the CommArgs aggregate is only read when
  /// tracing is on.
  explicit TraceSpan(Cat c, std::string_view name, std::string_view suffix,
                     const CommArgs& args) {
    if (!enabled()) return;
    active_ = true;
    detail::begin_span_args(c, name, suffix, args);
  }
  ~TraceSpan() { end(); }
  /// Closes the span before the destructor would (idempotent).
  void end() {
    if (active_) detail::end_span();
    active_ = false;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace bwlab::trace
