#include "par/simmpi.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/live.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"

namespace bwlab::par {

/// What a rank is currently blocked in, for the watchdog's diagnosis.
/// Backoff is the bwresil retry sleep: the rank is live in its recovery
/// protocol, so the watchdog must not count it as frozen.
enum class BlockedOp { None, Recv, Wait, Barrier, Allreduce, Backoff, Done };

namespace {

/// Feeds a just-measured blocked interval into the global metrics. The
/// per-rank total stays in Comm::comm_seconds_; this is the cross-rank
/// aggregate view.
void record_blocked(seconds_t s) {
  static Gauge& blocked =
      MetricsRegistry::global().gauge("comm.blocked_seconds");
  blocked.add(s);
}

struct Message {
  int src;
  int tag;
  std::vector<char> payload;
  /// bwresil wire sequence number per (src, dest, tag) stream; -1 when
  /// the resilience policy is off (matching then ignores it).
  long long seq = -1;
};

/// Thrown into ranks blocked on communication when a peer rank failed (or
/// the watchdog fired); run_ranks reports the original cause instead of
/// these secondary cancellations.
struct AbortedError : bwlab::Error {
  AbortedError() : bwlab::Error("rank aborted: a peer rank threw") {}
};

/// Also the trace span name of each blocking Comm call.
const char* to_string(BlockedOp op) {
  switch (op) {
    case BlockedOp::None: return "running";
    case BlockedOp::Recv: return "recv";
    case BlockedOp::Wait: return "wait";
    case BlockedOp::Barrier: return "barrier";
    case BlockedOp::Allreduce: return "allreduce";
    case BlockedOp::Backoff: return "backoff";
    case BlockedOp::Done: return "done";
  }
  return "?";
}

}  // namespace

const char* blocked_op_name(int code) {
  if (code < static_cast<int>(BlockedOp::None) ||
      code > static_cast<int>(BlockedOp::Done))
    return "?";
  return to_string(static_cast<BlockedOp>(code));
}

/// Shared state of one run_ranks() execution.
class World {
 public:
  explicit World(int nranks)
      : n_(nranks), inbox_(static_cast<std::size_t>(nranks)),
        phases_(static_cast<std::size_t>(nranks)),
        sends_(static_cast<std::size_t>(nranks)),
        bytes_(static_cast<std::size_t>(nranks)),
        pending_irecv_(static_cast<std::size_t>(nranks)),
        mailbox_n_(static_cast<std::size_t>(nranks)),
        phase_op_(static_cast<std::size_t>(nranks)) {}

  int size() const { return n_; }

  void deliver(int src, int dest, int tag, const void* data,
               std::size_t bytes, long long seq = -1) {
    BWLAB_REQUIRE(dest >= 0 && dest < n_, "send to invalid rank " << dest);
    Mailbox& box = inbox_[static_cast<std::size_t>(dest)];
    Message msg{src, tag, {}, seq};
    msg.payload.resize(bytes);
    std::memcpy(msg.payload.data(), data, bytes);
    {
      std::lock_guard<std::mutex> lock(box.mu);
      box.messages.push_back(std::move(msg));
      sync_mailbox_gauge(dest, box);
    }
    sends_[static_cast<std::size_t>(src)].fetch_add(
        1, std::memory_order_relaxed);
    bytes_[static_cast<std::size_t>(src)].fetch_add(
        static_cast<long long>(bytes), std::memory_order_relaxed);
    bump_activity();
    box.cv.notify_all();
  }

  /// bwresil send-side bookkeeping, called *before* the fault hook so an
  /// injected drop is recoverable: stamps the message with the next wire
  /// seq of its (src, dest, tag) stream and appends a payload copy to the
  /// replay log. Entries are pruned when the receiver acknowledges
  /// consumption (resil_consume).
  long long resil_stamp_send(int src, int dest, int tag, const void* data,
                             std::size_t bytes) {
    std::lock_guard<std::mutex> lock(resil_mu_);
    const std::array<int, 3> key{src, dest, tag};
    const long long seq = resil_send_seq_[key]++;
    ReplayEntry e;
    e.seq = seq;
    e.payload.assign(static_cast<const char*>(data),
                     static_cast<const char*>(data) + bytes);
    resil_replay_[key].push_back(std::move(e));
    return seq;
  }

  /// The one receive: blocks until the message `dest` expects from
  /// (src, tag) arrives, copies it into `data` and returns the time spent
  /// blocked. `op` is Recv or Wait, for the watchdog's attribution only.
  ///
  /// With the bwresil policy off, the first (src, tag) message matches
  /// (FIFO) and the wait has no deadline. With it on, only the stream's
  /// next wire seq matches, under a per-attempt timeout; on expiry, first
  /// try the sender's replay log (this is the retransmit — it recovers
  /// injected drops and outruns injected delays), then back off (bounded
  /// exponential, seeded jitter) and retry. Exhausted retries either
  /// continue degraded (buffer stays stale, stream advances) or wait on
  /// with no deadline, where the watchdog still guards against a genuine
  /// deadlock — resilience never hides one. Every attempt bumps the
  /// activity counter: a rank inside this protocol is live, not frozen.
  seconds_t collect(int src, int dest, int tag, void* data,
                    std::size_t bytes, BlockedOp op) {
    BWLAB_REQUIRE(src >= 0 && src < n_, "recv from invalid rank " << src);
    Blocked blocked(*this, dest, op, src, tag, bytes);
    Mailbox& box = inbox_[static_cast<std::size_t>(dest)];
    const bool resil = resil::active();
    resil::Policy pol;
    long long want = -1;
    if (resil) {
      pol = resil::policy();
      std::lock_guard<std::mutex> lock(resil_mu_);
      want = resil_recv_seq_[{dest, src, tag}];
    }
    const auto ours = [&](const Message& m) {
      return m.src == src && m.tag == tag;
    };
    bool timed = resil;
    bool retried = false;
    for (int attempt = 0;;) {
      const auto until =
          timed ? Clock::now() + std::chrono::microseconds(pol.timeout_us)
                : Clock::time_point::max();
      {
        std::unique_lock<std::mutex> lock(box.mu);
        auto match = box.messages.end();
        const bool got = blocked.wait(box.cv, lock, until, [&] {
          // An abort ends a receive even when its message is there.
          if (aborted_.load()) return false;
          // A message with a stale seq (an injected delay whose payload
          // was already recovered from the replay log) is dropped.
          if (resil && std::erase_if(box.messages, [&](const Message& m) {
                return ours(m) && m.seq >= 0 && m.seq < want;
              }))
            sync_mailbox_gauge(dest, box);
          match = std::find_if(
              box.messages.begin(), box.messages.end(),
              [&](const Message& m) {
                return ours(m) && (!resil || m.seq < 0 || m.seq == want);
              });
          return match != box.messages.end();
        });
        if (got) {
          BWLAB_REQUIRE(match->payload.size() == bytes,
                        "message size mismatch: rank "
                            << dest << " receiving from rank " << src
                            << " tag " << tag << " expects " << bytes
                            << " bytes, matching send carries "
                            << match->payload.size());
          std::memcpy(data, match->payload.data(), bytes);
          box.messages.erase(match);
          sync_mailbox_gauge(dest, box);
          break;
        }
      }
      // Timed out. Retransmit from the sender's replay log if it already
      // holds the wanted seq (a dropped or still-delayed message).
      retried = true;
      if (resil_fetch_replay(src, dest, tag, want, data, bytes)) {
        resil::count_retry();
        break;
      }
      if (attempt >= pol.retry_max) {
        if (!pol.degraded) {
          timed = false;  // retries exhausted: wait on with no deadline
          continue;
        }
        // Skip-and-extrapolate: leave the destination buffer stale (the
        // caller's previous halo contents) and advance the stream so
        // later messages still match.
        trace::TraceSpan span(trace::Cat::Fault, "recovery:degraded");
        resil_consume(src, dest, tag, want);
        resil::count_degraded();
        return blocked.elapsed();
      }
      // Backoff before the next attempt. The Backoff phase keeps the
      // watchdog from counting this rank as frozen, and the activity
      // bump restarts its stability window.
      ++attempt;
      resil::count_retry();
      blocked.set(BlockedOp::Backoff, attempt);
      bump_activity();
      {
        trace::TraceSpan span(trace::Cat::Fault, "recovery:backoff");
        std::this_thread::sleep_for(std::chrono::microseconds(
            resil::backoff_delay_us(dest, attempt - 1)));
      }
      resil::count_backoff();
      blocked.set(op, attempt);
    }
    if (resil) resil_consume(src, dest, tag, want);
    if (retried) resil::count_recovered();
    return blocked.elapsed();
  }

  /// The one collective: an in-place allreduce of `count` values per
  /// rank, folded in rank order by the last arrival. A barrier is the
  /// same call with no values, so a barrier meeting an allreduce on
  /// another rank fails the count check. `op` (Barrier or Allreduce)
  /// only names the call for the watchdog and the bwlive census.
  seconds_t allreduce(int rank, double* vals, int count, ReduceOp reduce,
                      BlockedOp op) {
    const auto len = static_cast<std::size_t>(count);
    Blocked blocked(*this, rank, op, -1, -1, len * sizeof(double));
    std::unique_lock<std::mutex> lock(coll_.mu);
    const std::size_t slots = len * static_cast<std::size_t>(n_);
    if (coll_.arrived == 0) coll_.buf.resize(slots);
    BWLAB_REQUIRE(coll_.buf.size() == slots,
                  "allreduce count mismatch across ranks");
    std::copy(vals, vals + count, coll_.buf.begin() + count * rank);
    const count_t my_gen = coll_.gen;
    if (++coll_.arrived == n_) {
      // The last arrival folds the slots in rank order, so the result
      // has the same bits whatever order the ranks arrived in.
      coll_.result.assign(coll_.buf.begin(), coll_.buf.begin() + count);
      for (std::size_t j = len; j < coll_.buf.size(); ++j) {
        double& acc = coll_.result[j % len];
        switch (reduce) {
          case ReduceOp::Sum: acc += coll_.buf[j]; break;
          case ReduceOp::Min: acc = std::min(acc, coll_.buf[j]); break;
          case ReduceOp::Max: acc = std::max(acc, coll_.buf[j]); break;
        }
      }
      coll_.arrived = 0;
      ++coll_.gen;
      coll_.cv.notify_all();
    } else {
      blocked.wait(coll_.cv, lock, Clock::time_point::max(),
                   [&] { return coll_.gen != my_gen; });
    }
    std::copy(coll_.result.begin(), coll_.result.end(), vals);
    return blocked.elapsed();
  }

  /// Wakes every blocked rank after a peer threw (or the watchdog fired).
  void abort_all() {
    aborted_.store(true);
    for (Mailbox& box : inbox_) {
      std::lock_guard<std::mutex> lock(box.mu);
      box.cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(coll_.mu);
    coll_.cv.notify_all();
  }

  static bool is_abort(const std::exception_ptr& e) {
    try {
      std::rethrow_exception(e);
    } catch (const AbortedError&) {
      return true;
    } catch (...) {
      return false;
    }
  }

  // --- Watchdog interface ----------------------------------------------------

  void mark_done(int rank) { set_phase(rank, BlockedOp::Done, -1, -1, 0); }

  void irecv_posted(int rank) {
    pending_irecv_[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void irecv_completed(int rank) {
    pending_irecv_[static_cast<std::size_t>(rank)].fetch_sub(
        1, std::memory_order_relaxed);
  }

  std::uint64_t activity() const {
    return activity_.load(std::memory_order_relaxed);
  }

  /// True when at least one rank is live (not Done) and every live rank
  /// is blocked in a communication operation. Such a state can only end
  /// through mailbox traffic — if the activity counter does not move
  /// either, the run is deadlocked.
  bool all_live_blocked() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    int live = 0;
    for (const RankPhase& p : phases_) {
      if (p.op == BlockedOp::Done) continue;
      // A rank sleeping in bwresil backoff is live inside its retry
      // protocol (it will wake and act on its own), not frozen.
      if (p.op == BlockedOp::None || p.op == BlockedOp::Backoff)
        return false;
      ++live;
    }
    return live > 0;
  }

  bool all_done() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const RankPhase& p : phases_)
      if (p.op != BlockedOp::Done) return false;
    return true;
  }

  /// Per-rank diagnostic dump for the watchdog failure message: blocked
  /// operation + peer/tag/bytes, pending-irecv census, send counters, and
  /// the messages sitting unmatched in each mailbox.
  std::string dump() const {
    std::ostringstream os;
    std::vector<RankPhase> snap;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      snap = phases_;
    }
    for (int r = 0; r < n_; ++r) {
      const auto rs = static_cast<std::size_t>(r);
      const RankPhase& p = snap[rs];
      os << "  rank " << r << ": ";
      switch (p.op) {
        case BlockedOp::Recv:
        case BlockedOp::Wait:
          os << "blocked in " << to_string(p.op) << "(src=" << p.peer
             << ", tag=" << p.tag << ", bytes=" << p.bytes << ")";
          if (p.attempt > 0)
            os << " retrying, attempt " << p.attempt;
          break;
        case BlockedOp::Barrier:
          os << "blocked in barrier";
          break;
        case BlockedOp::Allreduce:
          os << "blocked in allreduce(bytes=" << p.bytes << ")";
          break;
        case BlockedOp::Backoff:
          os << "in retry backoff for recv(src=" << p.peer
             << ", tag=" << p.tag << ", bytes=" << p.bytes
             << "), attempt " << p.attempt;
          break;
        case BlockedOp::None:
          os << "running";
          break;
        case BlockedOp::Done:
          os << "finished";
          break;
      }
      os << "; sent " << sends_[rs].load(std::memory_order_relaxed)
         << " msgs/" << bytes_[rs].load(std::memory_order_relaxed)
         << " B; pending irecvs "
         << pending_irecv_[rs].load(std::memory_order_relaxed);
      Mailbox& box = const_cast<Mailbox&>(inbox_[rs]);
      std::lock_guard<std::mutex> lock(box.mu);
      if (box.messages.empty()) {
        os << "; mailbox empty";
      } else {
        os << "; mailbox holds " << box.messages.size() << " unmatched:";
        for (const Message& m : box.messages)
          os << " [src=" << m.src << " tag=" << m.tag << " bytes="
             << m.payload.size() << "]";
      }
      os << "\n";
    }
    return os.str();
  }

  void watchdog_fire(double grace_ms) {
    trace::TraceSpan span(trace::Cat::Fault, "watchdog:deadlock");
    static Counter& fires =
        MetricsRegistry::global().counter("watchdog.deadlocks");
    fires.inc();
    std::ostringstream os;
    os << "bwfault watchdog: no progress for " << grace_ms
       << " ms — all live ranks blocked, no mailbox traffic; "
       << "aborting the run\n"
       << dump();
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      watchdog_msg_ = os.str();
      watchdog_fired_ = true;
    }
    abort_all();
  }

  /// bwlive provider: per-rank census from the lock-free mirrors only
  /// (send counters, pending irecvs, mailbox occupancy, blocked-op code —
  /// see blocked_op_name). Safe to call from the sampler thread at any
  /// point while the world is alive; never touches a mailbox or state
  /// mutex a rank could be holding.
  void live_sample(std::map<std::string, double>& kv) const {
    kv["world.ranks"] = static_cast<double>(n_);
    kv["world.activity"] =
        static_cast<double>(activity_.load(std::memory_order_relaxed));
    for (int r = 0; r < n_; ++r) {
      const auto rs = static_cast<std::size_t>(r);
      kv[live::rank_key(r, "msgs_sent")] = static_cast<double>(
          sends_[rs].load(std::memory_order_relaxed));
      kv[live::rank_key(r, "bytes_sent")] = static_cast<double>(
          bytes_[rs].load(std::memory_order_relaxed));
      kv[live::rank_key(r, "pending_irecv")] = static_cast<double>(
          pending_irecv_[rs].load(std::memory_order_relaxed));
      kv[live::rank_key(r, "mailbox")] = static_cast<double>(
          mailbox_n_[rs].load(std::memory_order_relaxed));
      kv[live::rank_key(r, "blocked_op")] = static_cast<double>(
          phase_op_[rs].load(std::memory_order_relaxed));
    }
  }

  bool watchdog_fired() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return watchdog_fired_;
  }
  std::string watchdog_message() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return watchdog_msg_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// The bracket around every blocking call: from construction `rank`
  /// shows as blocked in `op` (to the watchdog and the bwlive census),
  /// and on every way out it shows as running again with the activity
  /// counter bumped. wait() is the one place a rank parks.
  class Blocked {
   public:
    Blocked(World& w, int rank, BlockedOp op, int peer, int tag,
            std::size_t bytes)
        : w_(w), rank_(rank), peer_(peer), tag_(tag), bytes_(bytes) {
      set(op, 0);
    }
    ~Blocked() {
      w_.set_phase(rank_, BlockedOp::None, -1, -1, 0);
      w_.bump_activity();
    }
    Blocked(const Blocked&) = delete;
    Blocked& operator=(const Blocked&) = delete;

    /// Republishes the phase: a bwresil retry attempt or its backoff.
    void set(BlockedOp op, int attempt) {
      w_.set_phase(rank_, op, peer_, tag_, bytes_, attempt);
    }

    /// Parks on `cv` (whose mutex `lock` holds) until `ready()` holds —
    /// true — or `until` passes — false. Throws AbortedError once the
    /// world is aborted without `ready()` having held.
    template <class Ready>
    bool wait(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
              Clock::time_point until, Ready ready) {
      bool ok = false;
      cv.wait_until(lock, until,
                    [&] { return (ok = ready()) || w_.aborted_.load(); });
      if (!ok && w_.aborted_.load()) throw AbortedError();
      return ok;
    }

    seconds_t elapsed() const { return timer_.elapsed(); }

   private:
    World& w_;
    int rank_;
    int peer_;
    int tag_;
    std::size_t bytes_;
    Timer timer_;
  };

  struct Mailbox {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> messages;
  };
  struct Collective {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    count_t gen = 0;
    std::vector<double> buf;  ///< one slot of `count` values per rank
    std::vector<double> result;
  };
  struct RankPhase {
    BlockedOp op = BlockedOp::None;
    int peer = -1;
    int tag = -1;
    std::size_t bytes = 0;
    int attempt = 0;  ///< bwresil retry attempt count (0 = first try)
  };
  /// One logged send awaiting receiver acknowledgement (bwresil).
  struct ReplayEntry {
    long long seq = -1;
    std::vector<char> payload;
  };

  void set_phase(int rank, BlockedOp op, int peer, int tag,
                 std::size_t bytes, int attempt = 0) {
    // Lock-free mirror first: the bwlive sampler reads it without state_mu_.
    phase_op_[static_cast<std::size_t>(rank)].store(
        static_cast<int>(op), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(state_mu_);
    RankPhase& p = phases_[static_cast<std::size_t>(rank)];
    p.op = op;
    p.peer = peer;
    p.tag = tag;
    p.bytes = bytes;
    p.attempt = attempt;
  }

  /// Refreshes the lock-free mailbox-occupancy mirror; caller holds box.mu.
  void sync_mailbox_gauge(int dest, const Mailbox& box) {
    mailbox_n_[static_cast<std::size_t>(dest)].store(
        static_cast<long long>(box.messages.size()),
        std::memory_order_relaxed);
  }

  /// Copies the replay-log entry with wire seq `want` of stream
  /// (src → dest, tag) into `data`, if present.
  bool resil_fetch_replay(int src, int dest, int tag, long long want,
                          void* data, std::size_t bytes) {
    trace::TraceSpan span(trace::Cat::Fault, "recovery:replay");
    std::lock_guard<std::mutex> lock(resil_mu_);
    auto it = resil_replay_.find({src, dest, tag});
    if (it == resil_replay_.end()) return false;
    for (const ReplayEntry& e : it->second) {
      if (e.seq != want) continue;
      BWLAB_REQUIRE(e.payload.size() == bytes,
                    "message size mismatch: rank "
                        << dest << " replaying from rank " << src << " tag "
                        << tag << " expects " << bytes
                        << " bytes, logged send carries "
                        << e.payload.size());
      std::memcpy(data, e.payload.data(), bytes);
      return true;
    }
    return false;
  }

  /// Acknowledges consumption of wire seq `seq`: advances the expected
  /// receive seq and prunes acknowledged entries from the replay log.
  void resil_consume(int src, int dest, int tag, long long seq) {
    std::lock_guard<std::mutex> lock(resil_mu_);
    resil_recv_seq_[{dest, src, tag}] = seq + 1;
    auto it = resil_replay_.find({src, dest, tag});
    if (it == resil_replay_.end()) return;
    auto& log = it->second;
    while (!log.empty() && log.front().seq <= seq) log.pop_front();
  }

  void bump_activity() {
    activity_.fetch_add(1, std::memory_order_relaxed);
  }

  int n_;
  std::vector<Mailbox> inbox_;
  Collective coll_;
  std::atomic<bool> aborted_{false};

  mutable std::mutex state_mu_;
  std::vector<RankPhase> phases_;
  bool watchdog_fired_ = false;
  std::string watchdog_msg_;
  std::atomic<std::uint64_t> activity_{0};
  std::vector<std::atomic<long long>> sends_;
  std::vector<std::atomic<long long>> bytes_;
  std::vector<std::atomic<long long>> pending_irecv_;
  /// Lock-free mirrors for the bwlive sampler: mailbox occupancy (synced
  /// under each box's mu) and the current BlockedOp code per rank.
  std::vector<std::atomic<long long>> mailbox_n_;
  std::vector<std::atomic<int>> phase_op_;

  // bwresil per-stream state: wire seq counters and the sender-side
  // replay log, all keyed (src, dest, tag) — except recv seqs, keyed
  // (dest, src, tag). Touched only when a policy is active, never on the
  // disabled hot path.
  std::mutex resil_mu_;
  std::map<std::array<int, 3>, long long> resil_send_seq_;
  std::map<std::array<int, 3>, long long> resil_recv_seq_;
  std::map<std::array<int, 3>, std::deque<ReplayEntry>> resil_replay_;
};

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, const void* data, std::size_t bytes) {
  // Correlation id (bwcausal): seq counts *delivered* messages, so it is
  // claimed optimistically for the span args but only consumed on actual
  // delivery — an injected drop leaves it for the next real message,
  // matching the receiver's completed-recv count. The flow-start event is
  // emitted at the delivery point (after any injected delay), which is
  // the causal timestamp late-sender classification keys on.
  const bool traced = trace::enabled();
  const long long seq = traced ? send_seq_[{dest, tag}] : -1;
  trace::TraceSpan span(
      trace::Cat::Comm, "send", {},
      trace::CommArgs{dest, tag, seq, static_cast<unsigned long long>(bytes)});
  // bwresil: stamp the wire seq and append to the replay log *before*
  // the fault hook, so an injected drop (which happens downstream) stays
  // recoverable by the receiver's retransmit path.
  const long long wire_seq =
      resil::active() ? world_->resil_stamp_send(rank_, dest, tag, data, bytes)
                      : -1;
  const auto deliver = [&](const void* wire) {
    if (traced) {
      ++send_seq_[{dest, tag}];
      trace::flow_start(trace::flow_id(rank_, dest, tag, seq));
    }
    world_->deliver(rank_, dest, tag, wire, bytes, wire_seq);
  };
  if (fault::active()) {
    // Copy first so an injected payload flip corrupts the wire bytes,
    // never the caller's buffer.
    std::vector<char> wire(static_cast<const char*>(data),
                           static_cast<const char*>(data) + bytes);
    const fault::MsgAction action =
        fault::on_send(rank_, dest, tag, wire.data(), bytes);
    if (action != fault::MsgAction::Drop) deliver(wire.data());
  } else {
    deliver(data);
  }
  ++msgs_sent_;
  bytes_sent_ += bytes;
  static Counter& msgs = MetricsRegistry::global().counter("comm.messages");
  static Counter& sent = MetricsRegistry::global().counter("comm.bytes");
  static Histogram& sizes =
      MetricsRegistry::global().histogram("comm.message_bytes");
  msgs.inc();
  sent.inc(bytes);
  sizes.observe(static_cast<double>(bytes));
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  receive(BlockedOp::Recv, src, tag, data, bytes);
}

void Comm::receive(BlockedOp op, int src, int tag, void* data,
                   std::size_t bytes) {
  // Receives of a (src, tag) stream complete in FIFO order on this single
  // rank thread, so the seq this receive will consume is known at entry
  // and the span args can carry it.
  const bool traced = trace::enabled();
  const long long seq = traced ? recv_seq_[{src, tag}]++ : -1;
  trace::TraceSpan span(
      trace::Cat::Comm, to_string(op), {},
      trace::CommArgs{src, tag, seq, static_cast<unsigned long long>(bytes)});
  const seconds_t blocked = world_->collect(src, rank_, tag, data, bytes, op);
  if (traced) trace::flow_finish(trace::flow_id(src, rank_, tag, seq));
  comm_seconds_ += blocked;
  record_blocked(blocked);
}

Comm::Request Comm::isend(int dest, int tag, const void* data,
                          std::size_t bytes) {
  send(dest, tag, data, bytes);
  Request r;
  r.is_recv = false;
  r.peer = dest;
  r.tag = tag;
  r.bytes = bytes;
  r.done = true;
  return r;
}

Comm::Request Comm::irecv(int src, int tag, void* data, std::size_t bytes) {
  Request r;
  r.is_recv = true;
  r.peer = src;
  r.tag = tag;
  r.data = data;
  r.bytes = bytes;
  world_->irecv_posted(rank_);
  return r;
}

void Comm::wait(Request& r) {
  if (!r.done && r.is_recv) {
    receive(BlockedOp::Wait, r.peer, r.tag, r.data, r.bytes);
    world_->irecv_completed(rank_);
  }
  r.done = true;
}

void Comm::wait_all(std::vector<Request>& rs) {
  for (Request& r : rs) wait(r);
}

void Comm::barrier() {
  collective(BlockedOp::Barrier, nullptr, 0, ReduceOp::Sum);
}

void Comm::allreduce(double* vals, int n, ReduceOp op) {
  collective(BlockedOp::Allreduce, vals, n, op);
}

void Comm::collective(BlockedOp op, double* vals, int n, ReduceOp reduce) {
  // Collective seq: barriers and allreduces share one World generation
  // counter, so every rank passes the same sequence of collective calls
  // and the k-th collective span on each rank is the same instance —
  // that is what lets the critical-path walk find the last arriver.
  const long long seq = trace::enabled() ? coll_seq_++ : -1;
  trace::TraceSpan span(
      trace::Cat::Comm, to_string(op), {},
      trace::CommArgs{-1, -1, seq,
                      static_cast<unsigned long long>(n) * sizeof(double)});
  const seconds_t blocked = world_->allreduce(rank_, vals, n, reduce, op);
  comm_seconds_ += blocked;
  record_blocked(blocked);
}

double Comm::allreduce_sum(double v) {
  allreduce(&v, 1, ReduceOp::Sum);
  return v;
}
double Comm::allreduce_min(double v) {
  allreduce(&v, 1, ReduceOp::Min);
  return v;
}
double Comm::allreduce_max(double v) {
  allreduce(&v, 1, ReduceOp::Max);
  return v;
}

namespace {

std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

bool is_rank_failure(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const RankFailure&) {
    return true;
  } catch (...) {
    return false;
  }
}

std::string format_rank_errors(const std::vector<RankError>& errors) {
  std::ostringstream os;
  os << errors.size() << " rank(s) failed";
  for (const RankError& e : errors)
    os << "\n  rank " << e.rank << ": " << e.message;
  return os.str();
}

}  // namespace

MultiRankError::MultiRankError(std::vector<RankError> errors)
    : Error(format_rank_errors(errors)), errors_(std::move(errors)) {}

bool MultiRankError::any_rank_failure() const {
  for (const RankError& e : errors_)
    if (e.rank_failure) return true;
  return false;
}

std::vector<RankStats> run_ranks(int nranks,
                                 const std::function<void(Comm&)>& fn) {
  return run_ranks(nranks, fn, RunOptions{});
}

std::vector<RankStats> run_ranks(int nranks,
                                 const std::function<void(Comm&)>& fn,
                                 const RunOptions& opts) {
  BWLAB_REQUIRE(nranks >= 1, "run_ranks needs >= 1 rank, got " << nranks);
  World world(nranks);

  // bwlive: while this world is alive, the sampler sees its per-rank
  // census. The guard is declared after `world`, so on every exit path it
  // takes one final synchronous sample (the ranks' exact end state — what
  // makes the series' last cumulative values match the exit aggregates)
  // and then unregisters before the world dies; remove_provider blocks
  // until any in-flight sample is done with it.
  struct LiveGuard {
    int id = -1;
    explicit LiveGuard(World& w) {
      if (live::enabled())
        id = live::add_provider(
            [&w](std::map<std::string, double>& kv) { w.live_sample(kv); });
    }
    ~LiveGuard() {
      if (id < 0) return;
      if (live::running()) live::sample_now();
      live::remove_provider(id);
    }
  } live_guard(world);

  std::vector<RankStats> stats(static_cast<std::size_t>(nranks));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  auto body = [&](int r) {
    // Attribute this thread (and any ThreadPool it creates) to its rank's
    // trace track; Chrome pid = rank, tid 0 = the rank's main thread.
    trace::set_thread_track(r, 0, "rank " + std::to_string(r) + " main");
    Comm comm(world, r);
    try {
      fn(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      world.abort_all();
    }
    world.mark_done(r);
    RankStats& st = stats[static_cast<std::size_t>(r)];
    st.comm_seconds = comm.comm_seconds();
    st.messages_sent = comm.messages_sent();
    st.payload_bytes_sent = comm.payload_bytes_sent();
  };

  // Progress watchdog: a sustained "all live ranks blocked, activity
  // counter frozen" state cannot resolve itself (only ranks generate
  // traffic), so after the grace period it is a proven deadlock. It polls
  // on a condition the join signals, so it stops as soon as the run ends.
  std::thread watchdog;
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  if (opts.watchdog_grace_ms > 0) {
    watchdog = std::thread([&] {
      trace::set_thread_track(0, 1 << 16, "bwfault watchdog");
      const double poll_ms =
          std::clamp(opts.watchdog_grace_ms / 4.0, 5.0, 100.0);
      const auto poll =
          std::chrono::microseconds(static_cast<long>(poll_ms * 1e3));
      double stable_ms = 0;
      std::uint64_t last_activity = world.activity();
      std::unique_lock<std::mutex> lock(stop_mu);
      while (!stop_cv.wait_for(lock, poll, [&] { return stop; })) {
        if (world.all_done()) return;
        const std::uint64_t act = world.activity();
        if (act == last_activity && world.all_live_blocked()) {
          stable_ms += poll_ms;
          if (stable_ms >= opts.watchdog_grace_ms) {
            world.watchdog_fire(opts.watchdog_grace_ms);
            return;
          }
        } else {
          stable_ms = 0;
          last_activity = act;
        }
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks - 1));
  for (int r = 1; r < nranks; ++r) threads.emplace_back(body, r);
  body(0);
  for (std::thread& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      stop = true;
    }
    stop_cv.notify_one();
    watchdog.join();
  }

  // Aggregate every original failure (rank-id prefixed); cancellations
  // (AbortedError) are secondary and reported only if nothing else is.
  std::vector<RankError> fails;
  for (int r = 0; r < nranks; ++r) {
    const std::exception_ptr& e = errors[static_cast<std::size_t>(r)];
    if (e && !World::is_abort(e))
      fails.push_back(RankError{r, describe(e), is_rank_failure(e)});
  }
  if (!fails.empty()) throw MultiRankError(std::move(fails));
  if (world.watchdog_fired()) throw WatchdogError(world.watchdog_message());
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return stats;
}

}  // namespace bwlab::par
