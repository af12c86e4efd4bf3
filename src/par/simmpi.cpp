#include "par/simmpi.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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

/// What a rank is currently blocked in, for the deadlock dump. The values
/// are the bwlive census codes ("rank.<R>.blocked_op"); 5 is retired, so
/// saved series keep decoding Done as 6.
enum class BlockedOp {
  None = 0,
  Recv = 1,
  Wait = 2,
  Barrier = 3,
  Allreduce = 4,
  Done = 6
};

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
  /// Retransmitted from the sender's replay log by the stall check.
  bool replayed = false;
};

/// Thrown into ranks blocked on communication when a peer rank failed (or
/// a deadlock was diagnosed); run_ranks reports the original cause instead
/// of these secondary cancellations.
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
    case BlockedOp::Done: return "done";
  }
  return "?";
}

bool is_receive(BlockedOp op) {
  return op == BlockedOp::Recv || op == BlockedOp::Wait;
}

}  // namespace

const char* blocked_op_name(int code) {
  switch (code) {
    case 0: case 1: case 2: case 3: case 4: case 6:
      return to_string(static_cast<BlockedOp>(code));
  }
  return "?";
}

/// Shared state of one run_ranks() execution. One mutex guards all of it
/// (mailboxes, the collective, rank phases and the bwresil streams), so
/// "no rank can make progress" is observed exactly: a rank *parks* only
/// after finding its wait predicate false under that lock, a rank that
/// makes another's predicate true unparks it in the same critical section,
/// and when the last live rank parks (or finishes) with every other live
/// rank parked, nothing outside World can change anything any more. That
/// moment is the stall check: a bwresil retransmit, a degraded continue,
/// or a diagnosed deadlock — never a timer.
class World {
 public:
  explicit World(int nranks)
      : n_(nranks), live_(nranks), ranks_(static_cast<std::size_t>(nranks)),
        sends_(static_cast<std::size_t>(nranks)),
        bytes_(static_cast<std::size_t>(nranks)),
        pending_irecv_(static_cast<std::size_t>(nranks)),
        mailbox_n_(static_cast<std::size_t>(nranks)),
        phase_op_(static_cast<std::size_t>(nranks)) {}

  int size() const { return n_; }

  void deliver(int src, int dest, int tag, const void* data,
               std::size_t bytes, long long seq = -1) {
    BWLAB_REQUIRE(dest >= 0 && dest < n_, "send to invalid rank " << dest);
    Message msg{src, tag, {}, seq};
    msg.payload.assign(static_cast<const char*>(data),
                       static_cast<const char*>(data) + bytes);
    sends_[static_cast<std::size_t>(src)].fetch_add(
        1, std::memory_order_relaxed);
    bytes_[static_cast<std::size_t>(src)].fetch_add(
        static_cast<long long>(bytes), std::memory_order_relaxed);
    RankState& to = rank(dest);
    bool woke = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      to.mailbox.push_back(std::move(msg));
      sync_mailbox_gauge(dest);
      woke = release(dest);
    }
    // Outside the lock, so the receiver does not wake into a held mutex.
    if (woke) to.cv.notify_one();
  }

  /// bwresil send-side bookkeeping, called *before* the fault hook so an
  /// injected drop is recoverable: stamps the message with the next wire
  /// seq of its (src, dest, tag) stream and appends a payload copy to the
  /// replay log. Entries are pruned when the receiver acknowledges
  /// consumption (resil_consume).
  long long resil_stamp_send(int src, int dest, int tag, const void* data,
                             std::size_t bytes) {
    ReplayEntry e;
    e.payload.assign(static_cast<const char*>(data),
                     static_cast<const char*>(data) + bytes);
    const std::array<int, 3> key{src, dest, tag};
    std::lock_guard<std::mutex> lock(mu_);
    const long long seq = e.seq = resil_send_seq_[key]++;
    resil_replay_[key].push_back(std::move(e));
    return seq;
  }

  /// The one receive: blocks until the message `dest` expects from
  /// (src, tag) is in its mailbox, copies it into `data` and returns the
  /// time spent blocked. `op` (Recv or Wait) only names the call.
  ///
  /// With the bwresil policy off, the first (src, tag) message matches
  /// (FIFO). With it on, only the stream's next wire seq matches; the
  /// stall check may put that seq into the mailbox from the sender's
  /// replay log (a retransmit) or grant a degraded continue, which leaves
  /// `data` stale and advances the stream.
  seconds_t collect(int src, int dest, int tag, void* data,
                    std::size_t bytes, BlockedOp op) {
    BWLAB_REQUIRE(src >= 0 && src < n_, "recv from invalid rank " << src);
    const Timer timer;
    Message got{src, tag, {}};
    bool degraded = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Phase phase(*this, dest, op, src, tag, bytes);
      RankState& me = rank(dest);
      if (resil::active()) me.want = resil_recv_seq_[{dest, src, tag}];
      await(lock, dest);
      if (me.degrade) {
        degraded = true;
      } else {
        const auto match = find_match(dest);
        BWLAB_REQUIRE(match->payload.size() == bytes,
                      "message size mismatch: rank "
                          << dest << " receiving from rank " << src
                          << " tag " << tag << " expects " << bytes
                          << " bytes, matching send carries "
                          << match->payload.size());
        got = std::move(*match);
        me.mailbox.erase(match);
        sync_mailbox_gauge(dest);
      }
      if (me.want >= 0) resil_consume(src, dest, tag, me.want);
    }
    if (degraded) {
      // Skip-and-extrapolate: the destination buffer keeps the caller's
      // previous contents.
      trace::TraceSpan span(trace::Cat::Fault, "recovery:degraded");
      resil::count_degraded();
    } else if (got.replayed) {
      trace::TraceSpan span(trace::Cat::Fault, "recovery:replay");
      std::memcpy(data, got.payload.data(), bytes);
      resil::count_recovered();
    } else {
      std::memcpy(data, got.payload.data(), bytes);
    }
    return timer.elapsed();
  }

  /// The one collective: an in-place allreduce of `count` values per
  /// rank, folded in rank order by the last arrival, which never parks. A
  /// barrier is the same call with no values, so a barrier meeting an
  /// allreduce on another rank fails the count check. `op` (Barrier or
  /// Allreduce) only names the call.
  seconds_t allreduce(int r, double* vals, int count, ReduceOp reduce,
                      BlockedOp op) {
    const Timer timer;
    const auto len = static_cast<std::size_t>(count);
    std::unique_lock<std::mutex> lock(mu_);
    Phase phase(*this, r, op, -1, -1, len * sizeof(double));
    const std::size_t slots = len * static_cast<std::size_t>(n_);
    if (coll_.arrived == 0) coll_.buf.resize(slots);
    BWLAB_REQUIRE(coll_.buf.size() == slots,
                  "allreduce count mismatch across ranks");
    std::copy(vals, vals + count, coll_.buf.begin() + count * r);
    rank(r).gen = coll_.gen;
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
      for (int q = 0; q < n_; ++q) poke(q);
    } else {
      await(lock, r);
    }
    std::copy(coll_.result.begin(), coll_.result.end(), vals);
    return timer.elapsed();
  }

  /// Wakes every parked rank after a peer threw.
  void abort_all() {
    std::lock_guard<std::mutex> lock(mu_);
    abort_locked();
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

  /// Rank `r` returned (or threw): it leaves the live set, and if every
  /// rank still live is parked, nothing will wake them but the check.
  void mark_done(int r) {
    std::lock_guard<std::mutex> lock(mu_);
    set_phase(r, BlockedOp::Done, -1, -1, 0);
    if (--live_ > 0 && parked_ == live_) stalled();
  }

  void irecv_posted(int r) {
    pending_irecv_[static_cast<std::size_t>(r)].fetch_add(
        1, std::memory_order_relaxed);
  }
  void irecv_completed(int r) {
    pending_irecv_[static_cast<std::size_t>(r)].fetch_sub(
        1, std::memory_order_relaxed);
  }

  /// bwlive provider: per-rank census from the lock-free mirrors only
  /// (send counters, pending irecvs, mailbox occupancy, blocked-op code —
  /// see blocked_op_name). Safe to call from the sampler thread at any
  /// point while the world is alive; never takes the world lock a rank
  /// could be holding.
  void live_sample(std::map<std::string, double>& kv) const {
    kv["world.ranks"] = static_cast<double>(n_);
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

  /// The deadlock diagnosis, empty when the run had none.
  std::string deadlock_message() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deadlock_msg_;
  }

 private:
  struct RankState {
    BlockedOp op = BlockedOp::None;
    int peer = -1;
    int tag = -1;
    std::size_t bytes = 0;
    long long want = -1;   ///< bwresil wire seq to match (-1: policy off)
    count_t gen = 0;       ///< collective generation waited on
    bool degrade = false;  ///< granted a degraded continue by the check
    bool parked = false;   ///< waiting on cv; its predicate was false
    std::condition_variable cv;
    std::deque<Message> mailbox;
  };
  struct Collective {
    int arrived = 0;
    count_t gen = 0;
    std::vector<double> buf;  ///< one slot of `count` values per rank
    std::vector<double> result;
  };
  /// One logged send awaiting receiver acknowledgement (bwresil).
  struct ReplayEntry {
    long long seq = -1;
    std::vector<char> payload;
  };

  /// The bracket around every blocking call, built and destroyed under
  /// mu_: from construction `r` shows as blocked in `op` (to the dump and
  /// the bwlive census), and on every way out it shows as running again.
  class Phase {
   public:
    Phase(World& w, int r, BlockedOp op, int peer, int tag,
          std::size_t bytes)
        : w_(w), r_(r) {
      w_.set_phase(r, op, peer, tag, bytes);
    }
    ~Phase() { w_.set_phase(r_, BlockedOp::None, -1, -1, 0); }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    World& w_;
    int r_;
  };

  RankState& rank(int r) { return ranks_[static_cast<std::size_t>(r)]; }

  void set_phase(int r, BlockedOp op, int peer, int tag, std::size_t bytes) {
    // Lock-free mirror first: the bwlive sampler reads it without mu_.
    phase_op_[static_cast<std::size_t>(r)].store(static_cast<int>(op),
                                                std::memory_order_relaxed);
    RankState& s = rank(r);
    s.op = op;
    s.peer = peer;
    s.tag = tag;
    s.bytes = bytes;
    s.want = -1;
    s.degrade = false;
  }

  /// The message rank `r`'s receive matches, or mailbox.end(). A message
  /// with a stale seq (one a degraded continue skipped) is dropped.
  std::deque<Message>::iterator find_match(int r) {
    RankState& s = rank(r);
    const auto ours = [&](const Message& m) {
      return m.src == s.peer && m.tag == s.tag;
    };
    if (s.want >= 0 && std::erase_if(s.mailbox, [&](const Message& m) {
          return ours(m) && m.seq >= 0 && m.seq < s.want;
        }))
      sync_mailbox_gauge(r);
    return std::find_if(s.mailbox.begin(), s.mailbox.end(),
                        [&](const Message& m) {
                          return ours(m) &&
                                 (s.want < 0 || m.seq < 0 || m.seq == s.want);
                        });
  }

  /// The one wait predicate, run by the waiting rank and by every check.
  bool ready(int r) {
    RankState& s = rank(r);
    if (is_receive(s.op))
      return s.degrade || find_match(r) != s.mailbox.end();
    if (s.op == BlockedOp::Barrier || s.op == BlockedOp::Allreduce)
      return coll_.gen != s.gen;
    return true;
  }

  /// Parks rank `r` until its predicate holds. An abort ends only a wait
  /// that cannot complete: a rank whose message or collective result is
  /// there takes it, and runs on to its own diagnosis if it has one.
  void await(std::unique_lock<std::mutex>& lock, int r) {
    RankState& s = rank(r);
    while (!ready(r)) {
      if (aborted_) throw AbortedError();
      s.parked = true;
      if (++parked_ == live_) stalled();
      s.cv.wait(lock, [&] { return !s.parked; });
    }
  }

  /// Unparks rank `r` if it is parked and its predicate now holds; the
  /// caller notifies its cv.
  bool release(int r) {
    RankState& s = rank(r);
    if (!s.parked || !ready(r)) return false;
    unpark(s);
    return true;
  }

  void unpark(RankState& s) {
    s.parked = false;
    --parked_;
  }

  /// release() and notify under the lock.
  bool poke(int r) {
    if (!release(r)) return false;
    rank(r).cv.notify_one();
    return true;
  }

  /// Every live rank is parked: re-evaluate each predicate; failing that,
  /// with the bwresil policy on, retransmit from the replay logs (every
  /// receiver whose wanted seq is logged, in rank order) or grant the
  /// lowest-ranked receiver a degraded continue; failing that, the run is
  /// deadlocked.
  void stalled() {
    if (aborted_) return;
    bool woke = false;
    for (int r = 0; r < n_; ++r) woke |= poke(r);
    if (!woke && resil::active()) {
      for (int r = 0; r < n_; ++r) woke |= replay(r);
      if (!woke && resil::policy().degraded)
        for (int r = 0; r < n_ && !woke; ++r) {
          RankState& s = rank(r);
          if (!s.parked || !is_receive(s.op)) continue;
          s.degrade = true;
          woke = poke(r);
        }
    }
    if (!woke) deadlock();
  }

  /// Puts the replay-log entry parked receiver `r` waits for into its
  /// mailbox (a retransmit) and wakes it; false when no log holds it.
  bool replay(int r) {
    RankState& s = rank(r);
    if (!s.parked || !is_receive(s.op) || s.want < 0) return false;
    const auto log = resil_replay_.find({s.peer, r, s.tag});
    if (log == resil_replay_.end()) return false;
    for (const ReplayEntry& e : log->second) {
      if (e.seq != s.want) continue;
      s.mailbox.push_back(Message{s.peer, s.tag, e.payload, e.seq, true});
      sync_mailbox_gauge(r);
      resil::count_retry();
      return poke(r);
    }
    return false;
  }

  void deadlock() {
    trace::TraceSpan span(trace::Cat::Fault, "watchdog:deadlock");
    static Counter& found =
        MetricsRegistry::global().counter("watchdog.deadlocks");
    found.inc();
    deadlock_msg_ =
        "bwfault: no progress possible — every live rank is blocked and "
        "no wait can be satisfied; aborting the run\n" +
        dump();
    abort_locked();
  }

  void abort_locked() {
    aborted_ = true;
    for (RankState& s : ranks_) {
      if (!s.parked) continue;
      unpark(s);
      s.cv.notify_one();
    }
  }

  /// Per-rank diagnostic dump for the deadlock message: blocked operation
  /// + peer/tag/bytes, pending-irecv census, send counters, and the
  /// messages sitting unmatched in each mailbox.
  std::string dump() const {
    std::ostringstream os;
    for (int r = 0; r < n_; ++r) {
      const auto rs = static_cast<std::size_t>(r);
      const RankState& s = ranks_[rs];
      os << "  rank " << r << ": ";
      switch (s.op) {
        case BlockedOp::Recv:
        case BlockedOp::Wait:
          os << "blocked in " << to_string(s.op) << "(src=" << s.peer
             << ", tag=" << s.tag << ", bytes=" << s.bytes << ")";
          break;
        case BlockedOp::Barrier:
          os << "blocked in barrier";
          break;
        case BlockedOp::Allreduce:
          os << "blocked in allreduce(bytes=" << s.bytes << ")";
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
      if (s.mailbox.empty()) {
        os << "; mailbox empty";
      } else {
        os << "; mailbox holds " << s.mailbox.size() << " unmatched:";
        for (const Message& m : s.mailbox)
          os << " [src=" << m.src << " tag=" << m.tag << " bytes="
             << m.payload.size() << "]";
      }
      os << "\n";
    }
    return os.str();
  }

  /// Refreshes the lock-free mailbox-occupancy mirror; caller holds mu_.
  void sync_mailbox_gauge(int r) {
    mailbox_n_[static_cast<std::size_t>(r)].store(
        static_cast<long long>(rank(r).mailbox.size()),
        std::memory_order_relaxed);
  }

  /// Acknowledges consumption of wire seq `seq`: advances the expected
  /// receive seq and prunes acknowledged entries from the replay log.
  void resil_consume(int src, int dest, int tag, long long seq) {
    resil_recv_seq_[{dest, src, tag}] = seq + 1;
    auto it = resil_replay_.find({src, dest, tag});
    if (it == resil_replay_.end()) return;
    auto& log = it->second;
    while (!log.empty() && log.front().seq <= seq) log.pop_front();
  }

  const int n_;
  mutable std::mutex mu_;
  int live_;        ///< ranks not Done
  int parked_ = 0;  ///< ranks parked in await()
  bool aborted_ = false;
  std::string deadlock_msg_;
  std::vector<RankState> ranks_;
  Collective coll_;

  std::vector<std::atomic<long long>> sends_;
  std::vector<std::atomic<long long>> bytes_;
  std::vector<std::atomic<long long>> pending_irecv_;
  /// Lock-free mirrors for the bwlive sampler: mailbox occupancy and the
  /// current BlockedOp code per rank (both written under mu_).
  std::vector<std::atomic<long long>> mailbox_n_;
  std::vector<std::atomic<int>> phase_op_;

  // bwresil per-stream state: wire seq counters and the sender-side
  // replay log, all keyed (src, dest, tag) — except recv seqs, keyed
  // (dest, src, tag). Touched only when a policy is active.
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

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks - 1));
  for (int r = 1; r < nranks; ++r) threads.emplace_back(body, r);
  body(0);
  for (std::thread& t : threads) t.join();

  // Aggregate every original failure (rank-id prefixed); cancellations
  // (AbortedError) are secondary and reported only if nothing else is.
  std::vector<RankError> fails;
  for (int r = 0; r < nranks; ++r) {
    const std::exception_ptr& e = errors[static_cast<std::size_t>(r)];
    if (e && !World::is_abort(e))
      fails.push_back(RankError{r, describe(e), is_rank_failure(e)});
  }
  if (!fails.empty()) throw MultiRankError(std::move(fails));
  if (std::string dump = world.deadlock_message(); !dump.empty())
    throw WatchdogError(dump);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return stats;
}

}  // namespace bwlab::par
