// SimMPI: a functional stand-in for intra-node MPI, executing ranks as
// host threads that exchange messages through shared-memory mailboxes.
//
// This substitutes for Intel MPI in the reproduction: the applications'
// halo-exchange code paths (pack / isend / irecv / wait / unpack,
// allreduce for time-step control and field summaries) run for real and
// are tested for correctness. Blocked time is accounted per rank, which is
// the functional analogue of the paper's MPI_Wait measurements (Figure 7);
// *modeled* communication times for the paper's platforms come from
// sim::CommModel instead.
//
// Robustness (bwfault): run_ranks never hangs and never loses an error.
// Every rank state lives under one world lock, so a deadlock is seen
// exactly, when it happens: once the last live rank parks with no wait
// satisfiable, the run ends in a WatchdogError carrying a per-rank
// diagnostic dump — no timer, no grace period. A rank that throws wakes
// every blocked peer promptly, and the join aggregates *all* rank errors
// into one MultiRankError instead of rethrowing an arbitrary one. Fault
// injection hooks (common/fault.hpp) sit on the send path and can drop,
// delay, or corrupt messages deterministically; an injected delay sleeps
// in the sender, which counts as running.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace bwlab::par {

enum class ReduceOp { Sum, Min, Max };

class World;
enum class BlockedOp;  ///< what a rank is blocked in (simmpi.cpp)

/// Per-rank communicator handle, valid only inside run_ranks().
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // --- Point-to-point ------------------------------------------------------
  /// Eager buffered send: copies `bytes` and returns immediately.
  void send(int dest, int tag, const void* data, std::size_t bytes);
  /// Blocking receive. The matching send's size must equal `bytes`
  /// exactly; a mismatch is a diagnosed error naming rank, peer, tag and
  /// both sizes.
  void recv(int src, int tag, void* data, std::size_t bytes);

  /// Nonblocking handles. isend is eagerly buffered (already complete);
  /// irecv records the posting and completes inside wait(). peer, tag and
  /// bytes are filled for both directions so wait spans can carry them as
  /// trace args without re-deriving them from the mailbox.
  struct Request {
    bool is_recv = false;
    int peer = -1;
    int tag = -1;
    void* data = nullptr;
    std::size_t bytes = 0;
    bool done = false;
  };
  Request isend(int dest, int tag, const void* data, std::size_t bytes);
  Request irecv(int src, int tag, void* data, std::size_t bytes);
  void wait(Request& r);
  void wait_all(std::vector<Request>& rs);

  // --- Collectives ---------------------------------------------------------
  void barrier();
  /// In-place elementwise allreduce over all ranks.
  void allreduce(double* vals, int n, ReduceOp op);
  double allreduce_sum(double v);
  double allreduce_min(double v);
  double allreduce_max(double v);

  /// Wall-clock seconds this rank has spent blocked in recv / wait /
  /// collectives so far (the MPI_Wait analogue).
  seconds_t comm_seconds() const { return comm_seconds_; }

  /// Point-to-point messages sent by this rank (send + isend).
  count_t messages_sent() const { return msgs_sent_; }
  /// Payload bytes sent by this rank (send + isend).
  count_t payload_bytes_sent() const { return bytes_sent_; }

  /// Internal: constructed by run_ranks for each rank.
  Comm(World& world, int rank) : world_(&world), rank_(rank) {}

 private:
  /// The one blocking receive behind recv and wait: the recv seq, the
  /// span, the flow finish and the blocked-time accounting.
  void receive(BlockedOp op, int src, int tag, void* data, std::size_t bytes);
  /// The one collective behind barrier (no values) and allreduce.
  void collective(BlockedOp op, double* vals, int n, ReduceOp reduce);

  World* world_;
  int rank_;
  seconds_t comm_seconds_ = 0.0;
  count_t msgs_sent_ = 0;
  count_t bytes_sent_ = 0;
  // bwcausal correlation counters, advanced only while tracing is
  // enabled: delivered (not merely attempted — an injected drop does not
  // advance) point-to-point messages per (peer, tag) on the send side,
  // completed receives per (peer, tag) on the receive side, and the
  // global collective sequence. Mailbox matching is FIFO per (src, tag),
  // so both sides independently assign the same seq to the same message.
  std::map<std::pair<int, int>, long long> send_seq_;
  std::map<std::pair<int, int>, long long> recv_seq_;
  long long coll_seq_ = 0;
};

/// Outcome of one rank's execution.
struct RankStats {
  seconds_t comm_seconds = 0.0;  ///< blocked in recv/wait/collectives
  count_t messages_sent = 0;     ///< point-to-point messages (send + isend)
  count_t payload_bytes_sent = 0;  ///< payload bytes (send + isend)
};

/// One rank's failure inside run_ranks.
struct RankError {
  int rank = -1;
  std::string message;
  bool rank_failure = false;  ///< thrown par::RankFailure (injected crash)
};

/// Every non-cancellation error of a run_ranks execution, rank-id
/// prefixed. Peers cancelled by the failure (poisoned mailboxes) are not
/// listed — only original causes are.
class MultiRankError : public Error {
 public:
  explicit MultiRankError(std::vector<RankError> errors);
  const std::vector<RankError>& errors() const { return errors_; }
  /// True if any failed rank died of an injected crash (RankFailure).
  bool any_rank_failure() const;

 private:
  std::vector<RankError> errors_;
};

/// Thrown by run_ranks when it diagnosed a deadlock: every live rank
/// blocked in recv/wait/barrier/allreduce and no wait satisfiable (with
/// the bwresil policy on: not even from a replay log or by a degraded
/// continue). Raised the moment the last live rank parks; what() carries
/// the per-rank dump (blocking operation, peer, tag, bytes, pending
/// irecvs, mailbox contents, send counters).
class WatchdogError : public Error {
 public:
  explicit WatchdogError(const std::string& dump) : Error(dump) {}
};

/// Human-readable name of a blocked-op code as exported by the bwlive
/// per-rank census ("rank.<R>.blocked_op"): 0 running, 1 recv, 2 wait,
/// 3 barrier, 4 allreduce, 6 done. "?" for anything else (5, the
/// retired retry backoff, included).
const char* blocked_op_name(int code);

/// Runs `fn(comm)` on `nranks` ranks (threads) and joins them. Failures
/// are aggregated: every rank's own exception (never the secondary
/// cancellations) is reported through one MultiRankError; a deadlock is
/// reported as a WatchdogError instead of hanging.
std::vector<RankStats> run_ranks(int nranks,
                                 const std::function<void(Comm&)>& fn);

}  // namespace bwlab::par
