// bwfault: deterministic fault injection for the SimMPI runtime stack.
//
// A FaultPlan is parsed from a compact spec string and installed globally;
// the runtime calls the (cheap, single-atomic-load when inactive) hooks at
// its injection points:
//
//   drop:rank=R,msg=K          swallow the K-th point-to-point message
//                              sent by rank R (0-based send index)
//   delay:rank=R,us=U[,msg=K]  delay message K of rank R (default: the
//                              next one) by U microseconds before delivery
//   crash:rank=R,step=N        throw par::RankFailure when rank R begins
//                              application step N (apps call on_step)
//   flip:rank=R,byte=B[,msg=K] XOR byte B (mod payload size) of message K
//                              with a nonzero seed-derived mask
//
// Entries are ';'-separated and each fires exactly once (one-shot), so a
// rolled-back step re-runs past a crash instead of re-crashing.
// Same spec + same seed => the same fault event sequence (events()), which
// turns every injected failure into a reproducible test case. Fired events
// are also emitted as trace::Cat::Fault spans for the Perfetto timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bwlab::par {

/// Thrown by fault::on_step to kill a rank at its injection step. The
/// apps with checkpoints catch it in their resilient step loop and roll
/// back; anywhere else it stays fatal like any other exception.
class RankFailure : public Error {
 public:
  RankFailure(int rank, long long step)
      : Error("injected rank failure: rank " + std::to_string(rank) +
              " killed at step " + std::to_string(step)),
        rank_(rank), step_(step) {}
  int rank() const { return rank_; }
  long long step() const { return step_; }

 private:
  int rank_;
  long long step_;
};

}  // namespace bwlab::par

namespace bwlab::fault {

enum class Kind { Drop, Delay, Crash, Flip };

const char* to_string(Kind k);

/// One parsed spec entry. Fields not used by a kind stay at their
/// defaults (`msg = -1` on Delay means "the next message sent").
struct Spec {
  Kind kind = Kind::Drop;
  int rank = 0;
  long long msg = -1;    ///< send index the fault targets (Drop/Delay/Flip)
  long long step = -1;   ///< application step (Crash)
  long long us = 0;      ///< delay in microseconds (Delay)
  long long byte = 0;    ///< payload byte offset, mod size (Flip)
};

/// A fault that actually fired, in program order per rank. The log is the
/// determinism witness: two runs with the same plan+seed produce equal
/// sequences.
struct Event {
  Kind kind;
  int rank;            ///< rank the fault fired on
  int peer;            ///< message destination (-1 for Crash)
  int tag;             ///< message tag (-1 for Crash)
  long long msg_index; ///< per-rank send index (-1 for Crash)
  long long step;      ///< application step (-1 for message faults)
  std::uint64_t detail;///< flip mask / delay us / 0

  bool operator==(const Event&) const = default;
};

/// Immutable parse result of a fault spec string.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses `spec` (see file header); throws bwlab::Error with the
  /// offending clause on malformed input. The seed feeds the flip masks.
  static FaultPlan parse(const std::string& spec, std::uint64_t seed);

  const std::vector<Spec>& specs() const { return specs_; }
  std::uint64_t seed() const { return seed_; }
  bool empty() const { return specs_.empty(); }

  /// Canonical spec string (round-trips through parse()).
  std::string str() const;

 private:
  std::vector<Spec> specs_;
  std::uint64_t seed_ = 0;
};

/// Installs `plan` as the process-wide active plan (re-arms every entry
/// and clears the event log). Passing an empty plan is equivalent to
/// clear().
void install(const FaultPlan& plan);

/// Removes the active plan; hooks return to their single-load fast path.
void clear();

/// True when a non-empty plan is installed (the hot-path guard).
bool active();

/// What Comm::send should do with a message after the hook ran. The hook
/// itself applies delays and payload flips in place.
enum class MsgAction { Deliver, Drop };

/// Point-to-point injection hook; called by par::Comm::send with the
/// mutable payload before delivery. No-op (Deliver) when inactive.
MsgAction on_send(int rank, int dest, int tag, void* payload,
                  std::size_t bytes);

/// Step injection hook; called by the app drivers at the top of each
/// time step. Throws par::RankFailure on a matching (one-shot) crash
/// entry. No-op when inactive.
void on_step(int rank, long long step);

/// Fault events fired since install(), in firing order (cross-rank order
/// is serialized under the plan lock, so per-rank subsequences are always
/// deterministic; with faults on distinct ranks the full sequence is too).
std::vector<Event> events();

// --- NaN/Inf field guard -----------------------------------------------------

/// Post-loop policy for non-finite values in written fields: Off (free),
/// Report (count into metrics `guard.nonfinite_fields` + trace event),
/// Abort (throw bwlab::Error naming the loop, dat and first bad index).
enum class NanPolicy { Off, Report, Abort };

void set_nan_policy(NanPolicy p);
NanPolicy nan_policy();  ///< single relaxed atomic load

/// Internal: record a guard finding (metrics + trace); throws on Abort.
void report_nonfinite(const std::string& loop, const std::string& dat,
                      long long first_index, long long count);

}  // namespace bwlab::fault
