// bwresil: online localized recovery for the SimMPI runtime stack.
//
// Three cooperating pieces:
//
//  * a resilient Comm policy (off by default, one relaxed atomic load at
//    every hook when disabled, same budget as bwfault) — par::Comm
//    sequences every point-to-point message and keeps a sender-side
//    replay log, so a receive that times out (a bwfault drop or long
//    delay) is retried from the log under bounded, seeded exponential
//    backoff instead of tripping the watchdog; when retries exhaust,
//    DegradedMode either continues with the stale buffer
//    (skip-and-extrapolate halo / stale allreduce) or raises a diagnosed
//    error — never a hang;
//
//  * a buddy-checkpoint board — each rank mirrors its committed
//    SnapshotStore bytes (ghosts included) to rank+1 mod N after every
//    checkpoint commit, so a crashed rank restores from its buddy while
//    the surviving ranks roll back locally to the same step. This is the
//    apps' only crash-recovery path (apps/resilient_loop.hpp) and does
//    not depend on the Comm policy;
//
//  * deterministic accounting — retry, degraded and rollback events are
//    counted (stats()), and recovery work is emitted as
//    trace::Cat::Fault "recovery:*" spans which bwcausal attributes to a
//    dedicated `recovery` critical-path bucket.
//
// Same policy + same seed + same fault plan => the same retry schedule
// and the same recovery decisions, which is what lets tools/fault_campaign
// gate survivability in CI like a perf number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bwlab::fault {
class SnapshotStore;
}

namespace bwlab::resil {

/// Process-wide resilience policy. Installed like a fault plan; every
/// knob is surfaced as a run_app flag (--resil, --retry-max,
/// --backoff-us, --degraded).
struct Policy {
  bool enabled = false;
  int retry_max = 8;             ///< receive retry attempts before giving up
  long long timeout_us = 2000;   ///< per-attempt receive timeout
  long long backoff_us = 100;    ///< initial backoff (doubles per attempt)
  long long backoff_cap_us = 20000;  ///< exponential backoff ceiling
  bool degraded = false;         ///< continue with stale data when exhausted
  std::uint64_t seed = 0;        ///< jitter stream seed (reuse --seed)
};

/// The run report's "policy" object (`enabled` is implied by the
/// section's presence).
template <class Io>
void fields(Io& io, Policy& p) {
  io("retry_max", p.retry_max);
  io("timeout_us", p.timeout_us);
  io("backoff_us", p.backoff_us);
  io("backoff_cap_us", p.backoff_cap_us);
  io("degraded", p.degraded);
  io("seed", p.seed);
}

/// Installs `policy` process-wide (and resets stats). A policy with
/// enabled=false is equivalent to clear().
void install(const Policy& policy);

/// Uninstalls the policy; hooks return to the single-load fast path.
void clear();

/// True when an enabled policy is installed (the hot-path guard).
bool active();

/// Copy of the installed policy (default-constructed when inactive).
Policy policy();

/// Deterministic bounded-exponential backoff with seeded jitter for
/// retry `attempt` (0-based) on `rank`: min(backoff_us << attempt, cap)
/// plus up to 25% SplitMix64 jitter keyed on (seed, rank, attempt) — a
/// pure function of the policy, never of execution timing.
long long backoff_delay_us(int rank, int attempt);

/// Recovery-event counters since the last install()/reset_stats().
struct Stats {
  long long retries = 0;         ///< receive retry attempts performed
  long long recovered = 0;       ///< receives satisfied after >= 1 retry
  long long degraded_events = 0; ///< degraded-mode continuations
  long long backoff_waits = 0;   ///< backoff sleeps taken
  long long rollbacks = 0;       ///< localized rollbacks (peer ranks)
  long long buddy_restores = 0;  ///< failed-rank restores from a buddy
};

Stats stats();
void reset_stats();

// Internal: counters bumped by the runtime and the recovery driver.
void count_retry();
void count_recovered();
void count_degraded();
void count_backoff();
void count_rollback();
void count_buddy_restore();

// --- Buddy-checkpoint board --------------------------------------------------
//
// The in-memory mirror exchange. Slot r holds the serialized snapshot of
// rank r, physically owned by its buddy rank (r+1) mod N — in SimMPI's
// ranks-as-threads world the board is process-global shared memory, and
// the mirror/restore traffic is surfaced through trace spans and the
// mirrored-byte counter rather than through mailbox messages (a mirror
// must survive precisely the faults the mailboxes are being injected
// with).

/// Which rank holds `rank`'s mirror.
inline int buddy_of(int rank, int nranks) { return (rank + 1) % nranks; }

/// Sizes the board for `nranks` slots, discarding previous mirrors.
void buddy_resize(int nranks);

/// Serializes `store` (committed snapshot, ghosts included) into slot
/// `rank`. Emits a "recovery:mirror" trace span.
void buddy_mirror(int rank, const fault::SnapshotStore& store);

/// Step of the mirror in slot `rank`, or -1 when empty.
long long buddy_step(int rank);

/// Restores `store` from slot `rank`'s mirror bytes (bitwise-faithful).
/// Diagnosed error when the slot is empty. Emits a "recovery:restore"
/// trace span and counts a buddy restore.
void buddy_restore(int rank, fault::SnapshotStore& store);

/// Raw mirror bytes of slot `rank` (empty when no mirror) — test hook
/// for bitwise-fidelity assertions.
std::vector<char> buddy_bytes(int rank);

/// Total bytes currently mirrored across all slots.
std::size_t buddy_total_bytes();

/// Clears all slots.
void buddy_clear();

}  // namespace bwlab::resil
