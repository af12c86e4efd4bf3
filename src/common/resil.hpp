// bwresil: online localized recovery for the SimMPI runtime stack.
//
// Three cooperating pieces:
//
//  * a resilient Comm policy (off by default, one relaxed atomic load at
//    every hook when disabled, same budget as bwfault) — par::Comm
//    sequences every point-to-point message and keeps a sender-side
//    replay log. SimMPI sees exactly when no rank can progress (every
//    live rank parked, no wait satisfiable); at that moment each blocked
//    receiver whose wanted message is in its sender's log is served from
//    it (a retry — this recovers a bwfault drop). Only when no log holds
//    it does DegradedMode act: the lowest-ranked blocked receiver
//    continues with its stale buffer (skip-and-extrapolate halo / stale
//    allreduce), or the run ends in a diagnosed error — never a hang. An
//    injected delay is no loss: the sender sleeps running, and the
//    receiver simply waits;
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
// No clock takes part in any recovery decision, so the same policy + the
// same fault plan => the same retries and the same recovery decisions,
// which is what lets tools/fault_campaign and CI gate them exactly.
#pragma once

#include <string>
#include <vector>

namespace bwlab::fault {
class SnapshotStore;
}

namespace bwlab::resil {

/// Process-wide resilience policy. Installed like a fault plan; both
/// knobs are run_app flags (--resil, --degraded).
struct Policy {
  bool enabled = false;
  bool degraded = false;  ///< continue with stale data when no log helps
};

/// The run report's "policy" object (`enabled` is implied by the
/// section's presence).
template <class Io>
void fields(Io& io, Policy& p) {
  io("degraded", p.degraded);
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

/// Recovery-event counters since the last install()/reset_stats().
struct Stats {
  long long retries = 0;         ///< retransmits from a replay log
  long long recovered = 0;       ///< receives served by a retransmit
  long long degraded_events = 0; ///< degraded-mode continuations
  long long rollbacks = 0;       ///< localized rollbacks (peer ranks)
  long long buddy_restores = 0;  ///< failed-rank restores from a buddy
};

Stats stats();
void reset_stats();

// Internal: counters bumped by the runtime and the recovery driver.
void count_retry();
void count_recovered();
void count_degraded();
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
