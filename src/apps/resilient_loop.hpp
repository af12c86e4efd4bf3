// bwresil: the shared resilient step loop of the distributed apps, and
// their only crash-recovery path.
//
// Every iteration opens with a health check: an elementwise max-allreduce
// of one failure flag per rank. Crash faults fire only at step tops
// (fault::on_step), so a rank that catches its own RankFailure flags
// itself *before* any step work starts — no point-to-point traffic is
// ever in flight at rollback time. When any flag is set, all ranks roll
// back symmetrically to the last committed checkpoint: each failed rank
// restores its store from its buddy's mirror (rank+1 mod N holds the
// serialized bytes), surviving ranks restore from their local stores,
// and everyone resumes at checkpoint step + 1 — or re-initializes to
// step 0 when no checkpoint exists. If a failed rank's buddy failed in
// the same turn, its mirror is lost and every rank raises the same
// diagnosed Error naming both ranks (a 1-rank run is its own buddy).
//
// The health allreduce doubles as the per-step lockstep barrier that
// keeps checkpoint steps, buddy mirrors and the resume step globally
// agreed. Checkpoint commits additionally mirror the serialized store to
// the buddy board, which the app sizes before launching its ranks.
#pragma once

#include <functional>
#include <vector>

#include "common/snapshot.hpp"
#include "par/simmpi.hpp"

namespace bwlab::apps {

/// One rank's step-loop configuration. The hooks close over the rank's
/// solver: `step` runs one full time step (halo exchanges, collectives
/// and all), `capture` commits a checkpoint of every field whose value
/// crosses a step at the given step, `restore` copies the store's
/// committed snapshot back into the fields, `reinit` rebuilds the
/// initial (step-0) state.
struct ResilientLoop {
  int rank = 0;
  par::Comm* comm = nullptr;  ///< null for single-rank runs
  long long iterations = 0;
  int checkpoint_every = 0;   ///< commit every K completed steps (0 = off)
  fault::SnapshotStore* store = nullptr;  ///< this rank's checkpoint store
  std::function<void(long long)> step;
  std::function<void(long long)> capture;
  std::function<void()> restore;
  std::function<void()> reinit;
};

/// What one run of the loop did. Every rank sees the same health flags,
/// so the recovery counts are identical on all ranks.
struct LoopRun {
  /// Steps this rank executed, rolled-back steps included, in execution
  /// order — the step-accounting witness.
  std::vector<long long> executed;
  long long rollbacks = 0;       ///< rollback events (one per failed turn)
  long long buddy_restores = 0;  ///< failed ranks restored from a mirror
};

/// Runs the loop to `iterations`, recovering every injected crash.
LoopRun run_resilient_loop(const ResilientLoop& lp);

}  // namespace bwlab::apps
