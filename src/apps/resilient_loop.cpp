#include "apps/resilient_loop.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/live.hpp"
#include "common/metrics.hpp"
#include "common/resil.hpp"
#include "common/trace.hpp"

namespace bwlab::apps {

namespace {

bool checkpoint_due(const ResilientLoop& lp, long long it) {
  return lp.checkpoint_every > 0 && (it + 1) % lp.checkpoint_every == 0 &&
         it + 1 < lp.iterations;
}

/// Rollback after the health check flagged the ranks in `failed`.
/// Returns the resume step. Symmetric across ranks by construction: all
/// see the same flags, and commits (with their buddy mirrors) happen at
/// the same steps everywhere, so `committed` and every decision agree.
long long rollback(const ResilientLoop& lp, const std::vector<double>& failed,
                   long long committed, LoopRun& run) {
  trace::TraceSpan span(trace::Cat::Fault, "recovery:rollback");
  const int nranks = static_cast<int>(failed.size());
  long long nfailed = 0;
  for (int r = 0; r < nranks; ++r) {
    if (failed[static_cast<std::size_t>(r)] == 0) continue;
    ++nfailed;
    // Only a committed checkpoint has a mirror to lose.
    const int b = resil::buddy_of(r, nranks);
    BWLAB_REQUIRE(committed < 0 || b == r ||
                      failed[static_cast<std::size_t>(b)] == 0,
                  "rank " << r << " and its buddy rank " << b
                          << " failed at the same step: the mirror of rank "
                          << r << "'s checkpoint (step " << committed
                          << ") is lost");
  }
  ++run.rollbacks;
  // One rollback *event* spans all ranks; count it once.
  if (lp.rank == 0) {
    static Counter& rollbacks =
        MetricsRegistry::global().counter("recovery.rollbacks");
    rollbacks.inc();
    resil::count_rollback();
  }
  if (committed < 0) {
    lp.reinit();
    return 0;
  }
  run.buddy_restores += nfailed;
  if (failed[static_cast<std::size_t>(lp.rank)] != 0) {
    // The failed rank's own state (store included) is considered lost;
    // its buddy holds the serialized snapshot.
    resil::buddy_restore(lp.rank, *lp.store);
    BWLAB_REQUIRE(lp.store->step() == committed,
                  "rank " << lp.rank << "'s buddy mirror is at step "
                          << lp.store->step() << ", expected " << committed);
    lp.restore();
  } else {
    trace::TraceSpan rspan(trace::Cat::Fault, "recovery:restore");
    lp.restore();
  }
  return committed + 1;
}

}  // namespace

LoopRun run_resilient_loop(const ResilientLoop& lp) {
  BWLAB_REQUIRE(lp.step != nullptr && lp.reinit != nullptr,
                "resilient loop needs step and reinit hooks");
  BWLAB_REQUIRE(lp.checkpoint_every <= 0 || lp.store != nullptr,
                "resilient loop checkpoints need a store");
  LoopRun run;
  long long committed = -1;  // step of the last checkpoint commit
  // Iterations stay in lockstep across ranks (one health allreduce per
  // loop turn), so the allreduce counts always match up.
  std::vector<double> failed(
      static_cast<std::size_t>(lp.comm != nullptr ? lp.comm->size() : 1));
  long long it = 0;
  while (it < lp.iterations) {
    std::fill(failed.begin(), failed.end(), 0.0);
    try {
      fault::on_step(lp.rank, it);
      live::on_step(lp.rank);
    } catch (const par::RankFailure&) {
      failed[static_cast<std::size_t>(lp.rank)] = 1;
    }
    if (lp.comm != nullptr)
      lp.comm->allreduce(failed.data(), static_cast<int>(failed.size()),
                         par::ReduceOp::Max);
    if (std::find(failed.begin(), failed.end(), 1.0) != failed.end()) {
      it = rollback(lp, failed, committed, run);
      continue;
    }
    // Health check passed: crash faults only fire at step tops, so this
    // step runs crash-free on every rank; drops and delays inside it
    // are survived by the Comm layer (or diagnosed as a deadlock).
    lp.step(it);
    run.executed.push_back(it);
    if (checkpoint_due(lp, it)) {
      lp.capture(it);
      resil::buddy_mirror(lp.rank, *lp.store);
      committed = it;
    }
    ++it;
  }
  return run;
}

}  // namespace bwlab::apps
