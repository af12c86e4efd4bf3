#include "common/resil.hpp"

#include <atomic>
#include <mutex>

#include "common/error.hpp"
#include "common/gate.hpp"
#include "common/metrics.hpp"
#include "common/snapshot.hpp"
#include "common/trace.hpp"

namespace bwlab::resil {

namespace {

std::mutex g_mu;
Policy g_policy;                    // guarded by g_mu
Gate g_active;  // hot-path guard (common/gate.hpp)

// Counters are plain atomics: bumped from rank threads mid-recovery,
// read post-join by reports and the campaign driver.
std::atomic<long long> g_retries{0};
std::atomic<long long> g_recovered{0};
std::atomic<long long> g_degraded{0};
std::atomic<long long> g_rollbacks{0};
std::atomic<long long> g_buddy_restores{0};

// Buddy board: slot r = serialized snapshot of rank r (held by its
// buddy). Guarded by g_mu; mirrors happen at checkpoint commits and
// restores at rollbacks, never on the per-message hot path.
std::vector<std::vector<char>> g_board;
std::vector<long long> g_board_step;

}  // namespace

void install(const Policy& policy) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_policy = policy;
  g_active.set(policy.enabled);
  reset_stats();
}

void clear() { install(Policy{}); }

bool active() { return g_active.enabled(); }

Policy policy() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_policy;
}

Stats stats() {
  Stats s;
  s.retries = g_retries.load(std::memory_order_relaxed);
  s.recovered = g_recovered.load(std::memory_order_relaxed);
  s.degraded_events = g_degraded.load(std::memory_order_relaxed);
  s.rollbacks = g_rollbacks.load(std::memory_order_relaxed);
  s.buddy_restores = g_buddy_restores.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() {
  g_retries.store(0, std::memory_order_relaxed);
  g_recovered.store(0, std::memory_order_relaxed);
  g_degraded.store(0, std::memory_order_relaxed);
  g_rollbacks.store(0, std::memory_order_relaxed);
  g_buddy_restores.store(0, std::memory_order_relaxed);
}

void count_retry() { g_retries.fetch_add(1, std::memory_order_relaxed); }
void count_recovered() { g_recovered.fetch_add(1, std::memory_order_relaxed); }
void count_degraded() { g_degraded.fetch_add(1, std::memory_order_relaxed); }
void count_rollback() { g_rollbacks.fetch_add(1, std::memory_order_relaxed); }
void count_buddy_restore() {
  g_buddy_restores.fetch_add(1, std::memory_order_relaxed);
}

void buddy_resize(int nranks) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_board.assign(static_cast<std::size_t>(nranks), {});
  g_board_step.assign(static_cast<std::size_t>(nranks), -1);
}

void buddy_mirror(int rank, const fault::SnapshotStore& store) {
  trace::TraceSpan span(trace::Cat::Fault, "recovery:mirror");
  std::vector<char> bytes = store.serialize();
  static Counter& mirrored =
      MetricsRegistry::global().counter("resil.buddy_bytes_mirrored");
  mirrored.inc(static_cast<count_t>(bytes.size()));
  std::lock_guard<std::mutex> lock(g_mu);
  BWLAB_REQUIRE(static_cast<std::size_t>(rank) < g_board.size(),
                "buddy board not sized for rank " << rank);
  g_board[static_cast<std::size_t>(rank)] = std::move(bytes);
  g_board_step[static_cast<std::size_t>(rank)] = store.step();
}

long long buddy_step(int rank) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (static_cast<std::size_t>(rank) >= g_board_step.size()) return -1;
  return g_board_step[static_cast<std::size_t>(rank)];
}

void buddy_restore(int rank, fault::SnapshotStore& store) {
  trace::TraceSpan span(trace::Cat::Fault, "recovery:restore");
  std::vector<char> bytes;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    BWLAB_REQUIRE(static_cast<std::size_t>(rank) < g_board.size() &&
                      !g_board[static_cast<std::size_t>(rank)].empty(),
                  "no buddy mirror for rank " << rank);
    bytes = g_board[static_cast<std::size_t>(rank)];
  }
  store.deserialize(bytes);
  count_buddy_restore();
}

std::vector<char> buddy_bytes(int rank) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (static_cast<std::size_t>(rank) >= g_board.size()) return {};
  return g_board[static_cast<std::size_t>(rank)];
}

std::size_t buddy_total_bytes() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::size_t total = 0;
  for (const auto& slot : g_board) total += slot.size();
  return total;
}

void buddy_clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_board.clear();
  g_board_step.clear();
}

}  // namespace bwlab::resil
