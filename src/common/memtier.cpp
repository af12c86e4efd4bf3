#include "common/memtier.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "common/error.hpp"

namespace bwlab::memtier {

namespace detail {
Gate g_on;
}  // namespace detail

namespace {

std::mutex g_mu;
Config g_cfg;
// Remaining packable capacity per tier (parallel to g_cfg.tiers);
// negative values never occur — a tier that cannot hold the next dat is
// skipped whole, mirroring a page-granular but dat-contiguous placement.
std::vector<double> g_remaining;
std::vector<Placement> g_placements;
std::unordered_set<std::string> g_decided;  // dat names placed so far

// The packing walk shared by auto and firsttouch: first tier (fastest
// first) that is unbounded or still fits the dat; when nothing fits, the
// slowest tier takes the overflow (DRAM never refuses an allocation).
std::size_t pack(std::uint64_t bytes) {
  for (std::size_t i = 0; i < g_cfg.tiers.size(); ++i) {
    if (g_cfg.tiers[i].capacity_bytes <= 0) return i;  // unbounded
    if (g_remaining[i] >= static_cast<double>(bytes)) return i;
  }
  return g_cfg.tiers.size() - 1;
}

std::size_t decide(std::uint64_t bytes) {
  if (g_cfg.policy == "auto" || g_cfg.policy == "firsttouch")
    return pack(bytes);
  for (std::size_t i = 0; i < g_cfg.tiers.size(); ++i)
    if (g_cfg.tiers[i].name == g_cfg.policy) return i;
  return 0;  // unreachable: install() validated the pin
}

}  // namespace

void install(Config cfg) {
  BWLAB_REQUIRE(!cfg.tiers.empty(), "memtier: config needs at least one tier");
  BWLAB_REQUIRE(cfg.numa_domains >= 1,
                "memtier: numa_domains must be >= 1, got " << cfg.numa_domains);
  const bool packing = cfg.policy == "auto" || cfg.policy == "firsttouch";
  if (!packing) {
    bool found = false;
    std::string names;
    for (const Tier& t : cfg.tiers) {
      found = found || t.name == cfg.policy;
      names += (names.empty() ? "" : "|") + t.name;
    }
    BWLAB_REQUIRE(found, "memtier: policy '" << cfg.policy
                         << "' names no tier of this machine"
                         << " (expected auto|firsttouch|" << names << ")");
  }
  std::lock_guard<std::mutex> lock(g_mu);
  g_cfg = std::move(cfg);
  g_remaining.clear();
  for (const Tier& t : g_cfg.tiers) {
    double cap = t.capacity_bytes;
    // First-touch pages land in the allocating NUMA domain, so each
    // domain can only pack its SNC slice of the tier.
    if (g_cfg.policy == "firsttouch")
      cap /= static_cast<double>(g_cfg.numa_domains);
    g_remaining.push_back(cap);
  }
  g_placements.clear();
  g_decided.clear();
  detail::g_on.enable();
}

void uninstall() {
  detail::g_on.disable();
  std::lock_guard<std::mutex> lock(g_mu);
  g_cfg = Config{};
  g_remaining.clear();
  g_placements.clear();
  g_decided.clear();
}

namespace detail {

void record(const std::string& name, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_cfg.tiers.empty()) return;  // raced with uninstall()
  if (!g_decided.insert(name).second) return;  // first allocation won
  const std::size_t t = decide(bytes);
  if (g_cfg.tiers[t].capacity_bytes > 0)
    g_remaining[t] =
        std::max(0.0, g_remaining[t] - static_cast<double>(bytes));
  g_placements.push_back({name, g_cfg.tiers[t].name, bytes});
}

}  // namespace detail

std::vector<Placement> placements() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_placements;
}

}  // namespace bwlab::memtier
