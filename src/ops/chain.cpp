#include "ops/chain.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "ops/dat.hpp"

namespace bwlab::ops {

namespace {

/// The dimension a tile sub-range is split over across the thread team:
/// the innermost non-tiled dimension with a splittable extent (ties go to
/// the innermost). Returns -1 when nothing is worth splitting.
int pick_parallel_dim(const Range& r, int outer_dim) {
  int best = -1;
  idx_t best_n = 1;
  for (int d = 0; d < outer_dim; ++d) {
    const idx_t n = r.extent(d);
    if (n > best_n) {
      best = d;
      best_n = n;
    }
  }
  return best;
}

/// Runs `body` over `r`, split across the team along pick_parallel_dim.
/// Chunks are a few times smaller than a static share so the dynamic
/// schedule can rebalance the uneven pieces of skewed tile edges; writes
/// are per-point, so any partition is bitwise identical to body(r).
void execute_range_team(par::ThreadPool* pool, const Range& r, int outer_dim,
                        const std::function<void(const Range&)>& body) {
  const int team = pool != nullptr ? pool->size() : 1;
  const int pdim = team > 1 ? pick_parallel_dim(r, outer_dim) : -1;
  if (pdim < 0) {
    body(r);
    return;
  }
  const auto ps = static_cast<std::size_t>(pdim);
  const idx_t lo = r.lo[ps], hi = r.hi[ps], n = hi - lo;
  const idx_t chunk =
      std::max<idx_t>(8, n / (static_cast<idx_t>(team) * 4));
  const idx_t nchunks = (n + chunk - 1) / chunk;
  pool->parallel_for(
      0, nchunks,
      [&](idx_t ci) {
        Range sub = r;
        sub.lo[ps] = lo + ci * chunk;
        sub.hi[ps] = std::min(hi, sub.lo[ps] + chunk);
        body(sub);
      },
      par::Schedule::Dynamic, 1);
}

/// `r` minus `own`, a box inside it, as disjoint boxes (none when equal;
/// `r` itself when `own` is empty).
std::vector<Range> box_difference(const Range& r, const Range& own) {
  if (own.empty()) return {r};
  std::vector<Range> pieces;
  Range rest = r;
  for (std::size_t d = 0; d < 3; ++d) {
    if (rest.lo[d] < own.lo[d]) {
      Range p = rest;
      p.hi[d] = own.lo[d];
      pieces.push_back(p);
      rest.lo[d] = own.lo[d];
    }
    if (own.hi[d] < rest.hi[d]) {
      Range p = rest;
      p.lo[d] = own.hi[d];
      pieces.push_back(p);
      rest.hi[d] = own.hi[d];
    }
  }
  return pieces;
}

/// Runs the tile sub-range `r` of a reduction loop whose owned range is
/// `owned`. The owned rows feed the loop's partials, dealt to the team one
/// row at a time; the rest is redundant halo extension, run for its
/// writes only.
void execute_reduction_team(par::ThreadPool* pool, const Range& r,
                            const Range& owned, int outer_dim,
                            const ChainLoop& l) {
  Range own = r;
  for (std::size_t d = 0; d < 3; ++d) {
    own.lo[d] = std::max(r.lo[d], owned.lo[d]);
    own.hi[d] = std::min(r.hi[d], owned.hi[d]);
  }
  for (const Range& piece : box_difference(r, own))
    execute_range_team(pool, piece, outer_dim, l.body);
  if (own.empty()) return;
  const auto od = static_cast<std::size_t>(outer_dim);
  if (pool == nullptr || pool->size() <= 1) {
    l.reduction.rows(own);
    return;
  }
  pool->parallel_for(own.lo[od], own.hi[od], [&](idx_t o) {
    Range row = own;
    row.lo[od] = o;
    row.hi[od] = o + 1;
    l.reduction.rows(row);
  });
}

// --- bwmem exact data-movement accounting (chain executor) -----------------
// Chain bytes are counted ONCE per chain over the executed local ranges —
// ext[i] for the tiled executor, fixed by the skew analysis, independent
// of tile height and thread-pool size — so the accounting is bitwise
// deterministic, and with the footprint rule eager execution uses
// (read_footprint). Reuse touches happen per executed (tile, loop, use) on
// the calling thread, with the touch's own moved bytes as its resident
// footprint, so tiling shortens stack distances exactly as it shortens
// real reuse distances.

LoopDatArg use_arg(const ChainDatUse& u, const Range& r) {
  count_t alloc = u.elem_bytes;
  for (const idx_t e : u.alloc_extent) alloc *= static_cast<count_t>(e);
  return {u.id,
          &u.name,
          alloc,
          u.is_read ? read_footprint(r, u.radius) * u.elem_bytes : 0,
          u.is_written ? r.count() * u.elem_bytes : 0,
          u.scan};
}

/// A chain-local dat's row window over one tiled chain. hold[t] is the
/// span of outer rows the window holds during tile t: from the lowest row
/// any tile from t on touches to the highest row any tile up to t touched.
/// Every row written so far and still to be read lies inside it.
struct RowWindow {
  const ChainDatWindow* ops = nullptr;
  std::vector<idx_t> lo, hi;  ///< hold[t] = [lo[t], hi[t]), per tile
  idx_t rows = 0;             ///< window height
  idx_t first = 0;            ///< the window's current first row
  bool scan = false;          ///< the NaN guard tallies its rows
};

/// A window this many times the widest hold, so a slide (which copies the
/// live rows down) comes once per several tiles.
constexpr idx_t kWindowSlack = 4;

/// Closes every window still open when a chain unwinds mid-tiles.
class WindowsGuard {
 public:
  explicit WindowsGuard(const std::vector<RowWindow>& windows)
      : windows_(windows) {}
  WindowsGuard(const WindowsGuard&) = delete;
  WindowsGuard& operator=(const WindowsGuard&) = delete;
  ~WindowsGuard() {
    for (const RowWindow& w : windows_) w.ops->close(w.first);
  }

 private:
  const std::vector<RowWindow>& windows_;
};

/// Plans the row window of every chain-local dat of `loops`, whose
/// sub-range in tile t is tile_range(i, t), from the outer rows each use
/// touches there: a read its range dilated by its outer radius, a write
/// its range and the rows its refresh touches (Dat::refresh_rows).
template <class TileRange>
std::vector<RowWindow> plan_row_windows(const std::vector<ChainLoop>& loops,
                                        idx_t ntiles, std::size_t od,
                                        TileRange&& tile_range) {
  constexpr idx_t kNone = std::numeric_limits<idx_t>::max();
  std::vector<RowWindow> windows;
  std::vector<const void*> ids;
  const auto nt = static_cast<std::size_t>(ntiles);
  const bool guard = fault::nan_policy() != fault::NanPolicy::Off;
  auto window_of = [&](const ChainDatUse& u) -> RowWindow& {
    const auto it = std::find(ids.begin(), ids.end(), u.id);
    if (it != ids.end())
      return windows[static_cast<std::size_t>(it - ids.begin())];
    ids.push_back(u.id);
    RowWindow w;
    w.ops = &u.window;
    w.rows = u.alloc_extent[od];  // the cap, until the plan sizes it
    w.lo.assign(nt, kNone);
    w.hi.assign(nt, -kNone);
    windows.push_back(std::move(w));
    return windows.back();
  };
  for (const ChainLoop& l : loops)
    for (const ChainDatUse& u : l.uses)
      if (u.chain_local) window_of(u).scan |= guard && u.scan != nullptr;
  if (windows.empty()) return windows;

  for (std::size_t t = 0; t < nt; ++t)
    for (std::size_t i = 0; i < loops.size(); ++i) {
      const Range r = tile_range(i, static_cast<idx_t>(t));
      if (r.empty()) continue;
      for (const ChainDatUse& u : loops[i].uses) {
        if (!u.chain_local) continue;
        idx_t lo = r.lo[od], hi = r.hi[od];
        if (u.is_read) {
          lo -= u.radius[od];
          hi += u.radius[od];
        }
        if (u.is_written) {
          const auto [a, b] = u.refresh_rows(r.lo[od], r.hi[od]);
          if (a < b) {
            lo = std::min(lo, a);
            hi = std::max(hi, b);
          }
        }
        RowWindow& w = window_of(u);
        w.lo[t] = std::min(w.lo[t], lo);
        w.hi[t] = std::max(w.hi[t], hi);
      }
    }

  for (RowWindow& w : windows) {
    for (std::size_t t = nt; t-- > 1;)
      w.lo[t - 1] = std::min(w.lo[t - 1], w.lo[t]);
    for (std::size_t t = 1; t < nt; ++t)
      w.hi[t] = std::max(w.hi[t], w.hi[t - 1]);
    idx_t span = 1;
    for (std::size_t t = 0; t < nt; ++t)
      if (w.lo[t] < w.hi[t]) span = std::max(span, w.hi[t] - w.lo[t]);
    w.rows = std::max(span, std::min(kWindowSlack * span, w.rows));
    w.first = nt > 0 && w.lo[0] != kNone ? w.lo[0] : 0;
  }
  return windows;
}

}  // namespace

idx_t auto_tile_height(double bytes_per_row, double cache_budget_bytes,
                       idx_t min_height, idx_t max_height) {
  if (max_height < min_height) max_height = min_height;
  idx_t h = max_height;
  if (bytes_per_row > 0 && cache_budget_bytes > 0)
    h = static_cast<idx_t>(cache_budget_bytes / bytes_per_row);
  return std::clamp(h, min_height, max_height);
}

void ChainQueue::enqueue(ChainLoop loop) {
  check_chain_local(loop);
  for (const ChainDatUse& u : loop.uses) {
    loop.read_radius = std::max(loop.read_radius, u.max_radius());
    // A later write of a dat moves its NaN-guard scan to this loop.
    if (!u.is_written) continue;
    for (ChainLoop& prev : loops_)
      for (ChainDatUse& p : prev.uses)
        if (p.id == u.id) p.scan = nullptr;
  }
  loops_.push_back(std::move(loop));
}

void ChainQueue::check_chain_local(const ChainLoop& loop) const {
  for (std::size_t k = 0; k < loop.uses.size(); ++k) {
    const ChainDatUse& u = loop.uses[k];
    if (!u.chain_local) continue;
    auto uses_dat = [&u](const ChainDatUse& p) { return p.id == u.id; };
    const ChainLoop* writer = nullptr;
    for (const ChainLoop& prev : loops_)
      if (std::any_of(prev.uses.begin(), prev.uses.end(), uses_dat)) {
        writer = &prev;
        break;
      }
    if (writer == nullptr &&
        std::any_of(loop.uses.begin(), loop.uses.begin() + k, uses_dat))
      writer = &loop;
    if (writer == nullptr) {
      BWLAB_REQUIRE(!u.is_read,
                    "chain-local dat '"
                        << u.name << "' is first used by loop '" << loop.name()
                        << "' as " << (u.is_written ? "read_write" : "read")
                        << "; a chain must write it before reading it");
      continue;
    }
    if (!u.is_read) continue;
    const Range& w = writer->range;
    for (std::size_t d = 0; d < 3; ++d) {
      idx_t lo = loop.range.lo[d] - u.radius[d];
      idx_t hi = loop.range.hi[d] + u.radius[d];
      if (!u.periodic[d] || (w.lo[d] <= 0 && w.hi[d] >= u.global_hi[d])) {
        lo = std::max<idx_t>(lo, 0);
        hi = std::min(hi, u.global_hi[d]);
      }
      BWLAB_REQUIRE(w.lo[d] <= lo && hi <= w.hi[d],
                    "chain-local dat '"
                        << u.name << "': loop '" << loop.name() << "' reads ["
                        << lo << ", " << hi << ") in dim " << d
                        << ", beyond the [" << w.lo[d] << ", " << w.hi[d]
                        << ") written by its first use, loop '"
                        << writer->name() << "'");
    }
  }
}

int ChainQueue::min_halo_depth_read() const {
  int depth = 1 << 30;
  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses)
      if (u.is_read) depth = std::min(depth, u.halo_depth);
  return depth;
}

void ChainQueue::exchange_chain_inputs() {
  trace::TraceSpan span(trace::Cat::Halo, "chain.exchange");
  // One deep exchange per dat read anywhere in the chain; exchanging a
  // dat twice is a no-op because the dirty flag clears. A chain-local dat
  // is written in the chain before it is read, and redundant compute
  // produces every ghost its readers need.
  std::set<const void*> done;
  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses)
      if (u.is_read && !u.chain_local && done.insert(u.id).second)
        u.exchange();
}

std::array<bool, 3> ChainQueue::chain_periodicity() const {
  std::array<bool, 3> wrap{false, false, false};
  bool first = true;
  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses) {
      if (first) {
        wrap = u.periodic;
        first = false;
        continue;
      }
      for (int d = 0; d < 3; ++d)
        BWLAB_REQUIRE(wrap[static_cast<std::size_t>(d)] ==
                          u.periodic[static_cast<std::size_t>(d)],
                      "tiled chains require uniform periodicity; dat '"
                          << u.name << "' differs in dim " << d);
    }
  return wrap;
}

Range ChainQueue::extended_local_range(
    const ChainLoop& loop, int ext, const std::array<bool, 3>& wrap) const {
  const Block& b = *loop.block;
  Range out = loop.range;
  for (int d = 0; d < b.ndims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto [lo, hi] = b.own_range(d);
    idx_t exec_hi = hi;
    if (b.is_high_edge(d))
      exec_hi = std::max(exec_hi, std::min(loop.range.hi[ds], b.size(d) + 1));
    out.lo[ds] = std::max(loop.range.lo[ds], lo - ext);
    out.hi[ds] = std::min(loop.range.hi[ds], exec_hi + ext);
    if (wrap[ds]) {
      // Periodic: redundant compute continues into the ghost region even
      // at the domain edge (the recomputation IS the wrap image).
      out.lo[ds] = lo - ext;
      out.hi[ds] = exec_hi + ext;
    } else {
      // Never extend past a non-periodic physical domain edge.
      if (b.is_low_edge(d))
        out.lo[ds] = std::max(out.lo[ds], loop.range.lo[ds]);
      if (b.is_high_edge(d))
        out.hi[ds] = std::min(out.hi[ds], loop.range.hi[ds]);
    }
  }
  return out;
}

void ChainQueue::finish(const std::vector<Range>& ranges,
                        const std::vector<seconds_t>& seconds,
                        ChainMoveRecord cm) {
  const std::vector<ChainLoop> loops = std::move(loops_);
  loops_.clear();
  for (const ChainLoop& l : loops)
    if (l.reduction) l.reduction.merge();
  std::set<const void*> seen;
  std::vector<LoopDatArg> args;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const ChainLoop& l = loops[i];
    const Range& r = ranges[i];
    args.clear();
    for (const ChainDatUse& u : l.uses) {
      args.push_back(use_arg(u, r));
      // A tiled chain kept a chain-local dat in its row window, whose
      // rows the guard scanned as they left it.
      if (cm.tiled && u.chain_local && u.scan != nullptr)
        args.back().scan = u.window.scan;
      if (r.empty()) continue;
      cm.counted_bytes += args.back().read_bytes + args.back().written_bytes;
      if (seen.insert(u.id).second)
        cm.working_set_bytes += args.back().alloc_bytes;
    }
    if (!r.empty()) ++cm.loops;
    LoopEvent ev = l.event;
    ev.seconds = seconds[i];
    ev.touch = !cm.tiled;
    ev.args = args;
    record_loop(ev);
  }
  if (datmove::enabled()) ctx_->instr().datmove_chain(cm);
}

void ChainQueue::execute_untiled() {
  BWLAB_REQUIRE(!ctx_->lazy(),
                "disable lazy mode before executing the captured chain");
  trace::TraceSpan chain_span(trace::Cat::Region, "chain.untiled");
  std::vector<Range> ranges;
  std::vector<seconds_t> seconds;
  for (ChainLoop& l : loops_) {
    for (const ChainDatUse& u : l.uses)
      if (u.is_read && u.max_radius() > 0) u.exchange();
    const Range local =
        extended_local_range(l, 0, {false, false, false});
    Timer t;
    {
      trace::TraceSpan span(trace::Cat::Kernel, l.name());
      if (!local.empty()) (l.reduction ? l.reduction.rows : l.body)(local);
    }
    seconds.push_back(t.elapsed());
    ranges.push_back(local);
    for (const ChainDatUse& u : l.uses)
      if (u.is_written) u.mark_dirty();
  }
  finish(ranges, seconds, ChainMoveRecord{});
}

void ChainQueue::execute_tiled(idx_t tile_outer) {
  BWLAB_REQUIRE(!ctx_->lazy(),
                "disable lazy mode before executing the captured chain");
  if (loops_.empty()) return;
  trace::TraceSpan chain_span(trace::Cat::Region, "chain.tiled");
  const int n = static_cast<int>(loops_.size());

  // Skew offsets, built backwards from the last loop. Two dependence
  // families bound sigma_i from below:
  //   RAW  — loop j > i reads what i wrote with radius r_j: the chain sum
  //          sigma_i >= sigma_{i+1} + r_{i+1} telescopes to
  //          sigma_i - sigma_j >= r_j for every downstream reader.
  //   WAR  — loop j > i REwrites a dat loop i reads with radius r_i^D:
  //          tile T's pass of loop j must not clobber rows tile T+1's
  //          pass of loop i still reads, so sigma_i >= sigma_j + r_i^D.
  // Monotone non-increasing sigma (implied by the chain sum) also orders
  // same-dat writes correctly (WAW: the later loop's value wins per row).
  std::vector<int> sigma(static_cast<std::size_t>(n), 0);
  for (int i = n - 2; i >= 0; --i) {
    const auto is = static_cast<std::size_t>(i);
    int s = sigma[is + 1] + loops_[is + 1].read_radius;
    for (int j = i + 1; j < n; ++j)
      for (const ChainDatUse& w : loops_[static_cast<std::size_t>(j)].uses) {
        if (!w.is_written) continue;
        for (const ChainDatUse& r : loops_[is].uses)
          if (r.is_read && r.id == w.id)
            s = std::max(s,
                         sigma[static_cast<std::size_t>(j)] + r.max_radius());
      }
    sigma[is] = s;
  }

  // Halo depth must cover the redundant-compute extension plus the reads
  // of the first loop.
  const int needed_depth =
      sigma[0] + loops_[0].read_radius;
  BWLAB_REQUIRE(min_halo_depth_read() >= needed_depth,
                "tiled chain needs halo depth >= " << needed_depth
                                                   << " on all read dats");

  exchange_chain_inputs();
  const std::array<bool, 3> wrap = chain_periodicity();

  // Extended local ranges (redundant compute into halos; extension for
  // loop i must cover everything later loops re-read: ext_i = sigma_i).
  // A reduction counts only its owned range (extension 0).
  std::vector<Range> ext(static_cast<std::size_t>(n));
  std::vector<Range> owned(static_cast<std::size_t>(n));
  int outer_dim = 0;
  for (int i = 0; i < n; ++i) {
    const ChainLoop& l = loops_[static_cast<std::size_t>(i)];
    ext[static_cast<std::size_t>(i)] =
        extended_local_range(l, sigma[static_cast<std::size_t>(i)], wrap);
    if (l.reduction)
      owned[static_cast<std::size_t>(i)] =
          extended_local_range(l, 0, {false, false, false});
    outer_dim = std::max(outer_dim, l.block->ndims() - 1);
  }

  // Tile-boundary axis: spans every loop's extended outer range shifted
  // down by its skew.
  idx_t axis_lo = 1 << 30, axis_hi = -(1LL << 30);
  for (int i = 0; i < n; ++i) {
    const auto& r = ext[static_cast<std::size_t>(i)];
    const auto od = static_cast<std::size_t>(outer_dim);
    axis_lo = std::min(axis_lo, r.lo[od] - sigma[static_cast<std::size_t>(i)]);
    axis_hi = std::max(axis_hi, r.hi[od] - sigma[static_cast<std::size_t>(i)]);
  }
  // Auto-tune the tile height: size the tile so the chain's working set
  // (every unique dat's bytes per outer row, times the height) fits the
  // context's cache budget. The floor is the chain's total stencil
  // extension — a shorter tile would be all skew edge.
  const bool auto_tuned = tile_outer <= 0;
  double row_bytes = 0;
  if (auto_tuned) {
    std::set<const void*> seen;
    for (const ChainLoop& l : loops_)
      for (const ChainDatUse& u : l.uses) {
        if (!seen.insert(u.id).second) continue;
        double bytes = static_cast<double>(u.elem_bytes);
        for (int d = 0; d < outer_dim; ++d)
          bytes *= static_cast<double>(u.alloc_extent[static_cast<std::size_t>(d)]);
        row_bytes += bytes;
      }
    tile_outer = auto_tile_height(row_bytes, ctx_->tile_cache_bytes(),
                                  std::max<idx_t>(needed_depth, 1),
                                  std::max<idx_t>(axis_hi - axis_lo, 1));
  }

  TilingRecord& tiling = ctx_->instr().tiling();
  tiling.chains += 1;
  tiling.tile_height = tile_outer;
  tiling.auto_tuned = auto_tuned;
  if (auto_tuned) {
    tiling.row_bytes = row_bytes;
    tiling.cache_budget_bytes = ctx_->tile_cache_bytes();
  }

  // Loop i's sub-range in tile t.
  const auto od = static_cast<std::size_t>(outer_dim);
  auto tile_range = [&](std::size_t i, idx_t t) {
    const idx_t b0 = axis_lo + t * tile_outer;
    const idx_t b1 = std::min(axis_hi, b0 + tile_outer);
    Range r = ext[i];
    r.lo[od] = std::max(r.lo[od], b0 + sigma[i]);
    r.hi[od] = std::min(r.hi[od], b1 + sigma[i]);
    return r;
  };
  const idx_t ntiles =
      std::max<idx_t>(0, (axis_hi - axis_lo + tile_outer - 1) / tile_outer);
  std::vector<RowWindow> windows =
      plan_row_windows(loops_, ntiles, od, tile_range);
  const WindowsGuard close_on_unwind(windows);
  for (const RowWindow& w : windows) w.ops->open(w.first, w.rows, w.scan);

  const bool dm = datmove::enabled();
  std::vector<seconds_t> seconds(static_cast<std::size_t>(n), 0.0);
  par::ThreadPool* pool = ctx_->pool();
  static Counter& tiles =
      MetricsRegistry::global().counter("ops.tiles_executed");
  for (idx_t t = 0; t < ntiles; ++t) {
    const auto ts = static_cast<std::size_t>(t);
    trace::TraceSpan tile_span(trace::Cat::Tile, "tile", std::to_string(t));
    trace::counter("tile.start_row",
                   static_cast<double>(axis_lo + t * tile_outer));
    tiles.inc();
    tiling.tiles += 1;
    // Windows slide only between tiles, on the calling thread, once the
    // team has joined; a slide starts at the lowest row still touched.
    for (RowWindow& w : windows)
      if (w.hi[ts] > w.first + w.rows) {
        w.ops->slide(w.lo[ts], w.hi[ts - 1]);
        w.first = w.lo[ts];
      }
    for (std::size_t i = 0; i < loops_.size(); ++i) {
      const ChainLoop& l = loops_[i];
      const Range r = tile_range(i, t);
      if (r.empty()) continue;
      if (dm) {
        // Per-tile reuse touches: the footprint between two touches of
        // the same dat is the sum of the tile-sized slices in between.
        for (const ChainDatUse& u : l.uses) {
          const LoopDatArg a = use_arg(u, r);
          const count_t mb = a.read_bytes + a.written_bytes;
          ctx_->instr().datmove_touch(u.id, mb, mb);
        }
      }
      Timer timer;
      {
        trace::TraceSpan span(trace::Cat::Kernel, l.name());
        // Split this loop's tile sub-range over the thread team. Bodies
        // are strictly serial range executors (see par_loop), so the
        // partition is safe and bitwise identical to a serial sweep.
        if (l.reduction)
          execute_reduction_team(pool, r, owned[i], outer_dim, l);
        else
          execute_range_team(pool, r, outer_dim, l.body);
      }
      seconds[i] += timer.elapsed();
      // Physical-boundary ghosts of freshly-written dats must track the
      // interior inside the chain (reads in the next loops of this tile
      // touch only rows this refresh sees as current). Runs after the
      // team join, on the calling thread.
      for (const ChainDatUse& u : l.uses)
        if (u.is_written) u.refresh_bcs(r.lo[od], r.hi[od]);
    }
  }
  for (const RowWindow& w : windows)
    w.ops->close(ntiles > 0 ? w.hi.back() : w.first);
  windows.clear();  // closed; their uses end with the chain in finish()

  for (const ChainLoop& l : loops_)
    for (const ChainDatUse& u : l.uses)
      if (u.is_written) u.mark_dirty();
  ChainMoveRecord cm;
  cm.tiled = true;
  cm.tile_height = tile_outer;
  finish(ext, seconds, cm);
}

void enqueue_lazy(Context& ctx, const LoopEvent& event, Block& b,
                  const Range& range, std::function<void(const Range&)> body,
                  std::vector<ChainDatUse> uses, ChainReduction reduction) {
  ChainLoop loop;
  loop.event = event;
  loop.block = &b;
  loop.range = range;
  loop.body = std::move(body);
  loop.uses = std::move(uses);
  loop.reduction = std::move(reduction);
  ctx.chain().enqueue(std::move(loop));
}

}  // namespace bwlab::ops
