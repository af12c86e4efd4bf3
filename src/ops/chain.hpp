// Lazy loop-chain capture and cache-blocking tiled execution — the
// reproduction of the OPS run-time tiling algorithm (Reguly, Mudalige,
// Giles, TPDS 2017 [21]) evaluated in the paper's Figure 9.
//
// In lazy mode, par_loop enqueues loops instead of executing them. On
// execute_tiled(h):
//  * all dats read anywhere in the chain are halo-exchanged ONCE with deep
//    halos (this is the communication-frequency reduction the paper
//    mentions); physical-boundary ghosts are filled only as deep as the
//    dat's deepest read, which par_loop records at capture
//    (Dat::note_read), because no extended range crosses a physical edge,
//  * every loop's local range is extended into the halo region by the
//    suffix-sum of downstream read radii (redundant computation along MPI
//    boundaries — the paper's stated cost),
//  * the outermost dimension is cut into tiles of height `h`; tiles are
//    executed in order, and within a tile the loops run in chain order
//    over skewed sub-ranges: loop i is shifted up by the suffix radius sum
//    so every read of an earlier loop's output lands on already-computed
//    rows. The union of a loop's sub-ranges across tiles is exactly its
//    range — no point is executed twice within a rank. Within a tile each
//    loop's sub-range is itself split over the rank's thread team along
//    the innermost non-tiled dimension (dynamic schedule, so the skewed
//    tile edges don't serialize on the slowest thread) — the intra-tile
//    threading of the OPS tiled executor. Loop bodies are strictly
//    serial range executors, so the partition never changes results.
//  * physical-boundary ghost fills of written dats are refreshed after
//    each producing loop inside each tile, so boundary reads observe
//    current values exactly as in untiled execution. The refresh covers
//    exactly the rows the tile wrote (Dat::refresh_physical_bcs): side
//    ghosts are row-local, and an outer-face strip, read-radius deep, is
//    refreshed whole whenever a written row lies within that radius of
//    the face.
//  * a chain-local dat (Dat::set_chain_local) is written before it is read
//    in every chain (checked at capture) and dead once the chain ends, so
//    it is not exchanged, and while the chain runs its storage is a window
//    of outer rows that slides up with the tiles (Dat::open_window): the
//    rows some tile still touches. Its full allocation is never touched.
//  * a reduction counts owned points only. Each row of a reduction loop's
//    owned range is computed once, by the tile that runs it, into a
//    partial of its own; rows go to the team whole, never split. The
//    partials are merged in ascending row order after the chain, which is
//    the association eager execution uses. Points of the redundant halo
//    extension run for their writes, and their partials are discarded.
//
// The result is bitwise identical to untiled execution (tested), while
// the traffic of a chain of N loops over a tile that fits in cache is
// served from cache rather than DRAM.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ops/access.hpp"
#include "ops/context.hpp"

namespace bwlab::ops {

class Block;

/// The row window of a chain-local dat (Dat::open_window, slide_window,
/// close_window).
struct ChainDatWindow {
  std::function<void(idx_t first, idx_t rows, bool scan)> open;
  std::function<void(idx_t first, idx_t live_hi)> slide;
  std::function<void(idx_t live_hi)> close;
  /// NaN-guard scan of the window's tally; replaces the use's scan after
  /// a tiled chain.
  NonfiniteScan scan = nullptr;
};

/// Type-erased record of how a chained loop uses one dat.
struct ChainDatUse {
  const void* id = nullptr;  ///< dat identity (address)
  std::string name;
  bool is_read = false;
  bool is_written = false;
  std::array<int, 3> radius{0, 0, 0};  ///< per-dimension read-stencil radius
  int halo_depth = 0;
  std::array<bool, 3> periodic{false, false, false};
  std::size_t elem_bytes = 0;  ///< sizeof the dat element
  /// Allocated extent (owned + halos) per dimension; the auto-tuner
  /// multiplies the non-tiled extents into a bytes-per-tile-row footprint.
  std::array<idx_t, 3> alloc_extent{1, 1, 1};
  std::function<void()> exchange;    ///< Dat::exchange_halos
  std::function<void()> mark_dirty;  ///< Dat::mark_halos_dirty
  /// Dat::refresh_physical_bcs restricted to outer rows [lo, hi).
  std::function<void(idx_t, idx_t)> refresh_bcs;
  /// NaN-guard scan, kept only on the chain's last write of the dat: the
  /// guard scans each written dat once, after the chain.
  NonfiniteScan scan = nullptr;
  /// Dat::set_chain_local; the members below are set for such dats only.
  bool chain_local = false;
  std::array<idx_t, 3> global_hi{1, 1, 1};  ///< Dat::global_hi
  /// Dat::refresh_rows: the outer rows refresh_bcs(lo, hi) touches.
  std::function<std::pair<idx_t, idx_t>(idx_t, idx_t)> refresh_rows;
  ChainDatWindow window;

  int max_radius() const {
    return std::max(radius[0], std::max(radius[1], radius[2]));
  }
};

/// How a chained loop with reductions keeps its partials; both callbacks
/// are empty for a loop without. A row is an index of ops::detail::row_dim
/// over the loop's owned range (a row in 2-D, a plane in 3-D).
struct ChainReduction {
  /// Runs the owned points of `r`, which holds whole rows, and stores one
  /// partial per row. Calls on disjoint rows may run concurrently.
  std::function<void(const Range&)> rows;
  /// Folds the stored partials into the targets in ascending row order.
  std::function<void()> merge;

  explicit operator bool() const { return static_cast<bool>(rows); }
};

/// One captured loop.
struct ChainLoop {
  /// The loop event par_loop built at enqueue time (LoopRecord, useful
  /// bytes, flops, pattern); the executor adds the dats and the time.
  LoopEvent event;
  Block* block = nullptr;
  Range range;  ///< global range as supplied by the app
  int read_radius = 0;  ///< max stencil radius over the reads
  std::vector<ChainDatUse> uses;
  std::function<void(const Range&)> body;  ///< executes exactly the given range
  /// Reduction partials; the body alone runs the redundant (non-owned)
  /// points of a reduction loop and discards their partials.
  ChainReduction reduction;

  const std::string& name() const { return event.rec->name; }
};

class ChainQueue {
 public:
  explicit ChainQueue(Context& ctx) : ctx_(&ctx) {}

  /// Appends a captured loop. Throws when it breaks the chain-local
  /// contract: a chain's first use of a chain-local dat must be a pure
  /// write whose range covers every later read footprint in the chain,
  /// apart from ghosts outside the global domain (physical rings the
  /// per-tile refresh fills; periodic images, when the write spans the
  /// periodic extent).
  void enqueue(ChainLoop loop);
  std::size_t size() const { return loops_.size(); }
  bool empty() const { return loops_.empty(); }
  void clear() { loops_.clear(); }

  /// Tiled execution (see file header). `tile_outer` is the tile height in
  /// the outermost dimension; pass 0 to auto-tune it: the height is sized
  /// so the chain's per-tile working set (unique dats x bytes per tile
  /// row) fits the context's tile cache budget, floored at the chain's
  /// total stencil extension. Within each tile every loop's sub-range is
  /// executed across the context's thread team (dynamic schedule over the
  /// innermost non-tiled dimension); results stay bitwise identical to
  /// untiled execution for every tile height and team size.
  void execute_tiled(idx_t tile_outer);

  /// Reference execution: loop-by-loop with per-loop halo exchanges, same
  /// semantics as eager mode. Used to validate tiling.
  void execute_untiled();

 private:
  /// Local range of `loop` extended by `ext` into the halo (redundant
  /// compute). At non-periodic physical edges the extension is clamped to
  /// the loop's global range (boundary ghosts are handled by refresh_bcs);
  /// at periodic edges (wrap[d]) it extends into the ghost region, where
  /// the recomputed values are exactly the periodic images.
  Range extended_local_range(const ChainLoop& loop, int ext,
                             const std::array<bool, 3>& wrap) const;
  void check_chain_local(const ChainLoop& loop) const;
  void exchange_chain_inputs();
  /// Empties the queue, merges the reductions in chain order and delivers
  /// one loop event per chained loop: loop i executed `ranges[i]` in
  /// `seconds[i]` of kernel time. Also records the chain's bwmem summary
  /// `cm`.
  void finish(const std::vector<Range>& ranges,
              const std::vector<seconds_t>& seconds, ChainMoveRecord cm);
  int min_halo_depth_read() const;
  /// Per-dimension periodicity of the chain (must be uniform over dats).
  std::array<bool, 3> chain_periodicity() const;

  Context* ctx_;
  std::vector<ChainLoop> loops_;
};

/// Runs `loops`, a callable issuing par_loops, eagerly; or, when `tiled`,
/// captures them as one lazy chain and runs it with
/// execute_tiled(tile_height). Reduction targets of the loops hold their
/// values once this returns.
template <class F>
void run_chain(Context& ctx, bool tiled, idx_t tile_height, F&& loops) {
  if (!tiled) {
    loops();
    return;
  }
  ctx.set_lazy(true);
  loops();
  ctx.set_lazy(false);
  ctx.chain().execute_tiled(tile_height);
}

/// Called by par_loop in lazy mode with the loop's event.
void enqueue_lazy(Context& ctx, const LoopEvent& event, Block& b,
                  const Range& range, std::function<void(const Range&)> body,
                  std::vector<ChainDatUse> uses, ChainReduction reduction);

/// Tile-height policy of execute_tiled(0): the largest height whose
/// working set (height x bytes_per_row) fits the cache budget, clamped to
/// [min_height, max_height]. min_height is the chain's total stencil
/// extension (a shorter tile would be all skew edge); pure arithmetic so
/// the choice is testable without a machine model.
idx_t auto_tile_height(double bytes_per_row, double cache_budget_bytes,
                       idx_t min_height, idx_t max_height);

}  // namespace bwlab::ops
