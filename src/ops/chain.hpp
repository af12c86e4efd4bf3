// Lazy loop-chain capture and cache-blocking tiled execution — the
// reproduction of the OPS run-time tiling algorithm (Reguly, Mudalige,
// Giles, TPDS 2017 [21]) evaluated in the paper's Figure 9.
//
// In lazy mode, par_loop enqueues loops instead of executing them. On
// execute_tiled(h):
//  * all dats read anywhere in the chain are halo-exchanged ONCE with deep
//    halos (this is the communication-frequency reduction the paper
//    mentions),
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
//    current values exactly as in untiled execution.
//
// The result is bitwise identical to untiled execution (tested), while
// the traffic of a chain of N loops over a tile that fits in cache is
// served from cache rather than DRAM.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include "ops/access.hpp"
#include "ops/context.hpp"

namespace bwlab::ops {

class Block;

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

  int max_radius() const {
    return std::max(radius[0], std::max(radius[1], radius[2]));
  }
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

  const std::string& name() const { return event.rec->name; }
};

class ChainQueue {
 public:
  explicit ChainQueue(Context& ctx) : ctx_(&ctx) {}

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
  void exchange_chain_inputs();
  /// Empties the queue and delivers one loop event per chained loop:
  /// loop i executed `ranges[i]` in `seconds[i]` of kernel time. Also
  /// records the chain's bwmem summary `cm`.
  void finish(const std::vector<Range>& ranges,
              const std::vector<seconds_t>& seconds, ChainMoveRecord cm);
  int min_halo_depth_read() const;
  /// Per-dimension periodicity of the chain (must be uniform over dats).
  std::array<bool, 3> chain_periodicity() const;

  Context* ctx_;
  std::vector<ChainLoop> loops_;
};

/// Called by par_loop in lazy mode with the loop's event.
void enqueue_lazy(Context& ctx, const LoopEvent& event, Block& b,
                  const Range& range, std::function<void(const Range&)> body,
                  std::vector<ChainDatUse> uses);

/// Tile-height policy of execute_tiled(0): the largest height whose
/// working set (height x bytes_per_row) fits the cache budget, clamped to
/// [min_height, max_height]. min_height is the chain's total stencil
/// extension (a shorter tile would be all skew edge); pure arithmetic so
/// the choice is testable without a machine model.
idx_t auto_tile_height(double bytes_per_row, double cache_budget_bytes,
                       idx_t min_height, idx_t max_height);

}  // namespace bwlab::ops
