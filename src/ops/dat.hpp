// Block and Dat: the distributed structured-mesh containers of mini-OPS.
//
// A Block describes the global index space and its cartesian decomposition
// over ranks. A Dat is one field on a block: cell-centered or staggered
// (+1 extent in selected dimensions), carrying a halo of configurable
// depth, per-face physical boundary conditions, and lazy halo-exchange
// state ("dirty" after a write; exchanged on the next read with a
// non-trivial stencil — the paper's "ghost cell exchanges triggered as
// needed"). Inter-rank and periodic ghosts are exchanged at the full
// depth, which tiled redundant compute reads; physical-boundary ghosts are
// filled only as deep as the deepest stencil that reads the dat.
//
// A chain-local dat (set_chain_local) holds no value between loop chains.
// While a tiled chain runs, its storage is a window of outer rows (the
// block's last dimension) that slides up with the tiles; every access,
// through ptr(), sees whichever storage is current.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/memtier.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "ops/access.hpp"
#include "ops/context.hpp"
#include "par/partition.hpp"

namespace bwlab::ops {

/// Debug switch for the read-radius rule: while on, every Dat created
/// starts as quiet NaN instead of zero, so a loop that reads a ghost no
/// fill reached (a physical ring deeper than the dat's read radius) turns
/// its result into NaN. Process-wide; set it before the run starts.
inline std::atomic<bool>& poison_unfilled_ghosts() {
  static std::atomic<bool> on{false};
  return on;
}

class Block {
 public:
  Block(Context& ctx, std::string name, int ndims, std::array<idx_t, 3> size)
      : ctx_(&ctx), name_(std::move(name)), ndims_(ndims), size_(size),
        grid_(ctx.nranks(), ndims, size) {
    BWLAB_REQUIRE(ndims >= 1 && ndims <= 3, "block ndims must be 1..3");
    for (int d = ndims; d < 3; ++d)
      BWLAB_REQUIRE(size_[static_cast<std::size_t>(d)] == 1,
                    "unused dimensions must have extent 1");
  }

  Context& ctx() const { return *ctx_; }
  const std::string& name() const { return name_; }
  int ndims() const { return ndims_; }
  idx_t size(int d) const { return size_[static_cast<std::size_t>(d)]; }
  const par::CartGrid& grid() const { return grid_; }

  /// Base-cell ownership range of this rank in dimension d.
  std::pair<idx_t, idx_t> own_range(int d) const {
    return grid_.local_range(ctx_->rank(), d);
  }
  /// Neighbor rank in dimension d, direction dir (-1/+1); -1 at the edge.
  int neighbor(int d, int dir) const {
    return grid_.neighbor(ctx_->rank(), d, dir);
  }
  /// Neighbor with periodic wrap-around.
  int neighbor_periodic(int d, int dir) const {
    auto c = grid_.coords(ctx_->rank());
    auto& cd = c[static_cast<std::size_t>(d)];
    cd = (cd + dir + grid_.dims[static_cast<std::size_t>(d)]) %
         grid_.dims[static_cast<std::size_t>(d)];
    return grid_.rank_at(c);
  }
  bool is_low_edge(int d) const {
    return grid_.coords(ctx_->rank())[static_cast<std::size_t>(d)] == 0;
  }
  bool is_high_edge(int d) const {
    return grid_.coords(ctx_->rank())[static_cast<std::size_t>(d)] ==
           grid_.dims[static_cast<std::size_t>(d)] - 1;
  }

 private:
  Context* ctx_;
  std::string name_;
  int ndims_;
  std::array<idx_t, 3> size_;
  par::CartGrid grid_;
};

template <class T>
class Dat {
 public:
  /// Creates a field on `block`. `stagger[d]` of 1 makes the field
  /// node-centered in dimension d (global extent size+1); `halo_depth`
  /// must cover the largest read stencil ever applied to this dat.
  Dat(Block& block, std::string name, int halo_depth = 1,
      std::array<int, 3> stagger = {0, 0, 0}, T init = T{})
      : block_(&block), name_(std::move(name)), id_(block.ctx().next_dat_id()),
        depth_(halo_depth), outer_(block.ndims() - 1), stagger_(stagger) {
    BWLAB_REQUIRE(halo_depth >= 0, "halo depth must be >= 0");
    for (int d = 0; d < 3; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      BWLAB_REQUIRE(stagger_[ds] == 0 || stagger_[ds] == 1,
                    "stagger must be 0 or 1");
      if (d < block.ndims()) {
        const auto [lo, hi] = block.own_range(d);
        own_lo_[ds] = lo;
        own_hi_[ds] = hi;
        exec_hi_[ds] = hi + (block.is_high_edge(d) ? stagger_[ds] : 0);
        alo_[ds] = lo - depth_;
        ahi_[ds] = hi + stagger_[ds] + depth_;
        BWLAB_REQUIRE(hi - lo >= depth_ + stagger_[ds],
                      "dat '" << name_ << "': local extent " << (hi - lo)
                              << " in dim " << d
                              << " smaller than halo depth+stagger");
      } else {
        own_lo_[ds] = 0;
        own_hi_[ds] = exec_hi_[ds] = 1;
        alo_[ds] = 0;
        ahi_[ds] = 1;
      }
      bc_[ds][0] = bc_[ds][1] = Bc::CopyNearest;
    }
    sx_ = ahi_[0] - alo_[0];
    sy_ = ahi_[1] - alo_[1];
    org_ = alo_;
    // Fresh storage reads zero (field_vector), so only a non-zero init
    // value costs a pass over the array.
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (std::numeric_limits<T>::has_quiet_NaN)
      if (poison_unfilled_ghosts().load(std::memory_order_relaxed))
        init = std::numeric_limits<T>::quiet_NaN();
    data_.resize(static_cast<std::size_t>(sx_ * sy_ * (ahi_[2] - alo_[2])));
    const T zero{};
    if (std::memcmp(&init, &zero, sizeof(T)) != 0)
      std::fill(data_.begin(), data_.end(), init);
    memtier::on_alloc(name_, data_.size() * sizeof(T));
  }

  Block& block() const { return *block_; }
  const std::string& name() const { return name_; }
  int halo_depth() const { return depth_; }
  int stagger(int d) const { return stagger_[static_cast<std::size_t>(d)]; }
  static constexpr std::size_t elem_bytes() { return sizeof(T); }

  /// Execution-ownership range of this rank (who computes which indices).
  idx_t exec_lo(int d) const { return own_lo_[static_cast<std::size_t>(d)]; }
  idx_t exec_hi(int d) const { return exec_hi_[static_cast<std::size_t>(d)]; }
  /// Allocation bounds (exec range plus ghosts).
  idx_t alloc_lo(int d) const { return alo_[static_cast<std::size_t>(d)]; }
  idx_t alloc_hi(int d) const { return ahi_[static_cast<std::size_t>(d)]; }
  /// Global extent of the field in dimension d (block size + stagger).
  idx_t global_hi(int d) const {
    return block_->size(d) + (d < block_->ndims()
                                  ? stagger_[static_cast<std::size_t>(d)]
                                  : 0);
  }

  /// Pointer to the element at *global* indices (i, j, k), in the current
  /// storage: the full allocation, or the row window of a chain-local dat
  /// inside a tiled chain.
  T* ptr(idx_t i, idx_t j = 0, idx_t k = 0) {
    return storage() + offset(i, j, k);
  }
  const T* ptr(idx_t i, idx_t j = 0, idx_t k = 0) const {
    return storage() + offset(i, j, k);
  }
  T& at(idx_t i, idx_t j = 0, idx_t k = 0) { return *ptr(i, j, k); }
  const T& at(idx_t i, idx_t j = 0, idx_t k = 0) const {
    return *ptr(i, j, k);
  }
  idx_t stride_x() const { return sx_; }
  idx_t stride_y() const { return sy_; }

  /// Raw allocation (owned region plus all ghost layers) — the unit of
  /// checkpoint capture/restore (ops::CheckpointStore). A writer must
  /// call mark_halos_dirty() afterwards. Never the row window: between
  /// chains the full allocation is the current storage.
  T* alloc_data() { return data_.data(); }
  const T* alloc_data() const { return data_.data(); }
  std::size_t alloc_count() const { return data_.size(); }

  /// Boundary condition on face (dim d, side 0=low / 1=high).
  void set_bc(int d, int side, Bc bc) {
    bc_[static_cast<std::size_t>(d)][static_cast<std::size_t>(side)] = bc;
  }
  void set_bc_all(Bc bc) {
    for (auto& per_dim : bc_) per_dim[0] = per_dim[1] = bc;
  }
  Bc bc(int d, int side) const {
    return bc_[static_cast<std::size_t>(d)][static_cast<std::size_t>(side)];
  }

  /// Declares that the dat holds no value between loop chains: each chain
  /// writes it before reading it, and it is dead once the chain ends.
  /// ChainQueue checks the first half at capture; a tiled chain skips the
  /// dat's exchange (redundant compute produces every ghost a reader
  /// needs) and keeps it in a row window instead of the full allocation,
  /// which only eager loops and exchanges then touch.
  void set_chain_local() { chain_local_ = true; }
  bool chain_local() const { return chain_local_; }

  /// Makes a window of `rows` outer rows, the first being `first`, the
  /// current storage. The window is allocated on first use, grows when a
  /// chain needs more rows, and is reused by every later chain; under
  /// poison_unfilled_ghosts() it starts as NaN. With `scan`, the NaN
  /// guard's tally of the chain starts: each owned row is scanned as it
  /// leaves the window (slide_window, close_window).
  void open_window(idx_t first, idx_t rows, bool scan) {
    const auto need = static_cast<std::size_t>(rows * outer_row_elems());
    if (window_.size() < need) window_ = field_vector<T>(need);
    poison(window_.data(), window_.data() + need);
    window_rows_ = rows;
    org_[static_cast<std::size_t>(outer_)] = first;
    windowed_ = true;
    scan_ = scan;
    tally_ = NanTally{};
  }
  /// Slides the window up so it starts at outer row `first`. Rows below
  /// `first` retire (scanned first, with `scan`); the rows written so far
  /// that stay, [first, live_hi), move down with it, and the rows it takes
  /// in hold no value (NaN under poison_unfilled_ghosts()).
  void slide_window(idx_t first, idx_t live_hi) {
    const auto os = static_cast<std::size_t>(outer_);
    const idx_t old = org_[os], end = old + window_rows_;
    if (scan_) scan_rows(old, std::min(first, live_hi), tally_);
    const idx_t keep_lo = std::max(first, old);
    const idx_t keep_hi = std::max(keep_lo, std::min(end, live_hi));
    const idx_t row = outer_row_elems();
    T* w = window_.data();
    std::memmove(w + (keep_lo - first) * row, w + (keep_lo - old) * row,
                 static_cast<std::size_t>((keep_hi - keep_lo) * row) *
                     sizeof(T));
    poison(w + (keep_hi - first) * row, w + window_rows_ * row);
    org_[os] = first;
  }
  /// Scans the rows still live, [first row, live_hi), with `scan`, and
  /// makes the full allocation the current storage again. A no-op without
  /// an open window, so an unwinding chain may close every window.
  void close_window(idx_t live_hi) {
    if (!windowed_) return;
    const auto os = static_cast<std::size_t>(outer_);
    if (scan_)
      scan_rows(org_[os], std::min(org_[os] + window_rows_, live_hi), tally_);
    org_[os] = alo_[os];
    windowed_ = false;
  }

  /// The NaN guard's scan of the owned region: the number of non-finite
  /// values, and in `*first` the scan-order index of the first of them.
  long long count_nonfinite(long long* first) const {
    NanTally t;
    scan_rows(exec_lo(outer_), exec_hi(outer_), t);
    *first = t.first;
    return t.bad;
  }
  /// The same scan for the last row window, tallied row by row as rows
  /// left it; equal to count_nonfinite() over the window's values.
  long long window_nonfinite(long long* first) const {
    *first = tally_.first;
    return tally_.bad;
  }

  bool halos_dirty() const { return dirty_; }
  void mark_halos_dirty() { dirty_ = true; }

  /// The deepest stencil radius any loop has read this dat with; the full
  /// halo depth until a loop reads it.
  int read_radius() const { return read_radius_; }
  /// Records a loop read through a stencil of `radius`, before its halo
  /// exchange. The first read sets the radius (ghosts filled so far cover
  /// the full depth); a deeper later read raises it and marks the halos
  /// dirty, so the next exchange fills the rings it adds.
  void note_read(int radius) {
    if (!read_) {
      read_ = true;
      read_radius_ = radius;
    } else if (radius > read_radius_) {
      read_radius_ = radius;
      dirty_ = true;
    }
  }

  /// Performs the full halo update (messages to neighbors, BC fills at
  /// physical boundaries, corner consistency via dimension ordering) and
  /// clears the dirty flag. No-op if halos are clean or depth is 0.
  /// Messages and periodic wraps carry the full depth; a physical face is
  /// filled fill_rings() deep, as far as any loop reads past it (tiled
  /// redundant compute never extends across a non-periodic edge).
  void exchange_halos() {
    if (!dirty_ || depth_ == 0) return;
    trace::TraceSpan span(trace::Cat::Halo, "halo:", name_);
    static Counter& exchanges =
        MetricsRegistry::global().counter("halo.exchanges");
    exchanges.inc();
    for (int d = 0; d < block_->ndims(); ++d) exchange_dim(d);
    dirty_ = false;
  }

  /// Physical-boundary ghost rings a fill writes: as deep as the deepest
  /// read, never deeper than the halo.
  int fill_rings() const { return std::min(depth_, read_radius_); }

  /// Re-applies the physical-boundary ghost fills, fill_rings() deep (used
  /// by the tiled chain executor to keep boundary ghosts current
  /// mid-chain). When `outer_lo < outer_hi`, only outer rows
  /// [outer_lo, outer_hi) were written since the ghosts were last
  /// consistent, and the refresh costs what those rows cost:
  ///  * faces of the non-outer dimensions are refreshed exactly on the
  ///    written rows (clipped to the allocation, so redundantly computed
  ///    ghost rows of the outer dimension are covered). A side ghost
  ///    mirrors or copies a point of its own row, so no other row can be
  ///    stale.
  ///  * an outer face is refreshed whole when a written row lies within
  ///    `rings` of it, i.e. among the rows its strip is sourced from
  ///    ([exec_lo, exec_lo + rings] low, [exec_hi - rings - 1, exec_hi)
  ///    high), and skipped otherwise.
  void refresh_physical_bcs(idx_t outer_lo = 0, idx_t outer_hi = -1) {
    for_each_refresh(outer_lo, outer_hi,
                     [this](int d, int side, const Box& ghosts) {
                       fill_bc(d, side, ghosts);
                     });
  }

  /// The outer rows refresh_physical_bcs(outer_lo, outer_hi) reads or
  /// writes, as [first, last); empty when it touches none. A side face
  /// touches its own rows; an outer face rewrites its whole strip and
  /// reads the strip's source rows.
  std::pair<idx_t, idx_t> refresh_rows(idx_t outer_lo, idx_t outer_hi) const {
    const auto os = static_cast<std::size_t>(outer_);
    idx_t lo = std::numeric_limits<idx_t>::max();
    idx_t hi = std::numeric_limits<idx_t>::min();
    for_each_refresh(outer_lo, outer_hi,
                     [&](int d, int side, const Box& ghosts) {
                       if (!fills(d, side)) return;
                       lo = std::min(lo, ghosts.lo[os]);
                       hi = std::max(hi, ghosts.hi[os]);
                       if (d != outer_) return;
                       const auto [a, b] = bc_source(d, side);
                       const idx_t s0 = a + b * ghosts.lo[os];
                       const idx_t s1 = a + b * (ghosts.hi[os] - 1);
                       lo = std::min({lo, s0, s1});
                       hi = std::max({hi, s0 + 1, s1 + 1});
                     });
    return {lo, hi};
  }

  /// Number of locally-owned points (product of exec extents).
  count_t local_points() const {
    count_t p = 1;
    for (int d = 0; d < block_->ndims(); ++d)
      p *= static_cast<count_t>(exec_hi(d) - exec_lo(d));
    return p;
  }

  /// Fills the owned region (tests/initialization).
  template <class F>
  void fill_indexed(F&& f) {
    for (idx_t k = exec_lo(2); k < exec_hi(2); ++k)
      for (idx_t j = exec_lo(1); j < exec_hi(1); ++j)
        for (idx_t i = exec_lo(0); i < exec_hi(0); ++i)
          at(i, j, k) = f(i, j, k);
    mark_halos_dirty();
  }
  void fill(T value) {
    fill_indexed([&](idx_t, idx_t, idx_t) { return value; });
  }

 private:
  // A box in global index space, [lo, hi) per dimension.
  struct Box {
    std::array<idx_t, 3> lo, hi;
    idx_t points() const {
      return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
    }
  };

  /// The refresh_physical_bcs(outer_lo, outer_hi) fills, as calls
  /// f(d, side, ghosts) (see there for the rule).
  template <class F>
  void for_each_refresh(idx_t outer_lo, idx_t outer_hi, F&& f) const {
    const idx_t rings = fill_rings();
    if (rings == 0) return;
    const auto os = static_cast<std::size_t>(outer_);
    const bool rows = outer_lo < outer_hi;
    for (int d = 0; d < block_->ndims(); ++d) {
      const auto ds = static_cast<std::size_t>(d);
      if (bc_[ds][0] == Bc::Periodic) continue;
      Box low = base_box(d), high = base_box(d);
      low.lo[ds] = exec_lo(d) - rings;
      low.hi[ds] = exec_lo(d);
      high.lo[ds] = exec_hi(d);
      high.hi[ds] = exec_hi(d) + rings;
      bool do_low = block_->neighbor(d, -1) < 0;
      bool do_high = block_->neighbor(d, +1) < 0;
      if (rows && d != outer_) {
        low.lo[os] = high.lo[os] = std::max(alo_[os], outer_lo);
        low.hi[os] = high.hi[os] = std::min(ahi_[os], outer_hi);
      } else if (rows) {
        do_low = do_low && outer_lo <= exec_lo(d) + rings &&
                 outer_hi > exec_lo(d);
        do_high = do_high && outer_lo < exec_hi(d) &&
                  outer_hi > exec_hi(d) - rings - 1;
      }
      if (do_low) f(d, 0, low);
      if (do_high) f(d, 1, high);
    }
  }

  T* storage() { return windowed_ ? window_.data() : data_.data(); }
  const T* storage() const {
    return windowed_ ? window_.data() : data_.data();
  }
  /// Offset of global (i, j, k) from the current storage's first element,
  /// whose indices are org_.
  idx_t offset(idx_t i, idx_t j, idx_t k) const {
    return ((k - org_[2]) * sy_ + (j - org_[1])) * sx_ + (i - org_[0]);
  }
  /// Elements of one outer row of the allocation (a row in 2-D, a plane
  /// in 3-D).
  idx_t outer_row_elems() const {
    idx_t n = 1;
    for (int d = 0; d < outer_; ++d)
      n *= ahi_[static_cast<std::size_t>(d)] - alo_[static_cast<std::size_t>(d)];
    return n;
  }
  /// Fills [b, e) with NaN under poison_unfilled_ghosts().
  static void poison(T* b, T* e) {
    if constexpr (std::numeric_limits<T>::has_quiet_NaN)
      if (poison_unfilled_ghosts().load(std::memory_order_relaxed))
        std::fill(b, e, std::numeric_limits<T>::quiet_NaN());
  }

  /// A NaN-guard tally: non-finite values so far, and the owned-region
  /// scan-order index of the first (-1 while there is none).
  struct NanTally {
    long long bad = 0, first = -1;
  };
  /// Adds the owned points of outer rows [lo, hi) to `t`. Rows are added
  /// in ascending order, so the first index found is the tally's first.
  void scan_rows(idx_t lo, idx_t hi, NanTally& t) const {
    const auto os = static_cast<std::size_t>(outer_);
    std::array<idx_t, 3> elo{}, ehi{};
    long long row_points = 1;
    for (int d = 0; d < 3; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      elo[ds] = exec_lo(d);
      ehi[ds] = exec_hi(d);
      if (d < outer_) row_points *= ehi[ds] - elo[ds];
    }
    elo[os] = std::max(elo[os], lo);
    ehi[os] = std::min(ehi[os], hi);
    if (elo[os] >= ehi[os]) return;
    long long idx = (elo[os] - exec_lo(outer_)) * row_points;
    for (idx_t k = elo[2]; k < ehi[2]; ++k)
      for (idx_t j = elo[1]; j < ehi[1]; ++j) {
        const T* row = ptr(elo[0], j, k);
        for (idx_t x = 0; x < ehi[0] - elo[0]; ++x, ++idx)
          if (!std::isfinite(row[x]) && t.bad++ == 0) t.first = idx;
      }
  }

  void pack(const Box& b, std::vector<T>& buf) const {
    buf.clear();
    buf.reserve(static_cast<std::size_t>(b.points()));
    for (idx_t k = b.lo[2]; k < b.hi[2]; ++k)
      for (idx_t j = b.lo[1]; j < b.hi[1]; ++j) {
        const T* row = ptr(b.lo[0], j, k);
        buf.insert(buf.end(), row, row + (b.hi[0] - b.lo[0]));
      }
  }
  void unpack(const Box& b, const std::vector<T>& buf) {
    const T* src = buf.data();
    for (idx_t k = b.lo[2]; k < b.hi[2]; ++k)
      for (idx_t j = b.lo[1]; j < b.hi[1]; ++j) {
        T* row = ptr(b.lo[0], j, k);
        const idx_t n = b.hi[0] - b.lo[0];
        std::copy(src, src + n, row);
        src += n;
      }
  }

  /// Extents of the exchange slab in the non-exchange dimensions: full
  /// allocation for dimensions already exchanged (fills corners), exec
  /// range for dimensions not yet exchanged.
  Box base_box(int d) const {
    Box b{};
    for (int e = 0; e < 3; ++e) {
      const auto es = static_cast<std::size_t>(e);
      if (e < d) {
        b.lo[es] = alo_[es];
        b.hi[es] = ahi_[es];
      } else {
        b.lo[es] = exec_lo(e);
        b.hi[es] = exec_hi(e);
      }
    }
    return b;
  }

  void exchange_dim(int d) {
    const auto ds = static_cast<std::size_t>(d);
    Context& ctx = block_->ctx();
    par::Comm* comm = ctx.comm();
    ExchangeRecord& rec = ctx.instr().exchange(name_);
    rec.halo_depth = depth_;
    rec.elem_bytes = sizeof(T);
    ++rec.exchanges;

    const idx_t lo = exec_lo(d), hi = exec_hi(d);
    const idx_t wl = depth_;  // low-side ghost width (all ranks)
    // High-side ghost width of THIS rank: the allocation reserves
    // depth + stagger beyond own_hi; on the high-edge rank exec_hi
    // already includes the stagger point, leaving exactly depth ghosts.
    const idx_t wh_recv = depth_ + stagger_[ds] - (hi - own_hi_[ds]);
    // Width of the strip a low neighbor needs from us: its recv_high is
    // always the non-edge width depth + stagger (a rank with a high
    // neighbor is never the high edge).
    const idx_t wh_send = depth_ + stagger_[ds];
    // Strips in global index space:
    Box send_low = base_box(d), send_high = base_box(d), recv_low = send_low,
        recv_high = send_high;
    send_low.lo[ds] = lo;          // to low neighbor's high ghosts
    send_low.hi[ds] = lo + wh_send;
    send_high.lo[ds] = hi - wl;    // to high neighbor's low ghosts
    send_high.hi[ds] = hi;
    recv_low.lo[ds] = lo - wl;
    recv_low.hi[ds] = lo;
    recv_high.lo[ds] = hi;
    recv_high.hi[ds] = hi + wh_recv;

    const bool periodic = bc_[ds][0] == Bc::Periodic;
    BWLAB_REQUIRE(!periodic || stagger_[ds] == 0,
                  "periodic BCs unsupported on staggered dats");
    BWLAB_REQUIRE(!periodic || bc_[ds][1] == Bc::Periodic,
                  "periodic BCs must be set on both sides");

    int nb_low = block_->neighbor(d, -1);
    int nb_high = block_->neighbor(d, +1);
    if (periodic) {
      nb_low = block_->neighbor_periodic(d, -1);
      nb_high = block_->neighbor_periodic(d, +1);
    }
    const int me = ctx.rank();

    // Tags: unique per (dat, dim, direction). A message travelling in +d
    // uses tag base+0, in -d base+1; matching is per (src, tag).
    const int tag_base = id_ * 8 + d * 2;

    // Both directions are SENT before either RECEIVE: with blocking
    // receives first, a periodic ring of ranks deadlocks (everyone waits
    // for a message its neighbor only sends after its own receive).
    // SimMPI sends are eagerly buffered, so sending first is safe.
    auto send_to = [&](int nb, const Box& sbox, std::vector<T>& buf,
                       int tag) {
      if (nb < 0 || nb == me || comm == nullptr) return;
      {
        trace::TraceSpan pack_span(trace::Cat::Halo, "halo.pack:", name_);
        pack(sbox, buf);
      }
      comm->send(nb, tag, buf.data(), buf.size() * sizeof(T));
      ++rec.messages;
      rec.bytes += buf.size() * sizeof(T);
      static Counter& msgs = MetricsRegistry::global().counter("halo.messages");
      static Counter& bytes = MetricsRegistry::global().counter("halo.bytes");
      msgs.inc();
      bytes.inc(buf.size() * sizeof(T));
    };
    auto recv_from = [&](int nb, const Box& rbox, const Box& self_src,
                         int tag) {
      if (nb < 0) return;
      if (nb == me || comm == nullptr) {
        // Periodic self-wrap: copy with index translation in dim d.
        std::vector<T>& buf = scratch_a_;
        pack(self_src, buf);
        unpack(rbox, buf);
        return;
      }
      std::vector<T> rbuf(static_cast<std::size_t>(rbox.points()));
      comm->recv(nb, tag, rbuf.data(), rbuf.size() * sizeof(T));
      // Only real (cross-rank) receives count — the periodic self-wrap
      // copy above never hits the wire, keeping rec.bytes/bytes_received
      // exactly equal to par::Comm's payload RankStats.
      rec.bytes_received += rbuf.size() * sizeof(T);
      trace::TraceSpan unpack_span(trace::Cat::Halo, "halo.unpack:", name_);
      unpack(rbox, rbuf);
    };

    send_to(nb_high, send_high, scratch_a_, tag_base + 0);
    send_to(nb_low, send_low, scratch_b_, tag_base + 1);
    // recv_high carries the high neighbor's send_low (-d direction).
    recv_from(nb_high, recv_high, send_low, tag_base + 1);
    recv_from(nb_low, recv_low, send_high, tag_base + 0);

    // Physical-boundary fills where there is no (periodic) neighbor, as
    // deep as loops read (a high-edge rank's recv_high is `depth` wide).
    if (!periodic) {
      recv_low.lo[ds] = lo - fill_rings();
      recv_high.hi[ds] = hi + fill_rings();
      if (nb_low < 0) fill_bc(d, /*side=*/0, recv_low);
      if (nb_high < 0) fill_bc(d, /*side=*/1, recv_high);
    }
  }

  /// Whether fill_bc writes anything on face (d, side).
  bool fills(int d, int side) const {
    const Bc bc =
        bc_[static_cast<std::size_t>(d)][static_cast<std::size_t>(side)];
    return bc != Bc::None && bc != Bc::Periodic;
  }
  /// fill_bc's source index on face (d, side), a + b*g for ghost index g.
  std::pair<idx_t, idx_t> bc_source(int d, int side) const {
    const auto ds = static_cast<std::size_t>(d);
    const idx_t lo = exec_lo(d), hi = exec_hi(d);
    const idx_t node = stagger_[ds];
    if (bc_[ds][static_cast<std::size_t>(side)] == Bc::CopyNearest)
      return {side == 0 ? lo : hi - 1, 0};
    return {side == 0 ? 2 * lo - 1 + node : 2 * hi - 1 - node, -1};
  }

  /// Fills the ghost box of face (d, side) from the interior. The source
  /// index in dimension d is affine in the ghost index, src = a + b*g:
  /// CopyNearest repeats the boundary point (b = 0), Reflect/ReflectNeg
  /// mirror (b = -1). For cell-centered fields the mirror plane sits
  /// between cells (lo-1|lo and hi-1|hi); for node-centered fields it *is*
  /// the boundary node (lo and hi-1). Walks rows: a mirrored run within
  /// the row for d = 0, a whole-row copy from the source row otherwise.
  void fill_bc(int d, int side, const Box& ghosts) {
    if (!fills(d, side)) return;  // periodic: exchanged
    const auto [a, b] = bc_source(d, side);
    const bool neg =
        bc_[static_cast<std::size_t>(d)][static_cast<std::size_t>(side)] ==
        Bc::ReflectNeg;
    const idx_t n = ghosts.hi[0] - ghosts.lo[0];
    for (idx_t k = ghosts.lo[2]; k < ghosts.hi[2]; ++k)
      for (idx_t j = ghosts.lo[1]; j < ghosts.hi[1]; ++j) {
        T* dst = ptr(ghosts.lo[0], j, k);
        if (d == 0) {
          const T* src = ptr(a + b * ghosts.lo[0], j, k);
          for (idx_t x = 0; x < n; ++x) {
            const T v = src[b * x];
            dst[x] = neg ? -v : v;
          }
          continue;
        }
        const T* src = d == 1 ? ptr(ghosts.lo[0], a + b * j, k)
                              : ptr(ghosts.lo[0], j, a + b * k);
        if (neg)
          for (idx_t x = 0; x < n; ++x) dst[x] = -src[x];
        else
          std::copy(src, src + n, dst);
      }
  }

  Block* block_;
  std::string name_;
  int id_;
  int depth_;
  int outer_;                 // the tiled (outermost) dimension
  int read_radius_ = depth_;  // see read_radius()
  bool read_ = false;         // a loop has read the dat (note_read)
  std::array<int, 3> stagger_;
  std::array<idx_t, 3> own_lo_{}, own_hi_{}, exec_hi_{}, alo_{}, ahi_{};
  std::array<std::array<Bc, 2>, 3> bc_{};
  idx_t sx_ = 0, sy_ = 0;
  field_vector<T> data_;
  // Row window (chain-local dats in tiled chains): org_ holds the global
  // indices of the current storage's first element, alo_ but for the
  // window's first outer row while windowed_.
  std::array<idx_t, 3> org_{};
  field_vector<T> window_;
  idx_t window_rows_ = 0;
  bool windowed_ = false;
  bool chain_local_ = false;
  bool scan_ = false;   // the NaN guard tallies the window's rows
  NanTally tally_;      // of the last window
  std::vector<T> scratch_a_, scratch_b_;
  bool dirty_ = true;  // fresh dats have unfilled ghosts
};

}  // namespace bwlab::ops
