// par_loop: the mini-OPS parallel loop. The caller supplies a kernel
// functor plus one argument descriptor per accessed dat (read / write /
// readwrite with a stencil) or global reduction. The runtime:
//   1. triggers halo exchanges for dirty dats read with a stencil,
//   2. intersects the global range with this rank's execution ownership,
//   3. executes the kernel over the local range (optionally across the
//      rank's thread team, parallelized over the outermost dimension) with
//      one row sweep (detail::sweep) shared by every executor,
//   4. merges reductions from per-row partials in ascending row order
//      (cross-rank merging is the caller's allreduce),
//   5. records one loop event — useful bytes, flops, time (Figure 8) —
//      through common/instrument's record_loop, and
//   6. marks written dats' halos dirty.
//
// Kernels receive one accessor per dat argument, centered on the current
// point: `a(di,dj[,dk])` reads/writes at the relative offset — the ACC<>
// idiom of OPS-generated code — and a plain `T&` for reductions.
#pragma once

#include <array>
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "common/instrument.hpp"
#include "ops/chain.hpp"
#include "ops/dat.hpp"

/// Asserts that the iterations of the loop that follows carry no memory
/// dependence, so the compiler vectorizes it without runtime alias checks.
#if defined(__clang__)
#define BWLAB_NO_LOOP_DEP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define BWLAB_NO_LOOP_DEP _Pragma("GCC ivdep")
#else
#define BWLAB_NO_LOOP_DEP
#endif

namespace bwlab::ops {

/// Relative-offset accessor; `const T` for read-only arguments.
template <class T>
struct Acc {
  T* p;
  idx_t sx, sy;
  T& operator()(int di, int dj) const { return p[dj * sx + di]; }
  T& operator()(int di, int dj, int dk) const {
    return p[(static_cast<idx_t>(dk) * sy + dj) * sx + di];
  }
};

// --- Argument descriptors ---------------------------------------------------

template <class T>
struct ArgRead {
  Dat<T>* dat;
  Stencil sten;
};
template <class T>
struct ArgWrite {
  Dat<T>* dat;
};
template <class T>
struct ArgRW {
  Dat<T>* dat;
};
template <class T>
struct ArgRedSum {
  T* target;
};
template <class T>
struct ArgRedMax {
  T* target;
};
template <class T>
struct ArgRedMin {
  T* target;
};

/// Read access through `sten` (defaults to the 1-point stencil).
template <class T>
ArgRead<T> read(Dat<T>& d, const Stencil& s = Stencil::point()) {
  return {&d, s};
}
/// Write access at the point itself (assignment semantics).
template <class T>
ArgWrite<T> write(Dat<T>& d) {
  return {&d};
}
/// Read-modify-write at the point itself.
template <class T>
ArgRW<T> read_write(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgRedSum<T> reduce_sum(T& v) {
  return {&v};
}
template <class T>
ArgRedMax<T> reduce_max(T& v) {
  return {&v};
}
template <class T>
ArgRedMin<T> reduce_min(T& v) {
  return {&v};
}

namespace detail {

// Per-call bound state for each argument kind. `row(j,k)` hoists what is
// invariant along a row; the row's `at(i)` yields what the kernel
// receives and `flush()` ends the row. `merge()` folds a bound
// reduction partial into its target.

/// One row of a bound dat: the row's base pointer, computed once.
template <class E>
struct RowDat {
  E* p;
  idx_t sx, sy;
  Acc<E> at(idx_t i) const { return Acc<E>{p + i, sx, sy}; }
  void flush() const {}
};

template <class T, bool Mutable>
struct BoundDat {
  using elem_t = std::conditional_t<Mutable, T, const T>;
  elem_t* base;  // pointer to global (0,0,0)
  idx_t sx, sy;
  RowDat<elem_t> row(idx_t j, idx_t k) const {
    return {base + (k * sy + j) * sx, sx, sy};
  }
  void merge() {}
};

/// One row of a reduction: the partial is a local of the row (a register
/// once inlined), written back by flush().
template <class T>
struct RowRed {
  T v;
  T* dst;
  T& at(idx_t) { return v; }
  void flush() const { *dst = v; }
};

enum class RedKind { Sum, Max, Min };

template <class T, RedKind K>
struct BoundRed {
  T* target;
  T local;
  RowRed<T> row(idx_t, idx_t) { return {local, &local}; }
  void merge() {
    // merge() runs sequentially after the team join, so no atomics needed.
    if constexpr (K == RedKind::Sum) *target += local;
    if constexpr (K == RedKind::Max) *target = std::max(*target, local);
    if constexpr (K == RedKind::Min) *target = std::min(*target, local);
  }
};

template <class T>
BoundDat<T, false> bind(const ArgRead<T>& a) {
  // base pointer such that base + (k*sy+j)*sx + i == element (i,j,k)
  return {a.dat->ptr(0, 0, 0), a.dat->stride_x(), a.dat->stride_y()};
}
template <class T>
BoundDat<T, true> bind(const ArgWrite<T>& a) {
  return {a.dat->ptr(0, 0, 0), a.dat->stride_x(), a.dat->stride_y()};
}
template <class T>
BoundDat<T, true> bind(const ArgRW<T>& a) {
  return {a.dat->ptr(0, 0, 0), a.dat->stride_x(), a.dat->stride_y()};
}
template <class T>
BoundRed<T, RedKind::Sum> bind(const ArgRedSum<T>& a) {
  return {a.target, T{}};
}
template <class T>
BoundRed<T, RedKind::Max> bind(const ArgRedMax<T>& a) {
  return {a.target, *a.target};
}
template <class T>
BoundRed<T, RedKind::Min> bind(const ArgRedMin<T>& a) {
  return {a.target, *a.target};
}

// --- Descriptor inspection (exchanges, accounting, classification) ---------

template <class T>
void pre_exchange(const ArgRead<T>& a) {
  const int r = a.sten.max_radius();
  if (r == 0) return;
  a.dat->note_read(r);
  a.dat->exchange_halos();
}
template <class A>
void pre_exchange(const A&) {}

template <class T>
void post_mark(const ArgWrite<T>& a) {
  a.dat->mark_halos_dirty();
}
template <class T>
void post_mark(const ArgRW<T>& a) {
  a.dat->mark_halos_dirty();
}
template <class A>
void post_mark(const A&) {}

template <class T>
count_t arg_bytes(const ArgRead<T>&) {
  return sizeof(T);
}
template <class T>
count_t arg_bytes(const ArgWrite<T>&) {
  return sizeof(T);
}
template <class T>
count_t arg_bytes(const ArgRW<T>&) {
  return 2 * sizeof(T);  // read + write both count (OPS useful-bytes)
}
template <class A>
count_t arg_bytes(const A&) {
  return 0;
}

template <class T>
int arg_radius(const ArgRead<T>& a) {
  return a.sten.max_radius();
}
template <class A>
int arg_radius(const A&) {
  return 0;
}

// --- Loop-event dat arguments (common/instrument record_loop) --------------
// Read footprint = executed range dilated per dimension by the stencil
// radius (read_footprint, shared with the chain executor); write footprint
// = executed points. Both are exact consequences of descriptor × range, so
// they are identical for every thread-pool size.

/// NaN-guard scan of a dat's owned region (index in exec-region order).
template <class T>
long long count_nonfinite(const void* dat, long long* first) {
  return static_cast<const Dat<T>*>(dat)->count_nonfinite(first);
}

/// The same scan of a chain-local dat after a tiled chain, tallied as its
/// rows left the row window.
template <class T>
long long window_nonfinite(const void* dat, long long* first) {
  return static_cast<const Dat<T>*>(dat)->window_nonfinite(first);
}

/// The NaN-guard scan of a written Dat<T> (none for non-float fields).
template <class T>
NonfiniteScan nonfinite_scan() {
  if constexpr (std::is_floating_point_v<T>) return &count_nonfinite<T>;
  return nullptr;
}

template <class T>
LoopDatArg dat_arg(const Dat<T>& d, count_t read_b, count_t write_b,
                   NonfiniteScan scan) {
  count_t alloc = Dat<T>::elem_bytes();
  for (int dim = 0; dim < 3; ++dim)
    alloc *= static_cast<count_t>(d.alloc_hi(dim) - d.alloc_lo(dim));
  return {&d, &d.name(), alloc, read_b, write_b, scan};
}

template <class T>
LoopDatArg event_arg(const ArgRead<T>& a, const Range& r) {
  return dat_arg(*a.dat, read_footprint(r, a.sten.radius) * sizeof(T), 0,
                 nullptr);
}
template <class T>
LoopDatArg event_arg(const ArgWrite<T>& a, const Range& r) {
  return dat_arg(*a.dat, 0, r.count() * sizeof(T), nonfinite_scan<T>());
}
template <class T>
LoopDatArg event_arg(const ArgRW<T>& a, const Range& r) {
  const count_t b = r.count() * sizeof(T);
  return dat_arg(*a.dat, b, b, nonfinite_scan<T>());
}
template <class A>
LoopDatArg event_arg(const A&, const Range&) {
  return {};
}

template <class A>
inline constexpr bool is_reduction_v = false;
template <class T>
inline constexpr bool is_reduction_v<ArgRedSum<T>> = true;
template <class T>
inline constexpr bool is_reduction_v<ArgRedMax<T>> = true;
template <class T>
inline constexpr bool is_reduction_v<ArgRedMin<T>> = true;

// --- Point-write contract ---------------------------------------------------
// A loop may write a dat only at the point it executes, and may not read
// a dat it writes through a stencil of radius > 0: then no point reads
// another point's result, the points of a row are independent, and the
// row sweep's no-dependence pragma is sound.

struct DatRef {
  const void* id = nullptr;
  const std::string* name = nullptr;
};

template <class T>
DatRef stencil_read(const ArgRead<T>& a) {
  if (a.sten.max_radius() == 0) return {};
  return {a.dat, &a.dat->name()};
}
template <class A>
DatRef stencil_read(const A&) {
  return {};
}
template <class T>
DatRef written(const ArgWrite<T>& a) {
  return {a.dat, &a.dat->name()};
}
template <class T>
DatRef written(const ArgRW<T>& a) {
  return {a.dat, &a.dat->name()};
}
template <class A>
DatRef written(const A&) {
  return {};
}

template <class... Args>
void require_point_writes(const LoopMeta& meta, const Args&... args) {
  const std::array<DatRef, sizeof...(Args)> reads{stencil_read(args)...};
  const std::array<DatRef, sizeof...(Args)> writes{written(args)...};
  for (const DatRef& r : reads)
    for (const DatRef& w : writes)
      BWLAB_REQUIRE(r.id == nullptr || r.id != w.id,
                    "loop '" << meta.name << "' reads dat '" << *r.name
                             << "' through a stencil and also writes it");
}

// --- Row sweep --------------------------------------------------------------

/// The row sweep every executor runs: `kernel` over `rr` in (k, j, i)
/// order, accumulating reductions into `bound`. The kernel is a by-value
/// copy, so its captures are locals that no store through an accessor can
/// alias; each row's base pointers are computed once; and the unit-stride
/// i loop of a loop without reductions runs under BWLAB_NO_LOOP_DEP. That
/// is sound by the point-write contract. Rows of a reduction stay scalar
/// and in order, so partials associate exactly as written. The sweep is a
/// call of its own: inlined into par_loop, its row loop competed for
/// registers with the rest of that large body (the 5-point stencil of
/// gb_host_kernels spilled a vector per iteration and ran 30 % slower),
/// and one call per range costs nothing measurable.
template <bool Independent, class Kernel, class Bound>
[[gnu::noinline]] void sweep(Kernel kernel, Bound& bound, const Range& rr) {
  const idx_t ilo = rr.lo[0], ihi = rr.hi[0];
  for (idx_t k = rr.lo[2]; k < rr.hi[2]; ++k)
    for (idx_t j = rr.lo[1]; j < rr.hi[1]; ++j) {
      auto rows = std::apply(
          [&](auto&... bs) { return std::make_tuple(bs.row(j, k)...); },
          bound);
      std::apply(
          [&](auto&... rs) {
            if constexpr (Independent) {
              BWLAB_NO_LOOP_DEP
              for (idx_t i = ilo; i < ihi; ++i) kernel(rs.at(i)...);
            } else {
              for (idx_t i = ilo; i < ihi; ++i) kernel(rs.at(i)...);
            }
            (rs.flush(), ...);
          },
          rows);
    }
}

/// The dimension whose indices are the rows of a loop over `owned`: k when
/// it spans more than one plane, else j. Teams deal whole rows, and a
/// reduction keeps one partial per row.
inline int row_dim(const Range& owned) {
  return owned.extent(2) > 1 ? 2 : 1;
}

/// Reduction partials of one loop: one per row of its owned range (a row
/// in 2-D, a plane in 3-D), merged in ascending order. The association of
/// every reduced value is then fixed by the owned range alone: bitwise
/// equal for every team size, tile height and executor.
template <class Exec>
class RowPartials {
 public:
  RowPartials(Exec exec, const Range& owned)
      : exec_(std::move(exec)),
        dim_(static_cast<std::size_t>(row_dim(owned))),
        lo_(owned.lo[dim_]),
        rows_(static_cast<std::size_t>(
            std::max<idx_t>(owned.hi[dim_] - owned.lo[dim_], 0))) {}

  /// Computes the partial of every row of `r`, a part of the owned range
  /// holding whole rows. Calls on disjoint rows may run concurrently.
  void run(const Range& r) {
    for (idx_t o = r.lo[dim_]; o < r.hi[dim_]; ++o) {
      Range row = r;
      row.lo[dim_] = o;
      row.hi[dim_] = o + 1;
      rows_[static_cast<std::size_t>(o - lo_)] = exec_(row);
    }
  }
  /// Folds every partial into its target, rows ascending. Every row was
  /// computed by run() before, so no placeholder is ever merged.
  void merge() {
    for (auto& bound : rows_)
      std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
  }

 private:
  using Bound = decltype(std::declval<Exec&>()(Range{}));
  Exec exec_;
  std::size_t dim_;
  idx_t lo_;
  std::vector<Bound> rows_;
};

}  // namespace detail

/// Intersection of a global range with this rank's execution ownership.
/// All dat arguments of a loop share the block decomposition, so ownership
/// is taken from the block plus the maximum stagger of the written dats —
/// encoded in the range the app supplies (ranges address valid indices of
/// every argument; ownership of index n (one past the last base cell)
/// falls to the high-edge rank).
inline Range local_range(const Block& b, const Range& r) {
  Range out = r;
  for (int d = 0; d < b.ndims(); ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const auto [lo, hi] = b.own_range(d);
    out.lo[ds] = std::max(r.lo[ds], lo);
    idx_t h = hi;
    if (b.is_high_edge(d)) h = std::max(h, std::min(r.hi[ds], b.size(d) + 1));
    out.hi[ds] = std::min(r.hi[ds], h);
  }
  return out;
}

/// Infers the access pattern of a loop from its descriptors and range.
inline Pattern infer_pattern(const Block& b, const Range& r, int max_radius,
                             bool has_reduction) {
  // A loop whose range is thin in some dimension (a face/edge update).
  for (int d = 0; d < b.ndims(); ++d)
    if (r.extent(d) <= 4 && b.size(d) > 16) return Pattern::Boundary;
  if (has_reduction) return Pattern::Reduction;
  if (max_radius >= 3) return Pattern::WideStencil;
  if (max_radius >= 1) return Pattern::Stencil;
  return Pattern::Streaming;
}

namespace detail {

/// The loop event of `meta` over `range` that eager, blocked and chained
/// execution all record: the LoopRecord, the useful bytes and flops of the
/// owned part `local`, and the access pattern. The executor adds the dat
/// arguments and the time.
template <class... Args>
LoopEvent loop_event(const LoopMeta& meta, Block& b, const Range& range,
                     const Range& local, const Args&... args) {
  int max_radius = 0;
  ((max_radius = std::max(max_radius, arg_radius(args))), ...);
  count_t bytes_pp = 0;
  ((bytes_pp += arg_bytes(args)), ...);
  const bool has_red = (is_reduction_v<Args> || ...);
  Instrumentation& ins = b.ctx().instr();
  LoopEvent ev;
  ev.instr = &ins;
  ev.rec = &ins.loop(meta.name);
  ev.points = local.count();
  ev.bytes = ev.points * bytes_pp;
  ev.flops = static_cast<double>(ev.points) * meta.flops_per_point;
  ev.pattern = meta.has_pattern
                   ? meta.pattern
                   : infer_pattern(b, range, max_radius, has_red);
  ev.max_radius = max_radius;
  ev.ndims = b.ndims();
  return ev;
}

// ChainDatUse extraction for lazy (tiled) execution.
template <class T>
ChainDatUse dat_use(Dat<T>* d) {
  ChainDatUse u;
  u.id = d;
  u.name = d->name();
  u.halo_depth = d->halo_depth();
  u.elem_bytes = Dat<T>::elem_bytes();
  for (int dim = 0; dim < 3; ++dim) {
    u.periodic[static_cast<std::size_t>(dim)] = d->bc(dim, 0) == Bc::Periodic;
    u.alloc_extent[static_cast<std::size_t>(dim)] =
        d->alloc_hi(dim) - d->alloc_lo(dim);
  }
  u.exchange = [d] { d->exchange_halos(); };
  u.mark_dirty = [d] { d->mark_halos_dirty(); };
  u.refresh_bcs = [d](idx_t lo, idx_t hi) { d->refresh_physical_bcs(lo, hi); };
  if (d->chain_local()) {
    u.chain_local = true;
    for (int dim = 0; dim < 3; ++dim)
      u.global_hi[static_cast<std::size_t>(dim)] = d->global_hi(dim);
    u.refresh_rows = [d](idx_t lo, idx_t hi) {
      return d->refresh_rows(lo, hi);
    };
    u.window.open = [d](idx_t first, idx_t rows, bool scan) {
      d->open_window(first, rows, scan);
    };
    u.window.slide = [d](idx_t first, idx_t live_hi) {
      d->slide_window(first, live_hi);
    };
    u.window.close = [d](idx_t live_hi) { d->close_window(live_hi); };
    if constexpr (std::is_floating_point_v<T>)
      u.window.scan = &window_nonfinite<T>;
  }
  return u;
}

template <class T>
void add_use(std::vector<ChainDatUse>& v, const ArgRead<T>& a) {
  // Before the chain's exchange, so it fills the rings this read needs.
  a.dat->note_read(a.sten.max_radius());
  ChainDatUse u = dat_use(a.dat);
  u.is_read = true;
  u.radius = a.sten.radius;
  v.push_back(std::move(u));
}
template <class T>
void add_use(std::vector<ChainDatUse>& v, const ArgWrite<T>& a) {
  ChainDatUse u = dat_use(a.dat);
  u.is_written = true;
  u.scan = nonfinite_scan<T>();
  v.push_back(std::move(u));
}
template <class T>
void add_use(std::vector<ChainDatUse>& v, const ArgRW<T>& a) {
  ChainDatUse u = dat_use(a.dat);
  u.is_read = true;
  u.is_written = true;
  u.scan = nonfinite_scan<T>();
  v.push_back(std::move(u));
}
template <class A>
void add_use(std::vector<ChainDatUse>&, const A&) {}

}  // namespace detail

/// See file header. `range` is in global indices.
template <class Kernel, class... Args>
void par_loop(const LoopMeta& meta, Block& b, const Range& range,
              Kernel&& kernel, Args... args) {
  Context& ctx = b.ctx();
  detail::require_point_writes(meta, args...);

  // 1. Halo exchanges for stenciled reads (skipped in lazy mode: the chain
  //    executor exchanges once per chain with deep halos).
  if (!ctx.lazy()) (detail::pre_exchange(args), ...);

  // 2. Ownership. The event counts the loop even when the local part is
  //    empty, for profile shape.
  const Range local = local_range(b, range);
  LoopEvent ev = detail::loop_event(meta, b, range, local, args...);
  constexpr bool kHasRed = (detail::is_reduction_v<Args> || ...);

  // 3+4. Execute. exec_range runs exactly the given range on the calling
  // thread (own bound-argument copies per call, no pool access) and
  // returns the bound tuple so reduction partials can be merged.
  auto exec_range = [kernel, args...](const Range& rr) {
    auto bound = std::make_tuple(detail::bind(args)...);
    detail::sweep<!kHasRed>(kernel, bound, rr);
    return bound;
  };
  using Partials = detail::RowPartials<decltype(exec_range)>;

  if (ctx.lazy()) {
    // Defer execution. The enqueued body is strictly serial: the tiled
    // chain executor owns the threading (it dispatches disjoint pieces of
    // each tile across the team), so the body must be safe to call
    // concurrently and must never re-enter the pool. A reduction keeps
    // one partial per owned row, computed where the chain runs the row
    // and merged after the chain; the body runs the redundant points,
    // whose partials it discards. The chain delivers the event once it
    // ran.
    BWLAB_REQUIRE(!kHasRed || b.ndims() > 1,
                  "loop '" << meta.name
                           << "': chained reductions need a 2-D or 3-D "
                              "block");
    std::vector<ChainDatUse> uses;
    (detail::add_use(uses, args), ...);
    ChainReduction red;
    if constexpr (kHasRed) {
      auto partials = std::make_shared<Partials>(exec_range, local);
      red.rows = [partials](const Range& rr) { partials->run(rr); };
      red.merge = [partials] { partials->merge(); };
    }
    enqueue_lazy(
        ctx, ev, b, range,
        [exec_range](const Range& rr) {
          if (!rr.empty()) exec_range(rr);
        },
        std::move(uses), std::move(red));
    return;
  }

  // 5. The loop event is recorded when the scope closes. Cross-rank
  //    reduction is the caller's choice (apps call comm->allreduce on the
  //    target); loop-local merge already happened.
  const std::array<LoopDatArg, sizeof...(Args)> dats{
      detail::event_arg(args, local)...};
  ev.args = dats;
  LoopScope scope(ev);
  if (!local.empty()) {
    par::ThreadPool* pool = ctx.pool();
    const int team = pool != nullptr ? pool->size() : 1;
    if constexpr (kHasRed) {
      // The team deals whole rows; each keeps its own partial.
      Partials partials(exec_range, local);
      const auto pd = static_cast<std::size_t>(detail::row_dim(local));
      if (team <= 1) {
        partials.run(local);
      } else {
        pool->parallel_for(local.lo[pd], local.hi[pd], [&](idx_t o) {
          Range row = local;
          row.lo[pd] = o;
          row.hi[pd] = o + 1;
          partials.run(row);
        });
      }
      partials.merge();
    } else if (team <= 1) {
      exec_range(local);
    } else {
      const auto od = static_cast<std::size_t>(detail::row_dim(local));
      pool->run([&](int tid) {
        Range sub = local;
        std::tie(sub.lo[od], sub.hi[od]) =
            pool->chunk(local.lo[od], local.hi[od], tid);
        if (!sub.empty()) exec_range(sub);
      });
    }
  }

  // 6. Dirty halos of written dats.
  (detail::post_mark(args), ...);
}

/// Executes `kernel` over `range` in workgroup-blocked order: the range
/// is cut into (wx, wy, wz) bricks and bricks run one after another —
/// the iteration order a SYCL nd_range launch with that workgroup shape
/// produces on a CPU (paper §5.1: the choice of workgroup shape against
/// the contiguous dimension decides prefetcher efficiency). Results are
/// identical to par_loop for any shape (writes are per-point); only the
/// order — and on real hardware the locality — changes.
template <class Kernel, class... Args>
void par_loop_blocked(const LoopMeta& meta, Block& b, const Range& range,
                      std::array<idx_t, 3> wg, Kernel&& kernel,
                      Args... args) {
  Context& ctx = b.ctx();
  BWLAB_REQUIRE(!ctx.lazy(), "blocked loops cannot be captured lazily");
  for (int d = 0; d < 3; ++d)
    BWLAB_REQUIRE(wg[static_cast<std::size_t>(d)] >= 1,
                  "workgroup extents must be >= 1");
  detail::require_point_writes(meta, args...);
  (detail::pre_exchange(args), ...);
  const Range local = local_range(b, range);
  LoopEvent ev = detail::loop_event(meta, b, range, local, args...);
  const std::array<LoopDatArg, sizeof...(Args)> dats{
      detail::event_arg(args, local)...};
  ev.args = dats;
  LoopScope scope(ev);
  if (!local.empty()) {
    constexpr bool kHasRed = (detail::is_reduction_v<Args> || ...);
    auto bound = std::make_tuple(detail::bind(args)...);
    for (idx_t bk = local.lo[2]; bk < local.hi[2]; bk += wg[2])
      for (idx_t bj = local.lo[1]; bj < local.hi[1]; bj += wg[1])
        for (idx_t bi = local.lo[0]; bi < local.hi[0]; bi += wg[0]) {
          const Range brick{{bi, bj, bk},
                            {std::min(local.hi[0], bi + wg[0]),
                             std::min(local.hi[1], bj + wg[1]),
                             std::min(local.hi[2], bk + wg[2])}};
          detail::sweep<!kHasRed>(kernel, bound, brick);
        }
    std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
  }
  (detail::post_mark(args), ...);
}

}  // namespace bwlab::ops
