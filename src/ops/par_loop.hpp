// par_loop: the mini-OPS parallel loop. The caller supplies a kernel
// functor plus one argument descriptor per accessed dat (read / write /
// readwrite with a stencil) or global reduction. The runtime:
//   1. triggers halo exchanges for dirty dats read with a stencil,
//   2. intersects the global range with this rank's execution ownership,
//   3. executes the kernel over the local range (optionally across the
//      rank's thread team, parallelized over the outermost dimension),
//   4. merges reductions across threads (and across ranks on request),
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
#include <tuple>
#include <vector>

#include "common/instrument.hpp"
#include "ops/chain.hpp"
#include "ops/dat.hpp"

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

// Per-thread bound state for each argument kind. `at(i,j,k)` yields what
// the kernel receives; `merge()` folds thread-local reductions back.

template <class T, bool Mutable>
struct BoundDat {
  using elem_t = std::conditional_t<Mutable, T, const T>;
  elem_t* base;  // pointer to global (0,0,0)
  idx_t sx, sy;
  Acc<elem_t> at(idx_t i, idx_t j, idx_t k) const {
    return Acc<elem_t>{base + (k * sy + j) * sx + i, sx, sy};
  }
  void merge() {}
};

enum class RedKind { Sum, Max, Min };

template <class T, RedKind K>
struct BoundRed {
  T* target;
  T local;
  T& at(idx_t, idx_t, idx_t) { return local; }
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
  if (a.sten.max_radius() > 0) a.dat->exchange_halos();
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
  const Dat<T>& d = *static_cast<const Dat<T>*>(dat);
  long long bad = 0, idx = 0;
  for (idx_t k = d.exec_lo(2); k < d.exec_hi(2); ++k)
    for (idx_t j = d.exec_lo(1); j < d.exec_hi(1); ++j)
      for (idx_t i = d.exec_lo(0); i < d.exec_hi(0); ++i, ++idx)
        if (!std::isfinite(d.at(i, j, k)) && bad++ == 0) *first = idx;
  return bad;
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
constexpr bool is_reduction(const A&) {
  return false;
}
template <class T>
constexpr bool is_reduction(const ArgRedSum<T>&) {
  return true;
}
template <class T>
constexpr bool is_reduction(const ArgRedMax<T>&) {
  return true;
}
template <class T>
constexpr bool is_reduction(const ArgRedMin<T>&) {
  return true;
}

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
  const bool has_red = (is_reduction(args) || ...);
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
  return u;
}

template <class T>
void add_use(std::vector<ChainDatUse>& v, const ArgRead<T>& a) {
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

  // 1. Halo exchanges for stenciled reads (skipped in lazy mode: the chain
  //    executor exchanges once per chain with deep halos).
  if (!ctx.lazy()) (detail::pre_exchange(args), ...);

  // 2. Ownership. The event counts the loop even when the local part is
  //    empty, for profile shape.
  const Range local = local_range(b, range);
  LoopEvent ev = detail::loop_event(meta, b, range, local, args...);
  const bool has_red = (detail::is_reduction(args) || ...);

  // 3+4. Execute. exec_range runs exactly the given range on the calling
  // thread (own bound-argument copies per call, no pool access) and
  // returns the bound tuple so reduction partials can be merged.
  auto exec_range = [kernel, args...](const Range& rr) mutable {
    auto bound = std::make_tuple(detail::bind(args)...);
    const bool is3d = rr.hi[2] - rr.lo[2] > 1 || rr.lo[2] != 0;
    if (is3d) {
      for (idx_t k = rr.lo[2]; k < rr.hi[2]; ++k)
        for (idx_t j = rr.lo[1]; j < rr.hi[1]; ++j)
          for (idx_t i = rr.lo[0]; i < rr.hi[0]; ++i)
            std::apply(
                [&](auto&... bs) { kernel(bs.at(i, j, k)...); }, bound);
    } else {
      for (idx_t j = rr.lo[1]; j < rr.hi[1]; ++j)
        for (idx_t i = rr.lo[0]; i < rr.hi[0]; ++i)
          std::apply([&](auto&... bs) { kernel(bs.at(i, j, 0)...); },
                     bound);
    }
    return bound;
  };

  auto execute_over = [&ctx, exec_range, has_red](const Range& rr) mutable {
    if (rr.empty()) return;
    par::ThreadPool* pool = ctx.pool();
    // The team spans reductions too: every member accumulates into its
    // own bound copies, merged on this thread after the join.
    const int team = pool != nullptr ? pool->size() : 1;
    const int outer_dim = (rr.hi[2] - rr.lo[2] > 1) ? 2 : 1;
    const auto od = static_cast<std::size_t>(outer_dim);
    const idx_t olo = rr.lo[od];
    const idx_t ohi = rr.hi[od];
    auto sub_range = [&](idx_t out_lo, idx_t out_hi) {
      Range sub = rr;
      sub.lo[od] = out_lo;
      sub.hi[od] = out_hi;
      return sub;
    };
    if (has_red) {
      // One reduction partial per outer index, merged in ascending order,
      // so the result is bitwise identical for every team size (the
      // association never depends on how rows were dealt to threads).
      using BoundTuple = decltype(exec_range(rr));
      // Every element is assigned by fill() before the merge, so the
      // default-constructed placeholders are never read.
      std::vector<BoundTuple> rows(static_cast<std::size_t>(ohi - olo));
      auto fill = [&](idx_t o) {
        rows[static_cast<std::size_t>(o - olo)] =
            exec_range(sub_range(o, o + 1));
      };
      if (team <= 1) {
        for (idx_t o = olo; o < ohi; ++o) fill(o);
      } else {
        pool->parallel_for(olo, ohi, fill);
      }
      for (auto& bound : rows)
        std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
      return;
    }
    if (team <= 1) {
      exec_range(rr);
      return;
    }
    pool->run([&](int tid) {
      const auto [clo, chi] = pool->chunk(olo, ohi, tid);
      if (clo < chi) exec_range(sub_range(clo, chi));
    });
  };

  if (ctx.lazy()) {
    // Defer execution; reductions are not supported inside tiled chains.
    BWLAB_REQUIRE(!has_red,
                  "loop '" << meta.name
                           << "': reductions are not tileable, flush the "
                              "chain first");
    std::vector<ChainDatUse> uses;
    (detail::add_use(uses, args), ...);
    // The enqueued body is strictly serial: the tiled chain executor owns
    // the threading (it dispatches disjoint pieces of each tile across
    // the team), so the body must be safe to call concurrently and must
    // never re-enter the pool. The chain delivers the event once it ran.
    enqueue_lazy(
        ctx, ev, b, range,
        [exec_range](const Range& rr) mutable {
          if (!rr.empty()) exec_range(rr);
        },
        std::move(uses));
    return;
  }

  // 5. The loop event is recorded when the scope closes. Cross-rank
  //    reduction is the caller's choice (apps call comm->allreduce on the
  //    target); loop-local merge already happened.
  const std::array<LoopDatArg, sizeof...(Args)> dats{
      detail::event_arg(args, local)...};
  ev.args = dats;
  LoopScope scope(ev);
  execute_over(local);

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
  (detail::pre_exchange(args), ...);
  const Range local = local_range(b, range);
  LoopEvent ev = detail::loop_event(meta, b, range, local, args...);
  const std::array<LoopDatArg, sizeof...(Args)> dats{
      detail::event_arg(args, local)...};
  ev.args = dats;
  LoopScope scope(ev);
  if (!local.empty()) {
    auto bound = std::make_tuple(detail::bind(args)...);
    for (idx_t bk = local.lo[2]; bk < local.hi[2]; bk += wg[2])
      for (idx_t bj = local.lo[1]; bj < local.hi[1]; bj += wg[1])
        for (idx_t bi = local.lo[0]; bi < local.hi[0]; bi += wg[0]) {
          const idx_t ek = std::min(local.hi[2], bk + wg[2]);
          const idx_t ej = std::min(local.hi[1], bj + wg[1]);
          const idx_t ei = std::min(local.hi[0], bi + wg[0]);
          for (idx_t k = bk; k < ek; ++k)
            for (idx_t j = bj; j < ej; ++j)
              for (idx_t i = bi; i < ei; ++i)
                std::apply(
                    [&](auto&... bs) { kernel(bs.at(i, j, k)...); }, bound);
        }
    std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
  }
  (detail::post_mark(args), ...);
}

}  // namespace bwlab::ops
