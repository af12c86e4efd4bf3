// The mini-OP2 parallel loop over an unstructured set, with three
// execution modes mirroring the paper's unstructured lanes:
//
//  * Serial  — elements in order, increments applied directly ("pure MPI"
//              per-process execution),
//  * Vec     — elements in chunks of kVecLanes with explicit gather /
//              local-increment / scatter buffers, the functional analogue
//              of OP2's auto-vectorizing code generation ("MPI vec"): the
//              packed inner loops are unit-stride and vectorizable,
//  * Colored — thread-parallel execution by conflict-free colors
//              ("MPI+OpenMP"; does not vectorize, as in the paper).
//
// Kernels receive one pointer per argument (the element's dim-vector),
// `const T*` for reads, `T*` for writes/increments, and `T&` for global
// reductions — the OP2 user-kernel convention.
#pragma once

#include <array>
#include <cmath>
#include <span>
#include <tuple>
#include <vector>

#include "common/instrument.hpp"
#include "op2/color.hpp"
#include "op2/set.hpp"
#include "par/thread_pool.hpp"

namespace bwlab::op2 {

/// Vector width of the Vec mode's gather/scatter chunks (doubles per
/// AVX-512 register; the pack/unpack cost the paper discusses scales with
/// this).
inline constexpr idx_t kVecLanes = 8;

/// Max dat dimension supported by the scratch buffers.
inline constexpr int kMaxDim = 16;

enum class Mode { Serial, Vec, Colored };

const char* to_string(Mode m);

/// Per-loop execution environment: thread team + instrumentation.
class Runtime {
 public:
  explicit Runtime(int threads = 1) {
    if (threads > 1) pool_ = std::make_unique<par::ThreadPool>(threads);
  }
  par::ThreadPool* pool() { return pool_.get(); }
  int threads() const { return pool_ ? pool_->size() : 1; }
  Instrumentation& instr() { return instr_; }
  const Instrumentation& instr() const { return instr_; }

 private:
  std::unique_ptr<par::ThreadPool> pool_;
  Instrumentation instr_;
};

/// Loop metadata (name + flops per set element).
struct LoopMeta {
  std::string name;
  double flops_per_elem = 0;
};

// --- Argument descriptors ---------------------------------------------------

template <class T>
struct ArgDRead {
  Dat<T>* d;
};
template <class T>
struct ArgDWrite {
  Dat<T>* d;
};
template <class T>
struct ArgDRW {
  Dat<T>* d;
};
template <class T>
struct ArgIRead {
  Dat<T>* d;
  const Map* m;
  int slot;
};
template <class T>
struct ArgIInc {
  Dat<T>* d;
  const Map* m;
  int slot;
};
template <class T>
struct ArgRedSum {
  T* v;
};
template <class T>
struct ArgRedMax {
  T* v;
};
template <class T>
struct ArgRedMin {
  T* v;
};

template <class T>
ArgDRead<T> read(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgDWrite<T> write(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgDRW<T> read_write(Dat<T>& d) {
  return {&d};
}
template <class T>
ArgIRead<T> read_via(Dat<T>& d, const Map& m, int slot) {
  return {&d, &m, slot};
}
template <class T>
ArgIInc<T> inc_via(Dat<T>& d, const Map& m, int slot) {
  return {&d, &m, slot};
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

template <class T>
const T* zero_vec() {
  static const std::array<T, kMaxDim> z{};
  return z.data();
}

// Bound argument states. Each supports:
//   at(e)              — pointer handed to the kernel (Serial/Colored path)
//   begin_chunk(e0, n) — Vec path: gather / zero local buffers
//   at_chunk(e)        — Vec path: pointer into the chunk buffers
//   end_chunk()        — Vec path: scatter increments
//   merge()            — fold thread-local reductions

template <class T, bool Mutable>
struct BoundDirect {
  using elem_t = std::conditional_t<Mutable, T, const T>;
  elem_t* base;
  int dim;
  elem_t* at(idx_t e) const { return base + e * dim; }
  void begin_chunk(idx_t, idx_t) {}
  elem_t* at_chunk(idx_t e) const { return at(e); }
  void end_chunk() {}
  void merge() {}
};

template <class T>
struct BoundIndRead {
  const T* base;
  const Map* map;
  int slot;
  int dim;
  std::vector<T> gathered;  // kVecLanes * dim
  idx_t chunk_e0 = 0;

  const T* at(idx_t e) const {
    const idx_t t = (*map)(e, slot);
    return t >= 0 ? base + t * dim : zero_vec<T>();
  }
  void begin_chunk(idx_t e0, idx_t n) {
    chunk_e0 = e0;
    gathered.resize(static_cast<std::size_t>(kVecLanes * dim));
    for (idx_t l = 0; l < n; ++l) {
      const T* src = at(e0 + l);
      std::copy(src, src + dim, gathered.data() + l * dim);
    }
  }
  const T* at_chunk(idx_t e) const {
    return gathered.data() + (e - chunk_e0) * dim;
  }
  void end_chunk() {}
  void merge() {}
};

template <class T>
struct BoundIndInc {
  T* base;
  const Map* map;
  int slot;
  int dim;
  std::vector<T> local;  // kVecLanes * dim
  idx_t chunk_e0 = 0, chunk_n = 0;
  std::array<T, kMaxDim> discard{};

  T* at(idx_t e) {
    const idx_t t = (*map)(e, slot);
    if (t < 0) {
      discard.fill(T{});
      return discard.data();
    }
    return base + t * dim;
  }
  void begin_chunk(idx_t e0, idx_t n) {
    chunk_e0 = e0;
    chunk_n = n;
    local.assign(static_cast<std::size_t>(kVecLanes * dim), T{});
  }
  T* at_chunk(idx_t e) { return local.data() + (e - chunk_e0) * dim; }
  void end_chunk() {
    for (idx_t l = 0; l < chunk_n; ++l) {
      const idx_t t = (*map)(chunk_e0 + l, slot);
      if (t < 0) continue;
      T* dst = base + t * dim;
      const T* src = local.data() + l * dim;
      for (int c = 0; c < dim; ++c) dst[c] += src[c];
    }
  }
  void merge() {}
};

enum class RedKind { Sum, Max, Min };

template <class T, RedKind K>
struct BoundRed {
  T* target;
  T local;
  T& at(idx_t) { return local; }
  void begin_chunk(idx_t, idx_t) {}
  T& at_chunk(idx_t) { return local; }
  void end_chunk() {}
  void merge() {
    if constexpr (K == RedKind::Sum) *target += local;
    if constexpr (K == RedKind::Max) *target = std::max(*target, local);
    if constexpr (K == RedKind::Min) *target = std::min(*target, local);
  }
};

template <class T>
BoundDirect<T, false> bind(const ArgDRead<T>& a) {
  return {a.d->data(), a.d->dim()};
}
template <class T>
BoundDirect<T, true> bind(const ArgDWrite<T>& a) {
  return {a.d->data(), a.d->dim()};
}
template <class T>
BoundDirect<T, true> bind(const ArgDRW<T>& a) {
  return {a.d->data(), a.d->dim()};
}
template <class T>
BoundIndRead<T> bind(const ArgIRead<T>& a) {
  BWLAB_REQUIRE(a.d->dim() <= kMaxDim, "dat dim exceeds kMaxDim");
  return {a.d->data(), a.m, a.slot, a.d->dim(), {}, 0};
}
template <class T>
BoundIndInc<T> bind(const ArgIInc<T>& a) {
  BWLAB_REQUIRE(a.d->dim() <= kMaxDim, "dat dim exceeds kMaxDim");
  return {a.d->data(), a.m, a.slot, a.d->dim(), {}, 0, 0, {}};
}
template <class T>
BoundRed<T, RedKind::Sum> bind(const ArgRedSum<T>& a) {
  return {a.v, T{}};
}
template <class T>
BoundRed<T, RedKind::Max> bind(const ArgRedMax<T>& a) {
  return {a.v, *a.v};
}
template <class T>
BoundRed<T, RedKind::Min> bind(const ArgRedMin<T>& a) {
  return {a.v, *a.v};
}

// Accounting helpers.
template <class T>
count_t arg_bytes(const ArgDRead<T>& a) {
  return sizeof(T) * static_cast<count_t>(a.d->dim());
}
template <class T>
count_t arg_bytes(const ArgDWrite<T>& a) {
  return sizeof(T) * static_cast<count_t>(a.d->dim());
}
template <class T>
count_t arg_bytes(const ArgDRW<T>& a) {
  return 2 * sizeof(T) * static_cast<count_t>(a.d->dim());
}
template <class T>
count_t arg_bytes(const ArgIRead<T>& a) {
  return sizeof(T) * static_cast<count_t>(a.d->dim()) + sizeof(idx_t);
}
template <class T>
count_t arg_bytes(const ArgIInc<T>& a) {
  // read+write of the target plus the map entry
  return 2 * sizeof(T) * static_cast<count_t>(a.d->dim()) + sizeof(idx_t);
}
template <class A>
count_t arg_bytes(const A&) {
  return 0;
}

template <class T>
const Map* inc_map(const ArgIInc<T>& a) {
  return a.m;
}
template <class A>
const Map* inc_map(const A&) {
  return nullptr;
}

template <class A>
constexpr bool is_indirect(const A&) {
  return false;
}
template <class T>
constexpr bool is_indirect(const ArgIRead<T>&) {
  return true;
}
template <class T>
constexpr bool is_indirect(const ArgIInc<T>&) {
  return true;
}

template <class A>
constexpr bool is_inc(const A&) {
  return false;
}
template <class T>
constexpr bool is_inc(const ArgIInc<T>&) {
  return true;
}

// --- Loop-event dat arguments (common/instrument record_loop) --------------
// Unstructured loops touch every element once, so counted bytes are
// descriptor × set-size products. Indirect map-index bytes are attributed
// to the target dat's record so counted totals match arg_bytes exactly
// (zero drift by construction). Written and incremented dats are scanned
// by the NaN guard.

template <class T>
long long count_nonfinite(const void* dat, long long* first) {
  const Dat<T>& d = *static_cast<const Dat<T>*>(dat);
  const T* p = d.data();
  long long bad = 0;
  for (idx_t x = 0; x < d.size_flat(); ++x)
    if (!std::isfinite(p[static_cast<std::size_t>(x)]) && bad++ == 0)
      *first = x;
  return bad;
}

template <class T>
LoopDatArg dat_arg(const Dat<T>& d, count_t read_b, count_t write_b,
                   bool guarded) {
  NonfiniteScan scan = nullptr;
  if constexpr (std::is_floating_point_v<T>)
    if (guarded) scan = &count_nonfinite<T>;
  return {&d, &d.name(), static_cast<count_t>(d.size_flat()) * sizeof(T),
          read_b, write_b, scan};
}

/// Bytes of `n` elements of `d` (each a dim-vector).
template <class T>
count_t vec_bytes(const Dat<T>& d, idx_t n) {
  return sizeof(T) * static_cast<count_t>(d.dim()) * static_cast<count_t>(n);
}

template <class T>
LoopDatArg event_arg(const ArgDRead<T>& a, idx_t n) {
  return dat_arg(*a.d, vec_bytes(*a.d, n), 0, false);
}
template <class T>
LoopDatArg event_arg(const ArgDWrite<T>& a, idx_t n) {
  return dat_arg(*a.d, 0, vec_bytes(*a.d, n), true);
}
template <class T>
LoopDatArg event_arg(const ArgDRW<T>& a, idx_t n) {
  return dat_arg(*a.d, vec_bytes(*a.d, n), vec_bytes(*a.d, n), true);
}
template <class T>
LoopDatArg event_arg(const ArgIRead<T>& a, idx_t n) {
  const count_t map_b = sizeof(idx_t) * static_cast<count_t>(n);
  return dat_arg(*a.d, vec_bytes(*a.d, n) + map_b, 0, false);
}
template <class T>
LoopDatArg event_arg(const ArgIInc<T>& a, idx_t n) {
  const count_t map_b = sizeof(idx_t) * static_cast<count_t>(n);
  return dat_arg(*a.d, vec_bytes(*a.d, n) + map_b, vec_bytes(*a.d, n),
                 true);
}
template <class A>
LoopDatArg event_arg(const A&, idx_t) {
  return {};
}

/// The loop event of one execution of `meta` over `set` with dat
/// arguments `dats`; the scope that records it adds the time.
template <class... Args>
LoopEvent loop_event(Runtime& rt, const LoopMeta& meta, const Set& set,
                     std::span<const LoopDatArg> dats, const Args&... args) {
  const auto n = static_cast<count_t>(set.size());
  count_t bytes_pp = 0;
  ((bytes_pp += arg_bytes(args)), ...);
  const bool any_inc = (is_inc(args) || ...);
  const bool any_ind = (is_indirect(args) || ...);
  LoopEvent ev;
  ev.instr = &rt.instr();
  ev.rec = &rt.instr().loop(meta.name);
  ev.layer = LoopLayer::Op2;
  ev.points = n;
  ev.bytes = bytes_pp * n;
  ev.flops = meta.flops_per_elem * static_cast<double>(n);
  ev.pattern = any_inc ? Pattern::GatherScatter
                       : (any_ind ? Pattern::Indirect : Pattern::Streaming);
  ev.ndims = 1;
  ev.args = dats;
  return ev;
}

}  // namespace detail

/// Executes `kernel` once per element of `set`. See file header for modes.
/// Colored mode requires every increment-conflict map; the coloring is
/// computed on the fly (apps should hoist and reuse it via the overload
/// below for iteration loops).
template <class Kernel, class... Args>
void par_loop_colored(Runtime& rt, const LoopMeta& meta, const Set& set,
                      const Coloring& coloring, Kernel&& kernel,
                      Args... args) {
  const std::array<LoopDatArg, sizeof...(Args)> dats{
      detail::event_arg(args, set.size())...};
  LoopScope scope(detail::loop_event(rt, meta, set, dats, args...));
  par::ThreadPool* pool = rt.pool();
  for (const auto& elements : coloring.by_color) {
    const idx_t n = static_cast<idx_t>(elements.size());
    if (pool == nullptr || n < 2) {
      auto bound = std::make_tuple(detail::bind(args)...);
      for (idx_t x = 0; x < n; ++x)
        std::apply([&](auto&... bs) { kernel(bs.at(elements[static_cast<std::size_t>(x)])...); },
                   bound);
      std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
      continue;
    }
    const int team = pool->size();
    using BoundTuple = decltype(std::make_tuple(detail::bind(args)...));
    std::vector<BoundTuple> results(static_cast<std::size_t>(team),
                                    std::make_tuple(detail::bind(args)...));
    pool->run([&](int tid) {
      auto& bound = results[static_cast<std::size_t>(tid)];
      const auto [lo, hi] = pool->chunk(0, n, tid);
      for (idx_t x = lo; x < hi; ++x)
        std::apply([&](auto&... bs) { kernel(bs.at(elements[static_cast<std::size_t>(x)])...); },
                   bound);
    });
    for (auto& bound : results)
      std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
  }
}

template <class Kernel, class... Args>
void par_loop(Runtime& rt, const LoopMeta& meta, const Set& set, Mode mode,
              Kernel&& kernel, Args... args) {
  if (mode == Mode::Colored) {
    std::vector<const Map*> maps;
    (
        [&] {
          if (const Map* m = detail::inc_map(args)) maps.push_back(m);
        }(),
        ...);
    if (maps.empty()) {
      // No races: a direct loop; fall through to a single "color".
      Coloring all;
      all.num_colors = 1;
      all.by_color.resize(1);
      all.by_color[0].reserve(static_cast<std::size_t>(set.size()));
      for (idx_t e = 0; e < set.size(); ++e) all.by_color[0].push_back(e);
      par_loop_colored(rt, meta, set, all, kernel, args...);
      return;
    }
    const Coloring coloring = color_set(set, maps);
    par_loop_colored(rt, meta, set, coloring, kernel, args...);
    return;
  }

  const std::array<LoopDatArg, sizeof...(Args)> dats{
      detail::event_arg(args, set.size())...};
  LoopScope scope(detail::loop_event(rt, meta, set, dats, args...));
  auto bound = std::make_tuple(detail::bind(args)...);
  const idx_t n = set.size();
  if (mode == Mode::Serial) {
    for (idx_t e = 0; e < n; ++e)
      std::apply([&](auto&... bs) { kernel(bs.at(e)...); }, bound);
  } else {  // Vec
    for (idx_t e0 = 0; e0 < n; e0 += kVecLanes) {
      const idx_t len = std::min(kVecLanes, n - e0);
      std::apply([&](auto&... bs) { (bs.begin_chunk(e0, len), ...); }, bound);
      for (idx_t e = e0; e < e0 + len; ++e)
        std::apply([&](auto&... bs) { kernel(bs.at_chunk(e)...); }, bound);
      std::apply([&](auto&... bs) { (bs.end_chunk(), ...); }, bound);
    }
  }
  std::apply([](auto&... bs) { (bs.merge(), ...); }, bound);
}

}  // namespace bwlab::op2
