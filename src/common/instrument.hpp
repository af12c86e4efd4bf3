// Per-loop and per-exchange instrumentation. This is the mechanism the
// paper uses for Figure 8: "effective bandwidth ... calculated by OPS
// automatically, by measuring the execution time of the kernel (excluding
// MPI communications), and estimating the effective data movement, based
// on the iteration ranges, datasets accessed, and types of access".
// The same records, captured from an instrumented run at reduced size,
// are the inputs of the performance model (core::AppProfile).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/gate.hpp"
#include "common/metrics.hpp"
#include "common/pattern.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"

namespace bwlab {

// --- bwmem: data-movement accounting switch ---------------------------------
//
// Exact byte counting (datmove) follows the bwtrace/bwfault contract: the
// collection site on the loop-event path (datmove::record, below) is
// compiled in but runtime-disabled, and the disabled fast path is a single
// relaxed atomic load plus one branch (asserted < 5 ns by
// bench/gb_layer_overhead). The analysis side lives in core/datmove.
namespace datmove {
namespace detail {
inline Gate g_on;
// Process-wide cumulative counted bytes, summed across every rank's
// Instrumentation. The per-rank records are deliberately unsynchronized
// (rank-thread-local), so this relaxed mirror is what the bwlive sampler
// reads mid-run without touching them.
inline std::atomic<std::uint64_t> g_cum_bytes{0};
}  // namespace detail

/// Single-branch fast path checked by every counting site.
inline bool enabled() { return detail::g_on.enabled(); }
/// Arms counting and restarts the cumulative-bytes mirror, so the mirror
/// always reads "bytes counted since the current session was armed".
inline void enable() {
  detail::g_cum_bytes.store(0, std::memory_order_relaxed);
  detail::g_on.enable();
}
inline void disable() { detail::g_on.disable(); }

/// Cumulative counted bytes of the current session, across all ranks.
/// Lock-free; safe to read from the bwlive sampler while ranks count.
inline std::uint64_t cum_bytes() {
  return detail::g_cum_bytes.load(std::memory_order_relaxed);
}
}  // namespace datmove

/// Accumulated statistics of one named par_loop.
struct LoopRecord {
  std::string name;
  count_t calls = 0;
  count_t points = 0;      ///< total grid points executed
  count_t bytes = 0;       ///< useful bytes moved (OPS convention)
  double flops = 0;        ///< total floating-point operations
  seconds_t host_seconds = 0;  ///< measured host execution time
  Pattern pattern = Pattern::Streaming;
  int max_radius = 0;      ///< largest read-stencil radius seen
  int ndims = 2;

  double bytes_per_point() const {
    return points ? static_cast<double>(bytes) / static_cast<double>(points)
                  : 0.0;
  }
  double flops_per_point() const {
    return points ? flops / static_cast<double>(points) : 0.0;
  }
  /// Effective host bandwidth (Figure 8 metric, on the host).
  double effective_bw() const {
    return host_seconds > 0 ? static_cast<double>(bytes) / host_seconds : 0.0;
  }
};

/// Accumulated statistics of tiled chain executions (ops::ChainQueue).
struct TilingRecord {
  count_t chains = 0;       ///< execute_tiled calls
  count_t tiles = 0;        ///< tiles executed across all chains
  idx_t tile_height = 0;    ///< height used by the most recent chain
  bool auto_tuned = false;  ///< last height came from the auto-tuner
  double row_bytes = 0;     ///< working-set bytes per tile row (auto only)
  double cache_budget_bytes = 0;  ///< budget the tuner sized against
};
template <class Io>
void fields(Io& io, TilingRecord& t) {
  io("chains", t.chains);
  io("tiles", t.tiles);
  io("tile_height", t.tile_height);
  io("auto_tuned", t.auto_tuned);
  io("row_bytes", t.row_bytes);
  io("cache_budget_bytes", t.cache_budget_bytes);
}

/// Accumulated halo-exchange statistics of one Dat.
struct ExchangeRecord {
  std::string dat_name;
  count_t exchanges = 0;  ///< number of exchange events
  count_t messages = 0;   ///< point-to-point messages sent
  count_t bytes = 0;      ///< payload bytes sent (pack side)
  count_t bytes_received = 0;  ///< payload bytes received (unpack side)
  int halo_depth = 0;
  std::size_t elem_bytes = 0;  ///< sizeof the dat element
};
template <class Io>
void fields(Io& io, ExchangeRecord& e) {
  io("dat", e.dat_name);
  io("exchanges", e.exchanges);
  io("messages", e.messages);
  io("bytes", e.bytes);
  io("bytes_received", e.bytes_received);
  io("halo_depth", e.halo_depth);
  io("elem_bytes", e.elem_bytes);
}

// --- bwmem collection records (analysis in core/datmove) --------------------

/// Exact data movement of one (loop, dat) pair: bytes derived from the
/// access descriptor × the iteration range the loop actually executed
/// (read footprints dilated by the read stencil's radius). This is the
/// counted ground truth the modeled LoopRecord::bytes estimate is
/// cross-checked against.
struct DatMoveRecord {
  std::string loop;
  std::string dat;
  count_t executions = 0;  ///< loop executions that touched this dat
  count_t bytes_read = 0;
  count_t bytes_written = 0;
  count_t bytes() const { return bytes_read + bytes_written; }
};
template <class Io>
void fields(Io& io, DatMoveRecord& d) {
  io("loop", d.loop);
  io("dat", d.dat);
  io("executions", d.executions);
  io("bytes_read", d.bytes_read);
  io("bytes_written", d.bytes_written);
}

/// Per-dat aggregate feeding memory-tier placement: the allocation
/// footprint competes for tier capacity, the moved bytes are the traffic
/// the chosen tier must serve.
struct DatFootprint {
  std::string dat;
  count_t alloc_bytes = 0;  ///< allocated bytes (owned + ghosts)
  count_t bytes_moved = 0;  ///< total counted read + written bytes
};

/// Byte-weighted log2 reuse-distance histogram at dat granularity. Bucket
/// i (Histogram::bucket_index convention) accumulates the bytes moved by
/// touches whose LRU stack distance — the summed footprints of the other
/// dats touched since this dat's previous touch — falls in that power-of-
/// two range. Cold (first) touches are compulsory traffic and tracked
/// separately. The cumulative curve over buckets is the capacity-occupancy
/// curve: what fraction of traffic a fast tier of 2^k bytes could serve.
struct ReuseHistogram {
  std::array<count_t, Histogram::kBuckets> moved_bytes{};
  count_t cold_bytes = 0;

  count_t reused_bytes() const {
    count_t s = 0;
    for (const count_t b : moved_bytes) s += b;
    return s;
  }
  count_t total_bytes() const { return reused_bytes() + cold_bytes; }
  /// Bytes whose reuse distance exceeds `capacity_bytes`: the traffic a
  /// cache of that size would send to the next tier (cold misses are
  /// compulsory and excluded).
  count_t est_spill_bytes(double capacity_bytes) const {
    count_t s = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i)
      if (Histogram::bucket_upper_bound(i) > capacity_bytes)
        s += moved_bytes[static_cast<std::size_t>(i)];
    return s;
  }
};

/// One non-empty reuse bucket as the JSON lists it; upper_bound is
/// derived from the index and ignored on read.
struct ReuseBucket {
  int bucket = 0;
  double upper_bound = 0;
  count_t moved_bytes = 0;
};
template <class Io>
void fields(Io& io, ReuseBucket& b) {
  io("bucket", b.bucket);
  io("upper_bound", b.upper_bound);
  io("moved_bytes", b.moved_bytes);
}
template <class Io>
void fields(Io& io, ReuseHistogram& h) {
  io("cold_bytes", h.cold_bytes);
  io.custom(
      "buckets",
      [&h] {
        std::vector<ReuseBucket> out;
        for (int i = 0; i < Histogram::kBuckets; ++i)
          if (const count_t b = h.moved_bytes[static_cast<std::size_t>(i)])
            out.push_back({i, Histogram::bucket_upper_bound(i), b});
        return out;
      },
      [&h](const std::vector<ReuseBucket>& in) {
        for (const ReuseBucket& b : in)
          if (b.bucket >= 0 && b.bucket < Histogram::kBuckets)
            h.moved_bytes[static_cast<std::size_t>(b.bucket)] = b.moved_bytes;
      });
}

/// One executed chain (ops::ChainQueue): its unique-dat working set and
/// the exact bytes counted for it.
struct ChainMoveRecord {
  count_t working_set_bytes = 0;  ///< sum of unique dats' alloc bytes
  count_t counted_bytes = 0;      ///< exact bytes counted for the chain
  idx_t tile_height = 0;          ///< 0 for untiled execution
  int loops = 0;
  bool tiled = false;
};
template <class Io>
void fields(Io& io, ChainMoveRecord& c) {
  io("working_set_bytes", c.working_set_bytes);
  io("counted_bytes", c.counted_bytes);
  io("tile_height", c.tile_height);
  io("loops", c.loops);
  io("tiled", c.tiled);
}

/// Registry owned by the per-rank Context.
class Instrumentation {
 public:
  LoopRecord& loop(const std::string& name) {
    auto [it, inserted] = loops_.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      order_.push_back(name);
    }
    return it->second;
  }

  ExchangeRecord& exchange(const std::string& dat_name) {
    auto [it, inserted] = exchanges_.try_emplace(dat_name);
    if (inserted) {
      it->second.dat_name = dat_name;
      ex_order_.push_back(dat_name);
    }
    return it->second;
  }

  /// Loops in first-execution order (the per-iteration kernel sequence).
  std::vector<const LoopRecord*> loops_in_order() const {
    std::vector<const LoopRecord*> out;
    out.reserve(order_.size());
    for (const std::string& n : order_) out.push_back(&loops_.at(n));
    return out;
  }

  /// Exchanges in first-touch order (mirrors loops_in_order), so reports
  /// list dats in the order the application first exchanged them rather
  /// than alphabetically.
  std::vector<const ExchangeRecord*> exchanges() const {
    std::vector<const ExchangeRecord*> out;
    out.reserve(ex_order_.size());
    for (const std::string& n : ex_order_) out.push_back(&exchanges_.at(n));
    return out;
  }

  seconds_t total_loop_seconds() const {
    seconds_t s = 0;
    for (const auto& [_, r] : loops_) s += r.host_seconds;
    return s;
  }

  TilingRecord& tiling() { return tiling_; }
  const TilingRecord& tiling() const { return tiling_; }

  // --- bwmem collection (called only when datmove::enabled(); none of
  // this is thread-shared — the recording sites run on the rank's calling
  // thread, outside team regions) ------------------------------------------

  /// Accumulates exact bytes of one loop execution touching one dat.
  void datmove_add(const std::string& loop, const std::string& dat,
                   count_t read_bytes, count_t written_bytes) {
    auto [it, inserted] = datmoves_.try_emplace({loop, dat});
    if (inserted) {
      it->second.loop = loop;
      it->second.dat = dat;
      dm_order_.push_back(it->first);
    }
    DatMoveRecord& r = it->second;
    ++r.executions;
    r.bytes_read += read_bytes;
    r.bytes_written += written_bytes;
    datmove_total_ += read_bytes + written_bytes;
    datmove::detail::g_cum_bytes.fetch_add(
        static_cast<std::uint64_t>(read_bytes + written_bytes),
        std::memory_order_relaxed);
  }

  /// Registers a dat's allocation footprint and adds moved bytes.
  void datmove_dat(const std::string& dat, count_t alloc_bytes,
                   count_t moved_bytes) {
    auto [it, inserted] = footprints_.try_emplace(dat);
    if (inserted) {
      it->second.dat = dat;
      fp_order_.push_back(dat);
    }
    it->second.alloc_bytes = alloc_bytes;
    it->second.bytes_moved += moved_bytes;
  }

  /// LRU stack-distance touch of one dat: records `moved_bytes` into the
  /// reuse histogram at this touch's stack distance (summed footprints of
  /// the other dats touched since this dat's last touch; cold touches go
  /// to cold_bytes) and moves the dat to the stack top with
  /// `footprint_bytes` as its current footprint. O(#dats) per touch.
  void datmove_touch(const void* id, count_t footprint_bytes,
                     count_t moved_bytes) {
    count_t distance = 0;
    bool found = false;
    for (std::size_t i = reuse_stack_.size(); i-- > 0;) {
      if (reuse_stack_[i].id == id) {
        found = true;
        reuse_stack_.erase(reuse_stack_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        break;
      }
      distance += reuse_stack_[i].footprint;
    }
    reuse_stack_.push_back({id, footprint_bytes});
    if (!found) {
      reuse_.cold_bytes += moved_bytes;
      return;
    }
    const int b = Histogram::bucket_index(static_cast<double>(distance));
    reuse_.moved_bytes[static_cast<std::size_t>(b)] += moved_bytes;
    // Unweighted sample for the MetricsRegistry side (datmove JSON /
    // metrics export share the same log2 bucket convention).
    static Histogram& h =
        MetricsRegistry::global().histogram("datmove.reuse_distance_bytes");
    h.observe(static_cast<double>(distance));
  }

  /// Emits the cumulative-bytes Perfetto counter track ('C' event) when
  /// tracing is live; call after a recording site completes.
  void datmove_emit_counter() const {
    if (trace::enabled())
      trace::counter("datmove.cum_bytes",
                     static_cast<double>(datmove_total_));
  }

  void datmove_chain(ChainMoveRecord rec) {
    chains_.push_back(rec);
  }

  /// (loop, dat) records in first-touch order.
  std::vector<const DatMoveRecord*> datmoves() const {
    std::vector<const DatMoveRecord*> out;
    out.reserve(dm_order_.size());
    for (const auto& k : dm_order_) out.push_back(&datmoves_.at(k));
    return out;
  }
  std::vector<const DatFootprint*> dat_footprints() const {
    std::vector<const DatFootprint*> out;
    out.reserve(fp_order_.size());
    for (const std::string& n : fp_order_) out.push_back(&footprints_.at(n));
    return out;
  }
  /// Exact counted bytes per loop (sum over that loop's dat records).
  std::map<std::string, count_t> counted_bytes_by_loop() const {
    std::map<std::string, count_t> out;
    for (const auto& [k, r] : datmoves_) out[k.first] += r.bytes();
    return out;
  }
  count_t datmove_total_bytes() const { return datmove_total_; }
  const ReuseHistogram& reuse() const { return reuse_; }
  const std::vector<ChainMoveRecord>& chain_moves() const { return chains_; }

  void clear() {
    loops_.clear();
    exchanges_.clear();
    order_.clear();
    ex_order_.clear();
    tiling_ = TilingRecord{};
    datmoves_.clear();
    dm_order_.clear();
    footprints_.clear();
    fp_order_.clear();
    reuse_ = ReuseHistogram{};
    reuse_stack_.clear();
    chains_.clear();
    datmove_total_ = 0;
  }

 private:
  struct ReuseEntry {
    const void* id;
    count_t footprint;
  };

  std::map<std::string, LoopRecord> loops_;
  std::map<std::string, ExchangeRecord> exchanges_;
  TilingRecord tiling_;
  std::vector<std::string> order_;
  std::vector<std::string> ex_order_;

  std::map<std::pair<std::string, std::string>, DatMoveRecord> datmoves_;
  std::vector<std::pair<std::string, std::string>> dm_order_;
  std::map<std::string, DatFootprint> footprints_;
  std::vector<std::string> fp_order_;
  ReuseHistogram reuse_;
  std::vector<ReuseEntry> reuse_stack_;
  std::vector<ChainMoveRecord> chains_;
  count_t datmove_total_ = 0;
};

// --- Loop accounting: one event per loop execution -------------------------
//
// Every par_loop executor (ops eager / blocked / chained, op2) describes a
// loop execution as one LoopEvent and hands it to record_loop(), which is
// the one place that decides what a loop execution records: the LoopRecord
// update, the bwlive useful-bytes hook, the `<layer>.loop_invocations`
// counter and `<layer>.kernel_seconds` histogram, the bwmem per-dat byte
// records and the bwfault NaN guard — each behind the gate it always had.

/// Counts the non-finite values of a dat, storing the scan-order index of
/// the first one in `*first`.
using NonfiniteScan = long long (*)(const void* dat, long long* first);

/// One dat argument of an executed loop.
struct LoopDatArg {
  const void* id = nullptr;  ///< dat identity (address)
  const std::string* name = nullptr;
  count_t alloc_bytes = 0;    ///< allocated bytes (owned + ghosts)
  count_t read_bytes = 0;     ///< exact bytes read over the executed range
  count_t written_bytes = 0;  ///< exact bytes written
  /// Set when the NaN guard scans this dat after the loop.
  NonfiniteScan scan = nullptr;
};

/// Executor family; picks the `ops.*` or `op2.*` loop metrics.
enum class LoopLayer { Ops, Op2 };

/// What one loop execution records.
struct LoopEvent {
  Instrumentation* instr = nullptr;
  LoopRecord* rec = nullptr;
  LoopLayer layer = LoopLayer::Ops;
  count_t points = 0;  ///< owned points executed
  count_t bytes = 0;   ///< useful bytes (LoopRecord convention)
  double flops = 0;
  seconds_t seconds = 0;
  Pattern pattern = Pattern::Streaming;
  int max_radius = 0;
  int ndims = 2;
  /// Reuse-distance touch per dat argument; off for the tiled chain,
  /// which touches per (tile, loop) instead.
  bool touch = true;
  /// Dat arguments; an argument that moved no bytes (a reduction, or a
  /// dat of a loop whose executed range was empty) gets no datmove record.
  std::span<const LoopDatArg> args;
};

/// Records one loop execution (see the section comment).
void record_loop(const LoopEvent& ev);

namespace datmove {
namespace detail {
void record(const LoopEvent& ev);
}  // namespace detail

/// The bwmem stage of record_loop(): the exact bytes of every dat argument
/// (add / dat / touch records and the Perfetto counter). The only site
/// that adds counted bytes; disabled it costs one relaxed load and a
/// branch.
inline void record(const LoopEvent& ev) {
  if (enabled()) detail::record(ev);
}
}  // namespace datmove

/// Opens the Kernel span and the timer around one loop execution and
/// delivers the event to record_loop() when it closes (not while an
/// exception unwinds through it; the NaN guard may throw from here).
class LoopScope {
 public:
  explicit LoopScope(const LoopEvent& ev)
      : ev_(ev), span_(trace::Cat::Kernel, ev.rec->name) {}
  ~LoopScope() noexcept(false) {
    ev_.seconds = timer_.elapsed();
    span_.end();
    if (std::uncaught_exceptions() == unwinding_) record_loop(ev_);
  }
  LoopScope(const LoopScope&) = delete;
  LoopScope& operator=(const LoopScope&) = delete;

 private:
  LoopEvent ev_;
  trace::TraceSpan span_;
  int unwinding_ = std::uncaught_exceptions();
  Timer timer_;  // last: starts after the span opened
};

}  // namespace bwlab
