// MetricsRegistry: named monotonic counters, gauges and log2-bucket
// histograms with JSON export — the aggregate side of bwtrace (spans live
// in common/trace.hpp). The runtime feeds it halo bytes/messages, comm
// blocked seconds, tiles executed and loop invocations; apps and benches
// can add their own series.
//
// Instruments are registered on first use and NEVER removed, so hot paths
// can hoist the lookup once and keep the reference:
//
//   static Counter& msgs = MetricsRegistry::global().counter("comm.messages");
//   msgs.inc();
//
// All mutation methods are thread-safe (relaxed atomics); reset() zeroes
// values but keeps every registered instrument alive.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bwlab {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(count_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  count_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<count_t> v_{0};
};

/// Last-written (set) or accumulated (add) double value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two bucket histogram over positive values. Bucket i counts
/// observations with 2^(i-kZeroBucket-1) < x <= 2^(i-kZeroBucket); values
/// <= 0 (or denormal-small) land in bucket 0. The span [2^-32, 2^31]
/// covers nanoseconds-as-seconds through multi-GiB byte counts.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kZeroBucket = 32;

  void observe(double x) {
    buckets_[static_cast<std::size_t>(bucket_index(x))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
    }
  }

  static int bucket_index(double x) {
    if (!(x > 0)) return 0;
    int e = std::ilogb(x);
    if (e >= kBuckets) return kBuckets - 1;  // also guards inf (ilogb huge)
    if (std::ldexp(1.0, e) != x) ++e;  // not an exact power: round up
    const int i = e + kZeroBucket;
    return i < 0 ? 0 : (i >= kBuckets ? kBuckets - 1 : i);
  }
  /// Inclusive upper bound of bucket i.
  static double bucket_upper_bound(int i) {
    return std::ldexp(1.0, i - kZeroBucket);
  }

  count_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  count_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

  /// Percentile estimate (q in [0, 1]) with within-bucket linear
  /// interpolation: the q·count-th observation is located in its bucket
  /// and placed proportionally between the bucket's bounds (lower bound 0
  /// for bucket 0). Exact at bucket boundaries, ≤ one-bucket-width error
  /// inside; 0 when the histogram is empty. This is what lets run diffs
  /// compare tail latencies (p95/p99), not just counts and sums.
  double percentile(double q) const {
    const count_t n = count();
    if (n == 0) return 0.0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    const double target = q * static_cast<double>(n);
    double cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const double in_bucket = static_cast<double>(bucket(i));
      if (in_bucket == 0) continue;
      if (cum + in_bucket >= target) {
        const double lo = i == 0 ? 0.0 : bucket_upper_bound(i - 1);
        const double hi = bucket_upper_bound(i);
        const double frac = (target - cum) / in_bucket;
        return lo + frac * (hi - lo);
      }
      cum += in_bucket;
    }
    // All observations below target (only reachable via races): the max
    // representable bound.
    return bucket_upper_bound(kBuckets - 1);
  }
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<count_t>, kBuckets> buckets_{};
  std::atomic<count_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// --- Value snapshots (round-trippable "metrics" report section) --------------
//
// MetricsRegistry::write_json and the run report's "metrics" section both
// print a MetricsSnapshot through these fields lists (common/json.hpp),
// and core::parse_run_report reads the section back into the same structs.

/// "le_<upper bound>", the JSON key of histogram bucket `i`.
std::string histogram_bucket_key(int i);
/// Inverse of histogram_bucket_key; throws bwlab::Error on a bad key.
int histogram_bucket_from_key(const std::string& key);

/// One histogram's exported state: count, sum, tail-latency percentile
/// estimates (within-bucket linear interpolation) and the sparse log2
/// buckets as (bucket index, count) pairs in ascending index order.
struct HistogramSnapshot {
  count_t count = 0;
  double sum = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  std::vector<std::pair<int, count_t>> buckets;
};
template <class Io>
void fields(Io& io, HistogramSnapshot& h) {
  using Keyed = std::vector<std::pair<std::string, count_t>>;
  io("count", h.count);
  io("sum", h.sum);
  io("p50", h.p50);
  io("p95", h.p95);
  io("p99", h.p99);
  io.custom(
      "buckets",
      [&h] {
        Keyed out;
        for (const auto& [i, n] : h.buckets)
          out.emplace_back(histogram_bucket_key(i), n);
        return out;
      },
      [&h](const Keyed& in) {
        h.buckets.clear();
        for (const auto& [key, n] : in)
          h.buckets.emplace_back(histogram_bucket_from_key(key), n);
      });
}

/// Names in lexicographic (map) order.
struct MetricsSnapshot {
  std::map<std::string, count_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};
template <class Io>
void fields(Io& io, MetricsSnapshot& s) {
  io("counters", s.counters);
  io("gauges", s.gauges);
  io("histograms", s.histograms);
}

class MetricsRegistry {
 public:
  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime (instruments are never erased).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every instrument's current value into a plain-data snapshot
  /// (the form the run report embeds and parse_run_report returns).
  MetricsSnapshot snapshot() const;

  /// Prints snapshot() as JSON.
  void write_json(std::ostream& os) const;
  /// write_json to `path`; throws bwlab::Error if unwritable.
  void write_json_file(const std::string& path) const;

  /// Zeroes every instrument, keeping registrations (and hoisted
  /// references) valid.
  void reset();

  /// Process-wide registry used by the runtime instrumentation.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace bwlab
