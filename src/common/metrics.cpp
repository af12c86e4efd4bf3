#include "common/metrics.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab {

std::string histogram_bucket_key(int i) {
  std::ostringstream key;
  key << "le_" << Histogram::bucket_upper_bound(i);
  return key.str();
}

// Bounds are exact powers of two, so log2 of the printed value rounds to
// the stored exponent even at 6 printed digits.
int histogram_bucket_from_key(const std::string& key) {
  BWLAB_REQUIRE(key.rfind("le_", 0) == 0,
                "bad histogram bucket key '" << key << "'");
  double ub = 0;
  try {
    ub = std::stod(key.substr(3));
  } catch (const std::exception&) {
    BWLAB_REQUIRE(false, "bad histogram bucket bound in '" << key << "'");
  }
  BWLAB_REQUIRE(ub > 0, "bad histogram bucket bound in '" << key << "'");
  const int i =
      Histogram::kZeroBucket + static_cast<int>(std::llround(std::log2(ub)));
  BWLAB_REQUIRE(i >= 0 && i < Histogram::kBuckets,
                "histogram bucket '" << key << "' out of range");
  return i;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = counters_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Counter>();
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = gauges_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Gauge>();
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(name);
  if (inserted) it->second = std::make_unique<Histogram>();
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.p50 = h->percentile(0.50);
    hs.p95 = h->percentile(0.95);
    hs.p99 = h->percentile(0.99);
    for (int i = 0; i < Histogram::kBuckets; ++i)
      if (const count_t n = h->bucket(i); n > 0) hs.buckets.emplace_back(i, n);
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  json::write(os, snapshot());
  os << '\n';
}

void MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open metrics output file '" << path << "'");
  write_json(os);
  BWLAB_REQUIRE(os.good(), "failed writing metrics to '" << path << "'");
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* r = new MetricsRegistry;  // leaked: outlives threads
  return *r;
}

}  // namespace bwlab
