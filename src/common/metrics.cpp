#include "common/metrics.hpp"

#include <fstream>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab {

namespace {

template <class Map, class Fn>
void write_section(std::ostream& os, const char* key, const Map& m, Fn emit,
                   bool last = false) {
  os << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, inst] : m) {
    os << (first ? "\n" : ",\n") << "    \"";
    first = false;
    json::write_escaped(os, name);
    os << "\": ";
    emit(inst);
  }
  os << (first ? "}" : "\n  }") << (last ? "\n" : ",\n");
}

}  // namespace

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snap) {
  os << "{\n";
  write_section(os, "counters", snap.counters,
                [&os](count_t c) { os << c; });
  write_section(os, "gauges", snap.gauges, [&os](double g) { os << g; });
  write_section(
      os, "histograms", snap.histograms,
      [&os](const HistogramSnapshot& h) {
        os << "{\"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"p50\": " << h.p50 << ", \"p95\": " << h.p95
           << ", \"p99\": " << h.p99 << ", \"buckets\": {";
        bool first = true;
        for (const auto& [i, n] : h.buckets) {
          os << (first ? "" : ", ") << "\"le_"
             << Histogram::bucket_upper_bound(i) << "\": " << n;
          first = false;
        }
        os << "}}";
      },
      /*last=*/true);
  os << "}\n";
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
  write_metrics_json(os, snapshot());
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
