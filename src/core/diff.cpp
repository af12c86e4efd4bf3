#include "core/diff.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace bwlab::core {

const char* to_string(DiffStatus s) {
  switch (s) {
    case DiffStatus::Common:
      return "common";
    case DiffStatus::New:
      return "new";
    case DiffStatus::Gone:
      return "gone";
  }
  return "?";
}

const char* to_string(Significance s) {
  switch (s) {
    case Significance::NoSamples:
      return "no_samples";
    case Significance::Significant:
      return "significant";
    case Significance::Insignificant:
      return "insignificant";
  }
  return "?";
}

namespace {

/// Per-loop counted bytes: bwmem exact counts when the report has a
/// datmove section, the loop record's useful-bytes estimate otherwise.
std::map<std::string, count_t> loop_bytes(const RunReport& r, bool counted) {
  std::map<std::string, count_t> out;
  if (counted) {
    for (const DatMoveLoopSummary& s : r.datmove->loops)
      out[s.loop] = s.counted_bytes;
  } else {
    for (const ReportLoop& l : r.loops) out[l.name] = l.bytes;
  }
  return out;
}

/// Per-loop host-seconds samples across every report of one side.
std::map<std::string, std::vector<double>> loop_samples(
    const std::vector<RunReport>& runs) {
  std::map<std::string, std::vector<double>> out;
  for (const RunReport& r : runs)
    for (const ReportLoop& l : r.loops) out[l.name].push_back(l.host_seconds);
  return out;
}

/// bench_compare's noise gate: a move is significant only when the
/// median shifts beyond the relative threshold AND the two
/// [median ± k·MAD] intervals are disjoint (so run-to-run noise cannot
/// produce the verdict).
Significance judge(const std::vector<double>& a, const std::vector<double>& b,
                   const DiffOptions& opts, LoopDelta& d) {
  if (a.size() < 2 || b.size() < 2) return Significance::NoSamples;
  d.a_median = median(a);
  d.a_mad = mad(a);
  d.b_median = median(b);
  d.b_mad = mad(b);
  const double base = std::abs(d.a_median);
  const bool beyond =
      std::abs(d.b_median - d.a_median) > opts.threshold * base;
  const bool disjoint =
      d.a_median + opts.mad_k * d.a_mad < d.b_median - opts.mad_k * d.b_mad ||
      d.b_median + opts.mad_k * d.b_mad < d.a_median - opts.mad_k * d.a_mad;
  return beyond && disjoint ? Significance::Significant
                            : Significance::Insignificant;
}

template <class T, class Fn>
void sort_by_abs_delta(std::vector<T>& v, Fn delta) {
  std::stable_sort(v.begin(), v.end(), [&](const T& x, const T& y) {
    return std::abs(delta(x)) > std::abs(delta(y));
  });
}

}  // namespace

DiffReport diff_runs(const RunReport& a, const RunReport& b,
                     const DiffOptions& opts) {
  return diff_runs(std::vector<RunReport>{a}, std::vector<RunReport>{b}, opts);
}

DiffReport diff_runs(const std::vector<RunReport>& a_runs,
                     const std::vector<RunReport>& b_runs,
                     const DiffOptions& opts) {
  BWLAB_REQUIRE(!a_runs.empty() && !b_runs.empty(),
                "diff_runs needs at least one report per side");
  const RunReport& a = a_runs.front();
  const RunReport& b = b_runs.front();

  DiffReport d;
  d.has_buckets = a.causal && b.causal;
  if (d.has_buckets)
    BWLAB_REQUIRE(a.causal->nranks == b.causal->nranks,
                  "cannot diff causal sections with different rank counts ("
                      << a.causal->nranks << " vs " << b.causal->nranks
                      << "); re-run with matching --ranks or diff loop "
                         "timings from reports without --causal");
  d.has_dats = a.datmove && b.datmove;

  // --- Loops: union keyed by name, A's first-execution order, then B's
  // loops that A never ran. delta rows (gone = -a, new = +b) sum exactly
  // to loop_delta_seconds because that total IS the sum of the rows.
  const std::map<std::string, count_t> a_bytes = loop_bytes(a, d.has_dats);
  const std::map<std::string, count_t> b_bytes = loop_bytes(b, d.has_dats);
  const std::map<std::string, std::vector<double>> a_samples =
      loop_samples(a_runs);
  const std::map<std::string, std::vector<double>> b_samples =
      loop_samples(b_runs);
  std::map<std::string, const ReportLoop*> b_by_name;
  for (const ReportLoop& l : b.loops) b_by_name[l.name] = &l;
  std::set<std::string> seen;
  auto add_loop = [&](const std::string& name, const ReportLoop* la,
                      const ReportLoop* lb) {
    LoopDelta row;
    row.name = name;
    row.status = la == nullptr   ? DiffStatus::New
                 : lb == nullptr ? DiffStatus::Gone
                                 : DiffStatus::Common;
    row.a_seconds = la != nullptr ? la->host_seconds : 0;
    row.b_seconds = lb != nullptr ? lb->host_seconds : 0;
    row.delta_seconds = row.b_seconds - row.a_seconds;
    row.rel_change =
        row.a_seconds != 0 ? row.delta_seconds / row.a_seconds : 0;
    const auto ab = a_bytes.find(name);
    const auto bb = b_bytes.find(name);
    row.counted = d.has_dats && ab != a_bytes.end() && bb != b_bytes.end();
    if (ab != a_bytes.end()) row.a_bytes = ab->second;
    if (bb != b_bytes.end()) row.b_bytes = bb->second;
    row.byte_ratio = row.a_bytes != 0 ? static_cast<double>(row.b_bytes) /
                                            static_cast<double>(row.a_bytes)
                                      : 0;
    const auto as = a_samples.find(name);
    const auto bs = b_samples.find(name);
    static const std::vector<double> kNone;
    row.significance =
        judge(as != a_samples.end() ? as->second : kNone,
              bs != b_samples.end() ? bs->second : kNone, opts, row);
    d.a_loop_seconds += row.a_seconds;
    d.b_loop_seconds += row.b_seconds;
    d.loop_delta_seconds += row.delta_seconds;
    d.loops.push_back(std::move(row));
  };
  for (const ReportLoop& l : a.loops) {
    const auto it = b_by_name.find(l.name);
    add_loop(l.name, &l, it != b_by_name.end() ? it->second : nullptr);
    seen.insert(l.name);
  }
  for (const ReportLoop& l : b.loops)
    if (seen.insert(l.name).second) add_loop(l.name, nullptr, &l);

  // --- Wall time: the causal traced wall when both runs have it (then
  // bucket deltas decompose it), total loop seconds otherwise.
  if (d.has_buckets) {
    d.wall_from_causal = true;
    d.a_wall_seconds = a.causal->wall_s;
    d.b_wall_seconds = b.causal->wall_s;
  } else {
    d.a_wall_seconds = a.total_loop_seconds;
    d.b_wall_seconds = b.total_loop_seconds;
  }
  d.wall_delta_seconds = d.b_wall_seconds - d.a_wall_seconds;

  // --- Critical-path buckets: union of bucket names; each side's buckets
  // sum to its path length (== traced wall) by construction, so the
  // deltas decompose the wall delta.
  if (d.has_buckets) {
    const std::map<std::string, double>& ab = a.causal->critical_path.buckets;
    const std::map<std::string, double>& bb = b.causal->critical_path.buckets;
    std::set<std::string> names;
    for (const auto& [k, v] : ab) names.insert(k);
    for (const auto& [k, v] : bb) names.insert(k);
    for (const std::string& name : names) {
      BucketDelta row;
      row.bucket = name;
      const auto ia = ab.find(name);
      const auto ib = bb.find(name);
      row.status = ia == ab.end()   ? DiffStatus::New
                   : ib == bb.end() ? DiffStatus::Gone
                                    : DiffStatus::Common;
      row.a_seconds = ia != ab.end() ? ia->second : 0;
      row.b_seconds = ib != bb.end() ? ib->second : 0;
      row.delta_seconds = row.b_seconds - row.a_seconds;
      row.share = d.wall_delta_seconds != 0
                      ? row.delta_seconds / d.wall_delta_seconds
                      : 0;
      d.buckets.push_back(std::move(row));
    }

    // --- Comm matrix: union keyed by (src, dest).
    std::map<std::pair<int, int>, const causal::PairStats*> am, bm;
    for (const causal::PairStats& p : a.causal->matrix)
      am[{p.src, p.dest}] = &p;
    for (const causal::PairStats& p : b.causal->matrix)
      bm[{p.src, p.dest}] = &p;
    std::set<std::pair<int, int>> keys;
    for (const auto& [k, v] : am) keys.insert(k);
    for (const auto& [k, v] : bm) keys.insert(k);
    for (const auto& key : keys) {
      PairDelta row;
      row.src = key.first;
      row.dest = key.second;
      const auto ia = am.find(key);
      const auto ib = bm.find(key);
      row.status = ia == am.end()   ? DiffStatus::New
                   : ib == bm.end() ? DiffStatus::Gone
                                    : DiffStatus::Common;
      if (ia != am.end()) {
        row.a_messages = ia->second->messages;
        row.a_bytes = ia->second->bytes;
        row.a_wait_seconds = ia->second->wait_s;
      }
      if (ib != bm.end()) {
        row.b_messages = ib->second->messages;
        row.b_bytes = ib->second->bytes;
        row.b_wait_seconds = ib->second->wait_s;
      }
      row.delta_wait_seconds = row.b_wait_seconds - row.a_wait_seconds;
      d.pairs.push_back(row);
    }
  }

  // --- Per-(loop, dat) counted bytes (bwmem): union of record keys.
  if (d.has_dats) {
    std::map<std::pair<std::string, std::string>, count_t> am, bm;
    for (const DatMoveRecord& r : a.datmove->records)
      am[{r.loop, r.dat}] += r.bytes_read + r.bytes_written;
    for (const DatMoveRecord& r : b.datmove->records)
      bm[{r.loop, r.dat}] += r.bytes_read + r.bytes_written;
    std::set<std::pair<std::string, std::string>> keys;
    for (const auto& [k, v] : am) keys.insert(k);
    for (const auto& [k, v] : bm) keys.insert(k);
    for (const auto& key : keys) {
      DatDelta row;
      row.loop = key.first;
      row.dat = key.second;
      const auto ia = am.find(key);
      const auto ib = bm.find(key);
      row.status = ia == am.end()   ? DiffStatus::New
                   : ib == bm.end() ? DiffStatus::Gone
                                    : DiffStatus::Common;
      if (ia != am.end()) row.a_bytes = ia->second;
      if (ib != bm.end()) row.b_bytes = ib->second;
      row.delta_bytes = static_cast<long long>(row.b_bytes) -
                        static_cast<long long>(row.a_bytes);
      d.dats.push_back(std::move(row));
    }
  }

  sort_by_abs_delta(d.loops, [](const LoopDelta& r) { return r.delta_seconds; });
  sort_by_abs_delta(d.buckets,
                    [](const BucketDelta& r) { return r.delta_seconds; });
  sort_by_abs_delta(d.pairs,
                    [](const PairDelta& r) { return r.delta_wait_seconds; });
  sort_by_abs_delta(d.dats, [](const DatDelta& r) {
    return static_cast<double>(r.delta_bytes);
  });
  return d;
}

// --- Presentation ------------------------------------------------------------

Table diff_loops_table(const DiffReport& d, std::size_t top_n) {
  Table t("Loop deltas (B - A) by |delta|");
  t.set_columns({{"loop", 0},
                 {"status", 0},
                 {"A s", 5},
                 {"B s", 5},
                 {"delta s", 5},
                 {"rel", 3},
                 {"A GB", 3},
                 {"B GB", 3},
                 {"verdict", 0}});
  std::size_t n = 0;
  for (const LoopDelta& l : d.loops) {
    if (top_n != 0 && n++ >= top_n) break;
    t.add_row({l.name, std::string(to_string(l.status)), l.a_seconds,
               l.b_seconds, l.delta_seconds, l.rel_change,
               static_cast<double>(l.a_bytes) / 1e9,
               static_cast<double>(l.b_bytes) / 1e9,
               std::string(to_string(l.significance))});
  }
  return t;
}

Table diff_buckets_table(const DiffReport& d) {
  Table t("Critical-path bucket deltas (B - A)");
  t.set_columns({{"bucket", 0},
                 {"status", 0},
                 {"A s", 5},
                 {"B s", 5},
                 {"delta s", 5},
                 {"share", 3}});
  for (const BucketDelta& b : d.buckets)
    t.add_row({b.bucket, std::string(to_string(b.status)), b.a_seconds,
               b.b_seconds, b.delta_seconds, b.share});
  return t;
}

Table diff_comm_table(const DiffReport& d, std::size_t top_n) {
  Table t("Comm-matrix wait deltas (B - A) by |delta|");
  t.set_columns({{"src", 0},
                 {"dest", 0},
                 {"status", 0},
                 {"A msgs", 0},
                 {"B msgs", 0},
                 {"A wait s", 5},
                 {"B wait s", 5},
                 {"delta s", 5}});
  std::size_t n = 0;
  for (const PairDelta& p : d.pairs) {
    if (top_n != 0 && n++ >= top_n) break;
    t.add_row({static_cast<double>(p.src), static_cast<double>(p.dest),
               std::string(to_string(p.status)),
               static_cast<double>(p.a_messages),
               static_cast<double>(p.b_messages), p.a_wait_seconds,
               p.b_wait_seconds, p.delta_wait_seconds});
  }
  return t;
}

Table diff_dats_table(const DiffReport& d, std::size_t top_n) {
  Table t("Counted-bytes deltas per (loop, dat) by |delta|");
  t.set_columns({{"loop", 0},
                 {"dat", 0},
                 {"status", 0},
                 {"A MB", 3},
                 {"B MB", 3},
                 {"delta MB", 3}});
  std::size_t n = 0;
  for (const DatDelta& x : d.dats) {
    if (top_n != 0 && n++ >= top_n) break;
    t.add_row({x.loop, x.dat, std::string(to_string(x.status)),
               static_cast<double>(x.a_bytes) / 1e6,
               static_cast<double>(x.b_bytes) / 1e6,
               static_cast<double>(x.delta_bytes) / 1e6});
  }
  return t;
}

void write_csv(std::ostream& os, const DiffReport& d) {
  os << "section,key,status,a,b,delta\n";
  os << "wall," << (d.wall_from_causal ? "causal" : "loops") << ",common,"
     << d.a_wall_seconds << "," << d.b_wall_seconds << ","
     << d.wall_delta_seconds << "\n";
  for (const LoopDelta& l : d.loops)
    os << "loop," << l.name << "," << to_string(l.status) << ","
       << l.a_seconds << "," << l.b_seconds << "," << l.delta_seconds << "\n";
  for (const BucketDelta& b : d.buckets)
    os << "bucket," << b.bucket << "," << to_string(b.status) << ","
       << b.a_seconds << "," << b.b_seconds << "," << b.delta_seconds << "\n";
  for (const PairDelta& p : d.pairs)
    os << "comm," << p.src << "->" << p.dest << "," << to_string(p.status)
       << "," << p.a_wait_seconds << "," << p.b_wait_seconds << ","
       << p.delta_wait_seconds << "\n";
  for (const DatDelta& x : d.dats)
    os << "dat," << x.loop << ":" << x.dat << "," << to_string(x.status)
       << "," << x.a_bytes << "," << x.b_bytes << "," << x.delta_bytes
       << "\n";
}

// --- Merged Chrome trace -----------------------------------------------------

void write_merged_chrome_trace(std::ostream& os,
                               std::vector<trace::TrackView> a,
                               std::vector<trace::TrackView> b) {
  for (trace::TrackView& t : a) {
    t.process = "A rank " + std::to_string(t.rank);
    t.rank = 2 * t.rank;
  }
  for (trace::TrackView& t : b) {
    t.process = "B rank " + std::to_string(t.rank);
    t.rank = 2 * t.rank + 1;
  }
  a.insert(a.end(), std::make_move_iterator(b.begin()),
           std::make_move_iterator(b.end()));
  trace::write_chrome_json(os, a);
}

}  // namespace bwlab::core
