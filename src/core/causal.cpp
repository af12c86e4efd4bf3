#include "core/causal.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace bwlab::core::causal {

namespace {

constexpr double kNsToS = 1e-9;

/// One reconstructed span on a rank-main timeline.
struct SpanRec {
  double t0 = 0, t1 = 0;
  trace::Cat cat = trace::Cat::Kernel;
  std::string name;
  bool has_args = false;
  int peer = -1, tag = -1;
  long long seq = -1;
  unsigned long long bytes = 0;
};

/// Innermost-span classification of a timeline instant into a critical-
/// path bucket.
const char* bucket_of(const SpanRec& s) {
  switch (s.cat) {
    case trace::Cat::Kernel: return "kernel";
    case trace::Cat::Halo: return "halo_pack";
    case trace::Cat::Comm:
      return (s.name == "barrier" || s.name == "allreduce") ? "imbalance"
                                                            : "comm_wait";
    case trace::Cat::Fault:
      // bwresil emits all recovery work (rollback, buddy mirror/restore,
      // replay, degraded) as Fault spans named "recovery:*"; attribute those
      // to their own bucket so recovery cost is visible in the critical
      // path.
      return s.name.rfind("recovery", 0) == 0 ? "recovery" : "other";
    default: return "other";
  }
}

/// Leaf interval: the innermost open span's bucket over [t0, t1).
struct Leaf {
  double t0 = 0, t1 = 0;
  const char* bucket = "other";
};

/// A flow endpoint: where an 's'/'f' event fired and the enclosing span.
struct FlowEnd {
  int rank = -1;
  double ts = 0;
  long long span = -1;  ///< index into the rank's span list, -1 if none
};

/// Everything extracted from one rank's merged main timeline.
struct RankTimeline {
  double first = 0, last = 0;
  std::vector<SpanRec> spans;   // completion order
  std::vector<Leaf> leaves;     // time order
  bool any = false;
};

/// A blocking interval the critical-path walk can jump across.
struct WaitPoint {
  double w0 = 0, w1 = 0;
  bool collective = false;
  double deliver = 0;   // p2p: flow-start timestamp
  int src = -1;         // p2p: sending rank
  long long inst = -1;  // collective: instance (seq)
};

/// Scans one merged event stream, reconstructing spans, leaves and flow
/// endpoints. Unclosed spans are closed at the final timestamp, matching
/// the serializer's balancing rule.
void scan_track(int rank, const std::vector<trace::EventView>& events,
                RankTimeline& tl,
                std::map<std::uint64_t, FlowEnd>& flow_starts,
                std::map<std::uint64_t, FlowEnd>& flow_finishes,
                long long& dup_flows) {
  if (events.empty()) return;
  std::vector<std::size_t> open;  // indices into tl.spans
  double prev = events.front().ts_ns * kNsToS;
  if (!tl.any) {
    tl.first = prev;
    tl.any = true;
  } else {
    tl.first = std::min(tl.first, prev);
  }
  double last = prev;
  for (const trace::EventView& e : events) {
    const double ts = e.ts_ns * kNsToS;
    last = std::max(last, ts);
    switch (e.ph) {
      case 'B': {
        if (!open.empty() && ts > prev)
          tl.leaves.push_back(Leaf{prev, ts, bucket_of(tl.spans[open.back()])});
        prev = ts;
        SpanRec s;
        s.t0 = ts;
        s.t1 = -1;
        s.cat = e.cat;
        s.name = e.name;
        s.has_args = e.has_args;
        s.peer = e.peer;
        s.tag = e.tag;
        s.seq = e.seq;
        s.bytes = e.bytes;
        open.push_back(tl.spans.size());
        tl.spans.push_back(std::move(s));
        break;
      }
      case 'E': {
        if (open.empty()) break;  // unmatched end (pre-overflow): drop
        if (ts > prev)
          tl.leaves.push_back(Leaf{prev, ts, bucket_of(tl.spans[open.back()])});
        prev = ts;
        tl.spans[open.back()].t1 = ts;
        open.pop_back();
        break;
      }
      case 's':
      case 'f': {
        auto& side = e.ph == 's' ? flow_starts : flow_finishes;
        const long long span =
            open.empty() ? -1 : static_cast<long long>(open.back());
        if (!side.emplace(e.flow, FlowEnd{rank, ts, span}).second)
          ++dup_flows;  // id collision or replayed run without reset
        break;
      }
      default: break;  // counters
    }
  }
  // Close still-open spans (overflow or spans alive at disable()).
  while (!open.empty()) {
    if (last > prev)
      tl.leaves.push_back(Leaf{prev, last, bucket_of(tl.spans[open.back()])});
    prev = last;
    tl.spans[open.back()].t1 = last;
    open.pop_back();
  }
  tl.last = std::max(tl.last, last);
}

WaitClass classify(double deliver, double w0, double w1,
                   unsigned long long bytes, const Options& opts) {
  if (deliver > w0) return WaitClass::LateSender;
  const double copy_allowance =
      opts.progress_eps_s +
      static_cast<double>(bytes) / opts.copy_bw_bytes_per_s;
  if (w1 - w0 > copy_allowance) return WaitClass::ProgressStarved;
  return WaitClass::LateReceiver;
}

}  // namespace

const char* to_string(WaitClass c) {
  switch (c) {
    case WaitClass::LateSender: return "late-sender";
    case WaitClass::LateReceiver: return "late-receiver";
    case WaitClass::ProgressStarved: return "progress-starved";
  }
  return "?";
}

Report analyze(const std::vector<trace::TrackView>& tracks,
               const Options& opts) {
  Report rep;

  // Merge rank-main (tid 0) tracks per rank: several runs in one trace
  // leave several buffers with the same identity (a fresh thread per
  // run_ranks call), and analysis wants one timeline per rank.
  std::map<int, std::vector<trace::EventView>> per_rank;
  for (const trace::TrackView& t : tracks) {
    if (t.tid != 0) continue;  // pool workers: not SimMPI timelines
    auto& dst = per_rank[t.rank];
    dst.insert(dst.end(), t.events.begin(), t.events.end());
  }
  if (per_rank.empty()) return rep;
  for (auto& [rank, evs] : per_rank)
    std::stable_sort(evs.begin(), evs.end(),
                     [](const trace::EventView& a, const trace::EventView& b) {
                       return a.ts_ns < b.ts_ns;
                     });

  const int nranks = per_rank.rbegin()->first + 1;
  rep.nranks = nranks;

  std::map<int, RankTimeline> timelines;
  std::map<std::uint64_t, FlowEnd> flow_starts, flow_finishes;
  long long dup_flows = 0;
  for (auto& [rank, evs] : per_rank)
    scan_track(rank, evs, timelines[rank], flow_starts, flow_finishes,
               dup_flows);

  double global_start = 1e300, global_end = -1e300;
  for (const auto& [rank, tl] : timelines) {
    if (!tl.any) continue;
    global_start = std::min(global_start, tl.first);
    global_end = std::max(global_end, tl.last);
  }
  if (global_end <= global_start) return rep;
  rep.wall_s = global_end - global_start;

  // --- Send→recv matching + wait-state classification -----------------------
  std::map<int, std::vector<WaitPoint>> waits;  // per dest rank, p2p
  std::map<std::pair<int, int>, PairStats> matrix;
  std::map<int, RankWaits> rank_waits;
  for (int r = 0; r < nranks; ++r) rank_waits[r].rank = r;

  for (const auto& [id, s] : flow_starts) {
    const auto f = flow_finishes.find(id);
    if (f == flow_finishes.end()) {
      ++rep.unmatched_sends;
      continue;
    }
    MessageFlow m;
    m.src = s.rank;
    m.dest = f->second.rank;
    m.deliver_s = s.ts;
    const RankTimeline& stl = timelines[s.rank];
    const RankTimeline& rtl = timelines[f->second.rank];
    if (s.span >= 0) {
      const SpanRec& ss = stl.spans[static_cast<std::size_t>(s.span)];
      m.send_begin_s = ss.t0;
      m.tag = ss.tag;
      m.seq = ss.seq;
      m.bytes = ss.bytes;
    } else {
      m.send_begin_s = s.ts;
    }
    if (f->second.span >= 0) {
      const SpanRec& rs = rtl.spans[static_cast<std::size_t>(f->second.span)];
      m.wait_begin_s = rs.t0;
      m.wait_end_s = rs.t1;
    } else {
      m.wait_begin_s = m.wait_end_s = f->second.ts;
    }
    m.wait_s = m.wait_end_s - m.wait_begin_s;
    m.cls = classify(m.deliver_s, m.wait_begin_s, m.wait_end_s, m.bytes, opts);
    rep.messages.push_back(m);

    PairStats& cell = matrix[{m.src, m.dest}];
    cell.src = m.src;
    cell.dest = m.dest;
    ++cell.messages;
    cell.bytes += m.bytes;
    cell.wait_s += m.wait_s;

    RankWaits& rw = rank_waits[m.dest];
    switch (m.cls) {
      case WaitClass::LateSender:
        rw.late_sender_s += m.wait_s;
        ++rw.late_sender_n;
        break;
      case WaitClass::LateReceiver:
        rw.late_receiver_s += m.wait_s;
        ++rw.late_receiver_n;
        break;
      case WaitClass::ProgressStarved:
        rw.progress_starved_s += m.wait_s;
        ++rw.progress_starved_n;
        break;
    }
    waits[m.dest].push_back(
        WaitPoint{m.wait_begin_s, m.wait_end_s, false, m.deliver_s, m.src, -1});
  }
  rep.unmatched_recvs =
      static_cast<long long>(flow_finishes.size()) +
      dup_flows -
      (static_cast<long long>(rep.messages.size()));
  std::sort(rep.messages.begin(), rep.messages.end(),
            [](const MessageFlow& a, const MessageFlow& b) {
              return a.wait_end_s < b.wait_end_s;
            });
  for (auto& [key, cell] : matrix) rep.matrix.push_back(cell);

  // --- Collectives: instance table + per-rank blocked time -------------------
  // inst -> per-rank (begin, end); the k-th collective span on every rank
  // is the same instance because barriers and allreduces share one World
  // generation counter.
  std::map<long long, std::map<int, std::pair<double, double>>> colls;
  for (const auto& [rank, tl] : timelines) {
    for (const SpanRec& s : tl.spans) {
      if (s.cat != trace::Cat::Comm) continue;
      if (s.name != "barrier" && s.name != "allreduce") continue;
      rank_waits[rank].collective_s += s.t1 - s.t0;
      if (s.has_args && s.seq >= 0)
        colls[s.seq][rank] = {s.t0, s.t1};
    }
  }
  for (const auto& [inst, per] : colls) {
    for (const auto& [rank, tt] : per)
      waits[rank].push_back(WaitPoint{tt.first, tt.second, true, 0, -1, inst});
  }
  for (auto& [rank, wl] : waits)
    std::sort(wl.begin(), wl.end(),
              [](const WaitPoint& a, const WaitPoint& b) { return a.w0 < b.w0; });
  for (const auto& [rank, rw] : rank_waits) rep.rank_waits.push_back(rw);

  // --- Critical-path extraction ----------------------------------------------
  // Backward walk from the globally last event. Across a late-sender wait
  // the path jumps to the sending rank at the delivery point; across a
  // collective it jumps to the last-arriving rank. Everything else is
  // attributed to buckets by the innermost span covering it, so the
  // buckets partition [global_start, global_end] exactly.
  CriticalPath& path = rep.path;
  path.length_s = rep.wall_s;

  auto add_seg = [&](int rank, double a, double b, const char* bucket) {
    if (b <= a) return;
    path.bucket_s[bucket] += b - a;
    path.segments.push_back(PathSegment{rank, a, b, bucket});
  };
  // Attributes [a, b] on `rank` via its leaf intervals; gaps become
  // "other".
  auto attribute = [&](int rank, double a, double b) {
    if (b <= a) return;
    const auto& ls = timelines[rank].leaves;
    auto it = std::lower_bound(
        ls.begin(), ls.end(), a,
        [](const Leaf& l, double t) { return l.t1 <= t; });
    double covered = a;
    for (; it != ls.end() && it->t0 < b; ++it) {
      const double lo = std::max(a, it->t0), hi = std::min(b, it->t1);
      if (hi <= lo) continue;
      add_seg(rank, covered, lo, "other");
      add_seg(rank, lo, hi, it->bucket);
      covered = std::max(covered, hi);
    }
    add_seg(rank, covered, b, "other");
  };

  int cur = -1;
  {
    double best = -1e300;
    for (const auto& [rank, tl] : timelines)
      if (tl.any && tl.last > best) {
        best = tl.last;
        cur = rank;
      }
  }
  double t = global_end;
  path.ranks.push_back(cur);
  const long long max_iters =
      16 + 4 * static_cast<long long>(flow_starts.size() + colls.size() +
                                      rep.nranks);
  for (long long iter = 0; iter < max_iters && t > global_start; ++iter) {
    const auto& wl = waits[cur];
    // Latest wait on cur starting before t.
    auto it = std::lower_bound(
        wl.begin(), wl.end(), t,
        [](const WaitPoint& w, double tt) { return w.w0 < tt; });
    if (it == wl.begin()) {
      attribute(cur, global_start, t);
      t = global_start;
      break;
    }
    const WaitPoint& p = *std::prev(it);
    const double we = std::min(p.w1, t);
    attribute(cur, we, t);  // compute tail after the wait
    bool jumped = false;
    if (!p.collective) {
      if (p.src != cur && p.src >= 0 && p.deliver > p.w0 && p.deliver < we) {
        add_seg(cur, p.deliver, we, "comm_wait");  // transfer/copy tail
        t = p.deliver;
        jumped = true;
        if (path.ranks.back() != p.src) path.ranks.push_back(p.src);
        cur = p.src;
      }
    } else {
      const auto cit = colls.find(p.inst);
      if (cit != colls.end()) {
        int r_last = cur;
        double b_last = -1e300;
        for (const auto& [rank, tt] : cit->second)
          if (tt.first > b_last) {
            b_last = tt.first;
            r_last = rank;
          }
        if (r_last != cur && b_last > p.w0 && b_last < we) {
          add_seg(cur, b_last, we, "imbalance");  // completion after arrival
          t = b_last;
          jumped = true;
          if (path.ranks.back() != r_last) path.ranks.push_back(r_last);
          cur = r_last;
        }
      }
    }
    if (!jumped) {
      attribute(cur, p.w0, we);
      t = p.w0;
    }
  }
  if (t > global_start) attribute(cur, global_start, t);  // iteration cap hit
  std::reverse(path.ranks.begin(), path.ranks.end());
  std::reverse(path.segments.begin(), path.segments.end());
  return rep;
}

Report analyze_live(const Options& opts) {
  return analyze(trace::snapshot(), opts);
}

// --- Cross-check -------------------------------------------------------------

RankByteCheck cross_check_rank_bytes(
    const Report& r, const std::vector<par::RankStats>& stats) {
  RankByteCheck out;
  // Independent re-aggregation of the matched flows by sender (and, for
  // the diagnosis, by (src, dest, tag)) — deliberately NOT from r.matrix,
  // so a matrix-aggregation bug is caught too.
  std::map<int, unsigned long long> bytes_by_src;
  std::map<int, long long> msgs_by_src;
  std::map<std::pair<int, std::pair<int, int>>, unsigned long long> by_pair;
  for (const MessageFlow& m : r.messages) {
    bytes_by_src[m.src] += m.bytes;
    ++msgs_by_src[m.src];
    by_pair[{m.src, {m.dest, m.tag}}] += m.bytes;
  }
  std::ostringstream diag;
  for (std::size_t rank = 0; rank < stats.size(); ++rank) {
    const int rk = static_cast<int>(rank);
    const unsigned long long traced = bytes_by_src.count(rk)
                                          ? bytes_by_src.at(rk)
                                          : 0ULL;
    const long long traced_msgs =
        msgs_by_src.count(rk) ? msgs_by_src.at(rk) : 0LL;
    const unsigned long long counted = stats[rank].payload_bytes_sent;
    const long long counted_msgs =
        static_cast<long long>(stats[rank].messages_sent);
    if (traced == counted && traced_msgs == counted_msgs) continue;
    out.ok = false;
    diag << "rank " << rk << ": trace " << traced << " B / " << traced_msgs
         << " msgs vs RankStats " << counted << " B / " << counted_msgs
         << " msgs;";
    for (const auto& [k, b] : by_pair)
      if (k.first == rk)
        diag << " ->" << k.second.first << " tag " << k.second.second << ": "
             << b << " B;";
    diag << "\n";
  }
  if (!out.ok) {
    if (r.unmatched_sends > 0 || r.unmatched_recvs > 0)
      diag << "(" << r.unmatched_sends << " unmatched sends, "
           << r.unmatched_recvs
           << " unmatched recvs — dropped trace events truncate the "
              "matched flows)\n";
    out.diagnosis = diag.str();
  }
  return out;
}

// --- Presentation ------------------------------------------------------------

Table wait_state_table(const Report& r) {
  Table t("Wait states per rank (bwcausal)");
  t.set_columns({{"rank", 0},
                 {"late-sender s", 6},
                 {"n", 0},
                 {"progress-starved s", 6},
                 {"n", 0},
                 {"late-receiver s", 6},
                 {"n", 0},
                 {"collective s", 6}});
  for (const RankWaits& w : r.rank_waits)
    t.add_row({static_cast<double>(w.rank), w.late_sender_s,
               static_cast<double>(w.late_sender_n), w.progress_starved_s,
               static_cast<double>(w.progress_starved_n), w.late_receiver_s,
               static_cast<double>(w.late_receiver_n), w.collective_s});
  return t;
}

Table comm_matrix_table(const Report& r) {
  Table t("Communication matrix (src -> dest)");
  t.set_columns({{"src", 0},
                 {"dest", 0},
                 {"messages", 0},
                 {"MB", 3},
                 {"wait s", 6}});
  for (const PairStats& p : r.matrix)
    t.add_row({static_cast<double>(p.src), static_cast<double>(p.dest),
               static_cast<double>(p.messages),
               static_cast<double>(p.bytes) / 1e6, p.wait_s});
  return t;
}

Table critical_path_table(const Report& r) {
  Table t("Critical path attribution");
  t.set_columns({{"bucket", 0}, {"seconds", 6}, {"% of path", 1}});
  const double len = r.path.length_s > 0 ? r.path.length_s : 1.0;
  for (const char* b : {"kernel", "halo_pack", "comm_wait", "imbalance",
                        "recovery", "other"}) {
    const auto it = r.path.bucket_s.find(b);
    const double s = it == r.path.bucket_s.end() ? 0.0 : it->second;
    t.add_row({std::string(b), s, 100.0 * s / len});
  }
  t.add_separator();
  // The row names the hop count and the set of ranks (runs collapsed to
  // "a-b"), so it stays narrow however long the path; the hop-by-hop
  // list is in the JSON (critical_path.ranks).
  const std::size_t hops = r.path.ranks.empty() ? 0 : r.path.ranks.size() - 1;
  std::vector<int> set = r.path.ranks;
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  std::ostringstream row;
  row << "path (" << hops << (hops == 1 ? " hop" : " hops") << ", ranks ";
  if (set.empty()) row << "-";
  for (std::size_t i = 0; i < set.size(); ++i) {
    std::size_t j = i;
    while (j + 1 < set.size() && set[j + 1] == set[j] + 1) ++j;
    row << (i > 0 ? "," : "") << set[i];
    if (j > i) row << "-" << set[j];
    i = j;
  }
  row << ")";
  t.add_row({row.str(), r.path.length_s, 100.0});
  return t;
}

CausalSection summarize(const Report& r) {
  CausalSection s;
  s.wall_s = r.wall_s;
  s.nranks = r.nranks;
  s.matched_messages = static_cast<long long>(r.messages.size());
  s.unmatched_sends = r.unmatched_sends;
  s.unmatched_recvs = r.unmatched_recvs;
  s.wait_states = r.rank_waits;
  s.matrix = r.matrix;
  s.critical_path.length_s = r.path.length_s;
  s.critical_path.buckets = r.path.bucket_s;
  s.critical_path.ranks = r.path.ranks;
  s.critical_path.segments = static_cast<long long>(r.path.segments.size());
  return s;
}

}  // namespace bwlab::core::causal
