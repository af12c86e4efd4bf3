#include "common/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::trace {

namespace {

constexpr std::size_t kNameCap = 48;  // truncation bound, keeps events POD

enum class Ph : std::uint8_t { Begin, End, Counter, FlowStart, FlowFinish };

struct Event {
  std::uint64_t ts_ns = 0;
  double value = 0;        // counters only
  std::uint64_t flow = 0;  // flow events only
  long long seq = -1;      // CommArgs
  unsigned long long bytes = 0;
  int peer = -1;
  int tag = -1;
  Ph ph = Ph::Begin;
  Cat cat = Cat::Kernel;
  bool has_args = false;
  char name[kNameCap] = {};
};

/// One thread's event log plus its track identity. Buffers are owned by
/// the global registry and outlive their threads, so serialization after
/// run_ranks joins still sees every rank's events.
struct ThreadBuffer {
  int rank = 0;
  int tid = 0;
  std::string label;
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::size_t> capacity{std::size_t{1} << 20};
  std::atomic<std::uint64_t> epoch_ns{0};
};

Registry& reg() {
  static Registry* r = new Registry;  // leaked: threads may outlive main
  return *r;
}

thread_local ThreadBuffer* tls_buf = nullptr;
thread_local int tls_rank = 0;
thread_local int tls_tid = 0;

/// Relaxed mirror of the per-buffer drop counts, readable mid-run
/// without the registry mutex (dropped_events_now).
std::atomic<std::uint64_t> g_dropped_total{0};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void copy_name(Event& e, std::string_view a, std::string_view b) {
  std::size_t n = std::min(a.size(), kNameCap - 1);
  std::copy_n(a.data(), n, e.name);
  const std::size_t m = std::min(b.size(), kNameCap - 1 - n);
  std::copy_n(b.data(), m, e.name + n);
  e.name[n + m] = '\0';
}

ThreadBuffer& buf() {
  if (tls_buf != nullptr) return *tls_buf;
  auto b = std::make_unique<ThreadBuffer>();
  b->rank = tls_rank;
  b->tid = tls_tid;
  b->label = "rank " + std::to_string(tls_rank) +
             (tls_tid == 0 ? std::string(" main")
                           : " worker " + std::to_string(tls_tid));
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  tls_buf = b.get();
  r.buffers.push_back(std::move(b));
  return *tls_buf;
}

/// Stamps and buffers `e` (name from a+b), counting a drop at capacity.
void push(Event e, std::string_view a, std::string_view b) {
  ThreadBuffer& tb = buf();
  if (tb.events.size() >= reg().capacity.load(std::memory_order_relaxed)) {
    ++tb.dropped;
    g_dropped_total.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  copy_name(e, a, b);
  e.ts_ns = now_ns();
  tb.events.push_back(e);
}

void push(Ph ph, Cat cat, std::string_view a, std::string_view b,
          double value) {
  Event e;
  e.ph = ph;
  e.cat = cat;
  e.value = value;
  push(e, a, b);
}

void write_event_line(std::ostream& os, const ThreadBuffer& tb,
                      const Event& e, std::uint64_t epoch, bool& first) {
  if (!first) os << ",\n";
  first = false;
  const double ts_us =
      static_cast<double>(e.ts_ns - std::min(epoch, e.ts_ns)) / 1000.0;
  char ts[48];
  std::snprintf(ts, sizeof ts, "%.3f", ts_us);
  switch (e.ph) {
    case Ph::Begin:
      os << R"({"ph":"B","pid":)" << tb.rank << R"(,"tid":)" << tb.tid
         << R"(,"ts":)" << ts << R"(,"cat":")" << to_string(e.cat)
         << R"(","name":")";
      json::write_escaped(os, e.name);
      os << '"';
      if (e.has_args)
        os << R"(,"args":{"peer":)" << e.peer << R"(,"tag":)" << e.tag
           << R"(,"seq":)" << e.seq << R"(,"bytes":)" << e.bytes << "}";
      os << "}";
      break;
    case Ph::End:
      os << R"({"ph":"E","pid":)" << tb.rank << R"(,"tid":)" << tb.tid
         << R"(,"ts":)" << ts << "}";
      break;
    case Ph::Counter:
      os << R"({"ph":"C","pid":)" << tb.rank << R"(,"tid":)" << tb.tid
         << R"(,"ts":)" << ts << R"(,"name":")";
      json::write_escaped(os, e.name);
      os << R"(","args":{"value":)" << e.value << "}}";
      break;
    case Ph::FlowStart:
    case Ph::FlowFinish: {
      // Flow pair linking a send span to the matching recv/wait span;
      // Perfetto draws the arrow between the enclosing slices. "bp":"e"
      // binds the finish to the enclosing slice rather than the next one.
      char id[32];
      std::snprintf(id, sizeof id, "%llx",
                    static_cast<unsigned long long>(e.flow));
      os << R"({"ph":")" << (e.ph == Ph::FlowStart ? 's' : 'f') << '"'
         << (e.ph == Ph::FlowFinish ? R"(,"bp":"e")" : "") << R"(,"pid":)"
         << tb.rank << R"(,"tid":)" << tb.tid << R"(,"ts":)" << ts
         << R"(,"cat":"comm","name":"msg","id":"0x)" << id << R"("})";
      break;
    }
  }
}

}  // namespace

const char* to_string(Cat c) {
  switch (c) {
    case Cat::Kernel: return "kernel";
    case Cat::Halo: return "halo";
    case Cat::Comm: return "comm";
    case Cat::Tile: return "tile";
    case Cat::Region: return "region";
    case Cat::App: return "app";
    case Cat::Fault: return "fault";
  }
  return "?";
}

namespace detail {

void begin_span(Cat c, std::string_view name, std::string_view suffix) {
  push(Ph::Begin, c, name, suffix, 0.0);
}

void begin_span_args(Cat c, std::string_view name, std::string_view suffix,
                     const CommArgs& args) {
  Event e;
  e.ph = Ph::Begin;
  e.cat = c;
  e.has_args = true;
  e.peer = args.peer;
  e.tag = args.tag;
  e.seq = args.seq;
  e.bytes = args.bytes;
  push(e, name, suffix);
}

void end_span() { push(Ph::End, Cat::Kernel, {}, {}, 0.0); }

void flow_event(bool start, std::uint64_t id) {
  Event e;
  e.ph = start ? Ph::FlowStart : Ph::FlowFinish;
  e.cat = Cat::Comm;
  e.flow = id;
  push(e, {}, {});
}

}  // namespace detail

std::uint64_t flow_id(int src, int dest, int tag, long long seq) {
  // splitmix64-style mix of the four coordinates: equality is all the
  // Chrome flow binding and the analyzer need, and 64 mixed bits make
  // accidental collisions between distinct (src, dest, tag, seq) tuples
  // negligible at any realistic message count.
  std::uint64_t x = static_cast<std::uint64_t>(static_cast<std::uint32_t>(src));
  x = x * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(dest);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL + static_cast<std::uint32_t>(tag);
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL +
      static_cast<std::uint64_t>(seq);
  return x ^ (x >> 31);
}

void enable(std::size_t max_events_per_thread) {
  Registry& r = reg();
  r.capacity.store(std::max<std::size_t>(max_events_per_thread, 16),
                   std::memory_order_relaxed);
  std::uint64_t expected = 0;
  r.epoch_ns.compare_exchange_strong(expected, now_ns());
  detail::g_on.enable();
}

void disable() { detail::g_on.disable(); }

void reset() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.buffers) {
    b->events.clear();
    b->dropped = 0;
  }
  g_dropped_total.store(0, std::memory_order_relaxed);
  r.epoch_ns.store(now_ns(), std::memory_order_relaxed);
}

void set_thread_track(int rank, int tid, std::string label) {
  tls_rank = rank;
  tls_tid = tid;
  if (tls_buf != nullptr) {
    tls_buf->rank = rank;
    tls_buf->tid = tid;
    tls_buf->label = std::move(label);
    return;
  }
  // Buffer not created yet: materialize it now so the label sticks.
  ThreadBuffer& tb = buf();
  tb.label = std::move(label);
}

int current_rank() { return tls_rank; }

void counter(std::string_view name, double value) {
  if (!enabled()) return;
  push(Ph::Counter, Cat::App, name, {}, value);
}

std::uint64_t dropped_events_now() {
  return g_dropped_total.load(std::memory_order_relaxed);
}

std::uint64_t dropped_events() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.buffers) n += b->dropped;
  return n;
}

std::vector<ThreadDrops> dropped_by_thread() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<ThreadDrops> out;
  out.reserve(r.buffers.size());
  for (const auto& b : r.buffers) {
    if (b->events.empty() && b->dropped == 0) continue;  // untouched track
    out.push_back(ThreadDrops{b->rank, b->tid, b->label, b->dropped});
  }
  return out;
}

std::vector<TrackView> snapshot() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::uint64_t epoch = r.epoch_ns.load(std::memory_order_relaxed);
  std::vector<TrackView> out;
  out.reserve(r.buffers.size());
  for (const auto& b : r.buffers) {
    if (b->events.empty()) continue;
    TrackView t;
    t.rank = b->rank;
    t.tid = b->tid;
    t.label = b->label;
    t.dropped = b->dropped;
    t.events.reserve(b->events.size());
    for (const Event& e : b->events) {
      EventView v;
      v.ts_ns = e.ts_ns - std::min(epoch, e.ts_ns);
      v.value = e.value;
      v.flow = e.flow;
      v.cat = e.cat;
      v.has_args = e.has_args;
      v.peer = e.peer;
      v.tag = e.tag;
      v.seq = e.seq;
      v.bytes = e.bytes;
      v.name = e.name;
      switch (e.ph) {
        case Ph::Begin: v.ph = 'B'; break;
        case Ph::End: v.ph = 'E'; break;
        case Ph::Counter: v.ph = 'C'; break;
        case Ph::FlowStart: v.ph = 's'; break;
        case Ph::FlowFinish: v.ph = 'f'; break;
      }
      t.events.push_back(std::move(v));
    }
    out.push_back(std::move(t));
  }
  return out;
}

void write_chrome_json(std::ostream& os) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::uint64_t epoch = r.epoch_ns.load(std::memory_order_relaxed);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& b : r.buffers) {
    if (b->events.empty()) continue;  // dead or untouched track
    // Track metadata: process = rank, thread = team member.
    if (!first) os << ",\n";
    first = false;
    os << R"({"ph":"M","pid":)" << b->rank << R"(,"tid":)" << b->tid
       << R"(,"name":"process_name","args":{"name":"rank )" << b->rank
       << R"("}})";
    os << ",\n"
       << R"({"ph":"M","pid":)" << b->rank << R"(,"tid":)" << b->tid
       << R"(,"name":"thread_name","args":{"name":")";
    json::write_escaped(os, b->label);
    os << " (dropped " << b->dropped << ")\"}}";
    // Events, with unmatched begins closed at the final timestamp so the
    // emitted stream always has balanced B/E pairs.
    int depth = 0;
    std::uint64_t last_ts = epoch;
    for (const Event& e : b->events) {
      if (e.ph == Ph::End) {
        if (depth == 0) continue;  // unmatched end: drop
        --depth;
      } else if (e.ph == Ph::Begin) {
        ++depth;
      }
      last_ts = std::max(last_ts, e.ts_ns);
      write_event_line(os, *b, e, epoch, first);
    }
    Event closer;
    closer.ph = Ph::End;
    closer.ts_ns = last_ts;
    for (; depth > 0; --depth) write_event_line(os, *b, closer, epoch, first);
  }
  os << "\n]}\n";
}

void write_chrome_json_file(const std::string& path) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open trace output file '" << path << "'");
  write_chrome_json(os);
  BWLAB_REQUIRE(os.good(), "failed writing trace to '" << path << "'");
}

}  // namespace bwlab::trace
