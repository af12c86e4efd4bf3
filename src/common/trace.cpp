#include "common/trace.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::trace {

namespace {

constexpr std::size_t kNameCap = 48;  // truncation bound, keeps events POD

struct Event {
  std::uint64_t ts_ns = 0;
  double value = 0;        // counters only
  std::uint64_t flow = 0;  // flow events only
  long long seq = -1;      // CommArgs
  unsigned long long bytes = 0;
  int peer = -1;
  int tag = -1;
  char ph = 'B';  // Chrome phase letter, as EventView::ph
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

void push(char ph, Cat cat, std::string_view a, std::string_view b,
          double value) {
  Event e;
  e.ph = ph;
  e.cat = cat;
  e.value = value;
  push(e, a, b);
}

constexpr std::string_view kHeader =
    R"({"displayTimeUnit":"ms","traceEvents":[)";
constexpr std::string_view kFooter = "]}";

/// One buffer as a track, timestamps relative to `epoch`.
TrackView decode(const ThreadBuffer& b, std::uint64_t epoch) {
  TrackView t{b.rank, b.tid, "rank " + std::to_string(b.rank), b.label,
              b.dropped, {}};
  t.events.reserve(b.events.size());
  for (const Event& e : b.events)
    t.events.push_back({e.ts_ns - std::min(epoch, e.ts_ns), e.value, e.flow,
                        e.ph, e.cat, e.has_args, e.peer, e.tag, e.seq,
                        e.bytes, e.name});
  return t;
}

/// Prints the trace envelope and, between its lines, one event per line.
/// Each line is built in a reused buffer and written in one call; numbers
/// go through std::to_chars: timestamps in its fixed form, exactly what
/// printf's "%.3f" would print, and counter values in its shortest form,
/// which reads back as the same double.
class ChromeWriter {
 public:
  explicit ChromeWriter(std::ostream& os) : os_(os) { os_ << kHeader << '\n'; }
  void finish() {
    flush();
    os_ << '\n' << kFooter << '\n';
  }

  void track(const TrackView& t) {
    if (t.events.empty()) return;
    head('M', t);
    put(R"(,"name":"process_name","args":{"name":)", Str{t.process}, "}}");
    head('M', t);
    put(R"(,"name":"thread_name","args":{"name":)",
        Str{t.label + " (dropped " + std::to_string(t.dropped) + ")"}, "}}");
    int depth = 0;
    std::uint64_t last_ts = 0;
    for (const EventView& e : t.events) {
      if (e.ph == 'E') {
        if (depth == 0) continue;  // unmatched end: drop
        --depth;
      } else if (e.ph == 'B') {
        ++depth;
      }
      last_ts = std::max(last_ts, e.ts_ns);
      event(t, e);
    }
    EventView closer;
    closer.ph = 'E';
    closer.ts_ns = last_ts;
    for (; depth > 0; --depth) event(t, closer);
  }

 private:
  struct Str {  // a quoted, escaped JSON string
    std::string_view s;
  };
  struct Micros {  // nanoseconds printed as microseconds, "%.3f"
    std::uint64_t ns;
  };
  struct Hex {
    std::uint64_t v;
  };

  template <class T, class... Format>
  void number(T v, Format... format) {
    char buf[64];
    line_.append(buf, std::to_chars(buf, buf + sizeof buf, v, format...).ptr);
  }
  void add(std::string_view s) { line_ += s; }
  void add(char c) { line_ += c; }
  void add(Str s) {
    line_ += '"';
    json::write_escaped(line_, s.s);
    line_ += '"';
  }
  void add(Micros t) {
    number(static_cast<double>(t.ns) / 1000.0, std::chars_format::fixed, 3);
  }
  void add(Hex h) { number(h.v, 16); }
  void add(double v) { number(v); }
  template <class T>
    requires std::is_integral_v<T>
  void add(T v) {
    number(v);
  }
  template <class... A>
  void put(const A&... a) {
    (add(a), ...);
  }

  void flush() {
    os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    line_.clear();
  }
  /// Writes out the previous line and starts the next event's.
  void head(char ph, const TrackView& t) {
    flush();
    // "bp":"e" binds a flow finish to the enclosing slice rather than the
    // next one, so Perfetto draws the arrow into the recv/wait span.
    put(first_ ? "" : ",\n", R"({"ph":")", ph,
        ph == 'f' ? R"(","bp":"e")" : "\"", R"(,"pid":)", t.rank,
        R"(,"tid":)", t.tid);
    first_ = false;
  }
  void event(const TrackView& t, const EventView& e) {
    const bool flow = e.ph == 's' || e.ph == 'f';
    head(e.ph, t);
    put(R"(,"ts":)", Micros{e.ts_ns});
    if (e.ph == 'B' || flow) put(R"(,"cat":)", Str{to_string(e.cat)});
    if (e.ph != 'E') put(R"(,"name":)", Str{e.name});
    if (e.ph == 'B' && e.has_args)
      put(R"(,"args":{"peer":)", e.peer, R"(,"tag":)", e.tag, R"(,"seq":)",
          e.seq, R"(,"bytes":)", e.bytes, '}');
    if (e.ph == 'C') put(R"(,"args":{"value":)", e.value, '}');
    if (flow) put(R"(,"id":"0x)", Hex{e.flow}, '"');
    put('}');
  }

  std::ostream& os_;
  std::string line_;
  bool first_ = true;
};

// --- Reading -----------------------------------------------------------------

using Kind = json::Value::Kind;

/// Member `key` of `o`, which must be present and of kind `kind`.
const json::Value& member(const json::Value& o, std::string_view key,
                          Kind kind = Kind::Str) {
  const json::Value* m = o.find(key);
  if (m == nullptr || m->kind != kind)
    throw Error("missing or mistyped \"" + std::string(key) + "\"");
  return *m;
}

template <class T>
T integer(const json::Value& o, std::string_view key) {
  return json::read<T>(member(o, key, Kind::Num));
}

Cat cat_of(const std::string& s) {
  for (int c = 0; c <= static_cast<int>(Cat::Fault); ++c)
    if (s == to_string(static_cast<Cat>(c))) return static_cast<Cat>(c);
  throw Error("unknown cat \"" + s + "\"");
}

/// Whether [first, last) is exactly one in-range unsigned number.
bool parse_u64(const char* first, const char* last, std::uint64_t& x,
               int base = 10) {
  const auto [end, ec] = std::from_chars(first, last, x, base);
  return ec == std::errc() && end == last;
}

std::uint64_t flow_of(const std::string& id) {
  std::uint64_t x = 0;
  if (id.compare(0, 2, "0x") != 0 ||
      !parse_u64(id.data() + 2, id.data() + id.size(), x, 16))
    throw Error("bad flow id \"" + id + "\"");
  return x;
}

/// Splits a thread_name "label (dropped N)" into the track; a name
/// without the suffix is all label.
void set_thread_name(TrackView& t, const std::string& name) {
  const std::size_t at = name.rfind(" (dropped ");
  std::uint64_t n = 0;
  const bool suffix = at != std::string::npos && name.back() == ')' &&
                      parse_u64(&name[at + 10], &name.back(), n);
  t.label = suffix ? name.substr(0, at) : name;
  t.dropped = suffix ? n : 0;
}

/// Adds one parsed event line to its (pid, tid) track; `index` maps each
/// key to its position in `tracks`, which keeps first-seen order.
void read_event(const json::Value& v, std::vector<TrackView>& tracks,
                std::map<std::pair<int, int>, std::size_t>& index) {
  const std::string& ph = member(v, "ph").str;
  if (ph.size() != 1 || std::string_view("MBECsf").find(ph[0]) ==
                            std::string_view::npos)
    throw Error("unknown ph \"" + ph + "\"");
  const int pid = integer<int>(v, "pid");
  const int tid = integer<int>(v, "tid");
  const auto [at, fresh] = index.try_emplace({pid, tid}, tracks.size());
  if (fresh) tracks.push_back({pid, tid, "", "", 0, {}});
  TrackView& t = tracks[at->second];
  if (ph[0] == 'M') {
    const std::string& what = member(v, "name").str;
    const std::string& name = member(member(v, "args", Kind::Obj), "name").str;
    if (what == "process_name")
      t.process = name;
    else if (what == "thread_name")
      set_thread_name(t, name);
    else
      throw Error("unknown metadata \"" + what + "\"");
    return;
  }
  EventView e;
  e.ph = ph[0];
  const json::Value& ts = member(v, "ts", Kind::Num);
  if (!(ts.num >= 0 && ts.num < 9e15)) throw Error("bad ts " + ts.str);
  e.ts_ns = static_cast<std::uint64_t>(std::llround(ts.num * 1000.0));
  const bool flow = e.ph == 's' || e.ph == 'f';
  if (e.ph != 'E') e.name = member(v, "name").str;
  if (e.ph == 'B' || flow) e.cat = cat_of(member(v, "cat").str);
  if (flow) e.flow = flow_of(member(v, "id").str);
  const json::Value* args = v.find("args");
  if (e.ph == 'C') {
    e.cat = Cat::App;  // counter() records on the App category
    e.value = member(member(v, "args", Kind::Obj), "value", Kind::Num).num;
  } else if (e.ph == 'B' && args != nullptr) {
    e.has_args = true;
    e.peer = integer<int>(*args, "peer");
    e.tag = integer<int>(*args, "tag");
    e.seq = integer<long long>(*args, "seq");
    e.bytes = integer<unsigned long long>(*args, "bytes");
  }
  t.events.push_back(std::move(e));
}

/// read_chrome_json with errors located as `where` + line number.
std::vector<TrackView> read_trace(std::istream& is, const std::string& where) {
  std::vector<TrackView> tracks;
  std::map<std::pair<int, int>, std::size_t> index;
  std::size_t n = 1;
  std::string line;
  try {
    if (!std::getline(is, line) || line != kHeader)
      throw Error("expected the trace header " + std::string(kHeader));
    bool closed = false;
    char prev = '[';  // how the previous line ended: header '[', ',' or '}'
    while (std::getline(is, line)) {
      ++n;
      if (line.empty()) continue;
      if (closed) throw Error("content after the closing ]}");
      if (line == kFooter) {
        if (prev == ',') throw Error("',' after the last event");
        closed = true;
        continue;
      }
      if (prev == '}') throw Error("missing ',' after the previous event");
      prev = line.back() == ',' ? ',' : '}';
      if (prev == ',') line.pop_back();
      read_event(json::parse(line), tracks, index);
    }
    if (!closed) throw Error("truncated trace: no closing ]}");
  } catch (const Error& e) {
    throw Error(where + std::to_string(n) + ": " + e.what());
  }
  return tracks;
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
  push('B', c, name, suffix, 0.0);
}

void begin_span_args(Cat c, std::string_view name, std::string_view suffix,
                     const CommArgs& args) {
  Event e;
  e.cat = c;
  e.has_args = true;
  e.peer = args.peer;
  e.tag = args.tag;
  e.seq = args.seq;
  e.bytes = args.bytes;
  push(e, name, suffix);
}

void end_span() { push('E', Cat::Kernel, {}, {}, 0.0); }

void flow_event(bool start, std::uint64_t id) {
  Event e;
  e.ph = start ? 's' : 'f';
  e.cat = Cat::Comm;
  e.flow = id;
  push(e, "msg", {});
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
  push('C', Cat::App, name, {}, value);
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
  for (const auto& b : r.buffers)
    if (!b->events.empty()) out.push_back(decode(*b, epoch));
  return out;
}

void write_chrome_json(std::ostream& os, const std::vector<TrackView>& tracks) {
  ChromeWriter w(os);
  for (const TrackView& t : tracks) w.track(t);
  w.finish();
}

void write_chrome_json(std::ostream& os) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const std::uint64_t epoch = r.epoch_ns.load(std::memory_order_relaxed);
  ChromeWriter w(os);
  for (const auto& b : r.buffers)
    if (!b->events.empty()) w.track(decode(*b, epoch));
  w.finish();
}

std::vector<TrackView> read_chrome_json(std::istream& is) {
  return read_trace(is, "line ");
}

std::vector<TrackView> read_chrome_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw Error("cannot open trace '" + path + "'");
  return read_trace(is, path + ":");
}

void write_chrome_json_file(const std::string& path) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open trace output file '" << path << "'");
  write_chrome_json(os);
  BWLAB_REQUIRE(os.good(), "failed writing trace to '" << path << "'");
}

}  // namespace bwlab::trace
