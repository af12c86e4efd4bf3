#include "common/benchjson.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"

// The build's commit id, generated by src/common/git_sha.cmake. A build
// without it (hostbench compiles src/*.cpp on its own) stamps "unknown".
#if __has_include("bwlab_git_sha.h")
#include "bwlab_git_sha.h"
#endif
#ifndef BWLAB_GIT_SHA
#define BWLAB_GIT_SHA "unknown"
#endif

namespace bwlab::benchjson {

const char* to_string(Better b) {
  return b == Better::Lower ? "lower" : "higher";
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Ok: return "ok";
    case Verdict::Improved: return "improved";
    case Verdict::Regressed: return "REGRESSED";
    case Verdict::Missing: return "MISSING";
    case Verdict::New: return "new";
  }
  return "?";
}

double Metric::median() const {
  BWLAB_REQUIRE(!samples.empty(), "metric '" << name << "' has no samples");
  return bwlab::median(samples);
}

double Metric::mad() const {
  BWLAB_REQUIRE(!samples.empty(), "metric '" << name << "' has no samples");
  return bwlab::mad(samples);
}

double Metric::min() const {
  BWLAB_REQUIRE(!samples.empty(), "metric '" << name << "' has no samples");
  double m = samples.front();
  for (double s : samples) m = std::min(m, s);
  return m;
}

double Metric::max() const {
  BWLAB_REQUIRE(!samples.empty(), "metric '" << name << "' has no samples");
  double m = samples.front();
  for (double s : samples) m = std::max(m, s);
  return m;
}

const Metric* Suite::find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

const Suite* ResultFile::find(const std::string& suite_name) const {
  for (const Suite& s : suites)
    if (s.suite == suite_name) return &s;
  return nullptr;
}

std::string git_sha() {
  if (const char* env = std::getenv("BWBENCH_GIT_SHA"); env && *env)
    return env;
  return BWLAB_GIT_SHA;
}

double perturb_factor() {
  const char* env = std::getenv("BWBENCH_PERTURB");
  if (!env || !*env) return 1.0;
  char* end = nullptr;
  const double f = std::strtod(env, &end);
  BWLAB_REQUIRE(end != env && *end == '\0' && f > 0.0,
                "BWBENCH_PERTURB must be a positive number, got '" << env
                                                                  << "'");
  return f;
}

int repetitions(int fallback) {
  const char* env = std::getenv("BWBENCH_REPS");
  if (!env || !*env) return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  BWLAB_REQUIRE(end != env && *end == '\0' && v > 0,
                "BWBENCH_REPS must be a positive integer, got '" << env
                                                                << "'");
  return static_cast<int>(v);
}

// --- Serialization -----------------------------------------------------------
// Each struct lists its keys once; json::Writer and json::Reader walk the
// same lists (common/json.hpp), so every member below is required.

namespace {

/// A sample as JSON: 17 significant digits, so it reads back bitwise; JSON
/// has no inf/nan, so a non-finite sample is null (visible, not a parse
/// error downstream).
json::Value sample_value(double v) {
  json::Value out;
  if (!std::isfinite(v)) return out;
  std::ostringstream text;
  text.precision(17);
  text << v;
  out.kind = json::Value::Kind::Num;
  out.num = v;
  out.str = text.str();
  return out;
}

Better parse_better(const std::string& s) {
  if (s == "lower") return Better::Lower;
  if (s == "higher") return Better::Higher;
  BWLAB_REQUIRE(false, "bench JSON: \"better\" must be lower|higher, got '"
                           << s << "'");
  return Better::Lower;  // unreachable
}

}  // namespace

template <class Io>
void fields(Io& io, Metric& m) {
  io("name", m.name, json::required);
  io("unit", m.unit, json::required);
  io.custom(
      "better", [&m] { return std::string(to_string(m.better)); },
      [&m](const std::string& s) { m.better = parse_better(s); },
      json::required);
  io.custom(
      "samples",
      [&m] {
        std::vector<json::Value> out;
        for (double v : m.samples) out.push_back(sample_value(v));
        return out;
      },
      [&m](const std::vector<json::Value>& in) {
        m.samples.clear();
        for (const json::Value& x : in) {
          BWLAB_REQUIRE(x.kind == json::Value::Kind::Num ||
                            x.kind == json::Value::Kind::Null,
                        "bench JSON: samples must be numbers");
          m.samples.push_back(x.kind == json::Value::Kind::Num ? x.num
                                                               : std::nan(""));
        }
        BWLAB_REQUIRE(!m.samples.empty(), "bench JSON: metric '"
                                              << m.name << "' has no samples");
      },
      json::required);
}

template <class Io>
void fields(Io& io, Suite& s) {
  io("suite", s.suite, json::required);
  io("machine", s.machine, json::required);
  io("metrics", s.metrics, json::required);
}

template <class Io>
void fields(Io& io, ResultFile& f) {
  io.custom(
      "schema_version", [&f] { return f.schema_version; },
      [&f](int v) {
        BWLAB_REQUIRE(v == kSchemaVersion, "bench JSON schema_version "
                                               << v << " is not the supported "
                                               << kSchemaVersion);
        f.schema_version = v;
      },
      json::required);
  io("git_sha", f.git_sha, json::required);
  io("suites", f.suites, json::required);
}

void write(std::ostream& os, const ResultFile& f) {
  json::write(os, f);
  os << '\n';
}

void write_file(const std::string& path, const ResultFile& f) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open bench result file '" << path << "'");
  write(os, f);
  BWLAB_REQUIRE(os.good(), "failed writing bench results to '" << path << "'");
}

ResultFile parse(const std::string& text) {
  return json::read<ResultFile>(json::parse(text));
}

ResultFile read_file(const std::string& path) {
  std::ifstream is(path);
  BWLAB_REQUIRE(is.good(), "cannot read bench result file '" << path << "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  try {
    return parse(buf.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

ResultFile merge(const std::vector<ResultFile>& files) {
  BWLAB_REQUIRE(!files.empty(), "nothing to merge");
  ResultFile out;
  out.git_sha = files.front().git_sha;
  for (const ResultFile& f : files)
    for (const Suite& s : f.suites) {
      BWLAB_REQUIRE(out.find(s.suite) == nullptr,
                    "duplicate suite '" << s.suite << "' while merging");
      out.suites.push_back(s);
    }
  return out;
}

// --- Gate --------------------------------------------------------------------

double parse_threshold(const std::string& s) {
  BWLAB_REQUIRE(!s.empty(), "empty threshold");
  std::string num = s;
  bool percent = false;
  if (num.back() == '%') {
    percent = true;
    num.pop_back();
  }
  char* end = nullptr;
  const double v = std::strtod(num.c_str(), &end);
  BWLAB_REQUIRE(end != num.c_str() && *end == '\0' && v >= 0.0,
                "threshold must be like '10%' or '0.1', got '" << s << "'");
  return percent ? v / 100.0 : v;
}

namespace {

/// [median - k*MAD, median + k*MAD] overlap of baseline and candidate.
bool intervals_overlap(double m1, double d1, double m2, double d2, double k) {
  const double lo1 = m1 - k * d1, hi1 = m1 + k * d1;
  const double lo2 = m2 - k * d2, hi2 = m2 + k * d2;
  return lo1 <= hi2 && lo2 <= hi1;
}

MetricDelta join(const std::string& suite, const Metric& base,
                 const Metric& cand, const GateOptions& opt) {
  MetricDelta d;
  d.suite = suite;
  d.name = base.name;
  d.unit = base.unit;
  d.better = base.better;
  d.base_median = base.median();
  d.base_mad = base.mad();
  d.cand_median = cand.median();
  d.cand_mad = cand.mad();

  const double denom = std::abs(d.base_median);
  const double rel =
      denom > 0 ? (d.cand_median - d.base_median) / denom : 0.0;
  d.worse_change = base.better == Better::Lower ? rel : -rel;

  const bool noisy = intervals_overlap(d.base_median, d.base_mad,
                                       d.cand_median, d.cand_mad, opt.mad_k);
  if (!noisy && d.worse_change > opt.threshold)
    d.verdict = Verdict::Regressed;
  else if (!noisy && d.worse_change < -opt.threshold)
    d.verdict = Verdict::Improved;
  else
    d.verdict = Verdict::Ok;
  return d;
}

}  // namespace

std::vector<std::string> CompareReport::failed_metrics() const {
  std::vector<std::string> out;
  for (const MetricDelta& d : rows)
    if (d.verdict == Verdict::Regressed || d.verdict == Verdict::Missing)
      out.push_back(d.suite + "/" + d.name);
  return out;
}

CompareReport compare(const ResultFile& baseline, const ResultFile& candidate,
                      const GateOptions& opt) {
  CompareReport r;
  for (const Suite& bs : baseline.suites) {
    const Suite* cs = candidate.find(bs.suite);
    for (const Metric& bm : bs.metrics) {
      const Metric* cm = cs ? cs->find(bm.name) : nullptr;
      if (cm == nullptr) {
        MetricDelta d;
        d.suite = bs.suite;
        d.name = bm.name;
        d.unit = bm.unit;
        d.better = bm.better;
        d.base_median = bm.median();
        d.base_mad = bm.mad();
        d.verdict = Verdict::Missing;
        ++r.missing;
        r.rows.push_back(std::move(d));
        continue;
      }
      MetricDelta d = join(bs.suite, bm, *cm, opt);
      if (d.verdict == Verdict::Regressed) ++r.regressions;
      if (d.verdict == Verdict::Improved) ++r.improvements;
      r.rows.push_back(std::move(d));
    }
  }
  for (const Suite& cs : candidate.suites) {
    const Suite* bs = baseline.find(cs.suite);
    for (const Metric& cm : cs.metrics) {
      if (bs != nullptr && bs->find(cm.name) != nullptr) continue;
      MetricDelta d;
      d.suite = cs.suite;
      d.name = cm.name;
      d.unit = cm.unit;
      d.better = cm.better;
      d.cand_median = cm.median();
      d.cand_mad = cm.mad();
      d.verdict = Verdict::New;
      r.rows.push_back(std::move(d));
    }
  }
  return r;
}

Table compare_table(const CompareReport& r) {
  Table t("bwbench baseline vs candidate (median ± MAD)");
  t.set_columns({{"suite/metric", 0},
                 {"unit", 0},
                 {"baseline", 4},
                 {"± MAD", 4},
                 {"candidate", 4},
                 {"± MAD", 4},
                 {"worse %", 1},
                 {"verdict", 0}});
  for (const MetricDelta& d : r.rows) {
    const bool has_base = d.verdict != Verdict::New;
    const bool has_cand = d.verdict != Verdict::Missing;
    t.add_row({d.suite + "/" + d.name, d.unit,
               has_base ? Cell(d.base_median) : Cell(std::monostate{}),
               has_base ? Cell(d.base_mad) : Cell(std::monostate{}),
               has_cand ? Cell(d.cand_median) : Cell(std::monostate{}),
               has_cand ? Cell(d.cand_mad) : Cell(std::monostate{}),
               has_base && has_cand ? Cell(100.0 * d.worse_change)
                                    : Cell(std::monostate{}),
               std::string(to_string(d.verdict))});
  }
  return t;
}

}  // namespace bwlab::benchjson
