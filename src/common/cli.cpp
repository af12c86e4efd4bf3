#include "common/cli.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace bwlab {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos)
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    else
      options_[arg] = "";  // bare flag
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = options_.find(name);
  return it == options_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

long long Cli::get_int(const std::string& name, long long fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long long x = std::strtoll(v->c_str(), &end, 10);
  BWLAB_REQUIRE(end != v->c_str() && *end == '\0',
                "--" << name << " expects an integer, got '" << *v << "'");
  return x;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  BWLAB_REQUIRE(end != v->c_str() && *end == '\0',
                "--" << name << " expects a number, got '" << *v << "'");
  return x;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  if (v->empty() || *v == "true" || *v == "1" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "off") return false;
  BWLAB_REQUIRE(false,
                "--" << name << " expects a boolean, got '" << *v << "'");
  return fallback;  // unreachable
}

void Cli::reject_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : options_)
    if (read_.count(name) == 0)
      unknown += (unknown.empty() ? "--" : ", --") + name;
  if (!unknown.empty()) throw Error("unknown option " + unknown);
}

ObservabilityFlags observability_flags(const Cli& cli) {
  ObservabilityFlags f;
  f.trace_path = cli.get("trace", "");
  f.metrics_path = cli.get("metrics", "");
  f.report_path = cli.get("report", "");
  f.causal = cli.get_bool("causal", false);
  BWLAB_REQUIRE(!cli.has("trace") || !f.trace_path.empty(),
                "--trace requires a file path (--trace=FILE)");
  BWLAB_REQUIRE(!cli.has("metrics") || !f.metrics_path.empty(),
                "--metrics requires a file path (--metrics=FILE)");
  BWLAB_REQUIRE(!cli.has("report") || !f.report_path.empty(),
                "--report requires a file path (--report=FILE)");
  return f;
}

}  // namespace bwlab
