// Minimal command-line parser for the bench/ and examples/ executables.
// `--key=value` gives a value; a bare `--flag` is always a flag (the word
// after it stays positional); every other word is positional.
// Every name asked for through has()/get*() is remembered, so a tool can
// reject the flags it never reads (reject_unknown) instead of silently
// ignoring a misspelt or retired option.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace bwlab {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value of `--name`, or `fallback` if absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of `--name`, or `fallback` if absent. Throws on
  /// non-numeric input.
  long long get_int(const std::string& name, long long fallback) const;

  /// Double value of `--name`, or `fallback` if absent.
  double get_double(const std::string& name, double fallback) const;

  /// Boolean: `--name` alone or `--name=true/1/on` is true;
  /// `--name=false/0/off` is false; absent gives `fallback`.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-`--`) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// Throws bwlab::Error naming every `--flag` that was given but never
  /// read through has()/get*(). Call it after reading every option the
  /// program knows and before doing any work.
  void reject_unknown() const;

 private:
  /// The value of `--name`, or nullptr; records `name` as read.
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// Output destinations of the bwtrace observability layer, shared by every
/// executable that accepts `--trace` / `--metrics` / `--report`. Empty
/// path means "don't write".
struct ObservabilityFlags {
  std::string trace_path;    ///< Chrome trace-event JSON (--trace=FILE)
  std::string metrics_path;  ///< MetricsRegistry JSON (--metrics=FILE)
  std::string report_path;   ///< run-summary JSON (--report=FILE)
  bool causal = false;       ///< bwcausal post-run analysis (--causal)

  bool any() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !report_path.empty() || causal;
  }
};

/// Parses the shared observability flags from an already-constructed Cli.
ObservabilityFlags observability_flags(const Cli& cli);

}  // namespace bwlab
