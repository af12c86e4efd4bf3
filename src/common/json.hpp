// Minimal shared JSON value model + recursive-descent parser. Grown out
// of the private reader core/datmove.cpp carried for its round-trip side:
// bwdiff needs to read back EVERY run-report section (trace, causal,
// tiling, attribution, metrics, datmove, resil), so the value parser now
// lives here and the section readers (core/report.cpp, core/datmove.cpp)
// share it. It parses exactly what the repo's writers emit — objects,
// arrays, strings with \" and \\ escapes, numbers (plus the inf/nan
// spellings ostream can produce), true/false/null — and throws
// bwlab::Error on anything malformed. Not a general-purpose JSON library.
// write_escaped is the matching string writer every section uses.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bwlab::json {

struct Value {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Value> arr;
  /// Insertion (= document) order preserved: section readers that
  /// re-serialize rely on it.
  std::vector<std::pair<std::string, Value>> obj;

  /// Member lookup (objects only); nullptr when absent.
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
  count_t as_count() const { return static_cast<count_t>(num); }
};

/// Writes `s` as the body of a JSON string: '"' and '\\' are
/// backslash-escaped and control characters become '_', so every name
/// the repo's writers emit reads back through parse() unchanged.
void write_escaped(std::ostream& os, std::string_view s);

/// Parses one JSON document (trailing content is an error).
Value parse(const std::string& text);
Value parse(std::istream& is);

// --- Field helpers (missing member -> zero value, wrong kind tolerated
// the way the old datmove reader did: num/str of a non-matching kind
// read as 0 / "") --------------------------------------------------------

count_t count_field(const Value& o, const std::string& key);
double num_field(const Value& o, const std::string& key);
std::string str_field(const Value& o, const std::string& key);
bool bool_field(const Value& o, const std::string& key);

/// Missing or non-object/array member reads as an empty value of that
/// kind, so optional sections parse as "absent" instead of throwing.
const Value& obj_field(const Value& o, const std::string& key);
const Value& arr_field(const Value& o, const std::string& key);

}  // namespace bwlab::json
