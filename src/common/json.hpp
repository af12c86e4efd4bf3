// The repo's one JSON codec: a value model + recursive-descent parser,
// one layout-by-structure printer, and the field-list visitors every
// report section goes through.
//
// A serializable struct lists its keys once, next to the struct, as
//
//   template <class Io> void fields(Io& io, Loop& l) {
//     io("name", l.name);
//     io("calls", l.calls);
//   }
//
// json::Writer walks that list to build a Value, json::Reader walks the
// same list to fill the struct back in. Members may be bools, numbers,
// strings, enums (written through their to_string), std::vector (an
// array; a vector of (string, T) pairs is an object in that order),
// std::map<std::string, T> (an object in key order), std::optional (the
// key is omitted when empty), json::Value (passed through unchanged) and
// other structs with a fields list. A key whose JSON shape differs from
// its member goes through io.custom(key, to_proxy, from_proxy[, required]):
// the proxy is any of the above.
//
// The reader is tolerant: a missing member reads as a zero value and a
// scalar of the wrong kind reads as 0 / "" / false, while malformed text,
// a struct given a non-object, an integer out of its member's range and a
// missing json::required member throw bwlab::Error. Numbers are written
// with the stream's default formatting (6 significant digits for doubles)
// and keep their text through parse(), so write -> parse -> write is
// bitwise.
#pragma once

#include <cmath>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace bwlab::json {

struct Value {
  enum class Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0;
  /// String body; for a number, its text as written or parsed.
  std::string str;
  std::vector<Value> arr;
  /// Insertion (= document) order preserved.
  std::vector<std::pair<std::string, Value>> obj;

  /// Member lookup (objects only); nullptr when absent.
  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
  /// Same kind, text, elements and members (numbers compare by text).
  bool operator==(const Value& o) const {
    return kind == o.kind && b == o.b && str == o.str && arr == o.arr &&
           obj == o.obj;
  }
};

/// Writes `s` as the body of a JSON string: '"' and '\\' are
/// backslash-escaped and control characters become '_', so every name
/// the repo's writers emit reads back through parse() unchanged.
void write_escaped(std::ostream& os, std::string_view s);
/// write_escaped appending to `out`.
void write_escaped(std::string& out, std::string_view s);

/// Parses one JSON document (trailing content is an error).
Value parse(const std::string& text);
Value parse(std::istream& is);

/// Prints `v` with the one layout rule: an array prints on one line when
/// its elements are all scalars, an object when each member is a scalar
/// or a container of scalars; every other container prints one member
/// per line, two spaces deeper. No trailing newline.
void write(std::ostream& os, const Value& v);

/// Tag for a member the reader must find: io("loops", r.loops, required).
struct Required {};
inline constexpr Required required{};

template <class T>
Value to_value(const T& v);
template <class T>
void from_value(const Value& v, T& out);

namespace detail {

template <class T, template <class...> class Tmpl>
inline constexpr bool is_a = false;
template <template <class...> class Tmpl, class... A>
inline constexpr bool is_a<Tmpl<A...>, Tmpl> = true;

/// std::vector<std::pair<std::string, T>>: an object in vector order.
template <class T>
inline constexpr bool is_members = false;
template <class T>
inline constexpr bool is_members<std::vector<std::pair<std::string, T>>> =
    true;

inline const Value& null_value() {
  static const Value v;
  return v;
}

}  // namespace detail

/// Builds the object of one struct from its fields list.
class Writer {
 public:
  Writer() { out.kind = Value::Kind::Obj; }

  template <class T>
  void operator()(std::string_view key, const T& v, Required = {}) {
    if constexpr (detail::is_a<T, std::optional>) {
      if (v) (*this)(key, *v);
    } else {
      out.obj.emplace_back(std::string(key), to_value(v));
    }
  }
  template <class To, class From, class... Req>
  void custom(std::string_view key, To to, From /*from*/, Req...) {
    (*this)(key, to());
  }

  Value out;
};

/// Fills one struct from an object by its fields list.
class Reader {
 public:
  explicit Reader(const Value& in) : in_(in) {}

  template <class T>
  void operator()(std::string_view key, T& v) {
    read(in_.find(key), v);
  }
  template <class T>
  void operator()(std::string_view key, T& v, Required) {
    const Value* m = in_.find(key);
    BWLAB_REQUIRE(m != nullptr, "JSON object has no \"" << key << "\" member");
    read(m, v);
  }
  template <class To, class From, class... Req>
  void custom(std::string_view key, To /*to*/, From from, Req... req) {
    std::invoke_result_t<To&> proxy{};
    (*this)(key, proxy, req...);
    from(proxy);
  }

 private:
  template <class T>
  static void read(const Value* m, T& v) {
    if constexpr (detail::is_a<T, std::optional>) {
      if (m != nullptr)
        from_value(*m, v.emplace());
      else
        v.reset();
    } else {
      from_value(m != nullptr ? *m : detail::null_value(), v);
    }
  }

  const Value& in_;
};

template <class T>
Value to_value(const T& v) {
  Value out;
  if constexpr (std::is_same_v<T, Value>) {
    out = v;
  } else if constexpr (std::is_same_v<T, bool>) {
    out.kind = Value::Kind::Bool;
    out.b = v;
  } else if constexpr (std::is_arithmetic_v<T>) {
    out.kind = Value::Kind::Num;
    out.num = static_cast<double>(v);
    std::ostringstream text;  // default stream formatting
    text << v;
    out.str = text.str();
  } else if constexpr (std::is_enum_v<T>) {
    out = to_value(std::string_view(to_string(v)));
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.kind = Value::Kind::Str;
    out.str = std::string_view(v);
  } else if constexpr (detail::is_members<T> || detail::is_a<T, std::map>) {
    out.kind = Value::Kind::Obj;
    for (const auto& [k, e] : v) out.obj.emplace_back(k, to_value(e));
  } else if constexpr (detail::is_a<T, std::vector>) {
    out.kind = Value::Kind::Arr;
    for (const auto& e : v) out.arr.push_back(to_value(e));
  } else {
    // The fields list is shared with the reader, hence non-const; the
    // writer only reads through it.
    Writer w;
    fields(w, const_cast<T&>(v));
    out = std::move(w.out);
  }
  return out;
}

template <class T>
void from_value(const Value& v, T& out) {
  using Kind = Value::Kind;
  if constexpr (std::is_same_v<T, Value>) {
    out = v;
  } else if constexpr (std::is_same_v<T, bool>) {
    out = v.b;
  } else if constexpr (std::is_integral_v<T>) {
    // Out-of-range (or nan) input would make the conversion undefined.
    const double lim = std::ldexp(1.0, std::numeric_limits<T>::digits);
    BWLAB_REQUIRE(v.num < lim && v.num >= (std::is_signed_v<T> ? -lim : 0.0),
                  "JSON number " << v.str << " out of range");
    out = static_cast<T>(v.num);
  } else if constexpr (std::is_floating_point_v<T>) {
    out = static_cast<T>(v.num);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = v.kind == Kind::Str ? v.str : std::string();
  } else if constexpr (detail::is_members<T>) {
    out.clear();
    for (const auto& [k, e] : v.obj) {
      out.emplace_back(k, typename T::value_type::second_type{});
      from_value(e, out.back().second);
    }
  } else if constexpr (detail::is_a<T, std::map>) {
    out.clear();
    for (const auto& [k, e] : v.obj) from_value(e, out[k]);
  } else if constexpr (detail::is_a<T, std::vector>) {
    out.clear();
    for (const Value& e : v.arr) from_value(e, out.emplace_back());
  } else {
    BWLAB_REQUIRE(v.kind == Kind::Obj || v.kind == Kind::Null,
                  "expected a JSON object");
    out = T{};
    Reader r(v);
    fields(r, out);
  }
}

/// Prints `v` (a Value or any type to_value accepts).
template <class T>
void write(std::ostream& os, const T& v) {
  write(os, to_value(v));
}

/// Reads a T from a parsed value.
template <class T>
T read(const Value& v) {
  T out{};
  from_value(v, out);
  return out;
}

}  // namespace bwlab::json
