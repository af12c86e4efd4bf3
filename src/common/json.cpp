#include "common/json.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace bwlab::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string text) : s_(std::move(text)) {}

  Value run() {
    Value v = value();
    skip_ws();
    BWLAB_REQUIRE(pos_ == s_.size(), "trailing characters in JSON input");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }
  char peek() {
    skip_ws();
    BWLAB_REQUIRE(pos_ < s_.size(), "unexpected end of JSON input");
    return s_[pos_];
  }
  void expect(char c) {
    BWLAB_REQUIRE(peek() == c,
                  "expected '" << c << "' at JSON offset " << pos_);
    ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::Str;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n' && s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return {};
    }
    return number();
  }

  void literal(const std::string& word) {
    BWLAB_REQUIRE(s_.compare(pos_, word.size(), word) == 0,
                  "bad JSON literal at offset " << pos_);
    pos_ += word.size();
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
    }
    return v;
  }

  Value number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == 'i' ||
            s_[pos_] == 'n' || s_[pos_] == 'f' || s_[pos_] == 'a'))
      ++pos_;  // accepts inf/nan spellings some writers emit
    BWLAB_REQUIRE(pos_ > start, "bad JSON number at offset " << start);
    Value v;
    v.kind = Value::Kind::Num;
    v.str = s_.substr(start, pos_ - start);
    try {
      v.num = std::stod(v.str);
    } catch (const std::exception&) {
      BWLAB_REQUIRE(false, "bad JSON number at offset " << start);
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      BWLAB_REQUIRE(pos_ < s_.size(), "unterminated JSON string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        BWLAB_REQUIRE(pos_ < s_.size(), "unterminated JSON escape");
        out.push_back(s_[pos_++]);
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Arr;
    if (consume(']')) return v;
    while (true) {
      v.arr.push_back(value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Obj;
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = string();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      if (consume('}')) return v;
      expect(',');
    }
  }

  std::string s_;
  std::size_t pos_ = 0;
};

bool is_scalar(const Value& v) {
  return v.kind != Value::Kind::Arr && v.kind != Value::Kind::Obj;
}

bool all_scalar(const Value& v) {
  for (const Value& e : v.arr)
    if (!is_scalar(e)) return false;
  for (const auto& [k, e] : v.obj)
    if (!is_scalar(e)) return false;
  return true;
}

bool one_line(const Value& v) {
  if (v.kind == Value::Kind::Arr) return all_scalar(v);
  for (const auto& [k, e] : v.obj)
    if (!is_scalar(e) && !all_scalar(e)) return false;
  return true;
}

/// Prints `v` whose first line is already indented `depth` levels.
void print(std::ostream& os, const Value& v, std::size_t depth) {
  switch (v.kind) {
    case Value::Kind::Null:
      os << "null";
      return;
    case Value::Kind::Bool:
      os << (v.b ? "true" : "false");
      return;
    case Value::Kind::Num:
      os << v.str;
      return;
    case Value::Kind::Str:
      os << '"';
      write_escaped(os, v.str);
      os << '"';
      return;
    case Value::Kind::Arr:
    case Value::Kind::Obj:
      break;
  }
  const bool arr = v.kind == Value::Kind::Arr;
  const std::size_t n = arr ? v.arr.size() : v.obj.size();
  const bool inline_members = one_line(v);
  const std::string pad(2 * depth + 2, ' ');
  os << (arr ? '[' : '{');
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) os << ',';
    if (!inline_members)
      os << '\n' << pad;
    else if (i > 0)
      os << ' ';
    if (!arr) {
      os << '"';
      write_escaped(os, v.obj[i].first);
      os << "\": ";
    }
    print(os, arr ? v.arr[i] : v.obj[i].second, depth + 1);
  }
  if (!inline_members && n > 0)
    os << '\n' << std::string(2 * depth, ' ');
  os << (arr ? ']' : '}');
}

}  // namespace

void write_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\')
      out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? '_' : c;
  }
}

void write_escaped(std::ostream& os, std::string_view s) {
  std::string out;
  write_escaped(out, s);
  os << out;
}

Value parse(const std::string& text) { return Parser(text).run(); }

Value parse(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse(ss.str());
}

void write(std::ostream& os, const Value& v) { print(os, v, 0); }

}  // namespace bwlab::json
