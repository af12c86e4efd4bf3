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
    try {
      v.num = std::stod(s_.substr(start, pos_ - start));
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

const Value& empty_value(Value::Kind kind) {
  static const Value obj = [] {
    Value v;
    v.kind = Value::Kind::Obj;
    return v;
  }();
  static const Value arr = [] {
    Value v;
    v.kind = Value::Kind::Arr;
    return v;
  }();
  return kind == Value::Kind::Obj ? obj : arr;
}

}  // namespace

void write_escaped(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\')
      os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << '_';
    else
      os << c;
  }
}

Value parse(const std::string& text) { return Parser(text).run(); }

Value parse(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse(ss.str());
}

count_t count_field(const Value& o, const std::string& key) {
  const Value* v = o.find(key);
  return v != nullptr ? v->as_count() : 0;
}

double num_field(const Value& o, const std::string& key) {
  const Value* v = o.find(key);
  return v != nullptr ? v->num : 0;
}

std::string str_field(const Value& o, const std::string& key) {
  const Value* v = o.find(key);
  return v != nullptr ? v->str : std::string();
}

bool bool_field(const Value& o, const std::string& key) {
  const Value* v = o.find(key);
  return v != nullptr && v->b;
}

const Value& obj_field(const Value& o, const std::string& key) {
  const Value* v = o.find(key);
  return v != nullptr && v->kind == Value::Kind::Obj
             ? *v
             : empty_value(Value::Kind::Obj);
}

const Value& arr_field(const Value& o, const std::string& key) {
  const Value* v = o.find(key);
  return v != nullptr && v->kind == Value::Kind::Arr
             ? *v
             : empty_value(Value::Kind::Arr);
}

}  // namespace bwlab::json
