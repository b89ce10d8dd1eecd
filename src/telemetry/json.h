// Minimal zero-dependency JSON value model, serializer, and parser.
//
// Backbone of the telemetry exporters: metric snapshots, JSONL trace events,
// experiment results, and the BENCH_*.json perf trajectory all go through
// this one representation, and tests parse the emitted text back to verify
// round-trips. Objects preserve insertion order so emitted documents are
// deterministic and diffable. Integers are kept distinct from doubles so
// 64-bit counters survive a round-trip exactly.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace asimt::json {

class Value;

using Array = std::vector<Value>;
// Insertion-ordered; lookup is linear (telemetry objects are small).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}
  Value(int i) : type_(Type::kInt), int_(i) {}
  Value(unsigned i) : type_(Type::kInt), int_(i) {}
  Value(long i) : type_(Type::kInt), int_(i) {}
  Value(unsigned long i) : type_(Type::kInt), int_(static_cast<long long>(i)) {}
  Value(long long i) : type_(Type::kInt), int_(i) {}
  Value(unsigned long long i) : type_(Type::kInt), int_(static_cast<long long>(i)) {}
  Value(double d) : type_(Type::kDouble), double_(d) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Value(std::string_view s) : type_(Type::kString), string_(s) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { expect(Type::kBool); return bool_; }
  long long as_int() const {
    if (type_ == Type::kDouble) return static_cast<long long>(double_);
    expect(Type::kInt);
    return int_;
  }
  double as_double() const {
    if (type_ == Type::kInt) return static_cast<double>(int_);
    expect(Type::kDouble);
    return double_;
  }
  const std::string& as_string() const { expect(Type::kString); return string_; }
  const Array& as_array() const { expect(Type::kArray); return array_; }
  Array& as_array() { expect(Type::kArray); return array_; }
  const Object& as_object() const { expect(Type::kObject); return object_; }
  Object& as_object() { expect(Type::kObject); return object_; }

  // Array append.
  void push_back(Value v) { as_array().push_back(std::move(v)); }

  // Object member set (replaces an existing key) and lookup.
  void set(std::string_view key, Value v);
  // Pointer to the member, or nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  // Member access that throws on a missing key — for tests and readers that
  // treat absence as corruption.
  const Value& at(std::string_view key) const;

  // Serializes to compact JSON (indent < 0) or pretty-printed with the given
  // indent width.
  std::string dump(int indent = -1) const;

  bool operator==(const Value& other) const;

 private:
  void expect(Type t) const {
    if (type_ != t) throw std::runtime_error("json: wrong value type");
  }

  Type type_;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Arrays and objects nested deeper than this are a ParseError, so no input
// can exhaust the parser's stack.
inline constexpr int kMaxParseDepth = 512;

// Parses one JSON document; throws ParseError on malformed input, trailing
// garbage, nesting deeper than kMaxParseDepth, or a \u escape of an
// unpaired UTF-16 surrogate.
Value parse(std::string_view text);

// Parses a JSON-Lines document: one JSON value per non-empty line.
std::vector<Value> parse_lines(std::string_view text);

// Escapes `s` as the *inside* of a JSON string literal (no quotes added).
std::string escape(std::string_view s);

}  // namespace asimt::json
