// Minimal JSON value model + recursive-descent parser + writer.
//
// Used by the NPD (Network Product Definition) format and plan export.
// Scope: RFC 8259 subset sufficient for NPD — objects, arrays, strings with
// escape sequences (incl. \uXXXX for BMP code points), numbers, booleans,
// null. Object key order is preserved to keep serialized NPD files diffable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace klotski::json {

class Value;

/// Object preserving insertion order: vector of (key, value) plus an index.
class Object {
 public:
  Value& operator[](const std::string& key);
  const Value* find(const std::string& key) const;
  Value* find(const std::string& key);
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }
  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }

 private:
  std::vector<std::pair<std::string, Value>> items_;
};

using Array = std::vector<Value>;

/// Thrown on parse errors and wrong-type accesses.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Value() : data_(std::monostate{}) {}
  Value(std::nullptr_t) : data_(std::monostate{}) {}
  Value(bool b) : data_(b) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::size_t i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const {
    return type() == Type::kInt || type() == Type::kDouble;
  }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw JsonError on mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;   // accepts integral doubles in int64 range
  /// as_int() checked against [min, max]: throws JsonError naming `field`
  /// and the range when the integer lies outside it. Untrusted documents
  /// narrow integers through this, never through a bare cast.
  std::int64_t as_int_in(const std::string& field, std::int64_t min,
                         std::int64_t max) const;
  double as_double() const;      // accepts ints
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field access with a JSON-pointer-ish error message.
  const Value& at(const std::string& key) const;
  /// Optional lookups returning a fallback on missing key.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int() with the range check of as_int_in(); the error names `key`.
  std::int64_t get_int_in(const std::string& key, std::int64_t fallback,
                          std::int64_t min, std::int64_t max) const;
  /// get_int_in() over [0, INT_MAX], narrowed to int: a count field. A bare
  /// cast would wrap 2^32 + 3 to 3.
  int get_count(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  bool operator==(const Value& other) const;

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Array,
               Object>
      data_;
};

/// Parses a complete JSON document; trailing non-space input is an error,
/// and so is array/object nesting deeper than 512 levels.
Value parse(std::string_view text);

/// Serializes. indent < 0 => compact single line; otherwise pretty-printed.
std::string dump(const Value& value, int indent = -1);

namespace detail {
/// Appends `s` as a quoted JSON string with the writer's escaping rules
/// (shared by dump() and canonical_dump() so the two forms never disagree
/// on string bytes).
void append_escaped_string(std::string_view s, std::string& out);
}  // namespace detail

}  // namespace klotski::json
