#include "klotski/json/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace klotski::json {

// ---------------------------------------------------------------------------
// Object

Value& Object::operator[](const std::string& key) {
  if (Value* existing = find(key)) return *existing;
  items_.emplace_back(key, Value());
  return items_.back().second;
}

const Value* Object::find(const std::string& key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Object::find(const std::string& key) {
  for (auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Value

Value::Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kBool;
    case 2: return Type::kInt;
    case 3: return Type::kDouble;
    case 4: return Type::kString;
    case 5: return Type::kArray;
    default: return Type::kObject;
  }
}

namespace {
[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null",   "bool",  "int",   "double",
                                "string", "array", "object"};
  throw JsonError(std::string("json: expected ") + want + ", got " +
                  names[static_cast<int>(got)]);
}
}  // namespace

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool", type());
}

std::int64_t Value::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (const auto* d = std::get_if<double>(&data_)) {
    // [-2^63, 2^63): the doubles whose int64 conversion is defined.
    if (std::floor(*d) == *d && *d >= -0x1p63 && *d < 0x1p63) {
      return static_cast<std::int64_t>(*d);
    }
  }
  type_error("int", type());
}

std::int64_t Value::as_int_in(const std::string& field, std::int64_t min,
                              std::int64_t max) const {
  const std::int64_t v = as_int();
  if (v < min || v > max) {
    throw JsonError("json: " + field + " = " + std::to_string(v) +
                    " is outside [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]");
  }
  return v;
}

double Value::as_double() const {
  if (const auto* d = std::get_if<double>(&data_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*i);
  }
  type_error("number", type());
}

const std::string& Value::as_string() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", type());
}

const Array& Value::as_array() const {
  if (const auto* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

const Object& Value::as_object() const {
  if (const auto* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

const Value& Value::at(const std::string& key) const {
  const Value* v = as_object().find(key);
  if (v == nullptr) throw JsonError("json: missing key '" + key + "'");
  return *v;
}

std::int64_t Value::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const Value* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_int();
}

std::int64_t Value::get_int_in(const std::string& key, std::int64_t fallback,
                               std::int64_t min, std::int64_t max) const {
  const Value* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_int_in(key, min, max);
}

int Value::get_count(const std::string& key, int fallback) const {
  return static_cast<int>(
      get_int_in(key, fallback, 0, std::numeric_limits<int>::max()));
}

double Value::get_double(const std::string& key, double fallback) const {
  const Value* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_double();
}

std::string Value::get_string(const std::string& key,
                              const std::string& fallback) const {
  const Value* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_string();
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  const Value* v = as_object().find(key);
  return v == nullptr ? fallback : v->as_bool();
}

bool Value::operator==(const Value& other) const {
  if (type() != other.type()) {
    // int/double cross-comparison for numeric equality.
    if (is_number() && other.is_number()) {
      return as_double() == other.as_double();
    }
    return false;
  }
  switch (type()) {
    case Type::kNull: return true;
    case Type::kBool: return as_bool() == other.as_bool();
    case Type::kInt: return as_int() == other.as_int();
    case Type::kDouble: return as_double() == other.as_double();
    case Type::kString: return as_string() == other.as_string();
    case Type::kArray: {
      const Array& a = as_array();
      const Array& b = other.as_array();
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i])) return false;
      }
      return true;
    }
    case Type::kObject: {
      const Object& a = as_object();
      const Object& b = other.as_object();
      if (a.size() != b.size()) return false;
      for (const auto& [k, v] : a) {
        const Value* bv = b.find(k);
        if (bv == nullptr || !(v == *bv)) return false;
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

// Deepest array/object nesting parse() accepts. The parser recurses once per
// level and reads untrusted socket requests, so deeper input must fail with
// a parse error instead of overflowing the stack; real documents (NPD, plans,
// checkpoints) nest fewer than 10 levels.
constexpr int kMaxDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    // Report 1-based line/column for readable NPD diagnostics.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("json parse error at line " + std::to_string(line) +
                    ", column " + std::to_string(column) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
        ++depth_;
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj[key] = parse_value();
      skip_whitespace();
      const char next = advance();
      if (next == '}') return Value(std::move(obj));
      if (next != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char next = advance();
      if (next == ']') return Value(std::move(arr));
      if (next != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned cp = parse_hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00..\uDFFF; the
              // pair encodes one astral code point (RFC 8259 §7).
              if (advance() != '\\' || advance() != 'u') {
                fail("high surrogate not followed by \\u escape");
              }
              const unsigned lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) {
                fail("high surrogate not followed by low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              fail("lone low surrogate in \\u escape");
            }
            append_utf8(cp, out);
            break;
          }
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '+'/'-' only valid inside exponents, but strtod rejects bad forms.
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    // std::from_chars is locale-independent; strtod/strtoll honor
    // LC_NUMERIC and would mis-parse "1.5" under a comma-decimal locale.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(first, last, v);
      if (ec == std::errc() && ptr == last) return Value(v);
    }
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || ptr != last) fail("invalid number");
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around pos_
};

namespace {

/// Appends "\uXXXX" for `unit` (a UTF-16 code unit) to `out`.
void append_u16_escape(unsigned unit, std::string& out) {
  char buffer[8];
  std::snprintf(buffer, sizeof(buffer), "\\u%04x", unit);
  out += buffer;
}

}  // namespace
}  // namespace

namespace detail {

void append_escaped_string(std::string_view s, std::string& out) {
  out.push_back('"');
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const unsigned char uc = static_cast<unsigned char>(c);
        if (uc < 0x20) {
          append_u16_escape(uc, out);
          break;
        }
        // Astral code points (4-byte UTF-8) are escaped as a UTF-16
        // surrogate pair, which keeps the serialized form ASCII-safe and
        // parses back to the identical 4-byte sequence. BMP sequences
        // pass through verbatim.
        if (uc >= 0xF0 && uc <= 0xF4 && i + 3 < s.size()) {
          const unsigned char b1 = static_cast<unsigned char>(s[i + 1]);
          const unsigned char b2 = static_cast<unsigned char>(s[i + 2]);
          const unsigned char b3 = static_cast<unsigned char>(s[i + 3]);
          if ((b1 & 0xC0) == 0x80 && (b2 & 0xC0) == 0x80 &&
              (b3 & 0xC0) == 0x80) {
            const unsigned cp = ((uc & 0x07u) << 18) | ((b1 & 0x3Fu) << 12) |
                                ((b2 & 0x3Fu) << 6) | (b3 & 0x3Fu);
            if (cp >= 0x10000 && cp <= 0x10FFFF) {
              append_u16_escape(0xD800 + ((cp - 0x10000) >> 10), out);
              append_u16_escape(0xDC00 + ((cp - 0x10000) & 0x3FF), out);
              i += 3;
              break;
            }
          }
        }
        out.push_back(c);
      }
    }
  }
  out.push_back('"');
}

}  // namespace detail

namespace {

void dump_string(const std::string& s, std::string& out) {
  detail::append_escaped_string(s, out);
}

void dump_value(const Value& v, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };

  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::kInt:
      out += std::to_string(v.as_int());
      break;
    case Value::Type::kDouble: {
      // Shortest round-trip form, locale-independent ("." regardless of
      // LC_NUMERIC, unlike %.17g).
      char buffer[32];
      const auto [ptr, ec] =
          std::to_chars(buffer, buffer + sizeof(buffer), v.as_double());
      out.append(buffer, static_cast<std::size_t>(ptr - buffer));
      break;
    }
    case Value::Type::kString:
      dump_string(v.as_string(), out);
      break;
    case Value::Type::kArray: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i != 0) out.push_back(',');
        newline(depth + 1);
        dump_value(arr[i], indent, depth + 1, out);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump_string(key, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_value(value, indent, depth + 1, out);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string dump(const Value& value, int indent) {
  std::string out;
  dump_value(value, indent, 0, out);
  return out;
}

}  // namespace klotski::json
