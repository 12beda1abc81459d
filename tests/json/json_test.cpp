#include <gtest/gtest.h>

#include <clocale>
#include <cstdint>
#include <limits>
#include <string>

#include "klotski/json/json.h"

namespace klotski::json {
namespace {

// ---------------------------------------------------------------------------
// Parsing scalars

TEST(JsonParse, Null) { EXPECT_TRUE(parse("null").is_null()); }

TEST(JsonParse, Booleans) {
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
}

TEST(JsonParse, Integers) {
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_EQ(parse("-17").as_int(), -17);
  EXPECT_EQ(parse("9007199254740993").as_int(), 9007199254740993LL);
}

TEST(JsonParse, Doubles) {
  EXPECT_DOUBLE_EQ(parse("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse("-2.5e3").as_double(), -2500.0);
  EXPECT_DOUBLE_EQ(parse("1e-3").as_double(), 0.001);
}

TEST(JsonParse, IntAcceptedAsDouble) {
  EXPECT_DOUBLE_EQ(parse("7").as_double(), 7.0);
}

TEST(JsonParse, IntegralDoubleAcceptedAsInt) {
  EXPECT_EQ(parse("3.0").as_int(), 3);
}

TEST(JsonParse, Strings) {
  EXPECT_EQ(parse("\"hello\"").as_string(), "hello");
  EXPECT_EQ(parse("\"\"").as_string(), "");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xC3\xA9");      // e-acute
  EXPECT_EQ(parse("\"\\u20ac\"").as_string(), "\xE2\x82\xAC");  // euro sign
}

TEST(JsonParse, SurrogatePairDecodesToOneCodePoint) {
  // U+1F600 GRINNING FACE: \ud83d\ude00 must become the single 4-byte
  // UTF-8 sequence F0 9F 98 80, not two 3-byte surrogate encodings.
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(), "\xF0\x9F\x98\x80");
  // U+10000, the first astral code point.
  EXPECT_EQ(parse("\"\\ud800\\udc00\"").as_string(), "\xF0\x90\x80\x80");
  // U+10FFFF, the last one.
  EXPECT_EQ(parse("\"\\udbff\\udfff\"").as_string(), "\xF4\x8F\xBF\xBF");
  // Uppercase hex digits work too.
  EXPECT_EQ(parse("\"\\uD83D\\uDE00\"").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, LoneSurrogatesRejected) {
  EXPECT_THROW(parse("\"\\ud83d\""), JsonError);         // lone high
  EXPECT_THROW(parse("\"\\ude00\""), JsonError);         // lone low
  EXPECT_THROW(parse("\"\\ud83d rest\""), JsonError);    // high + text
  EXPECT_THROW(parse("\"\\ud83d\\u0041\""), JsonError);  // high + non-low
  EXPECT_THROW(parse("\"\\ud83d\\ud83d\""), JsonError);  // high + high
}

// ---------------------------------------------------------------------------
// Containers

TEST(JsonParse, Arrays) {
  const Value v = parse("[1, 2, 3]");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_EQ(v.as_array()[2].as_int(), 3);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse(R"({"a": {"b": [1, {"c": true}]}})");
  EXPECT_TRUE(v.at("a").at("b").as_array()[1].at("c").as_bool());
}

TEST(JsonParse, ObjectKeyOrderPreserved) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  std::vector<std::string> keys;
  for (const auto& [k, unused] : v.as_object()) {
    (void)unused;
    keys.push_back(k);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonParse, WhitespaceTolerated) {
  const Value v = parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  EXPECT_EQ(v.at("a").as_array().size(), 2u);
}

// ---------------------------------------------------------------------------
// Errors

TEST(JsonParse, TrailingGarbageRejected) {
  EXPECT_THROW(parse("true false"), JsonError);
}

TEST(JsonParse, UnterminatedStringRejected) {
  EXPECT_THROW(parse("\"abc"), JsonError);
}

TEST(JsonParse, BadEscapeRejected) {
  EXPECT_THROW(parse(R"("\q")"), JsonError);
}

TEST(JsonParse, UnescapedControlCharacterRejected) {
  EXPECT_THROW(parse("\"a\nb\""), JsonError);
}

TEST(JsonParse, MissingCommaRejected) {
  EXPECT_THROW(parse("[1 2]"), JsonError);
}

TEST(JsonParse, BareMinusRejected) { EXPECT_THROW(parse("-"), JsonError); }

TEST(JsonParse, ErrorMessagesIncludeLineAndColumn) {
  try {
    parse("{\n  \"a\": ???\n}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// Regression: the recursive-descent parser had no depth limit, so 100,000
// nested '[' overflowed the stack (SIGSEGV) — in every tool that reads a
// file and in the daemon reading a socket request.
TEST(JsonParse, DeepNestingIsAPositionedError) {
  try {
    parse(std::string(100'000, '['));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    // The 513th '[' is the first one past the limit.
    EXPECT_NE(std::string(e.what()).find("line 1, column 513"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
  // Mixed objects and arrays count alike.
  std::string mixed;
  for (int i = 0; i < 300; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(parse(mixed), JsonError);
}

TEST(JsonParse, NestingUpToTheLimitParses) {
  const std::string deepest =
      std::string(512, '[') + "7" + std::string(512, ']');
  const Value doc = parse(deepest);
  const Value* v = &doc;
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(v->is_array());
    v = &v->as_array()[0];
  }
  EXPECT_EQ(v->as_int(), 7);
  EXPECT_THROW(parse("[" + deepest + "]"), JsonError);
}

TEST(JsonValue, TypeMismatchThrows) {
  EXPECT_THROW(parse("1").as_string(), JsonError);
  EXPECT_THROW(parse("\"x\"").as_int(), JsonError);
  EXPECT_THROW(parse("[]").as_object(), JsonError);
  EXPECT_THROW(parse("1.5").as_int(), JsonError);  // non-integral double
}

TEST(JsonValue, MissingKeyThrowsWithKeyName) {
  try {
    parse("{}").at("needle");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("needle"), std::string::npos);
  }
}

TEST(JsonValue, OptionalLookups) {
  const Value v = parse(R"({"i": 5, "d": 2.5, "s": "x", "b": true})");
  EXPECT_EQ(v.get_int("i", 0), 5);
  EXPECT_EQ(v.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(v.get_double("d", 0), 2.5);
  EXPECT_EQ(v.get_string("s", ""), "x");
  EXPECT_TRUE(v.get_bool("b", false));
}

TEST(JsonValue, RangeCheckedIntegersNameTheFieldAndRange) {
  const Value v = parse(R"({"step": 4294967296, "low": -1, "ok": 7})");
  EXPECT_EQ(v.at("ok").as_int_in("ok", 0, 7), 7);
  EXPECT_EQ(v.get_int_in("ok", 0, 7, 7), 7);
  EXPECT_EQ(v.get_int_in("missing", 3, 0, 7), 3);  // fallback, unchecked
  try {
    v.at("step").as_int_in("step", 0, 2147483647);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_STREQ(e.what(),
                 "json: step = 4294967296 is outside [0, 2147483647]");
  }
  try {
    v.get_int_in("low", 0, 0, 10);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_STREQ(e.what(), "json: low = -1 is outside [0, 10]");
  }
}

TEST(JsonValue, IntegralDoublesOutsideInt64AreNotInts) {
  // Converting them to int64 is undefined; they are refused instead.
  EXPECT_THROW(parse("1e19").as_int(), JsonError);
  EXPECT_THROW(parse("-1e300").as_int(), JsonError);
  EXPECT_THROW(parse("18446744073709551616").as_int(), JsonError);
  EXPECT_EQ(parse("-9223372036854775808.0").as_int(),
            std::numeric_limits<std::int64_t>::min());
}

// ---------------------------------------------------------------------------
// Serialization

TEST(JsonDump, CompactRoundTrip) {
  const char* text =
      R"({"name":"klotski","n":3,"pi":1.5,"flag":true,"none":null,)"
      R"("list":[1,"two",false],"nested":{"k":"v"}})";
  const Value v = parse(text);
  const Value round = parse(dump(v));
  EXPECT_TRUE(v == round);
}

TEST(JsonDump, PrettyRoundTrip) {
  const Value v = parse(R"({"a": [1, 2], "b": {"c": null}})");
  const std::string pretty = dump(v, 2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_TRUE(parse(pretty) == v);
}

TEST(JsonDump, EscapesSpecialCharacters) {
  const std::string out = dump(Value(std::string("a\"b\\c\nd\x01")));
  EXPECT_EQ(out, R"("a\"b\\c\nd\u0001")");
  EXPECT_EQ(parse(out).as_string(), "a\"b\\c\nd\x01");
}

TEST(JsonDump, DoublesSurviveRoundTrip) {
  const double values[] = {0.1, 1e-9, 12345.6789, -2.5e30};
  for (const double d : values) {
    EXPECT_DOUBLE_EQ(parse(dump(Value(d))).as_double(), d);
  }
}

TEST(JsonDump, AstralCodePointsEmitSurrogatePairs) {
  // "😀" (U+1F600) serializes as an ASCII-safe surrogate-pair escape and
  // parses back to the identical 4-byte UTF-8 string.
  const std::string emoji = "\xF0\x9F\x98\x80";
  const std::string out = dump(Value(emoji));
  EXPECT_EQ(out, R"("\ud83d\ude00")");
  EXPECT_EQ(parse(out).as_string(), emoji);
}

TEST(JsonDump, BmpUtf8PassesThroughVerbatim) {
  const std::string text = "caf\xC3\xA9 \xE2\x82\xAC";  // café €
  EXPECT_EQ(dump(Value(text)), "\"" + text + "\"");
  EXPECT_EQ(parse(dump(Value(text))).as_string(), text);
}

TEST(JsonDump, InvalidUtf8BytesPassThroughUnmangled) {
  // A stray 0xF0 with no continuation bytes is not astral — it must not
  // eat the following characters.
  const std::string junk = "a\xF0z";
  EXPECT_EQ(dump(Value(junk)), "\"" + junk + "\"");
}

// ---------------------------------------------------------------------------
// Locale independence

namespace {

/// Runs `body` under a comma-decimal LC_NUMERIC when one is installed;
/// GTEST_SKIP (inside `body`'s test) is not needed — we just fall back to
/// "C", which keeps the assertions meaningful if weaker.
class ScopedCommaLocale {
 public:
  ScopedCommaLocale() {
    saved_ = std::setlocale(LC_NUMERIC, nullptr);
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "de_DE",
          "fr_FR"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) {
        comma_ = true;
        return;
      }
    }
  }
  ~ScopedCommaLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }
  bool comma() const { return comma_; }

 private:
  std::string saved_;
  bool comma_ = false;
};

}  // namespace

TEST(JsonLocale, NumbersRoundTripUnderCommaDecimalLocale) {
  ScopedCommaLocale locale;
  // Boundary doubles that %.17g / strtod corrupt under a comma locale.
  const double values[] = {1.5,    0.1,     1e-9, 12345.6789,
                           -2.5e3, 0.40132, 2.2250738585072014e-308};
  for (const double d : values) {
    const std::string text = dump(Value(d));
    EXPECT_EQ(text.find(','), std::string::npos)
        << "serializer leaked a locale comma: " << text;
    EXPECT_DOUBLE_EQ(parse(text).as_double(), d);
  }
  EXPECT_DOUBLE_EQ(parse("1.5").as_double(), 1.5);
  EXPECT_DOUBLE_EQ(parse("[0.25]").as_array()[0].as_double(), 0.25);
}

// ---------------------------------------------------------------------------
// Equality

TEST(JsonEquality, NumericCrossTypeEquality) {
  EXPECT_TRUE(parse("3") == parse("3.0"));
  EXPECT_FALSE(parse("3") == parse("3.5"));
}

TEST(JsonEquality, ObjectsCompareByContentNotOrder) {
  EXPECT_TRUE(parse(R"({"a":1,"b":2})") == parse(R"({"b":2,"a":1})"));
  EXPECT_FALSE(parse(R"({"a":1})") == parse(R"({"a":1,"b":2})"));
}

TEST(JsonEquality, ArraysCompareElementwise) {
  EXPECT_TRUE(parse("[1,[2]]") == parse("[1,[2]]"));
  EXPECT_FALSE(parse("[1,2]") == parse("[2,1]"));
}

TEST(JsonObject, SubscriptInsertsAndFinds) {
  Object o;
  o["k"] = Value(1);
  o["k"] = Value(2);  // overwrite, no duplicate
  EXPECT_EQ(o.size(), 1u);
  ASSERT_NE(o.find("k"), nullptr);
  EXPECT_EQ(o.find("k")->as_int(), 2);
  EXPECT_EQ(o.find("absent"), nullptr);
}

}  // namespace
}  // namespace klotski::json
