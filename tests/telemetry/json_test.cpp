// Unit tests for the minimal JSON model: construction, serialization,
// parsing, and full round-trips (the property the exporters rely on).
#include "telemetry/json.h"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>
#include <string>

namespace asimt::json {
namespace {

TEST(JsonValue, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(nullptr).is_null());
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_EQ(Value(std::uint64_t{1} << 60).as_int(), 1LL << 60);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_THROW(Value(42).as_string(), std::runtime_error);
  // ints convert to double and vice versa on demand
  EXPECT_DOUBLE_EQ(Value(3).as_double(), 3.0);
  EXPECT_EQ(Value(3.0).as_int(), 3);
}

TEST(JsonValue, ObjectSetReplacesAndPreservesOrder) {
  Value obj = Value::object();
  obj.set("b", 1);
  obj.set("a", 2);
  obj.set("b", 3);  // replaces, stays in first position
  ASSERT_EQ(obj.as_object().size(), 2u);
  EXPECT_EQ(obj.as_object()[0].first, "b");
  EXPECT_EQ(obj.at("b").as_int(), 3);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), std::runtime_error);
}

TEST(JsonDump, CompactForms) {
  Value obj = Value::object();
  obj.set("n", nullptr);
  obj.set("t", true);
  obj.set("i", -7);
  obj.set("d", 0.5);
  obj.set("s", "a\"b\\c\n");
  Value arr = Value::array();
  arr.push_back(1);
  arr.push_back(2);
  obj.set("a", std::move(arr));
  EXPECT_EQ(obj.dump(),
            "{\"n\":null,\"t\":true,\"i\":-7,\"d\":0.5,"
            "\"s\":\"a\\\"b\\\\c\\n\",\"a\":[1,2]}");
}

TEST(JsonDump, PrettyPrintParsesBack) {
  Value obj = Value::object();
  obj.set("x", 1);
  Value inner = Value::object();
  inner.set("y", Value::array());
  obj.set("nested", std::move(inner));
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse(pretty), obj);
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse(" true ").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_EQ(parse("-123").as_int(), -123);
  EXPECT_TRUE(parse("123").is_int());
  EXPECT_TRUE(parse("1.5").is_double());
  EXPECT_DOUBLE_EQ(parse("1.5e3").as_double(), 1500.0);
  EXPECT_EQ(parse("\"\\u0041\\t\"").as_string(), "A\t");
}

TEST(JsonParse, LargeIntegersSurviveExactly) {
  const long long big = (1LL << 62) + 12345;
  EXPECT_EQ(parse(Value(big).dump()).as_int(), big);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,]"), ParseError);
  EXPECT_THROW(parse("tru"), ParseError);
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("{} trailing"), ParseError);
  EXPECT_THROW(parse("{\"a\":}"), ParseError);
  EXPECT_THROW(parse("0x10"), ParseError);
}

// One line of 500 000 '[' used to recurse until the stack overflowed.
TEST(JsonParse, NestingDepthIsBounded) {
  EXPECT_THROW(parse(std::string(500000, '[')), ParseError);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse(nested(kMaxParseDepth)));
  EXPECT_THROW(parse(nested(kMaxParseDepth + 1)), ParseError);
  EXPECT_THROW(parse("{\"a\":" + nested(kMaxParseDepth) + "}"), ParseError);
}

TEST(JsonParse, SurrogatePairsDecodeToFourByteUtf8) {
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(parse("\"\\uD800\\uDC00\"").as_string(), "\xF0\x90\x80\x80");
  EXPECT_EQ(parse("\"\\udbff\\udfff\"").as_string(), "\xF4\x8F\xBF\xBF");
  EXPECT_EQ(parse("\"\\uffff\"").as_string(), "\xEF\xBF\xBF");
}

// A lone surrogate used to decode to the invalid UTF-8 bytes ED A0 80.
TEST(JsonParse, LoneSurrogatesAreParseErrors) {
  for (const char* text : {"\"\\ud800\"", "\"\\udc00\"", "\"\\ud800x\"",
                           "\"\\ud800\\u0041\"", "\"\\ud800\\ud800\"",
                           "\"\\ud800\\n\""}) {
    EXPECT_THROW(parse(text), ParseError) << text;
  }
}

TEST(JsonParse, RoundTripComplexDocument) {
  const std::string doc =
      R"({"name":"fft","ok":true,"counts":[1,2,3],"nested":{"pi":3.14,"none":null}})";
  const Value v = parse(doc);
  EXPECT_EQ(parse(v.dump()), v);
  EXPECT_EQ(v.at("nested").at("pi").as_double(), 3.14);
  EXPECT_EQ(v.at("counts").as_array()[2].as_int(), 3);
}

TEST(JsonParseLines, SplitsAndSkipsBlanks) {
  const auto values = parse_lines("{\"a\":1}\n\n  \n{\"b\":2}\n");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].at("a").as_int(), 1);
  EXPECT_EQ(values[1].at("b").as_int(), 2);
  EXPECT_THROW(parse_lines("{\"a\":1}\nnot json\n"), ParseError);
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(escape("plain"), "plain");
}

TEST(JsonDump, DoublesShortestRoundTrip) {
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(3.14).dump(), "3.14");
  EXPECT_EQ(Value(-0.5).dump(), "-0.5");
  EXPECT_EQ(Value(1e300).dump(), "1e+300");
  // Non-finite doubles have no JSON spelling; they degrade to null.
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  // Whatever the spelling, parsing it back must restore the exact bits.
  for (const double d : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, -123.456}) {
    EXPECT_EQ(parse(Value(d).dump()).as_double(), d);
  }
}

TEST(JsonParse, NegativeZeroStaysADouble) {
  // Regression (found seeding the fuzz corpus): "-0" used to fold to int 0,
  // so dump(parse(dump(-0.0))) flipped "-0" -> "0" and broke byte-stability.
  EXPECT_TRUE(parse("-0").is_double());
  EXPECT_TRUE(std::signbit(parse("-0").as_double()));
  EXPECT_EQ(Value(-0.0).dump(), "-0");
  EXPECT_EQ(parse(Value(-0.0).dump()).dump(), "-0");
  EXPECT_TRUE(parse("0").is_int());  // plain zero is untouched
}

TEST(JsonDump, DoubleEmissionIgnoresGlobalLocale) {
  // Regression: the dumper used snprintf("%g"), which writes the decimal
  // separator of the active C locale — "3,14" under de_DE — producing JSON
  // no parser (including ours) accepts. std::to_chars never reads the
  // locale, so output must be byte-identical under a comma-decimal locale.
  Value doc = Value::object();
  doc.set("pi", 3.14159);
  doc.set("tiny", 2.5e-7);
  doc.set("list", Value::array());
  doc.at("list");  // keep insertion order deterministic
  const std::string reference = doc.dump();
  ASSERT_NE(reference.find("3.14159"), std::string::npos);

  const char* old = std::setlocale(LC_ALL, nullptr);
  const std::string saved = old ? old : "C";
  const char* comma_locales[] = {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8",
                                 "fr_FR", "C.UTF-8@comma"};
  const char* active = nullptr;
  for (const char* name : comma_locales) {
    if (std::setlocale(LC_ALL, name)) {
      // Only trust locales that actually use a comma separator.
      if (std::localeconv()->decimal_point[0] == ',') {
        active = name;
        break;
      }
    }
  }
  if (!active) {
    std::setlocale(LC_ALL, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  const std::string under_comma = doc.dump();
  const Value reparsed = parse(under_comma);
  std::setlocale(LC_ALL, saved.c_str());
  EXPECT_EQ(under_comma, reference) << "dump changed under " << active;
  EXPECT_EQ(reparsed, doc);
}

}  // namespace
}  // namespace asimt::json
