// util::Json, the one JSON reader and writer: strict parsing,
// deterministic writing, and the malformed-input rejections the HTTP 400
// path, the journal loader and the metrics merge depend on. The suite
// keeps the SvcJson name it had when the class lived in svc.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace {

using bvc::util::Json;

std::string reparse_dump(const std::string& text) {
  const std::optional<Json> value = Json::parse(text);
  EXPECT_TRUE(value.has_value()) << text;
  return value ? value->dump() : "";
}

TEST(SvcJson, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(Json::parse("0.25")->as_number(), 0.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e-5")->as_number(), 1e-5);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(SvcJson, ParsesNestedDocuments) {
  const std::optional<Json> doc = Json::parse(
      R"({"kind":"bu-attack","cells":[{"alpha":0.2,"flags":[true,null]}]})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->string_or("kind", ""), "bu-attack");
  const Json* cells = doc->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->size(), 1u);
  EXPECT_DOUBLE_EQ(cells->at(0).number_or("alpha", 0.0), 0.2);
  const Json* flags = cells->at(0).find("flags");
  ASSERT_NE(flags, nullptr);
  EXPECT_TRUE(flags->at(0).as_bool());
  EXPECT_TRUE(flags->at(1).is_null());
}

TEST(SvcJson, DumpRoundTripsAndIsDeterministic) {
  const std::string compact =
      R"({"a":1,"b":[1.5,"x",false,null],"c":{"d":-2}})";
  EXPECT_EQ(reparse_dump(compact), compact);
  // Whitespace in the input normalizes away.
  EXPECT_EQ(reparse_dump(" { \"a\" : 1 ,\n \"b\" : [ 1.5 ] } "),
            R"({"a":1,"b":[1.5]})");
}

TEST(SvcJson, IntegralNumbersPrintAsIntegers) {
  EXPECT_EQ(Json::number(144).dump(), "144");
  EXPECT_EQ(Json::number(-3).dump(), "-3");
  EXPECT_EQ(Json::number(0.25).dump(), "0.25");
  // Round-trip of a value needing full precision.
  const std::string dumped = Json::number(0.20000000076779917).dump();
  EXPECT_DOUBLE_EQ(Json::parse(dumped)->as_number(), 0.20000000076779917);
}

TEST(SvcJson, HugeNumbersDumpWithoutIntegerNarrowing) {
  // Values outside long long range must never reach the integer cast
  // (that cast is UB); they print via %.17g and round-trip. Reachable from
  // the wire: submit() echoes unknown request fields back through dump().
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(1e300).dump())->as_number(),
                   1e300);
  EXPECT_DOUBLE_EQ(Json::parse(Json::number(-1e300).dump())->as_number(),
                   -1e300);
  // Non-finite numbers have no JSON spelling: they dump as null, so every
  // dump re-parses.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::string dumped = Json::number(bad).dump();
    EXPECT_EQ(dumped, "null");
    const std::optional<Json> back = Json::parse(dumped);
    ASSERT_TRUE(back.has_value()) << dumped;
    EXPECT_TRUE(back->is_null());
  }
  Json object = Json::object();
  object.set("x", Json::number(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(Json::parse(object.dump()).has_value()) << object.dump();
}

TEST(SvcJson, NumberWriterIsPercent17gForFiniteValues) {
  std::string out;
  bvc::util::append_json_number(out, 9e15);
  EXPECT_EQ(out, "9000000000000000");
  out.clear();
  bvc::util::append_json_number(out, 0.1);
  EXPECT_EQ(out, "0.10000000000000001");
  out.clear();
  bvc::util::append_json_number(out, -0.0);
  EXPECT_EQ(out, "-0");
}

TEST(SvcJson, NumberOrNullIsTheReadSideOfTheNumberWriter) {
  double out = 1.0;
  ASSERT_TRUE(Json::number(0.25).number_or_null(out));
  EXPECT_EQ(out, 0.25);
  ASSERT_TRUE(Json().number_or_null(out));
  EXPECT_TRUE(std::isnan(out));
  out = 1.0;
  EXPECT_FALSE(Json::string("nan").number_or_null(out));
  EXPECT_FALSE(Json::boolean(true).number_or_null(out));
  EXPECT_EQ(out, 1.0);  // untouched on a type mismatch
}

TEST(SvcJson, CountsAreNonNegativeIntegersInRange) {
  EXPECT_EQ(bvc::util::json_count(0.0), 0u);
  EXPECT_EQ(bvc::util::json_count(9e15), 9'000'000'000'000'000u);
  EXPECT_EQ(bvc::util::json_count(0x1p63), std::uint64_t{1} << 63);
  EXPECT_FALSE(bvc::util::json_count(0x1p64).has_value());
  EXPECT_FALSE(bvc::util::json_count(-1.0).has_value());
  EXPECT_FALSE(bvc::util::json_count(2.5).has_value());
  EXPECT_FALSE(bvc::util::json_count(std::numeric_limits<double>::quiet_NaN())
                   .has_value());
  EXPECT_FALSE(bvc::util::json_count(std::numeric_limits<double>::infinity())
                   .has_value());
  EXPECT_EQ(bvc::util::json_count(2147483647.0, 2147483647u), 2147483647u);
  EXPECT_FALSE(bvc::util::json_count(2147483648.0, 2147483647u).has_value());
}

TEST(SvcJson, StringEscapesRoundTrip) {
  const std::string raw = "quote\" slash\\ tab\t nl\n ctrl\x01 text";
  const std::string dumped = Json::string(raw).dump();
  const std::optional<Json> back = Json::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), raw);
}

TEST(SvcJson, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9")")->as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("\ud834\udd1e")")->as_string(),
            "\xf0\x9d\x84\x9e");
  // Lone surrogate is malformed.
  EXPECT_FALSE(Json::parse(R"("\ud834")").has_value());
}

TEST(SvcJson, RejectsMalformedDocuments) {
  for (const char* bad : {
           "",            // empty
           "{",           // unterminated object
           "[1,",         // unterminated array
           "{\"a\" 1}",   // missing colon
           "{\"a\":1,}",  // trailing comma
           "[1 2]",       // missing comma
           "nul",         // truncated literal
           "\"abc",       // unterminated string
           "\"\\q\"",     // unknown escape
           "01",          // leading zero
           "-",           // bare minus
           "1.",          // trailing dot
           "NaN",         // not JSON
           "Infinity",    // not JSON
           "1e999",       // overflows to inf
           "{} extra",    // trailing garbage
           "[1] [2]",     // two documents
       }) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << "accepted: " << bad;
  }
}

TEST(SvcJson, RejectsDocumentsAboveTheDepthCap) {
  std::string deep;
  for (std::size_t i = 0; i < Json::kMaxDepth + 1; ++i) deep += "[";
  deep += "1";
  for (std::size_t i = 0; i < Json::kMaxDepth + 1; ++i) deep += "]";
  EXPECT_FALSE(Json::parse(deep).has_value());

  std::string shallow;
  for (std::size_t i = 0; i < Json::kMaxDepth - 1; ++i) shallow += "[";
  shallow += "1";
  for (std::size_t i = 0; i < Json::kMaxDepth - 1; ++i) shallow += "]";
  EXPECT_TRUE(Json::parse(shallow).has_value());
}

TEST(SvcJson, ObjectLookupIsFirstMatchAndOrderPreserving) {
  Json object = Json::object();
  object.set("b", Json::number(2));
  object.set("a", Json::number(1));
  ASSERT_EQ(object.members().size(), 2u);
  EXPECT_EQ(object.members()[0].first, "b");
  EXPECT_EQ(object.dump(), R"({"b":2,"a":1})");
  EXPECT_DOUBLE_EQ(object.number_or("missing", 7.5), 7.5);
  EXPECT_EQ(object.find("missing"), nullptr);
}

TEST(SvcJson, TypedFallbacksOnWrongTypes) {
  const Json number = Json::number(1.0);
  EXPECT_EQ(number.as_string(), "");
  EXPECT_FALSE(number.as_bool());
  EXPECT_DOUBLE_EQ(Json::string("x").as_number(3.0), 3.0);
}

}  // namespace
