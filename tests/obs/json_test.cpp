// The one JSON unit: the serializer every artifact goes through, the
// reader postmortem tooling rests on (it must accept exactly what
// JsonWriter emits and refuse everything else loudly), and the file
// helpers.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

namespace intox::obs {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
  // UTF-8 passes through byte-for-byte.
  EXPECT_EQ(json_escape("q\xc3\xa9"), "q\xc3\xa9");
}

TEST(JsonNumber, RoundTripsAndNullsNonFinite) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  // Shortest round-trip: parsing the token recovers the exact double.
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(v)), v);
}

TEST(JsonWriter, NestedStructureAndCommas) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(std::uint64_t{1});
  w.key("b").begin_array();
  w.value("x");
  w.value(2.5);
  w.value(true);
  w.begin_object();
  w.key("c").value("d\"e");
  w.end_object();
  w.end_array();
  w.key("raw").raw("{\"n\":3}");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":[\"x\",2.5,true,{\"c\":\"d\\\"e\"}],"
            "\"raw\":{\"n\":3}}");
}

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(json_parse(text, &v, &error)) << error;
  return v;
}

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_ok("null").kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-1.5e2").number, -150.0);
  EXPECT_EQ(parse_ok("\"hi\"").text, "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_ok("\"a\\\"b\\\\c\\n\\t\"").text, "a\"b\\c\n\t");
  // BMP \uXXXX decodes to UTF-8.
  EXPECT_EQ(parse_ok("\"\\u00e9\"").text, "\xc3\xa9");
  EXPECT_EQ(parse_ok("\"\\u0041\"").text, "A");
}

TEST(JsonParse, NestedStructures) {
  const JsonValue v =
      parse_ok("{\"a\":[1,2,{\"b\":true}],\"c\":{\"d\":null}}");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[1].as_u64(), 2u);
  EXPECT_TRUE(a->items[2].find("b")->boolean);
  EXPECT_EQ(v.find("c")->find("d")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, MembersKeepSourceOrder) {
  const JsonValue v = parse_ok("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "m");
}

TEST(JsonParse, AccessorsDegradeToZero) {
  EXPECT_EQ(parse_ok("\"text\"").as_u64(), 0u);
  EXPECT_DOUBLE_EQ(parse_ok("null").as_number(), 0.0);
  EXPECT_EQ(parse_ok("-3").as_u64(), 0u);  // negative clamps, not wraps
}

// Out-of-range numbers clamp to [0, UINT64_MAX]: casting a double at or
// above 2^64 to u64 is undefined. A dump word of UINT64_MAX parses to
// 2^64 and must read back as UINT64_MAX.
TEST(JsonParse, AsU64ClampsOutOfRange) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_ok("-1").as_u64(), 0u);
  EXPECT_EQ(parse_ok("1e20").as_u64(), kMax);
  EXPECT_EQ(parse_ok("18446744073709551615").as_u64(), kMax);
  EXPECT_EQ(parse_ok("9007199254740992").as_u64(), 9007199254740992u);
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\":}", &v, &error));
  EXPECT_NE(error.find("5"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(json_parse("[1,2] trailing", &v, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(json_parse("", &v, &error));
  EXPECT_FALSE(error.empty());
}

// A view ends at its size, not at the next NUL of the backing string:
// the view "12" of "12345" is the number 12, and the view "[1,2" of
// "[1,23]" ends inside its array.
TEST(JsonParse, NumbersStayInsideTheView) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse(std::string_view("12345", 2), &v, &error)) << error;
  EXPECT_DOUBLE_EQ(v.number, 12.0);
  EXPECT_FALSE(json_parse(std::string_view("[1,23]", 4), &v, &error));
  EXPECT_EQ(error, "unterminated array at byte 4");
}

// JsonWriter writes non-finite numbers as null and never a leading '+'.
TEST(JsonParse, RejectsNumbersJsonWriterNeverEmits) {
  for (const char* bad : {"inf", "-inf", "nan", "+1", "0x10", "1e999"}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(json_parse(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// JSON's number grammar: no bare fraction point, no leading zero, no
// trailing point. from_chars alone reads all five of these.
TEST(JsonParse, KeepsJsonsNumberGrammar) {
  for (const char* bad : {".5", "-.5", "01", "1.", "-01.5", "[01]", "-",
                          "1e", "1e+", "{\"a\":1.}"}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(json_parse(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  EXPECT_DOUBLE_EQ(parse_ok("0").number, 0.0);
  EXPECT_TRUE(std::signbit(parse_ok("-0").number));
  EXPECT_DOUBLE_EQ(parse_ok("1.5e+3").number, 1500.0);
  EXPECT_DOUBLE_EQ(parse_ok("-0.25E-2").number, -0.0025);
  EXPECT_DOUBLE_EQ(parse_ok("[10,0.5]").items[0].number, 10.0);
}

TEST(JsonParse, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse(deep, &v, &error));
  EXPECT_NE(error.find("too deep"), std::string::npos) << error;
}

TEST(JsonParse, RoundTripsJsonWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("test.v1");
  w.key("count").value(std::uint64_t{7});
  w.key("ratio").value(0.25);
  w.key("tags").begin_array().value("a\nb").value(true).end_array();
  w.end_object();
  const JsonValue v = parse_ok(w.str());
  EXPECT_EQ(v.find("schema")->text, "test.v1");
  EXPECT_EQ(v.find("count")->as_u64(), 7u);
  EXPECT_DOUBLE_EQ(v.find("ratio")->as_number(), 0.25);
  EXPECT_EQ(v.find("tags")->items[0].text, "a\nb");
}

TEST(JsonParse, FileVariantDistinguishesIo) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse_file("/nonexistent/doc.json", &v, &error));
  EXPECT_NE(error.find("/nonexistent/doc.json"), std::string::npos);

  const std::string path = ::testing::TempDir() + "json_parse_file.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"ok\":true}\n", f);
  std::fclose(f);
  EXPECT_TRUE(json_parse_file(path, &v, &error)) << error;
  EXPECT_TRUE(v.find("ok")->boolean);
  std::remove(path.c_str());
}

TEST(JsonFiles, CommitWritesWholeFilesAndReportsFailures) {
  const std::string path = ::testing::TempDir() + "json_commit_file.json";
  std::string error;
  ASSERT_TRUE(commit_file(path, "{\"v\":1}\n", &error)) << error;
  std::string back;
  ASSERT_TRUE(read_file(path, &back));
  EXPECT_EQ(back, "{\"v\":1}\n");
  std::remove(path.c_str());

  EXPECT_FALSE(read_file("/nonexistent/doc.json", &back));
  EXPECT_FALSE(write_file("/nonexistent/doc.json", "x", &error));
  EXPECT_NE(error.find("/nonexistent/doc.json"), std::string::npos);
  EXPECT_FALSE(commit_file("/nonexistent/doc.json", "x", &error));
  EXPECT_NE(error.find("/nonexistent/doc.json"), std::string::npos);
}

}  // namespace
}  // namespace intox::obs
