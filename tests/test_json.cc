/** @file Unit tests for common/json.hh: JsonWriter comma placement,
 * nesting, Block/Inline layout, empty containers, raw and 64-bit
 * numbers, the escape policy, the parse -> dump round trip, and the
 * reader's number grammar and \u decoding. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hh"

using namespace upr;

TEST(JsonWriter, CommasSeparateBlockElementsOnePerLine)
{
    JsonWriter json;
    json.beginObject();
    json.kv("a", 1);
    json.kv("b", "x");
    json.kv("c", true);
    json.end();
    EXPECT_EQ(json.str(),
              "{\n  \"a\": 1,\n  \"b\": \"x\",\n  \"c\": true\n}");
}

TEST(JsonWriter, NestedBlocksIndentTwoSpacesPerLevel)
{
    JsonWriter json;
    json.beginObject();
    json.key("xs").beginArray();
    json.value(1);
    json.beginArray().value(2).end();
    json.end();
    json.kv("k", false);
    json.end();
    EXPECT_EQ(json.str(), "{\n"
                          "  \"xs\": [\n"
                          "    1,\n"
                          "    [\n"
                          "      2\n"
                          "    ]\n"
                          "  ],\n"
                          "  \"k\": false\n"
                          "}");
}

TEST(JsonWriter, EmptyContainersPrintAsBracePairs)
{
    JsonWriter json;
    json.beginObject();
    json.key("o").beginObject().end();
    json.key("a").beginArray().end();
    json.key("i").beginArray(JsonWriter::Inline).end();
    json.end();
    EXPECT_EQ(json.str(),
              "{\n  \"o\": {},\n  \"a\": [],\n  \"i\": []\n}");

    JsonWriter top;
    top.beginArray().end();
    EXPECT_EQ(top.str(), "[]");
}

TEST(JsonWriter, InlineContainersStayOnOneLineAndForceChildrenInline)
{
    JsonWriter json;
    json.beginArray();
    json.beginObject(JsonWriter::Inline);
    json.kv("a", 1);
    json.key("args").beginObject(); // Block request, forced Inline
    json.kv("x", 2);
    json.key("ys").beginArray().value(3).value(4).end();
    json.end();
    json.end();
    json.beginObject(JsonWriter::Inline).kv("b", 5).end();
    json.end();
    EXPECT_EQ(json.str(), "[\n"
                          "  {\"a\": 1, \"args\": "
                          "{\"x\": 2, \"ys\": [3, 4]}},\n"
                          "  {\"b\": 5}\n"
                          "]");
}

TEST(JsonWriter, NumbersPrintExactly)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    constexpr std::int64_t kMin =
        std::numeric_limits<std::int64_t>::min();
    JsonWriter json;
    json.beginArray(JsonWriter::Inline);
    json.value(kMax);
    json.value(kMin);
    json.value(-7);
    json.value(0.5);
    json.rawNumber("18446744073709551616");
    json.rawNumber("-1.25e+300");
    json.null();
    json.end();
    EXPECT_EQ(json.str(), "[18446744073709551615, -9223372036854775808, "
                          "-7, 0.5, 18446744073709551616, -1.25e+300, "
                          "null]");
    const JsonValue doc = parseJson(json.str());
    EXPECT_EQ(doc.items()[0].asUint(), kMax);
    EXPECT_EQ(doc.items()[4].raw(), "18446744073709551616");
}

TEST(JsonWriter, EscapesEveryControlByteAndNothingElse)
{
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    all += "\xc3\xa9"; // UTF-8 passes through untouched

    JsonWriter json;
    json.beginObject().kv(all, all).end();
    const std::string &out = json.str();

    // The only raw control bytes left are the Block layout's newlines.
    std::size_t newlines = 0;
    for (const char c : out) {
        EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 ||
                    c == '\n');
        newlines += c == '\n';
    }
    EXPECT_EQ(newlines, 2u);
    EXPECT_NE(out.find("\\u0001\\u0002"), std::string::npos);
    EXPECT_NE(out.find("\\u0008\\t\\n\\u000b\\u000c\\r"),
              std::string::npos)
        << "short escapes are \\t \\n \\r only";
    EXPECT_NE(out.find("\\u001f !\\\"#"), std::string::npos);
    EXPECT_NE(out.find("Z[\\\\]"), std::string::npos);
    EXPECT_NE(out.find("/0"), std::string::npos) << "'/' is not escaped";

    const JsonValue doc = parseJson(out);
    ASSERT_EQ(doc.members().size(), 1u);
    EXPECT_EQ(doc.members()[0].first, all);
    EXPECT_EQ(doc.members()[0].second.asString(), all);
}

TEST(JsonWriter, EscapesNulByte)
{
    JsonWriter json;
    json.value(std::string("a\0b", 3));
    EXPECT_EQ(json.str(), "\"a\\u0000b\"");
    EXPECT_EQ(parseJson(json.str()).asString(), std::string("a\0b", 3));
}

TEST(JsonWriter, NonFiniteDoublesWriteNull)
{
    JsonWriter json;
    json.beginObject(JsonWriter::Inline);
    json.kv("nan", std::nan(""));
    json.kv("inf", std::numeric_limits<double>::infinity());
    json.kv("ninf", -std::numeric_limits<double>::infinity());
    json.kv("x", 0.25);
    json.end();
    EXPECT_EQ(json.str(), "{\"nan\": null, \"inf\": null, "
                          "\"ninf\": null, \"x\": 0.25}");
    const JsonValue doc = parseJson(json.str());
    EXPECT_TRUE(doc.find("nan")->isNull());
    EXPECT_TRUE(doc.find("inf")->isNull());
    EXPECT_TRUE(doc.find("ninf")->isNull());
    EXPECT_EQ(doc.find("x")->raw(), "0.25");
    EXPECT_EQ(parseJson(doc.dump()).dump(), doc.dump());
}

TEST(JsonValue, DumpIsCanonicalAndByteStable)
{
    const std::string src =
        "{\"n\": 18446744073709551615, \"s\": \"q\\u0001\\\"\",\n"
        " \"e\": {}, \"l\": [], \"v\": [true, null, -2.5e3],\n"
        " \"h\": {\"count\": 2}}";
    const std::string once = parseJson(src).dump();
    EXPECT_EQ(once, "{\n"
                    "  \"n\": 18446744073709551615,\n"
                    "  \"s\": \"q\\u0001\\\"\",\n"
                    "  \"e\": {},\n"
                    "  \"l\": [],\n"
                    "  \"v\": [\n"
                    "    true,\n"
                    "    null,\n"
                    "    -2.5e3\n"
                    "  ],\n"
                    "  \"h\": {\n"
                    "    \"count\": 2\n"
                    "  }\n"
                    "}\n");
    EXPECT_EQ(parseJson(once).dump(), once);
}

TEST(JsonValue, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{\"a\": 1,}"), JsonParseError);
    EXPECT_THROW(parseJson("[1 2]"), JsonParseError);
    EXPECT_THROW(parseJson("\"unterminated"), JsonParseError);
    EXPECT_THROW(parseJson("{} {}"), JsonParseError);
    EXPECT_THROW(parseJson("\"\\u01\""), JsonParseError);
}

TEST(JsonValue, NumbersFollowTheRfc8259Grammar)
{
    for (const char *ok : {"0", "-0", "7", "-12", "10", "0.5", "-3.25",
                           "1e5", "1E+5", "2.5e-3",
                           "18446744073709551615"}) {
        const JsonValue v = parseJson(ok);
        EXPECT_EQ(v.raw(), ok);
    }
    for (const char *bad : {"1-2", "1+2", "01", "-01", "+1", "-", ".5",
                            "1.", "1.e3", "1e", "1e+", "--1", "1..2",
                            "1e5e5", "0x10", "Infinity", "NaN"}) {
        EXPECT_THROW(parseJson(bad), JsonParseError) << bad;
    }
    // The token ends where the grammar does; the rest is not a number.
    EXPECT_THROW(parseJson("{\"a\": 1-2}"), JsonParseError);
    EXPECT_THROW(parseJson("[1.5.5]"), JsonParseError);
}

TEST(JsonValue, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(parseJson("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseJson("\"\\u00E9\"").asString(), "\xc3\xa9");
    EXPECT_EQ(parseJson("\"\\u07ff\"").asString(), "\xdf\xbf");
    EXPECT_EQ(parseJson("\"\\u0100\"").asString(), "\xc4\x80");
    EXPECT_EQ(parseJson("\"\\u20ac\"").asString(), "\xe2\x82\xac");
    EXPECT_EQ(parseJson("\"\\uffff\"").asString(), "\xef\xbf\xbf");
    // Surrogate pairs join into one supplementary code point.
    EXPECT_EQ(parseJson("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(parseJson("\"\\uDBFF\\uDFFF\"").asString(),
              "\xf4\x8f\xbf\xbf");
    // Decoded text passes through the writer unchanged.
    const JsonValue v = parseJson("\"x\\u00e9\\ud83d\\ude00\"");
    EXPECT_EQ(parseJson(v.dump()).asString(), v.asString());
}

TEST(JsonValue, MalformedUnicodeEscapesAreRejected)
{
    for (const char *bad : {
             "\"\\u12\"",          // too few digits before the quote
             "\"\\u00g1\"",        // not a hex digit
             "\"\\u 0a1\"",        // strtoul would skip the space
             "\"\\u+0a1\"",        // ... and take the sign
             "\"\\u0x41\"",        // ... and the 0x prefix
             "\"\\ud800\"",        // high surrogate alone
             "\"\\ud800x\"",       // high surrogate, then text
             "\"\\ud800\\u0041\"",  // high surrogate, then no low one
             "\"\\ud800\\ud800\"",  // two high surrogates
             "\"\\udc00\"",        // low surrogate alone
         }) {
        EXPECT_THROW(parseJson(bad), JsonParseError) << bad;
    }
}
