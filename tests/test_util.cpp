// Unit tests for the PRNG, string helpers, table formatting and the JSON
// writer and parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "util/error.h"
#include "util/json.h"
#include "util/prng.h"
#include "util/strings.h"
#include "util/table.h"

namespace tsg {
namespace {

TEST(Prng, DeterministicAcrossInstances)
{
    prng a(42);
    prng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer)
{
    prng a(1);
    prng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LT(same, 4);
}

TEST(Prng, UniformRespectsBounds)
{
    prng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t v = rng.uniform(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit over 1000 draws
    EXPECT_THROW(rng.uniform(2, 1), error);
}

TEST(Prng, Uniform01InRange)
{
    prng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform01();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Prng, ShuffleIsPermutation)
{
    prng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  abc \t\n"), "abc");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split)
{
    EXPECT_EQ(split("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,b;c", ",;"), (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(split("").empty());
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(starts_with("hello", "he"));
    EXPECT_FALSE(starts_with("he", "hello"));
}

TEST(Strings, FormatDouble)
{
    EXPECT_EQ(format_double(6.6666666, 2), "6.67");
    EXPECT_EQ(format_double(10.0, 2), "10");
    EXPECT_EQ(format_double(9.50, 2), "9.5");
}

TEST(Strings, ParseCountTakesPlainDigitsOnly)
{
    EXPECT_EQ(parse_count("--samples", "0"), 0u);
    EXPECT_EQ(parse_count("--samples", "42"), 42u);
    EXPECT_EQ(parse_count("--seed", "18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parse_count("--port", "65535", 65535), 65535u);
    for (const char* bad : {"", "3abc", "-1", "+3", " 3", "3 ", "1.5", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW((void)parse_count("--samples", bad), error) << bad;
    EXPECT_THROW((void)parse_count("--port", "65536", 65535), error);
    try {
        (void)parse_count("--k", "-1");
        FAIL();
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("--k"), std::string::npos) << e.what();
    }
}

// --- json_writer --------------------------------------------------------------

TEST(JsonWriter, NestedScopesSeparateItemsWithCommas)
{
    json_writer out;
    out.begin_object()
        .key("a").value(1)
        .key("b").begin_array().value(true).value(false).raw("null").end_array()
        .key("c").begin_object().end_object()
        .key("d").begin_array().begin_array().end_array().begin_object().key("e").value("f")
        .end_object().end_array()
        .end_object();
    EXPECT_EQ(out.take(),
              R"({"a": 1, "b": [true, false, null], "c": {}, "d": [[], {"e": "f"}]})");
    // take() leaves the writer empty for the next document.
    EXPECT_EQ(out.begin_array().end_array().take(), "[]");
    EXPECT_EQ(json_writer().value("top").take(), R"("top")");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    EXPECT_EQ(json_writer().value("q\"b\\s/").take(), R"("q\"b\\s/")");
    EXPECT_EQ(json_writer().begin_object().key("k\"\n").value("v\t\r").end_object().take(),
              R"({"k\"\n": "v\t\r"})");
    // Every byte below 0x20: \n, \t and \r by name, the rest as \u00XX.
    std::string controls;
    for (int c = 0; c < 0x20; ++c) controls += static_cast<char>(c);
    EXPECT_EQ(json_writer().value(controls).take(),
              R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\r)"
              R"(\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019)"
              R"(\u001a\u001b\u001c\u001d\u001e\u001f")");
    // Bytes from 0x7f up pass through as written (UTF-8 stays UTF-8).
    EXPECT_EQ(json_writer().value("\x7f caf\xc3\xa9").take(), "\"\x7f caf\xc3\xa9\"");
    EXPECT_EQ(json_quote("a\x01\"b"), R"("a\u0001\"b")");
}

TEST(JsonWriter, IntegersAtTheirExtremes)
{
    json_writer out;
    out.begin_array()
        .value(std::numeric_limits<std::int64_t>::min())
        .value(std::numeric_limits<std::int64_t>::max())
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::uint32_t>::max())
        .value(0)
        .value(-1)
        .end_array();
    EXPECT_EQ(out.take(), "[-9223372036854775808, 9223372036854775807, "
                          "18446744073709551615, 4294967295, 0, -1]");
    EXPECT_EQ(json_writer().value(std::vector<std::uint32_t>{3, 1, 2}).take(), "[3, 1, 2]");
    EXPECT_EQ(json_writer().value(std::vector<std::uint64_t>{}).take(), "[]");
}

TEST(JsonWriter, DoublesAreFormatDoubleAndNonFiniteIsNull)
{
    for (const double v : {0.0, -0.0, 1.5, 10.0, 1.0 / 3.0, -2.25, 1e-7, 2.5e9, 123456.7890123})
        EXPECT_EQ(json_writer().value(v).take(), format_double(v, 6)) << v;
    EXPECT_EQ(json_writer().value(1.0 / 3.0).take(), "0.333333");
    EXPECT_EQ(json_writer().value(10.0).take(), "10");
    EXPECT_EQ(json_writer().value(std::nan("")).take(), "null");
    EXPECT_EQ(json_writer().value(std::numeric_limits<double>::infinity()).take(), "null");
    EXPECT_EQ(json_writer().value(-std::numeric_limits<double>::infinity()).take(), "null");
}

TEST(JsonWriter, RawIsSplicedVerbatimWithSeparators)
{
    const std::string inner =
        json_writer().begin_object().key("x").raw("1e10").end_object().take();
    EXPECT_EQ(json_writer().begin_array().raw(inner).raw("-0").raw("null").end_array().take(),
              R"([{"x": 1e10}, -0, null])");
    EXPECT_EQ(json_writer().reserve(64).begin_object().key("p").raw(inner).end_object().take(),
              R"({"p": {"x": 1e10}})");
}

TEST(JsonWriter, UnbalancedScopesAreInternalErrors)
{
    EXPECT_THROW((void)json_writer().end_object(), internal_error);
    EXPECT_THROW((void)json_writer().end_array(), internal_error);
    EXPECT_THROW((void)json_writer().begin_array().end_object(), internal_error);
    EXPECT_THROW((void)json_writer().begin_object().end_array(), internal_error);
    EXPECT_THROW((void)json_writer().begin_object().take(), internal_error);
    EXPECT_THROW((void)json_writer().begin_array().begin_array().end_array().take(),
                 internal_error);
    EXPECT_THROW((void)json_writer().begin_object().key("dangling").end_object(),
                 internal_error);
}

TEST(JsonWriter, ValueWriteIsTheWriterLayout)
{
    // Any input layout comes back out in the one compact layout.
    const json_value v = json_parse(
        "{\r\n \"a\" :[1 ,{},[ ]],\"b\":{ \"c\":true,\n\"d\":null},\t\"e\": -2.5E-3}\r\n");
    EXPECT_EQ(v.write(), R"({"a": [1, {}, []], "b": {"c": true, "d": null}, "e": -2.5E-3})");
    // Repeated keys keep their order; raw number spellings are kept.
    EXPECT_EQ(json_parse(R"({"dup":1,"dup":1.50})").write(), R"({"dup": 1, "dup": 1.50})");
    EXPECT_EQ(json_parse(" [ ] ").write(), "[]");
}

// --- json_parse ---------------------------------------------------------------

TEST(JsonParse, DecodesEveryEscape)
{
    EXPECT_EQ(json_parse(R"("a\/b\"c\\d")").text, "a/b\"c\\d");
    EXPECT_EQ(json_parse(R"("\b\f\n\r\t")").text, "\b\f\n\r\t");
    EXPECT_EQ(json_parse(R"("\u0041\u00e9\u00E9")").text, "A\xc3\xa9\xc3\xa9");
    EXPECT_EQ(json_parse(R"("caf\u00e9")").text, "caf\xc3\xa9");
    EXPECT_EQ(json_parse(R"("\u0000")").text, std::string(1, '\0'));
    EXPECT_EQ(json_parse(R"("\u20ac")").text, "\xe2\x82\xac");        // three UTF-8 bytes
    EXPECT_EQ(json_parse(R"("\ud83d\ude00")").text, "\xf0\x9f\x98\x80"); // surrogate pair
    EXPECT_EQ(json_parse(R"("\uDBFF\uDFFF")").text, "\xf4\x8f\xbf\xbf"); // U+10FFFF
}

TEST(JsonParse, RejectsBadUnicodeEscapesWithTheContext)
{
    for (const char* bad : {R"("\u00g9")", R"("\u12")", R"("\u")", R"("\ud83d")",
                            R"("\ud83dx")", R"("\ud83d\u0041")", R"("\ude00")",
                            R"("\ud83d\ud83d")"}) {
        try {
            (void)json_parse(bad, "request");
            ADD_FAILURE() << "accepted: " << bad;
        } catch (const error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("request: ", 0), 0u) << e.what();
        }
    }
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    for (const char* bad : {"", "   ", "truex", "[1 2]", "[1,]", "{\"a\" 1}", "{\"a\": }",
                            "{1: 2}", "\"unterminated", "\"dangling\\", "[\"a\"",
                            "{\"a\": [}", "nul", "@", "{} {}"})
        EXPECT_THROW((void)json_parse(bad), error) << bad;
}

TEST(JsonParse, EveryByteRoundTripsInsideAString)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        const std::string s = {'a', static_cast<char>(b), 'z'};
        const std::string written = json_value::string(s).write();
        EXPECT_EQ(json_parse(written).text, s) << "byte " << b;
        for (const char c : written) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << b;
        all += static_cast<char>(b);
    }
    const json_value doc = json_parse(json_value::string(all).write());
    EXPECT_EQ(doc.text, all);
    // And as a key.
    json_value obj = json_value::object();
    obj.set(all, json_value::string(all));
    EXPECT_EQ(json_parse(obj.write()), obj);
}

TEST(TextTable, AlignsColumns)
{
    text_table t;
    t.set_header({"event", "t"});
    t.add_row({"a+", "10"});
    t.add_row({"b+.long", "8"});
    const std::string out = t.str();
    EXPECT_NE(out.find("event"), std::string::npos);
    EXPECT_NE(out.find("b+.long"), std::string::npos);
    // Every line under the rule starts at column 0 with the first cell.
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, HandlesRaggedRows)
{
    text_table t;
    t.set_header({"a"});
    t.add_row({"1", "2", "3"});
    const std::string out = t.str();
    EXPECT_NE(out.find("3"), std::string::npos);
}

} // namespace
} // namespace tsg
