// Unit tests for the PRNG, string helpers, table formatting, the JSON
// writer and parser, the latency histogram and the token bucket.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/json.h"
#include "util/latency_histogram.h"
#include "util/prng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/token_bucket.h"

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

TEST(Strings, ParseRateTakesPlainNonNegativeDecimalsOnly)
{
    EXPECT_EQ(parse_rate("--quota-rps", "0"), 0.0);
    EXPECT_EQ(parse_rate("--quota-rps", "20"), 20.0);
    EXPECT_EQ(parse_rate("--quota-rps", "2.5"), 2.5);
    EXPECT_EQ(parse_rate("--quota-rps", "007.250"), 7.25);
    const std::string huge(400, '9'); // plain digits, but past the double range
    for (const std::string bad : {"", "5abc", "-3", "+3", " 3", "3 ", "nan", "inf", "1e3",
                                  "1e999", ".5", "5.", "0x10", "1.2.3", huge.c_str()})
        EXPECT_THROW((void)parse_rate("--quota-rps", bad), error) << bad;
    try {
        (void)parse_rate("--conn-rps", "1e999");
        FAIL();
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("--conn-rps"), std::string::npos) << e.what();
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

// --- latency_histogram ---------------------------------------------------------

TEST(LatencyHistogram, EveryValueIsItsOwnQuantileWithinOneSixtyFourth)
{
    std::vector<std::uint64_t> values = {0, 1, 63, 126, 127, 128, 129, 191, 192, 255, 256};
    for (unsigned k = 8; k <= 40; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        values.insert(values.end(), {p - 1, p, p + 1});
    }
    for (const std::uint64_t v : values) {
        latency_histogram h;
        h.record(v);
        const double got = h.quantile(0.5);
        const double exact = static_cast<double>(v);
        if (v < 128)
            EXPECT_EQ(got, exact) << v;
        else
            EXPECT_LE(std::abs(got - exact), exact / 64.0) << v;
        EXPECT_EQ(h.quantile(0.0), got) << v;
        EXPECT_EQ(h.quantile(1.0), got) << v;
        EXPECT_EQ(h.mean(), exact) << v;
    }
    // Adjacent values straddling a power of two land in different buckets.
    EXPECT_NE(latency_histogram::bucket_of(127), latency_histogram::bucket_of(128));
    EXPECT_NE(latency_histogram::bucket_of(255), latency_histogram::bucket_of(256));
    EXPECT_EQ(latency_histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
              latency_histogram::bucket_count - 1);
}

TEST(LatencyHistogram, NearestRankQuantilesOfAKnownSet)
{
    // 1..100: the nearest-rank q-quantile is ceil(100 q), exact below 128.
    latency_histogram h;
    for (std::uint64_t v = 100; v >= 1; --v) h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    EXPECT_EQ(h.quantile(0.0), 1.0);
    EXPECT_EQ(h.quantile(0.01), 1.0);
    EXPECT_EQ(h.quantile(0.5), 50.0);
    EXPECT_EQ(h.quantile(0.505), 51.0);
    EXPECT_EQ(h.quantile(0.99), 99.0);
    EXPECT_EQ(h.quantile(1.0), 100.0);

    // Ten fast and one slow value: the median is fast, the maximum slow.
    latency_histogram mixed;
    for (int i = 0; i < 10; ++i) mixed.record(12);
    mixed.record(9000);
    EXPECT_EQ(mixed.quantile(0.5), 12.0);
    EXPECT_EQ(mixed.quantile(10.0 / 11.0), 12.0);
    EXPECT_NEAR(mixed.quantile(0.99), 9000.0, 9000.0 / 64.0);
}

TEST(LatencyHistogram, EmptyReadsZero)
{
    const latency_histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordsKeepTheExactCountAndMean)
{
    constexpr int threads = 4;
    constexpr std::uint64_t per_thread = 100000;
    latency_histogram h;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&h, t] {
            for (std::uint64_t i = 0; i < per_thread; ++i) h.record(i % 1000 + t);
        });
    for (std::thread& th : pool) th.join();
    EXPECT_EQ(h.count(), threads * per_thread);
    // Each thread records 0..999 a hundred times, shifted by t: mean
    // 499.5 + (0 + 1 + 2 + 3) / 4.
    EXPECT_DOUBLE_EQ(h.mean(), 499.5 + 1.5);
}

// --- token_bucket ---------------------------------------------------------------

TEST(TokenBucket, FirstTakeFindsTheBucketFull)
{
    const token_bucket::time_point t0{};
    token_bucket bucket(10.0, 4.0);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(bucket.take(t0), 0u) << i;
    EXPECT_GT(bucket.take(t0), 0u);

    // Starting late changes nothing: the bucket is full, never overfull.
    token_bucket late(10.0, 4.0);
    const token_bucket::time_point t1 = t0 + std::chrono::hours(24);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(late.take(t1), 0u) << i;
    EXPECT_GT(late.take(t1), 0u);
}

TEST(TokenBucket, ZeroBurstDerivesTheCeilingOfTheRate)
{
    const token_bucket::time_point t0{};
    token_bucket bucket(2.5, 0.0); // burst ceil(2.5) = 3
    for (int i = 0; i < 3; ++i) EXPECT_EQ(bucket.take(t0), 0u) << i;
    EXPECT_GT(bucket.take(t0), 0u);

    token_bucket slow(0.2, 0.0); // burst max(1, ceil(0.2)) = 1
    EXPECT_EQ(slow.take(t0), 0u);
    EXPECT_GT(slow.take(t0), 0u);
}

TEST(TokenBucket, RefillsAtTheRate)
{
    const token_bucket::time_point t0{};
    token_bucket bucket(2.0, 2.0);
    EXPECT_EQ(bucket.take(t0), 0u);
    EXPECT_EQ(bucket.take(t0), 0u);
    EXPECT_GT(bucket.take(t0), 0u);
    // Half a second buys one token back; a full second refills the burst.
    EXPECT_EQ(bucket.take(t0 + std::chrono::milliseconds(500)), 0u);
    EXPECT_GT(bucket.take(t0 + std::chrono::milliseconds(500)), 0u);
    const token_bucket::time_point t1 = t0 + std::chrono::milliseconds(1500);
    EXPECT_EQ(bucket.take(t1), 0u);
    EXPECT_EQ(bucket.take(t1), 0u);
    EXPECT_GT(bucket.take(t1), 0u);
}

TEST(TokenBucket, HintIsTheCeilingOfTheWaitAndAtLeastOne)
{
    const token_bucket::time_point t0{};
    token_bucket half(2.0, 1.0);
    EXPECT_EQ(half.take(t0), 0u);
    EXPECT_EQ(half.take(t0), 500u); // exactly 500 ms away: no extra millisecond

    token_bucket bucket(3.0, 1.0);
    EXPECT_EQ(bucket.take(t0), 0u);
    // The next token is 1/3 s away: 333.33 ms rounds up to 334.
    EXPECT_EQ(bucket.take(t0), 334u);
    // 333.5 ms later a sliver of the token is still missing: the hint
    // rounds it up to a whole millisecond instead of 0.
    EXPECT_EQ(bucket.take(t0 + std::chrono::microseconds(333000)), 1u);
    EXPECT_EQ(bucket.take(t0 + std::chrono::microseconds(333334)), 0u);

    token_bucket fast(10000.0, 1.0);
    EXPECT_EQ(fast.take(t0), 0u);
    EXPECT_EQ(fast.take(t0), 1u); // 0.1 ms away
}

TEST(TokenBucket, RateZeroAlwaysAdmits)
{
    const token_bucket::time_point t0{};
    token_bucket zero(0.0, 0.0);
    token_bucket zero_with_burst(0.0, 5.0);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(zero.take(t0), 0u);
        EXPECT_EQ(zero_with_burst.take(t0), 0u);
    }
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
