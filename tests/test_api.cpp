// Codec tests for the unified analysis API (core/api.h): round-trip
// identity (parse(serialize(r)) == r, and serialize(parse(text)) == text
// for canonical text), randomized request fuzzing, strict rejection of
// malformed documents with stable structured-error codes, and the
// classify_error contract the tool and the service both lean on.
//
// The response encoder splices payloads through json_compact instead of a
// json_value tree; the JsonCompact tests pin it to the tree path
// (json_parse(x).write()) over goldens, every payload kind, edge cases and
// fuzzed corruptions of them, and pin analysis_response_json to the
// tree-built envelope byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "util/json.h"
#include "util/prng.h"
#include "util/rational.h"

namespace tsg {
namespace {

analysis_request round_trip(const analysis_request& request)
{
    return parse_analysis_request(analysis_request_json(request).write());
}

TEST(ApiCodec, DefaultRequestRoundTrips)
{
    const analysis_request request;
    EXPECT_EQ(round_trip(request), request);
}

TEST(ApiCodec, EveryKindRoundTrips)
{
    for (const request_kind kind :
         {request_kind::analyze, request_kind::sweep, request_kind::montecarlo,
          request_kind::criticality, request_kind::optimize, request_kind::report_topk,
          request_kind::edit, request_kind::stats}) {
        analysis_request request;
        request.kind = kind;
        request.id = "req-" + std::string(request_kind_name(kind));
        if (kind == request_kind::edit)
            request.edits = json_parse(
                R"({"edits": [{"op": "set_delay", "arc": 0, "delay": "3/2"}]})");
        EXPECT_EQ(round_trip(request), request) << request_kind_name(kind);
    }
}

TEST(ApiCodec, LoadedOptionsRoundTrip)
{
    analysis_request request;
    request.kind = request_kind::montecarlo;
    request.id = "x41";
    request.design = {"chip", 7, "", ""};
    request.options.solver = cycle_time_solver::howard;
    request.options.max_threads = 3;
    request.options.lane_width = 16;
    request.options.with_slack = false;
    request.options.with_witness = false;
    request.options.factor = rational(3, 7);
    request.options.samples = 12345;
    request.options.seed = 0xdeadbeefULL;
    request.options.spread = rational(1, 3);
    request.options.resolution = 1024;
    request.options.adaptive = true;
    request.options.epsilon = 0.0125;
    request.options.quantile = 0.95;
    request.options.round_samples = 128;
    request.options.min_samples = 64;
    request.options.criticality = true;
    request.options.group_by_signal = true;
    request.options.mode = optimize_mode::statistical;
    request.options.budget = rational(7, 2);
    request.options.step = rational(1, 4);
    request.options.target = rational(19, 3);
    request.options.min_delay = rational(1, 8);
    request.options.k = 11;
    EXPECT_EQ(round_trip(request), request);
}

TEST(ApiCodec, CanonicalTextIsAFixedPoint)
{
    analysis_request request;
    request.kind = request_kind::sweep;
    request.design.path = "model.tsg";
    request.options.factor = rational(2, 9);
    const std::string text = analysis_request_json(request).write();
    EXPECT_EQ(analysis_request_json(parse_analysis_request(text)).write(), text);
}

TEST(ApiCodec, FuzzedRequestsRoundTrip)
{
    prng rng(20260808);
    const cycle_time_solver solvers[] = {cycle_time_solver::auto_select,
                                         cycle_time_solver::border_sweep,
                                         cycle_time_solver::howard};
    const request_kind kinds[] = {request_kind::analyze,  request_kind::sweep,
                                  request_kind::montecarlo, request_kind::criticality,
                                  request_kind::optimize, request_kind::report_topk,
                                  request_kind::stats};
    for (int i = 0; i < 300; ++i) {
        analysis_request request;
        request.kind = kinds[rng.index(std::size(kinds))];
        if (rng.chance(0.5)) request.id = "id" + std::to_string(rng.uniform(0, 1 << 20));
        switch (rng.uniform(0, 2)) {
        case 0: request.design.id = "d" + std::to_string(rng.uniform(0, 9)); break;
        case 1: request.design.path = "m" + std::to_string(rng.uniform(0, 9)) + ".tsg"; break;
        default: break;
        }
        request.design.version = static_cast<std::uint64_t>(rng.uniform(0, 5));
        request_options& o = request.options;
        o.solver = solvers[rng.index(std::size(solvers))];
        o.max_threads = static_cast<unsigned>(rng.uniform(0, 8));
        o.lane_width = static_cast<unsigned>(rng.chance(0.5) ? 0 : 1 << rng.uniform(1, 4));
        o.with_slack = rng.chance(0.5);
        o.with_witness = rng.chance(0.5);
        o.factor = rational(rng.uniform(1, 99), rng.uniform(1, 99));
        o.samples = static_cast<std::size_t>(rng.uniform(0, 100000));
        o.seed = rng.next();
        o.spread = rational(rng.uniform(0, 99), rng.uniform(1, 99));
        o.resolution = rng.uniform(1, 1 << 20);
        o.adaptive = rng.chance(0.3);
        o.epsilon = rng.chance(0.5) ? 0.05 : rng.uniform01();
        o.quantile = rng.chance(0.5) ? -1.0 : rng.uniform01();
        o.round_samples = static_cast<std::size_t>(rng.uniform(0, 1024));
        o.min_samples = static_cast<std::size_t>(rng.uniform(0, 1024));
        o.criticality = rng.chance(0.3);
        o.group_by_signal = rng.chance(0.3);
        o.mode = rng.chance(0.5) ? optimize_mode::deterministic
                                 : optimize_mode::statistical;
        o.budget = rational(rng.uniform(0, 99), rng.uniform(1, 99));
        o.step = rational(rng.uniform(0, 9), rng.uniform(1, 9));
        o.target = rational(rng.uniform(0, 99), rng.uniform(1, 99));
        o.min_delay = rational(rng.uniform(0, 9), rng.uniform(1, 9));
        o.k = static_cast<std::size_t>(rng.uniform(0, 64));
        EXPECT_EQ(round_trip(request), request) << "iteration " << i;
    }
}

/// Expects parsing to throw a diagnostic classified under `code`.
void expect_rejected(const std::string& text, const std::string& code)
{
    try {
        (void)parse_analysis_request(text);
        FAIL() << "accepted: " << text;
    } catch (const error& e) {
        EXPECT_EQ(classify_error(e.what(), "bad_request").code, code)
            << "diagnostic: " << e.what();
    }
}

TEST(ApiCodec, MalformedDocumentsRejectWithStableCodes)
{
    expect_rejected("", "bad_request");
    expect_rejected("not json", "bad_request");
    expect_rejected("[1, 2]", "bad_request");
    expect_rejected("{}", "bad_request");                       // missing api_version
    expect_rejected(R"({"api_version": 1})", "bad_request");    // missing kind
    expect_rejected(R"({"api_version": 2, "kind": "sweep"})", "unsupported_version");
    expect_rejected(R"({"api_version": 1, "kind": "dance"})", "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "nope": 1})", "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "options": {"bogus": 1}})",
                    "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "options": {"delta": "dense"}})",
                    "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "design": {"x": "y"}})",
                    "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "edit"})", "bad_request"); // no edits
    expect_rejected(
        R"({"api_version": 1, "kind": "sweep", "options": {"solver": "quantum"}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "optimize", "options": {"mode": "psychic"}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "optimize", "options": {"budget": 1.5}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "report_topk", "options": {"k": -3}})",
        "bad_request");
    // Out-of-range numerics must reject structurally, not leak std::stod /
    // std::stoull exceptions (found by the protocol fuzzer).
    expect_rejected(
        R"({"api_version": 1, "kind": "montecarlo", "options": {"epsilon": 1e309}})",
        "bad_request");
    expect_rejected(
        R"({"api_version": 1, "kind": "montecarlo",)"
        R"( "options": {"samples": 99999999999999999999}})",
        "bad_request");
}

TEST(ApiCodec, TruncationFuzzNeverCrashes)
{
    analysis_request request;
    request.kind = request_kind::montecarlo;
    request.id = "trunc";
    request.design.id = "chip";
    request.options.adaptive = true;
    request.options.quantile = 0.95;
    const std::string text = analysis_request_json(request).write();
    for (std::size_t cut = 0; cut < text.size(); ++cut) {
        const std::string prefix = text.substr(0, cut);
        try {
            const analysis_request parsed = parse_analysis_request(prefix);
            // Only the empty-suffix case can legally parse, and then it
            // must round-trip.
            EXPECT_EQ(analysis_request_json(parsed).write(), prefix);
        } catch (const error&) {
            // rejected with a diagnostic — the expected outcome
        }
    }
}

TEST(ApiCodec, MutationFuzzNeverCrashes)
{
    analysis_request request;
    request.kind = request_kind::sweep;
    request.design.id = "chip";
    const std::string text = analysis_request_json(request).write();
    prng rng(7);
    for (int i = 0; i < 500; ++i) {
        std::string mutated = text;
        const std::size_t pos = rng.index(mutated.size());
        mutated[pos] = static_cast<char>(rng.uniform(32, 126));
        try {
            const analysis_request parsed = parse_analysis_request(mutated);
            (void)analysis_request_json(parsed); // must serialize cleanly too
        } catch (const error&) {
        }
    }
}

TEST(ApiCodec, ClassifyErrorKeepsKnownCodesAndFallsBack)
{
    EXPECT_EQ(classify_error("bad_request: nope").code, "bad_request");
    EXPECT_EQ(classify_error("bad_request: nope").message, "nope");
    EXPECT_EQ(classify_error("unsupported_version: v9").code, "unsupported_version");
    EXPECT_EQ(classify_error("unknown_design: x").code, "unknown_design");
    EXPECT_EQ(classify_error("unknown_version: x").code, "unknown_version");
    EXPECT_EQ(classify_error("invalid_model: x").code, "invalid_model");
    EXPECT_EQ(classify_error("invalid_request: optimize needs a positive budget").code,
              "invalid_request");
    EXPECT_EQ(classify_error("unsupported: no delay model").code, "unsupported");
    // "unsupported" must not swallow "unsupported_version" (prefix match
    // includes the ": " separator).
    EXPECT_EQ(classify_error("unsupported_version: v9").message, "v9");
    EXPECT_EQ(classify_error("overloaded: queue full").code, "overloaded");
    EXPECT_EQ(classify_error("internal: x").code, "internal");
    EXPECT_EQ(classify_error("anything else").code, "invalid_model");
    EXPECT_EQ(classify_error("anything else").message, "anything else");
    EXPECT_EQ(classify_error("anything else", "bad_request").code, "bad_request");
}

TEST(ApiCodec, ResponseSerializationEmbedsPayloadAndErrors)
{
    analysis_response ok;
    ok.id = "r1";
    ok.ok = true;
    ok.payload = "{\n  \"command\": \"analyze\",\n  \"cycle_time\": {\"exact\": \"10\"}\n}\n";
    ok.design_version = 3;
    ok.scenarios = 16;
    ok.coalesced = true;
    const json_value ok_doc = json_parse(analysis_response_json(ok));
    EXPECT_EQ(ok_doc.find("id")->text, "r1");
    ASSERT_NE(ok_doc.find("payload"), nullptr);
    EXPECT_EQ(ok_doc.find("payload")->find("command")->text, "analyze");
    EXPECT_EQ(ok_doc.find("coalesced")->k, json_value::kind::bool_v);

    analysis_response bad;
    bad.id = "r2";
    bad.error = {"unknown_design", "no design named 'x'"};
    const json_value bad_doc = json_parse(analysis_response_json(bad));
    ASSERT_NE(bad_doc.find("error"), nullptr);
    EXPECT_EQ(bad_doc.find("error")->find("code")->text, "unknown_design");
    EXPECT_EQ(bad_doc.find("payload"), nullptr);
}

// --- tree-free response encoding ---------------------------------------------

/// Either the compact rendering or the diagnostic of a rejected document.
struct compact_outcome {
    bool ok = false;
    std::string text;
};

compact_outcome via_tree(const std::string& text)
{
    try {
        return {true, json_parse(text, "doc").write()};
    } catch (const error& e) {
        return {false, e.what()};
    }
}

compact_outcome via_compact(const std::string& text)
{
    try {
        return {true, json_compact(text, "doc")};
    } catch (const error& e) {
        return {false, e.what()};
    }
}

/// Asserts json_compact agrees with the tree path on `text` — the same
/// bytes, or the same diagnostic — and returns whether it compacted.
bool expect_compacts_like_tree(const std::string& text, const std::string& label)
{
    const compact_outcome tree = via_tree(text);
    const compact_outcome compact = via_compact(text);
    EXPECT_EQ(compact.ok, tree.ok) << label << "\n" << compact.text << "\n" << tree.text;
    EXPECT_EQ(compact.text, tree.text) << label;
    return tree.ok;
}

std::vector<std::pair<std::string, std::string>> golden_documents()
{
    std::vector<std::pair<std::string, std::string>> docs;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(TSG_SOURCE_DIR) + "/tests/golden")) {
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        docs.emplace_back(entry.path().filename().string(), text.str());
    }
    std::sort(docs.begin(), docs.end());
    return docs;
}

signal_graph random_design_256()
{
    random_sg_options opts;
    opts.events = 256;
    opts.extra_arcs = 256;
    opts.seed = 11;
    opts.border_limit = 4;
    return random_marked_graph(opts);
}

/// One request of every payload-producing kind against `sg`, executed
/// through execute_request (execute_analysis_payload / execute_edit_payload).
std::vector<analysis_response> every_kind_responses(const signal_graph& sg)
{
    std::vector<analysis_request> requests;
    const auto add = [&](request_kind kind, const std::string& id) -> analysis_request& {
        analysis_request& r = requests.emplace_back();
        r.kind = kind;
        r.id = id;
        r.options.solver = cycle_time_solver::border_sweep;
        r.options.samples = 64;
        return r;
    };
    add(request_kind::analyze, "analyze");
    add(request_kind::sweep, "sweep"); // slack + witness: the large one
    add(request_kind::montecarlo, "montecarlo").options.with_slack = false;
    add(request_kind::montecarlo, "adaptive").options.adaptive = true;
    add(request_kind::criticality, "criticality");
    analysis_request& opt = add(request_kind::optimize, "optimize");
    opt.options.budget = rational(2);
    opt.options.step = rational(1);
    add(request_kind::report_topk, "topk").options.k = 2;
    add(request_kind::report_topk, "topk_stat").options.mode = optimize_mode::statistical;
    analysis_request& edit = add(request_kind::edit, "edit");
    edit.edits = json_parse(R"({"batches": [[{"op": "set_delay", "arc": 0, "delay": "3/2"}],)"
                            R"( [{"op": "set_delay", "arc": 1, "delay": "7"}]]})");

    std::vector<analysis_response> responses;
    for (const analysis_request& request : requests) {
        analysis_response response = execute_request(request, sg);
        EXPECT_TRUE(response.ok) << request.id << ": " << response.error.message;
        response.elapsed_ms = 1.25;
        responses.push_back(std::move(response));
    }
    return responses;
}

/// every_kind_responses on the oscillator, or on a random n=256 design
/// (its full-outcome sweep payload is ~2.5 MB), computed once per binary.
const std::vector<analysis_response>& kind_responses(bool large)
{
    if (large) {
        static const std::vector<analysis_response> responses =
            every_kind_responses(random_design_256());
        return responses;
    }
    static const std::vector<analysis_response> responses =
        every_kind_responses(c_oscillator_sg());
    return responses;
}

std::vector<std::string> edge_case_documents()
{
    return {
        R"("a\/b")",                // escaped solidus decodes to '/'
        R"("\u0041")",              // the u-escape is not decoded: "u0041"
        R"(["\b", "\f", "\"", "\\", "\n", "\t", "\r"])",
        "\"raw\ttab and raw\rCR\"", // raw control characters get re-escaped
        "\"raw\nnewline\"",
        "{}",
        "[]",
        "{\"a\": {}, \"b\": [], \"c\": [[], [[1, 2], [3]], {}]}",
        "[1e10, -2.5E-3, 6.02e+23, 0, -0, 1.5]",
        "{\r\n  \"a\": 1,\r\n  \"b\": [true,\r\n false, null]\r\n}\r\n",
        " \t\n{\"nested\": {\"deeper\": {\"deepest\": [\"x\"]}}} \n",
        "1.2.3",     // raw spellings are kept, not validated
        "[+-, e]",   // (the consumer checks them)
        "{\"dup\": 1, \"dup\": 2}",
        // Rejected documents: both paths must throw the same diagnostic.
        "",
        "   ",
        "truex",
        "[1 2]",
        "[1,]",
        "{\"a\" 1}",
        "{\"a\": }",
        "{1: 2}",
        "\"unterminated",
        "\"dangling\\",
        "[\"a\"",
        "{\"a\": [}",
        "nul",
        "@",
        "{} {}",
    };
}

TEST(JsonCompact, SpellsTheTreeWritersEscapeQuirks)
{
    EXPECT_EQ(json_compact(R"("a\/b")"), R"("a/b")");
    EXPECT_EQ(json_compact(R"("\u0041")"), R"("u0041")");
    EXPECT_EQ(json_compact(R"("\b")"), R"("b")");
    EXPECT_EQ(json_compact("\"a\tb\rc\""), R"("a\tb\rc")");
    EXPECT_EQ(json_compact("{\r\n \"a\" :[1 ,{}],\"b\":[ ]}\r\n"),
              R"({"a": [1, {}], "b": []})");
    EXPECT_EQ(json_compact("[1e10,-2.5E-3]"), "[1e10, -2.5E-3]");
}

TEST(JsonCompact, MatchesTheTreeOnEdgeCases)
{
    for (const std::string& doc : edge_case_documents()) expect_compacts_like_tree(doc, doc);
}

TEST(JsonCompact, MatchesTheTreeOnEveryGoldenFile)
{
    const auto goldens = golden_documents();
    ASSERT_GE(goldens.size(), 10u);
    for (const auto& [name, text] : goldens)
        EXPECT_TRUE(expect_compacts_like_tree(text, name)) << name;
}

TEST(JsonCompact, MatchesTheTreeOnEveryPayloadKind)
{
    for (const bool large : {false, true})
        for (const analysis_response& response : kind_responses(large))
            EXPECT_TRUE(expect_compacts_like_tree(response.payload, response.id))
                << response.id << (large ? " (n=256)" : " (oscillator)");
}

TEST(JsonCompact, TruncatedAndMutatedDocumentsCompactOrFailIdentically)
{
    std::vector<std::string> corpus = edge_case_documents();
    for (auto& [name, text] : golden_documents()) corpus.push_back(text);
    for (const analysis_response& response : kind_responses(false))
        corpus.push_back(response.payload);

    // Structural characters dominate the mutation alphabet: they are what
    // moves a document between the grammar's branches.
    const std::string alphabet = "{}[]\",:\\/ \t\r\n0123456789+-.eEtrufalsn";
    prng rng(20261017);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (const std::string& doc : corpus) {
        const std::size_t stride = std::max<std::size_t>(1, doc.size() / 400);
        for (std::size_t cut = 0; cut < doc.size(); cut += stride)
            (expect_compacts_like_tree(doc.substr(0, cut), "truncated") ? accepted : rejected)++;
        for (int i = 0; i < 120 && !doc.empty(); ++i) {
            std::string mutated = doc;
            const std::size_t pos = rng.index(mutated.size());
            const char c = rng.chance(0.8) ? alphabet[rng.index(alphabet.size())]
                                            : static_cast<char>(rng.uniform(1, 255));
            switch (rng.uniform(0, 2)) {
            case 0: mutated[pos] = c; break;
            case 1: mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos), c); break;
            default: mutated.erase(pos, 1); break;
            }
            (expect_compacts_like_tree(mutated, "mutated") ? accepted : rejected)++;
        }
    }
    // Both outcomes were exercised in bulk.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

/// Reference spelling of elapsed_ms: the codec's shortest exact %g form.
std::string reference_double_spelling(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
    if (std::stod(buffer) == value) return buffer;
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

/// The envelope as a json_value tree around the parsed payload — the
/// encoder analysis_response_json replaced, kept as the byte reference.
std::string tree_response_json(const analysis_response& response)
{
    json_value doc = json_value::object();
    doc.set("id", json_value::string(response.id));
    doc.set("ok", json_value::boolean_value(response.ok));
    doc.set("elapsed_ms", json_value::raw_number(reference_double_spelling(response.elapsed_ms)));
    if (response.ok) {
        doc.set("design_version", json_value::number(std::uint64_t{response.design_version}));
        doc.set("scenarios", json_value::number(std::uint64_t{response.scenarios}));
        doc.set("coalesced", json_value::boolean_value(response.coalesced));
        doc.set("payload", json_parse(response.payload, "payload"));
    } else {
        json_value err = json_value::object();
        err.set("code", json_value::string(response.error.code));
        err.set("message", json_value::string(response.error.message));
        if (response.error.retry_after_ms > 0)
            err.set("retry_after_ms",
                    json_value::number(std::uint64_t{response.error.retry_after_ms}));
        doc.set("error", std::move(err));
    }
    return doc.write();
}

TEST(ApiCodec, ResponseEnvelopeIsByteEqualToTheTreeBuiltReference)
{
    std::vector<analysis_response> responses = kind_responses(false);
    responses.insert(responses.end(), kind_responses(true).begin(), kind_responses(true).end());

    const double elapsed[] = {0.0, 1.5, 0.1, 1.0 / 3.0, 1e-7, 12345.678, 2.5e9};
    const std::string ids[] = {"", "plain", "quote\"back\\slash", "tab\tnew\nline\rcr",
                               "\xc3\xa9"};
    std::size_t i = 0;
    for (analysis_response& r : responses) {
        r.id = ids[i % std::size(ids)];
        r.elapsed_ms = elapsed[i % std::size(elapsed)];
        r.design_version = i;
        r.scenarios = 7 * i;
        r.coalesced = i % 2 == 1;
        ++i;
    }

    analysis_response bad;
    bad.id = "e\"1";
    bad.elapsed_ms = 0.25;
    bad.error = {"unknown_design", "no design named 'x\\y'\n"};
    responses.push_back(bad);
    analysis_response limited = bad;
    limited.error = {"rate_limited", "over quota", 17};
    responses.push_back(limited);
    responses.push_back(analysis_response{}); // default: not ok, empty error

    for (const analysis_response& r : responses)
        EXPECT_EQ(analysis_response_json(r), tree_response_json(r)) << r.id;

    // An ok response with a malformed payload fails with the tree's diagnostic.
    analysis_response broken;
    broken.ok = true;
    broken.payload = "{\"a\": [1, 2}";
    std::string tree_error;
    std::string compact_error;
    try {
        (void)tree_response_json(broken);
    } catch (const error& e) {
        tree_error = e.what();
    }
    try {
        (void)analysis_response_json(broken);
    } catch (const error& e) {
        compact_error = e.what();
    }
    EXPECT_FALSE(tree_error.empty());
    EXPECT_EQ(compact_error, tree_error);

    EXPECT_EQ(api_error_json({"overloaded", "queue \"full\"", 3}),
              R"({"error": {"code": "overloaded", "message": "queue \"full\"", )"
              R"("retry_after_ms": 3}})");
}

} // namespace
} // namespace tsg
