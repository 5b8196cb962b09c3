// Codec tests for the unified analysis API (core/api.h): round-trip
// identity (parse(serialize(r)) == r, and serialize(parse(text)) == text
// for canonical text), randomized request fuzzing, strict rejection of
// malformed documents with stable structured-error codes, and the
// classify_error contract the tool and the service both lean on.
//
// Every payload is written by json_writer in its wire form and the
// response envelope splices it in unchanged, so the payload fuzz pins each
// renderer to the wire layout (json_parse(p).write() == p, no repeated
// key) and the envelope test pins analysis_response_json to the tree-built
// envelope byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
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

/// Expects parsing to throw a diagnostic classified under `code`, and
/// returns the diagnostic.
std::string expect_rejected(const std::string& text, const std::string& code)
{
    try {
        (void)parse_analysis_request(text);
        ADD_FAILURE() << "accepted: " << text;
    } catch (const error& e) {
        EXPECT_EQ(classify_error(e.what(), "bad_request").code, code)
            << "diagnostic: " << e.what();
        return e.what();
    }
    return {};
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
    // A value the option's own type cannot hold is out of range too, never
    // narrowed into a different option value.
    const std::pair<const char*, const char*> too_wide[] = {
        {"lane_width", "4294967304"},          // 2^32 + 8
        {"max_threads", "4294967297"},         // 2^32 + 1
        {"resolution", "9223372036854775808"}, // 2^63
    };
    for (const auto& [field, value] : too_wide) {
        const std::string diagnostic = expect_rejected(
            std::string(R"({"api_version": 1, "kind": "montecarlo", "options": {")") + field +
                "\": " + value + "}}",
            "bad_request");
        EXPECT_NE(diagnostic.find(std::string("\"") + field + "\" is out of range"),
                  std::string::npos)
            << diagnostic;
    }
    // Malformed \u escapes.
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "id": "\u00g9"})", "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "id": "\ud83d"})", "bad_request");
    expect_rejected(R"({"api_version": 1, "kind": "sweep", "id": "\ude00"})", "bad_request");
}

TEST(ApiCodec, IdsSurviveEveryByteAndUnicodeEscapes)
{
    // Every byte value, escaped on the way out and decoded on the way back
    // in.
    analysis_request request;
    for (int b = 0; b < 256; ++b) request.id += static_cast<char>(b);
    const std::string text = analysis_request_json(request).write();
    for (const char c : text) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << text;
    EXPECT_EQ(parse_analysis_request(text).id, request.id);

    const analysis_request escaped =
        parse_analysis_request(R"({"api_version": 1, "kind": "analyze", "id": "caf\u00e9"})");
    EXPECT_EQ(escaped.id, "caf\xc3\xa9");
    analysis_response response;
    response.id = escaped.id + "\x01";
    EXPECT_EQ(json_parse(analysis_response_json(response)).find("id")->text, response.id);
    EXPECT_NE(analysis_response_json(response).find("\"id\": \"caf\xc3\xa9\\u0001\""),
              std::string::npos);
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
    ok.payload = R"({"command": "analyze", "cycle_time": {"exact": "10"}})";
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

// --- payloads and the response envelope ------------------------------------

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

    EXPECT_EQ(api_error_json({"overloaded", "queue \"full\"", 3}),
              R"({"error": {"code": "overloaded", "message": "queue \"full\"", )"
              R"("retry_after_ms": 3}})");
}

// --- payload fuzz -------------------------------------------------------------

/// Fails when an object anywhere in `v` repeats a key.
void expect_unique_keys(const json_value& v, const std::string& where)
{
    std::set<std::string> seen;
    for (const auto& [key, member] : v.members) {
        EXPECT_TRUE(seen.insert(key).second) << where << ": repeated key \"" << key << "\"";
        expect_unique_keys(member, where);
    }
    for (const json_value& item : v.items) expect_unique_keys(item, where);
}

/// An edit script of one to three batches of random edits on `sg`; some
/// batches are rejected (token-free cycles, arcs removed twice), and the
/// labels carry characters the writer must escape.
json_value random_edit_script(prng& rng, const signal_graph& sg)
{
    const char* const labels[] = {"plain", "quote\" back\\slash", "ctl\x01\x1f",
                                  "caf\xc3\xa9"};
    const auto event = [&] {
        return json_value::string(sg.event(static_cast<event_id>(rng.index(sg.event_count()))).name);
    };
    const auto arc = [&] { return json_value::number(std::uint64_t{rng.index(sg.arc_count())}); };
    json_value batches = json_value::array();
    for (std::int64_t b = rng.uniform(1, 3); b > 0; --b) {
        json_value edits = json_value::array();
        for (std::int64_t e = rng.uniform(1, 2); e > 0; --e) {
            json_value& edit = edits.push(json_value::object());
            const std::string delay = std::to_string(rng.uniform(0, 20)) + "/" +
                                      std::to_string(rng.uniform(1, 4));
            switch (rng.uniform(0, 3)) {
            case 0:
                edit.set("op", json_value::string("set_delay"));
                edit.set("arc", arc());
                edit.set("delay", json_value::string(delay));
                break;
            case 1:
                edit.set("op", json_value::string("add_arc"));
                edit.set("from", event());
                edit.set("to", event());
                edit.set("delay", json_value::string(delay));
                edit.set("marked", json_value::boolean_value(rng.chance(0.5)));
                break;
            case 2:
                edit.set("op", json_value::string("set_marking"));
                edit.set("arc", arc());
                edit.set("marked", json_value::boolean_value(rng.chance(0.5)));
                break;
            default:
                edit.set("op", json_value::string("remove_arc"));
                edit.set("arc", arc());
                break;
            }
        }
        json_value& batch = batches.push(json_value::object());
        batch.set("label", json_value::string(labels[rng.index(std::size(labels))]));
        batch.set("edits", std::move(edits));
    }
    json_value script = json_value::object();
    script.set("batches", std::move(batches));
    return script;
}

/// A seeded request of a random payload kind with small, random options.
analysis_request random_payload_request(prng& rng, const signal_graph& sg)
{
    const request_kind kinds[] = {request_kind::analyze,     request_kind::sweep,
                                  request_kind::montecarlo,  request_kind::criticality,
                                  request_kind::optimize,    request_kind::report_topk,
                                  request_kind::edit};
    const cycle_time_solver solvers[] = {cycle_time_solver::auto_select,
                                         cycle_time_solver::border_sweep,
                                         cycle_time_solver::howard};
    const unsigned lanes[] = {0, 1, 2, 4, 8, 16};
    analysis_request r;
    r.kind = kinds[rng.index(std::size(kinds))];
    request_options& o = r.options;
    o.solver = solvers[rng.index(std::size(solvers))];
    o.max_threads = static_cast<unsigned>(rng.uniform(1, 2));
    o.lane_width = lanes[rng.index(std::size(lanes))];
    o.with_slack = rng.chance(0.5);
    o.with_witness = rng.chance(0.5);
    o.factor = rational(rng.uniform(1, 5), 10);
    o.samples = static_cast<std::size_t>(rng.uniform(1, 64));
    o.seed = rng.next();
    o.spread = rational(rng.uniform(0, 3), 10);
    o.resolution = std::int64_t{1} << rng.uniform(0, 6);
    o.adaptive = r.kind == request_kind::montecarlo && rng.chance(0.5);
    o.epsilon = rng.chance(0.5) ? 0.05 : 0.01 + 0.5 * rng.uniform01();
    o.quantile = rng.chance(0.5) ? -1.0 : rng.uniform01();
    o.round_samples = static_cast<std::size_t>(8 * rng.uniform(0, 4));
    o.min_samples = static_cast<std::size_t>(rng.uniform(1, 32));
    o.criticality = rng.chance(0.3);
    o.group_by_signal = rng.chance(0.3);
    o.mode = rng.chance(0.5) ? optimize_mode::deterministic : optimize_mode::statistical;
    o.budget = rational(rng.uniform(1, 4));
    o.step = rational(1);
    o.target = rational(rng.uniform(0, 20));
    o.min_delay = rational(rng.uniform(0, 1));
    o.k = static_cast<std::size_t>(rng.uniform(1, 4));
    if (r.kind == request_kind::edit) r.edits = random_edit_script(rng, sg);
    return r;
}

TEST(PayloadFuzz, EveryPayloadIsWrittenInItsWireForm)
{
    random_sg_options opts;
    opts.events = 64;
    opts.extra_arcs = 64;
    opts.seed = 5;
    opts.border_limit = 4;
    const signal_graph designs[] = {c_oscillator_sg(), random_marked_graph(opts)};

    prng rng(20261017);
    std::map<std::string, std::size_t> ok_by_kind;
    for (int i = 0; i < 200; ++i) {
        const signal_graph& sg = designs[i % 2];
        const analysis_request request = random_payload_request(rng, sg);
        const analysis_response response = execute_request(request, sg);
        const std::string where = "request " + std::to_string(i) + " (" +
                                  request_kind_name(request.kind) + "): " +
                                  analysis_request_json(request).write();
        if (!response.ok) {
            // A refused request still answers with a structured code.
            EXPECT_NE(response.error.code, "internal") << where << ": " << response.error.message;
            continue;
        }
        ++ok_by_kind[request_kind_name(request.kind)];
        const json_value doc = json_parse(response.payload, "payload");
        EXPECT_EQ(doc.write(), response.payload) << where;
        expect_unique_keys(doc, where);
    }
    // Every kind produced payloads, not just refusals.
    EXPECT_EQ(ok_by_kind.size(), 7u);
    for (const auto& [kind, count] : ok_by_kind) EXPECT_GE(count, 5u) << kind;
}

} // namespace
} // namespace tsg
