// Golden-file tests for the tsg_tool JSON surface (analyze / sweep /
// montecarlo / criticality / optimize / topk / edit): the documents are
// rendered through the same unified-API executors the tool and the
// analysis service ship (core/api.h) and compared against committed
// goldens under tests/golden/.  Each golden holds the one-line wire
// document exactly as the tool prints it (without the trailing newline)
// and a response embeds it.
//
// The comparison normalizes both sides through a minimal JSON parser —
// object keys are sorted and numbers round-trip through double — so any
// value change (a different cycle time, a lost field, a renamed key)
// fails here, while the CI drift guard (regenerate, then git diff) pins
// the bytes themselves.
//
// Regenerating after an intentional format change:
//   TSG_UPDATE_GOLDENS=1 ./build/test_golden_json
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/compiled_graph.h"
#include "core/incremental.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "gen/oscillator.h"
#include "util/error.h"

namespace tsg {
namespace {

// --- minimal JSON parser producing a canonical rendering ---------------------

struct json_cursor {
    const std::string& text;
    std::size_t pos = 0;

    void skip_ws()
    {
        while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }
    char peek()
    {
        skip_ws();
        require(pos < text.size(), "json: unexpected end of input");
        return text[pos];
    }
    char take()
    {
        const char c = peek();
        ++pos;
        return c;
    }
    void expect(char c)
    {
        require(take() == c, std::string("json: expected '") + c + "'");
    }
};

std::string canonical_value(json_cursor& in);

std::string canonical_string(json_cursor& in)
{
    in.expect('"');
    std::string out = "\"";
    while (true) {
        require(in.pos < in.text.size(), "json: unterminated string");
        const char c = in.text[in.pos++];
        out += c;
        if (c == '\\') {
            require(in.pos < in.text.size(), "json: dangling escape");
            out += in.text[in.pos++];
        } else if (c == '"') {
            return out;
        }
    }
}

std::string canonical_number(json_cursor& in)
{
    in.skip_ws();
    const std::size_t start = in.pos;
    while (in.pos < in.text.size() &&
           (std::isdigit(static_cast<unsigned char>(in.text[in.pos])) ||
            std::string("+-.eE").find(in.text[in.pos]) != std::string::npos))
        ++in.pos;
    require(in.pos > start, "json: bad number");
    // Round-trip through double: "1.50", "1.5e0" and "1.5" all canonicalize
    // to one spelling, so formatting drift can't break the comparison.
    const double value = std::stod(in.text.substr(start, in.pos - start));
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
    return buffer;
}

std::string canonical_value(json_cursor& in)
{
    const char c = in.peek();
    if (c == '{') {
        in.expect('{');
        std::map<std::string, std::string> members; // sorted by key
        if (in.peek() != '}') {
            while (true) {
                const std::string key = canonical_string(in);
                in.expect(':');
                members[key] = canonical_value(in);
                if (in.peek() != ',') break;
                in.expect(',');
            }
        }
        in.expect('}');
        std::string out = "{";
        for (const auto& [key, value] : members) {
            if (out.size() > 1) out += ',';
            out += key;
            out += ':';
            out += value;
        }
        return out + "}";
    }
    if (c == '[') {
        in.expect('[');
        std::string out = "[";
        if (in.peek() != ']') {
            while (true) {
                if (out.size() > 1) out += ',';
                out += canonical_value(in);
                if (in.peek() != ',') break;
                in.expect(',');
            }
        }
        in.expect(']');
        return out + "]";
    }
    if (c == '"') return canonical_string(in);
    if (in.text.compare(in.pos, 4, "true") == 0) return in.pos += 4, "true";
    if (in.text.compare(in.pos, 5, "false") == 0) return in.pos += 5, "false";
    if (in.text.compare(in.pos, 4, "null") == 0) return in.pos += 4, "null";
    return canonical_number(in);
}

std::string canonical_json(const std::string& text)
{
    json_cursor in{text};
    const std::string out = canonical_value(in);
    in.skip_ws();
    require(in.pos == text.size(), "json: trailing garbage");
    return out;
}

// --- golden fixture plumbing -------------------------------------------------

std::string golden_path(const std::string& name)
{
    return std::string(TSG_SOURCE_DIR) + "/tests/golden/" + name;
}

void compare_against_golden(const std::string& name, const std::string& actual)
{
    const std::string path = golden_path(name);
    if (std::getenv("TSG_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden updated: " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (regenerate with TSG_UPDATE_GOLDENS=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(canonical_json(buffer.str()), canonical_json(actual))
        << "golden " << name << " drifted; if intentional, regenerate with "
        << "TSG_UPDATE_GOLDENS=1\n--- actual document ---\n"
        << actual;
}

/// Executes one API request against the built-in demo model — exactly the
/// pipeline `tsg_tool` and the analysis service run.
std::string demo_payload(const analysis_request& request)
{
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);
    return execute_analysis_payload(request, sg, compiled, engine);
}

/// A request with the fixture thread pin (deterministic howard witnesses).
analysis_request demo_request(request_kind kind, cycle_time_solver solver)
{
    analysis_request request;
    request.kind = kind;
    request.options.solver = solver;
    request.options.max_threads = 1;
    return request;
}

TEST(GoldenJson, AnalyzeBorderSolver)
{
    // The `tsg_tool analyze` surface: one nominal analysis with the
    // critical cycle and the border cut set.
    compare_against_golden(
        "analyze_border.json",
        demo_payload(demo_request(request_kind::analyze, cycle_time_solver::border_sweep)));
}

TEST(GoldenJson, SweepBorderSolver)
{
    analysis_request request =
        demo_request(request_kind::sweep, cycle_time_solver::border_sweep);
    request.options.factor = rational(1, 10);
    compare_against_golden("sweep_border.json", demo_payload(request));
}

TEST(GoldenJson, MonteCarloBorderSolver)
{
    analysis_request request =
        demo_request(request_kind::montecarlo, cycle_time_solver::border_sweep);
    request.options.samples = 5;
    request.options.seed = 1;
    request.options.spread = rational(1, 10);
    compare_against_golden("montecarlo_border.json", demo_payload(request));
}

TEST(GoldenJson, MonteCarloHowardSolver)
{
    // The --solver howard surface: same document shape, same cycle times,
    // solver echoed.
    analysis_request request =
        demo_request(request_kind::montecarlo, cycle_time_solver::howard);
    request.options.samples = 5;
    request.options.seed = 1;
    request.options.spread = rational(1, 10);
    compare_against_golden("montecarlo_howard.json", demo_payload(request));
}

TEST(GoldenJson, MonteCarloAdaptiveStatistics)
{
    // The statistics document of `tsg_tool montecarlo --adaptive`: adaptive
    // sampling on the demo model, pinned to the border solver (witness
    // choices are solver-specific, and goldens must not move under
    // TSG_SOLVER).  --samples caps the adaptive run (max_samples = 128).
    analysis_request request =
        demo_request(request_kind::montecarlo, cycle_time_solver::border_sweep);
    request.options.adaptive = true;
    request.options.epsilon = 0.05;
    request.options.round_samples = 32;
    request.options.min_samples = 32;
    request.options.samples = 128;
    request.options.seed = 1;
    request.options.spread = rational(1, 10);
    compare_against_golden("montecarlo_adaptive.json", demo_payload(request));
}

TEST(GoldenJson, CriticalityStatistics)
{
    // The `tsg_tool criticality` surface: per-arc and per-gate criticality
    // probabilities with confidence intervals.
    analysis_request request =
        demo_request(request_kind::criticality, cycle_time_solver::border_sweep);
    request.options.samples = 64;
    request.options.seed = 1;
    request.options.spread = rational(1, 10);
    compare_against_golden("criticality_border.json", demo_payload(request));
}

TEST(GoldenJson, OptimizeDeterministic)
{
    // The `tsg_tool optimize` surface: exact branch-and-bound allocation of
    // a delay-reduction budget, with the plan as a set_delay edit batch.
    analysis_request request =
        demo_request(request_kind::optimize, cycle_time_solver::border_sweep);
    request.options.budget = rational(2);
    request.options.step = rational(1);
    request.options.min_delay = rational(1);
    request.options.target = rational(8);
    compare_against_golden("optimize_deterministic.json", demo_payload(request));
}

TEST(GoldenJson, OptimizeStatistical)
{
    // The statistical optimizer: criticality-ranked yield maximization with
    // adaptive Monte Carlo, pinned to the border solver and one thread so
    // the sampled trajectory is reproducible.
    analysis_request request =
        demo_request(request_kind::optimize, cycle_time_solver::border_sweep);
    request.options.mode = optimize_mode::statistical;
    request.options.budget = rational(2);
    request.options.step = rational(1);
    request.options.target = rational(9);
    request.options.samples = 256;
    request.options.seed = 1;
    request.options.spread = rational(1, 10);
    request.options.epsilon = 0.05;
    compare_against_golden("optimize_statistical.json", demo_payload(request));
}

TEST(GoldenJson, TopKDeterministic)
{
    // The `tsg_tool topk` surface: exact ratio-ranked cycle report with
    // slack and per-arc contributions.
    analysis_request request =
        demo_request(request_kind::report_topk, cycle_time_solver::border_sweep);
    request.options.k = 3;
    compare_against_golden("topk_deterministic.json", demo_payload(request));
}

TEST(GoldenJson, TopKStatistical)
{
    // Witness-probability ranking across a seeded Monte Carlo batch.
    analysis_request request =
        demo_request(request_kind::report_topk, cycle_time_solver::border_sweep);
    request.options.mode = optimize_mode::statistical;
    request.options.k = 3;
    request.options.samples = 64;
    request.options.seed = 1;
    request.options.spread = rational(1, 10);
    compare_against_golden("topk_statistical.json", demo_payload(request));
}

TEST(GoldenJson, StructuredErrorShapes)
{
    // The normalized error surface: every failing path — codec rejection,
    // version mismatch, analysis failure — reports the same structured
    // {"error": {"code", "message"}} object.  Pinned so the shape (and the
    // stable code set) cannot drift silently.
    const auto classify = [](const std::string& request_text) {
        try {
            (void)parse_analysis_request(request_text);
            ADD_FAILURE() << "request unexpectedly accepted: " << request_text;
            return std::string();
        } catch (const error& e) {
            return api_error_json(classify_error(e.what()));
        }
    };
    std::string doc = "[";
    doc += classify("{\"api_version\": 1, \"kind\": \"sweep\", \"turbo\": true}");
    doc += ",\n";
    doc += classify("{\"api_version\": 99, \"kind\": \"sweep\"}");
    doc += ",\n";
    doc += classify("{\"api_version\": 1, \"kind\": \"frobnicate\"}");
    doc += ",\n";
    doc += api_error_json(classify_error("unknown_design: no design named 'x'"));
    doc += ",\n";
    doc += api_error_json(classify_error("no scenarios to evaluate"));
    doc += ",\n";
    // The optimize/report_topk taxonomy entries, raised by the real
    // executors: invalid_request (nonsensical parameters) and unsupported
    // (statistical mode without a delay model).
    const auto execute_error = [](analysis_request request) {
        try {
            (void)demo_payload(request);
            ADD_FAILURE() << "request unexpectedly succeeded";
            return std::string();
        } catch (const error& e) {
            return api_error_json(classify_error(e.what()));
        }
    };
    doc += execute_error(demo_request(request_kind::optimize,
                                      cycle_time_solver::border_sweep)); // no budget
    doc += ",\n";
    analysis_request zero_k =
        demo_request(request_kind::report_topk, cycle_time_solver::border_sweep);
    zero_k.options.k = 0;
    doc += execute_error(zero_k);
    doc += ",\n";
    analysis_request no_model =
        demo_request(request_kind::optimize, cycle_time_solver::border_sweep);
    no_model.options.mode = optimize_mode::statistical;
    no_model.options.budget = rational(1);
    no_model.options.target = rational(9);
    no_model.options.spread = rational(0);
    doc += execute_error(no_model);
    doc += "]\n";
    compare_against_golden("error_shapes.json", doc);
}

TEST(GoldenJson, EditScriptIncrementalCounters)
{
    // The `tsg_tool edit` surface: a JSON edit script driven through the
    // incremental engine, with per-batch re-analysis and the engine's
    // locality counters (arcs repaired, topo/SCC window sizes, warm states
    // kept) pinned in the golden.  The script exercises every interesting
    // path: warm-kept delay edits, a structural add (arc id 11), a rejected
    // batch (token-free cycle), and a marking flip.
    const signal_graph sg = c_oscillator_sg();
    const std::string script_text = R"({
      "batches": [
        {"label": "slow comparator",
         "edits": [{"op": "set_delay", "arc": 6, "delay": "7/2"}]},
        {"label": "tighten b loop",
         "edits": [{"op": "set_delay", "arc": 4, "delay": 9}]},
        {"label": "guard arc",
         "edits": [{"op": "add_arc", "from": "c+", "to": "c-", "delay": 5,
                    "marked": true}]},
        {"label": "illegal short circuit",
         "edits": [{"op": "add_arc", "from": "c+", "to": "a+", "delay": 1}]},
        {"label": "engage the guard",
         "edits": [{"op": "set_marking", "arc": 11, "marked": false},
                   {"op": "set_delay", "arc": 11, "delay": "11/2"}]}
      ]
    })";
    const edit_script script = parse_edit_script(script_text, sg);
    incremental_engine engine(sg);
    const rational nominal = engine.analyze().cycle_time;
    ASSERT_EQ(nominal, rational(10));
    const std::vector<edit_batch_status> statuses = run_edit_script(engine, script);
    ASSERT_EQ(statuses.size(), 5u);
    EXPECT_FALSE(statuses[3].applied) << "token-free cycle must be rejected";
    EXPECT_EQ(statuses[4].cycle_time, rational(18));
    compare_against_golden("edit_incremental.json",
                           edit_run_json(engine, script, nominal,
                                         /*nominal_cyclic=*/true, statuses));
}

TEST(GoldenJson, NormalizerToleratesFormattingButNotValues)
{
    // Key order and float spelling normalize away...
    EXPECT_EQ(canonical_json("{\"b\": 1.50, \"a\": [1, 2]}"),
              canonical_json("{\"a\":[1,2.0],\"b\":1.5e0}"));
    // ...value changes do not.
    EXPECT_NE(canonical_json("{\"a\": 1}"), canonical_json("{\"a\": 2}"));
    EXPECT_NE(canonical_json("{\"a\": 1}"), canonical_json("{\"b\": 1}"));
    // Malformed input is rejected, not silently accepted.
    EXPECT_THROW((void)canonical_json("{\"a\": }"), error);
    EXPECT_THROW((void)canonical_json("{} trailing"), error);
}

} // namespace
} // namespace tsg
