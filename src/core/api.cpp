#include "core/api.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "core/pert.h"
#include "util/error.h"
#include "util/strings.h"

namespace tsg {

namespace {

[[noreturn]] void bad(const std::string& message) { throw error("bad_request: " + message); }

/// Exact double spelling: the shortest %g form that re-parses to the same
/// bits, so request round-trips (parse . serialize == id) hold for every
/// epsilon/quantile value a client sends.
std::string double_spelling(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
    if (std::stod(buffer) == value) return buffer;
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::uint64_t field_u64(const json_value& v, const std::string& key)
{
    if (v.k != json_value::kind::number_v ||
        v.text.find_first_not_of("0123456789") != std::string::npos)
        bad("\"" + key + "\" must be a non-negative integer");
    try {
        return std::stoull(v.text);
    } catch (const std::exception&) {
        bad("\"" + key + "\" is out of range");
    }
}

double field_double(const json_value& v, const std::string& key)
{
    if (v.k != json_value::kind::number_v) bad("\"" + key + "\" must be a number");
    try {
        return std::stod(v.text);
    } catch (const std::exception&) {
        bad("\"" + key + "\" is out of range");
    }
}

bool field_bool(const json_value& v, const std::string& key)
{
    if (v.k != json_value::kind::bool_v) bad("\"" + key + "\" must be a bool");
    return v.boolean;
}

std::string field_string(const json_value& v, const std::string& key)
{
    if (v.k != json_value::kind::string_v) bad("\"" + key + "\" must be a string");
    return v.text;
}

rational field_rational(const json_value& v, const std::string& key)
{
    if (v.k == json_value::kind::string_v) return rational::parse(v.text);
    if (v.k == json_value::kind::number_v &&
        v.text.find_first_of(".eE") == std::string::npos)
        return rational::parse(v.text);
    bad("\"" + key + "\" must be an integer or a \"num/den\" string");
}

const char* solver_spelling(cycle_time_solver solver)
{
    switch (solver) {
    case cycle_time_solver::auto_select: return "auto";
    case cycle_time_solver::border_sweep: return "border";
    case cycle_time_solver::howard: return "howard";
    }
    return "auto";
}

cycle_time_solver parse_solver_name(const std::string& name)
{
    if (name == "auto") return cycle_time_solver::auto_select;
    if (name == "border") return cycle_time_solver::border_sweep;
    if (name == "howard") return cycle_time_solver::howard;
    bad("unknown solver '" + name + "' (use auto, border or howard)");
}

const char* mode_spelling(optimize_mode mode)
{
    switch (mode) {
    case optimize_mode::deterministic: return "deterministic";
    case optimize_mode::statistical: return "statistical";
    }
    return "deterministic";
}

optimize_mode parse_mode_name(const std::string& name)
{
    if (name == "deterministic") return optimize_mode::deterministic;
    if (name == "statistical") return optimize_mode::statistical;
    bad("unknown mode '" + name + "' (use deterministic or statistical)");
}

const char* delta_spelling(scenario_batch_options::delta_mode delta)
{
    switch (delta) {
    case scenario_batch_options::delta_mode::auto_detect: return "auto";
    case scenario_batch_options::delta_mode::dense: return "dense";
    case scenario_batch_options::delta_mode::sparse: return "sparse";
    }
    return "auto";
}

scenario_batch_options::delta_mode parse_delta_name(const std::string& name)
{
    if (name == "auto") return scenario_batch_options::delta_mode::auto_detect;
    if (name == "dense") return scenario_batch_options::delta_mode::dense;
    if (name == "sparse") return scenario_batch_options::delta_mode::sparse;
    bad("unknown delta mode '" + name + "' (use auto, dense or sparse)");
}

design_ref parse_design(const json_value& doc)
{
    if (doc.k != json_value::kind::object_v) bad("\"design\" must be an object");
    design_ref design;
    for (const auto& [key, value] : doc.members) {
        if (key == "id")
            design.id = field_string(value, key);
        else if (key == "version")
            design.version = field_u64(value, key);
        else if (key == "path")
            design.path = field_string(value, key);
        else if (key == "text")
            design.text = field_string(value, key);
        else
            bad("unknown design field \"" + key + "\"");
    }
    const int sources = (design.id.empty() ? 0 : 1) + (design.path.empty() ? 0 : 1) +
                        (design.text.empty() ? 0 : 1);
    if (sources > 1) bad("\"design\" must name at most one of id, path or text");
    return design;
}

request_options parse_options(const json_value& doc)
{
    if (doc.k != json_value::kind::object_v) bad("\"options\" must be an object");
    request_options options;
    for (const auto& [key, value] : doc.members) {
        if (key == "solver")
            options.solver = parse_solver_name(field_string(value, key));
        else if (key == "max_threads")
            options.max_threads = static_cast<unsigned>(field_u64(value, key));
        else if (key == "lane_width")
            options.lane_width = static_cast<unsigned>(field_u64(value, key));
        else if (key == "delta")
            options.delta = parse_delta_name(field_string(value, key));
        else if (key == "with_slack")
            options.with_slack = field_bool(value, key);
        else if (key == "with_witness")
            options.with_witness = field_bool(value, key);
        else if (key == "factor")
            options.factor = field_rational(value, key);
        else if (key == "samples")
            options.samples = field_u64(value, key);
        else if (key == "seed")
            options.seed = field_u64(value, key);
        else if (key == "spread")
            options.spread = field_rational(value, key);
        else if (key == "resolution")
            options.resolution = static_cast<std::int64_t>(field_u64(value, key));
        else if (key == "adaptive")
            options.adaptive = field_bool(value, key);
        else if (key == "epsilon")
            options.epsilon = field_double(value, key);
        else if (key == "quantile")
            options.quantile = field_double(value, key);
        else if (key == "round_samples")
            options.round_samples = field_u64(value, key);
        else if (key == "min_samples")
            options.min_samples = field_u64(value, key);
        else if (key == "criticality")
            options.criticality = field_bool(value, key);
        else if (key == "group_by_signal")
            options.group_by_signal = field_bool(value, key);
        else if (key == "mode")
            options.mode = parse_mode_name(field_string(value, key));
        else if (key == "budget")
            options.budget = field_rational(value, key);
        else if (key == "step")
            options.step = field_rational(value, key);
        else if (key == "target")
            options.target = field_rational(value, key);
        else if (key == "min_delay")
            options.min_delay = field_rational(value, key);
        else if (key == "k")
            options.k = field_u64(value, key);
        else if (key == "deadline_ms")
            options.deadline_ms = field_u64(value, key);
        else
            bad("unknown option \"" + key + "\"");
    }
    return options;
}

} // namespace

const char* request_kind_name(request_kind kind)
{
    switch (kind) {
    case request_kind::analyze: return "analyze";
    case request_kind::sweep: return "sweep";
    case request_kind::montecarlo: return "montecarlo";
    case request_kind::criticality: return "criticality";
    case request_kind::optimize: return "optimize";
    case request_kind::report_topk: return "report_topk";
    case request_kind::edit: return "edit";
    case request_kind::stats: return "stats";
    case request_kind::health: return "health";
    }
    return "analyze";
}

request_kind parse_request_kind(const std::string& name)
{
    if (name == "analyze") return request_kind::analyze;
    if (name == "sweep") return request_kind::sweep;
    if (name == "montecarlo") return request_kind::montecarlo;
    if (name == "criticality") return request_kind::criticality;
    if (name == "optimize") return request_kind::optimize;
    if (name == "report_topk") return request_kind::report_topk;
    if (name == "edit") return request_kind::edit;
    if (name == "stats") return request_kind::stats;
    if (name == "health") return request_kind::health;
    bad("unknown request kind '" + name +
        "' (use analyze, sweep, montecarlo, criticality, optimize, report_topk, "
        "edit, stats or health)");
}

// --- request_options views ---------------------------------------------------

scenario_batch_options request_options::to_batch_options() const
{
    scenario_batch_options batch;
    batch.max_threads = max_threads;
    batch.with_slack = with_slack;
    batch.with_witness = with_witness;
    batch.solver = solver;
    batch.lane_width = lane_width;
    batch.delta = delta;
    return batch;
}

corner_sweep_options request_options::to_corner_sweep_options() const
{
    corner_sweep_options sweep;
    sweep.factor = factor;
    return sweep;
}

monte_carlo_options request_options::to_monte_carlo_options() const
{
    monte_carlo_options mc;
    mc.samples = samples;
    mc.seed = seed;
    mc.spread = spread;
    mc.resolution = resolution;
    return mc;
}

stats_options request_options::to_stats_options(request_kind kind) const
{
    stats_options stats;
    stats.solver = solver;
    stats.lane_width = lane_width;
    stats.max_threads = max_threads;
    stats.quantile = quantile;
    if (kind == request_kind::criticality || criticality) stats.criticality = true;
    if (kind == request_kind::criticality || group_by_signal) stats.group_by_signal = true;
    if (adaptive) {
        stats.epsilon = epsilon > 0.0 ? epsilon : 0.05;
        stats.max_samples = samples; // the tool contract: --samples caps the run
        stats.min_samples = min_samples;
    }
    stats.round_samples = round_samples;
    return stats;
}

analysis_options request_options::to_analysis_options() const
{
    analysis_options analysis;
    analysis.solver = solver;
    analysis.max_threads = max_threads;
    return analysis;
}

optimize_options request_options::to_optimize_options() const
{
    optimize_options opt;
    opt.mode = mode;
    opt.budget = budget;
    opt.step = step;
    opt.target = target;
    opt.min_delay = min_delay;
    opt.solver = solver;
    opt.max_threads = max_threads;
    opt.mc = to_monte_carlo_options();
    opt.stats.solver = solver;
    opt.stats.lane_width = lane_width;
    opt.stats.max_threads = max_threads;
    opt.stats.epsilon = epsilon > 0.0 ? epsilon : 0.05;
    opt.stats.max_samples = samples; // the tool contract: --samples caps each run
    opt.stats.min_samples = min_samples;
    opt.stats.round_samples = round_samples;
    return opt;
}

topk_options request_options::to_topk_options() const
{
    topk_options topk;
    topk.mode = mode;
    topk.k = k;
    topk.samples = samples;
    topk.mc = to_monte_carlo_options();
    topk.solver = solver;
    topk.max_threads = max_threads;
    topk.lane_width = lane_width;
    return topk;
}

// --- codec -------------------------------------------------------------------

analysis_request parse_analysis_request(const json_value& doc)
{
    if (doc.k != json_value::kind::object_v) bad("request must be a JSON object");
    analysis_request request;
    bool have_version = false;
    bool have_kind = false;
    bool have_edits = false;
    for (const auto& [key, value] : doc.members) {
        if (key == "api_version") {
            const std::uint64_t version = field_u64(value, key);
            if (version != static_cast<std::uint64_t>(tsg_api_version))
                throw error("unsupported_version: this build speaks api_version " +
                            std::to_string(tsg_api_version) + ", request carries " +
                            value.text);
            request.api_version = static_cast<int>(version);
            have_version = true;
        } else if (key == "id") {
            request.id = field_string(value, key);
        } else if (key == "kind") {
            request.kind = parse_request_kind(field_string(value, key));
            have_kind = true;
        } else if (key == "design") {
            request.design = parse_design(value);
        } else if (key == "options") {
            request.options = parse_options(value);
        } else if (key == "edits") {
            request.edits = value;
            have_edits = true;
        } else {
            bad("unknown request field \"" + key + "\"");
        }
    }
    if (!have_version) bad("request needs \"api_version\"");
    if (!have_kind) bad("request needs \"kind\"");
    if (request.kind == request_kind::edit) {
        if (!have_edits) bad("edit requests need an \"edits\" script");
    } else if (have_edits) {
        bad("\"edits\" is only valid on edit requests");
    }
    return request;
}

analysis_request parse_analysis_request(const std::string& text)
{
    return parse_analysis_request(json_parse(text, "request"));
}

json_value analysis_request_json(const analysis_request& request)
{
    json_value doc = json_value::object();
    doc.set("api_version", json_value::number(std::int64_t{request.api_version}));
    doc.set("id", json_value::string(request.id));
    doc.set("kind", json_value::string(request_kind_name(request.kind)));

    json_value design = json_value::object();
    design.set("id", json_value::string(request.design.id));
    design.set("version", json_value::number(std::uint64_t{request.design.version}));
    design.set("path", json_value::string(request.design.path));
    design.set("text", json_value::string(request.design.text));
    doc.set("design", std::move(design));

    const request_options& o = request.options;
    json_value options = json_value::object();
    options.set("solver", json_value::string(solver_spelling(o.solver)));
    options.set("max_threads", json_value::number(std::uint64_t{o.max_threads}));
    options.set("lane_width", json_value::number(std::uint64_t{o.lane_width}));
    options.set("delta", json_value::string(delta_spelling(o.delta)));
    options.set("with_slack", json_value::boolean_value(o.with_slack));
    options.set("with_witness", json_value::boolean_value(o.with_witness));
    options.set("factor", json_value::string(o.factor.str()));
    options.set("samples", json_value::number(std::uint64_t{o.samples}));
    options.set("seed", json_value::number(std::uint64_t{o.seed}));
    options.set("spread", json_value::string(o.spread.str()));
    options.set("resolution", json_value::number(std::int64_t{o.resolution}));
    options.set("adaptive", json_value::boolean_value(o.adaptive));
    options.set("epsilon", json_value::raw_number(double_spelling(o.epsilon)));
    options.set("quantile", json_value::raw_number(double_spelling(o.quantile)));
    options.set("round_samples", json_value::number(std::uint64_t{o.round_samples}));
    options.set("min_samples", json_value::number(std::uint64_t{o.min_samples}));
    options.set("criticality", json_value::boolean_value(o.criticality));
    options.set("group_by_signal", json_value::boolean_value(o.group_by_signal));
    options.set("mode", json_value::string(mode_spelling(o.mode)));
    options.set("budget", json_value::string(o.budget.str()));
    options.set("step", json_value::string(o.step.str()));
    options.set("target", json_value::string(o.target.str()));
    options.set("min_delay", json_value::string(o.min_delay.str()));
    options.set("k", json_value::number(std::uint64_t{o.k}));
    options.set("deadline_ms", json_value::number(std::uint64_t{o.deadline_ms}));
    doc.set("options", std::move(options));

    if (request.kind == request_kind::edit) doc.set("edits", request.edits);
    return doc;
}

namespace {

/// The error object as json_value::write() renders it:
/// {"code": ..., "message": ...[, "retry_after_ms": N]}.
void append_error_object(std::string& out, const api_error& error)
{
    out += "{\"code\": ";
    out += json_quote(error.code);
    out += ", \"message\": ";
    out += json_quote(error.message);
    if (error.retry_after_ms > 0) {
        out += ", \"retry_after_ms\": ";
        out += std::to_string(error.retry_after_ms);
    }
    out += '}';
}

} // namespace

std::string analysis_response_json(const analysis_response& response)
{
    // The envelope is written directly in json_value::write()'s layout and
    // the payload spliced in compacted, so an ok response builds no tree.
    std::string out;
    out.reserve(response.payload.size() + 160);
    out += "{\"id\": ";
    out += json_quote(response.id);
    out += response.ok ? ", \"ok\": true" : ", \"ok\": false";
    out += ", \"elapsed_ms\": ";
    out += double_spelling(response.elapsed_ms);
    if (response.ok) {
        out += ", \"design_version\": ";
        out += std::to_string(response.design_version);
        out += ", \"scenarios\": ";
        out += std::to_string(response.scenarios);
        out += response.coalesced ? ", \"coalesced\": true" : ", \"coalesced\": false";
        out += ", \"payload\": ";
        out += json_compact(response.payload, "payload");
    } else {
        out += ", \"error\": ";
        append_error_object(out, response.error);
    }
    out += '}';
    return out;
}

std::string api_error_json(const api_error& error)
{
    std::string out = "{\"error\": ";
    append_error_object(out, error);
    out += '}';
    return out;
}

api_error classify_error(const std::string& diagnostic, const std::string& fallback)
{
    static const char* const codes[] = {"bad_request",       "unsupported_version",
                                        "unknown_design",    "unknown_version",
                                        "invalid_model",     "invalid_request",
                                        "unsupported",       "overloaded",
                                        "rate_limited",      "draining",
                                        "deadline_exceeded", "internal"};
    for (const char* code : codes) {
        const std::string prefix = std::string(code) + ": ";
        if (starts_with(diagnostic, prefix))
            return {code, diagnostic.substr(prefix.size())};
    }
    return {fallback, diagnostic};
}

// --- payload renderers -------------------------------------------------------

namespace {

template <typename T>
void append_number_array(std::ostringstream& os, const std::vector<T>& values)
{
    os << "[";
    for (std::size_t k = 0; k < values.size(); ++k) os << (k ? ", " : "") << values[k];
    os << "]";
}

/// Finite doubles render as numbers; infinities (an unconverged CI on a
/// one-sample run) as null — JSON has no inf literal.
std::string json_double(double value, int decimals = 6)
{
    if (!std::isfinite(value)) return "null";
    return format_double(value, decimals);
}

void append_model_header(std::ostringstream& os, const std::string& command,
                         const std::string& solver, const signal_graph& sg,
                         const rational& nominal)
{
    os << "  \"command\": " << json_quote(command) << ",\n";
    os << "  \"solver\": " << json_quote(solver) << ",\n";
    os << "  \"model\": {\"events\": " << sg.event_count()
       << ", \"arcs\": " << sg.arc_count()
       << ", \"cyclic\": " << (sg.repetitive_events().empty() ? "false" : "true")
       << "},\n";
    os << "  \"nominal_cycle_time\": {\"exact\": " << json_quote(nominal.str())
       << ", \"value\": " << format_double(nominal.to_double(), 6) << "},\n";
}

} // namespace

std::string scenario_batch_json(const std::string& command, const std::string& solver,
                                const signal_graph& sg, const rational& nominal,
                                const std::vector<scenario>& scenarios,
                                const scenario_batch_result& batch)
{
    std::ostringstream os;
    os << "{\n";
    append_model_header(os, command, solver, sg, nominal);
    os << "  \"aggregate\": {\n";
    os << "    \"scenarios\": " << batch.outcomes.size() << ",\n";
    os << "    \"min\": {\"exact\": " << json_quote(batch.min_cycle_time.str())
       << ", \"value\": " << format_double(batch.min_cycle_time.to_double(), 6)
       << ", \"label\": " << json_quote(scenarios[batch.min_index].label) << "},\n";
    os << "    \"max\": {\"exact\": " << json_quote(batch.max_cycle_time.str())
       << ", \"value\": " << format_double(batch.max_cycle_time.to_double(), 6)
       << ", \"label\": " << json_quote(scenarios[batch.max_index].label) << "},\n";
    os << "    \"mean_value\": " << format_double(batch.mean_cycle_time, 6) << ",\n";
    os << "    \"rational_fallbacks\": " << batch.fallback_count << ",\n";
    os << "    \"engine\": {\"lane_groups\": " << batch.lane_groups
       << ", \"lane_scenarios\": " << batch.lane_scenarios
       << ", \"lane_evictions\": " << batch.lane_evictions
       << ", \"scalar_scenarios\": " << batch.scalar_scenarios
       << ", \"sparse_scenarios\": " << batch.sparse_scenarios
       << ", \"sparse_arcs_touched\": " << batch.sparse_arcs_touched
       << ", \"dense_sweep_arcs\": " << batch.dense_sweep_arcs << "},\n";
    os << "    \"criticality_count\": ";
    append_number_array(os, batch.criticality_count);
    os << ",\n";
    os << "    \"critical_cycles\": [";
    for (std::size_t k = 0; k < batch.critical_cycles.size(); ++k) {
        const critical_cycle_stat& stat = batch.critical_cycles[k];
        os << (k ? ", " : "") << "{\"arcs\": ";
        append_number_array(os, stat.arcs);
        os << ", \"count\": " << stat.count
           << ", \"first_label\": " << json_quote(scenarios[stat.first_index].label) << "}";
    }
    os << "]\n  },\n";
    os << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
        const scenario_outcome& o = batch.outcomes[i];
        os << "    {\"label\": " << json_quote(scenarios[i].label)
           << ", \"cycle_time\": " << json_quote(o.cycle_time.str())
           << ", \"value\": " << format_double(o.cycle_time.to_double(), 6)
           << ", \"fixed_point\": " << (o.fixed_point ? "true" : "false")
           << ", \"critical_arcs\": ";
        append_number_array(os, o.critical_arcs);
        os << ", \"critical_cycle\": ";
        append_number_array(os, o.critical_cycle);
        os << "}" << (i + 1 < batch.outcomes.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string statistics_json(const std::string& command, const std::string& solver,
                            const signal_graph& sg, const stats_run_result& run,
                            const stats_options& options)
{
    const stats_accumulator& st = run.stats;
    const double z = options.confidence_z;

    std::ostringstream os;
    os << "{\n";
    append_model_header(os, command, solver, sg, run.nominal_cycle_time);
    os << "  \"statistics\": {\n";
    os << "    \"samples\": " << st.count() << ",\n";
    os << "    \"rounds\": " << run.rounds << ",\n";
    os << "    \"adaptive\": " << (run.adaptive ? "true" : "false") << ",\n";
    os << "    \"converged\": " << (run.converged ? "true" : "false") << ",\n";
    std::string target = "mean";
    if (options.quantile >= 0.0) {
        target = "q";
        target += format_double(options.quantile, 4);
    }
    os << "    \"target\": " << json_quote(target) << ",\n";
    os << "    \"epsilon\": " << json_double(run.target_half_width) << ",\n";
    os << "    \"ci_half_width\": " << json_double(run.achieved_half_width) << ",\n";
    os << "    \"confidence_z\": " << json_double(z) << ",\n";
    os << "    \"mean\": " << json_double(st.mean()) << ",\n";
    os << "    \"stddev\": " << json_double(st.stddev()) << ",\n";
    os << "    \"variance\": " << json_double(st.variance()) << ",\n";
    os << "    \"mean_ci_half_width\": " << json_double(st.mean_ci_half_width(z)) << ",\n";
    os << "    \"min\": {\"exact\": " << json_quote(st.min_cycle_time().str())
       << ", \"value\": " << format_double(st.min_cycle_time().to_double(), 6)
       << ", \"sample\": " << st.min_index() << "},\n";
    os << "    \"max\": {\"exact\": " << json_quote(st.max_cycle_time().str())
       << ", \"value\": " << format_double(st.max_cycle_time().to_double(), 6)
       << ", \"sample\": " << st.max_index() << "},\n";
    os << "    \"quantiles\": {\"p50\": " << json_double(st.quantile(0.50))
       << ", \"p95\": " << json_double(st.quantile(0.95))
       << ", \"p99\": " << json_double(st.quantile(0.99)) << "},\n";
    os << "    \"histogram\": {\"lo\": " << json_quote(st.histogram_lo().str())
       << ", \"hi\": " << json_quote(st.histogram_hi().str())
       << ", \"bins\": " << st.histogram().size() << ", \"underflow\": " << st.underflow()
       << ", \"overflow\": " << st.overflow() << ", \"counts\": ";
    append_number_array(os, st.histogram());
    os << "},\n";
    os << "    \"rational_fallbacks\": " << st.fallback_count() << ",\n";
    os << "    \"engine\": {\"lane_groups\": " << run.lane_groups
       << ", \"lane_scenarios\": " << run.lane_scenarios
       << ", \"lane_evictions\": " << run.lane_evictions
       << ", \"scalar_scenarios\": " << run.scalar_scenarios << "}";

    // Criticality: every arc that was ever critical, most probable first
    // (ties: ascending arc id) — the probabilistic analogue of the batch
    // criticality_count.
    const std::vector<std::uint64_t>& crit = st.criticality_count();
    std::vector<arc_id> critical;
    for (arc_id a = 0; a < crit.size(); ++a)
        if (crit[a] > 0) critical.push_back(a);
    std::stable_sort(critical.begin(), critical.end(), [&](arc_id a, arc_id b) {
        return crit[a] > crit[b];
    });
    if (!critical.empty()) {
        os << ",\n    \"criticality\": [";
        for (std::size_t k = 0; k < critical.size(); ++k) {
            const arc_id a = critical[k];
            os << (k ? ", " : "") << "{\"arc\": " << a << ", \"count\": " << crit[a]
               << ", \"probability\": " << json_double(st.criticality_probability(a))
               << ", \"ci_half_width\": " << json_double(st.criticality_ci_half_width(a, z))
               << "}";
        }
        os << "]";
    }

    // Per-gate (per-signal) criticality, when the run grouped arcs.
    const std::vector<std::string>& gates = st.group_names();
    if (!gates.empty()) {
        const std::vector<std::uint64_t>& counts = st.group_criticality_count();
        std::vector<std::size_t> order(gates.size());
        for (std::size_t g = 0; g < gates.size(); ++g) order[g] = g;
        std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            if (counts[a] != counts[b]) return counts[a] > counts[b];
            return gates[a] < gates[b];
        });
        os << ",\n    \"gates\": [";
        for (std::size_t k = 0; k < order.size(); ++k) {
            const std::size_t g = order[k];
            os << (k ? ", " : "") << "{\"gate\": " << json_quote(gates[g])
               << ", \"count\": " << counts[g]
               << ", \"probability\": " << json_double(st.group_criticality_probability(g))
               << ", \"ci_half_width\": "
               << json_double(st.group_criticality_ci_half_width(g, z)) << "}";
        }
        os << "]";
    }

    os << "\n  }\n}\n";
    return os.str();
}

// --- edit scripts ------------------------------------------------------------

namespace {

std::uint32_t edit_field_index(const json_value& obj, const std::string& key)
{
    const json_value* v = obj.find(key);
    require(v != nullptr && v->k == json_value::kind::number_v,
            "edit script: edit needs a numeric \"" + key + "\"");
    require(v->text.find_first_not_of("0123456789") == std::string::npos,
            "edit script: \"" + key + "\" must be a non-negative integer");
    return static_cast<std::uint32_t>(std::stoul(v->text));
}

event_id edit_field_event(const json_value& obj, const std::string& key,
                          const signal_graph& sg)
{
    const json_value* v = obj.find(key);
    require(v != nullptr, "edit script: edit needs \"" + key + "\"");
    if (v->k == json_value::kind::string_v) return sg.event_by_name(v->text);
    return edit_field_index(obj, key);
}

rational edit_field_delay(const json_value& obj)
{
    const json_value* v = obj.find("delay");
    require(v != nullptr, "edit script: edit needs a \"delay\"");
    if (v->k == json_value::kind::string_v) return rational::parse(v->text);
    require(v->k == json_value::kind::number_v &&
                v->text.find_first_of(".eE") == std::string::npos,
            "edit script: \"delay\" must be an integer or a \"num/den\" string");
    return rational::parse(v->text);
}

bool edit_field_flag(const json_value& obj, const std::string& key, bool fallback)
{
    const json_value* v = obj.find(key);
    if (v == nullptr) return fallback;
    require(v->k == json_value::kind::bool_v, "edit script: \"" + key + "\" must be a bool");
    return v->boolean;
}

graph_edit parse_edit(const json_value& obj, const signal_graph& sg)
{
    require(obj.k == json_value::kind::object_v, "edit script: each edit must be an object");
    const json_value* op = obj.find("op");
    require(op != nullptr && op->k == json_value::kind::string_v,
            "edit script: each edit needs a string \"op\"");
    if (op->text == "add_arc")
        return graph_edit::add(edit_field_event(obj, "from", sg),
                               edit_field_event(obj, "to", sg), edit_field_delay(obj),
                               edit_field_flag(obj, "marked", false),
                               edit_field_flag(obj, "disengageable", false));
    if (op->text == "remove_arc") return graph_edit::remove(edit_field_index(obj, "arc"));
    if (op->text == "set_delay")
        return graph_edit::set_delay_of(edit_field_index(obj, "arc"),
                                        edit_field_delay(obj));
    if (op->text == "retarget")
        return graph_edit::retarget_to(edit_field_index(obj, "arc"),
                                       edit_field_event(obj, "from", sg),
                                       edit_field_event(obj, "to", sg));
    if (op->text == "set_marking")
        return graph_edit::set_marking_of(edit_field_index(obj, "arc"),
                                          edit_field_flag(obj, "marked", true));
    throw error("edit script: unknown op '" + op->text +
                "' (use add_arc, remove_arc, set_delay, retarget or set_marking)");
}

void append_exact(std::ostringstream& os, const rational& v)
{
    os << "{\"exact\": " << json_quote(v.str())
       << ", \"value\": " << format_double(v.to_double(), 6) << "}";
}

} // namespace

edit_script parse_edit_script(const json_value& doc, const signal_graph& sg)
{
    require(doc.k == json_value::kind::object_v, "edit script: top level must be an object");

    edit_script script;
    const auto parse_batch = [&](const json_value& batch, const std::string& fallback_label) {
        const json_value* edits = &batch;
        std::string label = fallback_label;
        if (batch.k == json_value::kind::object_v) {
            // {"label": ..., "edits": [...]} — a named batch.
            const json_value* named = batch.find("edits");
            require(named != nullptr, "edit script: a batch object needs \"edits\"");
            if (const json_value* l = batch.find("label"); l != nullptr) {
                require(l->k == json_value::kind::string_v,
                        "edit script: batch \"label\" must be a string");
                label = l->text;
            }
            edits = named;
        }
        require(edits->k == json_value::kind::array_v && !edits->items.empty(),
                "edit script: each batch must be a non-empty array of edits");
        edit_batch out;
        out.reserve(edits->items.size());
        for (const json_value& e : edits->items) out.push_back(parse_edit(e, sg));
        script.batches.push_back(std::move(out));
        script.labels.push_back(std::move(label));
    };

    if (const json_value* batches = doc.find("batches"); batches != nullptr) {
        require(batches->k == json_value::kind::array_v && !batches->items.empty(),
                "edit script: \"batches\" must be a non-empty array");
        for (std::size_t i = 0; i < batches->items.size(); ++i)
            parse_batch(batches->items[i], "batch " + std::to_string(i + 1));
    } else if (const json_value* edits = doc.find("edits"); edits != nullptr) {
        parse_batch(*edits, "batch 1");
    } else {
        throw error("edit script: top level needs \"batches\" or \"edits\"");
    }
    return script;
}

edit_script parse_edit_script(const std::string& text, const signal_graph& sg)
{
    return parse_edit_script(json_parse(text, "edit script"), sg);
}

std::vector<edit_batch_status> run_edit_script(incremental_engine& eng,
                                               const edit_script& script)
{
    std::vector<edit_batch_status> statuses(script.batches.size());
    for (std::size_t i = 0; i < script.batches.size(); ++i) {
        edit_batch_status& st = statuses[i];
        try {
            eng.apply(script.batches[i]);
        } catch (const error& e) {
            st.message = e.what(); // rejected: the engine rolled back
            continue;
        }
        st.applied = true;
        st.cyclic = !eng.graph().repetitive_events().empty();
        st.cycle_time =
            st.cyclic ? eng.analyze_warm().cycle_time : analyze_pert(eng.compiled()).makespan;
    }
    return statuses;
}

std::string edit_run_json(incremental_engine& eng, const edit_script& script,
                          const rational& nominal, bool nominal_cyclic,
                          const std::vector<edit_batch_status>& statuses)
{
    const signal_graph& sg = eng.graph();
    std::ostringstream os;
    os << "{\n";
    os << "  \"command\": \"edit\",\n";
    os << "  \"model\": {\"events\": " << sg.event_count()
       << ", \"arcs\": " << sg.live_arc_count() << ", \"tokens\": " << sg.token_count()
       << ", \"cyclic\": " << (sg.repetitive_events().empty() ? "false" : "true")
       << "},\n";
    os << "  \"nominal\": {\"cyclic\": " << (nominal_cyclic ? "true" : "false")
       << ", \"cycle_time\": ";
    append_exact(os, nominal);
    os << "},\n";

    os << "  \"batches\": [\n";
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        const edit_batch_status& st = statuses[i];
        os << "    {\"label\": " << json_quote(script.labels[i])
           << ", \"edits\": " << script.batches[i].size()
           << ", \"applied\": " << (st.applied ? "true" : "false");
        if (st.applied) {
            os << ", \"cyclic\": " << (st.cyclic ? "true" : "false")
               << ", \"cycle_time\": ";
            append_exact(os, st.cycle_time);
        } else {
            // The normalized structured error object (core/api.h) — the
            // same {code, message} shape every other error path reports.
            const api_error err = classify_error(st.message);
            os << ", \"error\": {\"code\": " << json_quote(err.code)
               << ", \"message\": " << json_quote(err.message) << "}";
        }
        os << "}" << (i + 1 < statuses.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    // Final analysis on the edited structure: a cold solve, bit-identical
    // to a fresh finalize() + compile of the same graph.
    os << "  \"final\": {";
    if (sg.repetitive_events().empty()) {
        const pert_result pert = analyze_pert(eng.compiled());
        os << "\"cyclic\": false, \"makespan\": ";
        append_exact(os, pert.makespan);
        os << ", \"critical_path\": [";
        for (std::size_t i = 0; i < pert.critical_path.size(); ++i)
            os << (i ? ", " : "") << json_quote(sg.event(pert.critical_path[i]).name);
        os << "]";
    } else {
        const cycle_time_result ct = eng.analyze();
        os << "\"cyclic\": true, \"cycle_time\": ";
        append_exact(os, ct.cycle_time);
        os << ", \"critical_occurrence_period\": " << ct.critical_occurrence_period;
        os << ", \"critical_cycle\": [";
        for (std::size_t i = 0; i < ct.critical_cycle_events.size(); ++i)
            os << (i ? ", " : "") << json_quote(sg.event(ct.critical_cycle_events[i]).name);
        os << "], \"border_events\": [";
        for (std::size_t i = 0; i < sg.border_events().size(); ++i)
            os << (i ? ", " : "") << json_quote(sg.event(sg.border_events()[i]).name);
        os << "]";
    }
    os << "},\n";

    const incremental_counters& c = eng.counters();
    os << "  \"engine\": {\"batches_applied\": " << c.batches_applied
       << ", \"edits_applied\": " << c.edits_applied << ", \"undos\": " << c.undos
       << ",\n    \"arcs_repaired\": " << c.arcs_repaired
       << ", \"csr_compactions\": " << c.csr_compactions
       << ", \"topo_window\": " << c.topo_window
       << ",\n    \"sccs_recondensed\": " << c.sccs_recondensed
       << ", \"scc_window\": " << c.scc_window
       << ", \"scc_runs_skipped\": " << c.scc_runs_skipped
       << ",\n    \"core_rebuilds\": " << c.core_rebuilds
       << ", \"full_rebuilds\": " << c.full_rebuilds
       << ",\n    \"fixed_point_patches\": " << c.fixed_point_patches
       << ", \"fixed_point_recomputes\": " << c.fixed_point_recomputes
       << ",\n    \"warm_states_kept\": " << c.warm_states_kept
       << ", \"warm_states_dropped\": " << c.warm_states_dropped << "}\n";
    os << "}\n";
    return os.str();
}

// --- optimize / report_topk --------------------------------------------------

std::string optimize_json(const std::string& command, const std::string& solver,
                          const signal_graph& sg, const optimize_options& options,
                          const optimize_result& result)
{
    const bool statistical = result.mode == optimize_mode::statistical;
    std::ostringstream os;
    os << "{\n";
    append_model_header(os, command, solver, sg, result.initial_cycle_time);
    os << "  \"optimize\": {\n";
    os << "    \"mode\": " << json_quote(mode_spelling(result.mode)) << ",\n";
    os << "    \"budget\": ";
    append_exact(os, options.budget);
    os << ",\n    \"step\": ";
    append_exact(os, options.step);
    os << ",\n    \"target\": ";
    append_exact(os, options.target);
    os << ",\n    \"min_delay\": ";
    append_exact(os, options.min_delay);
    os << ",\n    \"budget_spent\": ";
    append_exact(os, result.budget_spent);
    os << ",\n    \"final_cycle_time\": ";
    append_exact(os, result.final_cycle_time);
    os << ",\n    \"target_reached\": " << (result.target_reached ? "true" : "false")
       << ",\n    \"exact\": " << (result.exact ? "true" : "false")
       << ",\n    \"evaluations\": " << result.evaluations
       << ",\n    \"candidates\": " << result.candidates << ",\n";
    if (statistical) {
        os << "    \"seed\": " << options.mc.seed << ",\n";
        os << "    \"samples\": " << result.samples << ",\n";
        os << "    \"initial_yield\": " << json_double(result.initial_yield)
           << ",\n    \"initial_yield_ci_half_width\": "
           << json_double(result.initial_yield_ci_half_width)
           << ",\n    \"final_yield\": " << json_double(result.final_yield)
           << ",\n    \"final_yield_ci_half_width\": "
           << json_double(result.final_yield_ci_half_width) << ",\n";
        os << "    \"steps\": [";
        for (std::size_t i = 0; i < result.steps.size(); ++i) {
            const optimize_step& step = result.steps[i];
            os << (i ? ", " : "") << "{\"arc\": " << step.arc << ", \"reduction\": "
               << json_quote(step.reduction.str()) << ", \"cycle_time_after\": ";
            append_exact(os, step.cycle_time_after);
            os << ", \"yield\": " << json_double(step.yield_after)
               << ", \"ci_half_width\": " << json_double(step.yield_ci_half_width)
               << ", \"samples\": " << step.samples << "}";
        }
        os << "],\n";
    }
    os << "    \"allocations\": [\n";
    for (std::size_t i = 0; i < result.allocations.size(); ++i) {
        const optimize_allocation& a = result.allocations[i];
        os << "      {\"arc\": " << a.arc
           << ", \"from\": " << json_quote(sg.event(sg.arc(a.arc).from).name)
           << ", \"to\": " << json_quote(sg.event(sg.arc(a.arc).to).name)
           << ", \"old_delay\": " << json_quote(a.old_delay.str())
           << ", \"new_delay\": " << json_quote(a.new_delay.str())
           << ", \"reduction\": " << json_quote(a.reduction.str()) << "}"
           << (i + 1 < result.allocations.size() ? "," : "") << "\n";
    }
    os << "    ],\n";
    // The same plan as an edit script body: apply via `tsg_tool edit` or an
    // edit request to commit it as a new design version.
    os << "    \"edits\": [";
    for (std::size_t i = 0; i < result.edits.size(); ++i) {
        const graph_edit& e = result.edits[i];
        os << (i ? ", " : "") << "{\"op\": \"set_delay\", \"arc\": " << e.arc
           << ", \"delay\": " << json_quote(e.delay.str()) << "}";
    }
    os << "]\n  }\n}\n";
    return os.str();
}

std::string topk_json(const std::string& command, const std::string& solver,
                      const signal_graph& sg, const topk_options& options,
                      const topk_result& result)
{
    const bool statistical = result.mode == optimize_mode::statistical;
    std::ostringstream os;
    os << "{\n";
    append_model_header(os, command, solver, sg, result.cycle_time);
    os << "  \"topk\": {\n";
    os << "    \"mode\": " << json_quote(mode_spelling(result.mode)) << ",\n";
    os << "    \"k\": " << options.k << ",\n";
    os << "    \"returned\": " << result.cycles.size() << ",\n";
    os << "    \"truncated\": " << (result.truncated ? "true" : "false") << ",\n";
    if (statistical)
        os << "    \"samples\": " << result.samples << ",\n";
    else
        os << "    \"solves\": " << result.solves << ",\n";
    os << "    \"cycles\": [\n";
    for (std::size_t i = 0; i < result.cycles.size(); ++i) {
        const topk_cycle& cycle = result.cycles[i];
        os << "      {\"rank\": " << (i + 1) << ",\n       \"ratio\": ";
        append_exact(os, cycle.ratio);
        os << ",\n       \"delay\": ";
        append_exact(os, cycle.delay);
        os << ",\n       \"tokens\": " << cycle.tokens << ",\n       \"slack\": ";
        append_exact(os, cycle.slack);
        os << ",\n       \"events\": [";
        for (std::size_t j = 0; j < cycle.events.size(); ++j)
            os << (j ? ", " : "") << json_quote(sg.event(cycle.events[j]).name);
        os << "],\n       \"arcs\": [";
        for (std::size_t j = 0; j < cycle.contributions.size(); ++j) {
            const topk_arc_contribution& c = cycle.contributions[j];
            os << (j ? ", " : "") << "{\"arc\": " << c.arc
               << ", \"delay\": " << json_quote(c.delay.str())
               << ", \"share\": " << json_double(c.share) << "}";
        }
        os << "]";
        if (statistical) {
            os << ",\n       \"count\": " << cycle.count
               << ", \"probability\": " << json_double(cycle.probability)
               << ", \"ci_half_width\": " << json_double(cycle.ci_half_width);
        }
        os << "}" << (i + 1 < result.cycles.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }\n}\n";
    return os.str();
}

// --- executors ---------------------------------------------------------------

namespace {

std::string analyze_payload(const analysis_request& request, const signal_graph& sg,
                            const compiled_graph& compiled)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"command\": \"analyze\",\n";
    os << "  \"solver\": " << json_quote(solver_spelling(request.options.solver)) << ",\n";
    os << "  \"model\": {\"events\": " << sg.event_count()
       << ", \"arcs\": " << sg.arc_count()
       << ", \"cyclic\": " << (sg.repetitive_events().empty() ? "false" : "true")
       << "},\n";
    if (sg.repetitive_events().empty()) {
        const pert_result pert = analyze_pert(compiled);
        os << "  \"makespan\": ";
        append_exact(os, pert.makespan);
        os << ",\n  \"critical_path\": [";
        for (std::size_t i = 0; i < pert.critical_path.size(); ++i)
            os << (i ? ", " : "") << json_quote(sg.event(pert.critical_path[i]).name);
        os << "]\n}\n";
    } else {
        const cycle_time_result result =
            analyze_cycle_time(compiled, request.options.to_analysis_options());
        os << "  \"cycle_time\": ";
        append_exact(os, result.cycle_time);
        os << ",\n  \"critical_occurrence_period\": " << result.critical_occurrence_period
           << ",\n  \"critical_cycle\": [";
        for (std::size_t i = 0; i < result.critical_cycle_events.size(); ++i)
            os << (i ? ", " : "")
               << json_quote(sg.event(result.critical_cycle_events[i]).name);
        os << "],\n  \"border_events\": [";
        for (std::size_t i = 0; i < sg.border_events().size(); ++i)
            os << (i ? ", " : "") << json_quote(sg.event(sg.border_events()[i]).name);
        os << "]\n}\n";
    }
    return os.str();
}

} // namespace

std::vector<scenario> request_scenarios(const analysis_request& request,
                                        const signal_graph& sg)
{
    switch (request.kind) {
    case request_kind::sweep:
        return corner_sweep_scenarios(sg, request.options.to_corner_sweep_options());
    case request_kind::montecarlo:
        return monte_carlo_scenarios(sg, request.options.to_monte_carlo_options());
    default:
        throw error("bad_request: request kind '" +
                    std::string(request_kind_name(request.kind)) +
                    "' has no scenario batch");
    }
}

std::string batch_payload_json(const analysis_request& request, const signal_graph& sg,
                               const rational& nominal,
                               const std::vector<scenario>& scenarios,
                               const scenario_batch_result& batch)
{
    return scenario_batch_json(request_kind_name(request.kind),
                               solver_spelling(request.options.solver), sg, nominal,
                               scenarios, batch);
}

std::string execute_analysis_payload(const analysis_request& request, const signal_graph& sg,
                                     const compiled_graph& compiled,
                                     const scenario_engine& engine,
                                     std::chrono::steady_clock::time_point deadline)
{
    const request_options& o = request.options;
    if (request.kind == request_kind::analyze) return analyze_payload(request, sg, compiled);

    require(request.kind == request_kind::sweep ||
                request.kind == request_kind::montecarlo ||
                request.kind == request_kind::criticality ||
                request.kind == request_kind::optimize ||
                request.kind == request_kind::report_topk,
            "bad_request: request kind '" +
                std::string(request_kind_name(request.kind)) +
                "' is not an analysis request");

    if (request.kind == request_kind::optimize) {
        optimize_options opt = o.to_optimize_options();
        opt.stats.deadline = deadline;
        const optimize_result result = run_optimize(sg, engine, opt);
        return optimize_json("optimize", solver_spelling(o.solver), sg, opt, result);
    }
    if (request.kind == request_kind::report_topk) {
        const topk_options topk = o.to_topk_options();
        const topk_result result = report_topk(sg, compiled, engine, topk);
        return topk_json("report_topk", solver_spelling(o.solver), sg, topk, result);
    }

    // Statistics paths: criticality probabilities and adaptive Monte Carlo
    // stream rounds through core/stats.h instead of materializing a batch.
    if (request.kind == request_kind::criticality || o.adaptive) {
        monte_carlo_options mc = o.to_monte_carlo_options();
        stats_options stats = o.to_stats_options(request.kind);
        stats.deadline = deadline;
        stats_run_result run;
        if (o.adaptive) {
            run = monte_carlo_adaptive(engine, sg, mc, stats);
        } else {
            mc.samples = o.samples;
            run = monte_carlo_statistics(engine, sg, mc, stats);
        }
        return statistics_json(request_kind_name(request.kind), solver_spelling(o.solver),
                               sg, run, stats);
    }

    const std::vector<scenario> scenarios = request_scenarios(request, sg);
    require(!scenarios.empty(),
            "invalid_model: no scenarios to evaluate (no perturbable arcs)");
    const rational nominal =
        engine.evaluate(compiled.delay(), /*with_slack=*/false, o.max_threads, o.solver)
            .cycle_time;
    const scenario_batch_result batch = engine.run(scenarios, o.to_batch_options());
    return batch_payload_json(request, sg, nominal, scenarios, batch);
}

std::string execute_edit_payload(const analysis_request& request, incremental_engine& engine)
{
    require(request.kind == request_kind::edit,
            "bad_request: execute_edit_payload needs an edit request");
    const edit_script script = parse_edit_script(request.edits, engine.graph());
    const bool nominal_cyclic = !engine.graph().repetitive_events().empty();
    const rational nominal = nominal_cyclic ? engine.analyze().cycle_time
                                            : analyze_pert(engine.compiled()).makespan;
    const std::vector<edit_batch_status> statuses = run_edit_script(engine, script);
    return edit_run_json(engine, script, nominal, nominal_cyclic, statuses);
}

analysis_response execute_request(const analysis_request& request, const signal_graph& sg)
{
    analysis_response response;
    response.id = request.id;
    try {
        if (request.kind == request_kind::edit) {
            incremental_engine engine(sg);
            response.payload = execute_edit_payload(request, engine);
        } else if (request.kind == request_kind::stats ||
                   request.kind == request_kind::health) {
            throw error("bad_request: " +
                        std::string(request_kind_name(request.kind)) +
                        " requests need the analysis service");
        } else {
            const compiled_graph compiled(sg);
            const scenario_engine engine(compiled);
            response.payload = execute_analysis_payload(request, sg, compiled, engine);
        }
        response.ok = true;
    } catch (const error& e) {
        response.error = classify_error(e.what());
    } catch (const std::exception& e) {
        response.error = {"internal", e.what()};
    }
    return response;
}

} // namespace tsg
