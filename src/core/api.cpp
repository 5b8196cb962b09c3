#include "core/api.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
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

/// field_u64 narrowed to T; a value T cannot hold is out of range.
template <typename T>
T field_count(const json_value& v, const std::string& key)
{
    constexpr auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    const std::uint64_t value = field_u64(v, key);
    if (value > max) bad("\"" + key + "\" is out of range (at most " + std::to_string(max) + ")");
    return static_cast<T>(value);
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
            options.max_threads = field_count<unsigned>(value, key);
        else if (key == "lane_width")
            options.lane_width = field_count<unsigned>(value, key);
        else if (key == "with_slack")
            options.with_slack = field_bool(value, key);
        else if (key == "with_witness")
            options.with_witness = field_bool(value, key);
        else if (key == "factor")
            options.factor = field_rational(value, key);
        else if (key == "samples")
            options.samples = field_count<std::size_t>(value, key);
        else if (key == "seed")
            options.seed = field_u64(value, key);
        else if (key == "spread")
            options.spread = field_rational(value, key);
        else if (key == "resolution")
            options.resolution = field_count<std::int64_t>(value, key);
        else if (key == "adaptive")
            options.adaptive = field_bool(value, key);
        else if (key == "epsilon")
            options.epsilon = field_double(value, key);
        else if (key == "quantile")
            options.quantile = field_double(value, key);
        else if (key == "round_samples")
            options.round_samples = field_count<std::size_t>(value, key);
        else if (key == "min_samples")
            options.min_samples = field_count<std::size_t>(value, key);
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
            options.k = field_count<std::size_t>(value, key);
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

/// {"code": ..., "message": ...[, "retry_after_ms": N]}
void write_error(json_writer& out, const api_error& error)
{
    out.begin_object().key("code").value(error.code).key("message").value(error.message);
    if (error.retry_after_ms > 0) out.key("retry_after_ms").value(error.retry_after_ms);
    out.end_object();
}

} // namespace

std::string analysis_response_json(const analysis_response& response)
{
    json_writer out;
    out.reserve(response.payload.size() + response.id.size() + 160)
        .begin_object()
        .key("id").value(response.id)
        .key("ok").value(response.ok)
        .key("elapsed_ms").raw(double_spelling(response.elapsed_ms));
    if (response.ok) {
        out.key("design_version").value(response.design_version)
            .key("scenarios").value(response.scenarios)
            .key("coalesced").value(response.coalesced)
            .key("payload").raw(response.payload);
    } else {
        write_error(out.key("error"), response.error);
    }
    return out.end_object().take();
}

std::string api_error_json(const api_error& error)
{
    json_writer out;
    out.begin_object();
    write_error(out.key("error"), error);
    return out.end_object().take();
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

/// The "exact" and "value" members of an exact quantity.
json_writer& exact_members(json_writer& out, const rational& v)
{
    return out.key("exact").value(v.str()).key("value").value(v.to_double());
}

/// {"exact": "num/den", "value": 1.5}
void write_exact(json_writer& out, const rational& v)
{
    exact_members(out.begin_object(), v).end_object();
}

/// An array of event names.
void write_event_names(json_writer& out, const signal_graph& sg,
                       const std::vector<event_id>& events)
{
    out.begin_array();
    for (const event_id e : events) out.value(sg.event(e).name);
    out.end_array();
}

/// The leading members of every analysis payload: command, solver, model.
void write_model_header(json_writer& out, const std::string& command,
                        const std::string& solver, const signal_graph& sg)
{
    out.key("command").value(command).key("solver").value(solver);
    out.key("model").begin_object()
        .key("events").value(sg.event_count())
        .key("arcs").value(sg.arc_count())
        .key("cyclic").value(!sg.repetitive_events().empty())
        .end_object();
}

/// The lane kernel's accounting (scenario_batch_result, stats_run_result).
template <typename Counts>
void write_lane_engine(json_writer& out, const Counts& c)
{
    out.key("engine").begin_object()
        .key("lane_groups").value(c.lane_groups)
        .key("lane_scenarios").value(c.lane_scenarios)
        .key("lane_evictions").value(c.lane_evictions)
        .key("scalar_scenarios").value(c.scalar_scenarios)
        .end_object();
}

/// An acyclic analysis: the PERT makespan and its critical path.
void write_pert(json_writer& out, const signal_graph& sg, const pert_result& pert)
{
    write_exact(out.key("makespan"), pert.makespan);
    write_event_names(out.key("critical_path"), sg, pert.critical_path);
}

/// A cyclic analysis: the cycle time, its critical cycle and the border
/// events the timing simulation started from.
void write_cycle_time(json_writer& out, const signal_graph& sg, const cycle_time_result& ct)
{
    write_exact(out.key("cycle_time"), ct.cycle_time);
    out.key("critical_occurrence_period").value(ct.critical_occurrence_period);
    write_event_names(out.key("critical_cycle"), sg, ct.critical_cycle_events);
    write_event_names(out.key("border_events"), sg, sg.border_events());
}

} // namespace

namespace {

/// batch_payload_json over any label lookup.
template <typename LabelOf>
std::string render_batch_payload(const analysis_request& request, const signal_graph& sg,
                                 const rational& nominal, LabelOf&& label_of,
                                 const scenario_batch_result& batch)
{
    json_writer out;
    out.begin_object();
    write_model_header(out, request_kind_name(request.kind),
                       solver_spelling(request.options.solver), sg);
    write_exact(out.key("nominal_cycle_time"), nominal);
    out.key("aggregate").begin_object().key("scenarios").value(batch.outcomes.size());
    exact_members(out.key("min").begin_object(), batch.min_cycle_time)
        .key("label").value(label_of(batch.min_index))
        .end_object();
    exact_members(out.key("max").begin_object(), batch.max_cycle_time)
        .key("label").value(label_of(batch.max_index))
        .end_object();
    out.key("mean_value").value(batch.mean_cycle_time)
        .key("rational_fallbacks").value(batch.fallback_count);
    write_lane_engine(out, batch);
    out.key("criticality_count").value(batch.criticality_count);
    out.key("critical_cycles").begin_array();
    for (const critical_cycle_stat& stat : batch.critical_cycles)
        out.begin_object()
            .key("arcs").value(stat.arcs)
            .key("count").value(stat.count)
            .key("first_label").value(label_of(stat.first_index))
            .end_object();
    out.end_array().end_object();
    out.key("scenarios").begin_array();
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
        const scenario_outcome& o = batch.outcomes[i];
        out.begin_object()
            .key("label").value(label_of(i))
            .key("cycle_time").value(o.cycle_time.str())
            .key("value").value(o.cycle_time.to_double())
            .key("fixed_point").value(o.fixed_point)
            .key("critical_arcs").value(o.critical_arcs)
            .key("critical_cycle").value(o.critical_cycle)
            .end_object();
    }
    return out.end_array().end_object().take();
}

} // namespace

std::string batch_payload_json(const analysis_request& request, const signal_graph& sg,
                               const rational& nominal, const scenario_source& source,
                               const scenario_batch_result& batch)
{
    return render_batch_payload(
        request, sg, nominal, [&](std::size_t i) { return source.label(i); }, batch);
}

std::string batch_payload_json(const analysis_request& request, const signal_graph& sg,
                               const rational& nominal,
                               const std::vector<scenario>& scenarios,
                               const scenario_batch_result& batch)
{
    return render_batch_payload(
        request, sg, nominal,
        [&](std::size_t i) -> const std::string& { return scenarios[i].label; }, batch);
}

std::string statistics_json(const std::string& command, const std::string& solver,
                            const signal_graph& sg, const stats_run_result& run,
                            const stats_options& options)
{
    const stats_accumulator& st = run.stats;
    const double z = options.confidence_z;
    std::string target = "mean";
    if (options.quantile >= 0.0) target = "q" + format_double(options.quantile, 4);

    json_writer out;
    out.begin_object();
    write_model_header(out, command, solver, sg);
    write_exact(out.key("nominal_cycle_time"), run.nominal_cycle_time);
    out.key("statistics").begin_object()
        .key("samples").value(st.count())
        .key("rounds").value(run.rounds)
        .key("adaptive").value(run.adaptive)
        .key("converged").value(run.converged)
        .key("target").value(target)
        .key("epsilon").value(run.target_half_width)
        .key("ci_half_width").value(run.achieved_half_width)
        .key("confidence_z").value(z)
        .key("mean").value(st.mean())
        .key("stddev").value(st.stddev())
        .key("variance").value(st.variance())
        .key("mean_ci_half_width").value(st.mean_ci_half_width(z));
    exact_members(out.key("min").begin_object(), st.min_cycle_time())
        .key("sample").value(st.min_index())
        .end_object();
    exact_members(out.key("max").begin_object(), st.max_cycle_time())
        .key("sample").value(st.max_index())
        .end_object();
    out.key("quantiles").begin_object()
        .key("p50").value(st.quantile(0.50))
        .key("p95").value(st.quantile(0.95))
        .key("p99").value(st.quantile(0.99))
        .end_object();
    out.key("histogram").begin_object()
        .key("lo").value(st.histogram_lo().str())
        .key("hi").value(st.histogram_hi().str())
        .key("bins").value(st.histogram().size())
        .key("underflow").value(st.underflow())
        .key("overflow").value(st.overflow())
        .key("counts").value(st.histogram())
        .end_object();
    out.key("rational_fallbacks").value(st.fallback_count());
    write_lane_engine(out, run);

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
        out.key("criticality").begin_array();
        for (const arc_id a : critical)
            out.begin_object()
                .key("arc").value(a)
                .key("count").value(crit[a])
                .key("probability").value(st.criticality_probability(a))
                .key("ci_half_width").value(st.criticality_ci_half_width(a, z))
                .end_object();
        out.end_array();
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
        out.key("gates").begin_array();
        for (const std::size_t g : order)
            out.begin_object()
                .key("gate").value(gates[g])
                .key("count").value(counts[g])
                .key("probability").value(st.group_criticality_probability(g))
                .key("ci_half_width").value(st.group_criticality_ci_half_width(g, z))
                .end_object();
        out.end_array();
    }
    return out.end_object().end_object().take();
}

// --- edit scripts ------------------------------------------------------------

namespace {

std::uint32_t edit_field_index(const json_value& obj, const std::string& key)
{
    const json_value* v = obj.find(key);
    require(v != nullptr && v->k == json_value::kind::number_v,
            "edit script: edit needs a numeric \"" + key + "\"");
    std::uint32_t index = 0;
    const char* last = v->text.data() + v->text.size();
    const auto [end, ec] = std::from_chars(v->text.data(), last, index);
    require(ec == std::errc{} && end == last,
            "edit script: \"" + key + "\" must be an integer from 0 to " +
                std::to_string(std::numeric_limits<std::uint32_t>::max()));
    return index;
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
    json_writer out;
    out.begin_object().key("command").value("edit");
    out.key("model").begin_object()
        .key("events").value(sg.event_count())
        .key("arcs").value(sg.live_arc_count())
        .key("tokens").value(sg.token_count())
        .key("cyclic").value(!sg.repetitive_events().empty())
        .end_object();
    out.key("nominal").begin_object().key("cyclic").value(nominal_cyclic);
    write_exact(out.key("cycle_time"), nominal);
    out.end_object();

    out.key("batches").begin_array();
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        const edit_batch_status& st = statuses[i];
        out.begin_object()
            .key("label").value(script.labels[i])
            .key("edits").value(script.batches[i].size())
            .key("applied").value(st.applied);
        if (st.applied) {
            out.key("cyclic").value(st.cyclic);
            write_exact(out.key("cycle_time"), st.cycle_time);
        } else {
            // The normalized structured error object (core/api.h) — the
            // same {code, message} shape every other error path reports.
            write_error(out.key("error"), classify_error(st.message));
        }
        out.end_object();
    }
    out.end_array();

    // Final analysis on the edited structure: a cold solve, bit-identical
    // to a fresh finalize() + compile of the same graph.
    const bool cyclic = !sg.repetitive_events().empty();
    out.key("final").begin_object().key("cyclic").value(cyclic);
    if (cyclic)
        write_cycle_time(out, sg, eng.analyze());
    else
        write_pert(out, sg, analyze_pert(eng.compiled()));
    out.end_object();

    const incremental_counters& c = eng.counters();
    out.key("engine").begin_object()
        .key("batches_applied").value(c.batches_applied)
        .key("edits_applied").value(c.edits_applied)
        .key("undos").value(c.undos)
        .key("arcs_repaired").value(c.arcs_repaired)
        .key("csr_compactions").value(c.csr_compactions)
        .key("topo_window").value(c.topo_window)
        .key("sccs_recondensed").value(c.sccs_recondensed)
        .key("scc_window").value(c.scc_window)
        .key("scc_runs_skipped").value(c.scc_runs_skipped)
        .key("core_rebuilds").value(c.core_rebuilds)
        .key("full_rebuilds").value(c.full_rebuilds)
        .key("fixed_point_patches").value(c.fixed_point_patches)
        .key("fixed_point_recomputes").value(c.fixed_point_recomputes)
        .key("warm_states_kept").value(c.warm_states_kept)
        .key("warm_states_dropped").value(c.warm_states_dropped)
        .end_object();
    return out.end_object().take();
}

// --- optimize / report_topk --------------------------------------------------

std::string optimize_json(const std::string& command, const std::string& solver,
                          const signal_graph& sg, const optimize_options& options,
                          const optimize_result& result)
{
    json_writer out;
    out.begin_object();
    write_model_header(out, command, solver, sg);
    write_exact(out.key("nominal_cycle_time"), result.initial_cycle_time);
    out.key("optimize").begin_object().key("mode").value(mode_spelling(result.mode));
    write_exact(out.key("budget"), options.budget);
    write_exact(out.key("step"), options.step);
    write_exact(out.key("target"), options.target);
    write_exact(out.key("min_delay"), options.min_delay);
    write_exact(out.key("budget_spent"), result.budget_spent);
    write_exact(out.key("final_cycle_time"), result.final_cycle_time);
    out.key("target_reached").value(result.target_reached)
        .key("exact").value(result.exact)
        .key("evaluations").value(result.evaluations)
        .key("candidates").value(result.candidates);
    if (result.mode == optimize_mode::statistical) {
        out.key("seed").value(options.mc.seed)
            .key("samples").value(result.samples)
            .key("initial_yield").value(result.initial_yield)
            .key("initial_yield_ci_half_width").value(result.initial_yield_ci_half_width)
            .key("final_yield").value(result.final_yield)
            .key("final_yield_ci_half_width").value(result.final_yield_ci_half_width);
        out.key("steps").begin_array();
        for (const optimize_step& step : result.steps) {
            out.begin_object()
                .key("arc").value(step.arc)
                .key("reduction").value(step.reduction.str());
            write_exact(out.key("cycle_time_after"), step.cycle_time_after);
            out.key("yield").value(step.yield_after)
                .key("ci_half_width").value(step.yield_ci_half_width)
                .key("samples").value(step.samples)
                .end_object();
        }
        out.end_array();
    }
    out.key("allocations").begin_array();
    for (const optimize_allocation& a : result.allocations)
        out.begin_object()
            .key("arc").value(a.arc)
            .key("from").value(sg.event(sg.arc(a.arc).from).name)
            .key("to").value(sg.event(sg.arc(a.arc).to).name)
            .key("old_delay").value(a.old_delay.str())
            .key("new_delay").value(a.new_delay.str())
            .key("reduction").value(a.reduction.str())
            .end_object();
    out.end_array();
    // The same plan as an edit script body: apply via `tsg_tool edit` or an
    // edit request to commit it as a new design version.
    out.key("edits").begin_array();
    for (const graph_edit& e : result.edits)
        out.begin_object()
            .key("op").value("set_delay")
            .key("arc").value(e.arc)
            .key("delay").value(e.delay.str())
            .end_object();
    return out.end_array().end_object().end_object().take();
}

std::string topk_json(const std::string& command, const std::string& solver,
                      const signal_graph& sg, const topk_options& options,
                      const topk_result& result)
{
    const bool statistical = result.mode == optimize_mode::statistical;
    json_writer out;
    out.begin_object();
    write_model_header(out, command, solver, sg);
    write_exact(out.key("nominal_cycle_time"), result.cycle_time);
    out.key("topk").begin_object()
        .key("mode").value(mode_spelling(result.mode))
        .key("k").value(options.k)
        .key("returned").value(result.cycles.size())
        .key("truncated").value(result.truncated);
    if (statistical)
        out.key("samples").value(result.samples);
    else
        out.key("solves").value(result.solves);
    out.key("cycles").begin_array();
    for (std::size_t i = 0; i < result.cycles.size(); ++i) {
        const topk_cycle& cycle = result.cycles[i];
        out.begin_object().key("rank").value(i + 1);
        write_exact(out.key("ratio"), cycle.ratio);
        write_exact(out.key("delay"), cycle.delay);
        out.key("tokens").value(cycle.tokens);
        write_exact(out.key("slack"), cycle.slack);
        write_event_names(out.key("events"), sg, cycle.events);
        out.key("arcs").begin_array();
        for (const topk_arc_contribution& c : cycle.contributions)
            out.begin_object()
                .key("arc").value(c.arc)
                .key("delay").value(c.delay.str())
                .key("share").value(c.share)
                .end_object();
        out.end_array();
        if (statistical)
            out.key("count").value(cycle.count)
                .key("probability").value(cycle.probability)
                .key("ci_half_width").value(cycle.ci_half_width);
        out.end_object();
    }
    return out.end_array().end_object().end_object().take();
}

// --- executors ---------------------------------------------------------------

namespace {

std::string analyze_payload(const analysis_request& request, const signal_graph& sg,
                            const compiled_graph& compiled)
{
    json_writer out;
    out.begin_object();
    write_model_header(out, "analyze", solver_spelling(request.options.solver), sg);
    if (sg.repetitive_events().empty())
        write_pert(out, sg, analyze_pert(compiled));
    else
        write_cycle_time(out, sg,
                         analyze_cycle_time(compiled, request.options.to_analysis_options()));
    return out.end_object().take();
}

} // namespace

std::unique_ptr<scenario_source> request_source(const analysis_request& request,
                                                const signal_graph& sg,
                                                std::shared_ptr<const monte_carlo_table> table)
{
    switch (request.kind) {
    case request_kind::sweep:
        return std::make_unique<corner_sweep_source>(
            sg, request.options.to_corner_sweep_options());
    case request_kind::montecarlo: {
        const monte_carlo_options mc = request.options.to_monte_carlo_options();
        if (!table) table = monte_carlo_run_table(sg, mc, mc.samples);
        return std::make_unique<monte_carlo_source>(sg, mc, std::move(table));
    }
    default:
        throw error("bad_request: request kind '" +
                    std::string(request_kind_name(request.kind)) +
                    "' has no scenario batch");
    }
}

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

std::string execute_analysis_payload(const analysis_request& request, const signal_graph& sg,
                                     const compiled_graph& compiled,
                                     const scenario_engine& engine,
                                     std::chrono::steady_clock::time_point deadline,
                                     const std::shared_ptr<const monte_carlo_table>& table,
                                     std::size_t* scenarios)
{
    const request_options& o = request.options;
    if (scenarios) *scenarios = 0;
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
        topk_options topk = o.to_topk_options();
        topk.deadline = deadline;
        const topk_result result = report_topk(sg, compiled, engine, topk);
        return topk_json("report_topk", solver_spelling(o.solver), sg, topk, result);
    }

    // Statistics paths: criticality probabilities and adaptive Monte Carlo
    // stream rounds through core/stats.h instead of materializing a batch.
    if (request.kind == request_kind::criticality || o.adaptive) {
        monte_carlo_options mc = o.to_monte_carlo_options();
        stats_options stats = o.to_stats_options(request.kind);
        stats.deadline = deadline;
        stats.table = table;
        stats_run_result run;
        if (o.adaptive) {
            run = monte_carlo_adaptive(engine, sg, mc, stats);
        } else {
            mc.samples = o.samples;
            run = monte_carlo_statistics(engine, sg, mc, stats);
        }
        if (scenarios) *scenarios = run.stats.count();
        return statistics_json(request_kind_name(request.kind), solver_spelling(o.solver),
                               sg, run, stats);
    }

    const std::unique_ptr<scenario_source> source = request_source(request, sg, table);
    require(source->size() > 0,
            "invalid_model: no scenarios to evaluate (no perturbable arcs)");
    const rational nominal =
        engine.evaluate(compiled.delay(), /*with_slack=*/false, o.max_threads, o.solver)
            .cycle_time;
    const scenario_batch_result batch = engine.run(*source, o.to_batch_options());
    if (scenarios) *scenarios = source->size();
    return batch_payload_json(request, sg, nominal, *source, batch);
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
