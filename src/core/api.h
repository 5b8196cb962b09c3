// The unified analysis API: one versioned request/response surface for
// every machine-readable entry point.
//
// Historically the library grew three divergent ad-hoc surfaces — the
// scenario-batch JSON renderers, the edit-script JSON pipeline and the
// tsg_tool per-subcommand flag parsing, each with its own option struct
// and its own error shape.  This header replaces all three with a single
// contract:
//
//   analysis_request  = api_version + kind + design reference + options
//                       (+ the edit script, for kind::edit)
//   analysis_response = id echo + payload document | structured error
//                       + execution accounting (timing, scenario count,
//                         design version, coalescing flag)
//
// One JSON codec parses and serializes both.  Parsing is strict: an
// unknown field, an unknown kind, or an api_version this build does not
// speak fails with a structured error (api_error) instead of being
// silently accepted — the versioning contract a long-lived daemon needs.
//
// `tsg_tool` subcommands and the analysis service (core/service.h) are
// both thin clients: they build an analysis_request and call the
// executors below, so the golden-pinned payload documents are rendered by
// exactly one code path.
//
// Option defaults live in request_options — the one place they are
// documented; the per-entry-point copies (scenario_batch_options,
// monte_carlo_options, stats_options, analysis_options) are derived from
// it via the to_*() converters.
#ifndef TSG_CORE_API_H
#define TSG_CORE_API_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_edit.h"
#include "core/incremental.h"
#include "core/optimize.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "sg/signal_graph.h"
#include "util/json.h"
#include "util/rational.h"

namespace tsg {

/// The API generation this build speaks.  Requests carrying any other
/// value are rejected with code "unsupported_version".
inline constexpr int tsg_api_version = 1;

/// What the client is asking for.
enum class request_kind : std::uint8_t {
    analyze,     ///< one cycle-time / makespan analysis at nominal delays
    sweep,       ///< per-arc +/- corner batch (corner_sweep_scenarios)
    montecarlo,  ///< Monte Carlo delay batch; adaptive streams via core/stats
    criticality, ///< per-arc / per-gate criticality probabilities
    optimize,    ///< criticality-driven budget allocation (core/optimize.h)
    report_topk, ///< ranked top-K critical-cycle report (core/optimize.h)
    edit,        ///< JSON edit script through the incremental engine
    stats,       ///< service-side serving metrics (core/service.h)
    health,      ///< readiness / draining probe (core/service.h)
};

[[nodiscard]] const char* request_kind_name(request_kind kind);
[[nodiscard]] request_kind parse_request_kind(const std::string& name);

/// Which design a request targets.  Exactly one source:
///   * id   — a design registered with the analysis service (version 0
///            means "latest"; any other value pins a snapshot);
///   * path — a .tsg model file loaded by the executing side;
///   * text — an inline .tsg document.
/// All empty means the built-in demo oscillator (the tool's default).
struct design_ref {
    std::string id;
    std::uint64_t version = 0;
    std::string path;
    std::string text;

    [[nodiscard]] bool operator==(const design_ref&) const = default;
};

/// Every analysis knob, with its default, in one place.  The per-layer
/// option structs are derived views (see the to_*() converters).
struct request_options {
    // --- engine ------------------------------------------------------------
    /// Lambda engine (core/cycle_time.h). auto_select resolves per batch.
    cycle_time_solver solver = cycle_time_solver::auto_select;
    /// Thread budget (0 = hardware concurrency, 1 = serial).
    unsigned max_threads = 0;
    /// SoA lane count: 0 = default (8), 1 = scalar, else 2/4/8/16.
    unsigned lane_width = 0;
    /// Slack layer per scenario (full critical sets + margins).
    bool with_slack = true;
    /// Witness-cycle extraction per scenario.
    bool with_witness = true;

    // --- sweep -------------------------------------------------------------
    /// Relative corner: each swept arc gets delay * (1 -/+ factor).
    rational factor = rational(1, 10);

    // --- monte carlo -------------------------------------------------------
    /// Fixed-run sample count; for adaptive runs, the sample cap.
    std::size_t samples = 100;
    std::uint64_t seed = 1;
    /// Per-arc range: nominal * (1 -/+ spread), clamped at 0.
    rational spread = rational(1, 10);
    /// Exact sampling grid resolution (monte_carlo_options::resolution).
    std::int64_t resolution = 16;

    // --- statistics (montecarlo --adaptive, criticality) -------------------
    /// Stream rounds through core/stats until the CI target is reached.
    bool adaptive = false;
    /// CI half-width target of the adaptive run.
    double epsilon = 0.05;
    /// Negative: the adaptive target is the lambda mean; in [0, 1]: that
    /// quantile's CI.
    double quantile = -1.0;
    /// Samples per streaming round (0 = the stats layer's default, 256).
    std::size_t round_samples = 0;
    /// Samples evaluated before convergence may stop an adaptive run.
    std::size_t min_samples = 32;
    /// Track per-arc criticality probabilities (kind::criticality sets it).
    bool criticality = false;
    /// Fold arc criticality into per-gate groups (implies criticality).
    bool group_by_signal = false;

    // --- optimize / report_topk --------------------------------------------
    /// Deterministic (exact nominal search / exact ratio ranking) or
    /// statistical (Monte Carlo yield / witness probability) mode.
    optimize_mode mode = optimize_mode::deterministic;
    /// optimize: total delay reduction to distribute (must be > 0).
    rational budget = rational(0);
    /// optimize: allocation quantum (non-positive picks budget / 8).
    rational step = rational(0);
    /// optimize: cycle-time target; statistical mode's yield threshold
    /// P(lambda <= target) — required > 0 there.
    rational target = rational(0);
    /// optimize: per-arc delay floor (no delay drops below it).
    rational min_delay = rational(0);
    /// report_topk: cycles requested (must be >= 1).
    std::size_t k = 3;

    // --- serving -----------------------------------------------------------
    /// Per-request deadline, relative to admission, in milliseconds.  0
    /// means none.  The analysis service sheds work whose deadline has
    /// passed — before execution from the queue, between statistics
    /// rounds, and between optimize evaluations and top-K solves or rounds
    /// — with the structured "deadline_exceeded" code.
    std::uint64_t deadline_ms = 0;

    [[nodiscard]] bool operator==(const request_options&) const = default;

    // --- derived per-layer views -------------------------------------------
    [[nodiscard]] scenario_batch_options to_batch_options() const;
    [[nodiscard]] corner_sweep_options to_corner_sweep_options() const;
    [[nodiscard]] monte_carlo_options to_monte_carlo_options() const;
    /// `kind` selects the statistics surface: criticality enables the
    /// witness tallies and per-gate grouping.  Adaptive runs cap at
    /// `samples` (the tool contract: --samples caps the adaptive run).
    [[nodiscard]] stats_options to_stats_options(request_kind kind) const;
    [[nodiscard]] analysis_options to_analysis_options() const;
    /// optimize requests: mode, budget, quantum, target and floor plus the
    /// engine knobs; statistical runs inherit the Monte Carlo model
    /// (seed/spread/resolution) and adaptive-CI controls (epsilon,
    /// samples cap, min_samples, round_samples).
    [[nodiscard]] optimize_options to_optimize_options() const;
    /// report_topk requests: k, mode, sample count and engine knobs.
    [[nodiscard]] topk_options to_topk_options() const;
};

/// One request on the wire.
struct analysis_request {
    int api_version = tsg_api_version;
    std::string id; ///< client correlation token, echoed verbatim
    request_kind kind = request_kind::analyze;
    design_ref design;
    request_options options;
    json_value edits; ///< kind::edit only: the edit-script document

    [[nodiscard]] bool operator==(const analysis_request&) const = default;
};

/// The structured error every failing path reports — codes are stable API:
///   bad_request          malformed document, unknown field/kind/op
///   unsupported_version  api_version this build does not speak
///   unknown_design       design id not registered
///   unknown_version      design version evicted or never existed
///   invalid_model        the model/options reject the analysis
///   invalid_request      well-formed but nonsensical parameters (a
///                        non-positive optimize budget, report_topk k = 0,
///                        a missing statistical target, an acyclic graph)
///   unsupported          a valid request this build cannot serve (e.g.
///                        statistical mode without a delay model)
///   overloaded           admission control shed the request (queue full /
///                        connection limit); retry later — nothing ran
///   rate_limited         a per-design quota or per-connection rate limit
///                        shed the request; retry after retry_after_ms
///   draining             the daemon is shutting down gracefully; retry
///                        against another instance (or after a restart)
///   deadline_exceeded    the request's deadline_ms passed before (or
///                        while) the work ran; the result was discarded
///   internal             anything else
struct api_error {
    std::string code;
    std::string message;
    /// Backoff hint in milliseconds (rate_limited sheds).  0 = no hint;
    /// serialized on the wire only when nonzero.
    std::uint64_t retry_after_ms = 0;
};

/// One response on the wire.  `payload` holds the analysis document
/// (exactly the line the tool prints) when ok; `error` otherwise.
struct analysis_response {
    std::string id;
    bool ok = false;
    std::string payload;
    api_error error;

    double elapsed_ms = 0.0;           ///< submit-to-completion wall time
    std::uint64_t design_version = 0;  ///< snapshot version that served it
    std::size_t scenarios = 0;         ///< scenarios this request evaluated
    bool coalesced = false;            ///< served from a merged lane batch
};

// --- codec -------------------------------------------------------------------

/// Parses one request document.  Strict: unknown fields, unknown kinds,
/// and non-current api_version values throw tsg::error whose message
/// carries the api_error code prefix ("bad_request: ...",
/// "unsupported_version: ...").
[[nodiscard]] analysis_request parse_analysis_request(const json_value& doc);
[[nodiscard]] analysis_request parse_analysis_request(const std::string& text);

/// Serializes a request in full canonical form (every option spelled
/// out), one line.  parse(serialize(r)) == r for every valid request.
[[nodiscard]] json_value analysis_request_json(const analysis_request& request);

/// Serializes a response as one NDJSON line.  An ok response's payload
/// is spliced in unchanged: every payload renderer below writes its
/// document with json_writer in the one wire layout, so the line is
/// byte-identical to re-parsing the payload into a json_value envelope
/// and writing that.  The payload is not re-checked; only the renderers
/// produce it.
[[nodiscard]] std::string analysis_response_json(const analysis_response& response);

/// Renders a bare structured error document — the normalized error shape
/// shared by the tool, the codec and the service:
///   {"error": {"code": ..., "message": ...}}
[[nodiscard]] std::string api_error_json(const api_error& error);

/// Splits a thrown diagnostic back into (code, message): messages
/// prefixed with a known code keep it, anything else maps to `fallback`.
[[nodiscard]] api_error classify_error(const std::string& diagnostic,
                                       const std::string& fallback = "invalid_model");

// --- payload renderers -------------------------------------------------------
// The exact documents `tsg_tool` prints and responses embed, golden-pinned
// byte for byte.  Each is written by one json_writer in the compact wire
// layout (util/json.h): one line, no trailing newline.

/// Renders a statistics run (core/stats.h) as a JSON document with a
/// `statistics` block: sample counts and convergence, mean/variance with
/// the confidence interval, exact min/max, quantile estimates
/// (p50/p95/p99), the histogram, and — when the run tracked them — per-arc
/// and per-gate criticality probabilities with normal-approximation CIs.
[[nodiscard]] std::string statistics_json(const std::string& command,
                                          const std::string& solver, const signal_graph& sg,
                                          const stats_run_result& run,
                                          const stats_options& options);

/// Renders an optimization plan (core/optimize.h) as a JSON document: the
/// model header, the budget accounting, the per-arc allocations, the
/// equivalent set_delay edit batch, and — in statistical mode — the yield
/// trajectory with its commit trace.
[[nodiscard]] std::string optimize_json(const std::string& command,
                                        const std::string& solver, const signal_graph& sg,
                                        const optimize_options& options,
                                        const optimize_result& result);

/// Renders a top-K critical-cycle report (core/optimize.h) as a JSON
/// document: ranked cycles with exact ratio, slack, tokens, events and
/// per-arc delay contributions, plus witness tallies in statistical mode.
[[nodiscard]] std::string topk_json(const std::string& command, const std::string& solver,
                                    const signal_graph& sg, const topk_options& options,
                                    const topk_result& result);

// --- edit scripts ------------------------------------------------------------
//
// Script format — one object per edit, grouped into atomic batches:
//
//   {"batches": [
//     [{"op": "set_delay", "arc": 0, "delay": "3/2"},
//      {"op": "add_arc", "from": "a", "to": "b", "delay": "5",
//       "marked": true, "disengageable": false}],
//     [{"op": "remove_arc", "arc": 2}]
//   ]}
//
// or, for a single atomic batch, {"edits": [...]} with the same edit
// objects.  Events are referenced by name (string) or id (number); arcs
// by id — added arcs take the next free ids in script order, so later
// edits can reference them.  Delays are exact: a "num/den" string or an
// integer number.

/// A parsed edit script: a sequence of atomic batches with display labels
/// ("batch N" unless the script names them).
struct edit_script {
    std::vector<edit_batch> batches;
    std::vector<std::string> labels;
};

/// Parses an edit script from its JSON text or pre-parsed document.
/// Event names are resolved against `sg`; throws tsg::error on malformed
/// JSON, unknown ops or events, or non-rational delays.
[[nodiscard]] edit_script parse_edit_script(const std::string& text,
                                            const signal_graph& sg);
[[nodiscard]] edit_script parse_edit_script(const json_value& doc,
                                            const signal_graph& sg);

/// Per-batch application record of run_edit_script.
struct edit_batch_status {
    bool applied = false;
    std::string message;   ///< rejection reason when !applied
    bool cyclic = false;   ///< graph mode after this batch
    rational cycle_time;   ///< lambda (cyclic) or PERT makespan (acyclic)
};

/// Applies every batch in order to `eng` (rejected batches roll back and
/// the run continues) and re-analyzes after each one.  Cyclic re-analyses
/// go through the warm-started Howard accelerator (analyze_warm()), so the
/// engine's warm counters reflect the script's delay-only batches.
[[nodiscard]] std::vector<edit_batch_status> run_edit_script(incremental_engine& eng,
                                                             const edit_script& script);

/// Renders the run as a JSON document: the model header, the nominal
/// (pre-script) cycle time, per-batch status (rejections carry the
/// structured {"code", "message"} error object), the final analysis on
/// the edited structure, and the incremental engine's counters.
[[nodiscard]] std::string edit_run_json(incremental_engine& eng, const edit_script& script,
                                        const rational& nominal, bool nominal_cyclic,
                                        const std::vector<edit_batch_status>& statuses);

// --- executors ---------------------------------------------------------------

/// The batch of a batch-kind request (sweep, non-adaptive montecarlo) over
/// the engine's graph as a scenario source — the building block the
/// service coalescer merges into one engine run.  A Monte Carlo source
/// draws through the engine's sampling table of the request's grid.  The
/// engine must outlive the source.
[[nodiscard]] std::unique_ptr<scenario_source> request_source(
    const analysis_request& request, const scenario_engine& engine);

/// The same batch, materialized exactly as the tool generates it.
[[nodiscard]] std::vector<scenario> request_scenarios(const analysis_request& request,
                                                      const signal_graph& sg);

/// Renders the payload of a batch-kind request (sweep, non-adaptive
/// montecarlo) from its evaluated, possibly sliced-back, batch result —
/// the demux half of the coalescer.  Labels come from the request's own
/// batch, indexed like the result.  The header echoes the request's kind
/// and solver spelling.
[[nodiscard]] std::string batch_payload_json(const analysis_request& request,
                                             const signal_graph& sg, const rational& nominal,
                                             const scenario_source& source,
                                             const scenario_batch_result& batch);
[[nodiscard]] std::string batch_payload_json(const analysis_request& request,
                                             const signal_graph& sg, const rational& nominal,
                                             const std::vector<scenario>& scenarios,
                                             const scenario_batch_result& batch);

/// Executes an analyze/sweep/montecarlo/criticality/optimize/report_topk
/// request against a compiled design and returns the payload document.  Mirrors the tool's
/// pipelines exactly (nominal evaluation, statistics routing, option
/// mapping), so payloads are byte-identical to the pre-API subcommands.
/// Throws tsg::error on invalid requests or models.  `deadline` (if not
/// the epoch default) bounds statistics streaming, optimize and
/// report_topk: they check it between rounds, evaluations or solves and
/// throw a deadline_exceeded error once it passes.  Deadlines never change
/// the payload of work that completes.  The nominal cycle time and the
/// Monte Carlo sampling tables come from `engine`'s caches, so an engine
/// kept across requests (the service's, one per design version) solves
/// and builds them once.  `scenarios`, when given, receives the scenarios
/// or samples the run evaluated (0 for analyze, optimize and report_topk).
[[nodiscard]] std::string execute_analysis_payload(
    const analysis_request& request, const signal_graph& sg,
    const compiled_graph& compiled, const scenario_engine& engine,
    std::chrono::steady_clock::time_point deadline = {},
    std::size_t* scenarios = nullptr);

/// Executes an edit request: drives `engine` through the request's script
/// and returns the edit-run document.  The engine is left on the edited
/// structure (the service commits it as a new design version).
[[nodiscard]] std::string execute_edit_payload(const analysis_request& request,
                                               incremental_engine& engine);

/// One-shot convenience: compiles `sg`, executes the request (any kind
/// except stats) and wraps payload or structured error in a response.
/// Never throws — failures come back as api_error codes.
[[nodiscard]] analysis_response execute_request(const analysis_request& request,
                                                const signal_graph& sg);

} // namespace tsg

#endif // TSG_CORE_API_H
