// Command-line analyzer: read a .tsg (Timed Signal Graph) or .circuit file
// and print the full performance report — the shape of a tool a user of
// this library would actually ship.
//
// Every machine-readable subcommand is a thin client of the unified
// analysis API (core/api.h): the flags build one analysis_request, the
// shared executors produce the payload document, and the same pipeline
// serves the analysis daemon (examples/tsg_serve.cpp) — the tool and the
// service cannot drift apart.
//
// Usage:
//   tsg_tool                      analyze the built-in demo graph
//   tsg_tool model.tsg            analyze a Timed Signal Graph file
//   tsg_tool model.circuit        extract from a circuit, then analyze
//   tsg_tool --report [file]      emit the full markdown report instead
//   tsg_tool analyze [file] [--solver auto|border|howard]
//                                 one nominal analysis (cycle time +
//                                 critical cycle, or PERT makespan);
//                                 JSON on stdout
//   tsg_tool sweep [file] [--factor N/D] [--solver auto|border|howard]
//                  [--lanes 0|1|2|4|8|16]
//                                 per-arc +/- corner batch on the scenario
//                                 engine; JSON on stdout
//   tsg_tool montecarlo [file] [--samples N] [--seed S] [--spread N/D]
//                       [--solver auto|border|howard] [--lanes 0|1|2|4|8|16]
//                       [--adaptive] [--epsilon D] [--quantile Q]
//                                 Monte Carlo delay batch; JSON on stdout.
//                                 --adaptive (implied by --epsilon or
//                                 --quantile) streams rounds through the
//                                 statistics layer (core/stats.h) until the
//                                 CI half-width of the lambda mean (or of
//                                 --quantile Q) reaches --epsilon
//                                 (default 0.05), with --samples as the cap
//   tsg_tool criticality [file] [--samples N] [--seed S] [--spread N/D]
//                        [--epsilon D]
//                                 criticality probabilities per arc and per
//                                 gate (Monte Carlo with witness cycles);
//                                 --epsilon D samples adaptively to that
//                                 CI target (--samples caps the run);
//                                 JSON on stdout
//   tsg_tool optimize [file] --budget N/D [--step N/D] [--target N/D]
//                     [--floor N/D] [--mode deterministic|statistical]
//                     [--samples N] [--seed S] [--spread N/D] [--epsilon D]
//                     [--solver auto|border|howard] [--lanes 0|1|2|4|8|16]
//                                 allocate a delay-reduction budget across
//                                 the critical arcs (core/optimize.h):
//                                 deterministic mode minimizes the nominal
//                                 cycle time exactly; statistical mode
//                                 maximizes P(lambda <= --target) under the
//                                 Monte Carlo delay model, ranking
//                                 candidates by criticality probability;
//                                 JSON on stdout, including the plan as a
//                                 set_delay edit batch
//   tsg_tool topk [file] [--k N] [--mode deterministic|statistical]
//                 [--samples N] [--seed S] [--spread N/D]
//                 [--solver auto|border|howard] [--lanes 0|1|2|4|8|16]
//                                 the K most critical cycles, ranked: exact
//                                 ratio order (deterministic) or witness
//                                 probability with CIs (statistical), each
//                                 with slack and per-arc contributions;
//                                 JSON on stdout
//   tsg_tool edit [file] --script edits.json
//                                 apply a JSON edit script through the
//                                 incremental engine (core/incremental.h)
//                                 and re-analyze after each atomic batch;
//                                 JSON on stdout, including the engine's
//                                 locality counters (see core/api.h for
//                                 the script format)
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/extraction.h"
#include "circuit/netlist_io.h"
#include "core/api.h"
#include "core/cycle_time.h"
#include "core/report.h"
#include "gen/oscillator.h"
#include "sg/sg_io.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace tsg;

void report(const signal_graph& sg)
{
    std::cout << "model: " << sg.event_count() << " events, " << sg.arc_count()
              << " arcs, " << sg.token_count() << " tokens\n";
    std::cout << "  repetitive: " << sg.repetitive_events().size()
              << ", initial: " << sg.initial_events().size()
              << ", transient: " << sg.transient_events().size() << "\n";

    if (sg.repetitive_events().empty()) {
        std::cout << "graph is acyclic — nothing oscillates, cycle time undefined\n";
        return;
    }

    // The report presents per-run deltas, so it needs the simulation data
    // only the border sweep produces.
    analysis_options report_opts;
    report_opts.solver = cycle_time_solver::border_sweep;
    const cycle_time_result result = analyze_cycle_time(sg, report_opts);
    std::cout << "border events (cut set): ";
    for (const event_id e : sg.border_events()) std::cout << sg.event(e).name << " ";
    std::cout << "\n\ncycle time = " << result.cycle_time.str();
    if (!result.cycle_time.is_integer())
        std::cout << " ~ " << format_double(result.cycle_time.to_double(), 4);
    std::cout << "\ncritical cycle (epsilon = " << result.critical_occurrence_period
              << "): ";
    for (std::size_t i = 0; i < result.critical_cycle_events.size(); ++i)
        std::cout << (i ? " -> " : "") << sg.event(result.critical_cycle_events[i]).name;
    std::cout << "\n\n";

    text_table t;
    t.set_header({"border event", "collected deltas", "critical"});
    for (const border_run& run : result.runs) {
        std::string deltas;
        for (const auto& d : run.deltas) deltas += (d ? d->str() : "-") + std::string(" ");
        t.add_row({sg.event(run.origin).name, deltas, run.critical ? "yes" : "no"});
    }
    std::cout << t.str();
}

bool is_circuit_path(const std::string& path)
{
    return path.size() > 8 && path.substr(path.size() - 8) == ".circuit";
}

/// Loads a model argument: empty -> built-in demo, *.circuit -> extraction,
/// anything else -> .tsg file.
signal_graph load_model(const std::string& path)
{
    if (path.empty()) return c_oscillator_sg();
    if (is_circuit_path(path)) {
        const parsed_circuit circuit = load_circuit(path);
        return extract_signal_graph(circuit.nl, circuit.initial).graph;
    }
    return load_sg(path);
}

/// Pulls `--flag value` out of an argument list; returns fallback when absent.
std::string option_value(std::vector<std::string>& args, const std::string& flag,
                         const std::string& fallback)
{
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] != flag) continue;
        const std::string value = args[i + 1];
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return value;
    }
    return fallback;
}

/// Pulls a value-less `--flag` out of an argument list.
bool option_flag(std::vector<std::string>& args, const std::string& flag)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] != flag) continue;
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
    }
    return false;
}

cycle_time_solver parse_solver(const std::string& name)
{
    if (name == "auto") return cycle_time_solver::auto_select;
    if (name == "border") return cycle_time_solver::border_sweep;
    if (name == "howard") return cycle_time_solver::howard;
    throw error("--solver: unknown solver '" + name + "' (use auto, border or howard)");
}

/// Everything consumed except (at most) the model path — a misspelled or
/// value-less flag must not silently fall back to defaults.
bool reject_unrecognized(const std::string& command, const std::vector<std::string>& args)
{
    if (args.size() > 1 || (args.size() == 1 && args[0].rfind("--", 0) == 0)) {
        std::cerr << "error: unrecognized " << command << " arguments:";
        for (std::size_t i = args.size() > 1 ? 1 : 0; i < args.size(); ++i)
            std::cerr << " " << args[i];
        std::cerr << "\n";
        return true;
    }
    return false;
}

/// Executes a fully built request against a loaded model and prints the
/// payload — the one funnel every JSON subcommand exits through.
int emit_request(const analysis_request& request, const signal_graph& sg)
{
    const analysis_response response = execute_request(request, sg);
    if (!response.ok) {
        std::cerr << "error: " << response.error.message << "\n";
        return 1;
    }
    std::cout << response.payload;
    return 0;
}

int run_batch_command(const std::string& command, std::vector<std::string> args)
{
    analysis_request request;
    request.kind = parse_request_kind(command);
    request_options& o = request.options;

    const rational spread =
        rational::parse(option_value(args, command == "sweep" ? "--factor" : "--spread",
                                     "1/10"));
    if (command == "sweep")
        o.factor = spread;
    else
        o.spread = spread;
    o.samples =
        static_cast<std::size_t>(std::stoull(option_value(args, "--samples", "100")));
    o.seed = std::stoull(option_value(args, "--seed", "1"));
    o.solver = parse_solver(option_value(args, "--solver", "auto"));
    o.lane_width = static_cast<unsigned>(std::stoul(option_value(args, "--lanes", "0")));
    // The statistics flags only exist on the stats-capable subcommands, so
    // e.g. `sweep --adaptive` fails the unrecognized-argument check below.
    // An explicit --epsilon or --quantile implies the adaptive statistics
    // path — a CI-targeting flag must never be consumed and then silently
    // ignored.
    const bool statistics_capable = command == "montecarlo" || command == "criticality";
    o.epsilon =
        statistics_capable ? std::stod(option_value(args, "--epsilon", "-1")) : -1.0;
    o.quantile =
        statistics_capable ? std::stod(option_value(args, "--quantile", "-1")) : -1.0;
    o.adaptive = (statistics_capable && option_flag(args, "--adaptive")) ||
                 o.epsilon > 0.0 || o.quantile >= 0.0;

    if (reject_unrecognized(command, args)) return 1;
    return emit_request(request, load_model(args.empty() ? std::string() : args[0]));
}

optimize_mode parse_mode(const std::string& name)
{
    if (name == "deterministic") return optimize_mode::deterministic;
    if (name == "statistical") return optimize_mode::statistical;
    throw error("--mode: unknown mode '" + name +
                "' (use deterministic or statistical)");
}

int run_optimize_command(std::vector<std::string> args)
{
    analysis_request request;
    request.kind = request_kind::optimize;
    request_options& o = request.options;
    o.mode = parse_mode(option_value(args, "--mode", "deterministic"));
    o.budget = rational::parse(option_value(args, "--budget", "0"));
    o.step = rational::parse(option_value(args, "--step", "0"));
    o.target = rational::parse(option_value(args, "--target", "0"));
    o.min_delay = rational::parse(option_value(args, "--floor", "0"));
    o.samples =
        static_cast<std::size_t>(std::stoull(option_value(args, "--samples", "100")));
    o.seed = std::stoull(option_value(args, "--seed", "1"));
    o.spread = rational::parse(option_value(args, "--spread", "1/10"));
    o.epsilon = std::stod(option_value(args, "--epsilon", "-1"));
    o.solver = parse_solver(option_value(args, "--solver", "auto"));
    o.lane_width = static_cast<unsigned>(std::stoul(option_value(args, "--lanes", "0")));
    if (reject_unrecognized("optimize", args)) return 1;
    return emit_request(request, load_model(args.empty() ? std::string() : args[0]));
}

int run_topk_command(std::vector<std::string> args)
{
    analysis_request request;
    request.kind = request_kind::report_topk;
    request_options& o = request.options;
    o.mode = parse_mode(option_value(args, "--mode", "deterministic"));
    o.k = static_cast<std::size_t>(std::stoull(option_value(args, "--k", "3")));
    o.samples =
        static_cast<std::size_t>(std::stoull(option_value(args, "--samples", "100")));
    o.seed = std::stoull(option_value(args, "--seed", "1"));
    o.spread = rational::parse(option_value(args, "--spread", "1/10"));
    o.solver = parse_solver(option_value(args, "--solver", "auto"));
    o.lane_width = static_cast<unsigned>(std::stoul(option_value(args, "--lanes", "0")));
    if (reject_unrecognized("topk", args)) return 1;
    return emit_request(request, load_model(args.empty() ? std::string() : args[0]));
}

int run_analyze_command(std::vector<std::string> args)
{
    analysis_request request;
    request.kind = request_kind::analyze;
    request.options.solver = parse_solver(option_value(args, "--solver", "auto"));
    if (reject_unrecognized("analyze", args)) return 1;
    return emit_request(request, load_model(args.empty() ? std::string() : args[0]));
}

int run_edit_command(std::vector<std::string> args)
{
    const std::string script_path = option_value(args, "--script", "");
    if (script_path.empty()) {
        std::cerr << "error: edit needs --script <edits.json>\n";
        return 1;
    }
    if (reject_unrecognized("edit", args)) return 1;

    std::ifstream in(script_path);
    if (!in.good()) {
        std::cerr << "error: cannot read edit script '" << script_path << "'\n";
        return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    analysis_request request;
    request.kind = request_kind::edit;
    request.edits = json_parse(buffer.str(), "edit script");
    return emit_request(request, load_model(args.empty() ? std::string() : args[0]));
}

} // namespace

int main(int argc, char** argv)
{
    try {
        std::vector<std::string> args(argv + 1, argv + argc);
        if (!args.empty() && args[0] == "edit") {
            args.erase(args.begin());
            return run_edit_command(std::move(args));
        }
        if (!args.empty() && args[0] == "analyze") {
            args.erase(args.begin());
            return run_analyze_command(std::move(args));
        }
        if (!args.empty() && args[0] == "optimize") {
            args.erase(args.begin());
            return run_optimize_command(std::move(args));
        }
        if (!args.empty() && args[0] == "topk") {
            args.erase(args.begin());
            return run_topk_command(std::move(args));
        }
        if (!args.empty() &&
            (args[0] == "sweep" || args[0] == "montecarlo" || args[0] == "criticality")) {
            const std::string command = args[0];
            args.erase(args.begin());
            return run_batch_command(command, std::move(args));
        }
        if (!args.empty() && args[0] == "--report") {
            const signal_graph sg = args.size() > 1 ? load_sg(args[1]) : c_oscillator_sg();
            std::cout << performance_report_markdown(sg);
            return 0;
        }
        if (args.empty()) {
            std::cout << "(no input file — analyzing the built-in Figure 2c demo; pass a\n"
                      << " .tsg or .circuit file to analyze your own model)\n\n";
            report(c_oscillator_sg());
            return 0;
        }
        if (is_circuit_path(args[0])) {
            const parsed_circuit circuit = load_circuit(args[0]);
            std::cout << "extracting Signal Graph from circuit '" << circuit.name
                      << "'...\n";
            report(extract_signal_graph(circuit.nl, circuit.initial).graph);
        } else {
            report(load_model(args[0]));
        }
    } catch (const error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        // Malformed numeric options (std::stoull and friends) and other
        // standard-library failures get the same clean exit.
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
