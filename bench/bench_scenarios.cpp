// Scenario throughput: the lane-batched SoA engine vs. warm-started Howard
// vs. scalar border sweeps vs. recompile-per-scenario.
//
// The workload is the paper's iterated what-if loop at scale: one n-event
// random marked graph (b << n, the algorithm's favourable regime) and S
// Monte Carlo delay assignments, all evaluated against one compiled
// structure.  Modes measured, interleaved per round (best-of-R per mode,
// the standard guard against load spikes):
//
//   batch   — the default engine: lane-batched structure-of-arrays border
//             sweeps (core/lane_domain.h), W = 8 lanes per group;
//   howard  — the PR 3 production path: per-worker warm-started policy
//             iteration (the baseline the lane engine is measured against);
//   scalar  — the engine with lane_width = 1 (PR 2's per-scenario rebinds);
//   naive   — rebuild + re-finalize + recompile per scenario (pre-engine).
//
// Every mode's per-scenario cycle times are compared bit for bit; any
// mismatch fails the bench.  Two extra sections feed the JSON artifact:
// a lane-width ablation (L = 1/4/8/16) and a corner sweep through the
// default lane path, checked field by field against lane_width = 1.
//
//   bench_scenarios [--events N] [--samples S] [--rounds R] [--serial]
//                   [--json out.json]
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/cycle_time.h"
#include "core/scenario.h"
#include "gen/random_sg.h"
#include "sg/signal_graph.h"

namespace {

using namespace tsg;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// The pre-engine what-if iteration: rebuild, re-finalize, recompile,
/// analyze.  Kept intentionally faithful to the old optimize/sensitivity
/// inner loops.
rational naive_scenario(const signal_graph& sg, const std::vector<rational>& delay)
{
    signal_graph rebuilt;
    for (event_id e = 0; e < sg.event_count(); ++e) {
        const event_info& info = sg.event(e);
        rebuilt.add_event(info.name, info.signal, info.pol);
    }
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        const arc_info& arc = sg.arc(a);
        rebuilt.add_arc(arc.from, arc.to, delay[a], arc.marked, arc.disengageable);
    }
    rebuilt.finalize();
    const compiled_graph cg(rebuilt);
    return analyze_cycle_time(cg).cycle_time;
}

std::size_t count_cycle_time_mismatches(const scenario_batch_result& a,
                                        const scenario_batch_result& b)
{
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        if (a.outcomes[i].cycle_time != b.outcomes[i].cycle_time) ++mismatches;
    return mismatches;
}

} // namespace

int main(int argc, char** argv)
{
    tsg_bench::bench_reporter reporter(argc, argv);

    std::uint32_t events = 1024;
    std::size_t samples = 1000;
    int rounds = 3;
    unsigned batch_threads = 0; // hardware concurrency
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--events" && i + 1 < argc)
            events = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        else if (arg == "--samples" && i + 1 < argc)
            samples = std::stoull(argv[++i]);
        else if (arg == "--rounds" && i + 1 < argc)
            rounds = std::stoi(argv[++i]);
        else if (arg == "--serial")
            batch_threads = 1;
    }

    random_sg_options gopts;
    gopts.events = events;
    gopts.extra_arcs = events; // m = 2n
    gopts.seed = 42;
    gopts.border_limit = 4; // b << n
    const signal_graph sg = random_marked_graph(gopts);

    monte_carlo_options mc;
    mc.samples = samples;
    mc.seed = 7;
    mc.spread = rational(1, 2);
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    std::cout << "model: n=" << sg.event_count() << " m=" << sg.arc_count()
              << " b=" << sg.border_events().size() << ", scenarios=" << samples << "\n";

    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    // --- Monte Carlo throughput: interleaved rounds, best-of per mode -------
    //
    // The headline batch is the Monte-Carlo statistics configuration the
    // paper's SSTA-scale workload wants: exact per-scenario cycle times and
    // batch aggregates, no slack layer and no per-scenario witness cycle
    // (with_witness = false; a witness is O(cycle length) to extract and
    // record, and on this model the critical cycle spans the whole core).
    // The full-outcome configuration (witnesses on, the engine default) is
    // measured separately below, and its outcomes are compared field by
    // field against the scalar serial path.
    scenario_batch_options lane_run;
    lane_run.max_threads = batch_threads;
    lane_run.with_slack = false; // match the naive loop's work exactly
    lane_run.with_witness = false;
    scenario_batch_options howard_run = lane_run;
    howard_run.solver = cycle_time_solver::howard;
    scenario_batch_options scalar_run = lane_run;
    scalar_run.lane_width = 1;
    scalar_run.solver = cycle_time_solver::border_sweep;
    scenario_batch_options full_run = lane_run;
    full_run.with_witness = true;
    scenario_batch_options full_scalar_run = scalar_run;
    full_scalar_run.with_witness = true;

    scenario_batch_result batch;
    scenario_batch_result full;
    std::vector<rational> naive(samples);
    double batch_seconds = 0;
    double full_seconds = 0;
    double howard_seconds = 0;
    double scalar_seconds = 0;
    double naive_seconds = 0;
    std::size_t mismatches = 0;
    for (int round = 0; round < rounds; ++round) {
        const auto batch_start = clock_type::now();
        batch = engine.run(scenarios, lane_run);
        const double bs = seconds_since(batch_start);
        if (round == 0 || bs < batch_seconds) batch_seconds = bs;

        const auto full_start = clock_type::now();
        full = engine.run(scenarios, full_run);
        const double fs = seconds_since(full_start);
        if (round == 0 || fs < full_seconds) full_seconds = fs;

        const auto howard_start = clock_type::now();
        const scenario_batch_result howard = engine.run(scenarios, howard_run);
        const double hs = seconds_since(howard_start);
        if (round == 0 || hs < howard_seconds) howard_seconds = hs;

        const auto scalar_start = clock_type::now();
        const scenario_batch_result scalar = engine.run(scenarios, scalar_run);
        const double ss = seconds_since(scalar_start);
        if (round == 0 || ss < scalar_seconds) scalar_seconds = ss;

        const auto naive_start = clock_type::now();
        for (std::size_t i = 0; i < samples; ++i)
            naive[i] = naive_scenario(sg, scenarios[i].delay);
        const double ns = seconds_since(naive_start);
        if (round == 0 || ns < naive_seconds) naive_seconds = ns;

        // --- bit-identical results, every round, every engine mode ---------
        mismatches += count_cycle_time_mismatches(batch, howard);
        mismatches += count_cycle_time_mismatches(batch, full);
        mismatches += count_cycle_time_mismatches(batch, scalar);
        for (std::size_t i = 0; i < samples; ++i)
            if (batch.outcomes[i].cycle_time != naive[i]) ++mismatches;

        // The full-outcome lane run must agree with the scalar serial path
        // on *every* outcome field: lambda, witness cycle, critical set,
        // domain flag (only checked the first round — it is deterministic).
        if (round == 0) {
            const scenario_batch_result full_scalar = engine.run(scenarios, full_scalar_run);
            for (std::size_t i = 0; i < samples; ++i)
                if (full.outcomes[i].cycle_time != full_scalar.outcomes[i].cycle_time ||
                    full.outcomes[i].critical_cycle != full_scalar.outcomes[i].critical_cycle ||
                    full.outcomes[i].critical_arcs != full_scalar.outcomes[i].critical_arcs ||
                    full.outcomes[i].fixed_point != full_scalar.outcomes[i].fixed_point)
                    ++mismatches;
        }
    }

    const double batch_rate = static_cast<double>(samples) / batch_seconds;
    const double full_rate = static_cast<double>(samples) / full_seconds;
    const double howard_rate = static_cast<double>(samples) / howard_seconds;
    const double scalar_rate = static_cast<double>(samples) / scalar_seconds;
    const double naive_rate = static_cast<double>(samples) / naive_seconds;
    const double speedup = batch_rate / naive_rate;
    const double speedup_vs_howard = batch_rate / howard_rate;
    const double speedup_vs_scalar = batch_rate / scalar_rate;

    std::cout << "lane batch   : " << batch_seconds << " s  (" << batch_rate
              << " scenarios/s, " << batch.lane_groups << " groups, "
              << batch.lane_evictions << " evictions)\n";
    std::cout << "lane full    : " << full_seconds << " s  (" << full_rate
              << " scenarios/s, witnesses on)\n";
    std::cout << "howard warm  : " << howard_seconds << " s  (" << howard_rate
              << " scenarios/s)\n";
    std::cout << "scalar border: " << scalar_seconds << " s  (" << scalar_rate
              << " scenarios/s)\n";
    std::cout << "naive rebuild: " << naive_seconds << " s  (" << naive_rate
              << " scenarios/s)\n";
    std::cout << "speedup      : " << speedup << "x vs naive, " << speedup_vs_howard
              << "x vs warm howard, " << speedup_vs_scalar << "x vs scalar border\n";
    std::cout << "bit-identical: " << (mismatches == 0 ? "yes" : "NO") << " ("
              << mismatches << " mismatches)\n";
    std::cout << "cycle time   : min " << batch.min_cycle_time.str() << ", max "
              << batch.max_cycle_time.str() << ", mean ~" << batch.mean_cycle_time
              << "\n";

    // --- lane-width ablation (one timed run per width) ----------------------
    std::cout << "lane ablation:";
    std::vector<std::pair<unsigned, double>> ablation;
    for (const unsigned width : {1u, 4u, 8u, 16u}) {
        scenario_batch_options run = lane_run; // statistics mode, like the headline
        run.lane_width = width;
        run.solver = cycle_time_solver::border_sweep;
        double best = 0;
        for (int round = 0; round < std::max(1, rounds - 1); ++round) {
            const auto start = clock_type::now();
            const scenario_batch_result r = engine.run(scenarios, run);
            const double s = seconds_since(start);
            if (round == 0 || s < best) best = s;
            mismatches += count_cycle_time_mismatches(batch, r);
        }
        const double rate = static_cast<double>(samples) / best;
        ablation.emplace_back(width, rate);
        std::cout << "  L=" << width << " " << rate << "/s";
    }
    std::cout << "\n";

    // --- corner sweep: default lanes vs the scalar path ---------------------
    const std::vector<scenario> corners = corner_sweep_scenarios(sg);
    // Corner sweeps are about criticality attribution, so this section runs
    // with full outcomes — the witness-cycle fields compared below are
    // populated, keeping the lanes-vs-scalar differential meaningful.
    scenario_batch_options corner_run = lane_run;
    corner_run.with_witness = true;
    corner_run.solver = cycle_time_solver::border_sweep;
    scenario_batch_options corner_scalar_run = corner_run;
    corner_scalar_run.lane_width = 1;

    double corner_seconds = 0;
    double corner_scalar_seconds = 0;
    for (int round = 0; round < std::max(1, rounds - 1); ++round) {
        const auto corner_start = clock_type::now();
        const scenario_batch_result lanes = engine.run(corners, corner_run);
        const double cs = seconds_since(corner_start);
        if (round == 0 || cs < corner_seconds) corner_seconds = cs;

        const auto scalar_start = clock_type::now();
        const scenario_batch_result scalar = engine.run(corners, corner_scalar_run);
        const double ss = seconds_since(scalar_start);
        if (round == 0 || ss < corner_scalar_seconds) corner_scalar_seconds = ss;

        for (std::size_t i = 0; i < corners.size(); ++i)
            if (lanes.outcomes[i].cycle_time != scalar.outcomes[i].cycle_time ||
                lanes.outcomes[i].critical_cycle != scalar.outcomes[i].critical_cycle ||
                lanes.outcomes[i].critical_arcs != scalar.outcomes[i].critical_arcs)
                ++mismatches;
    }
    const double corner_rate = static_cast<double>(corners.size()) / corner_seconds;
    const double corner_scalar_rate =
        static_cast<double>(corners.size()) / corner_scalar_seconds;
    std::cout << "corner sweep : " << corners.size() << " corners, lanes " << corner_rate
              << "/s vs scalar " << corner_scalar_rate << "/s ("
              << (corner_rate / corner_scalar_rate) << "x)\n";

    reporter.record("events", static_cast<double>(sg.event_count()), "count");
    reporter.record("arcs", static_cast<double>(sg.arc_count()), "count");
    reporter.record("scenarios", static_cast<double>(samples), "count");
    reporter.record("batch_scenarios_per_second", batch_rate, "1/s");
    reporter.record("batch_full_outcome_scenarios_per_second", full_rate, "1/s");
    reporter.record("howard_scenarios_per_second", howard_rate, "1/s");
    reporter.record("scalar_border_scenarios_per_second", scalar_rate, "1/s");
    reporter.record("naive_scenarios_per_second", naive_rate, "1/s");
    reporter.record("speedup", speedup, "x");
    reporter.record("speedup_vs_howard", speedup_vs_howard, "x");
    reporter.record("speedup_vs_scalar", speedup_vs_scalar, "x");
    for (const auto& [width, rate] : ablation)
        reporter.record("lanes_" + std::to_string(width) + "_scenarios_per_second", rate,
                        "1/s");
    reporter.record("corner_scenarios", static_cast<double>(corners.size()), "count");
    reporter.record("corner_scenarios_per_second", corner_rate, "1/s");
    reporter.record("mismatches", static_cast<double>(mismatches), "count");

    if (mismatches != 0) {
        std::cerr << "FAIL: engine modes diverge on per-scenario results\n";
        return 1;
    }
    return 0;
}
