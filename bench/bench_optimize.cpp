// Optimizer and top-K reporting benchmark (core/optimize.h).
//
// Four workloads, all regression-gated through ci/check_perf.py:
//
//   deterministic — branch-and-bound budget allocation on a random marked
//                   graph, timed as nominal evaluations per second, with
//                   a replay round (same options twice, plus thread-count
//                   variation) that must reproduce the plan bit for bit;
//   designer      — the same search on a design shaped like perfbench's
//                   designer_session (n = 256, m = 512, border limit 4,
//                   budget 4, step 1, border solver, one thread).  It
//                   reports det_speedup_vs_cold: evaluations x the median
//                   cold lambda-only engine.evaluate time on the design,
//                   over the run_optimize wall time (best of rounds) — how
//                   much the warm Howard chain saves over a cold solve per
//                   candidate, a ratio that does not depend on the
//                   hardware (gated with --min det_speedup_vs_cold=2).  Its
//                   plan must replay bit for bit across solvers {auto,
//                   border, howard} x threads {1, 4};
//   statistical   — the criticality-driven yield loop against a uniform
//                   equal-split allocation of the same budget over the
//                   same candidates, on a bottleneck field (many fast
//                   rings, one slow ring).  Both final delay vectors are
//                   scored
//                   with the identical fixed-size common-random-numbers
//                   Monte Carlo run, so yield_gain_vs_uniform is an exact
//                   apples-to-apples ratio: >= 1.0 means criticality
//                   ranking never loses to spreading the budget blindly
//                   (gated with --min yield_gain_vs_uniform=1.0), and a
//                   seed-replay must reproduce the plan bit for bit;
//   top-K         — Lawler peeling latency for k cycles at n = 1024
//                   events, with bit-identity checks across thread counts
//                   and lane widths and the rank-order invariants (rank 1
//                   has zero slack, ratios never increase).
//
// Any replay or identity violation counts in `mismatches`, gated at zero.
//
//   bench_optimize [--events N] [--opt-events N] [--stat-rings R] [--k K]
//                  [--rounds R] [--seed S] [--eval-samples S]
//                  [--json out.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/cycle_time.h"
#include "core/optimize.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "gen/random_sg.h"
#include "sg/signal_graph.h"
#include "util/rational.h"

namespace {

using namespace tsg;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start)
{
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// The optimizer's own candidate derivation: core arcs with at least one
/// whole step of headroom above the floor, ascending arc id.
void derive_candidates(const compiled_graph& cg, const rational& step,
                       const rational& min_delay, std::vector<arc_id>& cand,
                       std::vector<std::uint64_t>& cap)
{
    std::vector<arc_id> arcs(cg.core().arc_original.begin(),
                             cg.core().arc_original.end());
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    for (const arc_id a : arcs) {
        const rational headroom = cg.delay()[a] - min_delay;
        if (headroom.is_negative() || headroom.is_zero()) continue;
        const rational q = headroom / step;
        const auto c = static_cast<std::uint64_t>(q.num() / q.den());
        if (c == 0) continue;
        cand.push_back(a);
        cap.push_back(c);
    }
}

/// Scores P(lambda <= target) for a delay vector with a fixed-size CRN
/// Monte Carlo run: ranges are derived from the delays exactly like the
/// optimizer derives them, the (seed, index) streams start at sample 0,
/// and epsilon is unreachable so the run always spends `samples` samples.
double score_yield(const scenario_engine& engine, const signal_graph& sg,
                   const std::vector<rational>& delay, const optimize_options& opts,
                   std::size_t samples)
{
    monte_carlo_options mc = opts.mc;
    mc.first_sample = 0;
    mc.ranges.resize(delay.size());
    const rational down = rational(1) - mc.spread;
    const rational up = rational(1) + mc.spread;
    for (std::size_t a = 0; a < delay.size(); ++a) {
        const rational lo = delay[a] * down;
        mc.ranges[a].lo = lo.is_negative() ? rational(0) : lo;
        mc.ranges[a].hi = delay[a] * up;
    }
    stats_options stats = opts.stats;
    stats.yield_target = opts.target;
    stats.yield_objective = true;
    stats.epsilon = 1e-12; // never converges: always runs to the cap
    stats.min_samples = samples;
    stats.max_samples = samples;
    return monte_carlo_adaptive(engine, sg, mc, stats).stats.yield_probability();
}

/// Equal-split budget spreading: every candidate gets the same share of
/// the budget, clamped to its headroom above the floor (leftover from
/// clamped arcs is redistributed over a few passes).  The blind baseline
/// the criticality-driven allocation must beat (or tie).
std::vector<rational> uniform_allocation(const compiled_graph& cg,
                                         const optimize_options& opts)
{
    std::vector<arc_id> cand;
    std::vector<std::uint64_t> cap;
    derive_candidates(cg, opts.step, opts.min_delay, cand, cap);
    std::vector<rational> delay = cg.delay();
    rational left = opts.budget;
    for (int pass = 0; pass < 4 && !left.is_zero(); ++pass) {
        std::vector<std::size_t> active;
        for (std::size_t i = 0; i < cand.size(); ++i) {
            const rational headroom = delay[cand[i]] - opts.min_delay;
            if (!headroom.is_negative() && !headroom.is_zero()) active.push_back(i);
        }
        if (active.empty()) break;
        const rational share = left / rational(static_cast<std::int64_t>(active.size()));
        for (const std::size_t i : active) {
            const rational headroom = delay[cand[i]] - opts.min_delay;
            const rational take = headroom < share ? headroom : share;
            delay[cand[i]] -= take;
            left -= take;
        }
    }
    return delay;
}

/// The statistical workload: `rings` independent rings of `stages` events
/// each, every ring carrying one token.  The last ring is the bottleneck
/// (delay 5 per stage vs 4), so the cycle time is localized in a small
/// fraction of the arcs — the regime a criticality-driven allocation
/// exploits and a uniform spread dilutes away.
signal_graph make_bottleneck_field(std::size_t rings, std::size_t stages)
{
    signal_graph sg;
    std::vector<event_id> anchor; // stage 0 of each ring
    for (std::size_t r = 0; r < rings; ++r) {
        std::vector<event_id> ring;
        for (std::size_t s = 0; s < stages; ++s)
            ring.push_back(sg.add_event("r" + std::to_string(r) + "s" +
                                        std::to_string(s) + "+"));
        const rational d = r + 1 == rings ? rational(5) : rational(4);
        for (std::size_t s = 0; s < stages; ++s)
            sg.add_arc(ring[s], ring[(s + 1) % stages], d, /*marked=*/s == 0);
        anchor.push_back(ring[0]);
    }
    // A token-per-hop hub cycle stitches the rings into one strongly
    // connected component; its ratio (and that of every mixed cycle) stays
    // below the slowest ring's, and its arcs sit at the delay floor so
    // they are never allocation candidates.
    for (std::size_t r = 0; r < rings; ++r)
        sg.add_arc(anchor[r], anchor[(r + 1) % rings], rational(1), /*marked=*/true);
    sg.finalize();
    return sg;
}

bool same_plan(const optimize_result& a, const optimize_result& b)
{
    if (a.exact != b.exact || a.evaluations != b.evaluations) return false;
    if (a.final_cycle_time != b.final_cycle_time) return false;
    if (a.budget_spent != b.budget_spent) return false;
    if (a.allocations.size() != b.allocations.size()) return false;
    for (std::size_t i = 0; i < a.allocations.size(); ++i) {
        if (a.allocations[i].arc != b.allocations[i].arc) return false;
        if (a.allocations[i].new_delay != b.allocations[i].new_delay) return false;
    }
    return true;
}

bool same_report(const topk_result& a, const topk_result& b)
{
    if (a.cycle_time != b.cycle_time) return false;
    if (a.cycles.size() != b.cycles.size()) return false;
    for (std::size_t i = 0; i < a.cycles.size(); ++i) {
        if (a.cycles[i].arcs != b.cycles[i].arcs) return false;
        if (a.cycles[i].ratio != b.cycles[i].ratio) return false;
    }
    return true;
}

} // namespace

int main(int argc, char** argv)
{
    tsg_bench::bench_reporter reporter(argc, argv);

    std::uint32_t events = 1024;    // top-K model size
    std::uint32_t opt_events = 32; // deterministic optimizer model size
    std::size_t stat_rings = 6;    // statistical bottleneck-field rings
    std::size_t k = 8;
    int rounds = 3;
    std::uint64_t seed = 42;
    std::size_t eval_samples = 4096;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--events" && i + 1 < argc)
            events = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        else if (arg == "--opt-events" && i + 1 < argc)
            opt_events = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        else if (arg == "--stat-rings" && i + 1 < argc)
            stat_rings = std::stoull(argv[++i]);
        else if (arg == "--k" && i + 1 < argc)
            k = std::stoull(argv[++i]);
        else if (arg == "--rounds" && i + 1 < argc)
            rounds = std::stoi(argv[++i]);
        else if (arg == "--seed" && i + 1 < argc)
            seed = std::stoull(argv[++i]);
        else if (arg == "--eval-samples" && i + 1 < argc)
            eval_samples = std::stoull(argv[++i]);
    }
    rounds = std::max(1, rounds);
    std::size_t mismatches = 0;

    // --- deterministic optimize: evaluations/s + replay identity ----------
    random_sg_options gopts;
    gopts.events = opt_events;
    gopts.extra_arcs = opt_events / 2;
    gopts.seed = seed;
    gopts.max_delay = 8;
    const signal_graph det_sg = random_marked_graph(gopts);

    optimize_options det;
    det.budget = rational(4);
    det.step = rational(1);
    det.min_delay = rational(1);
    const optimize_result det_first = run_optimize(det_sg, det);
    double det_seconds = 0;
    std::size_t det_evaluations = 0;
    for (int r = 0; r < rounds; ++r) {
        const auto start = clock_type::now();
        const optimize_result plan = run_optimize(det_sg, det);
        const double elapsed = seconds_since(start);
        det_evaluations = plan.evaluations;
        if (r == 0 || elapsed < det_seconds) det_seconds = elapsed;
        if (!same_plan(plan, det_first)) ++mismatches;
    }
    {
        optimize_options threaded = det;
        threaded.max_threads = 4;
        if (!same_plan(run_optimize(det_sg, threaded), det_first)) ++mismatches;
    }
    const double det_rate = static_cast<double>(det_evaluations * rounds) /
                            (det_seconds * rounds);
    std::cout << "deterministic: n=" << det_sg.event_count() << " lambda "
              << det_first.initial_cycle_time.str() << " -> "
              << det_first.final_cycle_time.str() << " ("
              << (det_first.exact ? "exact" : "greedy") << ", " << det_evaluations
              << " evaluations, " << det_rate << " evaluations/s)\n";

    // --- designer-shaped deterministic optimize: speed-up vs cold solves --
    random_sg_options dopts;
    dopts.events = 256;
    dopts.extra_arcs = 256;
    dopts.seed = seed;
    dopts.border_limit = 4;
    const signal_graph designer_sg = random_marked_graph(dopts);
    const compiled_graph designer_cg(designer_sg);
    const scenario_engine designer_engine(designer_cg);

    optimize_options designer = det;
    designer.min_delay = rational(0);
    designer.solver = cycle_time_solver::border_sweep;
    designer.max_threads = 1;
    const optimize_result designer_first = run_optimize(designer_sg, designer_engine, designer);
    double designer_seconds = 0;
    for (int r = 0; r < rounds; ++r) {
        const auto start = clock_type::now();
        const optimize_result plan = run_optimize(designer_sg, designer_engine, designer);
        const double elapsed = seconds_since(start);
        if (r == 0 || elapsed < designer_seconds) designer_seconds = elapsed;
        if (!same_plan(plan, designer_first)) ++mismatches;
    }
    for (const cycle_time_solver solver :
         {cycle_time_solver::auto_select, cycle_time_solver::border_sweep,
          cycle_time_solver::howard}) {
        for (const unsigned threads : {1u, 4u}) {
            optimize_options variant = designer;
            variant.solver = solver;
            variant.max_threads = threads;
            if (!same_plan(run_optimize(designer_sg, designer_engine, variant), designer_first))
                ++mismatches;
        }
    }
    std::vector<double> cold;
    for (int i = 0; i < 64; ++i) {
        const auto start = clock_type::now();
        (void)designer_engine.evaluate(designer_cg.delay(), /*with_slack=*/false, 1,
                                       cycle_time_solver::border_sweep,
                                       /*with_witness=*/false);
        cold.push_back(seconds_since(start));
    }
    std::nth_element(cold.begin(), cold.begin() + 32, cold.end());
    const double cold_seconds = cold[32];
    const double det_speedup = static_cast<double>(designer_first.evaluations) *
                               cold_seconds / designer_seconds;
    std::cout << "designer     : n=" << designer_sg.event_count() << " lambda "
              << designer_first.initial_cycle_time.str() << " -> "
              << designer_first.final_cycle_time.str() << " ("
              << (designer_first.exact ? "exact" : "greedy") << ", "
              << designer_first.evaluations << " evaluations in " << designer_seconds * 1e3
              << " ms, cold evaluation " << cold_seconds * 1e6 << " us, " << det_speedup
              << "x vs cold)\n";

    // --- statistical optimize: yield gain vs uniform + seed replay --------
    const signal_graph stat_sg = make_bottleneck_field(stat_rings, 4);
    const compiled_graph stat_cg(stat_sg);
    const scenario_engine stat_engine(stat_cg);

    optimize_options stat;
    stat.mode = optimize_mode::statistical;
    stat.budget = rational(4);
    stat.step = rational(1, 2);
    stat.min_delay = rational(1);
    stat.target = rational(18); // bottleneck ring sits at 20, the rest at 16
    stat.mc.seed = seed;
    stat.mc.spread = rational(1, 20);
    stat.stats.epsilon = 0.02;

    const auto stat_start = clock_type::now();
    const optimize_result stat_plan = run_optimize(stat_sg, stat);
    const double stat_seconds = seconds_since(stat_start);
    if (!same_plan(run_optimize(stat_sg, stat), stat_plan)) ++mismatches;

    std::vector<rational> optimized = stat_cg.delay();
    for (const optimize_allocation& a : stat_plan.allocations)
        optimized[a.arc] = a.new_delay;
    const double opt_yield =
        score_yield(stat_engine, stat_sg, optimized, stat, eval_samples);
    const double uni_yield = score_yield(stat_engine, stat_sg,
                                         uniform_allocation(stat_cg, stat), stat,
                                         eval_samples);
    // Additive smoothing keeps the ratio finite when both yields are 0;
    // the gate's meaning is unchanged (>= 1 iff optimized >= uniform).
    const double yield_gain = (opt_yield + 0.01) / (uni_yield + 0.01);
    const double stat_rate = static_cast<double>(stat_plan.samples) / stat_seconds;
    std::cout << "statistical  : n=" << stat_sg.event_count() << " target "
              << stat.target.str() << ", yield " << stat_plan.initial_yield << " -> "
              << opt_yield << " (uniform " << uni_yield << ", gain " << yield_gain
              << "), " << stat_plan.samples << " samples (" << stat_rate
              << " samples/s)\n";

    // --- top-K: latency at n = events + thread/lane identity --------------
    gopts.events = events;
    gopts.extra_arcs = events / 2;
    gopts.seed = seed;
    gopts.max_delay = 16;
    const signal_graph topk_sg = random_marked_graph(gopts);

    topk_options topk;
    topk.k = k;
    const topk_result topk_first = report_topk(topk_sg, topk);
    double topk_seconds = 0;
    for (int r = 0; r < rounds; ++r) {
        const auto start = clock_type::now();
        const topk_result report = report_topk(topk_sg, topk);
        const double elapsed = seconds_since(start);
        if (r == 0 || elapsed < topk_seconds) topk_seconds = elapsed;
        if (!same_report(report, topk_first)) ++mismatches;
    }
    for (const unsigned threads : {1u, 4u}) {
        for (const unsigned lanes : {1u, 4u}) {
            topk_options variant = topk;
            variant.max_threads = threads;
            variant.lane_width = lanes;
            if (!same_report(report_topk(topk_sg, variant), topk_first)) ++mismatches;
        }
    }
    if (!topk_first.cycles.empty() && !topk_first.cycles.front().slack.is_zero())
        ++mismatches;
    for (std::size_t i = 1; i < topk_first.cycles.size(); ++i) {
        if (topk_first.cycles[i - 1].ratio < topk_first.cycles[i].ratio) ++mismatches;
    }
    const double topk_rate = 1.0 / topk_seconds;
    std::cout << "top-K        : n=" << topk_sg.event_count() << " k=" << k
              << ", returned " << topk_first.cycles.size() << " ("
              << topk_first.solves << " solves), " << topk_seconds * 1e3 << " ms ("
              << topk_rate << " reports/s)\n";
    std::cout << "bit-identical: " << (mismatches == 0 ? "yes" : "NO") << " ("
              << mismatches << " mismatches)\n";

    reporter.record("det_evaluations_per_second", det_rate, "1/s");
    reporter.record("det_speedup_vs_cold", det_speedup, "ratio");
    reporter.record("stat_samples_per_second", stat_rate, "1/s");
    reporter.record("optimized_yield", opt_yield, "probability");
    reporter.record("uniform_yield", uni_yield, "probability");
    reporter.record("yield_gain_vs_uniform", yield_gain, "ratio");
    reporter.record("topk_latency_ms", topk_seconds * 1e3, "ms");
    reporter.record("topk_reports_per_second", topk_rate, "1/s");
    reporter.record("mismatches", static_cast<double>(mismatches), "count");
    return mismatches == 0 ? 0 : 1;
}
