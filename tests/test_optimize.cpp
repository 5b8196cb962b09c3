// Tests for the criticality-driven optimizer and the top-K critical-cycle
// report (core/optimize.h).
//
// The load-bearing checks mirror the acceptance criteria:
//   * deterministic run_optimize matches an exhaustive search over every
//     quantized allocation (bit-exact final lambda) on small fuzzed graphs;
//   * statistical run_optimize reaches the exhaustive optimum's yield
//     within the joint adaptive-MC confidence intervals;
//   * deterministic report_topk matches brute-force Johnson enumeration
//     (exact ratio order, canonical tie-breaks) and is bit-identical for
//     every thread count and lane width;
//   * seed replay is stable, budget exhaustion and unreachable targets are
//     reported honestly, and the error taxonomy is pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/cycle_time.h"
#include "core/incremental.h"
#include "core/optimize.h"
#include "core/scenario.h"
#include "gen/muller.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "graph/johnson.h"
#include "ratio/ratio_problem.h"

namespace tsg {
namespace {

void expect_error_prefix(const std::function<void()>& fn, const std::string& prefix)
{
    try {
        fn();
        FAIL() << "expected tsg::error with prefix '" << prefix << "'";
    } catch (const error& e) {
        EXPECT_EQ(std::string(e.what()).substr(0, prefix.size()), prefix)
            << "actual: " << e.what();
    }
}

// --- exhaustive allocation baseline ------------------------------------------

/// Minimum lambda over every allocation of at most `total` quanta across
/// `cand` (respecting per-arc caps) — the ground truth the branch-and-bound
/// must match bit-exactly.
rational exhaustive_best_lambda(const scenario_engine& engine,
                                const std::vector<arc_id>& cand,
                                const std::vector<std::uint64_t>& cap, const rational& step,
                                std::vector<rational>& delay, std::size_t i,
                                std::uint64_t remaining)
{
    if (i == cand.size())
        return engine.evaluate(delay, /*with_slack=*/false, 1).cycle_time;
    rational best;
    bool have = false;
    const std::uint64_t most = std::min(cap[i], remaining);
    for (std::uint64_t take = 0; take <= most; ++take) {
        delay[cand[i]] -= step * rational(static_cast<std::int64_t>(take));
        const rational lambda =
            exhaustive_best_lambda(engine, cand, cap, step, delay, i + 1, remaining - take);
        delay[cand[i]] += step * rational(static_cast<std::int64_t>(take));
        if (!have || lambda < best) {
            best = lambda;
            have = true;
        }
    }
    return best;
}

/// The optimizer's candidate derivation, replicated: repetitive-core arcs
/// with at least one whole quantum of headroom above the floor.
void derive_candidates(const compiled_graph& cg, const rational& step,
                       const rational& min_delay, std::vector<arc_id>& cand,
                       std::vector<std::uint64_t>& cap)
{
    std::vector<arc_id> arcs(cg.core().arc_original.begin(), cg.core().arc_original.end());
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    for (const arc_id a : arcs) {
        const rational headroom = cg.delay()[a] - min_delay;
        if (headroom.is_negative() || headroom.is_zero()) continue;
        const rational q = headroom / step;
        const std::uint64_t c = static_cast<std::uint64_t>(q.num() / q.den());
        if (c == 0) continue;
        cand.push_back(a);
        cap.push_back(c);
    }
}

TEST(Optimize, DeterministicMatchesExhaustiveSearchOnFuzzedGraphs)
{
    for (const std::uint64_t seed : {7u, 19u, 23u, 57u}) {
        random_sg_options gopts;
        gopts.events = 6;
        gopts.extra_arcs = 3;
        gopts.seed = seed;
        gopts.max_delay = 7;
        const signal_graph sg = random_marked_graph(gopts);
        const compiled_graph cg(sg);
        const scenario_engine engine(cg);

        optimize_options opts;
        opts.budget = rational(3);
        opts.step = rational(1);
        opts.max_threads = 1;
        const optimize_result plan = run_optimize(sg, engine, opts);
        ASSERT_TRUE(plan.exact) << "seed " << seed;

        std::vector<arc_id> cand;
        std::vector<std::uint64_t> cap;
        derive_candidates(cg, opts.step, opts.min_delay, cand, cap);
        std::vector<rational> delay = cg.delay();
        const rational best =
            exhaustive_best_lambda(engine, cand, cap, opts.step, delay, 0, 3);
        EXPECT_EQ(plan.final_cycle_time, best) << "seed " << seed;
        EXPECT_LE(plan.budget_spent, opts.budget);
    }
}

TEST(Optimize, PlanIsConsistentAndAppliesThroughIncrementalEngine)
{
    const signal_graph sg = c_oscillator_sg();
    optimize_options opts;
    opts.budget = rational(2);
    opts.step = rational(1);
    opts.min_delay = rational(1);
    const optimize_result plan = run_optimize(sg, opts);

    EXPECT_EQ(plan.initial_cycle_time, rational(10));
    EXPECT_LT(plan.final_cycle_time, plan.initial_cycle_time);
    EXPECT_TRUE(plan.exact);
    EXPECT_LE(plan.budget_spent, opts.budget);

    rational spent(0);
    for (std::size_t i = 0; i < plan.allocations.size(); ++i) {
        const optimize_allocation& a = plan.allocations[i];
        if (i > 0) {
            EXPECT_LT(plan.allocations[i - 1].arc, a.arc); // ascending
        }
        EXPECT_EQ(a.old_delay - a.new_delay, a.reduction);
        EXPECT_GE(a.new_delay, opts.min_delay);
        // Every reduction is a whole number of quanta.
        const rational q = a.reduction / opts.step;
        EXPECT_EQ(q.den(), 1);
        spent += a.reduction;
    }
    EXPECT_EQ(spent, plan.budget_spent);

    // The edit batch is the plan: applying it through the incremental
    // kernel reproduces the planned cycle time exactly.
    ASSERT_EQ(plan.edits.size(), plan.allocations.size());
    incremental_engine inc(sg);
    inc.apply(plan.edits);
    EXPECT_EQ(inc.analyze().cycle_time, plan.final_cycle_time);
}

TEST(Optimize, TargetReachedAndUnreachableAreReportedHonestly)
{
    const signal_graph sg = c_oscillator_sg();

    optimize_options opts;
    opts.budget = rational(4);
    opts.step = rational(1);
    opts.min_delay = rational(1);
    opts.target = rational(8);
    const optimize_result reached = run_optimize(sg, opts);
    EXPECT_TRUE(reached.target_reached);
    EXPECT_LE(reached.final_cycle_time, rational(8));

    // With every delay floored at 1 no budget reaches lambda 1/2.
    opts.target = rational(1, 2);
    opts.budget = rational(100);
    const optimize_result unreachable = run_optimize(sg, opts);
    EXPECT_FALSE(unreachable.target_reached);
    EXPECT_GE(unreachable.final_cycle_time, rational(1));
}

TEST(Optimize, BudgetExhaustionStopsTheAllocation)
{
    const signal_graph sg = muller_ring_sg();
    optimize_options opts;
    opts.budget = rational(1);
    opts.step = rational(1, 2);
    opts.min_delay = rational(1, 4);
    const optimize_result plan = run_optimize(sg, opts);
    EXPECT_LE(plan.budget_spent, opts.budget);
    const rational q = plan.budget_spent / opts.step;
    EXPECT_EQ(q.den(), 1); // whole quanta only
}

TEST(Optimize, GreedyFallbackUnderTinyEvaluationCap)
{
    random_sg_options gopts;
    gopts.events = 10;
    gopts.extra_arcs = 8;
    gopts.seed = 5;
    gopts.max_delay = 9;
    const signal_graph sg = random_marked_graph(gopts);
    const rational initial = analyze_cycle_time(sg).cycle_time;

    optimize_options opts;
    opts.budget = rational(4);
    opts.step = rational(1);
    opts.max_evaluations = 3; // force the branch-and-bound to abort
    const optimize_result plan = run_optimize(sg, opts);
    EXPECT_FALSE(plan.exact);
    EXPECT_LE(plan.final_cycle_time, initial); // never worse than doing nothing
    EXPECT_LE(plan.budget_spent, opts.budget);

    incremental_engine inc(sg);
    if (!plan.edits.empty()) inc.apply(plan.edits);
    EXPECT_EQ(inc.analyze().cycle_time, plan.final_cycle_time);
}

TEST(Optimize, PayloadDoesNotDependOnTheSolverOrThreads)
{
    // Search evaluations run on the warm Howard chain whatever the request
    // names; the plan, the evaluation count and `exact` must not move.
    // Designs where the evaluation cap trips (greedy fallback) and small
    // ones where the branch-and-bound completes.
    struct design {
        std::uint32_t events;
        std::uint32_t extra_arcs;
        std::uint32_t border_limit;
        std::uint64_t seed;
        bool exact;
    };
    for (const design d : {design{64, 64, 4, 3, false}, design{40, 40, 0, 8, false},
                           design{8, 5, 0, 4, true}, design{10, 8, 2, 6, true}}) {
        random_sg_options gopts;
        gopts.events = d.events;
        gopts.extra_arcs = d.extra_arcs;
        gopts.border_limit = d.border_limit;
        gopts.seed = d.seed;
        const signal_graph sg = random_marked_graph(gopts);
        const compiled_graph cg(sg);
        const scenario_engine engine(cg);

        optimize_options opts;
        opts.budget = rational(4);
        opts.step = rational(1);
        if (!d.exact) opts.max_evaluations = 600; // trip the cap early: a short test
        std::string reference;
        for (const cycle_time_solver solver :
             {cycle_time_solver::auto_select, cycle_time_solver::border_sweep,
              cycle_time_solver::howard}) {
            for (const unsigned threads : {1u, 4u}) {
                opts.solver = solver;
                opts.max_threads = threads;
                const optimize_result plan = run_optimize(sg, engine, opts);
                EXPECT_EQ(plan.exact, d.exact) << "n=" << d.events;
                const std::string payload = optimize_json("optimize", "auto", sg, opts, plan);
                if (reference.empty()) reference = payload;
                EXPECT_EQ(payload, reference)
                    << "n=" << d.events << " solver " << static_cast<int>(solver)
                    << " threads " << threads;
            }
        }
    }
}

TEST(Optimize, PassedDeadlineStopsTheSearchBeforeItsFirstEvaluation)
{
    const signal_graph sg = c_oscillator_sg();
    optimize_options opts;
    opts.budget = rational(2);
    opts.step = rational(1);
    opts.stats.deadline = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(1));
    expect_error_prefix([&] { (void)run_optimize(sg, opts); },
                        "deadline_exceeded: deadline passed after 0 evaluations");

    // A deadline far in the future changes nothing.
    optimize_options relaxed = opts;
    relaxed.stats.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
    opts.stats.deadline = {};
    EXPECT_EQ(optimize_json("optimize", "auto", sg, relaxed, run_optimize(sg, relaxed)),
              optimize_json("optimize", "auto", sg, opts, run_optimize(sg, opts)));
}

// --- statistical optimizer ---------------------------------------------------

/// The optimizer's per-evaluation Monte Carlo setup, replicated for the
/// exhaustive yield baseline: ranges around the given delays, common
/// random numbers, yield-CI adaptive target.
stats_run_result yield_of(const scenario_engine& engine, const signal_graph& sg,
                          const std::vector<rational>& delay,
                          const optimize_options& opts)
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
    if (stats.epsilon <= 0.0) stats.epsilon = 0.05;
    stats.max_threads = 1;
    return monte_carlo_adaptive(engine, sg, mc, stats);
}

double exhaustive_best_yield(const scenario_engine& engine, const signal_graph& sg,
                             const std::vector<arc_id>& cand,
                             const std::vector<std::uint64_t>& cap,
                             const optimize_options& opts, std::vector<rational>& delay,
                             std::size_t i, std::uint64_t remaining)
{
    if (i == cand.size())
        return yield_of(engine, sg, delay, opts).stats.yield_probability();
    double best = -1.0;
    const std::uint64_t most = std::min(cap[i], remaining);
    for (std::uint64_t take = 0; take <= most; ++take) {
        delay[cand[i]] -= opts.step * rational(static_cast<std::int64_t>(take));
        best = std::max(best, exhaustive_best_yield(engine, sg, cand, cap, opts, delay,
                                                    i + 1, remaining - take));
        delay[cand[i]] += opts.step * rational(static_cast<std::int64_t>(take));
    }
    return best;
}

TEST(Optimize, StatisticalReachesExhaustiveOptimumWithinCI)
{
    for (const std::uint64_t seed : {3u, 11u}) {
        random_sg_options gopts;
        gopts.events = 5;
        gopts.extra_arcs = 2;
        gopts.seed = seed;
        gopts.max_delay = 6;
        const signal_graph sg = random_marked_graph(gopts);
        const compiled_graph cg(sg);
        const scenario_engine engine(cg);
        const rational nominal = analyze_cycle_time(sg).cycle_time;

        optimize_options opts;
        opts.mode = optimize_mode::statistical;
        opts.budget = rational(2);
        opts.step = rational(1);
        // A target between the reachable optimum and nominal, so the yield
        // objective actually discriminates between allocations.
        opts.target = nominal - rational(1, 2);
        opts.max_threads = 1;
        opts.mc.seed = 1 + seed;
        opts.stats.epsilon = 0.04;
        opts.stats.max_samples = 4096;
        const optimize_result plan = run_optimize(sg, engine, opts);

        std::vector<arc_id> cand;
        std::vector<std::uint64_t> cap;
        derive_candidates(cg, opts.step, opts.min_delay, cand, cap);
        std::vector<rational> delay = cg.delay();
        const double best =
            exhaustive_best_yield(engine, sg, cand, cap, opts, delay, 0, 2);

        // Within the joint CIs of the adaptive runs (both evaluations
        // target an epsilon-wide CI, so 2 * (epsilon + epsilon) bounds the
        // gap when both estimates are honest).
        EXPECT_GE(plan.final_yield + plan.final_yield_ci_half_width + 2 * 0.04, best)
            << "seed " << seed;
        EXPECT_GE(plan.final_yield, plan.initial_yield - plan.final_yield_ci_half_width -
                                        plan.initial_yield_ci_half_width)
            << "seed " << seed;
    }
}

TEST(Optimize, StatisticalSeedReplayIsStable)
{
    const signal_graph sg = muller_ring_sg();

    optimize_options opts;
    opts.mode = optimize_mode::statistical;
    opts.budget = rational(2);
    opts.step = rational(1, 2);
    opts.min_delay = rational(1, 2);
    opts.target = analyze_cycle_time(sg).cycle_time - rational(1, 4);
    opts.max_threads = 1;
    opts.mc.seed = 42;
    opts.stats.max_samples = 1024;

    const optimize_result a = run_optimize(sg, opts);
    const optimize_result b = run_optimize(sg, opts);
    EXPECT_EQ(a.final_cycle_time, b.final_cycle_time);
    EXPECT_EQ(a.final_yield, b.final_yield);
    EXPECT_EQ(a.samples, b.samples);
    ASSERT_EQ(a.allocations.size(), b.allocations.size());
    for (std::size_t i = 0; i < a.allocations.size(); ++i) {
        EXPECT_EQ(a.allocations[i].arc, b.allocations[i].arc);
        EXPECT_EQ(a.allocations[i].new_delay, b.allocations[i].new_delay);
    }
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(a.steps[i].arc, b.steps[i].arc);
        EXPECT_EQ(a.steps[i].yield_after, b.steps[i].yield_after);
    }
    // The committed trajectory never exceeds the budget and stays above
    // the floor.
    EXPECT_LE(a.budget_spent, opts.budget);
    for (const optimize_allocation& alloc : a.allocations)
        EXPECT_GE(alloc.new_delay, opts.min_delay);
}

// --- top-K: deterministic ----------------------------------------------------

/// Brute-force ground truth: every simple cycle of the ratio problem,
/// keyed by canonical original-arc identity, with its exact ratio.
std::vector<std::pair<rational, std::vector<arc_id>>> brute_force_cycles(
    const compiled_graph& cg)
{
    const ratio_problem base = make_ratio_problem(cg);
    const cycle_enumeration all = enumerate_simple_cycles(base.graph);
    EXPECT_FALSE(all.truncated);
    std::map<std::vector<arc_id>, rational> by_identity;
    for (const std::vector<arc_id>& cycle : all.cycles) {
        rational ratio;
        try {
            ratio = cycle_ratio(base, cycle);
        } catch (const error&) {
            continue; // token-free cycle: no steady-state constraint
        }
        std::vector<arc_id> original;
        for (const arc_id a : cycle)
            original.push_back(base.arc_original.empty() ? a : base.arc_original[a]);
        const auto lead = std::min_element(original.begin(), original.end());
        std::rotate(original.begin(), lead, original.end());
        by_identity.emplace(std::move(original), ratio);
    }
    std::vector<std::pair<rational, std::vector<arc_id>>> ranked;
    for (const auto& [arcs, ratio] : by_identity) ranked.emplace_back(ratio, arcs);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return b.first < a.first; // ratio descending
        return a.second < b.second;                       // canonical ascending
    });
    return ranked;
}

TEST(TopK, DeterministicMatchesBruteForceOnFuzzedGraphs)
{
    for (const std::uint64_t seed : {2u, 13u, 31u, 77u}) {
        random_sg_options gopts;
        gopts.events = 7;
        gopts.extra_arcs = 4;
        gopts.seed = seed;
        gopts.max_delay = 8;
        const signal_graph sg = random_marked_graph(gopts);
        const compiled_graph cg(sg);

        const auto expected = brute_force_cycles(cg);
        ASSERT_FALSE(expected.empty());

        topk_options opts;
        opts.k = 4;
        const topk_result report = report_topk(sg, opts);
        EXPECT_EQ(report.cycle_time, expected.front().first);

        const std::size_t want = std::min<std::size_t>(opts.k, expected.size());
        ASSERT_EQ(report.cycles.size(), want) << "seed " << seed;
        EXPECT_EQ(report.truncated, expected.size() < opts.k);
        for (std::size_t i = 0; i < want; ++i) {
            EXPECT_EQ(report.cycles[i].ratio, expected[i].first)
                << "seed " << seed << " rank " << i;
            EXPECT_EQ(report.cycles[i].arcs, expected[i].second)
                << "seed " << seed << " rank " << i;
        }
    }
}

TEST(TopK, CycleDataIsInternallyConsistent)
{
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph cg(sg);
    topk_options opts;
    opts.k = 3;
    const topk_result report = report_topk(sg, opts);
    ASSERT_FALSE(report.cycles.empty());
    EXPECT_EQ(report.cycles.front().slack, rational(0)); // the critical cycle
    for (const topk_cycle& cycle : report.cycles) {
        ASSERT_FALSE(cycle.arcs.empty());
        EXPECT_EQ(cycle.arcs.size(), cycle.events.size());
        EXPECT_EQ(cycle.arcs.size(), cycle.contributions.size());
        EXPECT_EQ(*std::min_element(cycle.arcs.begin(), cycle.arcs.end()),
                  cycle.arcs.front()); // canonical rotation
        rational delay(0);
        std::uint32_t tokens = 0;
        double share = 0.0;
        for (std::size_t j = 0; j < cycle.arcs.size(); ++j) {
            EXPECT_EQ(cycle.contributions[j].arc, cycle.arcs[j]);
            EXPECT_EQ(cycle.events[j], sg.arc(cycle.arcs[j]).from);
            delay += cycle.contributions[j].delay;
            share += cycle.contributions[j].share;
            if (sg.arc(cycle.arcs[j]).marked) ++tokens;
        }
        EXPECT_EQ(delay, cycle.delay);
        EXPECT_EQ(tokens, cycle.tokens);
        EXPECT_NEAR(share, 1.0, 1e-9);
        EXPECT_EQ(cycle.ratio,
                  cycle.delay / rational(static_cast<std::int64_t>(cycle.tokens)));
        EXPECT_EQ(cycle.slack,
                  report.cycle_time * rational(static_cast<std::int64_t>(cycle.tokens)) -
                      cycle.delay);
        EXPECT_GE(cycle.slack, rational(0));
        EXPECT_LE(cycle.ratio, report.cycle_time);
    }
    // Ranked most-critical first.
    for (std::size_t i = 1; i < report.cycles.size(); ++i)
        EXPECT_LE(report.cycles[i].ratio, report.cycles[i - 1].ratio);
}

TEST(TopK, DeterministicIsBitIdenticalAcrossThreadsAndLanes)
{
    random_sg_options gopts;
    gopts.events = 16;
    gopts.extra_arcs = 12;
    gopts.seed = 9;
    const signal_graph sg = random_marked_graph(gopts);

    topk_options base;
    base.k = 5;
    base.max_threads = 1;
    const topk_result reference = report_topk(sg, base);

    for (const unsigned threads : {0u, 2u, 4u}) {
        for (const unsigned lanes : {0u, 1u, 4u}) {
            topk_options opts = base;
            opts.max_threads = threads;
            opts.lane_width = lanes;
            const topk_result report = report_topk(sg, opts);
            ASSERT_EQ(report.cycles.size(), reference.cycles.size());
            EXPECT_EQ(report.cycle_time, reference.cycle_time);
            for (std::size_t i = 0; i < report.cycles.size(); ++i) {
                EXPECT_EQ(report.cycles[i].arcs, reference.cycles[i].arcs);
                EXPECT_EQ(report.cycles[i].ratio, reference.cycles[i].ratio);
            }
        }
    }
}

TEST(TopK, ExpansionCapFlagsTruncation)
{
    random_sg_options gopts;
    gopts.events = 12;
    gopts.extra_arcs = 10;
    gopts.seed = 21;
    const signal_graph sg = random_marked_graph(gopts);

    topk_options opts;
    opts.k = 8;
    opts.max_expansions = 1; // only the root solve may expand
    const topk_result report = report_topk(sg, opts);
    EXPECT_TRUE(report.truncated);
    ASSERT_FALSE(report.cycles.empty());
    // What is returned is still correct: the top cycle is the critical one.
    EXPECT_EQ(report.cycles.front().ratio, report.cycle_time);
}

TEST(TopK, PassedDeadlineStopsTheReportBeforeItsFirstSolve)
{
    const signal_graph sg = c_oscillator_sg();
    topk_options opts;
    opts.deadline = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(1));
    expect_error_prefix([&] { (void)report_topk(sg, opts); },
                        "deadline_exceeded: deadline passed after 0 solves");

    topk_options stat = opts;
    stat.mode = optimize_mode::statistical;
    expect_error_prefix([&] { (void)report_topk(sg, stat); },
                        "deadline_exceeded: deadline passed after 0 samples");

    topk_options relaxed = opts;
    relaxed.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
    opts.deadline = {};
    EXPECT_EQ(topk_json("report_topk", "auto", sg, relaxed, report_topk(sg, relaxed)),
              topk_json("report_topk", "auto", sg, opts, report_topk(sg, opts)));
}

// --- top-K: statistical ------------------------------------------------------

TEST(TopK, StatisticalTalliesWitnessesDeterministically)
{
    const signal_graph sg = muller_ring_sg();

    topk_options opts;
    opts.mode = optimize_mode::statistical;
    opts.k = 3;
    opts.samples = 300; // spans two streaming rounds
    opts.solver = cycle_time_solver::border_sweep;
    opts.mc.seed = 7;
    const topk_result a = report_topk(sg, opts);
    EXPECT_EQ(a.samples, 300u);

    // Seed replay: bit-identical.
    const topk_result b = report_topk(sg, opts);
    ASSERT_EQ(a.cycles.size(), b.cycles.size());
    for (std::size_t i = 0; i < a.cycles.size(); ++i) {
        EXPECT_EQ(a.cycles[i].arcs, b.cycles[i].arcs);
        EXPECT_EQ(a.cycles[i].count, b.cycles[i].count);
        EXPECT_EQ(a.cycles[i].first_index, b.cycles[i].first_index);
    }

    // The round partition must not change the tally either: one engine run
    // over all 300 samples ranks the same cycles with the same counts and
    // first indices.
    const compiled_graph cg(sg);
    const scenario_engine engine(cg);
    monte_carlo_options mc = opts.mc;
    mc.samples = opts.samples;
    scenario_batch_options whole;
    whole.with_slack = false;
    whole.with_witness = true;
    whole.solver = opts.solver;
    const scenario_batch_result batch = engine.run(monte_carlo_scenarios(sg, mc), whole);
    ASSERT_LE(a.cycles.size(), batch.critical_cycles.size());
    for (std::size_t i = 0; i < a.cycles.size(); ++i) {
        EXPECT_EQ(a.cycles[i].arcs, batch.critical_cycles[i].arcs);
        EXPECT_EQ(a.cycles[i].count, batch.critical_cycles[i].count);
        EXPECT_EQ(a.cycles[i].first_index, batch.critical_cycles[i].first_index);
    }

    // Thread/lane layouts must not change the tally (witness contract of
    // the scenario engine under border_sweep).
    for (const unsigned threads : {0u, 3u}) {
        for (const unsigned lanes : {1u, 8u}) {
            topk_options alt = opts;
            alt.max_threads = threads;
            alt.lane_width = lanes;
            const topk_result c = report_topk(sg, alt);
            ASSERT_EQ(c.cycles.size(), a.cycles.size());
            for (std::size_t i = 0; i < a.cycles.size(); ++i) {
                EXPECT_EQ(c.cycles[i].arcs, a.cycles[i].arcs);
                EXPECT_EQ(c.cycles[i].count, a.cycles[i].count);
            }
        }
    }

    // Tally sanity: ordered by count, probabilities sum to <= 1, CIs are
    // finite, and every reported cycle carries exact nominal enrichment.
    std::size_t total = 0;
    for (std::size_t i = 0; i < a.cycles.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(a.cycles[i].count, a.cycles[i - 1].count);
        }
        EXPECT_GT(a.cycles[i].count, 0u);
        EXPECT_NEAR(a.cycles[i].probability,
                    static_cast<double>(a.cycles[i].count) / 300.0, 1e-12);
        EXPECT_GE(a.cycles[i].ci_half_width, 0.0);
        EXPECT_GT(a.cycles[i].tokens, 0u);
        total += a.cycles[i].count;
    }
    EXPECT_LE(total, 300u);
}

// --- error taxonomy ----------------------------------------------------------

TEST(OptimizeErrors, PinnedTaxonomy)
{
    const signal_graph sg = c_oscillator_sg();

    optimize_options no_budget;
    expect_error_prefix([&] { (void)run_optimize(sg, no_budget); }, "invalid_request:");

    optimize_options negative_floor;
    negative_floor.budget = rational(1);
    negative_floor.min_delay = rational(-1);
    expect_error_prefix([&] { (void)run_optimize(sg, negative_floor); },
                        "invalid_request:");

    optimize_options no_target;
    no_target.mode = optimize_mode::statistical;
    no_target.budget = rational(1);
    expect_error_prefix([&] { (void)run_optimize(sg, no_target); }, "invalid_request:");

    optimize_options no_model;
    no_model.mode = optimize_mode::statistical;
    no_model.budget = rational(1);
    no_model.target = rational(9);
    no_model.mc.spread = rational(0);
    expect_error_prefix([&] { (void)run_optimize(sg, no_model); }, "unsupported:");

    optimize_options explicit_ranges;
    explicit_ranges.mode = optimize_mode::statistical;
    explicit_ranges.budget = rational(1);
    explicit_ranges.target = rational(9);
    explicit_ranges.mc.ranges.resize(sg.arc_count());
    expect_error_prefix([&] { (void)run_optimize(sg, explicit_ranges); }, "unsupported:");

    topk_options zero_k;
    zero_k.k = 0;
    expect_error_prefix([&] { (void)report_topk(sg, zero_k); }, "invalid_request:");

    topk_options no_samples;
    no_samples.mode = optimize_mode::statistical;
    no_samples.samples = 0;
    expect_error_prefix([&] { (void)report_topk(sg, no_samples); }, "invalid_request:");

    // An acyclic graph has no cycle time to optimize or report.
    signal_graph acyclic;
    const event_id a = acyclic.add_event("a+");
    const event_id b = acyclic.add_event("b+");
    acyclic.add_arc(a, b, rational(1));
    acyclic.finalize();
    optimize_options det;
    det.budget = rational(1);
    expect_error_prefix([&] { (void)run_optimize(acyclic, det); }, "invalid_request:");
    topk_options tk;
    expect_error_prefix([&] { (void)report_topk(acyclic, tk); }, "invalid_request:");
}

} // namespace
} // namespace tsg
