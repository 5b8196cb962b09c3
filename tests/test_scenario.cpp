// Tests for the batched scenario engine: batch results must be bit-identical
// to a loop of fresh per-scenario compiles, Monte Carlo batches must replay
// under a fixed seed, parallel batches must equal serial batches, and the
// per-scenario fixed-point overflow re-check must degrade only the
// offending scenario.
#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/explorer.h"
#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "core/pert.h"
#include "core/scenario.h"
#include "core/slack.h"
#include "gen/muller.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "sg/builder.h"
#include "util/prng.h"

namespace tsg {
namespace {

/// Fresh graph with the given delays — the recompile-per-scenario reference
/// the engine must reproduce exactly.
signal_graph fresh_with_delays(const signal_graph& sg, const std::vector<rational>& delay)
{
    signal_graph out;
    for (event_id e = 0; e < sg.event_count(); ++e) {
        const event_info& info = sg.event(e);
        out.add_event(info.name, info.signal, info.pol);
    }
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        const arc_info& arc = sg.arc(a);
        out.add_arc(arc.from, arc.to, delay[a], arc.marked, arc.disengageable);
    }
    out.finalize();
    return out;
}

/// A random live strongly connected graph with fractional delays (integer
/// delays would make every fixed-point scale trivially 1).
signal_graph random_fractional_graph(std::uint64_t seed, std::uint32_t events)
{
    prng rng(seed);
    sg_builder b;
    for (std::uint32_t i = 0; i < events; ++i) b.event("e" + std::to_string(i));
    const auto delay = [&] { return rational(rng.uniform(0, 12), rng.uniform(1, 6)); };
    for (std::uint32_t i = 0; i + 1 < events; ++i)
        b.arc("e" + std::to_string(i), "e" + std::to_string(i + 1), delay());
    b.marked_arc("e" + std::to_string(events - 1), "e0", delay());
    for (std::uint32_t extra = 0; extra < events; ++extra) {
        const auto i = static_cast<std::uint32_t>(rng.uniform(0, events - 2));
        const auto j = static_cast<std::uint32_t>(rng.uniform(i + 1, events - 1));
        b.arc("e" + std::to_string(i), "e" + std::to_string(j), delay());
    }
    return b.build();
}

TEST(Scenario, RebindMatchesFreshCompileOnPerturbedDelays)
{
    // The oscillator has initial events around its core, so the core arc
    // set is a strict subset of the arcs — this exercises the non-identity
    // delay projection of the rebind path.
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph base(sg);
    prng rng(0xbeef);

    for (int round = 0; round < 20; ++round) {
        std::vector<rational> delay = base.delay();
        for (rational& d : delay)
            if (rng.chance(0.5)) d += rational(rng.uniform(0, 8), rng.uniform(1, 4));

        const compiled_graph bound = base.rebind(delay);
        const signal_graph fresh = fresh_with_delays(sg, delay);

        const cycle_time_result a = analyze_cycle_time(bound);
        const cycle_time_result b = analyze_cycle_time(fresh);
        EXPECT_EQ(a.cycle_time, b.cycle_time) << round;
        EXPECT_EQ(a.critical_cycle_arcs, b.critical_cycle_arcs) << round;
        EXPECT_EQ(a.critical_occurrence_period, b.critical_occurrence_period) << round;

        const slack_result sa = analyze_slack(bound);
        const slack_result sb = analyze_slack(fresh);
        EXPECT_EQ(sa.slack, sb.slack) << round;
        EXPECT_EQ(sa.arc_critical, sb.arc_critical) << round;
        EXPECT_EQ(sa.potential, sb.potential) << round;
    }
}

TEST(Scenario, BatchIsBitIdenticalToFreshPerScenarioCompiles)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const signal_graph sg = random_fractional_graph(seed, 24);
        const compiled_graph base(sg);
        const scenario_engine engine(base);

        // Corners plus Monte Carlo samples in one batch.
        std::vector<scenario> scenarios = corner_sweep_scenarios(sg);
        monte_carlo_options mc;
        mc.samples = 16;
        mc.seed = seed;
        mc.spread = rational(1, 3);
        for (scenario& s : monte_carlo_scenarios(sg, mc))
            scenarios.push_back(std::move(s));

        const scenario_batch_result batch = engine.run(scenarios);
        ASSERT_EQ(batch.outcomes.size(), scenarios.size());

        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const signal_graph fresh = fresh_with_delays(sg, scenarios[i].delay);
            const slack_result reference = analyze_slack(fresh);
            EXPECT_EQ(batch.outcomes[i].cycle_time, reference.cycle_time) << seed << " " << i;
            EXPECT_EQ(batch.outcomes[i].criticality_margin, reference.criticality_margin)
                << seed << " " << i;
            std::vector<arc_id> critical;
            for (arc_id a = 0; a < fresh.arc_count(); ++a)
                if (reference.arc_critical[a]) critical.push_back(a);
            EXPECT_EQ(batch.outcomes[i].critical_arcs, critical) << seed << " " << i;
        }

        // Aggregates agree with a serial scan of the outcomes.
        rational lo = batch.outcomes[0].cycle_time;
        rational hi = lo;
        for (const scenario_outcome& o : batch.outcomes) {
            lo = min(lo, o.cycle_time);
            hi = max(hi, o.cycle_time);
        }
        EXPECT_EQ(batch.min_cycle_time, lo);
        EXPECT_EQ(batch.max_cycle_time, hi);
        EXPECT_EQ(batch.outcomes[batch.min_index].cycle_time, lo);
        EXPECT_EQ(batch.outcomes[batch.max_index].cycle_time, hi);
    }
}

TEST(Scenario, MonteCarloIsReproducibleUnderAFixedSeed)
{
    const signal_graph sg = random_fractional_graph(7, 16);

    monte_carlo_options mc;
    mc.samples = 12;
    mc.seed = 99;
    const std::vector<scenario> a = monte_carlo_scenarios(sg, mc);
    const std::vector<scenario> b = monte_carlo_scenarios(sg, mc);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].delay, b[i].delay);
    }

    mc.seed = 100;
    const std::vector<scenario> c = monte_carlo_scenarios(sg, mc);
    bool any_different = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].delay != c[i].delay) any_different = true;
    EXPECT_TRUE(any_different) << "different seeds produced identical batches";

    // And the batch results replay too.
    const compiled_graph base(sg);
    const scenario_engine engine(base);
    const scenario_batch_result ra = engine.run(a);
    const scenario_batch_result rb = engine.run(b);
    ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
    for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
        EXPECT_EQ(ra.outcomes[i].cycle_time, rb.outcomes[i].cycle_time);
        EXPECT_EQ(ra.outcomes[i].critical_arcs, rb.outcomes[i].critical_arcs);
    }
}

TEST(Scenario, ParallelBatchMatchesSerialBatch)
{
    const signal_graph sg = random_fractional_graph(11, 32);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 24;
    mc.seed = 5;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options serial;
    serial.max_threads = 1;
    scenario_batch_options parallel;
    parallel.max_threads = 4;

    const scenario_batch_result a = engine.run(scenarios, serial);
    const scenario_batch_result b = engine.run(scenarios, parallel);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].cycle_time, b.outcomes[i].cycle_time) << i;
        EXPECT_EQ(a.outcomes[i].critical_arcs, b.outcomes[i].critical_arcs) << i;
        EXPECT_EQ(a.outcomes[i].criticality_margin, b.outcomes[i].criticality_margin) << i;
        EXPECT_EQ(a.outcomes[i].fixed_point, b.outcomes[i].fixed_point) << i;
    }
    EXPECT_EQ(a.min_cycle_time, b.min_cycle_time);
    EXPECT_EQ(a.max_cycle_time, b.max_cycle_time);
    EXPECT_EQ(a.min_index, b.min_index);
    EXPECT_EQ(a.max_index, b.max_index);
    EXPECT_EQ(a.criticality_count, b.criticality_count);
}

TEST(Scenario, OverflowingScenarioFallsBackToRationalAlone)
{
    // Base graph with small fractional delays: the fixed-point domain is
    // healthy.  One scenario replaces two delays with coprime near-2^31
    // denominators, overflowing the scale re-check during rebind — that
    // scenario (and only that scenario) must run in the rational domain
    // and still match a fresh compile exactly.
    sg_builder b;
    b.event("a");
    b.event("b");
    b.arc("a", "b", rational(1, 2));
    b.marked_arc("b", "a", rational(5, 6));
    const signal_graph sg = b.build();
    const compiled_graph base(sg);
    ASSERT_TRUE(base.fixed_point());

    const std::int64_t p1 = 2147483647; // 2^31 - 1 (prime)
    const std::int64_t p2 = 2147483629; // also prime

    std::vector<scenario> scenarios(3);
    scenarios[0] = {"healthy", {rational(3, 4), rational(1, 6)}};
    scenarios[1] = {"overflowing", {rational(1, p1), rational(10, p2)}};
    scenarios[2] = {"healthy too", {rational(2), rational(1, 3)}};

    const scenario_engine engine(base);
    const scenario_batch_result batch = engine.run(scenarios);

    EXPECT_TRUE(batch.outcomes[0].fixed_point);
    EXPECT_FALSE(batch.outcomes[1].fixed_point);
    EXPECT_TRUE(batch.outcomes[2].fixed_point);
    EXPECT_EQ(batch.fallback_count, 1u);

    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const signal_graph fresh = fresh_with_delays(sg, scenarios[i].delay);
        EXPECT_EQ(batch.outcomes[i].cycle_time, analyze_cycle_time(fresh).cycle_time) << i;
    }
    EXPECT_EQ(batch.outcomes[1].cycle_time, rational(1, p1) + rational(10, p2));

    // The rebound snapshot reports the degraded domain directly, and the
    // base snapshot is untouched.
    EXPECT_FALSE(base.rebind(scenarios[1].delay).fixed_point());
    EXPECT_TRUE(base.fixed_point());
}

TEST(Scenario, HugeDelayScenarioDegradesThePeriodBudgetAlone)
{
    // Integer delays near 2^61: the scale stays 1 but the per-period budget
    // collapses, so the sweeps must take the rational path for just this
    // scenario (the seed's 128-bit rational intermediates handle the sums).
    sg_builder b;
    b.event("a");
    b.event("b");
    b.arc("a", "b", rational(3));
    b.marked_arc("b", "a", rational(4));
    const signal_graph sg = b.build();
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    const std::int64_t big = std::int64_t{1} << 61;
    const scenario_outcome outcome = engine.evaluate({rational(big), rational(big)});
    EXPECT_FALSE(outcome.fixed_point);
    EXPECT_EQ(outcome.cycle_time, rational(big) + rational(big));
}

TEST(Scenario, RebindValidatesItsInput)
{
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph base(sg);
    EXPECT_THROW((void)base.rebind({rational(1)}), error);
    std::vector<rational> negative = base.delay();
    negative[0] = rational(-1);
    EXPECT_THROW((void)base.rebind(negative), error);
    const scenario_engine engine(base);
    EXPECT_THROW((void)engine.run({}), error);
}

TEST(Scenario, AcyclicBatchesEvaluateThePertMakespan)
{
    sg_builder b;
    b.event("start");
    b.event("mid");
    b.event("end");
    b.arc("start", "mid", rational(3, 2));
    b.arc("mid", "end", rational(5, 2));
    b.arc("start", "end", rational(1));
    const signal_graph sg = b.build();
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    std::vector<scenario> scenarios = corner_sweep_scenarios(sg);
    ASSERT_EQ(scenarios.size(), 2 * sg.arc_count()); // widened to all arcs

    const scenario_batch_result batch = engine.run(scenarios);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const signal_graph fresh = fresh_with_delays(sg, scenarios[i].delay);
        const pert_result reference = analyze_pert(fresh);
        EXPECT_EQ(batch.outcomes[i].cycle_time, reference.makespan) << i;
        std::vector<arc_id> critical = reference.critical_arcs;
        std::sort(critical.begin(), critical.end());
        EXPECT_EQ(batch.outcomes[i].critical_arcs, critical) << i;
    }
}

TEST(Scenario, CornerSweepCoversExactlyTheCoreArcs)
{
    const signal_graph sg = c_oscillator_sg();
    std::size_t core_arcs = 0;
    for (arc_id a = 0; a < sg.arc_count(); ++a)
        if (sg.is_repetitive(sg.arc(a).from) && sg.is_repetitive(sg.arc(a).to)) ++core_arcs;

    const std::vector<scenario> scenarios = corner_sweep_scenarios(sg);
    EXPECT_EQ(scenarios.size(), 2 * core_arcs);

    // Every scenario perturbs exactly one arc relative to nominal.
    for (const scenario& s : scenarios) {
        std::size_t changed = 0;
        for (arc_id a = 0; a < sg.arc_count(); ++a)
            if (s.delay[a] != sg.arc(a).delay) ++changed;
        EXPECT_LE(changed, 1u) << s.label; // zero-delay arcs scale to themselves
    }
}

TEST(Scenario, ExplorerDelayCornersMatchTheExtractedModel)
{
    muller_ring_options opts;
    opts.stages = 3;
    const auto circuit = muller_ring_circuit(opts);

    corner_exploration_options explore;
    explore.spread = rational(1, 5);
    explore.samples = 8;
    explore.seed = 21;
    const corner_exploration_result result =
        explore_delay_corners(circuit.nl, circuit.initial, explore);

    // Nominal agrees with a direct analysis of the extracted graph.
    EXPECT_EQ(result.nominal_cycle_time, analyze_cycle_time(result.graph).cycle_time);
    ASSERT_EQ(result.batch.outcomes.size(), result.scenarios.size());
    EXPECT_GT(result.scenarios.size(), 8u); // corners plus the samples

    // The nominal point lies inside the batch envelope.
    EXPECT_LE(result.batch.min_cycle_time, result.nominal_cycle_time);
    EXPECT_GE(result.batch.max_cycle_time, result.nominal_cycle_time);

    // Spot-check one corner against a fresh compile of the extracted graph.
    const signal_graph fresh =
        fresh_with_delays(result.graph, result.scenarios.front().delay);
    EXPECT_EQ(result.batch.outcomes.front().cycle_time,
              analyze_cycle_time(fresh).cycle_time);
}

} // namespace
} // namespace tsg
