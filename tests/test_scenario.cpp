// Tests for the batched scenario engine: batch results must be bit-identical
// to a loop of fresh per-scenario compiles, Monte Carlo batches must replay
// under a fixed seed, parallel batches must equal serial batches, and the
// per-scenario fixed-point overflow re-check must degrade only the
// offending scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

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

    // The table overload (the service's fixed-size path) replays it too.
    const std::vector<scenario> t = monte_carlo_scenarios(sg, mc, build_monte_carlo_table(sg, mc));
    ASSERT_EQ(a.size(), t.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, t[i].label);
        EXPECT_EQ(a[i].delay, t[i].delay);
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

/// Every image row `source` draws is its rational row at the image's scale;
/// returns how many samples had an image.
std::size_t expect_image_rows_scale_exactly(const monte_carlo_source& source)
{
    std::size_t imaged = 0;
    std::vector<rational> scratch;
    fixed_point_domain domain;
    for (std::size_t i = 0; i < source.size(); ++i) {
        if (!source.image(i, 1, domain)) continue;
        ++imaged;
        const std::vector<rational>& row = source.delays(i, scratch);
        EXPECT_EQ(domain.scaled.size(), row.size()) << i;
        for (arc_id a = 0; a < std::min(row.size(), domain.scaled.size()); ++a)
            EXPECT_EQ(rational(domain.scaled[a], domain.scale), row[a]) << i << ", arc " << a;
    }
    return imaged;
}

TEST(Scenario, MonteCarloTableMatchesComputedSamplingOnEveryGridShape)
{
    const signal_graph sg = random_fractional_graph(7, 16);
    const compiled_graph base(sg);
    // Draws through the table with cells, through one without (computed
    // rows: one sample asked for), and the table-free batch all agree, and
    // both tables' image rows scale their rational rows exactly.
    const auto expect_same = [&](const monte_carlo_options& mc, bool imaged) {
        const std::vector<scenario> computed = monte_carlo_scenarios(sg, mc);
        const monte_carlo_table cells = build_monte_carlo_table(sg, mc);
        const std::vector<scenario> tabled = monte_carlo_scenarios(sg, mc, cells);
        EXPECT_EQ(computed.size(), mc.samples);
        EXPECT_EQ(tabled.size(), mc.samples);
        for (std::size_t i = 0; i < std::min(computed.size(), tabled.size()); ++i) {
            EXPECT_EQ(computed[i].label, tabled[i].label) << i;
            EXPECT_EQ(computed[i].delay, tabled[i].delay) << i;
        }
        const std::shared_ptr<const monte_carlo_table> tables[] = {
            std::make_shared<const monte_carlo_table>(cells),
            scenario_engine(base).sampling_table(mc, 1)};
        EXPECT_FALSE(tables[0]->values.empty());
        EXPECT_TRUE(tables[1]->values.empty());
        for (const std::shared_ptr<const monte_carlo_table>& table : tables) {
            SCOPED_TRACE(table->values.empty() ? "without cells" : "with cells");
            const monte_carlo_source source(sg, mc, table);
            EXPECT_EQ(expect_image_rows_scale_exactly(source), imaged ? mc.samples : 0);
        }
        return tabled;
    };

    monte_carlo_options mc;
    mc.samples = 12;
    mc.seed = 99;
    {
        SCOPED_TRACE("spread");
        monte_carlo_options spread = mc;
        spread.spread = rational(2, 7);
        spread.resolution = 9;
        expect_same(spread, true);
    }
    {
        SCOPED_TRACE("ranges");
        monte_carlo_options ranged = mc;
        for (arc_id a = 0; a < sg.arc_count(); ++a)
            ranged.ranges.push_back({sg.arc(a).delay, sg.arc(a).delay + rational(1, 2)});
        expect_same(ranged, true);

        // Arc 0's grid needs lo.den * span.den = 2^70, past int64, so it
        // samples through the exact rational fallback, and no row has an
        // image.
        SCOPED_TRACE("2^70 fallback arc");
        const rational lo(1, std::int64_t{1} << 40);
        ranged.ranges[0] = {lo, lo + rational(1, std::int64_t{1} << 30)};
        for (const scenario& s : expect_same(ranged, false)) {
            EXPECT_LE(ranged.ranges[0].lo, s.delay[0]);
            EXPECT_LE(s.delay[0], ranged.ranges[0].hi);
        }
    }
    {
        SCOPED_TRACE("correlated delay_model");
        monte_carlo_options correlated = mc;
        delay_model::source vdd;
        vdd.name = "Vdd";
        for (arc_id a = 0; a < sg.arc_count(); ++a)
            vdd.sensitivity.push_back(rational(static_cast<std::int64_t>(a % 3), 10));
        correlated.model.sources.push_back(vdd);
        correlated.model.resolution = 8;
        expect_same(correlated, false); // the model's shift has no image
    }
    {
        SCOPED_TRACE("first_sample");
        monte_carlo_options later = mc;
        later.first_sample = 1000;
        EXPECT_EQ(expect_same(later, true).front().label, "mc#1000 seed=99");
    }

    // A table built for another resolution is refused.
    monte_carlo_options finer = mc;
    finer.resolution = 32;
    const monte_carlo_table wrong = build_monte_carlo_table(sg, finer);
    EXPECT_THROW((void)monte_carlo_scenarios(sg, mc, wrong), error);
}

TEST(Scenario, MonteCarloTableImageScalesEveryCellExactly)
{
    const signal_graph sg = random_fractional_graph(7, 16);
    const auto expect_exact_image = [&](monte_carlo_options mc) {
        const monte_carlo_table table = build_monte_carlo_table(sg, mc);
        ASSERT_NE(table.scale, 0);
        ASSERT_EQ(table.image.size(), sg.arc_count());
        const auto stride = static_cast<std::size_t>(table.resolution + 1);
        ASSERT_EQ(table.values.size(), sg.arc_count() * stride);
        int128 mass = 0;
        for (arc_id a = 0; a < sg.arc_count(); ++a) {
            rational heaviest(0);
            for (std::size_t u = 0; u < stride; ++u) {
                const rational& cell = table.values[a * stride + u];
                EXPECT_EQ(table.scale % cell.den(), 0) << a << ", " << u;
                heaviest = max(heaviest, cell);
            }
            mass += static_cast<int128>(heaviest.num()) * (table.scale / heaviest.den());
        }
        EXPECT_EQ(table.period_limit, fixed_point_period_limit(mass));

        // Every cell a sample draws reaches its image row exactly.
        mc.samples = 64;
        const monte_carlo_source source(sg, mc, std::make_shared<const monte_carlo_table>(table));
        EXPECT_EQ(expect_image_rows_scale_exactly(source), mc.samples);
    };
    monte_carlo_options mc;
    expect_exact_image(mc);
    mc.spread = rational(2, 7);
    mc.resolution = 9;
    expect_exact_image(mc);
    for (arc_id a = 0; a < sg.arc_count(); ++a)
        mc.ranges.push_back({sg.arc(a).delay / 3, sg.arc(a).delay + rational(1, 5)});
    expect_exact_image(mc);

    // A 2^40 denominator passes the scale cap: no image, rationals intact.
    const rational lo(1, std::int64_t{1} << 40);
    mc.ranges[0] = {lo, lo + rational(1, std::int64_t{1} << 30)};
    const monte_carlo_table fallback = build_monte_carlo_table(sg, mc);
    EXPECT_EQ(fallback.scale, 0);
    EXPECT_TRUE(fallback.image.empty());
    EXPECT_EQ(fallback.values.size(), sg.arc_count() * 10);
}

TEST(Scenario, SamplingTablesAreCachedPerEngineAndGrid)
{
    const signal_graph sg = random_fractional_graph(7, 16);
    const compiled_graph base(sg);
    monte_carlo_options mc; // spread 1/10, resolution 16

    {
        // The tool's rule: one request of 16 samples at resolution 16 draws
        // computed rows, one of 17 builds the cells.
        const scenario_engine engine(base);
        const auto sixteen = engine.sampling_table(mc, 16);
        EXPECT_TRUE(sixteen->values.empty());
        EXPECT_NE(sixteen->scale, 0);
        EXPECT_EQ(engine.sampling_table(mc, 0), sixteen); // same engine, same grid
        // The service's rule: the samples asked for add up per grid, so the
        // next request passes the resolution and gets the cells, in a new
        // table with the same grid and image.
        const auto more = engine.sampling_table(mc, 1);
        EXPECT_NE(more, sixteen);
        EXPECT_EQ(more->values.size(), sg.arc_count() * 17);
        EXPECT_EQ(more->scale, sixteen->scale);
        EXPECT_EQ(more->period_limit, sixteen->period_limit);
        for (arc_id a = 0; a < sg.arc_count(); ++a) {
            EXPECT_EQ(more->image[a].base, sixteen->image[a].base);
            EXPECT_EQ(more->image[a].step, sixteen->image[a].step);
            for (std::int64_t u = 0; u <= 16; ++u)
                EXPECT_EQ(more->value(a, u), sixteen->value(a, u));
        }
        EXPECT_EQ(engine.sampling_table(mc, 1), more);
        EXPECT_EQ(engine.sampling_table(mc, 5000), more);

        monte_carlo_options other = mc; // another grid: its own table
        other.spread = rational(1, 7);
        EXPECT_NE(engine.sampling_table(other, 1), more);
        // The model and the sample window do not shape the grid.
        monte_carlo_options windowed = mc;
        windowed.seed = 5;
        windowed.first_sample = 99;
        EXPECT_EQ(engine.sampling_table(windowed, 1), more);
    }
    {
        const scenario_engine engine(base);
        EXPECT_EQ(engine.sampling_table(mc, 17)->values.size(), sg.arc_count() * 17);
    }
    {
        // Explicit ranges are built on every call, under the tool's rule.
        const scenario_engine engine(base);
        monte_carlo_options ranged = mc;
        for (arc_id a = 0; a < sg.arc_count(); ++a)
            ranged.ranges.push_back({sg.arc(a).delay, sg.arc(a).delay + rational(1, 2)});
        const auto first = engine.sampling_table(ranged, 16);
        const auto second = engine.sampling_table(ranged, 16);
        EXPECT_NE(first, second);
        EXPECT_TRUE(first->values.empty());
        EXPECT_TRUE(second->values.empty());
        EXPECT_EQ(engine.sampling_table(ranged, 17)->values.size(), sg.arc_count() * 17);
    }
    {
        // Past the 4096-point bound no cells are built, however many
        // samples are asked for; the image does not depend on the cells.
        const scenario_engine engine(base);
        monte_carlo_options fine = mc;
        fine.resolution = 5000;
        fine.samples = 40;
        const auto table = engine.sampling_table(fine, 1'000'000);
        EXPECT_TRUE(table->values.empty());
        ASSERT_NE(table->scale, 0);
        const monte_carlo_source source(sg, fine, table);
        EXPECT_EQ(expect_image_rows_scale_exactly(source), fine.samples);
    }
    {
        // Workers share an engine: every call counts once, and the cells
        // follow once the total passes the resolution.
        const scenario_engine engine(base);
        const std::int64_t scale = build_monte_carlo_table(sg, mc).scale;
        std::atomic<bool> same_image{true};
        std::vector<std::thread> workers;
        for (int t = 0; t < 4; ++t)
            workers.emplace_back([&] {
                for (int k = 0; k < 8; ++k)
                    if (engine.sampling_table(mc, 4)->scale != scale) same_image = false;
            });
        for (std::thread& w : workers) w.join();
        EXPECT_TRUE(same_image);
        EXPECT_EQ(engine.sampling_table(mc, 0)->values.size(), sg.arc_count() * 17);
    }
    {
        // Invalid grids throw and leave nothing cached.
        const scenario_engine engine(base);
        monte_carlo_options bad = mc;
        bad.spread = rational(-1, 10);
        EXPECT_THROW((void)engine.sampling_table(bad, 1), error);
        EXPECT_THROW((void)engine.sampling_table(bad, 1), error);
    }
}

TEST(Scenario, NominalIsTheCycleTimeAtTheSnapshotDelays)
{
    sg_builder b;
    b.event("a").event("b").event("c");
    b.arc("a", "b", rational(3, 2)).arc("b", "c", rational(5, 3)).arc("a", "c", rational(2));
    const signal_graph acyclic = b.build();
    ASSERT_TRUE(acyclic.repetitive_events().empty());
    const std::pair<const char*, signal_graph> graphs[] = {
        {"cyclic", random_fractional_graph(7, 16)},
        {"acyclic", acyclic},
    };
    for (const auto& [name, sg] : graphs) {
        SCOPED_TRACE(name);
        const compiled_graph base(sg);
        const scenario_engine engine(base);
        const rational nominal = engine.nominal(/*analysis_threads=*/2);
        for (const cycle_time_solver solver :
             {cycle_time_solver::border_sweep, cycle_time_solver::howard})
            EXPECT_EQ(nominal, engine.evaluate(base.delay(), false, 1, solver).cycle_time);
        EXPECT_EQ(engine.nominal(1), nominal);
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
