// Lane-batched scenario engine: the SoA lane path and the supporting
// satellites must be bit-identical to the scalar serial path in every
// observable field, across lane widths, batch tails, per-lane evictions
// and scenario sources (Monte Carlo samples and corner sweeps) — and a
// source's int64 image must be bit-identical to its materialized batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/api.h"
#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "core/pert.h"
#include "core/scenario.h"
#include "core/slack.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "sg/builder.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace tsg {
namespace {

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

void expect_outcomes_equal(const scenario_batch_result& a, const scenario_batch_result& b,
                           const char* what)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].cycle_time, b.outcomes[i].cycle_time) << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].fixed_point, b.outcomes[i].fixed_point) << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].critical_arcs, b.outcomes[i].critical_arcs)
            << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].critical_cycle, b.outcomes[i].critical_cycle)
            << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].criticality_margin, b.outcomes[i].criticality_margin)
            << what << " #" << i;
    }
    EXPECT_EQ(a.min_cycle_time, b.min_cycle_time) << what;
    EXPECT_EQ(a.max_cycle_time, b.max_cycle_time) << what;
    EXPECT_EQ(a.min_index, b.min_index) << what;
    EXPECT_EQ(a.max_index, b.max_index) << what;
    EXPECT_EQ(a.criticality_count, b.criticality_count) << what;
    EXPECT_EQ(a.fallback_count, b.fallback_count) << what;
    ASSERT_EQ(a.critical_cycles.size(), b.critical_cycles.size()) << what;
    for (std::size_t k = 0; k < a.critical_cycles.size(); ++k) {
        EXPECT_EQ(a.critical_cycles[k].arcs, b.critical_cycles[k].arcs) << what;
        EXPECT_EQ(a.critical_cycles[k].count, b.critical_cycles[k].count) << what;
    }
}

/// The border periods a batch over `sg` sweeps (1 on acyclic graphs).
std::uint32_t sweep_periods(const signal_graph& sg)
{
    return sg.repetitive_events().empty()
               ? 1
               : static_cast<std::uint32_t>(sg.border_events().size());
}

/// engine.run(source) against engine.run(batch), the same scenarios
/// materialized, for every lane width, both solvers and every slack and
/// witness setting: outcomes, aggregates, labels, every engine counter and
/// the rendered payload agree byte for byte.
void expect_source_matches_batch(const signal_graph& sg, const scenario_source& source,
                                 const std::vector<scenario>& batch)
{
    ASSERT_EQ(source.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(source.label(i), batch[i].label);
    const compiled_graph base(sg);
    const scenario_engine engine(base);
    const rational nominal = engine.evaluate(base.delay(), false, 1).cycle_time;
    analysis_request request;
    request.kind = request_kind::montecarlo;
    for (const unsigned width : {1u, 2u, 4u, 8u, 16u})
        for (const cycle_time_solver solver :
             {cycle_time_solver::border_sweep, cycle_time_solver::howard})
            for (const bool slack : {false, true})
                for (const bool witness : {false, true}) {
                    SCOPED_TRACE("batch " + std::to_string(batch.size()) + ", width " +
                                 std::to_string(width) + ", " +
                                 (solver == cycle_time_solver::howard ? "howard" : "border") +
                                 (slack ? ", slack" : "") + (witness ? ", witness" : ""));
                    scenario_batch_options options;
                    options.lane_width = width;
                    options.solver = solver;
                    options.with_slack = slack;
                    options.with_witness = witness;
                    options.max_threads = 2;
                    const scenario_batch_result a = engine.run(source, options);
                    const scenario_batch_result b = engine.run(batch, options);
                    expect_outcomes_equal(a, b, "source vs batch");
                    EXPECT_EQ(a.lane_groups, b.lane_groups);
                    EXPECT_EQ(a.lane_scenarios, b.lane_scenarios);
                    EXPECT_EQ(a.lane_evictions, b.lane_evictions);
                    EXPECT_EQ(a.scalar_scenarios, b.scalar_scenarios);
                    EXPECT_EQ(batch_payload_json(request, sg, nominal, source, a),
                              batch_payload_json(request, sg, nominal, batch, b));
                }
}

/// expect_source_matches_batch for every batch size from 1 to 17 (every
/// tail length of every width, every below-width batch) of one Monte Carlo
/// grid, drawn through its table with cells and through one without (its
/// scalar rows computed), whose image use must equal `imaged` either way.
void expect_monte_carlo_source_matches(const signal_graph& sg, monte_carlo_options mc,
                                       bool imaged)
{
    const compiled_graph base(sg);
    const std::shared_ptr<const monte_carlo_table> tables[] = {
        std::make_shared<const monte_carlo_table>(build_monte_carlo_table(sg, mc)),
        scenario_engine(base).sampling_table(mc, 1)};
    ASSERT_FALSE(tables[0]->values.empty());
    ASSERT_TRUE(tables[1]->values.empty());
    for (const std::shared_ptr<const monte_carlo_table>& table : tables) {
        SCOPED_TRACE(table->values.empty() ? "without cells" : "with cells");
        EXPECT_EQ(table->scale != 0, imaged || !mc.model.sources.empty());
        for (std::size_t samples = 1; samples <= 17; ++samples) {
            mc.samples = samples;
            const monte_carlo_source source(sg, mc, table);
            fixed_point_domain domain;
            EXPECT_EQ(source.image(0, sweep_periods(sg), domain), imaged);
            expect_source_matches_batch(sg, source, monte_carlo_scenarios(sg, mc));
        }
    }
}

TEST(LaneBatch, MonteCarloSourceImageMatchesTheBatchOnEveryGridShape)
{
    const signal_graph sg = random_fractional_graph(7, 8);
    monte_carlo_options mc;
    mc.seed = 99;
    {
        SCOPED_TRACE("default spread");
        expect_monte_carlo_source_matches(sg, mc, true);
    }
    {
        SCOPED_TRACE("explicit ranges");
        monte_carlo_options ranged = mc;
        for (arc_id a = 0; a < sg.arc_count(); ++a)
            ranged.ranges.push_back({sg.arc(a).delay, sg.arc(a).delay + rational(1, 2)});
        expect_monte_carlo_source_matches(sg, ranged, true);

        // Arc 0's grid needs lo.den * span.den = 2^70, past int64: its cells
        // come from the exact rational fallback, and their 2^40 denominator
        // leaves no image — and evicts every lane of the batch, too.
        SCOPED_TRACE("2^70 fallback arc");
        const rational lo(1, std::int64_t{1} << 40);
        ranged.ranges[0] = {lo, lo + rational(1, std::int64_t{1} << 30)};
        expect_monte_carlo_source_matches(sg, ranged, false);
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
        expect_monte_carlo_source_matches(sg, correlated, false);
    }
    {
        SCOPED_TRACE("first_sample");
        monte_carlo_options later = mc;
        later.first_sample = 1000;
        expect_monte_carlo_source_matches(sg, later, true);
    }
}

TEST(LaneBatch, SourcesWithoutAFittingImageEvictLikeTheBatch)
{
    const signal_graph sg = random_fractional_graph(11, 8);
    monte_carlo_options mc;
    mc.seed = 5;
    mc.resolution = 1; // cells: each range's two ends
    mc.samples = 17;
    {
        // Arc 0 samples 1/65539 or 1/65537 (two primes): each sample's own
        // scale fits, the common scale 65537 * 65539 passes 2^31.
        SCOPED_TRACE("common scale past the cap");
        monte_carlo_options primes = mc;
        for (arc_id a = 0; a < sg.arc_count(); ++a)
            primes.ranges.push_back({sg.arc(a).delay, sg.arc(a).delay + rational(1, 3)});
        primes.ranges[0] = {rational(1, 65539), rational(1, 65537)};
        const monte_carlo_table table = build_monte_carlo_table(sg, primes);
        EXPECT_EQ(table.scale, 0);
        const monte_carlo_source source(sg, primes,
                                        std::make_shared<const monte_carlo_table>(table));
        expect_source_matches_batch(sg, source, monte_carlo_scenarios(sg, primes));
        scenario_batch_options lanes;
        lanes.solver = cycle_time_solver::border_sweep;
        const compiled_graph base(sg);
        const scenario_batch_result run = scenario_engine(base).run(source, lanes);
        EXPECT_EQ(run.lane_groups, 2u);
        EXPECT_EQ(run.lane_evictions, 0u);
    }
    {
        // Every arc samples 0 or h on a graph of 4 border periods: a sample
        // with at most half its arcs at h fits the period budget, the worst
        // case (every arc at h) does not, although it fits 2 periods — the
        // table keeps an image its source declines for this graph, and some
        // lanes of the batch are evicted while others are not.
        SCOPED_TRACE("worst-case mass past the budget");
        random_sg_options shape;
        shape.events = 8;
        shape.extra_arcs = 8;
        shape.border_limit = 4;
        shape.seed = 3;
        const signal_graph bordered = random_marked_graph(shape);
        const std::uint32_t periods = sweep_periods(bordered);
        ASSERT_EQ(periods, 4u);
        const std::size_t arcs = bordered.arc_count();
        const std::int64_t budget = std::numeric_limits<std::int64_t>::max() / 4;
        const std::int64_t h = budget / static_cast<std::int64_t>((periods + 1) * (arcs / 2));
        monte_carlo_options heavy = mc;
        heavy.ranges.assign(arcs, {rational(0), rational(h)});
        const monte_carlo_table table = build_monte_carlo_table(bordered, heavy);
        EXPECT_EQ(table.scale, 1);
        EXPECT_EQ(table.period_limit, 2u);
        const monte_carlo_source source(bordered, heavy,
                                        std::make_shared<const monte_carlo_table>(table));
        fixed_point_domain domain;
        EXPECT_FALSE(source.image(0, periods, domain));
        expect_source_matches_batch(bordered, source, monte_carlo_scenarios(bordered, heavy));
        scenario_batch_options lanes;
        lanes.solver = cycle_time_solver::border_sweep;
        const compiled_graph base(bordered);
        const scenario_batch_result run = scenario_engine(base).run(source, lanes);
        EXPECT_GT(run.lane_evictions, 0u);
        EXPECT_LT(run.lane_evictions, run.lane_groups * 8);
    }
}

TEST(LaneBatch, ConcatMixesImageLanesAndRationalLanesInOneGroup)
{
    // A spread grid's samples arrive as image rows; a correlated model's
    // source has no image, so its samples pack from their rationals, which
    // fit.  Four of each fill one lane group of 8, and every lane's answer
    // is kept: none is evicted.
    const signal_graph sg = random_fractional_graph(7, 8);
    const compiled_graph base(sg);
    const scenario_engine engine(base);
    monte_carlo_options imaged;
    imaged.seed = 99;
    imaged.samples = 4;
    monte_carlo_options correlated = imaged;
    correlated.seed = 7;
    delay_model::source vdd;
    vdd.name = "Vdd";
    for (arc_id a = 0; a < sg.arc_count(); ++a)
        vdd.sensitivity.push_back(rational(static_cast<std::int64_t>(a % 3), 10));
    correlated.model.sources.push_back(vdd);
    correlated.model.resolution = 8;
    const monte_carlo_source image_part(sg, imaged, engine.sampling_table(imaged, 4));
    const monte_carlo_source rational_part(sg, correlated, engine.sampling_table(correlated, 4));
    fixed_point_domain domain;
    ASSERT_TRUE(image_part.image(0, sweep_periods(sg), domain));
    ASSERT_FALSE(rational_part.image(0, sweep_periods(sg), domain));

    scenario_concat merged;
    merged.add(image_part);
    merged.add(rational_part);
    std::vector<scenario> batch = monte_carlo_scenarios(sg, imaged);
    const std::vector<scenario> rest = monte_carlo_scenarios(sg, correlated);
    batch.insert(batch.end(), rest.begin(), rest.end());
    expect_source_matches_batch(sg, merged, batch);

    scenario_batch_options lanes;
    lanes.solver = cycle_time_solver::border_sweep;
    lanes.lane_width = 8;
    const scenario_batch_result run = engine.run(merged, lanes);
    EXPECT_EQ(run.lane_groups, 1u);
    EXPECT_EQ(run.lane_scenarios, 8u);
    EXPECT_EQ(run.lane_evictions, 0u);
    EXPECT_EQ(run.scalar_scenarios, 0u);
}

TEST(LaneBatch, CornerSweepSourceImageMatchesTheBatch)
{
    sg_builder b;
    for (int i = 0; i < 6; ++i) b.event("e" + std::to_string(i));
    prng rng(41);
    for (int i = 0; i < 6; ++i)
        for (int j = i + 1; j < 6; ++j)
            if (rng.chance(0.5))
                b.arc("e" + std::to_string(i), "e" + std::to_string(j),
                      rational(rng.uniform(0, 9), rng.uniform(1, 4)));
    b.arc("e0", "e5", rational(1, 2)); // keep e5 reachable
    const signal_graph acyclic = b.build();
    ASSERT_TRUE(acyclic.repetitive_events().empty());

    const std::pair<const char*, signal_graph> graphs[] = {
        {"cyclic", random_fractional_graph(13, 6)},
        {"cyclic, start-up arcs", c_oscillator_sg()},
        {"acyclic", acyclic},
    };
    for (const auto& [name, sg] : graphs) {
        SCOPED_TRACE(name);
        corner_sweep_options sweep;
        sweep.factor = rational(3, 7);
        const corner_sweep_source source(sg, sweep);
        fixed_point_domain domain;
        EXPECT_TRUE(source.image(0, sweep_periods(sg), domain));
        expect_source_matches_batch(sg, source, corner_sweep_scenarios(sg, sweep));
    }
}

TEST(LaneBatch, EveryLaneWidthMatchesTheScalarPathBitForBit)
{
    const signal_graph sg = random_fractional_graph(3, 40);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    // 43 Monte Carlo samples: not divisible by any width, so every run
    // exercises the scalar tail epilogue too.  The corner sweep perturbs
    // one arc per scenario, the what-if shape of criticality attribution.
    monte_carlo_options mc;
    mc.samples = 43;
    mc.seed = 17;
    mc.spread = rational(1, 3);
    const std::pair<const char*, std::vector<scenario>> inputs[] = {
        {"monte carlo", monte_carlo_scenarios(sg, mc)},
        {"corner sweep", corner_sweep_scenarios(sg)},
    };

    for (const auto& [source, scenarios] : inputs) {
        ASSERT_FALSE(scenarios.empty()) << source;
        for (const bool with_slack : {false, true}) {
            SCOPED_TRACE(std::string(source) + (with_slack ? ", slack" : ", cycle time"));
            scenario_batch_options scalar;
            scalar.lane_width = 1;
            scalar.with_slack = with_slack;
            scalar.solver = cycle_time_solver::border_sweep;
            const scenario_batch_result reference = engine.run(scenarios, scalar);
            EXPECT_EQ(reference.scalar_scenarios, scenarios.size());
            EXPECT_EQ(reference.lane_groups, 0u);

            for (const unsigned width : {2u, 4u, 8u, 16u}) {
                scenario_batch_options lanes = scalar;
                lanes.lane_width = width;
                const scenario_batch_result batch = engine.run(scenarios, lanes);
                expect_outcomes_equal(reference, batch,
                                      with_slack ? "slack lanes" : "cycle-time lanes");
                EXPECT_EQ(batch.lane_groups, scenarios.size() / width);
                EXPECT_EQ(batch.lane_scenarios + batch.scalar_scenarios, scenarios.size());
                EXPECT_EQ(batch.scalar_scenarios, scenarios.size() % width);
            }
        }
    }
}

TEST(LaneBatch, WitnessFreeStatisticsModeMatchesCycleTimes)
{
    const signal_graph sg = random_fractional_graph(11, 32);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 24;
    mc.seed = 5;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options full;
    full.with_slack = false;
    full.solver = cycle_time_solver::border_sweep;
    scenario_batch_options light = full;
    light.with_witness = false;

    const scenario_batch_result a = engine.run(scenarios, full);
    const scenario_batch_result b = engine.run(scenarios, light);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].cycle_time, b.outcomes[i].cycle_time) << i;
        EXPECT_EQ(a.outcomes[i].fixed_point, b.outcomes[i].fixed_point) << i;
        EXPECT_TRUE(b.outcomes[i].critical_arcs.empty()) << i;
        EXPECT_TRUE(b.outcomes[i].critical_cycle.empty()) << i;
    }
    EXPECT_EQ(a.min_cycle_time, b.min_cycle_time);
    EXPECT_EQ(a.max_cycle_time, b.max_cycle_time);
    EXPECT_TRUE(b.critical_cycles.empty());

    // The scalar path honors the statistics mode identically.
    scenario_batch_options light_scalar = light;
    light_scalar.lane_width = 1;
    const scenario_batch_result c = engine.run(scenarios, light_scalar);
    expect_outcomes_equal(b, c, "statistics mode lanes vs scalar");
}

TEST(LaneBatch, NonIdentityCoreProjectsLaneDelays)
{
    // The oscillator has start-up arcs outside the core, exercising the
    // arc_original projection of the lane packer.
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 13;
    mc.seed = 23;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options scalar;
    scalar.lane_width = 1;
    scalar.solver = cycle_time_solver::border_sweep;
    scenario_batch_options lanes = scalar;
    lanes.lane_width = 4;
    expect_outcomes_equal(engine.run(scenarios, scalar), engine.run(scenarios, lanes),
                          "oscillator lanes");
}

TEST(LaneBatch, AcyclicLanesMatchScalarPert)
{
    sg_builder b;
    for (int i = 0; i < 8; ++i) b.event("e" + std::to_string(i));
    prng rng(41);
    for (int i = 0; i < 8; ++i)
        for (int j = i + 1; j < 8; ++j)
            if (rng.chance(0.5))
                b.arc("e" + std::to_string(i), "e" + std::to_string(j),
                      rational(rng.uniform(0, 9), rng.uniform(1, 4)));
    b.arc("e0", "e7", rational(1, 2)); // keep e7 reachable
    const signal_graph sg = b.build();
    ASSERT_TRUE(sg.repetitive_events().empty());

    const compiled_graph base(sg);
    const scenario_engine engine(base);
    monte_carlo_options mc;
    mc.samples = 19;
    mc.seed = 3;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options scalar;
    scalar.lane_width = 1;
    scenario_batch_options lanes;
    lanes.lane_width = 8;
    expect_outcomes_equal(engine.run(scenarios, scalar), engine.run(scenarios, lanes),
                          "acyclic lanes");
}

TEST(LaneBatch, SingleLaneOverflowEvictionLeavesSiblingsExact)
{
    sg_builder b;
    b.event("a");
    b.event("b");
    b.arc("a", "b", rational(1, 2));
    b.marked_arc("b", "a", rational(5, 6));
    const signal_graph sg = b.build();
    const compiled_graph base(sg);
    ASSERT_TRUE(base.fixed_point());
    const scenario_engine engine(base);

    const std::int64_t p1 = 2147483647; // 2^31 - 1 (prime)
    const std::int64_t p2 = 2147483629; // also prime

    // One full lane group of 4; lane 2 overflows the scale re-check.
    std::vector<scenario> scenarios(4);
    scenarios[0] = {"healthy", {rational(3, 4), rational(1, 6)}};
    scenarios[1] = {"healthy too", {rational(2), rational(1, 3)}};
    scenarios[2] = {"overflowing", {rational(1, p1), rational(10, p2)}};
    scenarios[3] = {"healthy three", {rational(5, 4), rational(7, 6)}};

    scenario_batch_options lanes;
    lanes.lane_width = 4;
    lanes.solver = cycle_time_solver::border_sweep; // pin: lane counters below
    const scenario_batch_result batch = engine.run(scenarios, lanes);

    EXPECT_TRUE(batch.outcomes[0].fixed_point);
    EXPECT_TRUE(batch.outcomes[1].fixed_point);
    EXPECT_FALSE(batch.outcomes[2].fixed_point);
    EXPECT_TRUE(batch.outcomes[3].fixed_point);
    EXPECT_EQ(batch.fallback_count, 1u);
    EXPECT_EQ(batch.lane_groups, 1u);
    EXPECT_EQ(batch.lane_evictions, 1u);
    EXPECT_EQ(batch.lane_scenarios, 3u);
    EXPECT_EQ(batch.scalar_scenarios, 1u);

    // Every outcome — evicted lane included — matches the scalar path.
    scenario_batch_options scalar;
    scalar.lane_width = 1;
    scalar.solver = cycle_time_solver::border_sweep;
    expect_outcomes_equal(engine.run(scenarios, scalar), batch, "eviction group");
    EXPECT_EQ(batch.outcomes[2].cycle_time, rational(1, p1) + rational(10, p2));
}

TEST(LaneBatch, MonteCarloGenerationIsLaneStableAcrossThreadCounts)
{
    const signal_graph sg = random_fractional_graph(7, 16);
    monte_carlo_options serial;
    serial.samples = 40;
    serial.seed = 99;
    serial.max_threads = 1;
    monte_carlo_options parallel = serial;
    parallel.max_threads = 4;

    const std::vector<scenario> a = monte_carlo_scenarios(sg, serial);
    const std::vector<scenario> b = monte_carlo_scenarios(sg, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label) << i;
        EXPECT_EQ(a[i].delay, b[i].delay) << i;
    }

    // Sample k depends only on (seed, k): a bigger batch replays its prefix.
    monte_carlo_options longer = serial;
    longer.samples = 60;
    const std::vector<scenario> c = monte_carlo_scenarios(sg, longer);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].delay, c[i].delay) << i;
}

TEST(LaneBatch, EngineReusesItsPoolAcrossRuns)
{
    const signal_graph sg = random_fractional_graph(13, 24);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 20;
    mc.seed = 2;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options opts;
    opts.max_threads = 3;
    const scenario_batch_result first = engine.run(scenarios, opts);
    const scenario_batch_result second = engine.run(scenarios, opts);
    expect_outcomes_equal(first, second, "pool reuse");

    // Changing the budget mid-life resizes the pool transparently.
    opts.max_threads = 1;
    expect_outcomes_equal(first, engine.run(scenarios, opts), "pool resize");
}

TEST(LaneBatch, ThreadPoolRunsEveryIndexAndPropagatesErrors)
{
    thread_pool pool(3);
    EXPECT_EQ(pool.thread_count(), 3u);

    std::vector<std::atomic<int>> hits(100);
    pool.for_index(100, [&](std::size_t i, unsigned worker) {
        EXPECT_LT(worker, 3u);
        hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

    // Reuse after a job, including exception propagation.
    EXPECT_THROW(pool.for_index(50,
                                [&](std::size_t i, unsigned) {
                                    if (i == 17) throw error("boom");
                                }),
                 error);
    std::atomic<int> count{0};
    pool.for_index(10, [&](std::size_t, unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

} // namespace
} // namespace tsg
