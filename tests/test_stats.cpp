// Tests for the statistical timing layer (core/stats.h): block-structured
// accumulation must be bit-identical across thread counts and merge
// partitions, adaptive runs must prefix-replay fixed runs under the same
// seed, criticality probabilities must be consistent on a graph whose
// critical cycle is known, and the correlated delay model must degenerate
// to the independent sampler when every sensitivity is zero.
#include <gtest/gtest.h>

#include <cmath>

#include "core/compiled_graph.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "sg/builder.h"
#include "util/prng.h"

namespace tsg {
namespace {

constexpr double z95 = 1.959963984540054;

/// Random live strongly connected graph with fractional delays.
signal_graph random_fractional_graph(std::uint64_t seed, std::uint32_t events)
{
    prng rng(seed);
    sg_builder b;
    for (std::uint32_t i = 0; i < events; ++i) b.event("e" + std::to_string(i));
    const auto delay = [&] { return rational(rng.uniform(1, 12), rng.uniform(1, 6)); };
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

/// Full bitwise comparison of two accumulators: moments compare as exact
/// doubles, extremes as exact rationals, tallies as integers.
void expect_bit_identical(const stats_accumulator& a, const stats_accumulator& b)
{
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.mean_ci_half_width(z95), b.mean_ci_half_width(z95));
    if (a.count() > 0) {
        EXPECT_EQ(a.min_cycle_time(), b.min_cycle_time());
        EXPECT_EQ(a.max_cycle_time(), b.max_cycle_time());
        EXPECT_EQ(a.min_index(), b.min_index());
        EXPECT_EQ(a.max_index(), b.max_index());
    }
    EXPECT_EQ(a.histogram(), b.histogram());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
    EXPECT_EQ(a.quantile(0.95), b.quantile(0.95));
    EXPECT_EQ(a.quantile_ci_half_width(0.95, z95), b.quantile_ci_half_width(0.95, z95));
    EXPECT_EQ(a.criticality_count(), b.criticality_count());
    EXPECT_EQ(a.group_criticality_count(), b.group_criticality_count());
    EXPECT_EQ(a.fallback_count(), b.fallback_count());
}

TEST(Stats, AccumulateMatchesSerialAdd)
{
    const signal_graph sg = random_fractional_graph(0x5eed, 24);
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    monte_carlo_options mc;
    mc.samples = 300; // not a block multiple: exercises the open tail
    mc.seed = 9;
    mc.spread = rational(1, 3);
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);
    scenario_batch_options run;
    run.with_slack = false;
    const scenario_batch_result batch = engine.run(scenarios, run);

    const rational lo(0);
    const rational hi = batch.max_cycle_time * 2;
    stats_accumulator serial(sg.arc_count(), 32, lo, hi);
    for (const scenario_outcome& o : batch.outcomes) serial.add(o);

    stats_accumulator acc(sg.arc_count(), 32, lo, hi);
    acc.accumulate(batch);
    expect_bit_identical(serial, acc);
}

TEST(Stats, StatisticsDoNotDependOnTheThreadBudget)
{
    // The moments must come out of one fold sequence whatever the thread
    // budget: a fold that fans blocks out to workers lets the compiler
    // contract its Welford step differently (fused multiply-add) from the
    // serial one, which moves the last bit of mean and variance.
    random_sg_options gopts;
    gopts.events = 256;
    gopts.extra_arcs = 256;
    gopts.border_limit = 4;
    gopts.seed = 7;
    const signal_graph sg = random_marked_graph(gopts);
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        monte_carlo_options mc;
        mc.samples = 256;
        mc.seed = seed;
        stats_options opts;
        opts.criticality = true;
        opts.solver = cycle_time_solver::border_sweep;
        opts.max_threads = 1;
        const stats_run_result serial = monte_carlo_statistics(engine, sg, mc, opts);
        opts.max_threads = 4;
        const stats_run_result threaded = monte_carlo_statistics(engine, sg, mc, opts);
        SCOPED_TRACE(seed);
        expect_bit_identical(serial.stats, threaded.stats);
    }
}

TEST(Stats, PassedDeadlineStopsTheRunBeforeItsFirstSample)
{
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    stats_options opts;
    opts.deadline = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(1));
    try {
        (void)monte_carlo_statistics(engine, sg, {}, opts);
        ADD_FAILURE() << "expected deadline_exceeded";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "deadline_exceeded: deadline passed after 0 samples");
    }
}

TEST(Stats, MergePartitionsAreBitIdentical)
{
    const signal_graph sg = random_fractional_graph(0xfeed, 16);
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    monte_carlo_options mc;
    mc.samples = 200;
    mc.seed = 5;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);
    const scenario_batch_result batch = engine.run(scenarios, {});

    const rational lo(0);
    const rational hi = batch.max_cycle_time * 2;
    stats_accumulator serial(sg.arc_count(), 16, lo, hi);
    for (const scenario_outcome& o : batch.outcomes) serial.add(o);

    // Split at a block boundary: left side folds [0, 128), right side the
    // rest, then merge.  Must reproduce the serial fold bit for bit.
    const std::size_t split = 2 * stats_accumulator::block_size;
    stats_accumulator left(sg.arc_count(), 16, lo, hi);
    stats_accumulator right(sg.arc_count(), 16, lo, hi);
    for (std::size_t i = 0; i < split; ++i) left.add(batch.outcomes[i]);
    for (std::size_t i = split; i < batch.outcomes.size(); ++i) right.add(batch.outcomes[i]);
    left.merge(right);
    expect_bit_identical(serial, left);

    // Merging off a block boundary is a contract violation, not silent drift.
    stats_accumulator misaligned(sg.arc_count(), 16, lo, hi);
    misaligned.add(batch.outcomes[0]);
    EXPECT_THROW(misaligned.merge(right), error);
}

TEST(Stats, AdaptivePrefixReplaysFixedRunBitIdentically)
{
    const signal_graph sg = random_fractional_graph(0xabc, 20);
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    monte_carlo_options mc;
    mc.seed = 21;
    mc.spread = rational(1, 4);

    // Pilot: the CI a 256-sample run achieves; an epsilon slightly above it
    // makes the adaptive run converge somewhere in (64, 256].
    stats_options fixed_opts;
    fixed_opts.round_samples = 64;
    monte_carlo_options pilot_mc = mc;
    pilot_mc.samples = 256;
    const stats_run_result pilot = monte_carlo_statistics(engine, sg, pilot_mc, fixed_opts);
    ASSERT_TRUE(std::isfinite(pilot.achieved_half_width));

    stats_options adaptive_opts = fixed_opts;
    adaptive_opts.epsilon = pilot.achieved_half_width * 1.05;
    adaptive_opts.min_samples = 64;
    adaptive_opts.max_samples = 4096;
    const stats_run_result adaptive = monte_carlo_adaptive(engine, sg, mc, adaptive_opts);
    EXPECT_TRUE(adaptive.converged);
    EXPECT_GE(adaptive.stats.count(), 64u);
    EXPECT_LE(adaptive.stats.count(), 256u);
    EXPECT_LE(adaptive.achieved_half_width, adaptive_opts.epsilon);

    // The fixed run over the same sample count — evaluated with a *different*
    // round partition — must be a bit-exact replay.
    stats_options replay_opts;
    replay_opts.round_samples = 100; // off every block/round boundary
    monte_carlo_options replay_mc = mc;
    replay_mc.samples = adaptive.stats.count();
    const stats_run_result replay = monte_carlo_statistics(engine, sg, replay_mc, replay_opts);
    expect_bit_identical(adaptive.stats, replay.stats);
}

TEST(Stats, AdaptiveStopsAtTheSampleCapWithoutConvergence)
{
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    stats_options opts;
    opts.epsilon = 1e-9; // unreachable
    opts.round_samples = 32;
    opts.max_samples = 64;
    const stats_run_result run = monte_carlo_adaptive(engine, sg, {}, opts);
    EXPECT_FALSE(run.converged);
    EXPECT_EQ(run.stats.count(), 64u);
    EXPECT_EQ(run.rounds, 2u);
    EXPECT_GT(run.achieved_half_width, opts.epsilon);
}

TEST(Stats, CriticalityProbabilitiesConsistentOnTwoCycleGraph)
{
    // Figure-eight: two simple cycles sharing the event x+, one token each.
    //   cycle A: x+ -> p+ -> x+   (arcs 0, 1)
    //   cycle B: x+ -> q+ -> x+   (arcs 2, 3)
    // Every sample's witness is exactly one of the two cycles, so within a
    // cycle the arc counts agree, and across cycles they partition the run.
    sg_builder b;
    b.arc("x+", "p+", 5);
    b.marked_arc("p+", "x+", 5);
    b.arc("x+", "q+", 5);
    b.marked_arc("q+", "x+", 5);
    const signal_graph sg = b.build();
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    monte_carlo_options mc;
    mc.samples = 200;
    mc.seed = 3;
    mc.spread = rational(1, 2);

    stats_options opts;
    opts.criticality = true;
    opts.group_by_signal = true;
    const stats_run_result run = monte_carlo_statistics(engine, sg, mc, opts);
    const stats_accumulator& st = run.stats;

    const std::vector<std::uint64_t>& crit = st.criticality_count();
    ASSERT_EQ(crit.size(), 4u);
    EXPECT_EQ(crit[0], crit[1]); // cycle A arcs rise and fall together
    EXPECT_EQ(crit[2], crit[3]); // cycle B likewise
    EXPECT_EQ(crit[0] + crit[2], st.count()); // exactly one witness per sample
    EXPECT_GT(crit[0], 0u); // the spread is wide enough that both cycles win
    EXPECT_GT(crit[2], 0u);
    EXPECT_DOUBLE_EQ(st.criticality_probability(0) + st.criticality_probability(2), 1.0);

    // Per-gate: x+ terminates both cycles, so gate "x" is critical always;
    // "p"/"q" split the samples like their cycles.
    const std::vector<std::string>& gates = st.group_names();
    ASSERT_EQ(gates.size(), 3u);
    const auto group_count = [&](const std::string& name) {
        for (std::size_t g = 0; g < gates.size(); ++g)
            if (gates[g] == name) return st.group_criticality_count()[g];
        ADD_FAILURE() << "missing gate group " << name;
        return std::uint64_t{0};
    };
    EXPECT_EQ(group_count("x"), st.count());
    EXPECT_EQ(group_count("p"), crit[0]);
    EXPECT_EQ(group_count("q"), crit[2]);

    // CI sanity: a probability strictly inside (0, 1) has a positive
    // normal-approximation half-width that shrinks like 1/sqrt(n).
    EXPECT_GT(st.criticality_ci_half_width(0, z95), 0.0);
    EXPECT_LT(st.criticality_ci_half_width(0, z95), 0.5);
}

TEST(Stats, CorrelatedModelWithZeroSensitivitiesMatchesIndependent)
{
    const signal_graph sg = random_fractional_graph(0x777, 12);

    monte_carlo_options independent;
    independent.samples = 40;
    independent.seed = 11;
    independent.spread = rational(1, 5);

    monte_carlo_options correlated = independent;
    correlated.model.sources.resize(2);
    correlated.model.sources[0].name = "vdd";
    correlated.model.sources[0].sensitivity.assign(sg.arc_count(), rational(0));
    correlated.model.sources[1].name = "temp";
    correlated.model.sources[1].sensitivity.assign(sg.arc_count(), rational(0));

    const std::vector<scenario> a = monte_carlo_scenarios(sg, independent);
    const std::vector<scenario> b = monte_carlo_scenarios(sg, correlated);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].label, b[k].label);
        EXPECT_EQ(a[k].delay, b[k].delay) << "sample " << k;
    }
}

TEST(Stats, CorrelatedModelShiftsAllArcsTogether)
{
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    // One global source, unit sensitivity, no independent variation: every
    // sample scales the whole assignment by (1 + g), so the cycle time is
    // exactly nominal * (1 + g).
    monte_carlo_options mc;
    mc.samples = 24;
    mc.seed = 17;
    mc.spread = rational(0);
    mc.model.sources.resize(1);
    mc.model.sources[0].sensitivity.assign(sg.arc_count(), rational(1));
    mc.model.sources[0].name = "corner";

    const rational nominal_lambda =
        engine.evaluate(compiled.delay(), /*with_slack=*/false).cycle_time;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);
    const scenario_batch_result batch = engine.run(scenarios, {});

    bool any_shift = false;
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
        // Recover g from the first nonzero-nominal arc.
        rational factor;
        bool have = false;
        for (arc_id a = 0; a < sg.arc_count(); ++a) {
            const rational& nominal = sg.arc(a).delay;
            if (nominal.is_zero()) {
                EXPECT_EQ(scenarios[k].delay[a], rational(0));
                continue;
            }
            const rational f = scenarios[k].delay[a] / nominal;
            if (!have) {
                factor = f;
                have = true;
            } else {
                EXPECT_EQ(f, factor) << "arc " << a << " sample " << k;
            }
        }
        ASSERT_TRUE(have);
        EXPECT_EQ(batch.outcomes[k].cycle_time, nominal_lambda * factor) << k;
        if (factor != rational(1)) any_shift = true;
    }
    EXPECT_TRUE(any_shift);
}

TEST(Stats, FirstSampleOffsetMakesRoundsPrefixStable)
{
    const signal_graph sg = random_fractional_graph(0x321, 10);

    monte_carlo_options whole;
    whole.samples = 50;
    whole.seed = 4;
    const std::vector<scenario> all = monte_carlo_scenarios(sg, whole);

    monte_carlo_options part = whole;
    part.first_sample = 17;
    part.samples = 20;
    const std::vector<scenario> slice = monte_carlo_scenarios(sg, part);
    for (std::size_t k = 0; k < slice.size(); ++k) {
        EXPECT_EQ(slice[k].label, all[17 + k].label);
        EXPECT_EQ(slice[k].delay, all[17 + k].delay);
    }
}

TEST(Stats, HistogramAndQuantilesAreOrderedAndComplete)
{
    const signal_graph sg = random_fractional_graph(0x99, 18);
    const compiled_graph compiled(sg);
    const scenario_engine engine(compiled);

    monte_carlo_options mc;
    mc.samples = 150;
    mc.seed = 2;
    mc.spread = rational(1, 3);
    const stats_run_result run = monte_carlo_statistics(engine, sg, mc, {});
    const stats_accumulator& st = run.stats;

    std::uint64_t total = st.underflow() + st.overflow();
    for (const std::uint64_t c : st.histogram()) total += c;
    EXPECT_EQ(total, st.count());

    const double minv = st.min_cycle_time().to_double();
    const double maxv = st.max_cycle_time().to_double();
    const double p50 = st.quantile(0.50);
    const double p95 = st.quantile(0.95);
    const double p99 = st.quantile(0.99);
    EXPECT_LE(minv, p50);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, maxv);
    EXPECT_GT(st.mean(), 0.0);
    EXPECT_GE(st.variance(), 0.0);
}

TEST(Stats, HistogramBinsExactlyOnSupportNarrowerThanDoubleResolution)
{
    // An exact support narrower than double resolution collapses the
    // floating-point bin width to 0; binning must fall back to the exact
    // edge walk instead of casting a NaN guess.
    const rational lo(1);
    const rational hi = lo + rational(1, std::int64_t{1} << 40);
    stats_accumulator acc(/*arc_count=*/1, /*bins=*/8, lo, hi);

    scenario_outcome at_lo;
    at_lo.cycle_time = lo;
    at_lo.fixed_point = true;
    scenario_outcome at_hi = at_lo;
    at_hi.cycle_time = hi;
    scenario_outcome mid = at_lo;
    mid.cycle_time = lo + rational(1, std::int64_t{1} << 41);
    acc.add(at_lo);
    acc.add(at_hi);
    acc.add(mid);

    std::uint64_t total = acc.underflow() + acc.overflow();
    for (const std::uint64_t c : acc.histogram()) total += c;
    EXPECT_EQ(total, 3u);
    EXPECT_EQ(acc.underflow(), 0u);
    EXPECT_EQ(acc.overflow(), 0u);
    EXPECT_EQ(acc.histogram().front(), 1u); // lo lands in the first bin
    EXPECT_EQ(acc.histogram().back(), 1u);  // hi in the last
    EXPECT_EQ(acc.histogram()[4], 1u);      // the midpoint at the exact middle edge
}

TEST(Stats, SignalArcGroupsFollowTargetEvents)
{
    const signal_graph sg = c_oscillator_sg();
    const arc_group_map groups = signal_arc_groups(sg);
    ASSERT_EQ(groups.group_of_arc.size(), sg.arc_count());
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        const std::string& signal = sg.event(sg.arc(a).to).signal;
        if (signal.empty()) {
            EXPECT_EQ(groups.group_of_arc[a], arc_group_map::no_group);
        } else {
            ASSERT_LT(groups.group_of_arc[a], groups.names.size());
            EXPECT_EQ(groups.names[groups.group_of_arc[a]], signal);
        }
    }
}

} // namespace
} // namespace tsg
