// Cross-solver differential harness: seeded property fuzz asserting that
// every maximum-cycle-ratio oracle — exhaustive enumeration, Karp, Lawler,
// Howard (cold and warm-started), the SCC condensation driver and the
// paper's timing simulation — returns bit-identical cycle times, across
// arithmetic domains (fixed-point vs rational fallback), graph shapes
// (multi-SCC, single-node-SCC, self-loop cores) and scenario batches.
// Four independent algorithms, one answer: the agreement bar every future
// performance PR must clear.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "core/scenario.h"
#include "gen/random_sg.h"
#include "ratio/condensation.h"
#include "ratio/exhaustive.h"
#include "ratio/howard.h"
#include "ratio/karp.h"
#include "ratio/lawler.h"
#include "sg/builder.h"
#include "util/prng.h"

namespace tsg {
namespace {

struct fuzz_config {
    std::uint64_t seed;
    std::uint32_t events;
    std::uint32_t extra_arcs;   ///< token density lever: extra backward arcs
    std::uint32_t border_limit; ///< 0 = unconstrained border set
};

void PrintTo(const fuzz_config& c, std::ostream* os)
{
    *os << "seed" << c.seed << "_n" << c.events << "_m" << c.events + c.extra_arcs
        << "_bl" << c.border_limit;
}

signal_graph make_graph(const fuzz_config& cfg, std::uint64_t seed_salt = 0)
{
    random_sg_options opts;
    opts.events = cfg.events;
    opts.extra_arcs = cfg.extra_arcs;
    opts.seed = cfg.seed + seed_salt;
    opts.border_limit = cfg.border_limit;
    return random_marked_graph(opts);
}

class SolverDifferential : public ::testing::TestWithParam<fuzz_config> {};

TEST_P(SolverDifferential, AllOraclesAgreeBitIdentically)
{
    const signal_graph sg = make_graph(GetParam());
    const ratio_problem p = make_ratio_problem(sg);

    const rational exhaustive = max_cycle_ratio_exhaustive(p, 5'000'000).ratio;
    EXPECT_EQ(exhaustive, max_cycle_ratio_karp(p));
    EXPECT_EQ(exhaustive, max_cycle_ratio_lawler(p).ratio);
    EXPECT_EQ(exhaustive, max_cycle_ratio_howard(p).ratio);
    EXPECT_EQ(exhaustive, max_cycle_ratio_condensed(p).ratio);
    EXPECT_EQ(exhaustive, analyze_cycle_time(sg).cycle_time);

    analysis_options howard_opts;
    howard_opts.solver = cycle_time_solver::howard;
    analysis_options border_opts;
    border_opts.solver = cycle_time_solver::border_sweep;
    EXPECT_EQ(analyze_cycle_time(sg, howard_opts).cycle_time,
              analyze_cycle_time(sg, border_opts).cycle_time);
}

TEST_P(SolverDifferential, FixedPointMatchesRationalFallbackBitIdentically)
{
    // The same structure through both arithmetic domains: scaling by a
    // positive constant preserves every comparison, so the ratio *and the
    // witness cycle* must match exactly.
    const signal_graph sg = make_graph(GetParam(), 0x11);
    const compiled_graph fixed(sg);
    const compiled_graph exact(sg, compile_options{.use_fixed_point = false});
    const ratio_problem pf = make_ratio_problem(fixed);
    const ratio_problem pr = make_ratio_problem(exact);
    ASSERT_NE(pf.scale, 0);
    ASSERT_EQ(pr.scale, 0);

    const ratio_result rf = max_cycle_ratio_howard(pf);
    const ratio_result rr = max_cycle_ratio_howard(pr);
    EXPECT_TRUE(rf.fixed_point);
    EXPECT_FALSE(rr.fixed_point);
    EXPECT_EQ(rf.ratio, rr.ratio);
    EXPECT_EQ(rf.cycle, rr.cycle);

    const condensed_ratio_result cf = max_cycle_ratio_condensed(pf);
    const condensed_ratio_result cr = max_cycle_ratio_condensed(pr);
    EXPECT_EQ(cf.ratio, cr.ratio);
    EXPECT_EQ(cf.cycle, cr.cycle);
}

TEST_P(SolverDifferential, WarmStartMatchesColdStartAcrossScenarioBatches)
{
    const signal_graph sg = make_graph(GetParam(), 0x22);
    const compiled_graph base(sg);

    monte_carlo_options mc;
    mc.samples = 12;
    mc.seed = GetParam().seed * 31 + 7;
    mc.spread = rational(1, 3);
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    // The batch engine's warm chain: one problem rebound per scenario, the
    // previous converged policy as the starting policy.
    howard_chain chain(base);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ratio_result warm = chain.solve(scenarios[i].delay);
        const ratio_result cold = max_cycle_ratio_howard(chain.problem());
        EXPECT_EQ(warm.ratio, cold.ratio) << "scenario " << i;
        // Any warm witness must itself attain lambda exactly.
        EXPECT_EQ(cycle_ratio(chain.problem(), warm.cycle), warm.ratio) << "scenario " << i;
    }
}

TEST_P(SolverDifferential, HowardEngineMatchesBorderEnginePerScenario)
{
    // The acceptance bar: per-scenario cycle times from the warm-started
    // Howard batch are bit-identical to the PR 2 border-sweep batch.
    const signal_graph sg = make_graph(GetParam(), 0x33);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 16;
    mc.seed = GetParam().seed ^ 0x5a5a;
    mc.spread = rational(1, 2);
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options howard_run;
    howard_run.solver = cycle_time_solver::howard;
    howard_run.with_slack = false;
    scenario_batch_options border_run;
    border_run.solver = cycle_time_solver::border_sweep;
    border_run.with_slack = false;

    const scenario_batch_result h = engine.run(scenarios, howard_run);
    const scenario_batch_result b = engine.run(scenarios, border_run);
    ASSERT_EQ(h.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < h.outcomes.size(); ++i) {
        EXPECT_EQ(h.outcomes[i].cycle_time, b.outcomes[i].cycle_time) << i;
        // The warm witness attains the reported lambda under this
        // scenario's delays.
        rational delay(0);
        std::int64_t tokens = 0;
        for (const arc_id orig : h.outcomes[i].critical_cycle) {
            delay += scenarios[i].delay[orig];
            tokens += sg.arc(orig).marked ? 1 : 0;
        }
        ASSERT_GT(tokens, 0) << i;
        EXPECT_EQ(delay / rational(tokens), h.outcomes[i].cycle_time) << i;
    }
    EXPECT_EQ(h.min_cycle_time, b.min_cycle_time);
    EXPECT_EQ(h.max_cycle_time, b.max_cycle_time);
    EXPECT_EQ(h.min_index, b.min_index);
    EXPECT_EQ(h.max_index, b.max_index);

    // Warm chains are deterministic per thread budget: serial == serial.
    const scenario_batch_result h2 = engine.run(scenarios, howard_run);
    for (std::size_t i = 0; i < h.outcomes.size(); ++i) {
        EXPECT_EQ(h.outcomes[i].cycle_time, h2.outcomes[i].cycle_time) << i;
        EXPECT_EQ(h.outcomes[i].critical_cycle, h2.outcomes[i].critical_cycle) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, SolverDifferential,
    ::testing::Values(fuzz_config{1, 5, 3, 0}, fuzz_config{2, 8, 6, 0},
                      fuzz_config{3, 10, 4, 2},   // sparse tokens, small border
                      fuzz_config{4, 12, 12, 0},  // dense extra arcs
                      fuzz_config{5, 14, 8, 3}, fuzz_config{6, 9, 14, 0},
                      fuzz_config{7, 16, 6, 1},   // single-event border
                      fuzz_config{8, 11, 9, 4}, fuzz_config{9, 13, 5, 0},
                      fuzz_config{10, 7, 11, 2}));

// Larger graphs: drop the exponential exhaustive oracle, keep the three
// polynomial baselines, the condensation driver and the paper's algorithm.
class SolverDifferentialLarge : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverDifferentialLarge, PolynomialOraclesAgree)
{
    random_sg_options opts;
    opts.events = 150;
    opts.extra_arcs = 200;
    opts.seed = GetParam();
    opts.border_limit = 12;
    const signal_graph sg = random_marked_graph(opts);
    const ratio_problem p = make_ratio_problem(sg);

    const rational nk = analyze_cycle_time(sg).cycle_time;
    EXPECT_EQ(nk, max_cycle_ratio_karp(p));
    EXPECT_EQ(nk, max_cycle_ratio_lawler(p).ratio);
    EXPECT_EQ(nk, max_cycle_ratio_howard(p).ratio);
    EXPECT_EQ(nk, max_cycle_ratio_condensed(p).ratio);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialLarge,
                         ::testing::Values(71, 72, 73, 74));

// --- the warm Howard chain along search-shaped steps -------------------------

/// Drives one chain through `steps` delay assignments shaped like the
/// optimizer's search: one-arc reductions, many-arc "bound" reductions of a
/// suffix of the arcs, and restores — with an occasional committed
/// reduction so the walk drifts.  Every warm lambda must equal a cold
/// Howard solve and a cold border-sweep evaluation exactly.  `perturb`
/// (optional) rewrites each assignment before it is solved.
void walk_chain(const signal_graph& sg, std::uint64_t seed, int steps,
                const std::function<void(std::vector<rational>&)>& perturb = {})
{
    const compiled_graph base(sg);
    const scenario_engine engine(base);
    howard_chain chain(base);
    prng rng(seed);
    std::vector<rational> delay = base.delay();
    const auto check = [&](std::vector<rational> d, int step) {
        if (perturb) perturb(d);
        const rational warm = chain.solve(d).ratio;
        const compiled_graph bound = base.rebind(d);
        EXPECT_EQ(warm, max_cycle_ratio_howard(make_ratio_problem(bound)).ratio) << step;
        EXPECT_EQ(warm, engine
                            .evaluate(d, /*with_slack=*/false, 1,
                                      cycle_time_solver::border_sweep, /*with_witness=*/false)
                            .cycle_time)
            << step;
    };
    const auto reduce = [&](arc_id a, std::int64_t quanta) {
        const rational cut = rational(quanta);
        if (cut < delay[a]) delay[a] -= cut;
        else delay[a] = rational(0);
    };
    for (int step = 0; step < steps; ++step) {
        const std::vector<rational> saved = delay;
        const auto shape = rng.uniform(0, 9);
        if (shape < 6) { // one-arc reduction
            reduce(static_cast<arc_id>(rng.uniform(0, static_cast<std::int64_t>(delay.size()) - 1)),
                   rng.uniform(1, 3));
        } else { // bound: a suffix of the arcs maximally reduced
            const auto first = static_cast<arc_id>(
                rng.uniform(0, static_cast<std::int64_t>(delay.size()) - 1));
            for (arc_id a = first; a < delay.size(); ++a) reduce(a, rng.uniform(1, 4));
        }
        check(delay, step);
        if (shape != 0) delay = saved; // restore; shape 0 commits the step
        if (step % 16 == 0) check(delay, step);
    }
}

TEST(HowardChain, MatchesColdSolvesAlongSearchShapedSteps)
{
    for (const std::uint32_t n : {16u, 64u, 256u}) {
        random_sg_options opts;
        opts.events = n;
        opts.extra_arcs = n;
        opts.seed = 900 + n;
        opts.border_limit = 4;
        walk_chain(random_marked_graph(opts), n, n == 256 ? 150 : 200);
    }
}

TEST(HowardChain, RationalDomainRebindsMatchColdSolves)
{
    // Two coprime denominators near 2^16 push every assignment's scale LCM
    // past the fixed-point cap, so each rebind runs scale 0 and the chain
    // solves in Howard's rational domain — while the exact sums stay small.
    random_sg_options opts;
    opts.events = 16;
    opts.extra_arcs = 16;
    opts.seed = 77;
    const signal_graph sg = random_marked_graph(opts);
    const compiled_graph base(sg);
    ASSERT_TRUE(base.fixed_point());
    const auto perturb = [](std::vector<rational>& d) {
        d[0] += rational(1, 65537);
        d[1] += rational(1, 65539);
    };
    std::vector<rational> probe = base.delay();
    perturb(probe);
    ASSERT_FALSE(base.rebind(probe).fixed_point());
    howard_chain chain(base);
    EXPECT_FALSE(chain.solve(probe).fixed_point);
    walk_chain(sg, 5, 150, perturb);
}

// --- multi-SCC graphs --------------------------------------------------------

/// Stitches k strongly connected random problems into one graph with
/// forward (acyclic) bridge arcs and a few isolated single-node SCCs —
/// the shape Howard alone rejects and the condensation driver must solve.
struct stitched {
    ratio_problem problem;
    std::vector<rational> component_ratio; ///< per stitched-in component
};

stitched stitch_components(std::uint64_t seed, int k, bool fixed_domain)
{
    prng rng(seed);
    stitched out;
    out.problem.scale = fixed_domain ? 1 : 0;

    node_id offset = 0;
    std::vector<node_id> entry; // one representative node per component
    for (int c = 0; c < k; ++c) {
        random_sg_options opts;
        opts.events = static_cast<std::uint32_t>(rng.uniform(4, 9));
        opts.extra_arcs = static_cast<std::uint32_t>(rng.uniform(2, 6));
        opts.seed = seed * 101 + static_cast<std::uint64_t>(c);
        const signal_graph sg = random_marked_graph(opts);
        ratio_problem p = make_ratio_problem(sg);
        if (fixed_domain) {
            // Integer delays: represent them at scale 1 so the stitched
            // problem exercises the fixed-point condensation path.
            for (rational& d : p.delay) d = rational(d.num() / d.den());
        }
        out.component_ratio.push_back(max_cycle_ratio_howard(p).ratio);

        out.problem.graph.add_nodes(p.graph.node_count());
        for (arc_id a = 0; a < p.graph.arc_count(); ++a) {
            out.problem.graph.add_arc(offset + p.graph.from(a), offset + p.graph.to(a));
            out.problem.delay.push_back(p.delay[a]);
            out.problem.transit.push_back(p.transit[a]);
            if (fixed_domain) out.problem.scaled_delay.push_back(p.delay[a].num());
        }
        entry.push_back(offset);
        offset += static_cast<node_id>(p.graph.node_count());
    }

    // Isolated single-node SCCs: a source feeding component 0 and a sink
    // fed by the last component (trivial components, never on a cycle).
    const node_id source = out.problem.graph.add_node();
    const node_id sink = out.problem.graph.add_node();
    const auto bridge = [&](node_id from, node_id to) {
        out.problem.graph.add_arc(from, to);
        out.problem.delay.push_back(rational(1));
        out.problem.transit.push_back(1);
        if (fixed_domain) out.problem.scaled_delay.push_back(1);
    };
    bridge(source, entry[0]);
    for (int c = 0; c + 1 < k; ++c) bridge(entry[c], entry[c + 1]);
    bridge(entry.back(), sink);
    return out;
}

class MultiScc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiScc, CondensationSolvesWhatHowardRejects)
{
    for (const bool fixed_domain : {false, true}) {
        const stitched s = stitch_components(GetParam(), 3, fixed_domain);

        // Direct Howard refuses: the sink has no out-arc.
        EXPECT_THROW((void)max_cycle_ratio_howard(s.problem), error);

        const condensed_ratio_result r = max_cycle_ratio_condensed(s.problem);
        const rational expected =
            *std::max_element(s.component_ratio.begin(), s.component_ratio.end());
        EXPECT_EQ(r.ratio, expected) << "fixed=" << fixed_domain;
        EXPECT_EQ(r.cyclic_component_count, 3u);
        EXPECT_EQ(r.component_count, 5u); // 3 cores + source + sink
        EXPECT_EQ(cycle_ratio(s.problem, r.cycle), r.ratio);
        EXPECT_EQ(r.fixed_point, fixed_domain);

        // The parallel fan-out reduces identically to the serial one.
        condensation_options parallel;
        parallel.max_threads = 4;
        const condensed_ratio_result pr = max_cycle_ratio_condensed(s.problem, parallel);
        EXPECT_EQ(pr.ratio, r.ratio);
        EXPECT_EQ(pr.cycle, r.cycle);
        EXPECT_EQ(pr.critical_component, r.critical_component);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiScc, ::testing::Values(11, 12, 13, 14, 15));

TEST(SolverDifferential, OverflowingDenominatorsForceTheRationalPathAndStillAgree)
{
    // Coprime near-2^31 denominators overflow the scale LCM: the snapshot
    // drops to scale 0 and Howard must take the rational fallback —
    // agreeing with Lawler, the condensation driver and the paper's
    // algorithm on the same problem.  (Kept to two cycles so the exact
    // rational sums themselves stay inside int64 numerators/denominators.)
    const std::int64_t p1 = 2147483647; // 2^31 - 1 (prime)
    const std::int64_t p2 = 2147483629; // also prime
    sg_builder b;
    // All delays stay on the huge-denominator grid so the exact rational
    // sums (numerator over p1*p2) remain representable.
    b.arc("a", "b", rational(1, p1));
    b.marked_arc("b", "a", rational(10, p2));
    b.arc("b", "c", rational(2, p1));
    b.marked_arc("c", "a", rational(3, p1));
    const signal_graph sg = b.build();
    const compiled_graph cg(sg);
    ASSERT_FALSE(cg.fixed_point());

    const ratio_problem p = make_ratio_problem(cg);
    ASSERT_EQ(p.scale, 0);
    const ratio_result howard = max_cycle_ratio_howard(p);
    EXPECT_FALSE(howard.fixed_point);
    EXPECT_EQ(howard.ratio, max_cycle_ratio_lawler(p).ratio);
    EXPECT_EQ(howard.ratio, max_cycle_ratio_condensed(p).ratio);
    EXPECT_EQ(howard.ratio, analyze_cycle_time(cg).cycle_time);
    EXPECT_EQ(howard.ratio, rational(1, p1) + rational(10, p2)); // the 1-token cycle wins
}

} // namespace
} // namespace tsg
