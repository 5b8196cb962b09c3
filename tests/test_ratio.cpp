// Tests for the baseline maximum-cycle-ratio solvers on known instances —
// including the paper's Example 5/6 cycle enumeration of the oscillator.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/oscillator.h"
#include "gen/muller.h"
#include "ratio/condensation.h"
#include "ratio/exhaustive.h"
#include "ratio/howard.h"
#include "ratio/karp.h"
#include "ratio/lawler.h"
#include "sg/builder.h"

namespace tsg {
namespace {

TEST(Exhaustive, Example5FourSimpleCycles)
{
    // C1 = {a+,c+,a-,c-}: 10; C2 = {a+,c+,b-,c-}: 8;
    // C3 = {b+,c+,a-,c-}: 8;  C4 = {b+,c+,b-,c-}: 6.  All epsilon = 1.
    const signal_graph sg = c_oscillator_sg();
    const exhaustive_result r = max_cycle_ratio_exhaustive(make_ratio_problem(sg));
    ASSERT_EQ(r.cycles.size(), 4u);

    std::multiset<std::int64_t> lengths;
    for (const cycle_listing& c : r.cycles) {
        EXPECT_EQ(c.transit, 1);
        EXPECT_TRUE(c.delay.is_integer());
        lengths.insert(c.delay.num());
    }
    EXPECT_EQ(lengths, (std::multiset<std::int64_t>{6, 8, 8, 10}));
}

TEST(Exhaustive, Example6CycleTimeIsTen)
{
    // lambda = max{10, 8, 8, 6} = 10.
    EXPECT_EQ(cycle_time_exhaustive(c_oscillator_sg()), rational(10));
}

TEST(Exhaustive, CriticalCycleIndices)
{
    const exhaustive_result r =
        max_cycle_ratio_exhaustive(make_ratio_problem(c_oscillator_sg()));
    ASSERT_EQ(r.critical.size(), 1u);
    EXPECT_EQ(r.cycles[r.critical[0]].delay, rational(10));
}

TEST(Exhaustive, BudgetViolationThrows)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_THROW((void)max_cycle_ratio_exhaustive(p, 2), error);
}

TEST(RatioProblem, ExtractsRepetitiveCore)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_EQ(p.graph.node_count(), 6u);
    EXPECT_EQ(p.graph.arc_count(), 8u);
    std::int64_t tokens = 0;
    for (const std::int64_t t : p.transit) tokens += t;
    EXPECT_EQ(tokens, 2);
}

TEST(RatioProblem, CycleRatioChecksTokens)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_THROW((void)cycle_ratio(p, {}), error);
    // A token-free arc alone is not a valid cycle argument.
    for (arc_id a = 0; a < p.graph.arc_count(); ++a)
        if (p.transit[a] == 0) {
            EXPECT_THROW((void)cycle_ratio(p, {a}), error);
            break;
        }
}

TEST(Karp, OscillatorAndRing)
{
    EXPECT_EQ(cycle_time_karp(c_oscillator_sg()), rational(10));
    EXPECT_EQ(cycle_time_karp(muller_ring_sg()), rational(20, 3));
}

TEST(Karp, MaxMeanCycleKnownGraph)
{
    // Two loops: self-loop weight 3 and 2-cycle with mean (1+4)/2 = 5/2.
    digraph g(3);
    std::vector<rational> w;
    g.add_arc(0, 0);
    w.emplace_back(3);
    g.add_arc(1, 2);
    w.emplace_back(1);
    g.add_arc(2, 1);
    w.emplace_back(4);
    g.add_arc(0, 1);
    w.emplace_back(100); // not on any cycle
    EXPECT_EQ(max_mean_cycle_karp(g, w), rational(3));
}

TEST(Karp, RejectsAcyclic)
{
    digraph g(2);
    g.add_arc(0, 1);
    EXPECT_THROW((void)max_mean_cycle_karp(g, {rational(1)}), error);
}

TEST(Karp, RejectsMultiTokenTransit)
{
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.delay = {rational(1), rational(1)};
    p.transit = {2, 0};
    EXPECT_THROW((void)max_cycle_ratio_karp(p), error);
}

TEST(Lawler, OscillatorAndRing)
{
    EXPECT_EQ(cycle_time_lawler(c_oscillator_sg()), rational(10));
    EXPECT_EQ(cycle_time_lawler(muller_ring_sg()), rational(20, 3));
}

TEST(Lawler, WitnessCycleAttainsTheRatio)
{
    const ratio_problem p = make_ratio_problem(muller_ring_sg());
    const ratio_result r = max_cycle_ratio_lawler(p);
    EXPECT_EQ(r.ratio, rational(20, 3));
    EXPECT_EQ(cycle_ratio(p, r.cycle), r.ratio);
}

TEST(Lawler, BisectionBracketsTheAnswer)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_NEAR(max_cycle_ratio_lawler_bisection(p, 1e-6), 10.0, 1e-5);
    EXPECT_THROW((void)max_cycle_ratio_lawler_bisection(p, 0.0), error);
}

TEST(Howard, OscillatorAndRing)
{
    EXPECT_EQ(cycle_time_howard(c_oscillator_sg()), rational(10));
    EXPECT_EQ(cycle_time_howard(muller_ring_sg()), rational(20, 3));
}

TEST(Howard, WitnessCycleAttainsTheRatio)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    const ratio_result r = max_cycle_ratio_howard(p);
    EXPECT_EQ(r.ratio, rational(10));
    EXPECT_EQ(cycle_ratio(p, r.cycle), rational(10));
}

TEST(Howard, SingleNodeSelfLoop)
{
    ratio_problem p;
    p.graph.add_nodes(1);
    p.graph.add_arc(0, 0);
    p.graph.add_arc(0, 0);
    p.delay = {rational(5), rational(9)};
    p.transit = {1, 1};
    EXPECT_EQ(max_cycle_ratio_howard(p).ratio, rational(9));
    EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(9));
}

TEST(Howard, MultiTokenCycleRatios)
{
    // Ratio problems from multi-token cycles: 2-cycle with 2 tokens, delay
    // 10 -> ratio 5; self loop ratio 4.  Howard and Lawler handle transit
    // times > 1 natively (Karp requires the 0/1 token-graph form).
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.graph.add_arc(1, 1);
    p.delay = {rational(6), rational(4), rational(4)};
    p.transit = {1, 1, 1};
    EXPECT_EQ(max_cycle_ratio_howard(p).ratio, rational(5));
    EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(5));
}

TEST(Howard, RatioImprovementJoinsPolicyClassesOfDifferentRatios)
{
    // The first-out-arc policy splits the nodes into two classes: {0, 1}
    // on cycle 0-1-0 (ratio 2) and {2, 3} on cycle 2-3-2 (ratio 10).  The
    // maximum, 0-2-3-0 at 205/2, needs both cross arcs, which only the
    // ratio-improvement sweep takes (the potential sweep stays inside a
    // class).  Both arithmetic domains must find it.
    for (const bool fixed : {false, true}) {
        ratio_problem p;
        p.graph.add_nodes(4);
        p.graph.add_arc(0, 1);
        p.graph.add_arc(1, 0);
        p.graph.add_arc(2, 3);
        p.graph.add_arc(3, 2);
        p.graph.add_arc(0, 2);
        p.graph.add_arc(3, 0);
        p.delay = {rational(1), rational(1), rational(5), rational(5), rational(100),
                   rational(100)};
        p.transit = {1, 0, 1, 0, 1, 0};
        if (fixed) {
            p.scale = 1;
            p.scaled_delay = {1, 1, 5, 5, 100, 100};
        }
        const ratio_result r = max_cycle_ratio_howard(p);
        EXPECT_EQ(r.fixed_point, fixed);
        EXPECT_EQ(r.ratio, rational(205, 2));
        EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(205, 2));
    }
}

TEST(Howard, DeadEndErrorNamesTheNodeAndTheCondensationEntryPoint)
{
    // Node 1 has no out-arc: the precondition error must identify it and
    // point at the driver that accepts such graphs.
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(0, 0);
    p.delay = {rational(1), rational(1)};
    p.transit = {0, 1};
    try {
        (void)max_cycle_ratio_howard(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node 1"), std::string::npos) << what;
        EXPECT_NE(what.find("max_cycle_ratio_condensed"), std::string::npos) << what;
    }
}

TEST(Howard, TokenFreeCycleErrorNamesAnArc)
{
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.delay = {rational(1), rational(1)};
    p.transit = {0, 0}; // not live: a cycle without a token
    try {
        (void)max_cycle_ratio_howard(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("arc"), std::string::npos) << what;
        EXPECT_NE(what.find("not live"), std::string::npos) << what;
    }
}

TEST(Howard, EqualRatioTieBreakingOnPotentials)
{
    // Two cycles with the *same* ratio 2 but different potentials along
    // their token-free prefixes: phase 1 stabilizes immediately (all
    // lambdas equal), so convergence exercises the phase-2 potential
    // improvement and its Gauss-Seidel tie-breaking.
    ratio_problem p;
    p.graph.add_nodes(3);
    p.graph.add_arc(0, 1); // delay 1, no token
    p.graph.add_arc(1, 0); // delay 1, token -> cycle A ratio 2
    p.graph.add_arc(0, 2); // delay 0, no token
    p.graph.add_arc(2, 0); // delay 2, token -> cycle B ratio 2
    p.delay = {rational(1), rational(1), rational(0), rational(2)};
    p.transit = {0, 1, 0, 1};
    const ratio_result r = max_cycle_ratio_howard(p);
    EXPECT_EQ(r.ratio, rational(2));
    EXPECT_EQ(cycle_ratio(p, r.cycle), rational(2));
    EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(2));
}

TEST(Howard, ExplicitIterationCapThrowsUserError)
{
    // Initial policy (first out-arc) picks the ratio-5 self-loop; reaching
    // the ratio-9 one needs a second round to detect convergence, so a cap
    // of 1 must trip — as tsg::error: the cap is caller-provoked.
    ratio_problem p;
    p.graph.add_nodes(1);
    p.graph.add_arc(0, 0);
    p.graph.add_arc(0, 0);
    p.delay = {rational(5), rational(9)};
    p.transit = {1, 1};
    howard_options capped;
    capped.max_iterations = 1;
    EXPECT_THROW((void)max_cycle_ratio_howard(p, capped), error);
    // A generous explicit cap converges normally.
    capped.max_iterations = 64;
    EXPECT_EQ(max_cycle_ratio_howard(p, capped).ratio, rational(9));
}

TEST(Howard, WarmStateReusedAndRewritten)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    howard_state state;
    const ratio_result cold = max_cycle_ratio_howard(p, howard_options{}, &state);
    EXPECT_EQ(cold.ratio, rational(10));
    ASSERT_EQ(state.policy.size(), p.graph.node_count());
    for (node_id v = 0; v < p.graph.node_count(); ++v)
        EXPECT_EQ(p.graph.from(state.policy[v]), v);

    // Re-solving from the converged policy is a no-op round, same answer.
    const ratio_result warm = max_cycle_ratio_howard(p, howard_options{}, &state);
    EXPECT_EQ(warm.ratio, cold.ratio);
    EXPECT_EQ(warm.cycle, cold.cycle);

    // A mismatched state (wrong size) is ignored, not trusted.
    howard_state stale;
    stale.policy.assign(1, 0);
    EXPECT_EQ(max_cycle_ratio_howard(p, howard_options{}, &stale).ratio, rational(10));
    EXPECT_EQ(stale.policy.size(), p.graph.node_count()); // rewritten on success
}

TEST(Condensation, NonStronglyConnectedLiveGraphSolves)
{
    // Two 2-cycles bridged by token-free arcs into a dead-end sink: not
    // strongly connected, still live.  Howard alone refuses (the sink has
    // no out-arc); the condensation driver returns the larger component
    // ratio.
    ratio_problem p;
    p.graph.add_nodes(5);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0); // component {0,1}: ratio (1+3)/1 = 4
    p.graph.add_arc(2, 3);
    p.graph.add_arc(3, 2); // component {2,3}: ratio (2+5)/1 = 7
    p.graph.add_arc(1, 2); // bridge, never on a cycle
    p.graph.add_arc(3, 4); // dead-end sink
    p.delay = {rational(1), rational(3), rational(2), rational(5), rational(100),
               rational(1)};
    p.transit = {0, 1, 0, 1, 0, 0};

    EXPECT_THROW((void)max_cycle_ratio_howard(p), error);

    const condensed_ratio_result r = max_cycle_ratio_condensed(p);
    EXPECT_EQ(r.ratio, rational(7));
    EXPECT_EQ(r.component_count, 3u);
    EXPECT_EQ(r.cyclic_component_count, 2u);
    EXPECT_EQ(cycle_ratio(p, r.cycle), rational(7));
}

TEST(Condensation, SingleNodeSelfLoopCore)
{
    // One self-loop component among trivial single-node SCCs.
    ratio_problem p;
    p.graph.add_nodes(3);
    p.graph.add_arc(0, 1); // source -> core
    p.graph.add_arc(1, 1); // the core: self-loop, ratio 6
    p.graph.add_arc(1, 2); // core -> sink
    p.delay = {rational(1), rational(6), rational(1)};
    p.transit = {0, 1, 0};
    const condensed_ratio_result r = max_cycle_ratio_condensed(p);
    EXPECT_EQ(r.ratio, rational(6));
    EXPECT_EQ(r.component_count, 3u);
    EXPECT_EQ(r.cyclic_component_count, 1u);
    ASSERT_EQ(r.cycle.size(), 1u);
    EXPECT_EQ(r.cycle[0], 1u);
}

TEST(Condensation, AcyclicGraphRejectedWithClearMessage)
{
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.delay = {rational(1)};
    p.transit = {1};
    try {
        (void)max_cycle_ratio_condensed(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("acyclic"), std::string::npos) << e.what();
    }
}

TEST(Condensation, NonLiveComponentErrorNamesTheComponent)
{
    // Component {2,3} has a token-free cycle: the sub-solve error must
    // surface with the condensation context attached.
    ratio_problem p;
    p.graph.add_nodes(4);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.graph.add_arc(2, 3);
    p.graph.add_arc(3, 2);
    p.graph.add_arc(1, 2);
    p.delay = {rational(1), rational(1), rational(1), rational(1), rational(1)};
    p.transit = {0, 1, 0, 0, 0}; // second cycle token-free
    try {
        (void)max_cycle_ratio_condensed(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("max_cycle_ratio_condensed: component"), std::string::npos)
            << what;
        EXPECT_NE(what.find("not live"), std::string::npos) << what;
    }
}

} // namespace
} // namespace tsg
