// Differential fuzz harness for the incremental timing kernel
// (core/incremental.h): randomized edit sequences — add/remove/retarget/
// set_delay/set_marking, interleaved with analyses — must leave the
// engine's graph and compiled snapshot *bit-identical* to a fresh
// finalize() + compile of the same structure, after every batch, under
// both solvers, the slack and PERT layers, and every lane width.
//
// The one indexing caveat: the engine keeps tombstoned arc-id slots, a
// fresh rebuild compacts them.  Live arcs map order-preservingly
// (ascending ids), so every derived structure is order-isomorphic and
// results are compared through that map.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cycle_time.h"
#include "core/incremental.h"
#include "core/lane_domain.h"
#include "core/pert.h"
#include "core/scenario.h"
#include "core/slack.h"
#include "gen/random_sg.h"
#include "util/prng.h"

namespace tsg {
namespace {

/// Fresh finalize()+compile of the engine's current structure, plus the
/// engine-arc -> fresh-arc compaction map.
struct rebuilt {
    signal_graph sg;
    std::vector<arc_id> to_fresh; ///< engine arc id -> fresh arc id (or invalid)
};

rebuilt rebuild(const signal_graph& g)
{
    rebuilt r;
    for (event_id e = 0; e < g.event_count(); ++e)
        r.sg.add_event(g.event(e).name, g.event(e).signal, g.event(e).pol);
    r.to_fresh.assign(g.arc_count(), invalid_arc);
    for (arc_id a = 0; a < g.arc_count(); ++a) {
        if (!g.arc_live(a)) continue;
        const arc_info& info = g.arc(a);
        r.to_fresh[a] = r.sg.add_arc(info.from, info.to, info.delay, info.marked,
                                     info.disengageable);
    }
    r.sg.finalize();
    return r;
}

std::vector<arc_id> map_arcs(const std::vector<arc_id>& arcs,
                             const std::vector<arc_id>& to_fresh)
{
    std::vector<arc_id> out;
    out.reserve(arcs.size());
    for (const arc_id a : arcs) out.push_back(to_fresh.at(a));
    return out;
}

/// Full differential check of the engine against a from-scratch rebuild.
void expect_matches_fresh(incremental_engine& eng, std::uint64_t tag)
{
    SCOPED_TRACE("differential tag " + std::to_string(tag));
    const signal_graph& g = eng.graph();
    const rebuilt f = rebuild(g);
    const compiled_graph fcg(f.sg);

    ASSERT_EQ(g.repetitive_events(), f.sg.repetitive_events());
    ASSERT_EQ(g.initial_events(), f.sg.initial_events());
    ASSERT_EQ(g.transient_events(), f.sg.transient_events());
    ASSERT_EQ(g.border_events(), f.sg.border_events());

    if (g.repetitive_events().empty()) {
        const pert_result a = analyze_pert(eng.compiled());
        const pert_result b = analyze_pert(fcg);
        EXPECT_EQ(a.makespan, b.makespan);
        EXPECT_EQ(a.occurs, b.occurs);
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.critical_path, b.critical_path);
        EXPECT_EQ(map_arcs(a.critical_arcs, f.to_fresh), b.critical_arcs);
        return;
    }

    for (const cycle_time_solver solver :
         {cycle_time_solver::border_sweep, cycle_time_solver::howard}) {
        SCOPED_TRACE(solver == cycle_time_solver::howard ? "howard" : "border_sweep");
        analysis_options opts;
        opts.solver = solver;
        opts.max_threads = 1;
        const cycle_time_result a = eng.analyze(opts);
        const cycle_time_result b = analyze_cycle_time(fcg, opts);
        EXPECT_EQ(a.cycle_time, b.cycle_time);
        EXPECT_EQ(a.critical_cycle_events, b.critical_cycle_events);
        EXPECT_EQ(map_arcs(a.critical_cycle_arcs, f.to_fresh), b.critical_cycle_arcs);
        EXPECT_EQ(a.critical_occurrence_period, b.critical_occurrence_period);
        EXPECT_EQ(a.border_count, b.border_count);
    }

    const slack_result a = analyze_slack(eng.compiled());
    const slack_result b = analyze_slack(fcg);
    EXPECT_EQ(a.cycle_time, b.cycle_time);
    EXPECT_EQ(a.criticality_margin, b.criticality_margin);
    EXPECT_EQ(a.event_critical, b.event_critical);
    for (const event_id e : g.repetitive_events())
        EXPECT_EQ(a.potential[e], b.potential[e]) << "potential of event " << e;
    for (arc_id arc = 0; arc < g.arc_count(); ++arc) {
        if (!g.arc_live(arc)) continue;
        const arc_id fa = f.to_fresh[arc];
        EXPECT_EQ(a.in_core[arc], b.in_core[fa]) << "in_core of arc " << arc;
        EXPECT_EQ(a.arc_critical[arc], b.arc_critical[fa]) << "critical of arc " << arc;
        if (a.in_core[arc]) {
            EXPECT_EQ(a.slack[arc], b.slack[fa]) << "slack of arc " << arc;
        }
    }

    // The warm Howard accelerator: exact lambda, and its witness must be a
    // real critical cycle of the current graph (it may be a different
    // equally critical cycle than a cold solve — see analyze_warm()).
    const cycle_time_result w = eng.analyze_warm();
    EXPECT_EQ(w.cycle_time, a.cycle_time);
    ASSERT_FALSE(w.critical_cycle_arcs.empty());
    std::uint32_t tokens = 0;
    for (const arc_id arc : w.critical_cycle_arcs) tokens += g.arc(arc).marked ? 1 : 0;
    EXPECT_EQ(tokens, w.critical_occurrence_period);
    ASSERT_GT(tokens, 0u);
    EXPECT_EQ(g.path_delay(w.critical_cycle_arcs) / rational(tokens), w.cycle_time);
}

rational random_delay(prng& rng)
{
    return {rng.uniform(0, 12), rng.uniform(1, 4)};
}

arc_id random_live_arc(const signal_graph& g, prng& rng)
{
    std::vector<arc_id> live;
    for (arc_id a = 0; a < g.arc_count(); ++a)
        if (g.arc_live(a)) live.push_back(a);
    return live.at(rng.index(live.size()));
}

/// A random edit, biased toward edits that keep the graph valid; invalid
/// ones exercise the atomic-rollback path instead.
graph_edit random_edit(const signal_graph& g, prng& rng)
{
    const auto random_event = [&] {
        return static_cast<event_id>(rng.index(g.event_count()));
    };
    const auto random_core_event = [&]() -> event_id {
        const std::vector<event_id>& rep = g.repetitive_events();
        return rep.empty() ? random_event() : rep[rng.index(rep.size())];
    };
    switch (rng.uniform(0, 9)) {
    case 0:
    case 1: { // add, usually core-interior
        const bool core = rng.chance(0.7);
        const event_id from = core ? random_core_event() : random_event();
        const event_id to = core ? random_core_event() : random_event();
        return graph_edit::add(from, to, random_delay(rng), rng.chance(0.3));
    }
    case 2: return graph_edit::remove(random_live_arc(g, rng));
    case 3: {
        const arc_id a = random_live_arc(g, rng);
        const bool core = rng.chance(0.7);
        const event_id from = core ? random_core_event() : random_event();
        const event_id to = core ? random_core_event() : random_event();
        return graph_edit::retarget_to(a, from, to);
    }
    case 4: {
        const arc_id a = random_live_arc(g, rng);
        return graph_edit::set_marking_of(a, rng.chance(0.5));
    }
    default: return graph_edit::set_delay_of(random_live_arc(g, rng), random_delay(rng));
    }
}

/// Drives one fuzzed edit sequence with a full differential check after
/// every batch (applied or rejected — a rejection must be a perfect
/// no-op), then unwinds the whole sequence through undo() and checks the
/// engine landed exactly back on the seed graph.
void run_sequence(const random_sg_options& gopts, std::uint64_t seed, int batches)
{
    SCOPED_TRACE("sequence seed " + std::to_string(seed));
    prng rng(seed);
    const signal_graph base = random_marked_graph(gopts);
    incremental_engine eng(base);

    const rational base_lambda = eng.analyze().cycle_time;
    expect_matches_fresh(eng, 0);

    int applied = 0;
    for (int b = 1; b <= batches; ++b) {
        edit_batch batch;
        const int size = static_cast<int>(rng.uniform(1, 3));
        for (int k = 0; k < size; ++k) batch.push_back(random_edit(eng.graph(), rng));
        try {
            eng.apply(batch);
            ++applied;
        } catch (const error&) {
            // rejected: the rollback must have restored everything
        }
        expect_matches_fresh(eng, static_cast<std::uint64_t>(b));
        if (::testing::Test::HasFailure()) return; // stop at first divergence
    }

    EXPECT_EQ(eng.undo_depth(), static_cast<std::size_t>(applied));
    while (eng.undo_depth() > 0) eng.undo();
    expect_matches_fresh(eng, 999);
    EXPECT_EQ(eng.analyze().cycle_time, base_lambda);
    EXPECT_EQ(eng.graph().live_arc_count(), base.arc_count());
}

TEST(Incremental, FuzzDifferentialSmall)
{
    // 40 sequences over small dense graphs: high edit-rejection rate,
    // heavy rollback and membership-change coverage.
    for (std::uint64_t s = 0; s < 40; ++s) {
        random_sg_options gopts;
        gopts.events = 10 + static_cast<std::uint32_t>(s % 5) * 4;
        gopts.extra_arcs = gopts.events;
        gopts.max_delay = 9;
        gopts.seed = 100 + s;
        run_sequence(gopts, 0xabc000 + s, 10);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(Incremental, FuzzDifferentialSmallBorder)
{
    // 12 sequences in the b << n regime (small border sets): exercises
    // the border-sweep solver's cut-set machinery under edits.
    for (std::uint64_t s = 0; s < 12; ++s) {
        random_sg_options gopts;
        gopts.events = 32;
        gopts.extra_arcs = 24;
        gopts.max_delay = 6;
        gopts.border_limit = 4;
        gopts.seed = 300 + s;
        run_sequence(gopts, 0xdef000 + s, 8);
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(Incremental, CyclicAcyclicTransitions)
{
    // Dropping the only cycle flips the engine into the PERT domain and
    // re-adding it flips back; both directions must match fresh compiles.
    signal_graph g;
    const event_id a = g.add_event("a");
    const event_id b = g.add_event("b");
    const event_id c = g.add_event("c");
    g.add_arc(a, b, rational(1));
    g.add_arc(b, c, rational(2));
    const arc_id closer = g.add_arc(c, a, rational(3), /*marked=*/true);
    g.finalize();

    incremental_engine eng(g);
    expect_matches_fresh(eng, 1);

    eng.remove_arc(closer); // all cycles gone: PERT domain
    EXPECT_TRUE(eng.graph().repetitive_events().empty());
    expect_matches_fresh(eng, 2);
    EXPECT_EQ(analyze_pert(eng.compiled()).makespan, rational(3));

    const arc_id again = eng.add_arc(c, a, rational(4), /*marked=*/true);
    EXPECT_EQ(eng.graph().repetitive_events().size(), 3u);
    expect_matches_fresh(eng, 3);
    EXPECT_EQ(eng.analyze().cycle_time, rational(7));

    eng.undo(); // back to acyclic
    expect_matches_fresh(eng, 4);
    eng.undo(); // back to the seed cycle
    expect_matches_fresh(eng, 5);
    EXPECT_EQ(eng.analyze().cycle_time, rational(6));
    EXPECT_EQ(eng.counters().full_rebuilds, 4u);
    (void)again;
}

TEST(Incremental, RejectedEditsRollBackAtomically)
{
    random_sg_options gopts;
    gopts.events = 12;
    gopts.extra_arcs = 8;
    gopts.seed = 7;
    const signal_graph g = random_marked_graph(gopts);
    incremental_engine eng(g);
    const rational lambda = eng.analyze().cycle_time;

    // A token-free self-loop is a liveness violation.
    EXPECT_THROW(eng.add_arc(0, 0, rational(1)), error);
    // A batch whose *second* edit fails must undo its first.
    EXPECT_THROW(eng.apply({graph_edit::set_delay_of(0, rational(99)),
                            graph_edit::add(1, 1, rational(1))}),
                 error);
    EXPECT_EQ(eng.graph().arc(0).delay, g.arc(0).delay);
    EXPECT_EQ(eng.undo_depth(), 0u);
    EXPECT_EQ(eng.analyze().cycle_time, lambda);
    expect_matches_fresh(eng, 1);
}

TEST(Incremental, CountersTrackLocality)
{
    random_sg_options gopts;
    gopts.events = 24;
    gopts.extra_arcs = 16;
    gopts.seed = 11;
    incremental_engine eng(random_marked_graph(gopts));

    // Delay-only batches: no structural work, warm Howard survives.
    (void)eng.analyze_warm();
    eng.set_delay(0, rational(5, 2));
    (void)eng.analyze_warm();
    (void)eng.analyze_warm();
    const incremental_counters& c1 = eng.counters();
    EXPECT_EQ(c1.core_rebuilds, 0u);
    EXPECT_EQ(c1.sccs_recondensed, 0u);
    EXPECT_GE(c1.warm_states_kept, 2u);
    EXPECT_GE(c1.fixed_point_patches + c1.fixed_point_recomputes, 1u);

    // A core-interior add is proven membership-safe: SCC work skipped,
    // core rebuilt once, warm state dropped on the next analyze.
    const std::vector<event_id>& rep = eng.graph().repetitive_events();
    eng.add_arc(rep[0], rep[1 % rep.size()], rational(1), /*marked=*/true);
    (void)eng.analyze_warm();
    const incremental_counters& c2 = eng.counters();
    EXPECT_GE(c2.scc_runs_skipped, 1u);
    EXPECT_EQ(c2.sccs_recondensed, 0u);
    EXPECT_EQ(c2.core_rebuilds, 1u);
    EXPECT_GE(c2.warm_states_dropped, 1u);
    EXPECT_GE(c2.arcs_repaired, 1u);
    EXPECT_EQ(c2.batches_applied, 2u);
    expect_matches_fresh(eng, 1);
}

TEST(Incremental, LaneWidthsMatchFreshCompile)
{
    // Scenario batches over the edited snapshot, at every lane width,
    // must equal the same batches over a fresh compile (outcome arrays
    // compared through the arc compaction map).
    random_sg_options gopts;
    gopts.events = 20;
    gopts.extra_arcs = 14;
    gopts.seed = 21;
    incremental_engine eng(random_marked_graph(gopts));

    // A few edits so the engine snapshot has tombstones and new slots.
    eng.set_delay(2, rational(7, 3));
    const std::vector<event_id>& rep = eng.graph().repetitive_events();
    const arc_id doomed = eng.add_arc(rep[0], rep[1 % rep.size()], rational(1),
                                      /*marked=*/true);
    eng.remove_arc(doomed); // guaranteed-valid removal, leaves a tombstone
    eng.add_arc(rep[2 % rep.size()], rep[0], rational(2), /*marked=*/true);

    const rebuilt f = rebuild(eng.graph());
    const compiled_graph fcg(f.sg);

    monte_carlo_options mopts;
    mopts.samples = 12;
    mopts.seed = 5;
    const std::vector<scenario> mine = monte_carlo_scenarios(eng.graph(), mopts);
    std::vector<scenario> fresh = mine;
    for (scenario& s : fresh) {
        std::vector<rational> delay(f.sg.arc_count());
        for (arc_id a = 0; a < eng.graph().arc_count(); ++a)
            if (f.to_fresh[a] != invalid_arc) delay[f.to_fresh[a]] = s.delay[a];
        s.delay = std::move(delay);
    }

    const scenario_engine mine_eng(eng.compiled());
    const scenario_engine fresh_eng(fcg);
    for (const unsigned width : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("lane width " + std::to_string(width));
        scenario_batch_options bopts;
        bopts.max_threads = 1;
        bopts.lane_width = width;
        const scenario_batch_result ra = mine_eng.run(mine, bopts);
        const scenario_batch_result rb = fresh_eng.run(fresh, bopts);
        ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
        for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
            const scenario_outcome& oa = ra.outcomes[i];
            const scenario_outcome& ob = rb.outcomes[i];
            EXPECT_EQ(oa.cycle_time, ob.cycle_time) << "scenario " << i;
            EXPECT_EQ(oa.fixed_point, ob.fixed_point) << "scenario " << i;
            EXPECT_EQ(oa.criticality_margin, ob.criticality_margin) << "scenario " << i;
            EXPECT_EQ(map_arcs(oa.critical_arcs, f.to_fresh), ob.critical_arcs)
                << "scenario " << i;
            EXPECT_EQ(map_arcs(oa.critical_cycle, f.to_fresh), ob.critical_cycle)
                << "scenario " << i;
        }
        EXPECT_EQ(ra.min_cycle_time, rb.min_cycle_time);
        EXPECT_EQ(ra.max_cycle_time, rb.max_cycle_time);
        EXPECT_EQ(ra.fallback_count, rb.fallback_count);
    }
}

TEST(Incremental, CopyOnWriteKeepsLiveRebinds)
{
    // A rebind taken before an edit must keep analyzing the *old*
    // structure after the engine patches its own snapshot.
    signal_graph g;
    const event_id a = g.add_event("a");
    const event_id b = g.add_event("b");
    g.add_arc(a, b, rational(1));
    g.add_arc(b, a, rational(1), /*marked=*/true);
    g.finalize();

    incremental_engine eng(g);
    const compiled_graph before = eng.compiled().rebind({rational(3), rational(3)});
    EXPECT_EQ(analyze_cycle_time(before).cycle_time, rational(6));

    // Heavier marked parallel arc: new critical cycle 10 + 1 over 2 tokens.
    eng.add_arc(a, b, rational(10), /*marked=*/true);
    EXPECT_EQ(eng.analyze().cycle_time, rational(11, 2));

    // The pre-edit rebind still sees two arcs and the old structure.
    EXPECT_EQ(before.structure().arc_count(), 2u);
    EXPECT_EQ(analyze_cycle_time(before).cycle_time, rational(6));
    EXPECT_EQ(eng.compiled().structure_version(), 1u);
    EXPECT_EQ(before.structure_version(), 0u);
}

TEST(Incremental, LaneWorkspaceRepacksAfterInPlaceStructuralEdit)
{
    // A lane workspace held across an in-place structural batch: the
    // engine patches the compiled core without moving it, so the packed
    // sweep structure must be invalidated by structure_version(), not by
    // object identity alone.
    signal_graph g;
    const event_id a = g.add_event("a");
    const event_id b = g.add_event("b");
    const event_id c = g.add_event("c");
    g.add_arc(a, b, rational(1));
    g.add_arc(b, c, rational(2));
    g.add_arc(c, a, rational(4), /*marked=*/true);
    g.finalize();

    incremental_engine eng(g);
    lane_domain dom;
    lane_workspace ws;
    std::vector<lane_cycle_time> out(2);

    const auto sweep = [&] {
        const auto periods =
            static_cast<std::uint32_t>(eng.graph().border_events().size());
        const std::vector<rational>& delay = eng.compiled().delay();
        const std::vector<const std::vector<rational>*> lanes(2, &delay);
        dom.rebind_lanes(eng.compiled(), lanes, periods);
        analyze_cycle_time_lanes(eng.compiled(), dom, periods, ws, out);
    };

    sweep();
    EXPECT_EQ(out[0].cycle_time, rational(7));
    EXPECT_EQ(out[1].cycle_time, rational(7));

    // Same core object, new structure: a marked back-arc adds the cycle
    // a -> b -> a with delay 11 over 1 token.
    eng.add_arc(b, a, rational(10), /*marked=*/true);
    sweep();
    EXPECT_EQ(out[0].cycle_time, rational(11));
    EXPECT_EQ(out[1].cycle_time, rational(11));
}

} // namespace
} // namespace tsg
