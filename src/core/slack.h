// Slack and criticality analysis on top of the cycle time.
//
// Once lambda is known, give every arc the *reduced weight*
//
//     w(a) = delay(a) - lambda * tokens(a)
//
// No cycle has positive reduced weight (lambda is the maximum ratio), so
// longest-path potentials v exist on the repetitive core.  The reduced
// slack of an arc,
//
//     slack(a) = v(head) - v(tail) - w(a)  >=  0,
//
// measures how much extra delay the arc absorbs before it joins a critical
// cycle: arcs with slack 0 span the *critical subgraph*, and the events on
// its non-trivial strongly connected components are exactly the events on
// critical cycles.  The potentials double as a *steady periodic schedule*:
// starting event e at time v(e) + k*lambda in period k satisfies every
// causality constraint with period lambda — the fastest static schedule.
//
// This is the natural "static timing analysis" companion the paper's
// Section VIII motivates: critical cycles name the bottleneck, slacks name
// the budget everywhere else.
#ifndef TSG_CORE_SLACK_H
#define TSG_CORE_SLACK_H

#include <functional>
#include <span>
#include <vector>

#include "sg/signal_graph.h"
#include "util/rational.h"

namespace tsg {

struct slack_result {
    rational cycle_time;

    /// Per original arc: reduced slack (valid where in_core[a]).  Arcs
    /// outside the repetitive core (start-up arcs) have no steady-state
    /// slack and are flagged out-of-core.
    std::vector<rational> slack;
    std::vector<bool> in_core;

    /// Per original arc / event: lies on some critical cycle.
    std::vector<bool> arc_critical;
    std::vector<bool> event_critical;

    /// Steady schedule potentials per event (valid for repetitive events):
    /// occurrence k of event e may start at potential[e] + k * cycle_time.
    std::vector<rational> potential;

    /// Smallest positive slack — how much the most loaded non-critical arc
    /// can absorb before a new cycle becomes critical (0 when every core
    /// arc is critical).
    rational criticality_margin;
};

class compiled_graph;

/// Computes slacks, the critical subgraph and the steady schedule.
/// Requires a finalized graph with a repetitive core.
[[nodiscard]] slack_result analyze_slack(const signal_graph& sg);

/// Same analysis on a pre-compiled snapshot: reuses the compiled core and
/// runs the reduced-weight Bellman-Ford in the fixed-point domain when the
/// scaled weights fit the overflow budget.
[[nodiscard]] slack_result analyze_slack(const compiled_graph& cg);

/// Slack analysis with a cycle time the caller already knows (e.g. from an
/// analyze_cycle_time run on the same snapshot) — skips the embedded
/// cycle-time computation.  `cycle_time` must be the exact cycle time of
/// the snapshot's delay assignment; a smaller value leaves positive
/// reduced cycles and throws, a larger one silently inflates every slack.
[[nodiscard]] slack_result analyze_slack(const compiled_graph& cg, const rational& cycle_time);

// --- lane-batched analysis (core/lane_domain.h) ------------------------------

class lane_domain;
struct lane_workspace;

/// Slack analysis of every lane in one structure-of-arrays Bellman-Ford:
/// the reduced-weight relaxations update all lanes of an arc per pass, and
/// passes continue until every lane converges (extra passes on an
/// already-converged lane relax nothing, so results match the scalar
/// early-exit bit for bit).  Per-lane overflow checks on the reduced
/// weights fall back to the exact rational Bellman-Ford for that lane
/// alone, using `lane_delay(l)` — lane l's full-arc rational delays, asked
/// for only by such a lane.  Lanes `dom` evicted are skipped.
///
/// `cycle_time[l]` must be lane l's exact cycle time.  out[l] receives the
/// same slack_result analyze_slack would produce for lane l's scalar
/// rebind.
void analyze_slack_lanes(
    const compiled_graph& cg, const lane_domain& dom,
    const std::function<const std::vector<rational>&(unsigned)>& lane_delay,
    std::span<const rational> cycle_time, lane_workspace& ws, std::span<slack_result> out);

} // namespace tsg

#endif // TSG_CORE_SLACK_H
