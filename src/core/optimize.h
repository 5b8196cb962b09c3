// Criticality-driven optimization and top-K critical-cycle reporting.
//
// The cycle time is the maximum cycle ratio, so speeding a design up means
// spending a finite delay-reduction budget on the arcs that limit it.  The
// old surface here (plan_speedup / speedup_plan) was a deterministic greedy
// pass over a single delay assignment; this one closes the loop with the
// statistical engine, in the spirit of the post-silicon-tuning literature
// (Li & Schlichtmann: allocate tuning range by criticality to maximize
// timing yield):
//
//   * run_optimize, deterministic mode — allocates the budget in quanta of
//     `step` across the repetitive core's arcs to *minimize* the nominal
//     cycle time: an exact branch-and-bound search over quantized
//     allocations (optimistic floored-suffix bounds, lexicographically
//     smallest optimum), validated against exhaustive search in tests.
//     When the evaluation cap trips first, a critical-arc greedy descent
//     finishes the job and the result is flagged exact = false.  Every
//     lambda-only evaluation of the search — bounds, leaves, the greedy's
//     per-arc candidates and its final lambda — runs on one warm Howard
//     chain (core/scenario.h): each candidate re-binds the chain and
//     resumes policy iteration from the previous candidate's policy
//     instead of paying a cold solve.  The search reads only lambda, which
//     is exact and equal from every solver, so the plan never depends on
//     the solver or the thread count.
//   * run_optimize, statistical mode — maximizes the timing yield
//     P(lambda <= target) under the Monte Carlo delay model: per-arc
//     criticality probabilities (core/stats with-witness path) rank the
//     candidates, monte_carlo_adaptive evaluates each candidate step to a
//     target yield-CI width (common random numbers: same seed, same grid),
//     and a step is accepted only while it is not clearly worse than the
//     incumbent beyond the joint CIs.  Committed state lives in an
//     incremental_engine, so the nominal-lambda trajectory rides warm
//     Howard re-analyses of delay-only batches, never a recompile.
//   * report_topk, deterministic mode — ranked enumeration of the K most
//     critical cycles by exact ratio (Lawler-style partitioning: peel the
//     winner, re-solve subproblems excluding each witness arc), ties
//     broken by the canonical rotation's lexicographic arc order, so the
//     report is bit-identical for every thread count.
//   * report_topk, statistical mode — the K cycles most often reported as
//     the critical witness across a seeded Monte Carlo batch, ordered by
//     criticality probability (ties: earliest first appearance) with
//     binomial CIs, each enriched with its exact nominal ratio and slack.
//
// Results carry an edit_batch (core/graph_edit.h) of the chosen delay
// reductions instead of a rebuilt signal_graph: callers apply it through
// an incremental_engine (or commit it as a new design version through the
// service), which keeps plan application O(edits), not O(graph).
//
// Deadlines.  A deterministic optimize checks optimize_options::stats
// .deadline before each evaluation, deterministic report_topk checks
// topk_options::deadline before each subproblem solve, and the
// statistical modes inherit the per-round check of core/stats' round
// loop (monte_carlo_rounds).  Once the deadline has passed they throw
// "deadline_exceeded: deadline passed after N evaluations" (or solves, or
// samples); a run without a deadline reads no clock, and a run that
// finishes returns exactly what it would without one.
//
// Validation errors use the request API's taxonomy (core/api.h):
// "invalid_request: ..." for nonsensical parameters (non-positive budget,
// K = 0, missing statistical target), "unsupported: ..." for statistical
// mode without a delay model.  Tool, daemon and library callers therefore
// fail identically.
#ifndef TSG_CORE_OPTIMIZE_H
#define TSG_CORE_OPTIMIZE_H

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/graph_edit.h"
#include "core/scenario.h"
#include "core/stats.h"
#include "sg/signal_graph.h"
#include "util/rational.h"

namespace tsg {

enum class optimize_mode : std::uint8_t {
    deterministic, ///< exact nominal delays, exact search
    statistical,   ///< Monte Carlo yield under the delay model
};

struct optimize_options {
    optimize_mode mode = optimize_mode::deterministic;

    /// Total delay reduction to distribute (must be > 0).
    rational budget;

    /// Allocation quantum: the budget is spent in multiples of `step` per
    /// arc.  Non-positive picks budget / 8.
    rational step;

    /// Deterministic mode: informational target — the search minimizes the
    /// cycle time regardless and reports target_reached (the greedy
    /// fallback stops once it is reached).  Statistical mode: the yield
    /// threshold of P(lambda <= target); required to be > 0.
    rational target;

    /// No arc's delay may drop below this floor (physical limit).
    rational min_delay;

    /// Deterministic search evaluation cap: when the branch-and-bound
    /// exceeds it, the critical-arc greedy fallback finishes the
    /// allocation and the result reports exact = false.
    std::size_t max_evaluations = 4096;

    /// Engine knobs.  Deterministic mode: the solver computes the initial
    /// lambda and the greedy fallback's slack-based critical sets; the
    /// search's lambda-only evaluations always run the warm Howard chain,
    /// and the plan never depends on either knob.  Statistical mode: the
    /// Monte Carlo batches' engine.
    cycle_time_solver solver = cycle_time_solver::auto_select;
    unsigned max_threads = 0;

    /// Statistical mode: sampling model (seed, spread, resolution,
    /// correlated sources).  Ranges are derived from the *current* delays
    /// each evaluation — explicit mc.ranges are rejected as unsupported —
    /// and mc.samples is ignored (the adaptive caps come from `stats`).
    monte_carlo_options mc;

    /// Statistical mode: adaptive-MC controls (epsilon = target yield-CI
    /// half-width, min/max samples, round size, deadline).
    /// yield_target / yield_objective are set internally from `target`.
    /// Deterministic mode reads only `deadline` (see "Deadlines" above).
    stats_options stats;
};

/// One per-arc slice of the spent budget (aggregated over quanta).
struct optimize_allocation {
    arc_id arc = invalid_arc;
    rational old_delay;
    rational new_delay;
    rational reduction; ///< old_delay - new_delay, a multiple of step
};

/// One committed statistical allocation quantum, in commit order.
struct optimize_step {
    arc_id arc = invalid_arc;
    rational reduction;           ///< the quantum
    rational cycle_time_after;    ///< nominal lambda after the commit (warm)
    double yield_after = 0.0;     ///< P(lambda <= target) after the commit
    double yield_ci_half_width = 0.0;
    std::size_t samples = 0;      ///< MC samples of the post-commit evaluation
};

struct optimize_result {
    optimize_mode mode = optimize_mode::deterministic;

    rational initial_cycle_time; ///< nominal lambda before any reduction
    rational final_cycle_time;   ///< nominal lambda with the plan applied
    bool target_reached = false; ///< final_cycle_time <= target (target > 0)

    /// Deterministic mode: the branch-and-bound ran to completion, so the
    /// allocation is the exact optimum (lexicographically smallest among
    /// equal optima).  False after the greedy fallback, and always in
    /// statistical mode.
    bool exact = false;

    rational budget_spent; ///< sum of reductions, <= budget

    /// Per-arc reductions, ascending arc id.
    std::vector<optimize_allocation> allocations;

    /// The same reductions as a set_delay edit batch — apply through an
    /// incremental_engine (delay-only: warm state survives), or commit as
    /// a new design version through the service.
    edit_batch edits;

    /// Statistical mode: commit trace, yields and sampling effort.
    std::vector<optimize_step> steps;
    double initial_yield = 0.0;
    double final_yield = 0.0;
    double initial_yield_ci_half_width = 0.0;
    double final_yield_ci_half_width = 0.0;

    std::size_t evaluations = 0; ///< nominal evals (det) / MC runs (stat)
    std::size_t samples = 0;     ///< total MC samples across all runs
    std::size_t candidates = 0;  ///< arcs that were allocation candidates
};

struct topk_options {
    optimize_mode mode = optimize_mode::deterministic;

    /// Cycles requested (must be >= 1).  Fewer are returned (and the
    /// result flagged truncated) when the graph has fewer cycles — or,
    /// statistically, fewer distinct witnesses.
    std::size_t k = 3;

    /// Statistical mode: fixed Monte Carlo sample count and model.
    std::size_t samples = 100;
    monte_carlo_options mc;

    /// Engine knobs.  Deterministic reports are bit-identical for every
    /// thread count; statistical witness identities additionally need a
    /// thread-layout-independent solver (border_sweep, or auto_select
    /// where it resolves to it) to be bit-identical, exactly as with the
    /// scenario engine's witness contract.
    cycle_time_solver solver = cycle_time_solver::auto_select;
    unsigned max_threads = 0;
    unsigned lane_width = 0;

    /// Deterministic mode: cap on Lawler-partition subproblem expansions
    /// (0 picks max(64, 32 * k)).  Hitting it flags the report truncated.
    std::size_t max_expansions = 0;

    /// Optional wall-clock deadline (the epoch default means none),
    /// checked before each deterministic subproblem solve and each
    /// statistical Monte Carlo round; once it has passed the report throws
    /// a deadline_exceeded tsg::error.  Reports that finish are unchanged.
    std::chrono::steady_clock::time_point deadline{};
};

/// One arc of a reported cycle with its share of the cycle's delay.
struct topk_arc_contribution {
    arc_id arc = invalid_arc;
    rational delay;     ///< nominal delay of the arc
    double share = 0.0; ///< delay / cycle delay (0 on zero-delay cycles)
};

struct topk_cycle {
    /// Canonical identity: original arc ids in causal order, rotated so
    /// the smallest arc id leads (the scenario engine's witness key).
    std::vector<arc_id> arcs;
    /// Source event of each arc, parallel to `arcs`.
    std::vector<event_id> events;

    rational ratio;         ///< exact nominal delay(C) / tokens(C)
    rational delay;         ///< exact nominal delay(C)
    std::uint32_t tokens = 0;
    rational slack;         ///< lambda * tokens(C) - delay(C), >= 0

    std::vector<topk_arc_contribution> contributions; ///< parallel to arcs

    /// Statistical mode: witness tally across the batch.
    std::size_t count = 0;       ///< samples reporting this cycle
    std::size_t first_index = 0; ///< first such sample
    double probability = 0.0;    ///< count / samples
    double ci_half_width = 0.0;  ///< binomial normal-approximation CI
};

struct topk_result {
    optimize_mode mode = optimize_mode::deterministic;

    rational cycle_time; ///< nominal lambda (== cycles[0].ratio, det mode)

    /// Ranked most-critical first: by exact ratio (deterministic; ties by
    /// canonical arc order) or by witness count (statistical; ties by
    /// first appearance).
    std::vector<topk_cycle> cycles;

    /// Fewer than k cycles exist / were distinguishable, or the
    /// deterministic expansion cap cut the enumeration short.
    bool truncated = false;

    std::size_t samples = 0; ///< statistical: Monte Carlo samples drawn
    std::size_t solves = 0;  ///< deterministic: subproblem ratio solves
};

/// Plans the budget allocation.  The engine overload reuses a compiled
/// snapshot + scenario engine whose base() was compiled from `sg` (the
/// service's per-version state); the plain overload compiles internally.
[[nodiscard]] optimize_result run_optimize(const signal_graph& sg,
                                           const optimize_options& options);
[[nodiscard]] optimize_result run_optimize(const signal_graph& sg,
                                           const scenario_engine& engine,
                                           const optimize_options& options);

/// Reports the K most critical cycles.  Overloads as with run_optimize.
[[nodiscard]] topk_result report_topk(const signal_graph& sg, const topk_options& options);
[[nodiscard]] topk_result report_topk(const signal_graph& sg, const compiled_graph& cg,
                                      const scenario_engine& engine,
                                      const topk_options& options);

} // namespace tsg

#endif // TSG_CORE_OPTIMIZE_H
