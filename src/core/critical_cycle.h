// Critical-cycle peeling — the backtracking tail of the border sweep,
// shared by the scalar analysis and the lane kernels the scenario engine
// batches through (both in core/cycle_time.cpp).
//
// The unfolded critical walk (origin_0 ~> origin_i*) is a closed walk whose
// delay/token ratio equals lambda.  It decomposes into simple cycles; their
// ratios average to lambda and no cycle exceeds lambda (Prop. 5), so one of
// them attains it — peel_critical_cycle scans the walk with a stack,
// testing each closed sub-cycle.
//
// Two exact ratio tests:
//   * rational — delay(C) / tokens(C) == lambda on exact rationals (the
//     scalar reference path);
//   * fixed-point — the same predicate cross-multiplied into int128 on the
//     scaled-int64 delays:  delay(C)/tokens == num/den  <=>
//     scaled(C) * den == num * scale * tokens  (scaled(C) = delay(C) *
//     scale exactly).  Bounds: scaled sub-cycle sums stay within the sweep
//     budget (INT64_MAX/4), den <= scale * periods < 2^52, so both products
//     fit int128 with room to spare.  Identical decisions, no rational
//     arithmetic in the loop — this is what keeps witness extraction off
//     the lane path's critical path.
#ifndef TSG_CORE_CRITICAL_CYCLE_H
#define TSG_CORE_CRITICAL_CYCLE_H

#include <cstdint>
#include <vector>

#include "core/compiled_graph.h"
#include "util/rational.h"

namespace tsg {
namespace detail {

/// Generic peel: `ratio_attained(arcs)` decides whether a candidate simple
/// sub-cycle (given as core arcs, causal order) attains lambda.
template <typename RatioFn>
std::vector<arc_id> peel_critical_walk(const compiled_graph::core_view& core,
                                       const std::vector<arc_id>& walk, RatioFn&& attained)
{
    const std::size_t n = core.graph.node_count();
    std::vector<int> stack_pos(n, -1);
    struct entry {
        arc_id arc; ///< arc leading *into* node
        node_id node;
    };
    std::vector<entry> stack;

    const node_id start = core.graph.from(walk.front());
    stack.push_back({invalid_arc, start});
    stack_pos[start] = 0;

    std::vector<arc_id> arcs;
    for (const arc_id a : walk) {
        const node_id v = core.graph.to(a);
        if (stack_pos[v] >= 0) {
            // Closed a simple sub-cycle: stack[stack_pos[v]+1 .. end] + a.
            arcs.clear();
            for (std::size_t k = static_cast<std::size_t>(stack_pos[v]) + 1;
                 k < stack.size(); ++k)
                arcs.push_back(stack[k].arc);
            arcs.push_back(a);
            if (attained(arcs)) return arcs;
            // Not critical: discard the sub-cycle and continue from v.
            while (stack.size() > static_cast<std::size_t>(stack_pos[v]) + 1) {
                stack_pos[stack.back().node] = -1;
                stack.pop_back();
            }
        } else {
            stack.push_back({a, v});
            stack_pos[v] = static_cast<int>(stack.size()) - 1;
        }
    }
    ensure(false, "peel_critical_cycle: no simple cycle attained the cycle time");
    return {};
}

} // namespace detail

/// Rational peel: `delay_of(core_arc)` yields the exact delay.
template <typename DelayFn>
std::vector<arc_id> peel_critical_cycle_rational(const compiled_graph::core_view& core,
                                                 const std::vector<arc_id>& walk,
                                                 const rational& lambda, DelayFn&& delay_of)
{
    return detail::peel_critical_walk(core, walk, [&](const std::vector<arc_id>& arcs) {
        rational delay(0);
        std::int64_t tokens = 0;
        for (const arc_id c : arcs) {
            delay += delay_of(c);
            tokens += core.token[c];
        }
        ensure(tokens > 0, "peel_critical_cycle: token-free cycle in live graph");
        return delay / rational(tokens) == lambda;
    });
}

/// Fixed-point peel: `scaled_of(core_arc)` yields delay * scale as an exact
/// int64.  Bit-identical decisions to the rational peel (see file header).
template <typename ScaledFn>
std::vector<arc_id> peel_critical_cycle_fixed(const compiled_graph::core_view& core,
                                              const std::vector<arc_id>& walk,
                                              const rational& lambda, std::int64_t scale,
                                              ScaledFn&& scaled_of)
{
    const int128 num = lambda.num();
    const int128 den = lambda.den();
    return detail::peel_critical_walk(core, walk, [&](const std::vector<arc_id>& arcs) {
        std::int64_t scaled = 0;
        std::int64_t tokens = 0;
        for (const arc_id c : arcs) {
            scaled += scaled_of(c);
            tokens += core.token[c];
        }
        ensure(tokens > 0, "peel_critical_cycle: token-free cycle in live graph");
        return static_cast<int128>(scaled) * den == num * scale * tokens;
    });
}

} // namespace tsg

#endif // TSG_CORE_CRITICAL_CYCLE_H
