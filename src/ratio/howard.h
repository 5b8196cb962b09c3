// Howard's policy iteration for the maximum cycle ratio.
//
// Each node selects one out-arc (a "policy"); the policy graph is
// functional, so every node leads into exactly one policy cycle.  Value
// determination computes, per node, the ratio of its policy cycle and a
// potential; policy improvement first switches to arcs reaching
// higher-ratio cycles, then (at equal ratio) to arcs with better potential.
// On strongly connected inputs the fixed point is the maximum cycle ratio,
// reached after remarkably few iterations in practice — the algorithm
// family the paper's related work [8] competes with.
//
// Arithmetic domains.  When the problem carries the compiled fixed-point
// delay domain (ratio_problem::scale != 0), the whole iteration runs on
// integers: cycle ratios are reduced int64 fractions over the scaled
// delays, compared by int128 cross multiplication, and potentials are
// int128 values pre-multiplied by the ratio denominator, so a policy sweep
// is integer adds and compares — no rational normalization.  Scaling by
// positive constants preserves every comparison, so the iteration takes
// the *same* decisions as the rational computation and returns the same
// ratio and witness cycle bit for bit.  Hand-built problems (scale == 0)
// and problems whose scaled-delay mass exceeds the overflow budget run the
// rational fallback transparently.
//
// Warm starts.  A howard_state carries the converged policy out of one
// solve and into the next.  When only the delays changed (the scenario
// engine's rebind batches, the optimizer's candidates — both through
// howard_chain in core/scenario.h), the previous policy is usually optimal
// or near-optimal and the iteration converges in one or two sweeps; the
// resulting ratio is bit-identical to a cold start (policy iteration is
// start-independent at the fixed point — asserted in debug builds by the
// chain).  A policy whose cycles all share one ratio skips the
// ratio-improvement sweep, which could not change it.
//
// Requires a strongly connected, live problem; solve arbitrary graphs
// through max_cycle_ratio_condensed (ratio/condensation.h), which fans
// Howard over the strongly connected components.
#ifndef TSG_RATIO_HOWARD_H
#define TSG_RATIO_HOWARD_H

#include "ratio/ratio_problem.h"

namespace tsg {

struct howard_options {
    /// Policy-improvement round budget; 0 means the automatic cap
    /// (generous: policy iteration converges in far fewer rounds).
    /// Exceeding an explicit cap throws tsg::error; exceeding the
    /// automatic cap is a library bug and throws tsg::internal_error.
    std::size_t max_iterations = 0;
};

/// Warm-start carrier: the converged policy (one out-arc per node) of a
/// previous solve on the *same graph structure*.  A state that does not
/// match the problem (size or arc endpoints) is ignored and overwritten.
struct howard_state {
    std::vector<arc_id> policy;
};

/// Exact maximum cycle ratio with a witness cycle.  Requires a strongly
/// connected, live problem (every cycle carries a token); use
/// max_cycle_ratio_condensed for graphs that are not strongly connected.
/// With a warm-start `state` the converged policy is written back into it
/// on success.
[[nodiscard]] ratio_result max_cycle_ratio_howard(const ratio_problem& p,
                                                  const howard_options& options = {},
                                                  howard_state* state = nullptr);

/// Convenience: the cycle time of a Signal Graph via Howard's iteration.
[[nodiscard]] rational cycle_time_howard(const signal_graph& sg);

} // namespace tsg

#endif // TSG_RATIO_HOWARD_H
