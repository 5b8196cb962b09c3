// The paper's cycle-time algorithm (Sections VI-VII).
//
// Skeleton (Section VII):
//   1. identify the border events (repetitive events with a marked in-arc —
//      a cut set of all cycles in a live graph);
//   2. from each of the b border events run an event-initiated timing
//      simulation covering b periods of the unfolding;
//   3. after each full period collect the average occurrence distance
//      delta_{e0}(e_i) = t_{e0}(e_i) / i;
//   4. the maximum of the collected values is the cycle time lambda
//      (Propositions 6-7);
//   5. backtracking the longest-path predecessors of the maximising run
//      yields a critical cycle (Proposition 1).
//
// The simulations never leave the repetitive core (no repetitive event is
// preceded by a disengageable arc), so the implementation streams them
// period by period over the core instead of materializing the unfolding:
// one period costs O(m), one run O(b*m), the whole analysis O(b^2*m).
//
// The engine runs on a compiled_graph snapshot: CSR adjacency, a
// precomputed token-free topological order, and (when available) the
// fixed-point delay domain, so the inner relaxations are int64 additions.
// The b border runs are independent and execute on a thread pool sized by
// analysis_options::max_threads; the reduction to lambda is serial and the
// results are bit-identical to a single-threaded run.
#ifndef TSG_CORE_CYCLE_TIME_H
#define TSG_CORE_CYCLE_TIME_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/compiled_graph.h"
#include "sg/signal_graph.h"
#include "util/rational.h"

namespace tsg {

/// Per-border-event record of one event-initiated timing simulation.
struct border_run {
    event_id origin = invalid_node;

    /// delta_{e0}(e_i) for i = 1..periods (index 0 holds i = 1).  nullopt
    /// when instantiation e_i is not reached from e_0 (its cycles need more
    /// tokens than i).
    std::vector<std::optional<rational>> deltas;

    std::optional<rational> best_delta; ///< max over deltas
    std::uint32_t best_period = 0;      ///< arg-max i (0 when none)

    /// True when this border event lies on a critical cycle: its run reached
    /// the global cycle time (Propositions 7 and 8 make this criterion
    /// exact).
    bool critical = false;

    /// Full simulation table t_{e0}(f_i), present only when
    /// analysis_options::record_tables is set: times[i][f] is the occurrence
    /// time of instantiation f_i, nullopt when unreached.  Indexed by
    /// original event id.
    std::vector<std::vector<std::optional<rational>>> times;
};

/// Which engine computes lambda and the critical cycle.
enum class cycle_time_solver : std::uint8_t {
    /// Resolve at call time: an explicit TSG_SOLVER environment value
    /// ("border", "howard" or "auto") wins, otherwise a heuristic picks
    /// Howard for large cores / big border sets and the paper's border-run
    /// sweep everywhere else.
    auto_select,
    /// The paper's event-initiated border simulations (Sections VI-VII);
    /// the only solver that produces border_run data.
    border_sweep,
    /// Howard's policy iteration on the compiled ratio problem, through
    /// the SCC condensation driver (ratio/condensation.h).  Same exact
    /// lambda and a valid critical cycle, no per-run simulation data.
    howard,
};

/// Resolves auto_select as described above.  Exposed so batch layers (the
/// scenario engine) can resolve once per batch instead of per scenario.
[[nodiscard]] cycle_time_solver resolve_cycle_time_solver(cycle_time_solver requested,
                                                          std::size_t border_count,
                                                          std::size_t core_arc_count);

struct analysis_options {
    /// Number of unfolding periods per simulation; 0 means "use the size of
    /// the cut set", the paper's bound (Proposition 6).
    std::uint32_t periods = 0;

    /// Keep the full t_{e0}(f_i) tables on every run (costly on big graphs;
    /// used by the paper-table reproductions).
    bool record_tables = false;

    /// Simulation origins.  Empty means "the border set", the paper's
    /// choice.  Any other *cut set* works and shrinks the analysis when
    /// smaller — the paper leaves minimum cut sets as an optimization; see
    /// sg/cut_set.h.  Validated: must be repetitive events hitting every
    /// cycle.
    std::vector<event_id> origins;

    /// Thread budget for the independent border runs: 0 = one thread per
    /// hardware thread, 1 = serial, n = at most n threads.  Results are
    /// bit-identical for every setting.
    unsigned max_threads = 0;

    /// Lambda engine.  periods/origins/record_tables are simulation knobs:
    /// setting any of them forces the border sweep under auto_select and is
    /// an error combined with an explicit howard request.  Under the howard
    /// solver the result carries no border_run data (runs is empty,
    /// periods_used is 0); cycle time and critical cycle are exact either
    /// way.
    cycle_time_solver solver = cycle_time_solver::auto_select;
};

struct cycle_time_result {
    /// The cycle time lambda: maximum over simple cycles of
    /// length(C) / occurrence-period(C).
    rational cycle_time;

    /// One critical (simple) cycle: events in causal order, starting at a
    /// border event; critical_cycle_arcs[k] is the original arc from
    /// critical_cycle_events[k] to critical_cycle_events[k+1 mod size].
    std::vector<event_id> critical_cycle_events;
    std::vector<arc_id> critical_cycle_arcs;

    /// Occurrence period epsilon of the reported critical cycle (its token
    /// count); cycle_time * epsilon == total delay of the cycle.
    std::uint32_t critical_occurrence_period = 0;

    /// One record per border event, in border_events() order.  Empty when
    /// the howard solver produced the result (no simulation ran).
    std::vector<border_run> runs;

    std::size_t border_count = 0;   ///< b
    std::uint32_t periods_used = 0; ///< simulation horizon actually used
                                    ///< (0 under the howard solver)

    /// Border events whose runs achieved lambda (subset lying on critical
    /// cycles).
    [[nodiscard]] std::vector<event_id> critical_border_events() const;
};

/// Runs the full analysis.  Requirements (validated by finalize()): the
/// graph has a strongly connected live repetitive core.  Throws tsg::error
/// when the graph has no repetitive events (use analyze_pert instead).
[[nodiscard]] cycle_time_result analyze_cycle_time(const signal_graph& sg,
                                                   const analysis_options& options = {});

/// Same analysis on a pre-compiled snapshot — the form to use when several
/// analyses (cycle time, slack, transient, ...) share one graph: compile
/// once, analyze many times.
[[nodiscard]] cycle_time_result analyze_cycle_time(const compiled_graph& cg,
                                                   const analysis_options& options = {});

struct ratio_problem;

/// The result of a maximum-cycle-ratio solve on `p` (built from `sg`'s
/// snapshot): cycle time `ratio`, the witness `cycle` (problem arcs in
/// causal order) as events and original arcs with its occurrence period,
/// rotated to start at a border event.  No simulation data.  Shared by the
/// Howard path above and incremental_engine::analyze_warm.
[[nodiscard]] cycle_time_result ratio_cycle_time_result(const signal_graph& sg,
                                                        const ratio_problem& p,
                                                        const rational& ratio,
                                                        const std::vector<arc_id>& cycle);

// --- lane-batched analysis (core/lane_domain.h) ------------------------------

class lane_domain;
struct lane_workspace;

/// One lane's result in a lane-batched border-sweep analysis: the cycle
/// time and the witness cycle (original arc ids, causal order) — the
/// fields a scenario outcome needs.  No border_run data is kept.
struct lane_cycle_time {
    rational cycle_time;
    std::vector<arc_id> critical_cycle_arcs;
};

/// Border-sweep cycle-time analysis of every non-evicted lane in `dom`:
/// one pass over the CSR core per period updates all lanes of an arc
/// (structure-of-arrays inner loops, see core/lane_domain.h).  Values,
/// tie-breaks and the reported witness are bit-identical to running
/// analyze_cycle_time on each lane's scalar rebind with the border_sweep
/// solver (the witness peel runs in the lane's fixed-point domain with
/// identical decisions — core/critical_cycle.h).  `periods` must match
/// the horizon `dom` was rebound for.  Evicted lanes' output slots are
/// left untouched.
///
/// With `witness` off, only the cycle times are produced (no predecessor
/// capture, no backtrack/peel — critical_cycle_arcs stays empty); the
/// Monte-Carlo statistics mode of the scenario engine.
void analyze_cycle_time_lanes(const compiled_graph& cg, const lane_domain& dom,
                              std::uint32_t periods, lane_workspace& ws,
                              std::span<lane_cycle_time> out, bool witness = true);

/// The series t_{e0}(e_i) and delta_{e0}(e_i) for i = 1..periods from an
/// arbitrary repetitive event — the data behind Figure 4 and the
/// "asymptote from below" behaviour of off-critical events (Prop. 8).
struct distance_series {
    event_id origin = invalid_node;
    std::vector<std::optional<rational>> t;     ///< t_{e0}(e_i), i = 1..periods
    std::vector<std::optional<rational>> delta; ///< t / i
};
[[nodiscard]] distance_series initiated_distance_series(const signal_graph& sg,
                                                        event_id origin,
                                                        std::uint32_t periods);
[[nodiscard]] distance_series initiated_distance_series(const compiled_graph& cg,
                                                        event_id origin,
                                                        std::uint32_t periods);

/// Upper bound on the occurrence period of any simple cycle (Proposition 6):
/// the size of a cut set.  The border set is used, as in the paper's
/// implementation (finding a minimum cut set is a separate optimization).
[[nodiscard]] std::size_t occurrence_period_bound(const signal_graph& sg);

} // namespace tsg

#endif // TSG_CORE_CYCLE_TIME_H
