#include "core/cycle_time.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "core/critical_cycle.h"
#include "core/lane_domain.h"
#include "ratio/condensation.h"
#include "sg/cut_set.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace tsg {

namespace {

using core_view = compiled_graph::core_view;

// The per-period sweep is identical in both delay domains; only the value
// type and the conversion back to exact rationals differ.  Scaling by the
// positive LCM preserves order and exactness, so every argmax (and thus
// every predecessor chain and delta) matches the rational computation
// bit for bit.
struct rational_domain {
    using value_type = rational;
    const std::vector<rational>& delay;
    [[nodiscard]] rational to_rational(const rational& v) const { return v; }
};

struct fixed_domain {
    using value_type = std::int64_t;
    const std::vector<std::int64_t>& delay;
    std::int64_t scale;
    [[nodiscard]] rational to_rational(std::int64_t v) const { return {v, scale}; }
};

/// One event-initiated simulation streamed over `periods` periods.
template <typename Value>
struct sweep_result {
    /// t_{e0}(origin_i) for i = 0..periods; nullopt when unreached.
    std::vector<std::optional<Value>> origin_times;
    /// Captured matrices, flattened [period * n + node]; empty unless
    /// requested.  pred is the arg-max core arc into (period, node).
    std::vector<Value> time;
    std::vector<bool> reached;
    std::vector<arc_id> pred;
    bool captured = false;
};

template <typename Domain>
sweep_result<typename Domain::value_type> run_sweep(const core_view& core,
                                                    const Domain& domain, node_id origin,
                                                    std::uint32_t periods, bool capture)
{
    using Value = typename Domain::value_type;
    const std::size_t n = core.graph.node_count();
    sweep_result<Value> out;
    out.origin_times.assign(periods + 1, std::nullopt);
    out.captured = capture;
    if (capture) {
        out.time.assign((periods + 1) * n, Value{});
        out.reached.assign((periods + 1) * n, false);
        out.pred.assign((periods + 1) * n, invalid_arc);
    }

    // Rolling rows: the previous and current period.
    std::vector<Value> t_prev(n, Value{});
    std::vector<Value> t_cur(n, Value{});
    std::vector<bool> r_prev(n, false);
    std::vector<bool> r_cur(n, false);
    std::vector<arc_id> pred_row; // reused across periods

    for (std::uint32_t i = 0; i <= periods; ++i) {
        std::fill(r_cur.begin(), r_cur.end(), false);
        if (capture) pred_row.assign(n, invalid_arc);

        // Seed: the initiating instantiation occurs at time 0.
        if (i == 0) {
            t_cur[origin] = Value{};
            r_cur[origin] = true;
        }

        // Cross-period arcs (one token): sources live in period i-1.
        if (i > 0) {
            for (const arc_id a : core.token_arcs) {
                const node_id u = core.graph.from(a);
                if (!r_prev[u]) continue;
                const node_id v = core.graph.to(a);
                const Value candidate = t_prev[u] + domain.delay[a];
                if (!r_cur[v] || candidate > t_cur[v]) {
                    t_cur[v] = candidate;
                    r_cur[v] = true;
                    if (capture) pred_row[v] = a;
                }
            }
        }

        // In-period (token-free) arcs, relaxed in topological order via the
        // prefiltered flat adjacency (same arc order as out_arcs minus the
        // marked arcs — relaxation order and tie-breaks are unchanged).
        for (const node_id v : core.topo) {
            if (!r_cur[v]) continue;
            const std::uint32_t first = core.token_free_offset[v];
            const std::uint32_t last = core.token_free_offset[v + 1];
            for (std::uint32_t k = first; k < last; ++k) {
                const arc_id a = core.token_free_arcs[k];
                const node_id w = core.graph.to(a);
                const Value candidate = t_cur[v] + domain.delay[a];
                if (!r_cur[w] || candidate > t_cur[w]) {
                    t_cur[w] = candidate;
                    r_cur[w] = true;
                    if (capture) pred_row[w] = a;
                }
            }
        }

        if (r_cur[origin]) out.origin_times[i] = t_cur[origin];
        if (capture) {
            for (node_id v = 0; v < n; ++v) {
                out.time[i * n + v] = t_cur[v];
                out.reached[i * n + v] = r_cur[v];
                out.pred[i * n + v] = pred_row[v];
            }
        }
        std::swap(t_prev, t_cur);
        std::swap(r_prev, r_cur);
    }
    return out;
}

/// One full border run: the streamed simulation plus the collected deltas
/// (and the t_{e0}(f_i) tables when requested).  Independent of every other
/// run — this is the unit the thread pool executes.
template <typename Domain>
border_run simulate_origin(const core_view& core, const Domain& domain,
                           event_id origin_event, std::uint32_t periods, bool record_tables,
                           std::size_t event_count)
{
    const node_id origin = core.event_node[origin_event];
    ensure(origin != invalid_node, "analyze_cycle_time: border event outside the core");

    const auto sweep = run_sweep(core, domain, origin, periods, record_tables);

    border_run run;
    run.origin = origin_event;
    run.deltas.resize(periods);
    for (std::uint32_t i = 1; i <= periods; ++i) {
        if (!sweep.origin_times[i]) continue;
        const rational delta = domain.to_rational(*sweep.origin_times[i]) / rational(i);
        run.deltas[i - 1] = delta;
        if (!run.best_delta || delta > *run.best_delta) {
            run.best_delta = delta;
            run.best_period = i;
        }
    }
    if (record_tables) {
        const std::size_t n = core.graph.node_count();
        run.times.assign(periods + 1, std::vector<std::optional<rational>>(event_count));
        for (std::uint32_t i = 0; i <= periods; ++i)
            for (node_id v = 0; v < n; ++v)
                if (sweep.reached[i * n + v])
                    run.times[i][core.node_event[v]] =
                        domain.to_rational(sweep.time[i * n + v]);
    }
    return run;
}

/// Rotates the reported cycle to start at a border event (some event after
/// a marked arc must be on it; cosmetic, matches the paper's presentation).
void rotate_cycle_to_border(cycle_time_result& result, const std::vector<event_id>& border)
{
    for (std::size_t k = 0; k < result.critical_cycle_events.size(); ++k) {
        const event_id e = result.critical_cycle_events[k];
        if (std::find(border.begin(), border.end(), e) != border.end()) {
            std::rotate(result.critical_cycle_events.begin(),
                        result.critical_cycle_events.begin() + static_cast<std::ptrdiff_t>(k),
                        result.critical_cycle_events.end());
            std::rotate(result.critical_cycle_arcs.begin(),
                        result.critical_cycle_arcs.begin() + static_cast<std::ptrdiff_t>(k),
                        result.critical_cycle_arcs.end());
            break;
        }
    }
}

/// The policy-iteration path: lambda and a witness cycle from Howard via
/// the SCC condensation driver.
cycle_time_result analyze_with_howard(const compiled_graph& cg, const analysis_options& options)
{
    const ratio_problem p = make_ratio_problem(cg);
    condensation_options copts;
    copts.max_threads = options.max_threads;
    const condensed_ratio_result r = max_cycle_ratio_condensed(p, copts);
    return ratio_cycle_time_result(cg.source(), p, r.ratio, r.cycle);
}

template <typename Domain>
cycle_time_result analyze_with_domain(const compiled_graph& cg, const Domain& domain,
                                      const std::vector<event_id>& border,
                                      std::uint32_t periods, const analysis_options& options)
{
    const signal_graph& sg = cg.source();
    const core_view& core = cg.core();

    cycle_time_result result;
    result.border_count = border.size();
    result.periods_used = periods;

    // The b runs are independent event-initiated simulations; fan them out.
    // Workers fill disjoint slots, the lambda reduction below is serial in
    // run order, so the outcome matches a serial execution exactly.  With
    // the default thread budget, stay serial unless there is enough sweep
    // work to amortize thread spawn/join — paper-sized graphs analyze in
    // microseconds and would otherwise pay more for the pool than the run.
    unsigned threads = options.max_threads;
    if (threads == 0) {
        const std::size_t relaxations = static_cast<std::size_t>(periods + 1) *
                                        core.graph.arc_count() * border.size();
        if (relaxations < (1u << 16)) threads = 1;
    }
    result.runs.resize(border.size());
    parallel_for_index(border.size(), threads, [&](std::size_t k) {
        result.runs[k] = simulate_origin(core, domain, border[k], periods,
                                         options.record_tables, sg.event_count());
    });

    std::optional<rational> lambda;
    std::size_t best_run = 0;
    std::uint32_t best_period = 0;
    for (std::size_t k = 0; k < result.runs.size(); ++k) {
        const border_run& run = result.runs[k];
        if (run.best_delta && (!lambda || *run.best_delta > *lambda)) {
            lambda = run.best_delta;
            best_run = k;
            best_period = run.best_period;
        }
    }

    ensure(lambda.has_value(),
           "analyze_cycle_time: no border simulation closed a cycle within b periods");
    result.cycle_time = *lambda;
    for (border_run& run : result.runs)
        run.critical = run.best_delta && *run.best_delta == result.cycle_time;

    // Backtrack the maximising run to obtain the unfolded critical cycle.
    const event_id best_origin_event = result.runs[best_run].origin;
    const node_id origin = core.event_node[best_origin_event];
    const auto sweep = run_sweep(core, domain, origin, best_period, /*capture=*/true);

    const std::size_t n = core.graph.node_count();
    std::vector<arc_id> walk; // core arcs, collected backwards
    node_id v = origin;
    std::uint32_t period = best_period;
    while (!(v == origin && period == 0)) {
        const arc_id a = sweep.pred[period * n + v];
        ensure(a != invalid_arc, "analyze_cycle_time: broken predecessor chain");
        walk.push_back(a);
        period -= core.token[a];
        v = core.graph.from(a);
    }
    std::reverse(walk.begin(), walk.end());

    const std::vector<arc_id> critical_arcs = peel_critical_cycle_rational(
        core, walk, result.cycle_time, [&](arc_id c) -> const rational& { return core.delay[c]; });
    std::uint32_t epsilon = 0;
    for (const arc_id a : critical_arcs) {
        result.critical_cycle_events.push_back(core.node_event[core.graph.from(a)]);
        result.critical_cycle_arcs.push_back(core.arc_original[a]);
        epsilon += core.token[a];
    }
    result.critical_occurrence_period = epsilon;
    rotate_cycle_to_border(result, border);
    return result;
}

// --- lane-batched border sweep (core/lane_domain.h) --------------------------

/// Builds the structural half of the sweep-order packing (see
/// lane_workspace): the token-free relaxation sequence flattened in sweep
/// order — per topo position, that node's token-free out run — plus the
/// token arcs' endpoints.  Rebuilt only when the workspace meets a new
/// compiled core — keyed on (identity, structure version), because the
/// incremental edit layer patches cores in place: after a structural batch
/// the object address is unchanged and only the version tells the packs
/// apart.
void pack_sweep_structure(const core_view& core, std::uint64_t version, lane_workspace& ws)
{
    if (ws.pack_of == static_cast<const void*>(&core.topo) && ws.pack_version == version)
        return;
    ws.topo_pos.assign(core.graph.node_count(), 0);
    for (std::size_t p = 0; p < core.topo.size(); ++p)
        ws.topo_pos[core.topo[p]] = static_cast<std::uint32_t>(p);
    ws.sweep_src.clear();
    ws.sweep_head.clear();
    ws.sweep_arc.clear();
    ws.sweep_src.reserve(core.token_free_arcs.size());
    ws.sweep_head.reserve(core.token_free_arcs.size());
    ws.sweep_arc.reserve(core.token_free_arcs.size());
    for (const node_id v : core.topo)
        for (std::uint32_t k = core.token_free_offset[v]; k < core.token_free_offset[v + 1];
             ++k) {
            const arc_id a = core.token_free_arcs[k];
            ws.sweep_src.push_back(ws.topo_pos[v]);
            ws.sweep_head.push_back(ws.topo_pos[core.graph.to(a)]);
            ws.sweep_arc.push_back(a);
        }
    ws.tok_src.clear();
    ws.tok_head.clear();
    ws.tok_arc.clear();
    for (const arc_id a : core.token_arcs) {
        ws.tok_src.push_back(ws.topo_pos[core.graph.from(a)]);
        ws.tok_head.push_back(ws.topo_pos[core.graph.to(a)]);
        ws.tok_arc.push_back(a);
    }
    ws.pack_of = static_cast<const void*>(&core.topo);
    ws.pack_version = version;
}

/// Copies one lane group's SoA delays into sweep order (and token order) —
/// a sequential pass per group that turns every hot-loop delay/head access
/// into a streaming load.
template <unsigned W>
void pack_sweep_delays(const lane_domain& dom, lane_workspace& ws)
{
    const std::int64_t* TSG_RESTRICT delay = dom.delay();
    ws.sweep_delay.resize(ws.sweep_arc.size() * W);
    std::int64_t* TSG_RESTRICT sd = ws.sweep_delay.data();
    for (std::size_t s = 0; s < ws.sweep_arc.size(); ++s) {
        const std::int64_t* TSG_RESTRICT src = delay + std::size_t{ws.sweep_arc[s]} * W;
        TSG_PRAGMA_SIMD
        for (unsigned l = 0; l < W; ++l) sd[s * W + l] = src[l];
    }
    ws.tok_delay.resize(ws.tok_arc.size() * W);
    std::int64_t* TSG_RESTRICT td = ws.tok_delay.data();
    for (std::size_t s = 0; s < ws.tok_arc.size(); ++s) {
        const std::int64_t* TSG_RESTRICT src = delay + std::size_t{ws.tok_arc[s]} * W;
        TSG_PRAGMA_SIMD
        for (unsigned l = 0; l < W; ++l) td[s * W + l] = src[l];
    }
}

/// One event-initiated simulation over W lanes at once: the scalar
/// run_sweep with the value matrix in SoA form (t[v * W + lane]) and
/// "unreached" encoded as lane_domain::unreached instead of a flag.  The
/// relaxation order is identical to the scalar sweep (the packed sequence
/// *is* the scalar order), so per-lane values, tie-breaks and captured
/// predecessors match a scalar run bit for bit: sentinel ("garbage")
/// candidates are strictly negative, real times are >= 0, and a garbage
/// candidate can therefore never displace a real one (see the overflow
/// argument in lane_domain.h).
///
/// When Capture, pred[(i * n + v) * W + lane] records the arg-max core arc
/// into (period i, node v) — only entries on real (value >= 0) chains are
/// meaningful, and only those are ever backtracked.
template <unsigned W, bool Capture>
void lane_border_sweep(const core_view& core, const lane_workspace& ws, node_id origin,
                       std::uint32_t periods, std::int64_t* t_prev, std::int64_t* t_cur,
                       std::int64_t* TSG_RESTRICT origin_time, std::int64_t* pred)
{
    const std::size_t n = core.graph.node_count();
    const std::size_t tok_count = ws.tok_arc.size();
    const std::size_t sweep_count = ws.sweep_arc.size();
    const node_id* TSG_RESTRICT tok_src = ws.tok_src.data();
    const node_id* TSG_RESTRICT tok_head = ws.tok_head.data();
    const arc_id* TSG_RESTRICT tok_arc = ws.tok_arc.data();
    const std::int64_t* TSG_RESTRICT tok_delay = ws.tok_delay.data();
    const node_id* TSG_RESTRICT sweep_src = ws.sweep_src.data();
    const node_id* TSG_RESTRICT sweep_head = ws.sweep_head.data();
    const arc_id* TSG_RESTRICT sweep_arc = ws.sweep_arc.data();
    const std::int64_t* TSG_RESTRICT sweep_delay = ws.sweep_delay.data();

    for (std::uint32_t i = 0; i <= periods; ++i) {
        std::fill(t_cur, t_cur + n * W, lane_domain::unreached);
        std::int64_t* pred_row = nullptr;
        if constexpr (Capture) {
            pred_row = pred + std::size_t{i} * n * W;
            // No invalid_arc fill: every entry the backtrack reads lies on
            // a real (value >= 0) chain, whose last strict improvement
            // always stored a predecessor.  Stale entries under garbage
            // values are never dereferenced; the walk guard in Phase C
            // bounds the damage if that invariant ever broke.
#ifndef NDEBUG
            std::fill(pred_row, pred_row + n * W, std::int64_t{invalid_arc});
#endif
        }

        // Seed: the initiating instantiation occurs at time 0.
        if (i == 0) {
            std::int64_t* slot = t_cur + std::size_t{origin} * W;
            for (unsigned l = 0; l < W; ++l) slot[l] = 0;
        } else {
            // Cross-period arcs (one token): sources live in period i-1.
            for (std::size_t s = 0; s < tok_count; ++s) {
                const std::int64_t* TSG_RESTRICT src = t_prev + std::size_t{tok_src[s]} * W;
                const std::int64_t* TSG_RESTRICT d = tok_delay + s * W;
                std::int64_t* dst = t_cur + std::size_t{tok_head[s]} * W;
                if constexpr (Capture) {
                    const auto a = static_cast<std::int64_t>(tok_arc[s]);
                    std::int64_t* pr = pred_row + std::size_t{tok_head[s]} * W;
                    TSG_PRAGMA_SIMD
                    for (unsigned l = 0; l < W; ++l) {
                        const std::int64_t cand = src[l] + d[l];
                        const bool better = cand > dst[l];
                        dst[l] = better ? cand : dst[l];
                        pr[l] = better ? a : pr[l];
                    }
                } else {
                    TSG_PRAGMA_SIMD
                    for (unsigned l = 0; l < W; ++l) {
                        const std::int64_t cand = src[l] + d[l];
                        dst[l] = cand > dst[l] ? cand : dst[l];
                    }
                }
            }
        }

        // In-period (token-free) arcs as one flat stream in the packed
        // sweep order — the exact scalar relaxation order with the node
        // loop compiled away: sources earlier in topo order are final
        // before any arc reads them, exactly as in the scalar sweep.
        // (Unlike the scalar sweep there is no unreached-source skip:
        // relaxing from a sentinel source writes only negative "garbage"
        // values, which no real value comparison or backtrack observes.)
        for (std::size_t s = 0; s < sweep_count; ++s) {
            const std::int64_t* src = t_cur + std::size_t{sweep_src[s]} * W;
            const std::int64_t* TSG_RESTRICT d = sweep_delay + s * W;
            std::int64_t* dst = t_cur + std::size_t{sweep_head[s]} * W;
            if constexpr (Capture) {
                const auto a = static_cast<std::int64_t>(sweep_arc[s]);
                std::int64_t* pr = pred_row + std::size_t{sweep_head[s]} * W;
                TSG_PRAGMA_SIMD
                for (unsigned l = 0; l < W; ++l) {
                    const std::int64_t cand = src[l] + d[l];
                    const bool better = cand > dst[l];
                    dst[l] = better ? cand : dst[l];
                    pr[l] = better ? a : pr[l];
                }
            } else {
                TSG_PRAGMA_SIMD
                for (unsigned l = 0; l < W; ++l) {
                    const std::int64_t cand = src[l] + d[l];
                    dst[l] = cand > dst[l] ? cand : dst[l];
                }
            }
        }

        const std::int64_t* slot = t_cur + std::size_t{origin} * W;
        std::int64_t* rec = origin_time + std::size_t{i} * W;
        for (unsigned l = 0; l < W; ++l) rec[l] = slot[l];
        std::swap(t_prev, t_cur);
    }
}

template <unsigned W>
void analyze_cycle_time_lanes_impl(const compiled_graph& cg, const lane_domain& dom,
                                   std::uint32_t periods, lane_workspace& ws,
                                   std::span<lane_cycle_time> out, bool witness)
{
    const core_view core = cg.core();
    const std::vector<event_id>& border = cg.source().border_events();
    const std::size_t n = core.graph.node_count();
    const std::size_t b = border.size();
    const std::size_t rows = std::size_t{periods} + 1;

    ws.t_prev.resize(n * W);
    ws.t_cur.resize(n * W);
    ws.origin_time.resize(b * rows * W);
    if (witness) ws.pred.resize(b * rows * n * W);
    pack_sweep_structure(core, cg.structure_version(), ws);
    pack_sweep_delays<W>(dom, ws);

    // Phase A: one sweep per border origin, all lanes at once; when a
    // witness is wanted, predecessors are captured inline — extraction
    // later is pure backtracking, no re-sweep (the blend stores vectorize;
    // re-running the winning origins with capture costs far more than
    // capturing everything once).
    for (std::size_t k = 0; k < b; ++k) {
        const node_id origin = core.event_node[border[k]];
        ensure(origin != invalid_node, "analyze_cycle_time: border event outside the core");
        if (witness)
            lane_border_sweep<W, true>(core, ws, ws.topo_pos[origin], periods,
                                       ws.t_prev.data(), ws.t_cur.data(),
                                       ws.origin_time.data() + k * rows * W,
                                       ws.pred.data() + k * rows * n * W);
        else
            lane_border_sweep<W, false>(core, ws, ws.topo_pos[origin], periods,
                                        ws.t_prev.data(), ws.t_cur.data(),
                                        ws.origin_time.data() + k * rows * W, nullptr);
    }

    // Phase B: per-lane lambda.  Scanning (run, period) lexicographically
    // with a strict comparison reproduces the scalar reduction exactly:
    // first run attaining the maximum wins, and within it the first period
    // attaining that run's best delta.
    struct lane_pick {
        bool any = false;
        std::size_t run = 0;
        std::uint32_t period = 0;
        rational lambda;
    };
    std::array<lane_pick, W> pick;
    for (unsigned l = 0; l < W; ++l) {
        if (dom.evicted(l)) continue;
        lane_pick& p = pick[l];
        // Arg-max in the integer domain: within one lane the scale cancels,
        // so delta(k1,i1) > delta(k2,i2) <=> v1 * i2 > v2 * i1 (int128,
        // positive denominators) — the exact rational comparison without
        // constructing rationals.  One rational materializes at the end.
        std::int64_t best_v = 0;
        for (std::size_t k = 0; k < b; ++k) {
            const std::int64_t* times = ws.origin_time.data() + k * rows * W;
            for (std::uint32_t i = 1; i <= periods; ++i) {
                const std::int64_t v = times[std::size_t{i} * W + l];
                if (v < 0) continue; // unreached
                if (!p.any || static_cast<int128>(v) * p.period >
                                  static_cast<int128>(best_v) * i) {
                    p.any = true;
                    p.run = k;
                    p.period = i;
                    best_v = v;
                }
            }
        }
        ensure(p.any,
               "analyze_cycle_time: no border simulation closed a cycle within b periods");
        p.lambda = dom.unscale(l, best_v) / rational(p.period);
        out[l].cycle_time = p.lambda;
    }

    // Phase C: witness extraction per lane — backtrack the captured
    // predecessor chain of the lane's winning run, then peel.
    if (!witness) {
        for (unsigned l = 0; l < W; ++l)
            if (!dom.evicted(l)) out[l].critical_cycle_arcs.clear();
        return;
    }
    for (unsigned l = 0; l < W; ++l) {
        if (dom.evicted(l)) continue;
        const node_id origin = core.event_node[border[pick[l].run]];
        const std::int64_t* pred = ws.pred.data() + pick[l].run * rows * n * W;
        ws.walk.clear();
        node_id v = origin;
        std::uint32_t period = pick[l].period;
        const std::size_t walk_limit = rows * n; // each (period, node) at most once
        while (!(v == origin && period == 0)) {
            const auto a = static_cast<arc_id>(
                pred[(std::size_t{period} * n + ws.topo_pos[v]) * W + l]);
            ensure(a != invalid_arc && a < core.graph.arc_count() &&
                       (core.token[a] == 0 || period > 0) && ws.walk.size() < walk_limit,
                   "analyze_cycle_time: broken predecessor chain");
            ws.walk.push_back(a);
            period -= core.token[a];
            v = core.graph.from(a);
        }
        std::reverse(ws.walk.begin(), ws.walk.end());

        // Witness peel in the lane's fixed-point domain: identical
        // decisions to the scalar rational peel, no rational arithmetic
        // on the walk (core/critical_cycle.h).
        const std::int64_t* soa = dom.delay();
        const std::vector<arc_id> critical = peel_critical_cycle_fixed(
            core, ws.walk, pick[l].lambda, dom.scale(l),
            [&](arc_id c) { return soa[std::size_t{c} * W + l]; });
        out[l].critical_cycle_arcs.clear();
        out[l].critical_cycle_arcs.reserve(critical.size());
        for (const arc_id a : critical)
            out[l].critical_cycle_arcs.push_back(core.arc_original[a]);
    }
}

} // namespace

cycle_time_result ratio_cycle_time_result(const signal_graph& sg, const ratio_problem& p,
                                          const rational& ratio,
                                          const std::vector<arc_id>& cycle)
{
    cycle_time_result result;
    result.border_count = sg.border_events().size();
    result.periods_used = 0;
    result.cycle_time = ratio;
    std::uint32_t epsilon = 0;
    for (const arc_id a : cycle) {
        result.critical_cycle_events.push_back(p.node_event[p.graph.from(a)]);
        result.critical_cycle_arcs.push_back(p.arc_original[a]);
        epsilon += static_cast<std::uint32_t>(p.transit[a]);
    }
    result.critical_occurrence_period = epsilon;
    rotate_cycle_to_border(result, sg.border_events());
    return result;
}

void analyze_cycle_time_lanes(const compiled_graph& cg, const lane_domain& dom,
                              std::uint32_t periods, lane_workspace& ws,
                              std::span<lane_cycle_time> out, bool witness)
{
    require(dom.width() == out.size(), "analyze_cycle_time_lanes: lane count mismatch");
    switch (dom.width()) {
    case 2: return analyze_cycle_time_lanes_impl<2>(cg, dom, periods, ws, out, witness);
    case 4: return analyze_cycle_time_lanes_impl<4>(cg, dom, periods, ws, out, witness);
    case 8: return analyze_cycle_time_lanes_impl<8>(cg, dom, periods, ws, out, witness);
    case 16: return analyze_cycle_time_lanes_impl<16>(cg, dom, periods, ws, out, witness);
    default:
        throw error("analyze_cycle_time_lanes: unsupported lane width " +
                    std::to_string(dom.width()) + " (use 2, 4, 8 or 16)");
    }
}

std::vector<event_id> cycle_time_result::critical_border_events() const
{
    std::vector<event_id> out;
    for (const border_run& run : runs)
        if (run.critical) out.push_back(run.origin);
    return out;
}

std::size_t occurrence_period_bound(const signal_graph& sg)
{
    return sg.border_events().size();
}

cycle_time_solver resolve_cycle_time_solver(cycle_time_solver requested,
                                            std::size_t border_count,
                                            std::size_t core_arc_count)
{
    if (requested != cycle_time_solver::auto_select) return requested;
    if (const char* env = std::getenv("TSG_SOLVER")) {
        const std::string value(env);
        if (value == "howard") return cycle_time_solver::howard;
        if (value == "border" || value == "sweep" || value == "border_sweep")
            return cycle_time_solver::border_sweep;
        require(value.empty() || value == "auto",
                "TSG_SOLVER: unknown solver '" + value + "' (use auto, border or howard)");
    }
    // The border sweep costs O(b^2 m); Howard converges in a few O(m)
    // policy sweeps.  The automatic cutover is deliberately conservative —
    // only cores large enough that the sweep's quadratic border factor
    // clearly dominates switch by themselves, so paper-sized models keep
    // reproducing the paper's algorithm unless a caller (or TSG_SOLVER)
    // asks for policy iteration.
    const std::size_t border_work = border_count * border_count * core_arc_count;
    return core_arc_count >= (1u << 15) && border_work >= (std::size_t{1} << 22)
               ? cycle_time_solver::howard
               : cycle_time_solver::border_sweep;
}

cycle_time_result analyze_cycle_time(const compiled_graph& cg, const analysis_options& options)
{
    const signal_graph& sg = cg.source();
    require(!sg.repetitive_events().empty(),
            "analyze_cycle_time: graph has no repetitive events (acyclic — use analyze_pert)");

    const core_view& core = cg.core();

    // periods/origins/record_tables are simulation knobs: honoring any of
    // them requires the border sweep, so they pin the solver (and clash
    // with an explicit howard request).
    const bool simulation_requested =
        options.periods > 0 || options.record_tables || !options.origins.empty();
    require(!(simulation_requested && options.solver == cycle_time_solver::howard),
            "analyze_cycle_time: periods/origins/record_tables are border-sweep "
            "simulation options — drop them or request the border_sweep solver");
    const cycle_time_solver solver =
        simulation_requested
            ? cycle_time_solver::border_sweep
            : resolve_cycle_time_solver(options.solver, sg.border_events().size(),
                                        core.graph.arc_count());
    ensure(!sg.border_events().empty(), "analyze_cycle_time: live graph with empty border set");
    if (solver == cycle_time_solver::howard) return analyze_with_howard(cg, options);

    const std::vector<event_id>& border =
        options.origins.empty() ? sg.border_events() : options.origins;
    if (!options.origins.empty()) {
        for (const event_id e : options.origins)
            require(e < sg.event_count() && sg.is_repetitive(e),
                    "analyze_cycle_time: custom origins must be repetitive events");
        require(is_cut_set(sg, options.origins),
                "analyze_cycle_time: custom origins do not form a cut set — "
                "some cycle would never be simulated");
    }

    // Horizon: the occurrence period of any simple cycle is bounded by the
    // *border* size (each of its tokens targets a distinct border event),
    // so b periods always suffice — even when simulating from a smaller
    // custom cut set.  (Proposition 6's tighter min-cut bound additionally
    // needs safety; callers may force it through options.periods.)
    const auto b = static_cast<std::uint32_t>(sg.border_events().size());
    const std::uint32_t periods = options.periods > 0 ? options.periods : b;

    if (cg.fixed_point_for_periods(periods))
        return analyze_with_domain(cg, fixed_domain{core.scaled_delay, cg.scale()}, border,
                                   periods, options);
    return analyze_with_domain(cg, rational_domain{core.delay}, border, periods, options);
}

cycle_time_result analyze_cycle_time(const signal_graph& sg, const analysis_options& options)
{
    require(sg.finalized(), "analyze_cycle_time: graph must be finalized");
    require(!sg.repetitive_events().empty(),
            "analyze_cycle_time: graph has no repetitive events (acyclic — use analyze_pert)");
    const compiled_graph cg(sg);
    return analyze_cycle_time(cg, options);
}

distance_series initiated_distance_series(const compiled_graph& cg, event_id origin,
                                          std::uint32_t periods)
{
    const signal_graph& sg = cg.source();
    require(origin < sg.event_count(), "initiated_distance_series: bad event");
    require(sg.is_repetitive(origin),
            "initiated_distance_series: origin must be a repetitive event");

    const core_view& core = cg.core();
    const node_id origin_node = core.event_node[origin];

    distance_series series;
    series.origin = origin;
    series.t.resize(periods);
    series.delta.resize(periods);

    const auto collect = [&](const auto& domain) {
        const auto sweep = run_sweep(core, domain, origin_node, periods, /*capture=*/false);
        for (std::uint32_t i = 1; i <= periods; ++i) {
            if (!sweep.origin_times[i]) continue;
            series.t[i - 1] = domain.to_rational(*sweep.origin_times[i]);
            series.delta[i - 1] = *series.t[i - 1] / rational(i);
        }
    };
    if (cg.fixed_point_for_periods(periods))
        collect(fixed_domain{core.scaled_delay, cg.scale()});
    else
        collect(rational_domain{core.delay});
    return series;
}

distance_series initiated_distance_series(const signal_graph& sg, event_id origin,
                                          std::uint32_t periods)
{
    require(sg.finalized(), "initiated_distance_series: graph must be finalized");
    const compiled_graph cg(sg);
    return initiated_distance_series(cg, origin, periods);
}

} // namespace tsg
