#include "core/slack.h"

#include <algorithm>
#include <array>
#include <limits>

#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "core/lane_domain.h"
#include "graph/scc.h"
#include "util/simd.h"

namespace tsg {

namespace {

using core_view = compiled_graph::core_view;

/// Longest-path potentials for the reduced weights w(a) = weight[a] over
/// the core, via Bellman-Ford from a virtual all-zero source.  Works in
/// any ordered additive domain; throws internal_error when a positive
/// reduced cycle shows lambda was not maximal.
template <typename Value>
std::vector<Value> reduced_potentials(const core_view& core, const std::vector<Value>& weight)
{
    const std::size_t n = core.graph.node_count();
    const std::size_t m = core.graph.arc_count();
    std::vector<Value> v(n, Value{});
    for (std::size_t pass = 0; pass <= n; ++pass) {
        bool relaxed = false;
        for (arc_id a = 0; a < m; ++a) {
            const Value candidate = v[core.graph.from(a)] + weight[a];
            if (candidate > v[core.graph.to(a)]) {
                v[core.graph.to(a)] = candidate;
                relaxed = true;
            }
        }
        if (!relaxed) break;
        ensure(pass < n, "analyze_slack: positive reduced cycle — lambda not maximal");
    }
    // Normalize potentials to start at zero.
    Value lowest = v.empty() ? Value{} : v[0];
    for (const Value& value : v) lowest = std::min(lowest, value);
    for (Value& value : v) value = value - lowest;
    return v;
}

/// Exact-rational slack of one delay assignment over the core: the scalar
/// fallback of analyze_slack and of an evicted/overflowing lane.
/// `delay_of(a)` is the exact delay of core arc a.
template <typename DelayFn>
void rational_core_slack(const core_view& core, DelayFn&& delay_of, const rational& cycle_time,
                         std::vector<rational>& slack_by_core_arc,
                         std::vector<rational>& potential_by_node)
{
    const std::size_t n = core.graph.node_count();
    const std::size_t m = core.graph.arc_count();
    std::vector<rational> reduced(m);
    for (arc_id a = 0; a < m; ++a)
        reduced[a] = delay_of(a) - cycle_time * rational(core.token[a]);
    const std::vector<rational> v = reduced_potentials(core, reduced);
    potential_by_node.assign(n, rational(0));
    for (node_id u = 0; u < n; ++u) potential_by_node[u] = v[u];
    slack_by_core_arc.assign(m, rational(0));
    for (arc_id a = 0; a < m; ++a)
        slack_by_core_arc[a] = v[core.graph.to(a)] - v[core.graph.from(a)] - reduced[a];
}

/// Shared tail of every slack computation: zero-slack subgraph, critical
/// SCCs, margin.  Consumes per-core-arc slacks and per-core-node
/// potentials, produces the full result in original-id space.
slack_result finish_slack(const compiled_graph& cg, const core_view& core,
                          const rational& cycle_time,
                          const std::vector<rational>& slack_by_core_arc,
                          const std::vector<rational>& potential_by_node)
{
    const signal_graph& sg = cg.source();
    const std::size_t n = core.graph.node_count();
    const std::size_t m = core.graph.arc_count();

    slack_result out;
    out.cycle_time = cycle_time;
    out.potential.assign(sg.event_count(), rational(0));
    for (node_id u = 0; u < n; ++u) out.potential[core.node_event[u]] = potential_by_node[u];

    out.slack.assign(sg.arc_count(), rational(0));
    out.in_core.assign(sg.arc_count(), false);
    out.arc_critical.assign(sg.arc_count(), false);
    out.event_critical.assign(sg.event_count(), false);

    // Zero-slack subgraph and its non-trivial SCCs = the critical subgraph.
    digraph zero(n);
    std::vector<arc_id> zero_original;
    for (arc_id a = 0; a < m; ++a) {
        const arc_id orig = core.arc_original[a];
        out.in_core[orig] = true;
        out.slack[orig] = slack_by_core_arc[a];
        ensure(!out.slack[orig].is_negative(), "analyze_slack: negative slack");
        if (out.slack[orig].is_zero()) {
            zero.add_arc(core.graph.from(a), core.graph.to(a));
            zero_original.push_back(orig);
        }
    }

    const scc_result scc = strongly_connected_components(zero);
    std::vector<std::uint32_t> component_size(scc.count, 0);
    for (node_id u = 0; u < n; ++u) ++component_size[scc.component[u]];

    auto node_critical = [&](node_id u) {
        if (component_size[scc.component[u]] >= 2) return true;
        // Singleton components are critical only with a zero-slack self-loop.
        for (arc_id a = 0; a < zero.arc_count(); ++a)
            if (zero.from(a) == u && zero.to(a) == u) return true;
        return false;
    };

    for (arc_id za = 0; za < zero.arc_count(); ++za) {
        const node_id from = zero.from(za);
        const node_id to = zero.to(za);
        const bool same_critical_component =
            scc.component[from] == scc.component[to] && node_critical(from);
        if (same_critical_component) {
            out.arc_critical[zero_original[za]] = true;
            out.event_critical[core.node_event[from]] = true;
            out.event_critical[core.node_event[to]] = true;
        }
    }

    out.criticality_margin = rational(0);
    bool first = true;
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        if (!out.in_core[a] || out.slack[a].is_zero()) continue;
        if (first || out.slack[a] < out.criticality_margin) {
            out.criticality_margin = out.slack[a];
            first = false;
        }
    }
    return out;
}

} // namespace

slack_result analyze_slack(const compiled_graph& cg)
{
    return analyze_slack(cg, analyze_cycle_time(cg).cycle_time);
}

slack_result analyze_slack(const compiled_graph& cg, const rational& cycle_time)
{
    const core_view core = cg.core();
    const std::size_t n = core.graph.node_count();
    const std::size_t m = core.graph.arc_count();

    // Reduced weights w = delay - lambda * tokens; by maximality of lambda
    // no cycle is positive, so longest-path potentials from a virtual
    // source converge within n Bellman-Ford passes.
    //
    // Fixed-point fast path: multiply through by s = lambda.den * scale —
    // w_fx = scaled_delay * lambda.den - lambda.num * scale * token is an
    // exact integer, order-isomorphic to the rational weights, and the
    // resulting potentials/slacks divide back out exactly.  Guarded against
    // overflow (potentials are bounded by (n+1) * max|w|); any risk drops
    // us back to the rational domain.
    std::vector<rational> slack_by_core_arc;
    std::vector<rational> potential_by_node;

    bool fixed_done = false;
    if (cg.fixed_point()) {
        const std::int64_t lnum = cycle_time.num();
        const std::int64_t lden = cycle_time.den();
        const int128 token_cost = static_cast<int128>(lnum) * cg.scale();
        const int128 budget = std::numeric_limits<std::int64_t>::max() / 4;
        const int128 s128 = static_cast<int128>(lden) * cg.scale();

        std::vector<std::int64_t> weight(m);
        int128 max_abs = 0;
        bool safe = true;
        for (arc_id a = 0; a < m && safe; ++a) {
            const int128 w = static_cast<int128>(core.scaled_delay[a]) * lden -
                             token_cost * core.token[a];
            const int128 mag = w < 0 ? -w : w;
            max_abs = std::max(max_abs, mag);
            if (mag > budget)
                safe = false;
            else
                weight[a] = static_cast<std::int64_t>(w);
        }
        // Potentials accumulate at most n+1 weights along any simple path;
        // the common divisor s must itself stay an int64.
        if (safe && max_abs * static_cast<int128>(n + 1) <= budget && s128 <= budget) {
            const std::vector<std::int64_t> v = reduced_potentials(core, weight);
            const auto s = static_cast<std::int64_t>(s128);
            potential_by_node.resize(n);
            slack_by_core_arc.resize(m);
            for (node_id u = 0; u < n; ++u) potential_by_node[u] = rational(v[u], s);
            for (arc_id a = 0; a < m; ++a) {
                const std::int64_t num =
                    v[core.graph.to(a)] - v[core.graph.from(a)] - weight[a];
                slack_by_core_arc[a] = rational(num, s);
            }
            fixed_done = true;
        }
    }
    if (!fixed_done)
        rational_core_slack(
            core, [&](arc_id a) -> const rational& { return core.delay[a]; }, cycle_time,
            slack_by_core_arc, potential_by_node);

    return finish_slack(cg, core, cycle_time, slack_by_core_arc, potential_by_node);
}

slack_result analyze_slack(const signal_graph& sg)
{
    require(sg.finalized(), "analyze_slack: graph must be finalized");
    const compiled_graph cg(sg);
    return analyze_slack(cg);
}

// --- lane-batched slack ------------------------------------------------------

namespace {

template <unsigned W>
void analyze_slack_lanes_impl(
    const compiled_graph& cg, const lane_domain& dom,
    const std::function<const std::vector<rational>&(unsigned)>& lane_delay,
    std::span<const rational> cycle_time, lane_workspace& ws, std::span<slack_result> out)
{
    const core_view core = cg.core();
    const std::size_t n = core.graph.node_count();
    const std::size_t m = core.graph.arc_count();
    const int128 budget = std::numeric_limits<std::int64_t>::max() / 4;

    // Per-lane reduced weights in each lane's own fixed-point domain,
    // s_l = lambda_l.den * scale_l — exactly the scalar fast path, with the
    // overflow guards applied per lane.  A lane failing any guard (or
    // already evicted from the SoA domain) runs the exact rational
    // Bellman-Ford alone below.
    std::array<std::int64_t, W> s;
    std::array<bool, W> fixed;
    std::array<bool, W> active{};
    ws.weight.assign(m * W, 0);
    for (unsigned l = 0; l < W; ++l) {
        fixed[l] = !dom.evicted(l);
        active[l] = !dom.evicted(l);
        s[l] = 0;
        if (!fixed[l]) continue;
        const std::int64_t lnum = cycle_time[l].num();
        const std::int64_t lden = cycle_time[l].den();
        const std::int64_t scale = dom.scale(l);
        const int128 token_cost = static_cast<int128>(lnum) * scale;
        const int128 s128 = static_cast<int128>(lden) * scale;
        const std::int64_t* TSG_RESTRICT d = dom.delay() + l;
        std::int64_t* TSG_RESTRICT w_out = ws.weight.data() + l;
        int128 max_abs = 0;
        bool safe = s128 <= budget;
        for (arc_id a = 0; a < m && safe; ++a) {
            const int128 w =
                static_cast<int128>(d[std::size_t{a} * W]) * lden - token_cost * core.token[a];
            const int128 mag = w < 0 ? -w : w;
            max_abs = std::max(max_abs, mag);
            if (mag > budget)
                safe = false;
            else
                w_out[std::size_t{a} * W] = static_cast<std::int64_t>(w);
        }
        if (!safe || max_abs * static_cast<int128>(n + 1) > budget) {
            fixed[l] = false;
            std::int64_t* wl = ws.weight.data() + l;
            for (arc_id a = 0; a < m; ++a) wl[std::size_t{a} * W] = 0; // benign
            continue;
        }
        s[l] = static_cast<std::int64_t>(s128);
    }

    // SoA Bellman-Ford: one pass relaxes all lanes of every arc; passes
    // continue until *no* lane relaxes.  Converged lanes relax nothing in
    // the extra passes, so each lane's potentials equal its scalar run.
    ws.potential.assign(n * W, 0);
    std::int64_t* TSG_RESTRICT v = ws.potential.data();
    const std::int64_t* TSG_RESTRICT w = ws.weight.data();
    for (std::size_t pass = 0; pass <= n; ++pass) {
        // Per-lane change flags instead of one scalar accumulator: the
        // inner loop stays a pure element-wise map (no horizontal
        // reduction), which every vectorizer handles.
        std::array<std::int64_t, W> changed{};
        for (arc_id a = 0; a < m; ++a) {
            const std::int64_t* TSG_RESTRICT src = v + std::size_t{core.graph.from(a)} * W;
            const std::int64_t* TSG_RESTRICT wa = w + std::size_t{a} * W;
            std::int64_t* TSG_RESTRICT dst = v + std::size_t{core.graph.to(a)} * W;
            std::int64_t* TSG_RESTRICT chg = changed.data();
            TSG_PRAGMA_SIMD
            for (unsigned l = 0; l < W; ++l) {
                const std::int64_t cand = src[l] + wa[l];
                const bool better = cand > dst[l];
                dst[l] = better ? cand : dst[l];
                chg[l] |= better ? 1 : 0;
            }
        }
        std::int64_t any = 0;
        for (unsigned l = 0; l < W; ++l) any |= changed[l];
        if (any == 0) break;
        ensure(pass < n, "analyze_slack: positive reduced cycle — lambda not maximal");
    }

    std::vector<rational> slack_by_core_arc;
    std::vector<rational> potential_by_node;
    for (unsigned l = 0; l < W; ++l) {
        if (!active[l]) continue;
        if (fixed[l]) {
            // Normalize to start at zero (scalar semantics), then convert
            // out of the lane's domain exactly.
            const std::int64_t* vl = ws.potential.data() + l;
            std::int64_t lowest = n == 0 ? 0 : vl[0];
            for (node_id u = 0; u < n; ++u)
                lowest = std::min(lowest, vl[std::size_t{u} * W]);
            potential_by_node.assign(n, rational(0));
            for (node_id u = 0; u < n; ++u)
                potential_by_node[u] = rational(vl[std::size_t{u} * W] - lowest, s[l]);
            const std::int64_t* wl = ws.weight.data() + l;
            slack_by_core_arc.assign(m, rational(0));
            for (arc_id a = 0; a < m; ++a) {
                const std::int64_t num = vl[std::size_t{core.graph.to(a)} * W] -
                                         vl[std::size_t{core.graph.from(a)} * W] -
                                         wl[std::size_t{a} * W];
                slack_by_core_arc[a] = rational(num, s[l]);
            }
        } else {
            const std::vector<rational>& delay = lane_delay(l);
            rational_core_slack(
                core, [&](arc_id a) { return delay[core.arc_original[a]]; }, cycle_time[l],
                slack_by_core_arc, potential_by_node);
        }
        out[l] = finish_slack(cg, core, cycle_time[l], slack_by_core_arc, potential_by_node);
    }
}

} // namespace

void analyze_slack_lanes(
    const compiled_graph& cg, const lane_domain& dom,
    const std::function<const std::vector<rational>&(unsigned)>& lane_delay,
    std::span<const rational> cycle_time, lane_workspace& ws, std::span<slack_result> out)
{
    require(dom.width() == out.size() && dom.width() == cycle_time.size(),
            "analyze_slack_lanes: lane count mismatch");
    switch (dom.width()) {
    case 2: return analyze_slack_lanes_impl<2>(cg, dom, lane_delay, cycle_time, ws, out);
    case 4: return analyze_slack_lanes_impl<4>(cg, dom, lane_delay, cycle_time, ws, out);
    case 8: return analyze_slack_lanes_impl<8>(cg, dom, lane_delay, cycle_time, ws, out);
    case 16: return analyze_slack_lanes_impl<16>(cg, dom, lane_delay, cycle_time, ws, out);
    default:
        throw error("analyze_slack_lanes: unsupported lane width " +
                    std::to_string(dom.width()) + " (use 2, 4, 8 or 16)");
    }
}

} // namespace tsg
