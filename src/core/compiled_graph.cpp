#include "core/compiled_graph.h"

#include <array>
#include <bit>
#include <limits>
#include <numeric>

#include "graph/topo.h"

namespace tsg {

namespace {

/// The fixed-point scale is capped so that period-count * scale products
/// (delta denominators) and scaled Bellman-Ford potentials stay far from
/// the int64 edge.
constexpr std::int64_t max_scale = std::numeric_limits<std::int32_t>::max();

} // namespace

compiled_graph::compiled_graph(const signal_graph& sg, compile_options options)
    : sg_(&sg), use_fixed_point_(options.use_fixed_point)
{
    require(sg.finalized(), "compiled_graph: graph must be finalized");

    auto state = std::make_shared<structural_state>();
    state->structure = csr_graph(sg.structure());

    delay_.reserve(sg.arc_count());
    for (arc_id a = 0; a < sg.arc_count(); ++a) delay_.push_back(sg.arc(a).delay);

    if (use_fixed_point_) compile_fixed_point();

    if (sg.repetitive_events().empty())
        state->acyclic_order = topological_order(state->structure);
    else
        compile_core(*state);

    shared_ = std::move(state);
    bind_core_delays();
}

compiled_graph compiled_graph::rebind(std::vector<rational> delay) const
{
    require(delay.size() == delay_.size(),
            "compiled_graph::rebind: delay count does not match the arc count");
    bool negative = false;
    for (const rational& d : delay) negative |= d.is_negative();
    require(!negative, "compiled_graph::rebind: negative delay");

    // Share the structural state (one pointer copy — no CSR walk, no
    // topological sort, no core rebuild); recompute only delay-derived
    // members.  The fixed-point domain is re-checked against the *new*
    // delays, so an overflowing scenario falls back to rational arithmetic
    // on its own, leaving the base snapshot and every sibling untouched.
    compiled_graph out(sg_);
    out.use_fixed_point_ = use_fixed_point_;
    out.shared_ = shared_;
    out.delay_ = std::move(delay);
    if (out.use_fixed_point_) out.compile_fixed_point();
    out.bind_core_delays();
    return out;
}

std::uint32_t fixed_point_period_limit(int128 mass)
{
    // Ceiling on the budget: beyond it the unfolding would be astronomically
    // larger than any bound the analyses use (periods are bounded by the
    // border size, itself at most the event count).
    constexpr std::uint32_t max_period_limit = 1u << 20;
    const int128 budget = std::numeric_limits<std::int64_t>::max() / 4;
    const int128 limit = mass == 0 ? max_period_limit : budget / mass;
    return limit < 2 ? 0 : static_cast<std::uint32_t>(std::min<int128>(limit, max_period_limit));
}

void compute_fixed_point_domain(const std::vector<rational>& delay, fixed_point_domain& out)
{
    out.scale = 0;
    out.period_limit = 0;
    out.negative = false;
    out.scaled.clear();

    // L = lcm of all delay denominators, abandoned past max_scale.  The
    // LCM is order-independent and its running value is monotone (every
    // prefix divides the final value), so the scan is split: a branchless
    // pass ORs small denominators into a presence mask — the hot loop on
    // the batch rebind path, free of data-dependent branches — and the
    // fold over distinct denominators (<= 64 of them, plus the rare large
    // ones) runs afterwards with the exact overflow guard of the scalar
    // rebind: the domain is disabled iff the final LCM would exceed
    // max_scale, identical to folding in arc order.
    std::uint64_t den_mask = 0;
    std::int64_t neg_mask = 0; // accumulates sign bits: any negative numerator
    std::int64_t large_lcm = 1; // fold of denominators > 64 (rare)
    for (const rational& d : delay) {
        neg_mask |= d.num();
        const auto den = static_cast<std::uint64_t>(d.den());
        if (den <= 64) [[likely]] {
            den_mask |= std::uint64_t{1} << (den - 1);
        } else {
            if (large_lcm % static_cast<std::int64_t>(den) != 0) {
                const std::int64_t g = std::gcd(large_lcm, static_cast<std::int64_t>(den));
                const int128 candidate = static_cast<int128>(large_lcm / g) * den;
                if (candidate > max_scale) return; // domain disabled (scale stays 0)
                large_lcm = static_cast<std::int64_t>(candidate);
            }
        }
    }
    out.negative = neg_mask < 0;
    std::int64_t scale = large_lcm;
    den_mask &= ~std::uint64_t{1}; // den == 1 never moves the LCM
    while (den_mask != 0) {
        const int bit = std::countr_zero(den_mask);
        den_mask &= den_mask - 1;
        const std::int64_t den = bit + 1;
        if (scale % den == 0) continue;
        const std::int64_t g = std::gcd(scale, den);
        const int128 candidate = static_cast<int128>(scale / g) * den;
        if (candidate > max_scale) return; // domain disabled (scale stays 0)
        scale = static_cast<std::int64_t>(candidate);
    }

    // Scaled delays d * L, all exact integers; track the total mass to
    // bound how many periods a sweep may accumulate without overflow.
    // This loop is the hot spot of the batch rebind path, so both 64-bit
    // divisions are amortized over distinct denominators: quotient[den] =
    // L / den, and threshold[den] = INT64_MAX / quotient — num <=
    // threshold is exactly "num * quotient fits int64", keeping the loop
    // free of both division and 128-bit arithmetic.  Small denominators
    // (overwhelmingly common) hit dense tables, larger ones a last-value
    // cache.
    std::array<std::int64_t, 65> quotient{};
    std::array<std::int64_t, 65> threshold{};
    quotient[1] = scale;
    threshold[1] = std::numeric_limits<std::int64_t>::max() / scale;
    out.scaled.resize(delay.size());
    std::int64_t* scaled = out.scaled.data();
    int128 total = 0;
    std::int64_t last_den = 1;
    std::int64_t last_quotient = scale;
    std::int64_t last_threshold = threshold[1];
    for (std::size_t i = 0; i < delay.size(); ++i) {
        const rational& d = delay[i];
        const std::int64_t den = d.den();
        std::int64_t q;
        std::int64_t lim;
        if (den <= 64) {
            q = quotient[den];
            if (q == 0) {
                q = quotient[den] = scale / den;
                threshold[den] = std::numeric_limits<std::int64_t>::max() / q;
            }
            lim = threshold[den];
        } else {
            if (den != last_den) {
                last_den = den;
                last_quotient = scale / den;
                last_threshold = std::numeric_limits<std::int64_t>::max() / last_quotient;
            }
            q = last_quotient;
            lim = last_threshold;
        }
        if (d.num() > lim) {
            out.scaled.clear();
            return;
        }
        const std::int64_t v = d.num() * q;
        scaled[i] = v;
        total += v; // delays are >= 0 (validated by signal_graph)
    }

    // Any longest path in a P-period sweep traverses each arc at most P + 1
    // times, so its scaled length is bounded by (P + 1) * total.
    out.period_limit = fixed_point_period_limit(total);
    if (out.period_limit == 0) {
        out.scaled.clear();
        return; // too heavy even for single-period sweeps
    }
    out.scale = scale;
}

void compiled_graph::compile_fixed_point()
{
    fixed_point_domain domain;
    compute_fixed_point_domain(delay_, domain);
    if (domain.scale == 0) return; // scale_ stays 0: rational fallback
    scale_ = domain.scale;
    period_limit_ = domain.period_limit;
    scaled_delay_ = std::move(domain.scaled);
}

void compiled_graph::compile_core(structural_state& state) const
{
    const signal_graph& sg = *sg_;
    core_structure core;

    core.event_node.assign(sg.event_count(), invalid_node);
    core.node_event.reserve(sg.repetitive_events().size());
    for (const event_id e : sg.repetitive_events()) {
        // repetitive_events() is in increasing event order, so core node
        // numbering matches signal_graph::repetitive_core() exactly.
        core.event_node[e] = core.graph.add_node();
        core.node_event.push_back(e);
    }

    std::size_t core_arcs = 0;
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        if (!sg.arc_live(a)) continue;
        const arc_info& arc = sg.arc(a);
        if (core.event_node[arc.from] != invalid_node &&
            core.event_node[arc.to] != invalid_node)
            ++core_arcs;
    }
    core.graph.reserve(core.node_event.size(), core_arcs);
    core.arc_original.reserve(core_arcs);
    core.token.reserve(core_arcs);

    std::vector<bool> token_free;
    token_free.reserve(core_arcs);
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        if (!sg.arc_live(a)) continue;
        const arc_info& arc = sg.arc(a);
        const node_id u = core.event_node[arc.from];
        const node_id v = core.event_node[arc.to];
        if (u == invalid_node || v == invalid_node) continue;
        const arc_id core_arc = core.graph.add_arc(u, v);
        core.arc_original.push_back(a);
        core.token.push_back(arc.marked ? 1 : 0);
        if (arc.marked) core.token_arcs.push_back(core_arc);
        token_free.push_back(!arc.marked);
    }

    core.graph.freeze(); // the snapshot is shared across sweep threads

    const auto order = topological_order_filtered(core.graph, token_free);
    ensure(order.has_value(),
           "compiled_graph: token-free core subgraph has a cycle (not live)");
    core.topo = *order;
    core.identity = core.arc_original.size() == sg.arc_count();

    // Flat token-free out-adjacency in out_arcs order: the sweep's
    // in-period pass relaxes exactly these arcs, so prefiltering here
    // keeps the relaxation order (and thus every tie-break) identical
    // while removing the per-arc token test from the hot loop.
    const std::size_t nodes = core.graph.node_count();
    core.token_free_offset.assign(nodes + 1, 0);
    core.token_free_arcs.reserve(core_arcs - core.token_arcs.size());
    for (node_id v = 0; v < nodes; ++v) {
        for (const arc_id a : core.graph.out_arcs(v))
            if (core.token[a] == 0) core.token_free_arcs.push_back(a);
        core.token_free_offset[v + 1] =
            static_cast<std::uint32_t>(core.token_free_arcs.size());
    }

    state.core = std::move(core);
}

void compiled_graph::bind_core_delays()
{
    if (!shared_->core) return;
    const core_structure& core = *shared_->core;
    if (core.identity) return; // core() aliases the whole-graph arrays
    const std::size_t m = core.arc_original.size();

    core_delay_.resize(m);
    core_scaled_delay_.assign(fixed_point() ? m : 0, 0);
    for (arc_id a = 0; a < m; ++a) {
        const arc_id orig = core.arc_original[a];
        core_delay_[a] = delay_[orig];
        if (fixed_point()) core_scaled_delay_[a] = scaled_delay_[orig];
    }
}

} // namespace tsg
