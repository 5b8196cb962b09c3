#include "core/incremental.h"

#include <algorithm>
#include <limits>

#include "graph/scc.h"
#include "ratio/condensation.h"

namespace tsg {

incremental_engine::incremental_engine(const signal_graph& sg, compile_options options)
    : sg_(sg), cg_(sg_, options)
{
    // User-intent disengageable flags.  In a finalized graph every
    // disengageable arc has a one-shot source (validate() rejects the
    // rest), so a stored flag on a one-shot-source arc may be pure
    // normalization; should that source ever become repetitive, the arc
    // reverts to engageable — exactly what replaying the current flags
    // into a fresh graph would produce.
    user_diseng_.assign(sg_.arc_count(), 0);
    for (arc_id a = 0; a < sg_.arc_count(); ++a)
        if (sg_.arc_live(a) && sg_.arcs_[a].disengageable &&
            sg_.events_[sg_.arcs_[a].from].kind == event_kind::repetitive)
            user_diseng_[a] = 1;

    for (const std::int64_t v : cg_.scaled_delay_) total_mass_ += v;
    reseed_liveness_order();
    warm_version_ = cg_.structure_version();
}

compiled_graph::structural_state& incremental_engine::mutable_state()
{
    if (cg_.shared_.use_count() > 1)
        cg_.shared_ = std::make_shared<compiled_graph::structural_state>(*cg_.shared_);
    // The engine is the sole owner now; the object was allocated non-const.
    return const_cast<compiled_graph::structural_state&>(*cg_.shared_);
}

void incremental_engine::reseed_liveness_order()
{
    // Token-free live subgraph over *all* events.  Its acyclicity is
    // equivalent to liveness: every cycle's nodes are repetitive, so every
    // cycle lives in the core, and a token-free core cycle is exactly a
    // liveness violation.
    const digraph& g = sg_.structure_;
    std::vector<bool> keep(g.arc_count(), false);
    for (node_id v = 0; v < g.node_count(); ++v)
        for (const arc_id a : g.out_arcs(v)) keep[a] = !sg_.arcs_[a].marked;
    const auto order = topological_order_filtered(g, keep);
    ensure(order.has_value(), "incremental_engine: live graph has a token-free cycle");
    pk_.reset_order(*order);
}

void incremental_engine::pk_require_acyclic(event_id from, event_id to)
{
    // Callbacks enumerate the current token-free live subgraph; the edge
    // under test must not be in the digraph yet (add_edge's contract).
    const auto succ = [this](node_id w, auto&& f) {
        for (const arc_id a : sg_.structure_.out_arcs(w))
            if (!sg_.arcs_[a].marked) f(sg_.arcs_[a].to);
    };
    const auto pred = [this](node_id w, auto&& f) {
        for (const arc_id a : sg_.structure_.in_arcs(w))
            if (!sg_.arcs_[a].marked) f(sg_.arcs_[a].from);
    };
    const incremental_topo::insert_result r = pk_.add_edge(from, to, succ, pred);
    counters_.topo_window += r.window;
    if (!r.acyclic)
        throw error("incremental_engine: edit closes a token-free cycle ('" +
                    sg_.events_[from].name + "' -> '" + sg_.events_[to].name +
                    "' breaks liveness)");
}

// --- raw edit application ----------------------------------------------------

void incremental_engine::patch_scaled(arc_id a, const rational& value, dirty& d)
{
    if (!cg_.use_fixed_point_) return;
    if (cg_.scale_ == 0) {
        d.fp_dirty = true; // domain disabled; a recompute may re-enable it
        return;
    }
    const std::int64_t den = value.den();
    if (cg_.scale_ % den != 0) {
        d.fp_dirty = true; // new denominator outside the current LCM
        return;
    }
    const std::int64_t q = cg_.scale_ / den;
    if (value.num() > std::numeric_limits<std::int64_t>::max() / q) {
        d.fp_dirty = true; // scaled value would overflow
        return;
    }
    const std::int64_t v = value.num() * q;
    total_mass_ += v - cg_.scaled_delay_[a];
    cg_.scaled_delay_[a] = v;
}

void incremental_engine::raw_insert_arc(arc_id a, const arc_info& info, bool user_diseng,
                                        dirty& d, bool restore)
{
    if (!info.marked) pk_require_acyclic(info.from, info.to);

    compiled_graph::structural_state& state = mutable_state();
    if (restore) {
        sg_.structure_.restore_arc(a, info.from, info.to);
        state.structure.patch_restore_arc(a, info.from, info.to);
        sg_.arcs_[a] = info;
        user_diseng_[a] = user_diseng ? 1 : 0;
        cg_.delay_[a] = info.delay;
    } else {
        const arc_id ga = sg_.structure_.add_arc(info.from, info.to);
        const arc_id ca = state.structure.patch_add_arc(info.from, info.to);
        ensure(ga == a && ca == a, "incremental_engine: arc ids desynchronized");
        sg_.arcs_.push_back(info);
        user_diseng_.push_back(user_diseng ? 1 : 0);
        cg_.delay_.push_back(info.delay);
        if (cg_.scale_ != 0) cg_.scaled_delay_.push_back(0);
    }
    patch_scaled(a, info.delay, d);
    ++counters_.arcs_repaired;

    d.structural = true;
    d.touched.push_back(info.from);
    d.touched.push_back(info.to);
    d.edited_arcs.push_back(a);
    const bool from_rep = sg_.events_[info.from].kind == event_kind::repetitive;
    const bool to_rep = sg_.events_[info.to].kind == event_kind::repetitive;
    if (from_rep && to_rep) {
        // Boundedness keeps every path out of the core inside the core, so
        // any cycle through this arc uses core nodes only: membership is
        // provably unchanged, no SCC work needed.
        ++counters_.scc_runs_skipped;
    } else {
        d.added_noncore = true;
        d.grown.emplace_back(a, info.from, info.to);
    }
}

void incremental_engine::raw_remove_arc(arc_id a, dirty& d)
{
    const arc_info prev = sg_.arcs_[a];
    compiled_graph::structural_state& state = mutable_state();
    sg_.structure_.remove_arc(a);
    state.structure.patch_remove_arc(a);
    ++counters_.arcs_repaired;

    // Dead slots read as neutral payload: invalid endpoints, zero delay
    // (LCM- and mass-neutral), no marking, no flags.
    sg_.arcs_[a] = arc_info{};
    user_diseng_[a] = 0;
    cg_.delay_[a] = rational(0);
    if (cg_.scale_ != 0) {
        total_mass_ -= cg_.scaled_delay_[a];
        cg_.scaled_delay_[a] = 0;
    }
    d.delay = true; // the slot's delay changed to 0

    d.structural = true;
    d.touched.push_back(prev.from);
    d.touched.push_back(prev.to);
    d.edited_arcs.push_back(a);
    if (sg_.events_[prev.from].kind == event_kind::repetitive &&
        sg_.events_[prev.to].kind == event_kind::repetitive)
        d.removed_core_arc = true;
    else
        ++counters_.scc_runs_skipped; // one-shot endpoints: never on a cycle
}

void incremental_engine::raw_pop_arc(dirty& d)
{
    const auto a = static_cast<arc_id>(sg_.arcs_.size() - 1);
    const arc_info prev = sg_.arcs_[a];
    compiled_graph::structural_state& state = mutable_state();
    if (sg_.structure_.is_live(a)) {
        d.touched.push_back(prev.from);
        d.touched.push_back(prev.to);
        if (sg_.events_[prev.from].kind == event_kind::repetitive &&
            sg_.events_[prev.to].kind == event_kind::repetitive)
            d.removed_core_arc = true;
        if (cg_.scale_ != 0) total_mass_ -= cg_.scaled_delay_[a];
    }
    sg_.structure_.pop_arc();
    state.structure.patch_pop_arc();
    ++counters_.arcs_repaired;
    sg_.arcs_.pop_back();
    user_diseng_.pop_back();
    cg_.delay_.pop_back();
    if (cg_.scale_ != 0) cg_.scaled_delay_.pop_back();
    d.structural = true;
}

void incremental_engine::raw_set_delay(arc_id a, const rational& value, dirty& d)
{
    sg_.arcs_[a].delay = value;
    cg_.delay_[a] = value;
    patch_scaled(a, value, d);
    d.delay = true;
}

void incremental_engine::apply_raw(const graph_edit& e, std::vector<applied_edit>& log,
                                   dirty& d)
{
    switch (e.kind) {
    case graph_edit::op::add_arc: {
        require(e.from < sg_.event_count() && e.to < sg_.event_count(),
                "incremental_engine: add_arc endpoint out of range");
        require(!e.delay.is_negative(), "incremental_engine: negative delay");
        const auto a = static_cast<arc_id>(sg_.arcs_.size());
        const arc_info info{e.from, e.to, e.delay, e.marked, e.disengageable};
        raw_insert_arc(a, info, e.disengageable, d, /*restore=*/false);
        log.push_back({graph_edit::op::add_arc, a, arc_info{}, false});
        break;
    }
    case graph_edit::op::remove_arc: {
        require(e.arc < sg_.arc_count() && sg_.arc_live(e.arc),
                "incremental_engine: remove_arc target is not a live arc");
        const applied_edit rec{graph_edit::op::remove_arc, e.arc, sg_.arcs_[e.arc],
                               user_diseng_[e.arc] != 0};
        raw_remove_arc(e.arc, d);
        log.push_back(rec);
        break;
    }
    case graph_edit::op::set_delay: {
        require(e.arc < sg_.arc_count() && sg_.arc_live(e.arc),
                "incremental_engine: set_delay target is not a live arc");
        require(!e.delay.is_negative(), "incremental_engine: negative delay");
        const applied_edit rec{graph_edit::op::set_delay, e.arc, sg_.arcs_[e.arc],
                               user_diseng_[e.arc] != 0};
        raw_set_delay(e.arc, e.delay, d);
        log.push_back(rec);
        break;
    }
    case graph_edit::op::retarget: {
        require(e.arc < sg_.arc_count() && sg_.arc_live(e.arc),
                "incremental_engine: retarget target is not a live arc");
        require(e.from < sg_.event_count() && e.to < sg_.event_count(),
                "incremental_engine: retarget endpoint out of range");
        const applied_edit rec{graph_edit::op::retarget, e.arc, sg_.arcs_[e.arc],
                               user_diseng_[e.arc] != 0};
        arc_info moved = rec.prev;
        moved.from = e.from;
        moved.to = e.to;
        raw_remove_arc(e.arc, d);
        try {
            raw_insert_arc(e.arc, moved, rec.prev_user_diseng, d, /*restore=*/true);
        } catch (...) {
            // Liveness refusal mid-op: put the arc back before unwinding so
            // the batch rollback sees a consistent log.
            raw_insert_arc(e.arc, rec.prev, rec.prev_user_diseng, d, /*restore=*/true);
            throw;
        }
        log.push_back(rec);
        break;
    }
    case graph_edit::op::set_marking: {
        require(e.arc < sg_.arc_count() && sg_.arc_live(e.arc),
                "incremental_engine: set_marking target is not a live arc");
        const applied_edit rec{graph_edit::op::set_marking, e.arc, sg_.arcs_[e.arc],
                               user_diseng_[e.arc] != 0};
        arc_info& arc = sg_.arcs_[e.arc];
        if (arc.marked != e.marked) {
            // Unmarking re-introduces a token-free edge; the flag is still
            // set while the oracle runs, so the callbacks exclude the arc.
            if (!e.marked) pk_require_acyclic(arc.from, arc.to);
            arc.marked = e.marked;
            d.marking = true;
            d.touched.push_back(arc.from);
            d.touched.push_back(arc.to);
        }
        log.push_back(rec);
        break;
    }
    }
}

void incremental_engine::invert_raw(const applied_edit& rec, dirty& d)
{
    switch (rec.kind) {
    case graph_edit::op::add_arc:
        ensure(rec.arc + 1 == sg_.arcs_.size(),
               "incremental_engine: undo log out of order");
        raw_pop_arc(d);
        break;
    case graph_edit::op::remove_arc:
        raw_insert_arc(rec.arc, rec.prev, rec.prev_user_diseng, d, /*restore=*/true);
        break;
    case graph_edit::op::set_delay:
        raw_set_delay(rec.arc, rec.prev.delay, d);
        break;
    case graph_edit::op::retarget:
        raw_remove_arc(rec.arc, d);
        raw_insert_arc(rec.arc, rec.prev, rec.prev_user_diseng, d, /*restore=*/true);
        break;
    case graph_edit::op::set_marking: {
        arc_info& arc = sg_.arcs_[rec.arc];
        if (arc.marked != rec.prev.marked) {
            if (!rec.prev.marked) pk_require_acyclic(arc.from, arc.to);
            arc.marked = rec.prev.marked;
            d.marking = true;
            d.touched.push_back(arc.from);
            d.touched.push_back(arc.to);
        }
        break;
    }
    }
}

void incremental_engine::rollback(const std::vector<applied_edit>& log)
{
    dirty d;
    for (auto it = log.rbegin(); it != log.rend(); ++it) invert_raw(*it, d);
    // derive() may have thrown mid-flight with classification half
    // updated; rebuild all derived state from the (restored, known valid)
    // raw structure.  Error path only — cost does not matter.
    restore_derived();
}

// --- derived-state maintenance ----------------------------------------------

incremental_engine::core_digraph incremental_engine::build_core_digraph() const
{
    core_digraph core;
    core.event_node.assign(sg_.event_count(), invalid_node);
    for (const event_id e : sg_.repetitive_) {
        core.event_node[e] = core.graph.add_node();
        core.node_event.push_back(e);
    }
    // Adjacency-driven: O(core size), not O(all arcs).  Boundedness (held
    // before the batch, re-validated for every touched arc) keeps out-arcs
    // of repetitive events inside the repetitive set.
    for (const event_id e : sg_.repetitive_)
        for (const arc_id a : sg_.structure_.out_arcs(e)) {
            const node_id v = core.event_node[sg_.arcs_[a].to];
            if (v != invalid_node) core.graph.add_arc(core.event_node[e], v);
        }
    return core;
}

void incremental_engine::recompute_membership(dirty& d, std::vector<event_id>& kind_changed)
{
    const bool grow = d.added_noncore;
    const bool shrink = d.removed_core_arc;
    if (!grow && !shrink) return; // every structural edit was membership-safe

    const auto classify_one_shot = [&](event_id e) {
        sg_.events_[e].kind = sg_.structure_.in_degree(e) == 0 ? event_kind::initial
                                                               : event_kind::transient;
    };

    if (grow && shrink) {
        // Mixed batch (removals compounding with one-shot-touching
        // additions): membership can move both ways — recondense the whole
        // structure.
        const std::vector<bool> cyclic = nodes_on_cycles(sg_.structure_);
        for (event_id e = 0; e < sg_.event_count(); ++e) {
            const bool was = sg_.events_[e].kind == event_kind::repetitive;
            if (was == cyclic[e]) continue;
            if (cyclic[e])
                sg_.events_[e].kind = event_kind::repetitive;
            else
                classify_one_shot(e);
            kind_changed.push_back(e);
        }
        ++counters_.sccs_recondensed;
        counters_.scc_window += sg_.event_count();
        return;
    }

    if (shrink) {
        // Removals only: membership can only leave the current core, and
        // every surviving cycle lies inside it, so recondense just the
        // core-induced subgraph.
        const core_digraph core = build_core_digraph();
        const std::vector<bool> cyclic = nodes_on_cycles(core.graph);
        for (std::size_t i = 0; i < core.node_event.size(); ++i) {
            if (cyclic[i]) continue;
            const event_id e = core.node_event[i];
            classify_one_shot(e);
            kind_changed.push_back(e);
        }
        ++counters_.sccs_recondensed;
        counters_.scc_window += core.node_event.size();
        return;
    }

    // Additions only: membership can only grow, and every new cycle runs
    // through one of the recorded arcs (u, v) — its nodes lie on a v -> u
    // path, i.e. in forward-reach(v) intersected with backward-reach(u).
    std::vector<std::uint8_t> fwd(sg_.event_count(), 0);
    std::vector<std::uint8_t> bwd(sg_.event_count(), 0);
    std::vector<event_id> stack;
    for (const auto& [arc, u, v] : d.grown) {
        // The arc may have been removed, moved — or popped entirely by an
        // undone add — later in the batch.
        if (arc >= sg_.arc_count() || !sg_.arc_live(arc) || sg_.arcs_[arc].from != u ||
            sg_.arcs_[arc].to != v)
            continue;
        std::fill(fwd.begin(), fwd.end(), 0);
        std::fill(bwd.begin(), bwd.end(), 0);
        std::size_t window = 0;
        stack.assign(1, v);
        fwd[v] = 1;
        while (!stack.empty()) {
            const event_id w = stack.back();
            stack.pop_back();
            ++window;
            for (const arc_id a : sg_.structure_.out_arcs(w)) {
                const event_id x = sg_.arcs_[a].to;
                if (!fwd[x]) {
                    fwd[x] = 1;
                    stack.push_back(x);
                }
            }
        }
        stack.assign(1, u);
        bwd[u] = 1;
        while (!stack.empty()) {
            const event_id w = stack.back();
            stack.pop_back();
            ++window;
            for (const arc_id a : sg_.structure_.in_arcs(w)) {
                const event_id x = sg_.arcs_[a].from;
                if (!bwd[x]) {
                    bwd[x] = 1;
                    stack.push_back(x);
                }
            }
        }
        for (event_id e = 0; e < sg_.event_count(); ++e) {
            if (!fwd[e] || !bwd[e]) continue;
            if (sg_.events_[e].kind == event_kind::repetitive) continue;
            sg_.events_[e].kind = event_kind::repetitive;
            kind_changed.push_back(e);
        }
        ++counters_.sccs_recondensed;
        counters_.scc_window += window;
    }
}

void incremental_engine::refresh_fixed_point(dirty& d)
{
    if (!cg_.use_fixed_point_) return;
    if (!d.delay && !d.fp_dirty) return;

    if (!d.fp_dirty && cg_.scale_ != 0) {
        // Every touched delay was patched in the current scale; only the
        // period budget needs a refresh from the tracked mass.
        const std::uint32_t limit = fixed_point_period_limit(total_mass_);
        if (limit != 0) {
            cg_.period_limit_ = limit;
            ++counters_.fixed_point_patches;
            return;
        }
        // The monotone scale grew too heavy for even one period; fall
        // through to the full recomputation, which may find a smaller LCM.
    }

    cg_.scale_ = 0;
    cg_.period_limit_ = 0;
    cg_.scaled_delay_.clear();
    cg_.compile_fixed_point();
    total_mass_ = 0;
    for (const std::int64_t v : cg_.scaled_delay_) total_mass_ += v;
    ++counters_.fixed_point_recomputes;
}

void incremental_engine::derive(dirty& d)
{
    compiled_graph::structural_state& state = mutable_state();
    const bool had_core = state.core.has_value();

    std::vector<event_id> kind_changed;
    if (d.structural) recompute_membership(d, kind_changed);

    // One-shot endpoints of edited arcs: an in-degree change flips
    // initial <-> transient.
    bool lists_dirty = !kind_changed.empty();
    std::sort(d.touched.begin(), d.touched.end());
    d.touched.erase(std::unique(d.touched.begin(), d.touched.end()), d.touched.end());
    for (const event_id e : d.touched) {
        event_info& info = sg_.events_[e];
        if (info.kind == event_kind::repetitive) continue;
        const event_kind want = sg_.structure_.in_degree(e) == 0 ? event_kind::initial
                                                                 : event_kind::transient;
        if (info.kind != want) {
            info.kind = want;
            lists_dirty = true;
        }
    }

    if (lists_dirty) {
        sg_.repetitive_.clear();
        sg_.initial_.clear();
        sg_.transient_.clear();
        for (event_id e = 0; e < sg_.event_count(); ++e) {
            switch (sg_.events_[e].kind) {
            case event_kind::repetitive: sg_.repetitive_.push_back(e); break;
            case event_kind::initial: sg_.initial_.push_back(e); break;
            case event_kind::transient: sg_.transient_.push_back(e); break;
            }
        }
    }

    // Disengageable re-normalization and validation, over the affected
    // arcs only: the edited ones plus everything incident to an event
    // whose repetitive status changed (unedited arcs elsewhere hold by the
    // pre-batch invariants).
    // Edited ids can outlive their arc (popped by an undone add in the
    // same batch): everything below filters through this guard.
    const auto arc_ok = [&](arc_id a) { return a < sg_.arc_count() && sg_.arc_live(a); };
    const auto renormalize = [&](arc_id a) {
        sg_.arcs_[a].disengageable =
            user_diseng_[a] != 0 ||
            sg_.events_[sg_.arcs_[a].from].kind != event_kind::repetitive;
    };
    const auto check = [&](arc_id a) {
        const arc_info& arc = sg_.arcs_[a];
        const bool from_rep = sg_.events_[arc.from].kind == event_kind::repetitive;
        const bool to_rep = sg_.events_[arc.to].kind == event_kind::repetitive;
        if (arc.disengageable && from_rep)
            throw error("incremental_engine: disengageable arc sourced at repetitive "
                        "event '" +
                        sg_.events_[arc.from].name + "' violates well-formedness");
        if (from_rep && !to_rep)
            throw error("incremental_engine: arc from repetitive '" +
                        sg_.events_[arc.from].name + "' to one-shot '" +
                        sg_.events_[arc.to].name + "' makes the graph unbounded");
    };
    for (const arc_id a : d.edited_arcs)
        if (arc_ok(a)) renormalize(a);
    for (const event_id e : kind_changed)
        for (const arc_id a : sg_.structure_.out_arcs(e)) renormalize(a);
    for (const arc_id a : d.edited_arcs)
        if (arc_ok(a)) check(a);
    for (const event_id e : kind_changed) {
        for (const arc_id a : sg_.structure_.out_arcs(e)) check(a);
        for (const arc_id a : sg_.structure_.in_arcs(e)) check(a);
    }

    // The core must stay one strongly connected component.  Pure
    // core-interior additions cannot break connectivity; everything that
    // removed a core arc or changed membership gets re-checked.
    if (!sg_.repetitive_.empty() &&
        (!kind_changed.empty() || d.removed_core_arc || d.added_noncore)) {
        const core_digraph core = build_core_digraph();
        require(is_strongly_connected(core.graph),
                "incremental_engine: repetitive events no longer form one strongly "
                "connected component");
    }

    if (d.structural || d.marking || lists_dirty) {
        ++state.version;
        // Border set: repetitive events with a marked in-arc.
        sg_.border_.clear();
        for (const event_id e : sg_.repetitive_) {
            const auto in = sg_.structure_.in_arcs(e);
            if (std::any_of(in.begin(), in.end(),
                            [&](arc_id a) { return sg_.arcs_[a].marked; }))
                sg_.border_.push_back(e);
        }
        if (sg_.repetitive_.empty()) {
            state.core.reset();
            auto order = topological_order(state.structure);
            ensure(order.has_value(),
                   "incremental_engine: graph without repetitive events has a cycle");
            state.acyclic_order = std::move(*order);
            if (had_core) ++counters_.full_rebuilds;
        } else {
            state.acyclic_order.reset();
            // Canonical regeneration (same deterministic Kahn pass as a
            // fresh compile) — this is what keeps sweep orders, and hence
            // witnesses, bit-identical to finalize() + compile().
            cg_.compile_core(state);
            ++counters_.core_rebuilds;
            if (!had_core) ++counters_.full_rebuilds;
        }
    }

    refresh_fixed_point(d);
    if (d.delay || d.structural || d.marking) cg_.bind_core_delays();
    counters_.csr_compactions = state.structure.patch_compactions();
}

void incremental_engine::restore_derived()
{
    compiled_graph::structural_state& state = mutable_state();
    const bool had_core = state.core.has_value();

    // Classification from scratch (classify_events(), with disengageable
    // flags re-derived from the stored user intent instead of only ever
    // being forced on).
    const std::vector<bool> cyclic = nodes_on_cycles(sg_.structure_);
    sg_.repetitive_.clear();
    sg_.initial_.clear();
    sg_.transient_.clear();
    for (event_id e = 0; e < sg_.event_count(); ++e) {
        if (cyclic[e]) {
            sg_.events_[e].kind = event_kind::repetitive;
            sg_.repetitive_.push_back(e);
        } else if (sg_.structure_.in_degree(e) == 0) {
            sg_.events_[e].kind = event_kind::initial;
            sg_.initial_.push_back(e);
        } else {
            sg_.events_[e].kind = event_kind::transient;
            sg_.transient_.push_back(e);
        }
    }
    for (arc_id a = 0; a < sg_.arc_count(); ++a)
        if (sg_.arc_live(a))
            sg_.arcs_[a].disengageable =
                user_diseng_[a] != 0 ||
                sg_.events_[sg_.arcs_[a].from].kind != event_kind::repetitive;
    sg_.border_.clear();
    for (const event_id e : sg_.repetitive_) {
        const auto in = sg_.structure_.in_arcs(e);
        if (std::any_of(in.begin(), in.end(),
                        [&](arc_id a) { return sg_.arcs_[a].marked; }))
            sg_.border_.push_back(e);
    }

    ++state.version;
    if (sg_.repetitive_.empty()) {
        state.core.reset();
        auto order = topological_order(state.structure);
        ensure(order.has_value(), "incremental_engine: rollback left a cycle");
        state.acyclic_order = std::move(*order);
        if (had_core) ++counters_.full_rebuilds;
    } else {
        state.acyclic_order.reset();
        cg_.compile_core(state);
        ++counters_.core_rebuilds;
        if (!had_core) ++counters_.full_rebuilds;
    }

    cg_.scale_ = 0;
    cg_.period_limit_ = 0;
    cg_.scaled_delay_.clear();
    if (cg_.use_fixed_point_) cg_.compile_fixed_point();
    total_mass_ = 0;
    for (const std::int64_t v : cg_.scaled_delay_) total_mass_ += v;
    cg_.bind_core_delays();
    counters_.csr_compactions = state.structure.patch_compactions();
}

// --- public edit API ---------------------------------------------------------

void incremental_engine::apply(const edit_batch& batch)
{
    require(!batch.empty(), "incremental_engine::apply: empty batch");
    std::vector<applied_edit> log;
    log.reserve(batch.size());
    dirty d;
    try {
        for (const graph_edit& e : batch) apply_raw(e, log, d);
        derive(d);
    } catch (...) {
        rollback(log);
        throw;
    }
    undo_log_.push_back(std::move(log));
    ++counters_.batches_applied;
    counters_.edits_applied += batch.size();
}

arc_id incremental_engine::add_arc(event_id from, event_id to, rational delay, bool marked,
                                   bool disengageable)
{
    const auto a = static_cast<arc_id>(sg_.arcs_.size());
    apply({graph_edit::add(from, to, std::move(delay), marked, disengageable)});
    return a;
}

void incremental_engine::remove_arc(arc_id arc) { apply({graph_edit::remove(arc)}); }

void incremental_engine::set_delay(arc_id arc, rational delay)
{
    apply({graph_edit::set_delay_of(arc, std::move(delay))});
}

void incremental_engine::retarget(arc_id arc, event_id from, event_id to)
{
    apply({graph_edit::retarget_to(arc, from, to)});
}

void incremental_engine::set_marking(arc_id arc, bool marked)
{
    apply({graph_edit::set_marking_of(arc, marked)});
}

void incremental_engine::undo()
{
    require(!undo_log_.empty(), "incremental_engine::undo: nothing to undo");
    std::vector<applied_edit> log = std::move(undo_log_.back());
    undo_log_.pop_back();
    dirty d;
    for (auto it = log.rbegin(); it != log.rend(); ++it) invert_raw(*it, d);
    derive(d); // cannot fail validation: the pre-batch state was valid
    ++counters_.undos;
}

// --- analysis ----------------------------------------------------------------

cycle_time_result incremental_engine::analyze(const analysis_options& options)
{
    require(!sg_.repetitive_events().empty(),
            "incremental_engine::analyze: graph has no repetitive events (acyclic — use "
            "analyze_pert)");
    // Straight delegation: bit-identical to analyzing a fresh compile of
    // the edited graph, by the snapshot-equivalence invariant.
    return analyze_cycle_time(cg_, options);
}

cycle_time_result incremental_engine::analyze_warm()
{
    require(!sg_.repetitive_events().empty(),
            "incremental_engine::analyze_warm: graph has no repetitive events (acyclic — "
            "use analyze_pert)");

    // The converged policy survives while the core structure does
    // (structure_version() unchanged — delay-only batches); the problem's
    // delay domain is rebound in place per call.
    if (warm_problem_ && warm_version_ == cg_.structure_version()) {
        rebind_ratio_problem(*warm_problem_, cg_);
        ++counters_.warm_states_kept;
    } else {
        if (warm_problem_) ++counters_.warm_states_dropped;
        warm_problem_.emplace(make_ratio_problem(cg_));
        warm_state_.policy.clear();
        warm_version_ = cg_.structure_version();
    }
    const ratio_result r = max_cycle_ratio_howard(*warm_problem_, howard_options{}, &warm_state_);
    return ratio_cycle_time_result(sg_, *warm_problem_, r.ratio, r.cycle);
}

} // namespace tsg
