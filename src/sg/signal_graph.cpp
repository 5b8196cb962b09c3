#include "sg/signal_graph.h"

#include <algorithm>
#include <cctype>

#include "graph/scc.h"
#include "graph/topo.h"

namespace tsg {

parsed_event_name parse_event_name(const std::string& name)
{
    parsed_event_name parsed;
    if (name.size() < 2) return parsed;
    const char last = name.back();
    if (last != '+' && last != '-') return parsed;
    parsed.signal = name.substr(0, name.size() - 1);
    parsed.pol = last == '+' ? polarity::rise : polarity::fall;
    return parsed;
}

event_id signal_graph::add_event(const std::string& name)
{
    const parsed_event_name parsed = parse_event_name(name);
    return add_event(name, parsed.signal, parsed.pol);
}

event_id signal_graph::add_event(const std::string& name, std::string signal, polarity pol)
{
    require(!finalized_, "signal_graph: cannot add events after finalize()");
    require(!name.empty(), "signal_graph: event name must not be empty");
    if (by_name_.find(name) != by_name_.end())
        throw error("signal_graph: duplicate event name '" + name + "'");

    const event_id e = structure_.add_node();
    events_.push_back(event_info{name, std::move(signal), pol, event_kind::repetitive});
    by_name_.emplace(name, e);
    return e;
}

arc_id signal_graph::add_arc(event_id from, event_id to, rational delay, bool marked,
                             bool disengageable)
{
    require(!finalized_, "signal_graph: cannot add arcs after finalize()");
    require(from < event_count() && to < event_count(), "signal_graph: bad arc endpoint");
    if (delay.is_negative())
        throw error("signal_graph: negative delay on arc " + events_[from].name + " -> " +
                    events_[to].name);

    const arc_id a = structure_.add_arc(from, to);
    arcs_.push_back(arc_info{from, to, delay, marked, disengageable});
    ensure(a + 1 == arcs_.size(), "signal_graph: arc id desynchronized");
    return a;
}

event_id signal_graph::find_event(const std::string& name) const
{
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? invalid_node : it->second;
}

event_id signal_graph::event_by_name(const std::string& name) const
{
    const event_id e = find_event(name);
    if (e == invalid_node) throw error("signal_graph: no event named '" + name + "'");
    return e;
}

void signal_graph::finalize()
{
    require(!finalized_, "signal_graph: finalize() called twice");
    require(event_count() > 0, "signal_graph: empty graph");
    classify_events();
    validate();
    finalized_ = true;
}

void signal_graph::classify_events()
{
    const std::vector<bool> cyclic = nodes_on_cycles(structure_);

    repetitive_.clear();
    initial_.clear();
    transient_.clear();
    for (event_id e = 0; e < event_count(); ++e) {
        if (cyclic[e]) {
            events_[e].kind = event_kind::repetitive;
            repetitive_.push_back(e);
        } else if (structure_.in_degree(e) == 0) {
            events_[e].kind = event_kind::initial;
            initial_.push_back(e);
        } else {
            events_[e].kind = event_kind::transient;
            transient_.push_back(e);
        }
    }

    // Arcs out of one-shot events only constrain the first occurrence of
    // their target; the paper draws them crossed.  Normalize the flag so
    // clients need not set it by hand.
    for (arc_id a = 0; a < arc_count(); ++a)
        if (structure_.is_live(a) &&
            events_[arcs_[a].from].kind != event_kind::repetitive)
            arcs_[a].disengageable = true;

    border_.clear();
    for (const event_id e : repetitive_) {
        const bool has_marked_in = std::any_of(
            structure_.in_arcs(e).begin(), structure_.in_arcs(e).end(),
            [&](arc_id a) { return arcs_[a].marked; });
        if (has_marked_in) border_.push_back(e);
    }
}

void signal_graph::validate()
{
    // No repetitive event may precede a disengageable arc (well-formedness,
    // Section III.A), and arcs from repetitive to one-shot events would make
    // the graph unbounded (tokens accumulate on the arc forever).
    for (arc_id id = 0; id < arc_count(); ++id) {
        if (!structure_.is_live(id)) continue;
        const arc_info& arc = arcs_[id];
        const bool from_repetitive = events_[arc.from].kind == event_kind::repetitive;
        const bool to_repetitive = events_[arc.to].kind == event_kind::repetitive;
        if (arc.disengageable && from_repetitive)
            throw error("signal_graph: disengageable arc sourced at repetitive event '" +
                        events_[arc.from].name + "' violates well-formedness");
        if (from_repetitive && !to_repetitive)
            throw error("signal_graph: arc from repetitive '" + events_[arc.from].name +
                        "' to one-shot '" + events_[arc.to].name +
                        "' makes the graph unbounded");
    }

    if (repetitive_.empty()) return; // purely acyclic graph: PERT territory

    // The repetitive core must be one strongly connected component.
    const core_view core = repetitive_core();
    require(is_strongly_connected(core.graph),
            "signal_graph: repetitive events do not form one strongly connected component");

    // Liveness: every cycle must carry an initial token, i.e. the token-free
    // core subgraph must be acyclic.
    std::vector<bool> token_free(core.graph.arc_count(), false);
    for (arc_id a = 0; a < core.graph.arc_count(); ++a)
        token_free[a] = !arcs_[core.arc_original[a]].marked;
    require(topological_order_filtered(core.graph, token_free).has_value(),
            "signal_graph: not live — some cycle carries no initial token");
}

void signal_graph::require_finalized() const
{
    require(finalized_, "signal_graph: call finalize() before analysis queries");
}

const std::vector<event_id>& signal_graph::repetitive_events() const
{
    require_finalized();
    return repetitive_;
}

const std::vector<event_id>& signal_graph::initial_events() const
{
    require_finalized();
    return initial_;
}

const std::vector<event_id>& signal_graph::transient_events() const
{
    require_finalized();
    return transient_;
}

const std::vector<event_id>& signal_graph::border_events() const
{
    require_finalized();
    return border_;
}

std::size_t signal_graph::token_count() const
{
    return static_cast<std::size_t>(
        std::count_if(arcs_.begin(), arcs_.end(), [](const arc_info& a) { return a.marked; }));
}

rational signal_graph::path_delay(const std::vector<arc_id>& arcs) const
{
    rational total(0);
    for (const arc_id a : arcs) total += arcs_.at(a).delay;
    return total;
}

signal_graph::core_view signal_graph::repetitive_core() const
{
    const std::vector<bool> cyclic = nodes_on_cycles(structure_);

    // Size everything up front: the rebuild loops below are hot for the
    // analyses that extract the core repeatedly on large graphs.
    std::size_t core_nodes = 0;
    for (event_id e = 0; e < event_count(); ++e)
        if (cyclic[e]) ++core_nodes;
    std::size_t core_arcs = 0;
    for (arc_id a = 0; a < arc_count(); ++a)
        if (structure_.is_live(a) && cyclic[arcs_[a].from] && cyclic[arcs_[a].to])
            ++core_arcs;

    core_view core;
    core.event_node.assign(event_count(), invalid_node);
    core.node_event.reserve(core_nodes);
    core.graph.reserve_nodes(core_nodes);
    core.graph.reserve_arcs(core_arcs);
    core.arc_original.reserve(core_arcs);
    for (event_id e = 0; e < event_count(); ++e) {
        if (!cyclic[e]) continue;
        core.event_node[e] = core.graph.add_node();
        core.node_event.push_back(e);
    }
    for (arc_id a = 0; a < arc_count(); ++a) {
        if (!structure_.is_live(a)) continue;
        const auto& arc = arcs_[a];
        const node_id u = core.event_node[arc.from];
        const node_id v = core.event_node[arc.to];
        if (u == invalid_node || v == invalid_node) continue;
        core.graph.add_arc(u, v);
        core.arc_original.push_back(a);
    }
    return core;
}

} // namespace tsg
