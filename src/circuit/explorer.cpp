#include "circuit/explorer.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "circuit/extraction.h"
#include "core/compiled_graph.h"

namespace tsg {

namespace {

/// Dense encoding of (signal values, pending inputs) for hashing.
std::string encode(const circuit_state& state, const std::vector<bool>& pending)
{
    std::string key;
    key.reserve((state.size() + pending.size() + 7) / 8 + 1);
    std::uint8_t acc = 0;
    int bits = 0;
    auto push_bit = [&](bool b) {
        acc = static_cast<std::uint8_t>((acc << 1) | (b ? 1 : 0));
        if (++bits == 8) {
            key.push_back(static_cast<char>(acc));
            acc = 0;
            bits = 0;
        }
    };
    for (std::size_t i = 0; i < state.size(); ++i) push_bit(state.value(static_cast<signal_id>(i)));
    for (const bool b : pending) push_bit(b);
    if (bits > 0) key.push_back(static_cast<char>(acc << (8 - bits)));
    return key;
}

} // namespace

std::vector<signal_id> excited_signals(const netlist& nl, const circuit_state& state,
                                       const std::vector<bool>& pending_inputs)
{
    std::vector<signal_id> out;
    for (signal_id s = 0; s < nl.signal_count(); ++s)
        if (gate_excited(nl, state, s)) out.push_back(s);
    const auto& stimuli = nl.stimuli();
    for (std::size_t i = 0; i < stimuli.size(); ++i)
        if (pending_inputs.at(i)) out.push_back(stimuli[i]);
    std::sort(out.begin(), out.end());
    return out;
}

exploration_result explore_state_space(const netlist& nl, const circuit_state& initial,
                                       std::size_t max_states)
{
    nl.validate();
    require(initial.size() == nl.signal_count(),
            "explore_state_space: state size does not match netlist");

    exploration_result result;

    struct node {
        circuit_state state;
        std::vector<bool> pending;
    };
    std::vector<node> stack;
    std::unordered_map<std::string, bool> seen;

    const std::vector<bool> all_pending(nl.stimuli().size(), true);
    stack.push_back(node{initial, all_pending});
    seen.emplace(encode(initial, all_pending), true);

    auto fire = [&](const node& n, signal_id s) {
        node next = n;
        next.state.toggle(s);
        const auto& stimuli = nl.stimuli();
        for (std::size_t i = 0; i < stimuli.size(); ++i)
            if (stimuli[i] == s && next.pending[i]) next.pending[i] = false;
        return next;
    };

    while (!stack.empty()) {
        const node current = std::move(stack.back());
        stack.pop_back();
        ++result.state_count;

        const std::vector<signal_id> excited = excited_signals(nl, current.state, current.pending);
        for (const signal_id s : excited) {
            const node next = fire(current, s);

            // Semimodularity: everything excited before (except s itself)
            // must remain excited after s fires.
            const std::vector<signal_id> excited_after =
                excited_signals(nl, next.state, next.pending);
            for (const signal_id z : excited) {
                if (z == s) continue;
                if (!std::binary_search(excited_after.begin(), excited_after.end(), z)) {
                    result.semimodular = false;
                    result.violations.push_back(
                        "firing '" + nl.signal_name(s) + "' disables excited '" +
                        nl.signal_name(z) + "'");
                }
            }

            const std::string key = encode(next.state, next.pending);
            if (seen.emplace(key, true).second) {
                if (seen.size() > max_states) {
                    result.complete = false;
                    return result;
                }
                stack.push_back(next);
            }
        }
    }
    return result;
}

corner_exploration_result explore_delay_corners(const netlist& nl,
                                                const circuit_state& initial,
                                                const corner_exploration_options& options)
{
    corner_exploration_result out;
    out.graph = extract_signal_graph(nl, initial).graph;

    // One structural compile; everything below is delay rebinds against it.
    const compiled_graph base(out.graph);
    const scenario_engine engine(base);
    out.nominal_cycle_time = engine.nominal(/*analysis_threads=*/0);

    corner_sweep_options sweep;
    sweep.factor = options.spread;
    out.scenarios = corner_sweep_scenarios(out.graph, sweep);

    if (options.samples > 0) {
        monte_carlo_options mc;
        mc.samples = options.samples;
        mc.seed = options.seed;
        mc.spread = options.spread;
        for (scenario& s : monte_carlo_scenarios(out.graph, mc))
            out.scenarios.push_back(std::move(s));
    }

    scenario_batch_options run;
    run.max_threads = options.max_threads;
    run.lane_width = options.lane_width;
    out.batch = engine.run(out.scenarios, run);
    return out;
}

gate_criticality_result explore_gate_criticality(const netlist& nl,
                                                 const circuit_state& initial,
                                                 const gate_criticality_options& options)
{
    gate_criticality_result out;
    out.graph = extract_signal_graph(nl, initial).graph;

    const compiled_graph base(out.graph);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = options.samples;
    mc.seed = options.seed;
    mc.spread = options.spread;
    mc.max_threads = options.max_threads;

    stats_options stats;
    stats.criticality = true;
    stats.group_by_signal = true;
    stats.max_threads = options.max_threads;
    stats.epsilon = options.epsilon;
    stats.max_samples = options.max_samples;

    out.run = options.epsilon > 0.0 ? monte_carlo_adaptive(engine, out.graph, mc, stats)
                                    : monte_carlo_statistics(engine, out.graph, mc, stats);
    return out;
}

} // namespace tsg
