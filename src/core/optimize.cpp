#include "core/optimize.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/compiled_graph.h"
#include "core/incremental.h"
#include "ratio/condensation.h"
#include "ratio/ratio_problem.h"

namespace tsg {

namespace {

// --- shared helpers ----------------------------------------------------------

/// floor(a / b) for a >= 0, b > 0 — whole allocation quanta in a budget.
std::uint64_t floor_quanta(const rational& a, const rational& b)
{
    if (a.is_negative() || a.is_zero()) return 0;
    const rational q = a / b;
    return static_cast<std::uint64_t>(q.num() / q.den());
}

rational quanta(const rational& step, std::uint64_t n)
{
    return step * rational(static_cast<std::int64_t>(n));
}

/// The allocation quantum: explicit, or budget / 8.
rational resolve_step(const optimize_options& options)
{
    if (rational(0) < options.step) return options.step;
    return options.budget / rational(8);
}

/// Distinct repetitive-core arcs (original ids, ascending) — the only arcs
/// that can move the cycle time.
std::vector<arc_id> core_candidates(const compiled_graph& cg)
{
    const auto& originals = cg.core().arc_original;
    std::vector<arc_id> arcs(originals.begin(), originals.end());
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
    return arcs;
}

void validate_optimize(const optimize_options& options)
{
    if (!(rational(0) < options.budget))
        throw error("invalid_request: optimize needs a positive budget");
    if (options.min_delay.is_negative())
        throw error("invalid_request: optimize floor (min_delay) must be >= 0");
    if (options.mode == optimize_mode::statistical) {
        if (!(rational(0) < options.target))
            throw error("invalid_request: statistical optimize needs a positive target "
                        "(the yield threshold of P(lambda <= target))");
        if (!options.mc.ranges.empty())
            throw error("unsupported: statistical optimize derives Monte Carlo ranges "
                        "from the current delays; explicit ranges are not supported");
        if (!(rational(0) < options.mc.spread) && options.mc.model.sources.empty())
            throw error("unsupported: statistical optimize needs a delay model "
                        "(a positive spread or correlated sources)");
    }
}

/// Builds allocations/edits/budget_spent from the initial delays and the
/// final ones (reductions are multiples of the step by construction).
void record_plan(optimize_result& out, const std::vector<rational>& initial,
                 const std::vector<rational>& final_delay)
{
    out.budget_spent = rational(0);
    for (arc_id a = 0; a < initial.size(); ++a) {
        if (initial[a] == final_delay[a]) continue;
        optimize_allocation alloc;
        alloc.arc = a;
        alloc.old_delay = initial[a];
        alloc.new_delay = final_delay[a];
        alloc.reduction = initial[a] - final_delay[a];
        out.budget_spent += alloc.reduction;
        out.allocations.push_back(alloc);
        out.edits.push_back(graph_edit::set_delay_of(a, final_delay[a]));
    }
}

/// Confirms the planned final cycle time by applying the edit batch through
/// the incremental kernel (delay-only batch, warm re-analysis) — both the
/// consumer contract and a cross-check of the search's bookkeeping.
void confirm_final(optimize_result& out, const signal_graph& sg)
{
    incremental_engine inc(sg);
    if (!out.edits.empty()) inc.apply(out.edits);
    const rational confirmed = inc.analyze_warm().cycle_time;
    ensure(confirmed == out.final_cycle_time,
           "run_optimize: incremental re-analysis disagrees with the search");
}

// --- deterministic optimizer -------------------------------------------------

/// Every nominal evaluation of one deterministic request, counted and
/// deadline-checked.  Lambda-only evaluations run on one warm Howard
/// chain; the initial lambda and the greedy's slack states go through the
/// engine with the requested solver.  Every decision reads only lambda
/// (exact, equal from every solver) or the slack-based critical set (solver
/// independent), so the plan never depends on the solver or thread count.
class det_evaluator {
public:
    det_evaluator(const scenario_engine& engine, const optimize_options& options)
        : engine_(engine), options_(options), chain_(engine.base())
    {
    }

    rational lambda(const std::vector<rational>& delay)
    {
        admit();
        return chain_.solve(delay).ratio;
    }

    rational nominal(const std::vector<rational>& delay)
    {
        admit();
        return engine_
            .evaluate(delay, /*with_slack=*/false, options_.max_threads, options_.solver,
                      /*with_witness=*/false)
            .cycle_time;
    }

    scenario_outcome critical_state(const std::vector<rational>& delay)
    {
        admit();
        return engine_.evaluate(delay, /*with_slack=*/true, options_.max_threads,
                                options_.solver, /*with_witness=*/true);
    }

    [[nodiscard]] std::size_t count() const noexcept { return count_; }

private:
    void admit()
    {
        check_deadline(options_.stats.deadline, count_, "evaluations");
        ++count_;
    }

    const scenario_engine& engine_;
    const optimize_options& options_;
    howard_chain chain_;
    std::size_t count_ = 0;
};

/// Exact branch-and-bound over quantized allocations.  Candidates are
/// visited in ascending arc order and each level tries smaller quanta
/// first, so the first optimum found — and kept, updates require a strict
/// improvement — is the lexicographically smallest per-arc quantum vector.
class det_search {
public:
    struct aborted {}; ///< evaluation cap hit: fall back to greedy

    det_search(det_evaluator& ev, const optimize_options& options,
               const std::vector<arc_id>& cand, const std::vector<std::uint64_t>& cap,
               const rational& step, std::vector<rational> delay, rational initial)
        : ev_(ev),
          options_(options),
          cand_(cand),
          cap_(cap),
          step_(step),
          delay_(std::move(delay)),
          q_(cand.size(), 0),
          best_q_(cand.size(), 0),
          best_(std::move(initial))
    {
    }

    void run(std::uint64_t total) { dfs(0, total); }

    [[nodiscard]] const rational& best() const noexcept { return best_; }
    [[nodiscard]] const std::vector<std::uint64_t>& best_q() const noexcept { return best_q_; }

private:
    rational eval()
    {
        if (evals_ >= options_.max_evaluations) throw aborted{};
        ++evals_;
        return ev_.lambda(delay_);
    }

    void leaf()
    {
        const rational lambda = eval();
        if (lambda < best_) {
            best_ = lambda;
            best_q_ = q_;
        }
    }

    void dfs(std::size_t i, std::uint64_t remaining)
    {
        if (remaining == 0 || i == cand_.size()) {
            leaf();
            return;
        }
        if (i + 1 == cand_.size()) {
            // More reduction never raises the ratio: the last position
            // takes everything it can carry.
            const std::uint64_t take = std::min(cap_[i], remaining);
            q_[i] = take;
            delay_[cand_[i]] -= quanta(step_, take);
            leaf();
            delay_[cand_[i]] += quanta(step_, take);
            q_[i] = 0;
            return;
        }

        // Optimistic bound: every remaining candidate maximally reduced,
        // ignoring that they share the budget.  No completion of this
        // prefix beats it, so bound >= best prunes the subtree (>=, not >,
        // keeps the earlier — lexicographically smaller — incumbent).
        for (std::size_t j = i; j < cand_.size(); ++j)
            delay_[cand_[j]] -= quanta(step_, std::min(cap_[j], remaining));
        const rational bound = eval();
        for (std::size_t j = i; j < cand_.size(); ++j)
            delay_[cand_[j]] += quanta(step_, std::min(cap_[j], remaining));
        if (!(bound < best_)) return;

        const std::uint64_t most = std::min(cap_[i], remaining);
        for (std::uint64_t take = 0; take <= most; ++take) {
            q_[i] = take;
            delay_[cand_[i]] = delay_[cand_[i]] - quanta(step_, take);
            dfs(i + 1, remaining - take);
            delay_[cand_[i]] = delay_[cand_[i]] + quanta(step_, take);
        }
        q_[i] = 0;
    }

    det_evaluator& ev_;
    const optimize_options& options_;
    const std::vector<arc_id>& cand_;
    const std::vector<std::uint64_t>& cap_;
    const rational step_;
    std::vector<rational> delay_;
    std::vector<std::uint64_t> q_;
    std::vector<std::uint64_t> best_q_;
    rational best_;
    std::size_t evals_ = 0;
};

/// Greedy fallback: one quantum at a time to the critical arc whose
/// reduction lowers lambda the most (ties: lowest arc id).  Stops at the
/// target, on budget exhaustion, or when no critical arc improves.
std::vector<rational> greedy_descent(det_evaluator& ev, const optimize_options& options,
                                     const rational& step, std::vector<rational> delay,
                                     std::uint64_t total)
{
    for (std::uint64_t spent = 0; spent < total; ++spent) {
        const scenario_outcome state = ev.critical_state(delay);
        if (rational(0) < options.target && !(options.target < state.cycle_time)) break;

        arc_id best_arc = invalid_arc;
        rational best_lambda = state.cycle_time;
        for (const arc_id a : state.critical_arcs) { // ascending ids
            if (delay[a] - step < options.min_delay) continue;
            delay[a] -= step;
            const rational lambda = ev.lambda(delay);
            delay[a] += step;
            if (lambda < best_lambda) { // strict: first minimum wins the tie
                best_lambda = lambda;
                best_arc = a;
            }
        }
        if (best_arc == invalid_arc) break; // floored or no single-arc gain
        delay[best_arc] -= step;
    }
    return delay;
}

optimize_result optimize_deterministic(const signal_graph& sg, const scenario_engine& engine,
                                       const optimize_options& options)
{
    const compiled_graph& cg = engine.base();
    const rational step = resolve_step(options);
    const std::uint64_t total = floor_quanta(options.budget, step);

    det_evaluator ev(engine, options);
    optimize_result out;
    out.mode = optimize_mode::deterministic;
    out.initial_cycle_time = ev.nominal(cg.delay());

    const std::vector<arc_id> arcs = core_candidates(cg);
    std::vector<arc_id> cand;
    std::vector<std::uint64_t> cap;
    for (const arc_id a : arcs) {
        const std::uint64_t c = floor_quanta(cg.delay()[a] - options.min_delay, step);
        if (c == 0) continue;
        cand.push_back(a);
        cap.push_back(c);
    }
    out.candidates = cand.size();

    std::vector<rational> final_delay = cg.delay();
    out.final_cycle_time = out.initial_cycle_time;
    out.exact = true;
    if (total > 0 && !cand.empty()) {
        det_search search(ev, options, cand, cap, step, cg.delay(), out.initial_cycle_time);
        try {
            search.run(total);
            out.final_cycle_time = search.best();
            for (std::size_t i = 0; i < cand.size(); ++i)
                final_delay[cand[i]] -= quanta(step, search.best_q()[i]);
        } catch (const det_search::aborted&) {
            out.exact = false;
            final_delay = greedy_descent(ev, options, step, cg.delay(), total);
            out.final_cycle_time = ev.lambda(final_delay);
        }
    }
    out.evaluations = ev.count();

    record_plan(out, cg.delay(), final_delay);
    out.target_reached = rational(0) < options.target &&
                         !(options.target < out.final_cycle_time);
    confirm_final(out, sg);
    return out;
}

// --- statistical optimizer ---------------------------------------------------

/// Monte Carlo ranges around the *current* delays: nominal * (1 -/+ spread),
/// clamped at zero — the moving equivalent of the generator's default.
std::vector<delay_range> ranges_around(const std::vector<rational>& delay,
                                       const rational& spread)
{
    std::vector<delay_range> ranges(delay.size());
    const rational down = rational(1) - spread;
    const rational up = rational(1) + spread;
    for (std::size_t a = 0; a < delay.size(); ++a) {
        const rational lo = delay[a] * down;
        ranges[a].lo = lo.is_negative() ? rational(0) : lo;
        ranges[a].hi = delay[a] * up;
    }
    return ranges;
}

optimize_result optimize_statistical(const signal_graph& sg, const scenario_engine& engine,
                                     const optimize_options& options)
{
    const compiled_graph& cg = engine.base();
    const rational step = resolve_step(options);
    const std::uint64_t total = floor_quanta(options.budget, step);
    const std::size_t fan = std::max<std::size_t>(options.max_candidates, 1);

    stats_options stats = options.stats;
    stats.yield_target = options.target;
    stats.yield_objective = true;
    stats.group_by_signal = false;
    if (stats.epsilon <= 0.0) stats.epsilon = 0.05;
    stats.solver = options.solver;
    stats.max_threads = options.max_threads;

    monte_carlo_options mc = options.mc;
    mc.first_sample = 0; // common random numbers across every evaluation

    optimize_result out;
    out.mode = optimize_mode::statistical;

    // Committed state: delay-only edits keep the warm Howard policy alive,
    // so the nominal-lambda trajectory is a sequence of warm re-analyses.
    incremental_engine inc(sg);
    out.initial_cycle_time = inc.analyze().cycle_time;
    out.final_cycle_time = out.initial_cycle_time;

    std::vector<rational> delay = cg.delay();
    const std::vector<rational> initial_delay = delay;

    const auto evaluate = [&](bool with_criticality) {
        stats_options se = stats;
        se.criticality = with_criticality;
        monte_carlo_options me = mc;
        me.ranges = ranges_around(delay, mc.spread);
        stats_run_result r = monte_carlo_adaptive(engine, sg, me, se);
        ++out.evaluations;
        out.samples += r.stats.count();
        return r;
    };

    stats_run_result cur = evaluate(/*with_criticality=*/true);
    out.initial_yield = cur.stats.yield_probability();
    out.initial_yield_ci_half_width = cur.stats.yield_ci_half_width(stats.confidence_z);

    // Criticality-ranked candidates: probability descending, arc ascending.
    const auto ranked_candidates = [&](const stats_run_result& run) {
        const std::vector<std::uint64_t>& crit = run.stats.criticality_count();
        std::vector<std::pair<std::uint64_t, arc_id>> order;
        for (arc_id a = 0; a < crit.size(); ++a)
            if (crit[a] > 0 && !(delay[a] - step < options.min_delay))
                order.emplace_back(crit[a], a);
        std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
            if (x.first != y.first) return x.first > y.first;
            return x.second < y.second;
        });
        std::vector<arc_id> cand;
        for (const auto& [count, a] : order) {
            cand.push_back(a);
            if (cand.size() == fan) break;
        }
        return std::pair<std::vector<arc_id>, std::size_t>(std::move(cand), order.size());
    };

    for (std::uint64_t spent = 0; spent < total; ++spent) {
        if (cur.stats.yield_count() == cur.stats.count()) break; // every sample passes

        const auto [cand, eligible] = ranked_candidates(cur);
        out.candidates = std::max(out.candidates, eligible);
        if (cand.empty()) break; // no probabilistically critical arc has headroom

        const double cur_yield = cur.stats.yield_probability();
        const double cur_ci = cur.stats.yield_ci_half_width(stats.confidence_z);

        arc_id best_arc = invalid_arc;
        double best_yield = -1.0;
        double best_ci = 0.0;
        for (const arc_id c : cand) {
            delay[c] -= step;
            const stats_run_result probe = evaluate(/*with_criticality=*/false);
            delay[c] += step;
            const double y = probe.stats.yield_probability();
            if (y > best_yield) { // strict: criticality rank breaks ties
                best_yield = y;
                best_ci = probe.stats.yield_ci_half_width(stats.confidence_z);
                best_arc = c;
            }
        }

        // CI-aware accept/reject: commit unless the best step is worse than
        // the incumbent beyond the joint confidence intervals.
        if (best_yield + best_ci < cur_yield - cur_ci) break;

        delay[best_arc] -= step;
        inc.set_delay(best_arc, delay[best_arc]);
        out.final_cycle_time = inc.analyze_warm().cycle_time;
        cur = evaluate(/*with_criticality=*/true);

        optimize_step record;
        record.arc = best_arc;
        record.reduction = step;
        record.cycle_time_after = out.final_cycle_time;
        record.yield_after = cur.stats.yield_probability();
        record.yield_ci_half_width = cur.stats.yield_ci_half_width(stats.confidence_z);
        record.samples = cur.stats.count();
        out.steps.push_back(std::move(record));
    }

    out.final_yield = cur.stats.yield_probability();
    out.final_yield_ci_half_width = cur.stats.yield_ci_half_width(stats.confidence_z);
    record_plan(out, initial_delay, delay);
    out.target_reached = !(options.target < out.final_cycle_time);
    return out;
}

// --- deterministic top-K (Lawler partitioning) -------------------------------

struct peel_entry {
    rational ratio;
    std::vector<arc_id> canonical; ///< original (sg) arcs, canonical rotation
    std::vector<arc_id> excluded;  ///< excluded base-problem arcs, ascending
};

/// Total order for the peel heap: higher ratio first, then canonical arc
/// order, then the exclusion mask (a deterministic final tie-break for
/// duplicate identities reached through different subproblems).
bool peel_worse(const peel_entry& a, const peel_entry& b)
{
    if (a.ratio != b.ratio) return a.ratio < b.ratio;
    if (a.canonical != b.canonical) return a.canonical > b.canonical;
    return a.excluded > b.excluded;
}

/// Enriches one canonical cycle with its exact nominal data.
topk_cycle make_topk_cycle(const signal_graph& sg, const compiled_graph& cg,
                           std::vector<arc_id> canonical, const rational& lambda)
{
    topk_cycle out;
    out.arcs = std::move(canonical);
    out.delay = rational(0);
    for (const arc_id a : out.arcs) {
        out.events.push_back(sg.arc(a).from);
        out.delay += cg.delay()[a];
        if (sg.arc(a).marked) ++out.tokens;
    }
    ensure(out.tokens > 0, "report_topk: token-free cycle (excluded by liveness)");
    out.ratio = out.delay / rational(static_cast<std::int64_t>(out.tokens));
    out.slack = lambda * rational(static_cast<std::int64_t>(out.tokens)) - out.delay;
    for (const arc_id a : out.arcs) {
        topk_arc_contribution c;
        c.arc = a;
        c.delay = cg.delay()[a];
        c.share = out.delay.is_zero() ? 0.0 : (c.delay / out.delay).to_double();
        out.contributions.push_back(std::move(c));
    }
    return out;
}

topk_result topk_deterministic(const signal_graph& sg, const compiled_graph& cg,
                               const topk_options& options)
{
    const ratio_problem base = make_ratio_problem(cg);
    const std::size_t arc_count = base.graph.arc_count();
    const std::size_t cap = options.max_expansions > 0
                                ? options.max_expansions
                                : std::max<std::size_t>(64, 32 * options.k);

    topk_result out;
    out.mode = optimize_mode::deterministic;

    condensation_options copts;
    copts.max_threads = options.max_threads;

    // Original arc -> live base arc (incrementally patched cores keep
    // tombstones, whose original ids may repeat a live arc's).
    std::vector<arc_id> base_of(sg.arc_count(), invalid_arc);
    for (arc_id a = 0; a < arc_count; ++a)
        if (base.graph.live(a))
            base_of[base.arc_original.empty() ? a : base.arc_original[a]] = a;

    // Solves the subproblem with the masked arcs removed; nullopt when no
    // cycle survives (max_cycle_ratio_condensed throws exactly then —
    // token-free cycles cannot appear in subgraphs of a live core).
    const auto solve =
        [&](const std::vector<arc_id>& excluded) -> std::optional<peel_entry> {
        check_deadline(options.deadline, out.solves, "solves");
        std::vector<std::uint8_t> mask(arc_count, 0);
        for (const arc_id a : excluded) mask[a] = 1;
        ratio_problem sub;
        sub.graph.add_nodes(base.graph.node_count());
        sub.scale = base.scale;
        std::vector<arc_id> to_base;
        for (arc_id a = 0; a < arc_count; ++a) {
            if (mask[a] || !base.graph.live(a)) continue;
            sub.graph.add_arc(base.graph.from(a), base.graph.to(a));
            sub.delay.push_back(base.delay[a]);
            sub.transit.push_back(base.transit[a]);
            if (sub.scale != 0) sub.scaled_delay.push_back(base.scaled_delay[a]);
            to_base.push_back(a);
        }
        if (sub.graph.arc_count() == 0) return std::nullopt;
        sub.graph.freeze();
        condensed_ratio_result solved;
        try {
            solved = max_cycle_ratio_condensed(sub, copts);
        } catch (const error&) {
            return std::nullopt; // no component contains a cycle
        }
        ++out.solves;
        peel_entry entry;
        entry.ratio = solved.ratio;
        std::vector<arc_id> original;
        original.reserve(solved.cycle.size());
        for (const arc_id a : solved.cycle) {
            const arc_id b = to_base[a];
            original.push_back(base.arc_original.empty() ? b : base.arc_original[b]);
        }
        entry.canonical = canonical_cycle(std::move(original));
        entry.excluded = excluded;
        return entry;
    };

    std::vector<peel_entry> heap;
    const auto push = [&](peel_entry entry) {
        heap.push_back(std::move(entry));
        std::push_heap(heap.begin(), heap.end(), peel_worse);
    };
    const auto pop = [&]() {
        std::pop_heap(heap.begin(), heap.end(), peel_worse);
        peel_entry entry = std::move(heap.back());
        heap.pop_back();
        return entry;
    };

    std::optional<peel_entry> root = solve({});
    if (!root) throw error("invalid_request: report_topk requires a cyclic graph");
    out.cycle_time = root->ratio;
    push(std::move(*root));

    // Ratio plateaus: entries at the top ratio are collected until the heap
    // top drops strictly below it, then flushed in canonical arc order —
    // the exact (ratio desc, canonical asc) report order.
    std::set<std::vector<arc_id>> seen;
    std::set<std::vector<arc_id>> explored; ///< exclusion sets already expanded
    std::vector<peel_entry> plateau;
    const auto flush_plateau = [&]() {
        std::sort(plateau.begin(), plateau.end(),
                  [](const peel_entry& a, const peel_entry& b) {
                      return a.canonical < b.canonical;
                  });
        for (peel_entry& entry : plateau) {
            if (out.cycles.size() >= options.k) break;
            out.cycles.push_back(
                make_topk_cycle(sg, cg, std::move(entry.canonical), out.cycle_time));
        }
        plateau.clear();
    };

    std::size_t expansions = 0;
    while (!heap.empty() && out.cycles.size() < options.k) {
        if (!plateau.empty() && heap.front().ratio < plateau.front().ratio) {
            flush_plateau();
            if (out.cycles.size() >= options.k) break;
        }
        if (expansions >= cap) {
            out.truncated = true; // order beyond this point not confirmed
            break;
        }
        peel_entry entry = pop();
        ++expansions;
        // Every cycle of this subproblem other than the witness misses at
        // least one witness arc: the children jointly cover the remainder.
        // Children expand in canonical order; the heap's total order makes
        // the expansion order irrelevant to what is solved and reported.
        if (explored.insert(entry.excluded).second) {
            for (const arc_id orig : entry.canonical) {
                const arc_id x = base_of[orig];
                std::vector<arc_id> child = entry.excluded;
                child.insert(std::lower_bound(child.begin(), child.end(), x), x);
                if (explored.count(child)) continue;
                if (std::optional<peel_entry> solved = solve(child))
                    push(std::move(*solved));
            }
        }
        if (seen.insert(entry.canonical).second) plateau.push_back(std::move(entry));
    }
    if (out.cycles.size() < options.k) flush_plateau();
    if (out.cycles.size() < options.k) out.truncated = true;
    return out;
}

// --- statistical top-K -------------------------------------------------------

topk_result topk_statistical(const signal_graph& sg, const compiled_graph& cg,
                             const scenario_engine& engine, const topk_options& options)
{
    if (options.samples == 0)
        throw error("invalid_request: statistical report_topk needs samples >= 1");
    if (!(rational(0) < options.mc.spread) && options.mc.model.sources.empty() &&
        options.mc.ranges.empty())
        throw error("unsupported: statistical report_topk needs a delay model "
                    "(a positive spread, ranges, or correlated sources)");

    topk_result out;
    out.mode = optimize_mode::statistical;
    out.cycle_time =
        engine.evaluate(cg.delay(), /*with_slack=*/false, options.max_threads, options.solver,
                        /*with_witness=*/false)
            .cycle_time;

    scenario_batch_options bopts;
    bopts.max_threads = options.max_threads;
    bopts.with_slack = false;
    bopts.with_witness = true;
    bopts.solver = options.solver;
    bopts.lane_width = options.lane_width;

    struct tally {
        std::size_t count = 0;
        std::size_t first_index = 0;
    };
    std::map<std::vector<arc_id>, tally> witnesses;

    const std::size_t have = monte_carlo_rounds(
        engine, sg, options.mc, /*table=*/nullptr, options.samples, /*round_samples=*/0, bopts,
        options.deadline,
        [&](const scenario_batch_result& batch, std::size_t first) {
            for (const critical_cycle_stat& stat : batch.critical_cycles) {
                const auto [it, inserted] = witnesses.try_emplace(
                    stat.arcs, tally{stat.count, first + stat.first_index});
                if (!inserted) it->second.count += stat.count;
            }
            return true;
        });
    out.samples = have;

    // Rank: count descending, first appearance ascending (first indices of
    // distinct identities are distinct — each sample has one witness).
    std::vector<std::pair<const std::vector<arc_id>*, tally>> ranked;
    for (const auto& [arcs, t] : witnesses) ranked.emplace_back(&arcs, t);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.second.count != b.second.count) return a.second.count > b.second.count;
        return a.second.first_index < b.second.first_index;
    });

    const double n = static_cast<double>(have);
    for (const auto& [arcs, t] : ranked) {
        if (out.cycles.size() >= options.k) break;
        topk_cycle cycle = make_topk_cycle(sg, cg, *arcs, out.cycle_time);
        cycle.count = t.count;
        cycle.first_index = t.first_index;
        cycle.probability = static_cast<double>(t.count) / n;
        cycle.ci_half_width = options.confidence_z *
                              std::sqrt(cycle.probability * (1.0 - cycle.probability) / n);
        out.cycles.push_back(std::move(cycle));
    }
    out.truncated = out.cycles.size() < options.k;
    return out;
}

} // namespace

// --- entry points ------------------------------------------------------------

optimize_result run_optimize(const signal_graph& sg, const scenario_engine& engine,
                             const optimize_options& options)
{
    require(sg.finalized(), "run_optimize: graph must be finalized");
    validate_optimize(options);
    if (!engine.base().has_core())
        throw error("invalid_request: optimize requires a repetitive (cyclic) graph");
    return options.mode == optimize_mode::deterministic
               ? optimize_deterministic(sg, engine, options)
               : optimize_statistical(sg, engine, options);
}

optimize_result run_optimize(const signal_graph& sg, const optimize_options& options)
{
    require(sg.finalized(), "run_optimize: graph must be finalized");
    const compiled_graph cg(sg);
    const scenario_engine engine(cg);
    return run_optimize(sg, engine, options);
}

topk_result report_topk(const signal_graph& sg, const compiled_graph& cg,
                        const scenario_engine& engine, const topk_options& options)
{
    require(sg.finalized(), "report_topk: graph must be finalized");
    if (options.k == 0) throw error("invalid_request: report_topk needs k >= 1");
    if (!cg.has_core())
        throw error("invalid_request: report_topk requires a repetitive (cyclic) graph");
    return options.mode == optimize_mode::deterministic
               ? topk_deterministic(sg, cg, options)
               : topk_statistical(sg, cg, engine, options);
}

topk_result report_topk(const signal_graph& sg, const topk_options& options)
{
    require(sg.finalized(), "report_topk: graph must be finalized");
    const compiled_graph cg(sg);
    const scenario_engine engine(cg);
    return report_topk(sg, cg, engine, options);
}

} // namespace tsg
