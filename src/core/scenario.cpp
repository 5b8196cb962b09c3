#include "core/scenario.h"

#include <algorithm>
#include <limits>
#include <map>

#include "core/lane_domain.h"
#include "core/pert.h"
#include "core/slack.h"
#include "ratio/howard.h"
#include "util/prng.h"

namespace tsg {

std::vector<arc_id> canonical_cycle(std::vector<arc_id> arcs)
{
    if (arcs.empty()) return arcs;
    const auto smallest = std::min_element(arcs.begin(), arcs.end());
    std::rotate(arcs.begin(), smallest, arcs.end());
    return arcs;
}

namespace {

using core_view = compiled_graph::core_view;

/// Which solver a batch actually runs: resolved once, against the base
/// snapshot's structure.
cycle_time_solver resolve_batch_solver(const compiled_graph& base, cycle_time_solver requested)
{
    if (!base.has_core()) return cycle_time_solver::border_sweep; // PERT path, moot
    return resolve_cycle_time_solver(requested, base.source().border_events().size(),
                                     base.core().graph.arc_count());
}

/// Shared tail of every cyclic-scenario evaluation: critical arcs from the
/// slack layer (every critical cycle + margin), or the sorted witness when
/// slack is off (nothing without the witness).  `out.cycle_time` must
/// already hold lambda.
void finish_cyclic_outcome(scenario_outcome& out, const compiled_graph& bound,
                           bool with_slack, bool with_witness,
                           const std::vector<arc_id>& witness_arcs)
{
    if (with_slack) {
        const slack_result slack = analyze_slack(bound, out.cycle_time);
        out.criticality_margin = slack.criticality_margin;
        for (arc_id a = 0; a < slack.arc_critical.size(); ++a)
            if (slack.arc_critical[a]) out.critical_arcs.push_back(a);
    } else if (with_witness) {
        out.critical_arcs = witness_arcs;
        std::sort(out.critical_arcs.begin(), out.critical_arcs.end());
    }
}

} // namespace

scenario_outcome scenario_engine::evaluate(const std::vector<rational>& delay,
                                           bool with_slack, unsigned analysis_threads,
                                           cycle_time_solver solver, bool with_witness) const
{
    const compiled_graph bound = base_->rebind(delay);
    scenario_outcome out;
    if (!bound.has_core()) {
        // Acyclic: the what-if quantity is the PERT makespan.
        const pert_result pert = analyze_pert(bound);
        out.cycle_time = pert.makespan;
        out.fixed_point = bound.fixed_point();
        if (with_witness) {
            out.critical_arcs = pert.critical_arcs;
            std::sort(out.critical_arcs.begin(), out.critical_arcs.end());
        }
        return out;
    }

    analysis_options opts;
    opts.max_threads = analysis_threads;
    opts.solver = solver;
    const cycle_time_result ct = analyze_cycle_time(bound, opts);
    out.cycle_time = ct.cycle_time;
    out.fixed_point = ct.periods_used > 0 ? bound.fixed_point_for_periods(ct.periods_used)
                                          : bound.fixed_point();
    if (with_witness) out.critical_cycle = canonical_cycle(ct.critical_cycle_arcs);
    finish_cyclic_outcome(out, bound, with_slack, with_witness, ct.critical_cycle_arcs);
    return out;
}

howard_chain::howard_chain(const compiled_graph& base)
    : base_(&base), problem_(make_ratio_problem(base))
{
}

ratio_result howard_chain::solve(const std::vector<rational>& delay)
{
    bound_ = base_->rebind(delay);
    rebind_ratio_problem(problem_, *bound_);
    ratio_result r = max_cycle_ratio_howard(problem_, howard_options{}, &state_);
#ifndef NDEBUG
    // Policy iteration is start-independent at the fixed point; a warm
    // start changing lambda would be a library bug.
    ensure(max_cycle_ratio_howard(problem_).ratio == r.ratio,
           "howard_chain: warm-started Howard diverged from cold start");
#endif
    return r;
}

namespace {

/// One scenario of a Howard batch worker's chain, with the witness mapped
/// to canonical original arcs.
scenario_outcome evaluate_howard_warm(howard_chain& chain, const std::vector<rational>& delay,
                                      bool with_slack, bool with_witness)
{
    const ratio_result r = chain.solve(delay);
    scenario_outcome out;
    out.cycle_time = r.ratio;
    out.fixed_point = r.fixed_point;
    std::vector<arc_id> cycle;
    cycle.reserve(r.cycle.size());
    for (const arc_id a : r.cycle) cycle.push_back(chain.problem().arc_original[a]);
    cycle = canonical_cycle(std::move(cycle));
    finish_cyclic_outcome(out, chain.bound(), with_slack, with_witness, cycle);
    if (with_witness) out.critical_cycle = std::move(cycle);
    return out;
}

// --- lane-batched path -------------------------------------------------------

/// Per-worker reusable state for the lane path: the SoA domain, the sweep
/// workspace, the per-group result slots and the rationals of lanes that
/// need them.
struct lane_worker_state {
    lane_domain dom;
    lane_workspace ws;
    std::vector<lane_cycle_time> ct;
    std::vector<lane_pert> pert;
    std::vector<slack_result> slack;
    std::vector<rational> lambda;
    std::vector<std::vector<rational>> scratch;      ///< per lane, storage reused
    std::vector<const std::vector<rational>*> built; ///< per lane, once built
    std::vector<std::uint8_t> mark; ///< arc bitmap for O(m) witness sorting
};

/// Ascending copy of a set of *distinct* arc ids via an arc bitmap — the
/// witness cycles the lane path sorts are O(n) long, and one linear scan
/// over the arc space beats a comparison sort's branch-miss storm.  The
/// output order equals std::sort's (distinct keys), bit for bit.
std::vector<arc_id> sorted_arcs_via_bitmap(const std::vector<arc_id>& arcs,
                                           std::vector<std::uint8_t>& mark,
                                           std::size_t arc_count)
{
    mark.assign(arc_count, 0); // assign reuses capacity; the fill is vectorized
    for (const arc_id a : arcs) mark[a] = 1;
    std::vector<arc_id> out;
    out.reserve(arcs.size());
    for (arc_id a = 0; a < arc_count; ++a)
        if (mark[a]) out.push_back(a);
    return out;
}

/// Evaluates one full lane group: scenarios [first, first + width) of
/// `source`.  Each lane's row comes from the source's int64 image, or else
/// from its rationals.  Evicted lanes fall back to the engine's scalar
/// rational path one by one; sibling lanes stay in the SoA sweep.  Returns
/// the eviction count.
std::size_t run_lane_group(const scenario_engine& engine, const compiled_graph& base,
                           const scenario_source& source, std::size_t first, unsigned width,
                           bool cyclic, std::uint32_t periods, bool with_slack,
                           bool with_witness, cycle_time_solver solver,
                           lane_worker_state& st, scenario_outcome* out)
{
    st.scratch.resize(width);
    st.built.assign(width, nullptr);
    const auto rationals = [&](unsigned l) -> const std::vector<rational>& {
        if (!st.built[l]) st.built[l] = &source.delays(first + l, st.scratch[l]);
        return *st.built[l];
    };
    st.dom.rebind_lanes(
        base, width, periods,
        [&](unsigned l, fixed_point_domain& domain) {
            return source.image(first + l, periods, domain);
        },
        rationals);

    if (cyclic) {
        st.ct.resize(width);
        analyze_cycle_time_lanes(base, st.dom, periods, st.ws, st.ct, with_witness);
        if (with_slack) {
            st.lambda.assign(width, rational(0));
            for (unsigned l = 0; l < width; ++l)
                if (!st.dom.evicted(l)) st.lambda[l] = st.ct[l].cycle_time;
            st.slack.resize(width);
            analyze_slack_lanes(base, st.dom, rationals, st.lambda, st.ws, st.slack);
        }
        for (unsigned l = 0; l < width; ++l) {
            if (st.dom.evicted(l)) {
                out[l] = engine.evaluate(rationals(l), with_slack, 1, solver, with_witness);
                continue;
            }
            scenario_outcome o;
            o.cycle_time = st.ct[l].cycle_time;
            o.fixed_point = true; // non-evicted == the scalar rebind stayed fixed-point
            if (with_slack) {
                const slack_result& sl = st.slack[l];
                o.criticality_margin = sl.criticality_margin;
                for (arc_id a = 0; a < sl.arc_critical.size(); ++a)
                    if (sl.arc_critical[a]) o.critical_arcs.push_back(a);
            } else if (with_witness) {
                o.critical_arcs = sorted_arcs_via_bitmap(st.ct[l].critical_cycle_arcs,
                                                         st.mark, base.delay().size());
            }
            if (with_witness)
                o.critical_cycle = canonical_cycle(std::move(st.ct[l].critical_cycle_arcs));
            out[l] = std::move(o);
        }
    } else {
        st.pert.resize(width);
        analyze_pert_lanes(base, st.dom, st.ws, st.pert);
        for (unsigned l = 0; l < width; ++l) {
            if (st.dom.evicted(l)) {
                out[l] = engine.evaluate(rationals(l), with_slack, 1, solver, with_witness);
                continue;
            }
            scenario_outcome o;
            o.cycle_time = st.pert[l].makespan;
            o.fixed_point = true;
            if (with_witness) {
                o.critical_arcs = st.pert[l].critical_arcs;
                std::sort(o.critical_arcs.begin(), o.critical_arcs.end());
            }
            out[l] = std::move(o);
        }
    }
    return st.dom.evicted_count();
}

/// A materialized batch read by index: no image, no copies.
class vector_source final : public scenario_source {
public:
    explicit vector_source(const std::vector<scenario>& scenarios) : scenarios_(&scenarios) {}

    [[nodiscard]] std::size_t size() const override { return scenarios_->size(); }
    [[nodiscard]] std::string label(std::size_t i) const override
    {
        return (*scenarios_)[i].label;
    }
    [[nodiscard]] const std::vector<rational>& delays(std::size_t i,
                                                      std::vector<rational>&) const override
    {
        return (*scenarios_)[i].delay;
    }

private:
    const std::vector<scenario>* scenarios_;
};

} // namespace

thread_pool& scenario_engine::acquire_pool(unsigned max_threads) const
{
    const unsigned resolved = resolve_thread_count(max_threads);
    if (!pool_ || pool_->thread_count() != resolved)
        pool_ = std::make_unique<thread_pool>(resolved);
    return *pool_;
}

scenario_batch_result scenario_engine::run(const std::vector<scenario>& scenarios,
                                           const scenario_batch_options& options) const
{
    return run(vector_source(scenarios), options);
}

scenario_batch_result scenario_engine::run(const scenario_source& source,
                                           const scenario_batch_options& options) const
{
    const std::size_t count = source.size();
    require(count > 0, "scenario_engine::run: empty batch");
    require(options.lane_width == 0 || options.lane_width == 1 || options.lane_width == 2 ||
                options.lane_width == 4 || options.lane_width == 8 ||
                options.lane_width == 16,
            "scenario_engine::run: lane_width must be 0 (auto), 1, 2, 4, 8 or 16");

    scenario_batch_result out;
    out.outcomes.resize(count);

    // The engine's long-lived pool; the lock also serializes concurrent
    // run() calls, which share the pool and the per-worker scratch state.
    const std::lock_guard<std::mutex> run_lock(run_mutex_);
    thread_pool& pool = acquire_pool(options.max_threads);

    const bool cyclic = base_->has_core();
    const std::uint32_t periods =
        cyclic ? static_cast<std::uint32_t>(base_->source().border_events().size()) : 1;
    const cycle_time_solver solver = resolve_batch_solver(*base_, options.solver);
    const unsigned width = options.lane_width == 0 ? 8 : options.lane_width;
    const std::size_t groups = width > 1 ? count / width : 0;

    // One scalar scenario: its rationals, built in the worker's scratch.
    std::vector<std::vector<rational>> scratch(pool.thread_count());
    const auto scalar = [&](std::size_t i, unsigned worker) {
        out.outcomes[i] = evaluate(source.delays(i, scratch[worker]), options.with_slack, 1,
                                   solver, options.with_witness);
    };

    if (solver == cycle_time_solver::howard && cyclic) {
        // Static contiguous chunks, one warm chain per worker: scenario i
        // warm-starts from scenario i-1 of the same chunk, so the chain —
        // and every outcome — is deterministic for a given thread budget.
        const std::size_t workers =
            std::min<std::size_t>(resolve_thread_count(options.max_threads), count);
        pool.for_index(workers, [&](std::size_t w, unsigned worker) {
            const std::size_t begin = w * count / workers;
            const std::size_t end = (w + 1) * count / workers;
            howard_chain chain(*base_);
            for (std::size_t i = begin; i < end; ++i)
                out.outcomes[i] =
                    evaluate_howard_warm(chain, source.delays(i, scratch[worker]),
                                         options.with_slack, options.with_witness);
        });
    } else if (groups > 0) {
        // Lane path: fixed-width groups (boundaries independent of the
        // thread layout), scalar epilogue for the tail.
        std::vector<lane_worker_state> states(pool.thread_count());
        std::vector<std::size_t> evictions(groups, 0);
        pool.for_index(groups, [&](std::size_t g, unsigned worker) {
            evictions[g] = run_lane_group(*this, *base_, source, g * width, width, cyclic,
                                          periods, options.with_slack, options.with_witness,
                                          solver, states[worker],
                                          out.outcomes.data() + g * width);
        });
        for (const std::size_t e : evictions) out.lane_evictions += e;
        out.lane_groups = groups;
        out.lane_scenarios = groups * width - out.lane_evictions;
        for (std::size_t i = groups * width; i < count; ++i) scalar(i, 0);
        out.scalar_scenarios = count - groups * width + out.lane_evictions;
    } else {
        // Scalar path (forced, or batch smaller than one group).
        pool.for_index(count, scalar);
        out.scalar_scenarios = count;
    }

    // Serial reduction in scenario order — the batch result is independent
    // of the thread schedule.
    reduce_scenario_outcomes(out, base_->delay().size());
    return out;
}

void reduce_scenario_outcomes(scenario_batch_result& out, std::size_t arc_count)
{
    out.criticality_count.assign(arc_count, 0);
    out.fallback_count = 0;
    out.critical_cycles.clear();
    std::map<std::vector<arc_id>, std::size_t> cycle_stat; // cycle -> stats slot
    double sum = 0.0;
    for (std::size_t i = 0; i < out.outcomes.size(); ++i) {
        const scenario_outcome& o = out.outcomes[i];
        sum += o.cycle_time.to_double();
        if (i == 0 || o.cycle_time < out.min_cycle_time) {
            out.min_cycle_time = o.cycle_time;
            out.min_index = i;
        }
        if (i == 0 || o.cycle_time > out.max_cycle_time) {
            out.max_cycle_time = o.cycle_time;
            out.max_index = i;
        }
        for (const arc_id a : o.critical_arcs) ++out.criticality_count[a];
        if (!o.fixed_point) ++out.fallback_count;
        if (!o.critical_cycle.empty()) {
            const auto [it, inserted] =
                cycle_stat.try_emplace(o.critical_cycle, out.critical_cycles.size());
            if (inserted)
                out.critical_cycles.push_back({o.critical_cycle, 1, i});
            else
                ++out.critical_cycles[it->second].count;
        }
    }
    out.mean_cycle_time = sum / static_cast<double>(out.outcomes.size());
    std::stable_sort(out.critical_cycles.begin(), out.critical_cycles.end(),
                     [](const critical_cycle_stat& a, const critical_cycle_stat& b) {
                         if (a.count != b.count) return a.count > b.count;
                         return a.first_index < b.first_index;
                     });
}

// --- sources -----------------------------------------------------------------

bool scenario_source::image(std::size_t, std::uint32_t, fixed_point_domain&) const
{
    return false;
}

namespace {

/// Materializes a source: every scenario's label and delays, generated on
/// up to `max_threads` workers (0 = hardware concurrency, 1 = serial).
std::vector<scenario> scenarios_of(const scenario_source& source, unsigned max_threads)
{
    std::vector<scenario> out(source.size());
    parallel_for_index(out.size(), max_threads, [&](std::size_t i) {
        out[i].label = source.label(i);
        const std::vector<rational>& d = source.delays(i, out[i].delay);
        if (&d != &out[i].delay) out[i].delay = d;
    });
    return out;
}

} // namespace

void scenario_concat::add(const scenario_source& part)
{
    parts_.push_back(&part);
    offsets_.push_back(offsets_.back() + part.size());
}

std::pair<const scenario_source*, std::size_t> scenario_concat::locate(std::size_t i) const
{
    // The last part starting at or before i (empty parts start where the
    // next one does, so they are never chosen).
    const auto p = static_cast<std::size_t>(
        std::upper_bound(offsets_.begin(), offsets_.end(), i) - offsets_.begin() - 1);
    return {parts_[p], i - offsets_[p]};
}

std::string scenario_concat::label(std::size_t i) const
{
    const auto [part, k] = locate(i);
    return part->label(k);
}

const std::vector<rational>& scenario_concat::delays(std::size_t i,
                                                     std::vector<rational>& scratch) const
{
    const auto [part, k] = locate(i);
    return part->delays(k, scratch);
}

bool scenario_concat::image(std::size_t i, std::uint32_t periods,
                            fixed_point_domain& out) const
{
    const auto [part, k] = locate(i);
    return part->image(k, periods, out);
}

corner_sweep_source::corner_sweep_source(const signal_graph& sg,
                                         const corner_sweep_options& options)
    : sg_(&sg)
{
    require(sg.finalized(), "corner_sweep_scenarios: graph must be finalized");
    require(!options.factor.is_negative() && options.factor < rational(1),
            "corner_sweep_scenarios: factor must lie in [0, 1)");

    const bool cyclic = !sg.repetitive_events().empty(); // acyclic: sweep every arc
    nominal_.reserve(sg.arc_count());
    for (arc_id a = 0; a < sg.arc_count(); ++a) nominal_.push_back(sg.arc(a).delay);

    const rational factor[2] = {rational(1) - options.factor, rational(1) + options.factor};
    for (int k = 0; k < 2; ++k) factor_label_[k] = ") x" + factor[k].str();
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        if (!sg.arc_live(a)) continue;
        const arc_info& arc = sg.arc(a);
        if (cyclic && !(sg.is_repetitive(arc.from) && sg.is_repetitive(arc.to)))
            continue;
        for (const rational& f : factor) corner_.push_back({a, nominal_[a] * f, 0});
    }

    // The int64 image: one scale for the nominal row and every corner cell.
    // A corner's mass is the nominal mass plus its one cell's change, so
    // the worst case adds the largest increase.
    std::int64_t scale = 1;
    for (const rational& d : nominal_)
        if (scale != 0) scale = fixed_point_scale_lcm(scale, d.den());
    for (const corner& c : corner_)
        if (scale != 0) scale = fixed_point_scale_lcm(scale, c.delay.den());
    if (scale == 0) return;
    const auto scaled = [&](const rational& d) {
        return static_cast<int128>(d.num()) * (scale / d.den());
    };
    int128 mass = 0;
    for (const rational& d : nominal_) mass += scaled(d);
    int128 increase = 0;
    for (const corner& c : corner_)
        increase = std::max(increase, scaled(c.delay) - scaled(nominal_[c.arc]));
    period_limit_ = fixed_point_period_limit(mass + increase);
    if (period_limit_ == 0) return; // every cell fits int64 below this mass
    scale_ = scale;
    nominal_scaled_.reserve(nominal_.size());
    for (const rational& d : nominal_)
        nominal_scaled_.push_back(static_cast<std::int64_t>(scaled(d)));
    for (corner& c : corner_) c.scaled = static_cast<std::int64_t>(scaled(c.delay));
}

std::string corner_sweep_source::label(std::size_t i) const
{
    const arc_info& arc = sg_->arc(corner_[i].arc);
    return "arc " + std::to_string(corner_[i].arc) + " (" + sg_->event(arc.from).name +
           "->" + sg_->event(arc.to).name + factor_label_[i % 2];
}

const std::vector<rational>& corner_sweep_source::delays(std::size_t i,
                                                         std::vector<rational>& scratch) const
{
    scratch.assign(nominal_.begin(), nominal_.end());
    scratch[corner_[i].arc] = corner_[i].delay;
    return scratch;
}

bool corner_sweep_source::image(std::size_t i, std::uint32_t periods,
                                fixed_point_domain& out) const
{
    if (scale_ == 0 || periods >= period_limit_) return false;
    out.scale = scale_;
    out.period_limit = period_limit_;
    out.negative = false;
    out.scaled.assign(nominal_scaled_.begin(), nominal_scaled_.end());
    out.scaled[corner_[i].arc] = corner_[i].scaled;
    return true;
}

std::vector<scenario> corner_sweep_scenarios(const signal_graph& sg,
                                             const corner_sweep_options& options)
{
    return scenarios_of(corner_sweep_source(sg, options), 1);
}

namespace {

/// Independent per-sample PRNG stream: sample k's delays depend only on
/// (seed, k) — a SplitMix64 step keyed by the sample index — so serial,
/// parallel and lane-batched generation all produce the identical batch.
std::uint64_t sample_stream_seed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed + (k + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

namespace {

/// Validates the shared Monte Carlo preconditions (everything except the
/// sample count, which table building does not need).
void validate_mc_options(const signal_graph& sg, const monte_carlo_options& options)
{
    require(sg.finalized(), "monte_carlo_scenarios: graph must be finalized");
    require(options.resolution > 0, "monte_carlo_scenarios: resolution must be positive");
    require(options.model.resolution > 0,
            "monte_carlo_scenarios: delay_model resolution must be positive");
    for (const delay_model::source& src : options.model.sources)
        require(src.sensitivity.size() == sg.arc_count(),
                "monte_carlo_scenarios: delay_model needs one sensitivity per arc");
}

/// Resolved per-arc sampling description.  The sampled delay
/// lo + (hi - lo) * u/res is a point on the arc's fixed grid, so it can be
/// built as ONE normalized rational (base + step*u over a precomputed
/// denominator) instead of a chain of rational ops, each paying its own
/// gcd.  Generation is the dominant cost of small-request Monte Carlo
/// serving, and this path cuts it several-fold; arcs whose grid components
/// would overflow int64 fall back to the exact rational chain over
/// `ranges` (identical values either way).
struct mc_sampling {
    struct sample_grid {
        std::int64_t base = 0; ///< lo.num * span.den * resolution
        std::int64_t step = 0; ///< span.num * lo.den
        std::int64_t den = 1;  ///< lo.den * span.den * resolution
        bool fast = false;
    };
    std::vector<sample_grid> grids;
    std::vector<delay_range> ranges; ///< exact ranges, for the fallback path
};

mc_sampling resolve_mc_sampling(const signal_graph& sg,
                                const monte_carlo_options& options)
{
    mc_sampling s;
    s.grids.resize(sg.arc_count());
    constexpr int128 lim = std::numeric_limits<std::int64_t>::max();

    // Reduces one arc's grid from raw (possibly unnormalized) fraction
    // components lo = ln/ld, span = sn/sd with sn >= 0 — the per-sample
    // rational construction canonicalizes, so the grid itself need not be.
    // Dividing out the common gcd once keeps the per-sample gcd running on
    // small operands.  Returns false when the components overflow int64.
    const auto install_grid = [&](arc_id a, int128 ln, int128 ld, int128 sn,
                                  int128 sd) {
        // Every component is non-negative and every denominator factor is
        // >= 1, so each guarded product only grows: the moment a partial
        // product exceeds int64, the full grid would too, and checking
        // after each multiply also keeps the int128 intermediates exact.
        if (ln > lim || ld > lim || sn > lim || sd > lim) return false;
        const int128 num_hi = ln * sd;
        const int128 den_lo = ld * sd;
        const int128 step = sn * ld;
        if (num_hi > lim || den_lo > lim || step > lim) return false;
        const int128 base = num_hi * options.resolution;
        const int128 den = den_lo * options.resolution;
        // u ranges over [0, resolution], so base + step*resolution bounds
        // the numerator.
        if (den > lim || base + step * options.resolution > lim) return false;
        mc_sampling::sample_grid& g = s.grids[a];
        g.base = static_cast<std::int64_t>(base);
        g.step = static_cast<std::int64_t>(step);
        g.den = static_cast<std::int64_t>(den);
        const std::int64_t common = std::gcd(std::gcd(g.base, g.step), g.den);
        if (common > 1) {
            g.base /= common;
            g.step /= common;
            g.den /= common;
        }
        g.fast = true;
        return true;
    };

    if (options.ranges.empty()) {
        require(!options.spread.is_negative(),
                "monte_carlo_scenarios: spread must be non-negative");
        // lo = max(0, d * (1 - spread)), hi = d * (1 + spread).  For d >= 0
        // the clamp distributes onto the loop-invariant factor, so each
        // arc's grid is a handful of integer multiplies — no per-arc
        // rational arithmetic at all.
        const rational one_minus = rational(1) - options.spread;
        const rational hi_f = rational(1) + options.spread;
        const rational lo_f = one_minus.is_negative() ? rational(0) : one_minus;
        const rational span_f = hi_f - lo_f;
        s.ranges.resize(sg.arc_count()); // filled only for fallback arcs
        for (arc_id a = 0; a < sg.arc_count(); ++a) {
            const rational& d = sg.arc(a).delay;
            if (d.is_negative() ||
                !install_grid(a, static_cast<int128>(d.num()) * lo_f.num(),
                              static_cast<int128>(d.den()) * lo_f.den(),
                              static_cast<int128>(d.num()) * span_f.num(),
                              static_cast<int128>(d.den()) * span_f.den()))
                s.ranges[a] = {max(rational(0), d * one_minus), d * hi_f};
        }
    } else {
        require(options.ranges.size() == sg.arc_count(),
                "monte_carlo_scenarios: need one delay range per arc");
        for (const delay_range& r : options.ranges)
            require(!r.lo.is_negative() && r.lo <= r.hi,
                    "monte_carlo_scenarios: ranges must satisfy 0 <= lo <= hi");
        s.ranges = options.ranges;
        for (arc_id a = 0; a < sg.arc_count(); ++a) {
            const delay_range& r = s.ranges[a];
            const rational span = r.hi - r.lo;
            (void)install_grid(a, r.lo.num(), r.lo.den(), span.num(), span.den());
        }
    }
    return s;
}

/// Grid value of arc `a` at grid position `u` — one rational construction
/// on the fast path, the exact chain on the fallback path.
rational mc_value(const mc_sampling& s, const monte_carlo_options& options,
                  arc_id a, std::int64_t u)
{
    const mc_sampling::sample_grid& g = s.grids[a];
    if (g.fast) return rational(g.base + g.step * u, g.den);
    const delay_range& r = s.ranges[a];
    return r.lo + (r.hi - r.lo) * rational(u, options.resolution);
}

/// The table's int64 image (see monte_carlo_table), when it fits.  The
/// scale is the LCM of the fast arcs' grid denominators and of every
/// fallback cell's denominator — a multiple of every cell's denominator —
/// and a fast arc's cells scale affinely: (base + step * u) * (scale / den).
void build_table_image(monte_carlo_table& table, const mc_sampling& s)
{
    const std::int64_t res = table.resolution;
    std::int64_t scale = 1;
    for (arc_id a = 0; a < table.arc_count && scale != 0; ++a) {
        if (s.grids[a].fast) {
            scale = fixed_point_scale_lcm(scale, s.grids[a].den);
            continue;
        }
        for (std::int64_t u = 0; u <= res && scale != 0; ++u)
            scale = fixed_point_scale_lcm(scale, table.at(a, u).den());
    }
    if (scale == 0) return;

    // Worst-case mass: every arc at its heaviest cell (the top of an
    // affine grid, whose step is non-negative).
    const auto fallback_cell = [&](arc_id a, std::int64_t u) {
        const rational& v = table.at(a, u);
        return static_cast<int128>(v.num()) * (scale / v.den());
    };
    int128 mass = 0;
    for (arc_id a = 0; a < table.arc_count; ++a) {
        const mc_sampling::sample_grid& g = s.grids[a];
        if (g.fast) {
            mass += static_cast<int128>(g.base + g.step * res) * (scale / g.den);
            continue;
        }
        int128 heaviest = 0;
        for (std::int64_t u = 0; u <= res; ++u)
            heaviest = std::max(heaviest, fallback_cell(a, u));
        mass += heaviest;
    }
    const std::uint32_t period_limit = fixed_point_period_limit(mass);
    if (period_limit == 0) return; // every cell fits int64 below this mass
    table.scale = scale;
    table.period_limit = period_limit;
    table.scaled.reserve(table.values.size());
    for (arc_id a = 0; a < table.arc_count; ++a) {
        const mc_sampling::sample_grid& g = s.grids[a];
        const std::int64_t q = g.fast ? scale / g.den : 0;
        for (std::int64_t u = 0; u <= res; ++u)
            table.scaled.push_back(g.fast ? (g.base + g.step * u) * q
                                          : static_cast<std::int64_t>(fallback_cell(a, u)));
    }
}

} // namespace

struct monte_carlo_source::grid {
    mc_sampling sampling;
};

monte_carlo_source::monte_carlo_source(const signal_graph& sg,
                                       const monte_carlo_options& options,
                                       std::shared_ptr<const monte_carlo_table> table)
    : sg_(&sg), options_(options), table_(std::move(table))
{
    validate_mc_options(sg, options);
    if (table_)
        require(table_->resolution == options.resolution &&
                    table_->arc_count == sg.arc_count(),
                "monte_carlo_scenarios: table was built for a different "
                "graph/spread/resolution");
    else
        grid_ = std::make_shared<const grid>(grid{resolve_mc_sampling(sg, options)});
    require(options.samples > 0, "monte_carlo_scenarios: samples must be positive");
}

void monte_carlo_source::set_window(std::size_t first_sample, std::size_t samples)
{
    options_.first_sample = first_sample;
    options_.samples = samples;
}

std::string monte_carlo_source::label(std::size_t i) const
{
    return "mc#" + std::to_string(options_.first_sample + i) +
           " seed=" + std::to_string(options_.seed);
}

// Sample k of the window is global stream sample first_sample + k: the
// scenario is a pure function of (seed, global index), so round
// partitions and whole batches draw identical scenarios.  Its grid
// positions come from the sample's own PRNG stream, one per arc in arc
// order, on both paths below.

const std::vector<rational>& monte_carlo_source::delays(std::size_t i,
                                                        std::vector<rational>& scratch) const
{
    const std::size_t gk = options_.first_sample + i;
    const std::size_t K = options_.model.sources.size();
    prng rng(sample_stream_seed(options_.seed, gk));

    // Global variation variables draw from their own stream (a distinct
    // seed-space key), so adding sources never shifts the per-arc draws:
    // zero sensitivities reproduce the independent batch bit for bit.
    std::vector<rational> global;
    if (K > 0) {
        prng grng(sample_stream_seed(options_.seed ^ 0xc2b2ae3d27d4eb4fULL, gk));
        global.reserve(K);
        for (std::size_t j = 0; j < K; ++j)
            global.push_back(rational(
                grng.uniform(-options_.model.resolution, options_.model.resolution),
                options_.model.resolution));
    }

    const uniform_range draw(0, options_.resolution);
    scratch.clear();
    scratch.reserve(sg_->arc_count());
    for (arc_id a = 0; a < sg_->arc_count(); ++a) {
        const std::int64_t u = draw(rng);
        rational d = table_ ? table_->at(a, u) : mc_value(grid_->sampling, options_, a, u);
        if (K > 0) {
            const rational& nominal = sg_->arc(a).delay;
            for (std::size_t j = 0; j < K; ++j) {
                const rational& sens = options_.model.sources[j].sensitivity[a];
                if (!sens.is_zero()) d += nominal * sens * global[j];
            }
            d = max(rational(0), d);
        }
        scratch.push_back(d);
    }
    return scratch;
}

bool monte_carlo_source::image(std::size_t i, std::uint32_t periods,
                               fixed_point_domain& out) const
{
    if (!table_ || table_->scale == 0 || periods >= table_->period_limit ||
        !options_.model.sources.empty())
        return false;
    out.scale = table_->scale;
    out.period_limit = table_->period_limit;
    out.negative = false;
    const std::size_t arcs = table_->arc_count;
    const auto stride = static_cast<std::size_t>(options_.resolution + 1);
    out.scaled.resize(arcs);
    std::int64_t* row = out.scaled.data();
    const std::int64_t* cells = table_->scaled.data();
    const uniform_range draw(0, options_.resolution);
    prng rng(sample_stream_seed(options_.seed, options_.first_sample + i));
    for (std::size_t a = 0; a < arcs; ++a, cells += stride) row[a] = cells[draw(rng)];
    return true;
}

std::vector<scenario> monte_carlo_scenarios(const signal_graph& sg,
                                            const monte_carlo_options& options)
{
    const monte_carlo_source source(sg, options);
    const bool parallel_worthwhile =
        options.samples * sg.arc_count() >= (std::size_t{1} << 15);
    return scenarios_of(source, parallel_worthwhile ? options.max_threads : 1);
}

bool monte_carlo_table_fits(const signal_graph& sg, const monte_carlo_options& options)
{
    return options.resolution <= 4096 &&
           sg.arc_count() * static_cast<std::size_t>(options.resolution + 1) <=
               (std::size_t{1} << 22);
}

monte_carlo_table build_monte_carlo_table(const signal_graph& sg,
                                          const monte_carlo_options& options)
{
    validate_mc_options(sg, options);
    const mc_sampling sampling = resolve_mc_sampling(sg, options);
    monte_carlo_table table;
    table.resolution = options.resolution;
    table.arc_count = sg.arc_count();
    table.values.reserve(sg.arc_count() *
                         static_cast<std::size_t>(options.resolution + 1));
    for (arc_id a = 0; a < sg.arc_count(); ++a)
        for (std::int64_t u = 0; u <= options.resolution; ++u)
            table.values.push_back(mc_value(sampling, options, a, u));
    build_table_image(table, sampling);
    return table;
}

std::shared_ptr<const monte_carlo_table> monte_carlo_run_table(
    const signal_graph& sg, const monte_carlo_options& options, std::size_t samples)
{
    if (!monte_carlo_table_fits(sg, options) ||
        samples <= static_cast<std::size_t>(options.resolution))
        return nullptr;
    return std::make_shared<const monte_carlo_table>(build_monte_carlo_table(sg, options));
}

std::vector<scenario> monte_carlo_scenarios(const signal_graph& sg,
                                            const monte_carlo_options& options,
                                            const monte_carlo_table& table)
{
    // Non-owning: the caller's table outlives the source.
    const monte_carlo_source source(
        sg, options, std::shared_ptr<const monte_carlo_table>(std::shared_ptr<void>(), &table));
    const bool parallel_worthwhile =
        options.samples * sg.arc_count() >= (std::size_t{1} << 15);
    return scenarios_of(source, parallel_worthwhile ? options.max_threads : 1);
}

} // namespace tsg
