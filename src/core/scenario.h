// Batched what-if analysis: one compiled structure, many delay scenarios.
//
// The paper's central use case is iterated what-if analysis — perturb gate
// delays, re-simulate, read off cycle time and slack.  Rebuilding and
// re-finalizing a signal_graph per perturbation makes every iteration pay
// for structure that never changes (classification, validation, CSR
// construction, topological orders).  The scenario engine amortizes all of
// it: a compiled_graph is built once, and each scenario is a delay-only
// rebind of that snapshot (compiled_graph::rebind) — an O(m) rescale into
// a per-scenario fixed-point domain, with the overflow bound re-checked so
// a pathological sample degrades only itself to rational arithmetic.
//
// Scenarios fan out across the engine's long-lived util/parallel.h thread
// pool; every worker writes one pre-allocated outcome slot and the
// aggregation is serial, so batch results are bit-identical to evaluating
// each scenario against a freshly compiled graph, in any thread
// configuration.
//
// Lane batching sits on top of the rebind (bit-identical to the scalar
// loop): scenarios are chunked into groups of W lanes whose scaled delays
// are packed arc-major (core/lane_domain.h); the border sweeps / PERT /
// slack then update all W lanes per arc in SIMD-friendly
// structure-of-arrays loops.  A lane that cannot live in the int64 domain
// is evicted to the exact rational path alone; batch tails run through the
// scalar epilogue.
//
// Scenario sources.  The engine reads a batch by index (scenario_source):
// its count, each scenario's label and rational delays, and — when the
// batch has one — its int64 image at a single common scale.  A lane-group
// worker writes the lane rows straight from that image, so a generated
// batch never exists as rationals and its delay storage does not grow with
// the batch: each worker holds int64 rows for its W in-flight lanes only.
// A scenario that leaves the lane path (a scalar run, a tail, a Howard
// batch, an evicted lane, a slack lane that fails its overflow guard)
// builds its own rationals, one at a time.
//   * corner_sweep_source — per-arc +/- corners around the nominal delays
//     (the classical "which edge matters" sweep); a row is the nominal
//     row's image with one cell changed;
//   * monte_carlo_source — reproducible uniform sampling from per-arc
//     delay ranges on an exact rational grid, seeded explicitly; a row is
//     the sampling grid's affine int64 image at the sample's own PRNG
//     draws;
//   * scenario_concat — several sources as one batch (the service's
//     coalescer);
//   * any caller-assembled vector<scenario> (run's vector overload), and
//     corner_sweep_scenarios / monte_carlo_scenarios, which materialize
//     the generated batches.
// An image exists only when its scale and its worst-case delay mass fit
// the fixed-point budget of the graph's border periods.  Then every
// scenario's own domain fits too, so no lane would have been evicted and
// the results equal the rational path's bit for bit.
//
// Solvers.  Each scenario's lambda comes from the solver selected by
// scenario_batch_options::solver (see core/cycle_time.h).  Under the
// howard solver each batch worker runs one howard_chain (below): policy
// iteration warm-started from the previous scenario's converged policy —
// when delays barely change between samples (the SSTA-style workload), the
// iteration converges in one or two sweeps.  Cycle times are bit-identical
// to cold starts and to the border sweep; only the choice among *equally
// critical* witness cycles may differ between solvers and thread layouts.
// The deterministic optimizer (core/optimize.h) runs its lambda-only
// candidate evaluations on the same chain type.
//
// Per-snapshot caches.  The engine owns what never changes for its
// snapshot: the nominal cycle time (nominal()) and the Monte Carlo
// sampling grids (sampling_table()).  Every caller — the tool, the
// statistics round loop, the analysis service's workers — asks the engine
// instead of keeping its own copy.  The caches assume the base snapshot
// never changes, which holds for every caller: an engine built over
// incremental_engine::compiled() is valid only until the next edit, as its
// lane packs already are.
#ifndef TSG_CORE_SCENARIO_H
#define TSG_CORE_SCENARIO_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "ratio/howard.h"
#include "sg/signal_graph.h"
#include "util/parallel.h"
#include "util/rational.h"

namespace tsg {

/// One warm Howard chain over a compiled snapshot's repetitive core: the
/// ratio problem is built once, re-bound to each delay assignment and
/// solved by policy iteration started from the previous solve's converged
/// policy.  Consecutive assignments that differ in a few arcs (a search
/// stepping through candidates, a Monte Carlo stream) converge in one or
/// two sweeps instead of a cold solve each.  The ratio is exact and equal
/// to a cold solve's — debug builds check every solve against one.  An
/// assignment that leaves the fixed-point domain runs Howard's rational
/// domain for that solve alone.
///
/// Requires a strongly connected core with no tombstoned arcs (any fresh
/// compile of a finalized graph).  Not thread-safe: one chain per worker.
/// `base` must outlive the chain.
class howard_chain {
public:
    explicit howard_chain(const compiled_graph& base);

    /// Re-binds the chain to `delay` (indexed like base's arcs) and solves.
    /// The witness cycle is in problem() arcs.
    ratio_result solve(const std::vector<rational>& delay);

    /// The snapshot the last solve() re-bound (slack analyses of the same
    /// assignment); requires a previous solve().
    [[nodiscard]] const compiled_graph& bound() const { return bound_.value(); }

    [[nodiscard]] const ratio_problem& problem() const noexcept { return problem_; }

private:
    const compiled_graph* base_;
    std::optional<compiled_graph> bound_;
    ratio_problem problem_;
    howard_state state_;
};

/// One scenario: a complete per-arc delay assignment (same indexing as the
/// source graph's arcs) plus a display label.
struct scenario {
    std::string label;
    std::vector<rational> delay;
};

/// A scenario batch described by index instead of held in memory.  Every
/// method is const and safe to call from several workers at once.
class scenario_source {
public:
    virtual ~scenario_source() = default;

protected:
    scenario_source() = default;
    scenario_source(const scenario_source&) = default;
    scenario_source& operator=(const scenario_source&) = default;
    scenario_source(scenario_source&&) = default;
    scenario_source& operator=(scenario_source&&) = default;

public:

    [[nodiscard]] virtual std::size_t size() const = 0;
    [[nodiscard]] virtual std::string label(std::size_t i) const = 0;

    /// Scenario i's rational delays over every arc of the source graph:
    /// either `scratch`, refilled (its storage reused), or storage the
    /// source owns.
    [[nodiscard]] virtual const std::vector<rational>& delays(
        std::size_t i, std::vector<rational>& scratch) const = 0;

    /// Scenario i's int64 image, when the batch has one that fits sweeps
    /// of `periods` periods: fills `out` (the common scale, the period
    /// limit of the batch's worst-case delay mass, and delay * scale over
    /// every arc) and returns true.  False sends scenario i down the
    /// rational path.
    [[nodiscard]] virtual bool image(std::size_t i, std::uint32_t periods,
                                     fixed_point_domain& out) const;
};

/// Several sources run as one batch, in order: scenario i is scenario
/// i - offset of the part holding it.  Parts keep their own images (or
/// none), so one lane group may mix scales.  The parts must outlive the
/// concatenation.
class scenario_concat final : public scenario_source {
public:
    void add(const scenario_source& part);

    [[nodiscard]] std::size_t size() const override { return offsets_.back(); }
    [[nodiscard]] std::string label(std::size_t i) const override;
    [[nodiscard]] const std::vector<rational>& delays(
        std::size_t i, std::vector<rational>& scratch) const override;
    [[nodiscard]] bool image(std::size_t i, std::uint32_t periods,
                             fixed_point_domain& out) const override;

private:
    /// The part holding scenario i, and i's index inside it.
    [[nodiscard]] std::pair<const scenario_source*, std::size_t> locate(std::size_t i) const;

    std::vector<const scenario_source*> parts_;
    std::vector<std::size_t> offsets_{0}; ///< part p covers [offsets_[p], offsets_[p + 1])
};

/// Per-scenario analysis summary.  For cyclic graphs `cycle_time` is the
/// cycle time lambda; for acyclic graphs it is the PERT makespan.
struct scenario_outcome {
    rational cycle_time;

    /// The scenario's sweeps ran in the scaled-int64 domain.  False when
    /// the rebind re-check demoted this scenario to rational arithmetic
    /// (results are identical either way, just slower).
    bool fixed_point = false;

    /// Arcs on critical cycles (cyclic, slack-based) or on the critical
    /// path (acyclic), ascending original arc ids.  Without
    /// scenario_batch_options::with_slack only the one critical cycle the
    /// cycle-time analysis reports is recorded.
    std::vector<arc_id> critical_arcs;

    /// Smallest positive slack (cyclic graphs with with_slack only): how
    /// much delay the most loaded non-critical arc absorbs before the
    /// critical set changes.
    rational criticality_margin;

    /// Identity of *the* critical cycle the cycle-time solve reported:
    /// original arc ids in causal order, rotated so the smallest arc id
    /// leads — a canonical key for "which cycle limits this scenario".
    /// Empty on acyclic graphs.
    std::vector<arc_id> critical_cycle;
};

/// The canonical identity of a cycle given as arcs in causal order:
/// rotated so the smallest arc id leads.  The key of
/// scenario_outcome::critical_cycle and of the top-K witnesses
/// (core/optimize.h).
[[nodiscard]] std::vector<arc_id> canonical_cycle(std::vector<arc_id> arcs);

/// One distinct critical-cycle identity across a batch.
struct critical_cycle_stat {
    std::vector<arc_id> arcs;    ///< canonical cycle (see scenario_outcome)
    std::size_t count = 0;       ///< scenarios reporting this cycle
    std::size_t first_index = 0; ///< first such scenario
};

/// Batch reduction over all scenario outcomes.
struct scenario_batch_result {
    std::vector<scenario_outcome> outcomes; ///< one per scenario, input order

    rational min_cycle_time;
    rational max_cycle_time;
    std::size_t min_index = 0; ///< scenario attaining the minimum
    std::size_t max_index = 0; ///< scenario attaining the maximum
    double mean_cycle_time = 0.0; ///< double on purpose: exact rational means
                                  ///< overflow across thousands of samples

    /// Per original arc: number of scenarios in which the arc was critical.
    std::vector<std::uint32_t> criticality_count;

    /// Scenarios whose rebind fell back to rational arithmetic.
    std::size_t fallback_count = 0;

    /// Distinct critical-cycle identities across the batch, by descending
    /// count (ties: earliest first appearance) — "which cycle becomes
    /// critical where" for corner sweeps.  Empty on acyclic graphs.
    std::vector<critical_cycle_stat> critical_cycles;

    // --- engine accounting (how the batch was evaluated) -----------------

    /// Lane groups swept through the SoA kernels, and how many scenarios
    /// they served (excluding per-lane evictions).
    std::size_t lane_groups = 0;
    std::size_t lane_scenarios = 0;

    /// Scenarios in lane groups whose lane was evicted to the exact
    /// rational path (per-lane overflow fallback).
    std::size_t lane_evictions = 0;

    /// Scenarios evaluated one-at-a-time (lane-group tails, evictions,
    /// batches below the lane width, forced scalar runs).
    std::size_t scalar_scenarios = 0;

    /// Always 0; kept only because perfbench/probe.cpp still reads it.
    std::size_t sparse_scenarios = 0;
};

struct scenario_batch_options {
    /// Thread budget for the scenario fan-out (0 = hardware concurrency,
    /// 1 = serial).  Cycle times (and, with with_slack, the full critical
    /// sets) are bit-identical for every setting; under the howard solver
    /// the reported witness among equally critical cycles may depend on
    /// the thread layout (warm-start chains are per worker).
    unsigned max_threads = 0;

    /// Run the slack layer per scenario, so critical_arcs covers *every*
    /// critical cycle and criticality_margin is available.  Disable for
    /// cycle-time-only batches (roughly halves the per-scenario cost).
    bool with_slack = true;

    /// Extract the witness cycle per scenario (critical_cycle, and — with
    /// with_slack off — critical_arcs).  On for compatibility; turn off
    /// for Monte-Carlo-scale batches that aggregate cycle-time statistics:
    /// a witness is O(cycle length) to backtrack, peel and record per
    /// scenario, which dominates the lane-batched hot path on models whose
    /// critical cycles span the core.  With it off, outcomes carry the
    /// exact cycle time and domain flag only, and the critical-cycle /
    /// criticality aggregates stay empty.
    bool with_witness = true;

    /// Lambda engine per scenario; auto_select resolves once per batch
    /// (TSG_SOLVER env, then the size heuristic).  howard batches
    /// warm-start each worker from the previous scenario's policy.
    cycle_time_solver solver = cycle_time_solver::auto_select;

    /// SoA lane count for the lane-batched border-sweep/PERT path
    /// (core/lane_domain.h): 0 picks the default (8), 1 forces the scalar
    /// path, otherwise one of 2/4/8/16.  Batches smaller than one lane
    /// group run scalar; the tail of a batch not divisible by the width
    /// runs through the scalar epilogue.  Results are bit-identical for
    /// every setting.
    unsigned lane_width = 0;
};

struct monte_carlo_options;
struct monte_carlo_table;

/// The batch engine: holds the compiled structural snapshot, a long-lived
/// worker pool, and evaluates delay assignments against the snapshot.  The
/// compiled_graph (and its source signal_graph) must outlive the engine.
///
/// The pool is created lazily on the first run() and reused by every later
/// batch (resized only when the thread budget changes), so repeated runs
/// pay no thread-spawn cost.  Concurrent run() calls on one engine are
/// safe but serialize on the pool; nominal() and sampling_table() are safe
/// from any thread.
class scenario_engine {
public:
    explicit scenario_engine(const compiled_graph& base) : base_(&base) {}

    [[nodiscard]] const compiled_graph& base() const noexcept { return *base_; }

    /// The cycle time at the snapshot's own delays (lambda, or the PERT
    /// makespan on acyclic graphs), solved on the first call with that
    /// call's `analysis_threads` budget (as evaluate()).  Exact, so it is
    /// the same for every solver and thread budget.
    [[nodiscard]] rational nominal(unsigned analysis_threads) const;

    /// The sampling table a run of `samples` samples on `options`' grid
    /// draws through (options.model and the sample window play no part).
    /// Spread grids are cached per (spread, resolution), at most 16 per
    /// engine; a grid of explicit ranges is built on every call.  A table
    /// gets its rational cells once more samples than the grid's
    /// resolution have been asked for on it — by this call alone for
    /// explicit ranges, by every call so far for a cached grid — and only
    /// while the cells fit (resolution <= 4096, at most 2^22 cells).
    /// Validates the grid options like monte_carlo_scenarios.
    [[nodiscard]] std::shared_ptr<const monte_carlo_table> sampling_table(
        const monte_carlo_options& options, std::size_t samples) const;

    /// Evaluates one delay assignment through the rebind path.
    /// `analysis_threads` is the thread budget for the cycle-time border
    /// runs *inside* this one evaluation (0 = hardware concurrency) — the
    /// batch path forces it to 1 because the scenario fan-out already owns
    /// the pool.  `with_witness` mirrors scenario_batch_options.
    [[nodiscard]] scenario_outcome evaluate(
        const std::vector<rational>& delay, bool with_slack = true,
        unsigned analysis_threads = 0,
        cycle_time_solver solver = cycle_time_solver::auto_select,
        bool with_witness = true) const;

    /// Evaluates every scenario of `source` (in parallel) and reduces.
    /// Throws on an empty batch or a scenario whose delay vector has the
    /// wrong size.
    [[nodiscard]] scenario_batch_result run(const scenario_source& source,
                                            const scenario_batch_options& options = {}) const;

    /// run() over a materialized batch (no int64 image: every lane packs
    /// its rationals).
    [[nodiscard]] scenario_batch_result run(const std::vector<scenario>& scenarios,
                                            const scenario_batch_options& options = {}) const;

private:
    [[nodiscard]] thread_pool& acquire_pool(unsigned max_threads) const;

    /// One cached spread grid and the samples asked for on it so far.
    struct cached_grid {
        std::shared_ptr<const monte_carlo_table> table;
        std::size_t asked = 0;
    };

    const compiled_graph* base_;
    mutable std::mutex run_mutex_;
    mutable std::unique_ptr<thread_pool> pool_;

    mutable std::mutex nominal_mutex_;
    mutable std::optional<rational> nominal_;

    mutable std::mutex grids_mutex_;
    /// Keyed by (spread numerator, spread denominator, resolution).
    mutable std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, cached_grid> grids_;
};

/// Recomputes every aggregate of `inout` from its outcomes (in order):
/// min/max with attaining indices, the double mean, per-arc criticality
/// counts over `arc_count` original arcs, fallback tally and the
/// critical-cycle identity table.  Exactly the serial reduction run()
/// performs — exposed so a caller that slices a merged batch back into
/// per-request outcome ranges (core/service.h) reproduces each range's
/// solo aggregates bit-identically.  Requires a non-empty outcome list.
void reduce_scenario_outcomes(scenario_batch_result& inout, std::size_t arc_count);

// --- scenario generators -----------------------------------------------------

struct corner_sweep_options {
    /// Relative perturbation: each swept arc gets one scenario at
    /// delay * (1 - factor) and one at delay * (1 + factor).
    rational factor = rational(1, 10);
};

/// Two scenarios (minus/plus corner) per swept arc, in arc order.  The
/// sweep covers the arcs inside the repetitive core (the ones that can
/// move the cycle time) and skips start-up arcs; acyclic graphs sweep
/// every arc.  Holds O(m): the nominal row and each corner's one cell,
/// as rationals and, when the sweep's common scale fits, as int64.
class corner_sweep_source final : public scenario_source {
public:
    explicit corner_sweep_source(const signal_graph& sg,
                                 const corner_sweep_options& options = {});

    [[nodiscard]] std::size_t size() const override { return corner_.size(); }
    [[nodiscard]] std::string label(std::size_t i) const override;
    [[nodiscard]] const std::vector<rational>& delays(
        std::size_t i, std::vector<rational>& scratch) const override;
    [[nodiscard]] bool image(std::size_t i, std::uint32_t periods,
                             fixed_point_domain& out) const override;

private:
    struct corner {
        arc_id arc;
        rational delay;     ///< nominal * factor
        std::int64_t scaled; ///< delay * scale_ (when scale_ != 0)
    };
    const signal_graph* sg_;
    std::vector<rational> nominal_;
    std::string factor_label_[2]; ///< ") x<1 - factor>", ") x<1 + factor>"
    std::vector<corner> corner_;  ///< scenario i; minus corner first per arc
    std::int64_t scale_ = 0;      ///< the image's common scale; 0: no image
    std::uint32_t period_limit_ = 0;
    std::vector<std::int64_t> nominal_scaled_;
};

/// corner_sweep_source, materialized: each scenario carries a full m-entry
/// delay vector (2m * m rationals for a whole-core sweep).
[[nodiscard]] std::vector<scenario> corner_sweep_scenarios(
    const signal_graph& sg, const corner_sweep_options& options = {});

/// Inclusive per-arc delay range for Monte Carlo sampling.
struct delay_range {
    rational lo;
    rational hi;
};

/// Correlated (process-corner style) delay variation: K shared global
/// variables g_1..g_K, each uniform on the exact grid {-R, ..., R} / R in
/// [-1, 1], shift every arc together on top of the independent per-arc
/// sampling:
///
///     delay[a] = max(0, independent_sample[a]
///                       + nominal[a] * sum_j sensitivity_j[a] * g_j)
///
/// Everything stays on an exact rational grid, so correlated batches keep
/// the fixed-point/rational dual-domain guarantee of the engine.  The g_j
/// draw from their own (seed, sample)-keyed PRNG streams — independent of
/// the per-arc streams — so a model with zero sensitivities (or no
/// sources) reproduces the independent batch bit for bit.
struct delay_model {
    struct source {
        std::string name;                  ///< display only ("Vdd", "T", ...)
        std::vector<rational> sensitivity; ///< one per arc, relative to nominal
    };
    std::vector<source> sources;

    /// Grid resolution R of the global variables.
    std::int64_t resolution = 16;
};

struct monte_carlo_options {
    std::size_t samples = 100;
    std::uint64_t seed = 1; ///< explicit: the same seed replays the batch

    /// Per-arc ranges.  Empty means "nominal * (1 -/+ spread)" for every
    /// arc (clamped at 0); otherwise one range per arc is required.
    std::vector<delay_range> ranges;
    rational spread = rational(1, 10);

    /// Samples land on the exact grid lo + k * (hi - lo) / resolution,
    /// k uniform in [0, resolution] — keeps every delay a small rational so
    /// batches stay in the fixed-point domain.
    std::int64_t resolution = 16;

    /// Correlated variation shared across arcs (empty sources = fully
    /// independent sampling, the historical behaviour).
    delay_model model;

    /// Global index of the first generated sample: the batch covers stream
    /// indices [first_sample, first_sample + samples).  Streaming consumers
    /// (core/stats.h) generate rounds at increasing offsets; concatenating
    /// any round partition is bit-identical to one big batch.
    std::size_t first_sample = 0;

    /// Thread budget for sample generation (0 = hardware concurrency).
    /// Generation is deterministic regardless: sample k's delays depend
    /// only on (seed, k), never on the worker layout.
    unsigned max_threads = 0;
};

/// `samples` scenarios drawn independently per arc from the given ranges,
/// optionally shifted by the correlated delay_model: monte_carlo_source,
/// materialized.
///
/// Sampling is lane-stable: each sample k derives its own PRNG stream from
/// (seed, first_sample + k), so serial, multi-threaded and lane-batched
/// consumers all replay the identical batch from the same seed, and
/// storage for the full batch is reserved up front.
[[nodiscard]] std::vector<scenario> monte_carlo_scenarios(
    const signal_graph& sg, const monte_carlo_options& options = {});

/// The sampling grid of one (graph, ranges/spread, resolution)
/// combination, in up to three forms:
///   * per arc, the exact fraction (base + step * u) / den of grid point u
///     in [0, resolution]: one normalized rational per delay instead of a
///     chain of rational operations.  An arc whose grid components would
///     overflow int64 falls back to the exact chain over its range,
///     lo + (hi - lo) * u / resolution (identical values either way);
///   * the int64 image that lane rows are drawn from: at one common scale
///     (the LCM of the arcs' grid denominators), point u of arc a is
///     image[a].base + image[a].step * u.  Absent (scale 0) when an arc
///     uses the fallback, the scale passes the fixed-point cap, or the
///     worst-case delay mass (every arc at the top of its grid) is too
///     heavy for even one period;
///   * the rational cells, the resolution + 1 points of every arc
///     materialized, so a scalar draw is an indexed copy instead of a gcd
///     per delay.  Built only when a run draws enough samples to pay for
///     them (scenario_engine::sampling_table).
/// Tables are immutable once built and safe to share across threads.
struct monte_carlo_table {
    struct arc_grid {
        std::int64_t base = 0;
        std::int64_t step = 0;
        std::int64_t den = 0; ///< 0: the arc samples its exact range
    };
    struct affine {
        std::int64_t base = 0;
        std::int64_t step = 0;
    };

    std::int64_t resolution = 0;   ///< must match the sampling options
    std::vector<arc_grid> grid;    ///< one per arc
    std::vector<delay_range> ranges; ///< per arc for fallback arcs; empty without any

    std::int64_t scale = 0;         ///< the image's common scale; 0: no image
    std::uint32_t period_limit = 0; ///< fixed_point_period_limit(worst-case mass)
    std::vector<affine> image;      ///< one per arc when scale != 0

    std::vector<rational> values; ///< cells, arc-major: values[a*(resolution+1) + u]; may be empty

    /// Arc a's grid point u: its cell when the cells exist, else computed.
    [[nodiscard]] rational value(arc_id a, std::int64_t u) const;
};

/// The sampling grid of `options` (ranges or spread) over the graph's
/// arcs, with every cell built.  Validates exactly like
/// monte_carlo_scenarios.
[[nodiscard]] monte_carlo_table build_monte_carlo_table(
    const signal_graph& sg, const monte_carlo_options& options = {});

/// monte_carlo_scenarios drawing through a prebuilt table.  The table must
/// have been built from the same graph, ranges/spread and resolution; the
/// generated batch is bit-identical to the table-free overload.
[[nodiscard]] std::vector<scenario> monte_carlo_scenarios(
    const signal_graph& sg, const monte_carlo_options& options,
    const monte_carlo_table& table);

/// The monte_carlo_scenarios batch by index: scenario i is stream sample
/// options.first_sample + i, drawn through `table` (the grid of the same
/// graph, ranges/spread and resolution; see scenario_engine::
/// sampling_table).  Lane rows come from the table's int64 image when it
/// exists and fits, and the options have no correlated model; every other
/// case builds each scenario's rationals, from the cells when the table
/// has them.  `sg` must outlive the source.
class monte_carlo_source final : public scenario_source {
public:
    monte_carlo_source(const signal_graph& sg, const monte_carlo_options& options,
                       std::shared_ptr<const monte_carlo_table> table);

    /// Moves the batch to stream samples [first_sample, first_sample +
    /// samples): the statistics rounds walk one stream this way.
    void set_window(std::size_t first_sample, std::size_t samples);

    [[nodiscard]] std::size_t size() const override { return options_.samples; }
    [[nodiscard]] std::string label(std::size_t i) const override;
    [[nodiscard]] const std::vector<rational>& delays(
        std::size_t i, std::vector<rational>& scratch) const override;
    [[nodiscard]] bool image(std::size_t i, std::uint32_t periods,
                             fixed_point_domain& out) const override;

private:
    const signal_graph* sg_;
    monte_carlo_options options_;
    std::shared_ptr<const monte_carlo_table> table_;
};

} // namespace tsg

#endif // TSG_CORE_SCENARIO_H
