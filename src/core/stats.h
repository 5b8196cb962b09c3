// Statistical timing layer: streaming distribution statistics over the
// scenario engine.
//
// The engine (core/scenario.h) turns one compiled structure plus N delay
// assignments into N exact cycle times.  Production questions are about
// the *distribution* of those cycle times — "what is P(cycle time > T)?",
// "which arcs are probabilistically critical?" — the statistical-timing
// direction of the SSTA literature.  This layer answers them without ever
// holding a batch larger than one round in memory:
//
//   * stats_accumulator — streaming accumulators over scenario outcomes:
//     cycle-time mean/variance (Welford), exact-rational min/max with the
//     attaining sample indices, a fixed-bin histogram with quantile
//     estimates (p50/p95/p99), per-arc criticality probability (fraction
//     of samples whose witness critical cycle contains the arc) and
//     per-group (per-gate) criticality, all with normal-approximation
//     confidence intervals.
//   * monte_carlo_statistics — fixed-size runs evaluated in streaming
//     rounds (monte_carlo_rounds: draw a round, evaluate, fold, discard).
//   * monte_carlo_adaptive — grows the run round by round until the
//     confidence interval of the chosen target statistic (the lambda mean,
//     or a quantile) is narrower than stats_options::epsilon, or a sample
//     cap is hit.
//
// Determinism.  Monte Carlo sample k depends only on (seed, k) — never on
// the round partition, the thread layout, the lane width, a sampling
// table or its int64 image (see monte_carlo_source) — and the accumulator
// folds samples serially in index order through fixed-size *blocks*: each
// block of block_size consecutive samples is reduced by Welford steps, and
// completed blocks combine left-to-right by Chan's parallel update.  Block
// boundaries sit at fixed absolute sample indices, so any partition of the
// sample stream — one big batch or adaptive rounds — runs the identical
// sequence of floating-point operations and produces bit-identical
// statistics.  In particular an adaptive run is a
// bit-exact prefix replay of the fixed run with the same seed (asserted by
// tests/test_stats.cpp and bench/bench_stats.cpp).
//
// Everything except the moments stays exact or integral: min/max are
// rationals, histogram/criticality tallies are integers binned by exact
// comparisons against precomputed edges, so those are deterministic by
// construction; only mean/variance need the block discipline.
#ifndef TSG_CORE_STATS_H
#define TSG_CORE_STATS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "sg/signal_graph.h"
#include "util/rational.h"

namespace tsg {

struct stats_options {
    /// Fixed-bin histogram resolution for quantile estimation.
    std::size_t histogram_bins = 64;

    /// Histogram support [lo, hi].  hi <= lo derives the default
    /// [0, 2 * nominal cycle time] (or [0, 1] on zero-delay models).
    /// Samples outside the support land in underflow/overflow tallies and
    /// quantile estimates clamp to the observed exact min/max.
    rational histogram_lo = rational(0);
    rational histogram_hi = rational(0);

    /// Two-sided normal quantile for every confidence interval this layer
    /// reports (default: 95%).
    double confidence_z = 1.959963984540054;

    /// Adaptive target: stop when the CI half-width of the target
    /// statistic drops to epsilon or below.  Must be > 0 for
    /// monte_carlo_adaptive; ignored by fixed-size runs.
    double epsilon = 0.0;

    /// Negative: the adaptive target is the lambda mean.  In [0, 1]: the
    /// target is this quantile's CI (rank-based, histogram-resolved).
    double quantile = -1.0;

    /// Adaptive sample bounds: at least min_samples are evaluated before
    /// convergence may stop the run; max_samples caps it (converged stays
    /// false when the cap hits first).
    std::size_t min_samples = 32;
    std::size_t max_samples = std::size_t{1} << 16;

    /// Samples added per streaming round; 0 picks the default (256, a
    /// multiple of every lane width, so rounds chunk into whole lane
    /// groups).  Results are bit-identical for every round size.
    std::size_t round_samples = 0;

    /// Track per-arc (and per-group) criticality probabilities.  Requires
    /// witness extraction per sample, so Monte-Carlo-scale mean/quantile
    /// runs are faster with it off (the engine's statistics mode).
    bool criticality = false;

    /// Exact timing-yield threshold: a positive value tallies
    /// P(cycle_time <= yield_target) per sample (exact rational compare,
    /// so the tally is bit-deterministic for every round partition) with a
    /// binomial normal-approximation CI.  Non-positive disables the tally.
    rational yield_target = rational(0);

    /// Adaptive target override: converge on the *yield* CI half-width
    /// instead of the mean/quantile CI.  Requires a positive yield_target.
    /// The optimizer (core/optimize.h) drives its accept/reject decisions
    /// off this objective.
    bool yield_objective = false;

    /// Additionally fold arc criticality into per-signal (per-gate) groups
    /// via signal_arc_groups().  Implies criticality.
    bool group_by_signal = false;

    /// Engine knobs forwarded to scenario_batch_options.
    unsigned max_threads = 0;
    unsigned lane_width = 0;
    cycle_time_solver solver = cycle_time_solver::auto_select;

    /// The sampling table of the run's grid, when the caller caches one
    /// (the analysis service keeps one per design version and grid).  Null
    /// builds one per run under monte_carlo_run_table's rule.
    std::shared_ptr<const monte_carlo_table> table;

    /// Optional wall-clock deadline for streaming runs.  The epoch default
    /// means "none".  Checked between rounds (never inside one, so results
    /// that complete stay bit-identical); a run that passes it throws a
    /// deadline_exceeded tsg::error instead of burning further rounds.
    std::chrono::steady_clock::time_point deadline{};
};

/// Maps arcs to named groups for group-level criticality (an arc belongs
/// to the gate/signal owning its target event).  group_of_arc entries of
/// no_group mean "not attributed".
struct arc_group_map {
    static constexpr std::uint32_t no_group = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> group_of_arc; ///< one per original arc
    std::vector<std::string> names;          ///< one per group
};

/// Groups arcs by the signal owning their target event (arcs into events
/// without a signal stay unattributed) — the per-gate criticality grouping
/// of circuit-extracted models.
[[nodiscard]] arc_group_map signal_arc_groups(const signal_graph& sg);

/// Streaming statistics over scenario outcomes, folded in sample-index
/// order.  See the header comment for the block discipline that makes
/// accumulation bit-deterministic across lanes and rounds.
class stats_accumulator {
public:
    /// Samples per moments block.  Fixed so block boundaries (absolute
    /// sample indices) never depend on the execution layout.
    static constexpr std::size_t block_size = 64;

    stats_accumulator() = default;

    /// `arc_count` sizes the criticality tallies; the histogram covers
    /// [lo, hi] with `bins` equal-width bins (requires lo < hi, bins > 0).
    stats_accumulator(std::size_t arc_count, std::size_t bins, const rational& lo,
                      const rational& hi);

    /// Enables group-level criticality (call before the first add()).
    void set_groups(const arc_group_map& groups);

    /// Folds the next sample (absolute index == count()).  Criticality
    /// tallies read outcome.critical_arcs — run the engine with witnesses
    /// (or slack) on when criticality matters.
    void add(const scenario_outcome& outcome);

    /// Folds a whole batch, outcomes in order: exactly an add() loop.
    void accumulate(const scenario_batch_result& batch);

    // --- moments -----------------------------------------------------------

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const; ///< unbiased sample variance
    [[nodiscard]] double stddev() const;

    /// z * stddev / sqrt(n); infinity below 2 samples.
    [[nodiscard]] double mean_ci_half_width(double z) const;

    // --- exact extremes (require count() > 0) ------------------------------

    [[nodiscard]] const rational& min_cycle_time() const { return min_; }
    [[nodiscard]] const rational& max_cycle_time() const { return max_; }
    [[nodiscard]] std::size_t min_index() const noexcept { return min_index_; }
    [[nodiscard]] std::size_t max_index() const noexcept { return max_index_; }

    // --- histogram and quantiles -------------------------------------------

    [[nodiscard]] const std::vector<std::uint64_t>& histogram() const noexcept
    {
        return hist_;
    }
    [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
    [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
    [[nodiscard]] const rational& histogram_lo() const noexcept { return lo_; }
    [[nodiscard]] const rational& histogram_hi() const noexcept { return hi_; }

    /// Histogram-interpolated quantile estimate (q in [0, 1]), clamped to
    /// the observed exact [min, max].
    [[nodiscard]] double quantile(double q) const;

    /// Rank-based CI half-width of the q-quantile estimate: the rank
    /// interval q*n -/+ z*sqrt(n*q*(1-q)) mapped through the histogram's
    /// inverse CDF.  Resolution-limited by the bin width.
    [[nodiscard]] double quantile_ci_half_width(double q, double z) const;

    // --- criticality -------------------------------------------------------

    /// Per original arc: samples whose critical set contained the arc.
    [[nodiscard]] const std::vector<std::uint64_t>& criticality_count() const noexcept
    {
        return crit_;
    }
    [[nodiscard]] double criticality_probability(arc_id a) const;
    /// Normal-approximation CI half-width: z * sqrt(p * (1 - p) / n).
    [[nodiscard]] double criticality_ci_half_width(arc_id a, double z) const;

    /// Per group (set_groups order): samples in which *any* of the group's
    /// arcs was critical — each sample counts a group at most once.
    [[nodiscard]] const std::vector<std::uint64_t>& group_criticality_count() const noexcept
    {
        return group_crit_;
    }
    [[nodiscard]] const std::vector<std::string>& group_names() const noexcept
    {
        return group_names_;
    }
    [[nodiscard]] double group_criticality_probability(std::size_t group) const;
    [[nodiscard]] double group_criticality_ci_half_width(std::size_t group, double z) const;

    // --- timing yield ------------------------------------------------------

    /// Enables the exact yield tally P(cycle_time <= target) (call before
    /// the first add(); requires target > 0).
    void set_yield_target(const rational& target);

    [[nodiscard]] bool tracks_yield() const noexcept { return track_yield_; }
    [[nodiscard]] const rational& yield_target() const noexcept { return yield_target_; }
    /// Samples with cycle_time <= yield_target (exact rational compare).
    [[nodiscard]] std::uint64_t yield_count() const noexcept { return yield_count_; }
    [[nodiscard]] double yield_probability() const;
    /// Binomial normal-approximation CI: z * sqrt(p * (1 - p) / n).
    [[nodiscard]] double yield_ci_half_width(double z) const;

    /// Samples whose rebind fell back to exact rational arithmetic.
    [[nodiscard]] std::size_t fallback_count() const noexcept { return fallback_; }

private:
    /// One Welford partial: n samples with running mean and M2.
    struct moment_block {
        std::uint64_t n = 0;
        double mean = 0.0;
        double m2 = 0.0;
    };

    [[nodiscard]] static moment_block merge_moments(const moment_block& a,
                                                    const moment_block& b);
    [[nodiscard]] moment_block folded() const;
    void fold_value(double x);
    void add_tallies(const scenario_outcome& outcome);
    [[nodiscard]] double value_at_rank(double rank) const;

    std::size_t count_ = 0;

    std::vector<moment_block> blocks_; ///< completed blocks, index order
    moment_block tail_;                ///< open block (< block_size samples)

    rational min_;
    rational max_;
    std::size_t min_index_ = 0;
    std::size_t max_index_ = 0;

    rational lo_ = rational(0);
    rational hi_ = rational(1);
    double lo_d_ = 0.0;
    double bin_width_d_ = 0.0;
    std::vector<rational> edges_; ///< exact bin edges, bins + 1 entries
    std::vector<std::uint64_t> hist_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;

    bool track_yield_ = false;
    rational yield_target_ = rational(0);
    std::uint64_t yield_count_ = 0;

    std::vector<std::uint64_t> crit_;
    std::vector<std::uint32_t> group_of_arc_;
    std::vector<std::string> group_names_;
    std::vector<std::uint64_t> group_crit_;
    std::vector<std::uint32_t> group_mark_; ///< per-sample dedup, epoch-stamped
    std::uint32_t group_epoch_ = 0;

    std::size_t fallback_ = 0;
};

/// One completed statistics run (fixed-size or adaptive).
struct stats_run_result {
    stats_accumulator stats;

    /// Cycle time at the engine's nominal delays (also the anchor of the
    /// default histogram support).
    rational nominal_cycle_time;

    std::size_t rounds = 0; ///< streaming rounds evaluated
    bool adaptive = false;
    bool converged = true;  ///< adaptive: CI target reached before the cap

    /// The adaptive target's half-widths: requested (epsilon) and achieved
    /// at the final sample count.  Fixed runs report the achieved width of
    /// the same target with target_half_width = 0.
    double target_half_width = 0.0;
    double achieved_half_width = 0.0;

    // Engine accounting summed across rounds (scenario_batch_result).
    std::size_t lane_groups = 0;
    std::size_t lane_scenarios = 0;
    std::size_t lane_evictions = 0;
    std::size_t scalar_scenarios = 0;
};

/// Throws "deadline_exceeded: deadline passed after <done> <unit>" once
/// `deadline` has passed; the epoch default means none and reads no clock.
void check_deadline(std::chrono::steady_clock::time_point deadline, std::size_t done,
                    const char* unit);

/// The streaming round loop under every statistic here and statistical
/// top-K: evaluates stream samples [mc.first_sample, mc.first_sample +
/// samples) in rounds of at most `round_samples` (0: 256, a multiple of
/// every lane width), checking `deadline` before each, and hands each
/// round and its run offset to `fold`, which returns whether to go on.
/// Every round runs one window of a monte_carlo_source, drawn through
/// `table` (which must match mc's grid) or, when null, the table of
/// monte_carlo_run_table's rule; the rounds are bit-identical either way.
/// Returns the samples evaluated.
std::size_t monte_carlo_rounds(
    const scenario_engine& engine, const signal_graph& sg, const monte_carlo_options& mc,
    std::shared_ptr<const monte_carlo_table> table, std::size_t samples,
    std::size_t round_samples, const scenario_batch_options& batch,
    std::chrono::steady_clock::time_point deadline,
    const std::function<bool(const scenario_batch_result&, std::size_t first)>& fold);

/// Evaluates `mc.samples` Monte Carlo scenarios in streaming rounds and
/// returns the accumulated statistics.  Memory stays bounded by one round
/// regardless of the sample count; the result is bit-identical to any
/// other round partition (and to monte_carlo_adaptive stopping at the
/// same count).
[[nodiscard]] stats_run_result monte_carlo_statistics(const scenario_engine& engine,
                                                      const signal_graph& sg,
                                                      const monte_carlo_options& mc,
                                                      const stats_options& options = {});

/// Grows the run in rounds until the CI half-width of the target statistic
/// (options.quantile < 0: the lambda mean; else that quantile) drops to
/// options.epsilon, or options.max_samples is hit.  mc.samples is ignored;
/// the (seed, index) streams make any prefix replay the fixed run exactly.
[[nodiscard]] stats_run_result monte_carlo_adaptive(const scenario_engine& engine,
                                                    const signal_graph& sg,
                                                    const monte_carlo_options& mc,
                                                    const stats_options& options);

} // namespace tsg

#endif // TSG_CORE_STATS_H
