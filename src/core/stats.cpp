#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace tsg {

// --- arc grouping ------------------------------------------------------------

arc_group_map signal_arc_groups(const signal_graph& sg)
{
    arc_group_map out;
    out.group_of_arc.assign(sg.arc_count(), arc_group_map::no_group);
    std::unordered_map<std::string, std::uint32_t> index;
    for (arc_id a = 0; a < sg.arc_count(); ++a) {
        if (!sg.arc_live(a)) continue;
        const std::string& signal = sg.event(sg.arc(a).to).signal;
        if (signal.empty()) continue; // abstract event: not attributable to a gate
        const auto [it, inserted] =
            index.try_emplace(signal, static_cast<std::uint32_t>(out.names.size()));
        if (inserted) out.names.push_back(signal);
        out.group_of_arc[a] = it->second;
    }
    return out;
}

// --- accumulator -------------------------------------------------------------

stats_accumulator::stats_accumulator(std::size_t arc_count, std::size_t bins,
                                     const rational& lo, const rational& hi)
    : lo_(lo), hi_(hi)
{
    require(bins > 0, "stats_accumulator: histogram needs at least one bin");
    require(lo < hi, "stats_accumulator: histogram support must satisfy lo < hi");
    lo_d_ = lo.to_double();
    bin_width_d_ = (hi.to_double() - lo_d_) / static_cast<double>(bins);
    hist_.assign(bins, 0);
    // Exact bin edges: edge[i] = lo + (hi - lo) * i / bins.  The double
    // guess in add_tallies is corrected against these, so binning never
    // depends on floating-point rounding.
    edges_.reserve(bins + 1);
    const rational width = hi - lo;
    for (std::size_t i = 0; i <= bins; ++i)
        edges_.push_back(lo + width * rational(static_cast<std::int64_t>(i),
                                               static_cast<std::int64_t>(bins)));
    crit_.assign(arc_count, 0);
}

void stats_accumulator::set_groups(const arc_group_map& groups)
{
    require(count_ == 0, "stats_accumulator::set_groups: call before the first sample");
    require(groups.group_of_arc.size() == crit_.size(),
            "stats_accumulator::set_groups: one group entry per arc required");
    for (const std::uint32_t g : groups.group_of_arc)
        require(g == arc_group_map::no_group || g < groups.names.size(),
                "stats_accumulator::set_groups: group id out of range");
    group_of_arc_ = groups.group_of_arc;
    group_names_ = groups.names;
    group_crit_.assign(group_names_.size(), 0);
    group_mark_.assign(group_names_.size(), 0);
    group_epoch_ = 0;
}

void stats_accumulator::set_yield_target(const rational& target)
{
    require(count_ == 0, "stats_accumulator::set_yield_target: call before the first sample");
    require(rational(0) < target, "stats_accumulator::set_yield_target: target must be positive");
    track_yield_ = true;
    yield_target_ = target;
}

stats_accumulator::moment_block stats_accumulator::merge_moments(const moment_block& a,
                                                                 const moment_block& b)
{
    // Chan's parallel update.  The empty-side returns keep the fold exact:
    // merging with an empty block is the identity bit for bit.
    if (a.n == 0) return b;
    if (b.n == 0) return a;
    moment_block out;
    out.n = a.n + b.n;
    const double delta = b.mean - a.mean;
    const double nb_over_n = static_cast<double>(b.n) / static_cast<double>(out.n);
    out.mean = a.mean + delta * nb_over_n;
    out.m2 = a.m2 + b.m2 + delta * delta * static_cast<double>(a.n) * nb_over_n;
    return out;
}

void stats_accumulator::fold_value(double x)
{
    ++tail_.n;
    const double d = x - tail_.mean;
    tail_.mean += d / static_cast<double>(tail_.n);
    tail_.m2 += d * (x - tail_.mean);
    if (tail_.n == block_size) {
        blocks_.push_back(tail_);
        tail_ = moment_block{};
    }
}

void stats_accumulator::add_tallies(const scenario_outcome& outcome)
{
    const rational& x = outcome.cycle_time;
    if (count_ == 0 || x < min_) {
        min_ = x;
        min_index_ = count_;
    }
    if (count_ == 0 || max_ < x) {
        max_ = x;
        max_index_ = count_;
    }

    if (x < lo_) {
        ++underflow_;
    } else if (hi_ < x) {
        ++overflow_;
    } else {
        // Double guess, exact correction: the estimate is within one bin of
        // the truth, and the rational comparisons settle edge-sitting
        // samples identically on every compiler.  A support narrower than
        // double resolution degenerates bin_width_d_ to 0; the exact edge
        // walk alone then does the binning.
        const std::size_t bins = hist_.size();
        std::size_t bin = 0;
        if (bin_width_d_ > 0.0) {
            const double guess = std::floor((x.to_double() - lo_d_) / bin_width_d_);
            if (guess > 0) bin = std::min(bins - 1, static_cast<std::size_t>(guess));
        }
        while (bin + 1 < bins && !(x < edges_[bin + 1])) ++bin;
        while (bin > 0 && x < edges_[bin]) --bin;
        ++hist_[bin];
    }

    if (track_yield_ && !(yield_target_ < x)) ++yield_count_; // exact x <= target

    if (!outcome.fixed_point) ++fallback_;
    for (const arc_id a : outcome.critical_arcs) ++crit_[a];
    if (!group_crit_.empty() && !outcome.critical_arcs.empty()) {
        ++group_epoch_;
        for (const arc_id a : outcome.critical_arcs) {
            const std::uint32_t g = group_of_arc_[a];
            if (g == arc_group_map::no_group || group_mark_[g] == group_epoch_) continue;
            group_mark_[g] = group_epoch_;
            ++group_crit_[g]; // each sample counts a group at most once
        }
    }
    ++count_;
}

void stats_accumulator::add(const scenario_outcome& outcome)
{
    require(!hist_.empty(), "stats_accumulator: default-constructed (no histogram support)");
    fold_value(outcome.cycle_time.to_double());
    add_tallies(outcome);
}

void stats_accumulator::accumulate(const scenario_batch_result& batch)
{
    for (const scenario_outcome& o : batch.outcomes) add(o);
}

stats_accumulator::moment_block stats_accumulator::folded() const
{
    moment_block total;
    for (const moment_block& b : blocks_) total = merge_moments(total, b);
    return merge_moments(total, tail_);
}

double stats_accumulator::mean() const { return folded().mean; }

double stats_accumulator::variance() const
{
    const moment_block total = folded();
    return total.n >= 2 ? total.m2 / static_cast<double>(total.n - 1) : 0.0;
}

double stats_accumulator::stddev() const { return std::sqrt(variance()); }

double stats_accumulator::mean_ci_half_width(double z) const
{
    if (count_ < 2) return std::numeric_limits<double>::infinity();
    return z * std::sqrt(variance() / static_cast<double>(count_));
}

double stats_accumulator::value_at_rank(double rank) const
{
    if (count_ == 0) return 0.0;
    const double minv = min_.to_double();
    const double maxv = max_.to_double();
    double value = maxv; // ranks beyond every bin: the overflow region
    double cum = static_cast<double>(underflow_);
    if (rank <= cum) {
        value = minv;
    } else {
        for (std::size_t b = 0; b < hist_.size(); ++b) {
            const double cnt = static_cast<double>(hist_[b]);
            if (cnt > 0 && rank <= cum + cnt) {
                const double frac = (rank - cum) / cnt;
                value = lo_d_ + bin_width_d_ * (static_cast<double>(b) + frac);
                break;
            }
            cum += cnt;
        }
    }
    return std::clamp(value, minv, maxv);
}

double stats_accumulator::quantile(double q) const
{
    const double clamped = std::clamp(q, 0.0, 1.0);
    return value_at_rank(clamped * static_cast<double>(count_));
}

double stats_accumulator::quantile_ci_half_width(double q, double z) const
{
    if (count_ == 0) return std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(count_);
    const double clamped = std::clamp(q, 0.0, 1.0);
    const double spread = z * std::sqrt(n * clamped * (1.0 - clamped));
    const double lo_rank = std::max(0.0, clamped * n - spread);
    const double hi_rank = std::min(n, clamped * n + spread);
    return (value_at_rank(hi_rank) - value_at_rank(lo_rank)) / 2.0;
}

double stats_accumulator::criticality_probability(arc_id a) const
{
    if (count_ == 0) return 0.0;
    return static_cast<double>(crit_.at(a)) / static_cast<double>(count_);
}

double stats_accumulator::criticality_ci_half_width(arc_id a, double z) const
{
    if (count_ == 0) return std::numeric_limits<double>::infinity();
    const double p = criticality_probability(a);
    return z * std::sqrt(p * (1.0 - p) / static_cast<double>(count_));
}

double stats_accumulator::yield_probability() const
{
    if (count_ == 0) return 0.0;
    return static_cast<double>(yield_count_) / static_cast<double>(count_);
}

double stats_accumulator::yield_ci_half_width(double z) const
{
    if (count_ == 0) return std::numeric_limits<double>::infinity();
    const double p = yield_probability();
    return z * std::sqrt(p * (1.0 - p) / static_cast<double>(count_));
}

double stats_accumulator::group_criticality_probability(std::size_t group) const
{
    if (count_ == 0) return 0.0;
    return static_cast<double>(group_crit_.at(group)) / static_cast<double>(count_);
}

double stats_accumulator::group_criticality_ci_half_width(std::size_t group, double z) const
{
    if (count_ == 0) return std::numeric_limits<double>::infinity();
    const double p = group_criticality_probability(group);
    return z * std::sqrt(p * (1.0 - p) / static_cast<double>(count_));
}

// --- drivers -----------------------------------------------------------------

void check_deadline(std::chrono::steady_clock::time_point deadline, std::size_t done,
                    const char* unit)
{
    if (deadline.time_since_epoch().count() != 0 &&
        std::chrono::steady_clock::now() >= deadline)
        throw error("deadline_exceeded: deadline passed after " + std::to_string(done) + " " +
                    unit);
}

std::size_t monte_carlo_rounds(
    const scenario_engine& engine, const monte_carlo_options& mc, std::size_t samples,
    std::size_t round_samples, const scenario_batch_options& batch,
    std::chrono::steady_clock::time_point deadline,
    const std::function<bool(const scenario_batch_result&, std::size_t first)>& fold)
{
    if (samples == 0) return 0;
    const std::size_t round = round_samples > 0 ? round_samples : 256;
    monte_carlo_options window = mc;
    window.samples = std::min(round, samples);
    monte_carlo_source source(engine.base().source(), window, engine.sampling_table(mc, samples));
    std::size_t have = 0;
    while (have < samples) {
        check_deadline(deadline, have, "samples");
        source.set_window(mc.first_sample + have, std::min(round, samples - have));
        const scenario_batch_result result = engine.run(source, batch);
        const std::size_t first = have;
        have += source.size();
        if (!fold(result, first)) break;
    }
    return have;
}

namespace {

stats_run_result run_monte_carlo(const scenario_engine& engine, const signal_graph& sg,
                                 const monte_carlo_options& mc, const stats_options& options,
                                 bool adaptive, std::size_t fixed_samples)
{
    require(options.quantile <= 1.0, "stats: quantile must lie in [0, 1] (negative: mean)");
    require(!options.yield_objective || rational(0) < options.yield_target,
            "stats: yield_objective requires a positive yield_target");
    if (adaptive) {
        require(options.epsilon > 0.0, "monte_carlo_adaptive: epsilon must be positive");
        require(options.max_samples > 0, "monte_carlo_adaptive: max_samples must be positive");
    }

    const bool criticality = options.criticality || options.group_by_signal;

    stats_run_result out;
    out.adaptive = adaptive;
    out.target_half_width = adaptive ? options.epsilon : 0.0;
    out.nominal_cycle_time = engine.nominal(options.max_threads);
    out.stats = stats_accumulator(
        engine.base().delay().size(), stats_histogram_bins, rational(0),
        out.nominal_cycle_time.is_zero() ? rational(1) : out.nominal_cycle_time * 2);
    if (options.group_by_signal) out.stats.set_groups(signal_arc_groups(sg));
    if (rational(0) < options.yield_target) out.stats.set_yield_target(options.yield_target);

    scenario_batch_options bopts;
    bopts.max_threads = options.max_threads;
    bopts.with_slack = false;
    bopts.with_witness = criticality;
    bopts.solver = options.solver;
    bopts.lane_width = options.lane_width;

    const std::size_t cap = adaptive ? options.max_samples : fixed_samples;
    const std::size_t floor_samples =
        adaptive ? std::max<std::size_t>(options.min_samples, 2) : 0;
    require(cap > 0, "stats: no samples requested");

    const auto target_half_width = [&]() {
        if (options.yield_objective) return out.stats.yield_ci_half_width(stats_confidence_z);
        return options.quantile < 0.0
                   ? out.stats.mean_ci_half_width(stats_confidence_z)
                   : out.stats.quantile_ci_half_width(options.quantile, stats_confidence_z);
    };

    monte_carlo_rounds(
        engine, mc, cap, options.round_samples, bopts, options.deadline,
        [&](const scenario_batch_result& batch, std::size_t) {
            out.stats.accumulate(batch);
            ++out.rounds;
            out.lane_groups += batch.lane_groups;
            out.lane_scenarios += batch.lane_scenarios;
            out.lane_evictions += batch.lane_evictions;
            out.scalar_scenarios += batch.scalar_scenarios;
            return !(adaptive && out.stats.count() >= floor_samples &&
                     target_half_width() <= options.epsilon);
        });

    out.achieved_half_width = target_half_width();
    out.converged = !adaptive || out.achieved_half_width <= options.epsilon;
    return out;
}

} // namespace

stats_run_result monte_carlo_statistics(const scenario_engine& engine, const signal_graph& sg,
                                        const monte_carlo_options& mc,
                                        const stats_options& options)
{
    require(mc.samples > 0, "monte_carlo_statistics: samples must be positive");
    return run_monte_carlo(engine, sg, mc, options, /*adaptive=*/false, mc.samples);
}

stats_run_result monte_carlo_adaptive(const scenario_engine& engine, const signal_graph& sg,
                                      const monte_carlo_options& mc,
                                      const stats_options& options)
{
    return run_monte_carlo(engine, sg, mc, options, /*adaptive=*/true, 0);
}

} // namespace tsg
