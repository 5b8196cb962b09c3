#include "ratio/howard.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

namespace tsg {

namespace {

// The iteration is identical in both arithmetic domains; a domain supplies
// the weight/ratio/potential types and the three operations the sweeps
// need.  Both domains order every comparison identically (scaling by a
// positive constant preserves order), so the decision sequence — and thus
// the converged policy and witness cycle — is bit-for-bit the same.

/// Exact rational arithmetic; the fallback for hand-built problems and for
/// scaled-delay masses beyond the int64 budget.
struct rational_howard_domain {
    using weight_type = rational; ///< accumulates cycle delay
    using lambda_type = rational; ///< cycle ratio
    using value_type = rational;  ///< node potential

    const std::vector<rational>& weight;

    [[nodiscard]] weight_type zero_weight() const { return rational(0); }
    [[nodiscard]] lambda_type make_lambda(const weight_type& delay, std::int64_t tokens) const
    {
        return delay / rational(tokens);
    }
    [[nodiscard]] static bool lambda_less(const lambda_type& a, const lambda_type& b)
    {
        return a < b;
    }
    [[nodiscard]] static bool lambda_equal(const lambda_type& a, const lambda_type& b)
    {
        return a == b;
    }
    /// v(u) for policy arc a into a node with potential `succ`, at ratio l.
    [[nodiscard]] value_type step(arc_id a, std::int64_t transit, const lambda_type& l,
                                  const value_type& succ) const
    {
        return weight[a] - l * rational(transit) + succ;
    }
    /// The converged lambda is already the exact rational ratio.
    [[nodiscard]] rational exact_ratio(const ratio_problem&, const lambda_type& l,
                                       const std::vector<arc_id>&) const
    {
        return l;
    }
};

/// Scaled-int64 domain: ratios are reduced fractions over the scaled
/// delays, potentials are int128 values pre-multiplied by the ratio
/// denominator (v_fixed = v * scale * den), so every sweep is integer
/// adds and int128 compares.  Overflow-free by the eligibility budget:
/// |num| <= mass <= 2^62 and den <= total transit <= 2^31 bound every
/// potential by mass * (den + total transit) < 2^95 << 2^127.
struct fixed_howard_domain {
    using weight_type = std::int64_t;
    struct lambda_type {
        std::int64_t num; ///< scaled cycle delay, reduced
        std::int64_t den; ///< cycle tokens, reduced
    };
    using value_type = int128;

    const std::vector<std::int64_t>& weight;

    [[nodiscard]] weight_type zero_weight() const { return 0; }
    [[nodiscard]] lambda_type make_lambda(weight_type delay, std::int64_t tokens) const
    {
        const std::int64_t g = std::gcd(delay < 0 ? -delay : delay, tokens);
        return g > 1 ? lambda_type{delay / g, tokens / g} : lambda_type{delay, tokens};
    }
    [[nodiscard]] static bool lambda_less(const lambda_type& a, const lambda_type& b)
    {
        return static_cast<int128>(a.num) * b.den < static_cast<int128>(b.num) * a.den;
    }
    [[nodiscard]] static bool lambda_equal(const lambda_type& a, const lambda_type& b)
    {
        return a.num == b.num && a.den == b.den; // reduced form
    }
    [[nodiscard]] value_type step(arc_id a, std::int64_t transit, const lambda_type& l,
                                  const value_type& succ) const
    {
        return static_cast<int128>(l.den) * weight[a] -
               static_cast<int128>(l.num) * transit + succ;
    }
    /// Exact unscaling, O(1): ratio = num / (den * scale).  Falls back to
    /// re-summing the witness arcs' rational delays in the (pathological)
    /// case where den * scale leaves int64.
    [[nodiscard]] rational exact_ratio(const ratio_problem& p, const lambda_type& l,
                                       const std::vector<arc_id>& cycle) const
    {
        try {
            return rational(l.num, l.den) / rational(p.scale);
        } catch (const error&) {
            return cycle_ratio(p, cycle);
        }
    }
};

/// True when the scaled-delay domain is present and its magnitudes fit the
/// int128 potential budget documented on fixed_howard_domain.
bool fixed_point_eligible(const ratio_problem& p)
{
    if (p.scale == 0 || p.scaled_delay.size() != p.graph.arc_count()) return false;
    const int128 mass_budget = std::numeric_limits<std::int64_t>::max() / 4;
    int128 mass = 0;
    std::int64_t tokens = 0;
    for (arc_id a = 0; a < p.graph.arc_count(); ++a) {
        const std::int64_t w = p.scaled_delay[a];
        mass += w < 0 ? -static_cast<int128>(w) : w;
        if (p.transit[a] < 0 || p.transit[a] > INT32_MAX - tokens) return false;
        tokens += p.transit[a];
    }
    return mass <= mass_budget;
}

/// Per-iteration state plus reused workspace: the sweeps run per scenario
/// in warm-start batches, so no buffer is reallocated between rounds.
template <typename Domain>
struct value_determination {
    std::vector<typename Domain::lambda_type> lambda; ///< ratio each node reaches
    std::vector<typename Domain::value_type> value;   ///< potential v(u)
    std::vector<arc_id> best_cycle;
    typename Domain::lambda_type best_lambda{};
    bool uniform = true; ///< every policy cycle has the same ratio

    std::vector<std::uint8_t> mark; ///< workspace: unvisited/in-progress/done
    std::vector<node_id> path;      ///< workspace: current policy walk
};

/// Computes per-node cycle ratios and potentials for a fixed policy.
template <typename Domain>
void determine_values(const ratio_problem& p, const Domain& domain,
                      const std::vector<arc_id>& policy, value_determination<Domain>& out)
{
    const std::size_t n = p.graph.node_count();
    out.lambda.assign(n, typename Domain::lambda_type{});
    out.value.assign(n, typename Domain::value_type{});

    enum : std::uint8_t { unvisited, in_progress, done };
    out.mark.assign(n, unvisited);

    bool have_best = false;
    out.uniform = true;
    for (node_id root = 0; root < n; ++root) {
        if (out.mark[root] != unvisited) continue;

        // Follow the policy until we meet a processed node or close a cycle.
        out.path.clear();
        node_id v = root;
        while (out.mark[v] == unvisited) {
            out.mark[v] = in_progress;
            out.path.push_back(v);
            v = p.graph.to(policy[v]);
        }
        const std::vector<node_id>& path = out.path;

        if (out.mark[v] == in_progress) {
            // Closed a new policy cycle starting at v.
            const auto cycle_begin =
                std::find(path.begin(), path.end(), v) - path.begin();
            typename Domain::weight_type delay = domain.zero_weight();
            std::int64_t tokens = 0;
            for (std::size_t i = static_cast<std::size_t>(cycle_begin); i < path.size(); ++i) {
                const arc_id a = policy[path[i]];
                delay += domain.weight[a];
                tokens += p.transit[a];
            }
            if (tokens <= 0) // message built lazily: this runs per policy cycle
                throw error("max_cycle_ratio_howard: token-free cycle through arc " +
                            std::to_string(policy[path[static_cast<std::size_t>(
                                cycle_begin)]]) +
                            " (graph not live)");
            const auto ratio = domain.make_lambda(delay, tokens);

            // Anchor v(cycle head) = 0 and propagate backwards around the
            // cycle; the sum of (delay - ratio*transit) around it is 0, so
            // the assignment is consistent.
            out.lambda[v] = ratio;
            out.value[v] = typename Domain::value_type{};
            for (std::size_t i = path.size(); i-- > static_cast<std::size_t>(cycle_begin) + 1;) {
                const node_id u = path[i];
                const arc_id a = policy[u];
                const node_id succ = p.graph.to(a);
                out.lambda[u] = ratio;
                out.value[u] = domain.step(a, p.transit[a], ratio, out.value[succ]);
                out.mark[u] = done;
            }
            out.mark[v] = done;

            if (have_best && !Domain::lambda_equal(out.best_lambda, ratio)) out.uniform = false;
            if (!have_best || Domain::lambda_less(out.best_lambda, ratio)) {
                out.best_lambda = ratio;
                out.best_cycle.assign(path.begin() + cycle_begin, path.end());
                for (arc_id& c : out.best_cycle) c = policy[c];
                have_best = true;
            }

            // Tree prefix before the cycle.
            for (std::size_t i = static_cast<std::size_t>(cycle_begin); i-- > 0;) {
                const node_id u = path[i];
                const arc_id a = policy[u];
                const node_id succ = p.graph.to(a);
                out.lambda[u] = out.lambda[succ];
                out.value[u] = domain.step(a, p.transit[a], out.lambda[u], out.value[succ]);
                out.mark[u] = done;
            }
        } else {
            // Ran into an already-processed region: whole path is a tree.
            for (std::size_t i = path.size(); i-- > 0;) {
                const node_id u = path[i];
                const arc_id a = policy[u];
                const node_id succ = p.graph.to(a);
                out.lambda[u] = out.lambda[succ];
                out.value[u] = domain.step(a, p.transit[a], out.lambda[u], out.value[succ]);
                out.mark[u] = done;
            }
        }
    }
    ensure(have_best, "max_cycle_ratio_howard: no policy cycle found");
}

template <typename Domain>
ratio_result iterate(const ratio_problem& p, const Domain& domain,
                     const howard_options& options, howard_state* state)
{
    const std::size_t n = p.graph.node_count();

    // Initial policy: the warm-start state when it matches this structure
    // (same node count, every entry an out-arc of its node), the first
    // out-arc of every node otherwise.
    std::vector<arc_id> policy(n, invalid_arc);
    bool warm = state != nullptr && state->policy.size() == n;
    for (node_id v = 0; warm && v < n; ++v)
        warm = state->policy[v] < p.graph.arc_count() && p.graph.from(state->policy[v]) == v;
    for (node_id v = 0; v < n; ++v) {
        if (p.graph.out_degree(v) == 0) // message built lazily: hot path
            throw error("max_cycle_ratio_howard: node " + std::to_string(v) +
                        " has no out-arc (graph not strongly connected — solve "
                        "arbitrary graphs through max_cycle_ratio_condensed)");
        policy[v] = warm ? state->policy[v] : p.graph.out_arcs(v)[0];
    }

    const std::size_t automatic_cap =
        100 * n * std::max<std::size_t>(p.graph.arc_count(), 1) + 64;
    const std::size_t cap =
        options.max_iterations > 0 ? options.max_iterations : automatic_cap;
    const std::size_t m = p.graph.arc_count();
    value_determination<Domain> vd;
    determine_values(p, domain, policy, vd);

    for (std::size_t iter = 0; iter < cap; ++iter) {
        // Phase 1: ratio improvement — switch to arcs reaching cycles with
        // strictly larger ratio.  The sweep walks the flat arc arrays
        // (ascending arc ids visit each node's arcs in out_arcs order, and
        // lambda is read-only here, so the decisions match a node-major
        // sweep exactly — without the per-node adjacency indirection).
        // When every node reaches a cycle of one ratio nothing can improve
        // here, so the sweep is skipped (the warm chain's common case).
        bool improved = false;
        for (arc_id a = 0; !vd.uniform && a < m; ++a) {
            const node_id u = p.graph.from(a);
            if (Domain::lambda_less(vd.lambda[p.graph.to(policy[u])],
                                    vd.lambda[p.graph.to(a)])) {
                policy[u] = a;
                improved = true;
            }
        }

        // Phase 2 (only when ratios are stable): potential improvement among
        // arcs with equal target ratio, Gauss-Seidel in ascending arc order.
        if (!improved) {
            for (arc_id a = 0; a < m; ++a) {
                const node_id u = p.graph.from(a);
                const node_id x = p.graph.to(a);
                if (!Domain::lambda_equal(vd.lambda[x], vd.lambda[u])) continue;
                const auto candidate =
                    domain.step(a, p.transit[a], vd.lambda[u], vd.value[x]);
                if (vd.value[u] < candidate) {
                    policy[u] = a;
                    vd.value[u] = candidate;
                    improved = true;
                }
            }
        }

        if (!improved) {
            if (state != nullptr) state->policy = policy;
            ratio_result result;
            result.ratio = domain.exact_ratio(p, vd.best_lambda, vd.best_cycle);
            result.cycle = std::move(vd.best_cycle);
            result.iterations = static_cast<std::uint32_t>(iter);
            return result;
        }
        determine_values(p, domain, policy, vd);
    }
    require(options.max_iterations == 0,
            "max_cycle_ratio_howard: iteration cap (" + std::to_string(cap) +
                ") exceeded before convergence");
    ensure(false, "max_cycle_ratio_howard: automatic iteration cap exceeded");
    return {};
}

} // namespace

ratio_result max_cycle_ratio_howard(const ratio_problem& p, const howard_options& options,
                                    howard_state* state)
{
    require(p.graph.node_count() > 0, "max_cycle_ratio_howard: empty graph");

    if (fixed_point_eligible(p)) {
        ratio_result result = iterate(p, fixed_howard_domain{p.scaled_delay}, options, state);
        result.fixed_point = true;
        return result;
    }
    return iterate(p, rational_howard_domain{p.delay}, options, state);
}

rational cycle_time_howard(const signal_graph& sg)
{
    return max_cycle_ratio_howard(make_ratio_problem(sg)).ratio;
}

} // namespace tsg
