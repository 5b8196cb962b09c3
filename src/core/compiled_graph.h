// Compiled analysis snapshot of a Timed Signal Graph — the shared timing
// kernel every analysis layer runs on.
//
// A finalized signal_graph is a construction-friendly object: per-node
// adjacency vectors and exact rational delays.  Both are hostile to the
// analysis hot loops, which are longest-path sweeps that touch every arc
// many times (the cycle-time algorithm alone is O(b^2 m)).  compile()-ing
// the graph once produces:
//
//   * CSR out/in adjacency of the whole structure (flat arrays, no
//     per-node heap vectors), with node ids == event ids and arc ids ==
//     signal-graph arc ids;
//   * the repetitive-core view in CSR form, plus a precomputed topological
//     order of its token-free subgraph (the per-period sweep order) — and,
//     for acyclic graphs, a topological order of the whole structure (the
//     PERT sweep order);
//   * a fixed-point delay domain: the LCM L of all delay denominators,
//     with every arc delay stored as the exact integer delay * L.  Hot
//     loops then do int64 additions instead of rational normalizations and
//     results convert back to exact rationals at the boundary (value / L)
//     — bit-identical to the rational computation because scaling by L > 0
//     preserves order and exactness.  When L or a scaled delay would
//     overflow the guarded 64-bit budget, the domain is disabled and every
//     consumer transparently falls back to rational arithmetic.
//
// The snapshot is immutable and safe to share across threads (the parallel
// border runs of analyze_cycle_time do exactly that).  It keeps a pointer
// to the source graph, which must outlive it.
#ifndef TSG_CORE_COMPILED_GRAPH_H
#define TSG_CORE_COMPILED_GRAPH_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/csr.h"
#include "sg/signal_graph.h"
#include "util/rational.h"

namespace tsg {

struct compile_options {
    /// Allow the scaled-int64 delay domain.  Disabling forces the exact
    /// rational path everywhere; used by tests to A/B the two domains.
    bool use_fixed_point = true;
};

/// One delay assignment's fixed-point domain: the result of the LCM-scale
/// computation shared by compile(), rebind() and the lane packer
/// (core/lane_domain.h).  scale == 0 means the domain is unavailable for
/// this assignment (scale or a scaled delay would overflow the guarded
/// 64-bit budget) and consumers must use exact rational arithmetic.
struct fixed_point_domain {
    std::int64_t scale = 0;
    std::vector<std::int64_t> scaled;  ///< delay * scale; empty when scale == 0
    std::uint32_t period_limit = 0;    ///< sweeps with periods < limit are safe
    bool negative = false;             ///< some delay was negative (caller must reject)

    [[nodiscard]] bool available_for_periods(std::uint32_t periods) const noexcept
    {
        return scale != 0 && periods < period_limit;
    }
};

/// The period budget of a scaled delay assignment whose delays sum to
/// `mass`: a P-period sweep's longest path is at most (P + 1) * mass, kept
/// within INT64_MAX / 4.  Capped at 2^20 periods (beyond any bound the
/// analyses use); 0 when the assignment is too heavy even for
/// single-period sweeps.
[[nodiscard]] std::uint32_t fixed_point_period_limit(int128 mass);

/// One step of the fixed-point scale fold: lcm(scale, den), or 0 once it
/// passes the scale cap (INT32_MAX) every domain shares, so period-count *
/// scale products and scaled potentials stay far from the int64 edge.
[[nodiscard]] std::int64_t fixed_point_scale_lcm(std::int64_t scale, std::int64_t den);

/// Computes the fixed-point domain of one delay assignment.  `out.scaled` is
/// reused (no allocation when its capacity suffices) — the per-lane rebind
/// path calls this once per scenario.  The criteria are exactly those of
/// compiled_graph::rebind, so a lane is evicted to rational arithmetic iff
/// the equivalent scalar rebind would be.
void compute_fixed_point_domain(const std::vector<rational>& delay, fixed_point_domain& out);

class compiled_graph {
public:
    /// Compiles a finalized graph.  O(n + m).
    explicit compiled_graph(const signal_graph& sg, compile_options options = {});

    /// Rebinds the snapshot to a new per-arc delay assignment (indexed like
    /// the source graph's arcs) without recompiling any structure: the CSR
    /// adjacency, topological orders and core structure are *shared* with
    /// the base snapshot (one shared_ptr copy), and only the delay-derived
    /// state is recomputed — the fixed-point scale, the overflow budget
    /// (re-checked against the *new* delays, so an overflowing assignment
    /// degrades just that snapshot to rational arithmetic) and the core
    /// delay projection.  This is the per-scenario path of the batch
    /// engine (core/scenario.h): structure is compiled once, thousands of
    /// delay assignments are rebound.
    ///
    /// The rebound snapshot keeps pointing at the original source() graph,
    /// whose arc_info delays then describe the *nominal* assignment;
    /// delay() / scaled_delay() are authoritative for analyses.
    [[nodiscard]] compiled_graph rebind(std::vector<rational> delay) const;

    [[nodiscard]] const signal_graph& source() const noexcept { return *sg_; }

    // --- whole-graph snapshot --------------------------------------------

    /// CSR structure; node ids are event ids, arc ids are sg arc ids.
    [[nodiscard]] const csr_graph& structure() const noexcept { return shared_->structure; }

    /// Exact delay per arc (same indexing as signal_graph arcs).
    [[nodiscard]] const std::vector<rational>& delay() const noexcept { return delay_; }

    /// Topological order of the whole structure; present only when the
    /// graph is acyclic (the PERT domain).
    [[nodiscard]] const std::optional<std::vector<node_id>>& acyclic_order() const noexcept
    {
        return shared_->acyclic_order;
    }

    // --- fixed-point delay domain ----------------------------------------

    /// True when the scaled-int64 domain is available.
    [[nodiscard]] bool fixed_point() const noexcept { return scale_ != 0; }

    /// The scaling factor L (LCM of all delay denominators); 0 when the
    /// fixed-point domain is disabled.
    [[nodiscard]] std::int64_t scale() const noexcept { return scale_; }

    /// delay * L per arc; valid only when fixed_point().
    [[nodiscard]] const std::vector<std::int64_t>& scaled_delay() const noexcept
    {
        return scaled_delay_;
    }

    /// Exact conversion back out of the fixed-point domain.
    [[nodiscard]] rational unscale(std::int64_t scaled) const { return {scaled, scale_}; }

    /// True when `periods` unfolding periods can be swept in int64 without
    /// any path sum overflowing (conservative bound over the total scaled
    /// delay mass).
    [[nodiscard]] bool fixed_point_for_periods(std::uint32_t periods) const noexcept
    {
        return fixed_point() && periods < period_limit_;
    }

    // --- repetitive core --------------------------------------------------

    /// Read view of the compiled core.  A bundle of references: the
    /// structural members live in state *shared* by every rebind of the
    /// same graph, the delay members in the queried snapshot — which is
    /// what lets rebind() skip all structure copies.  The view (and any
    /// reference bound to it) is valid while the snapshot it came from
    /// lives.
    struct core_view {
        const csr_graph& graph;                       ///< CSR core, re-indexed nodes
        const std::vector<event_id>& node_event;      ///< core node -> event
        const std::vector<node_id>& event_node;       ///< event -> core node or invalid
        const std::vector<arc_id>& arc_original;      ///< core arc -> sg arc
        const std::vector<rational>& delay;           ///< per core arc
        const std::vector<std::int64_t>& scaled_delay;///< per core arc; valid when fixed_point()
        const std::vector<std::uint8_t>& token;       ///< per core arc, 0 or 1
        const std::vector<arc_id>& token_arcs;        ///< core arcs carrying a token
        const std::vector<node_id>& topo;             ///< token-free topological order

        /// Flat token-free out-adjacency: the arcs of node v, in out_arcs
        /// order with marked arcs removed, are token_free_arcs[
        /// token_free_offset[v] .. token_free_offset[v+1] ).  The
        /// per-period sweeps iterate this instead of filtering out_arcs —
        /// same relaxation order, no per-arc token test.
        const std::vector<std::uint32_t>& token_free_offset; ///< node -> first slot
        const std::vector<arc_id>& token_free_arcs;
    };

    [[nodiscard]] bool has_core() const noexcept { return shared_->core.has_value(); }

    /// Monotone counter bumped by every structural patch the incremental
    /// edit layer applies to this snapshot's shared state.  Plain compiles
    /// and rebinds sit at version 0 forever.  Consumers that cache derived
    /// structure keyed on object identity (the lane sweep packs) must key on
    /// (pointer, version): in-place patching reuses the allocation.
    [[nodiscard]] std::uint64_t structure_version() const noexcept
    {
        return shared_->version;
    }

    /// The compiled repetitive core; throws tsg::error on acyclic graphs.
    [[nodiscard]] core_view core() const
    {
        require(shared_->core.has_value(), "compiled_graph: graph has no repetitive core");
        const core_structure& c = *shared_->core;
        // Fully repetitive graphs have core arc ids equal to original arc
        // ids; the view then aliases the whole-graph delay arrays and the
        // rebind path never materializes a projection.
        const std::vector<rational>& d = c.identity ? delay_ : core_delay_;
        const std::vector<std::int64_t>& s = c.identity ? scaled_delay_ : core_scaled_delay_;
        return {c.graph, c.node_event,        c.event_node,      c.arc_original,
                d,       s,                   c.token,           c.token_arcs,
                c.topo,  c.token_free_offset, c.token_free_arcs};
    }

private:
    /// Delay-independent core compilation, shared across rebinds.
    struct core_structure {
        csr_graph graph;
        std::vector<event_id> node_event;
        std::vector<node_id> event_node;
        std::vector<arc_id> arc_original;
        std::vector<std::uint8_t> token;
        std::vector<arc_id> token_arcs;
        std::vector<node_id> topo;
        std::vector<std::uint32_t> token_free_offset;
        std::vector<arc_id> token_free_arcs;
        bool identity = false; ///< core arcs == all arcs (arc_original[a] == a)
    };

    /// Everything that depends only on the graph's *structure*.  Immutable
    /// once compiled and shared (shared_ptr) by every rebind, so a rebind
    /// costs O(arcs) delay work and zero structure copies.  The incremental
    /// edit layer is the one writer: it patches the state in place when it
    /// holds the only reference (bumping `version`) and clones it first
    /// when rebinds still share it (copy-on-write).
    struct structural_state {
        csr_graph structure;
        std::optional<std::vector<node_id>> acyclic_order;
        std::optional<core_structure> core;
        std::uint64_t version = 0;
    };

    /// The incremental edit layer patches the shared structural state and
    /// the delay-derived members in place (core/incremental.h); it restores
    /// every invariant a fresh compile would establish before handing the
    /// snapshot to any analysis.
    friend class incremental_engine;

    /// Uninitialized shell for rebind(): shares the structural state,
    /// recomputes the delay-derived members.
    explicit compiled_graph(const signal_graph* sg) noexcept : sg_(sg) {}

    void compile_fixed_point();
    void compile_core(structural_state& state) const;
    void bind_core_delays();

    const signal_graph* sg_;
    bool use_fixed_point_ = true;
    std::shared_ptr<const structural_state> shared_;

    // Delay-derived state, per snapshot.
    std::vector<rational> delay_;
    std::int64_t scale_ = 0;
    std::vector<std::int64_t> scaled_delay_;
    std::uint32_t period_limit_ = 0; ///< sweeps with periods < limit are safe
    std::vector<rational> core_delay_;
    std::vector<std::int64_t> core_scaled_delay_;
};

} // namespace tsg

#endif // TSG_CORE_COMPILED_GRAPH_H
