// Structure-of-arrays multi-scenario delay domain — the data layout behind
// the lane-batched scenario hot path.
//
// The scenario engine evaluates thousands of delay assignments against one
// compiled structure.  Scalar rebinds make every assignment pay a full
// longest-path sweep alone: one int64 add/compare per arc per period, with
// the memory system and the vector units idle.  A lane_domain instead packs
// W ("lane count") scenarios' scaled-int64 delays arc-major-contiguous,
//
//     delay[arc * W + lane]
//
// so the sweeps in core/cycle_time.cpp, core/slack.cpp and core/pert.cpp —
// templated over W — update all W lanes of an arc in one pass over the CSR
// structure.  The inner loops are branch-free add/max/select over adjacent
// memory and auto-vectorize (see util/simd.h); every lane remains an
// independent exact computation, bit-identical to its scalar rebind.
//
// Per-lane domains.  Each lane keeps its own fixed-point scale.  A lane
// packed from rationals gets the LCM of its delay denominators, computed by
// the same code as the scalar rebind (compute_fixed_point_domain); a lane
// drawn from a scenario source's int64 image (core/scenario.h) arrives
// already scaled, at the source's common scale.  Any scale that keeps the
// delays exact gives the same rational results.  A lane whose scale or
// period budget would overflow is *evicted*: its SoA slots are zero-filled
// (benign values for the sweeps, whose results for that lane are
// discarded) and the engine re-evaluates just that scenario through the
// exact rational path — sibling lanes stay packed and exact, mirroring the
// scalar rebind's per-scenario fallback.
//
// Unreached encoding.  The lane sweeps have no per-lane reached flags;
// "unreached" is the sentinel value `unreached` (INT64_MIN / 2).  Real
// occurrence times are sums of non-negative scaled delays, hence >= 0;
// sentinel arithmetic stays strictly negative because every lane's period
// budget bounds accumulated delay mass by INT64_MAX / 4 (see
// compute_fixed_point_domain), so `sentinel + mass < 0 <= real` and a
// relaxation can never confuse the two.  Reached == value >= 0.
#ifndef TSG_CORE_LANE_DOMAIN_H
#define TSG_CORE_LANE_DOMAIN_H

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/compiled_graph.h"
#include "util/rational.h"

namespace tsg {

/// Scratch buffers shared by the lane sweeps (cycle time, slack, PERT) and
/// reused across lane groups by each scenario worker.  Members are working
/// storage with kernel-defined layout — not results.
struct lane_workspace {
    std::vector<std::int64_t> t_prev;       ///< previous-period row, n * W
    std::vector<std::int64_t> t_cur;        ///< current-period row, n * W
    std::vector<std::int64_t> origin_time;  ///< per run: (periods + 1) * W
    std::vector<std::int64_t> pred;         ///< capture: (periods + 1) * n * W;
                                            ///< arc ids widened to int64 so the
                                            ///< value/pred blends share one width
    std::vector<std::int64_t> weight;       ///< slack: reduced weights, m * W
    std::vector<std::int64_t> potential;    ///< slack: BF potentials, n * W
    std::vector<arc_id> walk;               ///< backtrack scratch

    // Sweep-order packing (cycle-time lanes): the token-free relaxation
    // sequence flattened in the exact order the sweep walks it, so the hot
    // loop streams delays and heads sequentially instead of gathering by
    // arc id.  The structural arrays are built once per workspace — keyed
    // on (pack_of, pack_version), because the incremental edit layer
    // patches compiled cores *in place*: the object address survives a
    // structural batch, only structure_version() tells the packs apart —
    // the delay copies once per lane group.
    // Value rows are indexed by *topo position*, not node id: the flat
    // in-period stream then reads its source rows in ascending memory
    // order (the prefetcher's favourite), and only head rows scatter.
    const void* pack_of = nullptr;          ///< identity of the packed core
    std::uint64_t pack_version = 0;         ///< structure_version() at pack time
    std::vector<std::uint32_t> topo_pos;    ///< node -> topo position (row index)
    std::vector<std::uint32_t> sweep_src;   ///< per slot: source row
    std::vector<std::uint32_t> sweep_head;  ///< per slot: head row
    std::vector<arc_id> sweep_arc;          ///< per slot: core arc id
    std::vector<std::uint32_t> tok_src;     ///< token arcs (rows), token_arcs order
    std::vector<std::uint32_t> tok_head;
    std::vector<arc_id> tok_arc;
    std::vector<std::int64_t> sweep_delay;  ///< per slot: W delay lanes
    std::vector<std::int64_t> tok_delay;    ///< per token arc: W delay lanes
};

/// W scenarios' delays packed arc-major (delay[arc * W + lane]) in per-lane
/// fixed-point domains.  For cyclic graphs the arc set is the repetitive
/// core (sweep indexing == core arc ids); for acyclic graphs it is the full
/// structure (PERT indexing == original arc ids).
class lane_domain {
public:
    /// Sentinel for "instantiation not reached" in the lane sweeps.
    static constexpr std::int64_t unreached = std::numeric_limits<std::int64_t>::min() / 2;

    /// Packs `width` delay assignments against `base`'s structure, for
    /// sweeps covering `periods` unfolding periods.  Reuses this object's
    /// storage — the engine calls it once per lane group.
    ///
    /// Lane l arrives already scaled when `image(l, d)` leaves its
    /// fixed-point domain in `d` (d.scaled over the source graph's arcs,
    /// storage reused — a scenario source's int64 image) and returns true.
    /// Otherwise its domain is computed from `rationals(l)` (full
    /// original-arc indexing, validated like compiled_graph::rebind) by the
    /// scalar rebind's code.  Lanes that cannot live in the scaled-int64
    /// domain for `periods` (exactly the assignments whose scalar rebind
    /// would fall back to rational arithmetic) are marked evicted and
    /// zero-filled.
    void rebind_lanes(const compiled_graph& base, unsigned width, std::uint32_t periods,
                      const std::function<bool(unsigned, fixed_point_domain&)>& image,
                      const std::function<const std::vector<rational>&(unsigned)>& rationals);

    [[nodiscard]] unsigned width() const noexcept { return width_; }
    [[nodiscard]] std::size_t arc_count() const noexcept { return arcs_; }

    [[nodiscard]] bool evicted(unsigned lane) const noexcept { return evicted_[lane] != 0; }
    [[nodiscard]] std::size_t evicted_count() const noexcept { return evicted_count_; }

    /// The lane's fixed-point scale; 0 when evicted.
    [[nodiscard]] std::int64_t scale(unsigned lane) const noexcept { return scale_[lane]; }

    /// Exact conversion out of the lane's domain (lane must not be evicted).
    [[nodiscard]] rational unscale(unsigned lane, std::int64_t v) const
    {
        return {v, scale_[lane]};
    }

    /// The SoA delay array, delay[arc * width() + lane].
    [[nodiscard]] const std::int64_t* delay() const noexcept { return delay_.data(); }

private:
    unsigned width_ = 0;
    std::size_t arcs_ = 0;
    std::size_t evicted_count_ = 0;
    std::vector<std::int64_t> scale_;
    std::vector<std::uint8_t> evicted_;
    std::vector<std::int64_t> delay_;
    std::vector<fixed_point_domain> scratch_; ///< per-lane domains, storage reused
};

} // namespace tsg

#endif // TSG_CORE_LANE_DOMAIN_H
