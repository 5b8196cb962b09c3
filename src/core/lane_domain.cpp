#include "core/lane_domain.h"

#include <array>

#include "util/simd.h"

namespace tsg {

void lane_domain::rebind_lanes(const compiled_graph& base,
                               std::span<const std::vector<rational>* const> lanes,
                               std::uint32_t periods)
{
    const std::size_t source_arcs = base.delay().size();
    const bool core = base.has_core();
    // For cyclic graphs the sweeps run over the repetitive core; project
    // each lane's full-arc assignment through arc_original while packing.
    const std::vector<arc_id>* arc_original = nullptr;
    if (core) {
        const compiled_graph::core_view view = base.core();
        arcs_ = view.graph.arc_count();
        // identity cores have arc_original[a] == a; the projection below is
        // then a straight copy either way, so no special case is needed.
        arc_original = &view.arc_original;
    } else {
        arcs_ = source_arcs;
    }

    width_ = static_cast<unsigned>(lanes.size());
    require(width_ >= 1 && width_ <= 16, "lane_domain: lane count must be 1..16");
    evicted_count_ = 0;
    scale_.assign(width_, 0);
    evicted_.assign(width_, 0);
    delay_.resize(arcs_ * width_);
    scratch_.resize(width_);

    // Per-lane fixed-point domains first (same scale/overflow/period
    // criteria as the scalar rebind: a lane is evicted exactly when
    // compiled_graph::rebind would degrade the assignment to rational
    // arithmetic for this sweep horizon)...
    std::array<const std::int64_t*, 16> lane_scaled{};
    for (unsigned l = 0; l < width_; ++l) {
        const std::vector<rational>& d = *lanes[l];
        require(d.size() == source_arcs,
                "lane_domain: delay count does not match the arc count");

        // The domain scan folds the negativity check in; a disabled domain
        // may have stopped scanning early, so re-check explicitly there.
        compute_fixed_point_domain(d, scratch_[l]);
        bool negative = scratch_[l].negative;
        if (scratch_[l].scale == 0 && !negative)
            for (const rational& v : d) negative |= v.is_negative();
        require(!negative, "lane_domain: negative delay");

        if (!scratch_[l].available_for_periods(periods)) {
            evicted_[l] = 1;
            ++evicted_count_;
            lane_scaled[l] = nullptr; // slots become zero: benign, results unused
            continue;
        }
        scale_[l] = scratch_[l].scale;
        lane_scaled[l] = scratch_[l].scaled.data();
    }

    // ...then one arc-major interleave pass: each SoA cache line (the W
    // lanes of one arc) is written completely before moving on, against W
    // sequential source streams — instead of W strided passes that would
    // re-touch every line W times.
    std::int64_t* TSG_RESTRICT out = delay_.data();
    for (std::size_t a = 0; a < arcs_; ++a) {
        const std::size_t src = arc_original ? (*arc_original)[a] : a;
        for (unsigned l = 0; l < width_; ++l) {
            const std::int64_t* s = lane_scaled[l];
            out[a * width_ + l] = s ? s[src] : 0;
        }
    }
}

} // namespace tsg
