// Lock-free log-linear histogram of integer latencies (microseconds).
//
// Values below 128 get one bucket each, so they come back exactly.  Above
// that, every power of two [2^k, 2^(k+1)) is split into 64 equal buckets
// of width 2^(k-6); a value is reported at the midpoint of its bucket, at
// most v/128 away from it.  Every uint64 value has a bucket (3776 in all).
//
// record() is three relaxed atomic adds (bucket, count, sum): no lock, safe
// from any number of threads.  A read racing a record may see it in one
// counter and not yet in another; quantiles rank against the bucket total
// they walk, so each stays self-consistent.
#ifndef TSG_UTIL_LATENCY_HISTOGRAM_H
#define TSG_UTIL_LATENCY_HISTOGRAM_H

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace tsg {

class latency_histogram {
    static constexpr unsigned linear_bits = 7; ///< [0, 128): one bucket per value
    static constexpr unsigned sub_bits = 6;    ///< 64 buckets per power of two above
    static constexpr std::size_t linear = std::size_t{1} << linear_bits;
    static constexpr std::size_t sub = std::size_t{1} << sub_bits;

public:
    static constexpr std::size_t bucket_count = linear + (64 - linear_bits) * sub;

    void record(std::uint64_t value)
    {
        buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /// Mean of the recorded values; 0 when empty.
    [[nodiscard]] double mean() const
    {
        const std::uint64_t n = count();
        return n == 0 ? 0.0
                      : static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                            static_cast<double>(n);
    }

    /// Nearest-rank quantile — the ceil(q·n)-th smallest value, clamped to
    /// [1, n] — reported at its bucket's midpoint; 0 when empty.
    [[nodiscard]] double quantile(double q) const
    {
        std::uint64_t total = 0;
        for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
        if (total == 0) return 0.0;
        const double wanted = std::ceil(q * static_cast<double>(total));
        const std::uint64_t rank = wanted <= 1.0 ? 1
                                   : wanted >= static_cast<double>(total)
                                       ? total
                                       : static_cast<std::uint64_t>(wanted);
        std::uint64_t seen = 0;
        std::size_t i = 0;
        while ((seen += buckets_[i].load(std::memory_order_relaxed)) < rank) ++i;
        return midpoint(i);
    }

    [[nodiscard]] static std::size_t bucket_of(std::uint64_t value)
    {
        if (value < linear) return static_cast<std::size_t>(value);
        const unsigned k = static_cast<unsigned>(std::bit_width(value)) - 1;
        const std::size_t offset = static_cast<std::size_t>(value >> (k - sub_bits)) - sub;
        return linear + (k - linear_bits) * sub + offset;
    }

private:
    /// Midpoint of the integer values bucket `i` holds: the value itself
    /// below 128, else lo + (width - 1) / 2.
    [[nodiscard]] static double midpoint(std::size_t i)
    {
        if (i < linear) return static_cast<double>(i);
        const std::size_t j = i - linear;
        const unsigned shift = linear_bits + static_cast<unsigned>(j / sub) - sub_bits;
        const std::uint64_t lo = static_cast<std::uint64_t>(sub + j % sub) << shift;
        const std::uint64_t width = std::uint64_t{1} << shift;
        return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
    }

    std::array<std::atomic<std::uint64_t>, bucket_count> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

} // namespace tsg

#endif // TSG_UTIL_LATENCY_HISTOGRAM_H
