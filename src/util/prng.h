// Small deterministic PRNG (xoroshiro128++) for reproducible random model
// generation in tests and benchmarks.  Not cryptographic.
#ifndef TSG_UTIL_PRNG_H
#define TSG_UTIL_PRNG_H

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace tsg {

/// Deterministic 64-bit PRNG with a tiny state, seedable from one word.
/// The same seed yields the same stream on every platform.
class prng {
public:
    explicit prng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept
    {
        // SplitMix64 seeding, recommended initialization for xoroshiro.
        std::uint64_t z = seed;
        s0_ = split_mix(z);
        s1_ = split_mix(z);
        if (s0_ == 0 && s1_ == 0) s1_ = 1; // the all-zero state is invalid
    }

    /// Next raw 64-bit value (xoroshiro128++).
    std::uint64_t next() noexcept
    {
        const std::uint64_t r = rotl(s0_ + s1_, 17) + s0_;
        const std::uint64_t t = s1_ ^ s0_;
        s0_ = rotl(s0_, 49) ^ t ^ (t << 21);
        s1_ = rotl(t, 28);
        return r;
    }

    /// Uniform integer in [lo, hi] inclusive.  Throws if lo > hi.
    std::int64_t uniform(std::int64_t lo, std::int64_t hi)
    {
        require(lo <= hi, "prng::uniform: empty range");
        // Unsigned arithmetic: hi - lo and lo + offset may not fit int64.
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
        if (span == 0) return static_cast<std::int64_t>(next()); // full 64-bit range
        // Rejection sampling to remove modulo bias.
        const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
        std::uint64_t v = next();
        while (v >= limit) v = next();
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + v % span);
    }

    /// Uniform double in [0, 1).
    double uniform01() noexcept
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Bernoulli trial with probability p of true.
    bool chance(double p) { return uniform01() < p; }

    /// Uniformly chosen index into a container of the given size (> 0).
    std::size_t index(std::size_t size)
    {
        require(size > 0, "prng::index: empty container");
        return static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(size) - 1));
    }

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items)
    {
        for (std::size_t i = items.size(); i > 1; --i) {
            using std::swap;
            swap(items[i - 1], items[index(i)]);
        }
    }

private:
    [[nodiscard]] static std::uint64_t rotl(std::uint64_t x, int k) noexcept
    {
        return (x << k) | (x >> (64 - k));
    }

    [[nodiscard]] static std::uint64_t split_mix(std::uint64_t& z) noexcept
    {
        z += 0x9e3779b97f4a7c15ULL;
        std::uint64_t r = z;
        r = (r ^ (r >> 30)) * 0xbf58476d1ce4e5b9ULL;
        r = (r ^ (r >> 27)) * 0x94d049bb133111ebULL;
        return r ^ (r >> 31);
    }

    std::uint64_t s0_;
    std::uint64_t s1_;
};

/// prng::uniform(lo, hi) with the range's two divisions done once: the
/// same values from the same stream, for loops that draw many values from
/// one range (the Monte Carlo grid draws).  The per-draw remainder is
/// Lemire's direct computation with a 128-bit reciprocal, exact for every
/// 64-bit value and divisor.
class uniform_range {
public:
    uniform_range(std::int64_t lo, std::int64_t hi)
        : lo_(static_cast<std::uint64_t>(lo)),
          span_(static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1)
    {
        require(lo <= hi, "prng::uniform: empty range");
        if (span_ == 0) return; // full 64-bit range: no reduction
        limit_ = UINT64_MAX - UINT64_MAX % span_;
        reciprocal_ = ~static_cast<uint128>(0) / span_ + 1;
    }

    std::int64_t operator()(prng& rng) const noexcept
    {
        if (span_ == 0) return static_cast<std::int64_t>(rng.next());
        std::uint64_t v = rng.next();
        while (v >= limit_) v = rng.next();
        // v % span_ == high 64 bits of (frac * span_), frac = reciprocal_ * v mod 2^128.
        const uint128 frac = reciprocal_ * v;
        const uint128 low = (static_cast<uint128>(static_cast<std::uint64_t>(frac)) * span_) >> 64;
        const uint128 high = (frac >> 64) * span_;
        return static_cast<std::int64_t>(lo_ + static_cast<std::uint64_t>((low + high) >> 64));
    }

private:
    __extension__ typedef unsigned __int128 uint128;

    std::uint64_t lo_;
    std::uint64_t span_;
    std::uint64_t limit_ = 0;
    uint128 reciprocal_ = 0;
};

} // namespace tsg

#endif // TSG_UTIL_PRNG_H
