// Token-bucket rate limiter: the one admission policy behind the service's
// per-design quotas and the event loop's per-connection request limits.
//
// The bucket refills continuously at `rate` tokens per second up to
// `burst` (a burst of 0 derives max(1, ceil(rate))) and starts full.  Each
// admission takes one token; without one, take() returns how long until
// the next token, rounded up to whole milliseconds (at least 1), for the
// client's retry_after_ms hint.  A rate of 0 disables the limit.
//
// Time is passed in, so tests drive the bucket with explicit time points.
// Not synchronized: the owner serializes take() (the service under its
// quota mutex, each connection on the event-loop thread).
#ifndef TSG_UTIL_TOKEN_BUCKET_H
#define TSG_UTIL_TOKEN_BUCKET_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace tsg {

class token_bucket {
public:
    using time_point = std::chrono::steady_clock::time_point;

    token_bucket(double rate, double burst)
        : rate_(rate), burst_(burst > 0.0 ? burst : std::max(1.0, std::ceil(rate))),
          tokens_(burst_)
    {
    }

    [[nodiscard]] double rate() const { return rate_; }

    /// Takes one token at `now`.  Returns 0 on admission, else the retry
    /// delay in whole milliseconds (>= 1).
    [[nodiscard]] std::uint64_t take(time_point now)
    {
        if (rate_ <= 0.0) return 0;
        if (now > last_) {
            const double dt = std::chrono::duration<double>(now - last_).count();
            tokens_ = std::min(burst_, tokens_ + rate_ * dt);
            last_ = now;
        }
        if (tokens_ >= 1.0) {
            tokens_ -= 1.0;
            return 0;
        }
        const double wait_ms = (1.0 - tokens_) / rate_ * 1000.0;
        return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(wait_ms)));
    }

private:
    double rate_;
    double burst_;
    double tokens_;
    time_point last_{}; ///< last refill; the epoch, so the first take finds the bucket full
};

} // namespace tsg

#endif // TSG_UTIL_TOKEN_BUCKET_H
