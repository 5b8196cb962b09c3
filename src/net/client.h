// The retrying NDJSON client: the sanctioned way to talk to a tsg_serve
// fleet.
//
// The serving layers shed load with *structured, retryable* errors —
// "overloaded" (queue full), "rate_limited" (quota, with a
// retry_after_ms hint), "draining" (instance shutting down for a rolling
// restart) — and the transport can drop a connection mid-flight.  Raw
// socket callers have to rediscover the same policy every time; this
// client packages it once:
//
//   * connect / reconnect to 127.0.0.1:port with a bounded dial retry
//     (a restarting daemon is briefly not listening — that gap is
//     retryable, not fatal);
//   * pipelined NDJSON: up to 32 requests in flight on one
//     connection.  The server answers in request order per connection,
//     so responses complete outstanding requests FIFO; a connection loss
//     makes every outstanding request a retry candidate (the daemon
//     answers every request it accepts — see the drain contract — so an
//     unanswered request at EOF was never accepted);
//   * retry policy: retryable sheds and transport losses are retried
//     with jittered exponential backoff (deterministic tsg::prng
//     jitter), honouring the server's retry_after_ms hint when it is
//     larger, up to max_attempts per request; terminal errors
//     (bad_request, unknown_design, deadline_exceeded, ...) come back
//     immediately.
//
// call_many() pipelines a whole batch and converges it to completion;
// call() is call_many() of one request.  Both are synchronous and
// single-threaded by design: a load generator runs one client per
// thread (bench_serve's retry round), a CAD session runs one, period.
#ifndef TSG_NET_CLIENT_H
#define TSG_NET_CLIENT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/api.h"
#include "util/prng.h"

namespace tsg::net {

struct client_options {
    /// 127.0.0.1 port of the daemon.
    std::uint16_t port = 0;

    /// Total attempts per request (first try included).  Attempts beyond
    /// the budget surface the last structured error to the caller.
    unsigned max_attempts = 8;

    /// Exponential backoff schedule: attempt k sleeps
    /// min(2 ms * 2^k, cap) scaled by a jitter factor in [0.5, 1.0], or
    /// the server's retry_after_ms hint when that is larger.
    std::chrono::milliseconds backoff_cap{250};

    /// Jitter seed — deterministic streams for reproducible tests.
    std::uint64_t jitter_seed = 0x74736721ULL;

    /// Bound on one connect() dial; a refused dial backs off and retries
    /// within the same attempt budget.
    std::chrono::milliseconds dial_timeout{1000};
};

/// What one converged request went through — the bench's raw material.
struct call_outcome {
    analysis_response response;  ///< the final (served or given-up) response
    unsigned attempts = 1;       ///< tries consumed, first included
    unsigned sheds = 0;          ///< structured retryable sheds along the way
    unsigned reconnects = 0;     ///< connection losses along the way
    double latency_ms = 0.0;     ///< first submission to final response
};

/// Aggregate counters across a client's lifetime.
struct client_metrics {
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t retries = 0;       ///< re-submissions (sheds + losses)
    std::uint64_t sheds_seen = 0;    ///< retryable structured sheds observed
    std::uint64_t reconnects = 0;    ///< connections (re)established after the first
    std::uint64_t gave_up = 0;       ///< requests that exhausted max_attempts
};

class client {
public:
    explicit client(client_options options);
    ~client();

    client(const client&) = delete;
    client& operator=(const client&) = delete;

    /// True when a response's structured error invites a retry.
    [[nodiscard]] static bool retryable(const api_error& error);

    /// Pipelines `requests` (up to 32 outstanding) and converges every
    /// one of them: retryable sheds and transport losses are retried
    /// under the backoff policy.  Outcomes are returned in input order,
    /// each holding its final response (ok, terminal error, or the last
    /// retryable error once the budget is spent), which always carries
    /// the request's id.  Requests are never abandoned early: a retryable
    /// shed goes back into the send queue until it serves or exhausts its
    /// budget.  An expired read (10 s without a response line) counts as
    /// a connection loss.
    std::vector<call_outcome> call_many(const std::vector<analysis_request>& requests);

    /// call_many() of one request.
    call_outcome call(const analysis_request& request);

    [[nodiscard]] const client_metrics& metrics() const { return metrics_; }

private:
    struct slot; ///< one in-flight request of call_many

    /// Ensures a live connection; returns false once the dial budget of
    /// the current attempt window is spent.
    bool ensure_connected();
    void disconnect();
    /// Blocking send of one NDJSON line; false on a lost connection.
    bool send_line(const std::string& line);
    /// Blocking bounded read of one NDJSON line; false on loss/timeout.
    bool read_line(std::string& line);
    /// The jittered backoff for attempt `k` honouring `hint_ms`.
    [[nodiscard]] std::chrono::milliseconds backoff_delay(unsigned attempt,
                                                          std::uint64_t hint_ms);

    client_options options_;
    prng jitter_;
    int fd_ = -1;
    std::string read_buffer_; ///< bytes past the last returned line
    client_metrics metrics_;
};

} // namespace tsg::net

#endif // TSG_NET_CLIENT_H
