// Persistent analysis service: concurrent clients, shared design
// snapshots, coalesced lane batches.
//
// The scenario engine amortizes compilation across the scenarios of one
// batch; this layer amortizes it across *clients*.  An analysis_service
// owns a registry of versioned designs — design id -> a chain of immutable
// compiled snapshots — and a worker pool draining one request queue, so
// many clients analyze the same compiled structure without ever
// recompiling it, and structural edits produce new versions instead of
// invalidating anyone's in-flight work:
//
//   * register_design() compiles a signal graph into version 1 of a chain
//     (registering the same id again appends the next version);
//   * kind::edit requests run the JSON edit script through an
//     incremental_engine seeded from the latest version and commit the
//     edited structure as a new immutable version; older versions stay
//     addressable (design_ref::version pins one) until LRU eviction
//     trims the chain to service_options::max_versions_per_design;
//   * batch requests (sweep, non-adaptive montecarlo) flow through the
//     coalescer: a worker that pops one merges every queued compatible
//     request for the same design into a single engine batch, so small
//     requests from different clients fill whole SoA lane groups and the
//     scenario fan-out actually parallelizes.  Results are demultiplexed
//     per request: each response's outcome slice is re-reduced with
//     reduce_scenario_outcomes(), so every aggregate (min/max/mean,
//     criticality counts, critical-cycle table, fallback tally) is
//     bit-identical to running that request alone.  Only the engine
//     accounting block (lane groups, scalar tail) reports the merged
//     batch's physical execution — the one documented difference.
//
// Request latencies (submit to completion, whole microseconds) go into a
// lock-free log-linear histogram (util/latency_histogram.h), so the
// `stats` request kind reports p50/p95/p99 within 1/64 of a recorded
// latency.
//
// Admission control keeps the daemon responsive under bursty traffic:
// the request queue is bounded (service_options::max_queue_depth), and
// arrivals beyond the bound are shed immediately with a structured
// "overloaded" response instead of growing the deque without limit — a
// client sees either its result or a prompt, retryable error, never an
// unbounded wait.  Per-design quotas are token buckets
// (util/token_bucket.h), the same policy as the event loop's
// per-connection limit.  Per-design fleet counters break the serving
// traffic down in the `stats` payload.  Every response is computed: the
// analysis is exact and deterministic, so a repeated request recomputes
// the same bytes rather than reading them from a cache.
//
// Transport is the caller's problem: submit_async() is the one
// submission path (a completion callback; the epoll transport in
// net/event_loop.h drives it), submit() wraps it in a future for
// in-process callers, and serve_stream()
// speaks newline-delimited JSON over any iostream pair (tsg_serve's
// --pipe mode and the tests sit on it).  serve_stream handles one request
// per line in order, so a stream replay is byte-identical to running the
// tool once per request.  It stops at the first response its output
// stream refuses: a reader that went away receives nothing more.
#ifndef TSG_CORE_SERVICE_H
#define TSG_CORE_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "sg/signal_graph.h"
#include "util/latency_histogram.h"
#include "util/rational.h"
#include "util/token_bucket.h"

namespace tsg {

struct service_options {
    /// Dispatch threads draining the request queue.  Each worker runs one
    /// request (or one coalesced batch) at a time; the scenario fan-out
    /// inside a batch is the engine's own pool (request_options::
    /// max_threads).  0 is clamped to 1.
    unsigned workers = 2;

    /// Merge compatible batch requests already queued into one engine run
    /// (up to 256 scenarios; no worker waits for partners).  Off
    /// reproduces strict one-request-per-batch execution (the solo
    /// baseline the benchmark compares against).
    bool coalesce = true;

    /// Versions kept per design chain.  Committing an edit beyond this
    /// evicts the least-recently-used non-latest version; pinned requests
    /// for an evicted version fail with code "unknown_version".
    std::size_t max_versions_per_design = 4;

    /// Admission control: requests queued beyond this depth are shed with
    /// a structured "overloaded" response instead of growing the deque
    /// without bound.  Shed responses complete immediately (the future is
    /// ready when submit() returns).  0 disables shedding (the pre-
    /// admission-control behaviour).
    std::size_t max_queue_depth = 1024;

    /// Per-design admission quota: a token bucket (util/token_bucket.h)
    /// per registered design, refilled at `design_quota_rps` requests per
    /// second with capacity `design_quota_burst` (0 burst derives
    /// max(1, ceil(rps))).  Requests beyond the quota are shed with a
    /// structured "rate_limited" error carrying a retry_after_ms hint of
    /// ceil(ms until the next token).  rps 0 disables quotas.  stats and
    /// health probes are exempt (they never name a design's work).
    double design_quota_rps = 0.0;
    double design_quota_burst = 0.0;
};

/// Per-design serving counters — the fleet view of one registered design.
struct design_traffic {
    std::uint64_t requests = 0;   ///< requests naming this design, shed included
    std::uint64_t failures = 0;   ///< of those, responses with ok == false
    std::uint64_t shed = 0;       ///< of those, shed by admission control
    std::uint64_t scenarios = 0;  ///< scenarios and samples evaluated for this design
    std::uint64_t rate_limited = 0;      ///< shed by the per-design quota
    std::uint64_t deadline_expired = 0;  ///< answered "deadline_exceeded"
};

/// One consistent snapshot of the serving counters.
struct service_metrics {
    std::uint64_t requests = 0;           ///< accepted by submit()/serve_stream()
    std::uint64_t failures = 0;           ///< responses with ok == false
    std::uint64_t requests_shed = 0;      ///< shed with "overloaded" at admission
    std::uint64_t rate_limited = 0;       ///< shed with "rate_limited" (quota)
    std::uint64_t deadline_expired = 0;   ///< answered "deadline_exceeded"
    std::uint64_t drain_rejected = 0;     ///< refused with "draining"
    bool draining = false;                ///< begin_drain() has been called
    std::uint64_t engine_batches = 0;     ///< scenario_engine::run invocations
    std::uint64_t batch_requests = 0;     ///< batch-kind requests served
    std::uint64_t coalesced_requests = 0; ///< of those, served from merged runs
    std::uint64_t scenarios = 0;          ///< scenarios and statistics samples evaluated
    std::uint64_t edits_committed = 0;    ///< edit requests that committed a version
    std::uint64_t versions_evicted = 0;

    std::size_t queue_depth = 0; ///< requests waiting right now
    std::size_t queue_peak = 0;  ///< high-water mark since construction
    std::size_t queue_limit = 0; ///< admission depth (0 = unbounded)
    std::size_t designs = 0;
    std::size_t versions = 0; ///< live snapshots across every chain

    /// Per-design traffic breakdown, sorted by design id.
    std::vector<std::pair<std::string, design_traffic>> fleet;

    /// batch_requests / engine_batches — how many requests each engine
    /// run served on average (1.0 = no merging happened).
    double coalescing_efficiency = 1.0;

    double uptime_seconds = 0.0;
    double scenarios_per_second = 0.0;

    /// Latency distribution (microseconds, submit to completion):
    /// nearest-rank quantiles at their histogram bucket's midpoint.
    std::size_t latency_samples = 0;
    double latency_mean_us = 0.0;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;
};

/// The persistent analysis daemon core.  Construction starts the worker
/// pool; destruction drains every queued request (each still receives its
/// response) and joins.  All public methods are thread-safe.
class analysis_service {
public:
    explicit analysis_service(service_options options = {});
    ~analysis_service();

    analysis_service(const analysis_service&) = delete;
    analysis_service& operator=(const analysis_service&) = delete;

    /// Compiles a copy of `sg` and appends it to `id`'s version chain
    /// (creating the chain at version 1).  Returns the new version.
    std::uint64_t register_design(const std::string& id, const signal_graph& sg);

    /// The submission path: `done` runs exactly once, on the worker
    /// thread that completes the request.  Requests must reference a
    /// registered design by id — path/text/demo references are the
    /// tool's stand-alone mode, not the service's.  Returns nullopt on
    /// acceptance; otherwise the structured error to hand the client
    /// (queue full, quota, draining) — `done` then never runs, so a
    /// non-blocking caller (the epoll loop) can respond synchronously
    /// without parking a thread on a future.
    [[nodiscard]] std::optional<api_error> submit_async(
        analysis_request request, std::function<void(analysis_response)> done);

    /// submit_async() completing a future.  A refused request's future is
    /// ready when submit() returns, holding the structured error.
    [[nodiscard]] std::future<analysis_response> submit(analysis_request request);

    /// submit() + get(): the synchronous convenience.
    [[nodiscard]] analysis_response execute(analysis_request request);

    /// Newline-delimited JSON transport: one request document per input
    /// line, one response line flushed per request, in order.  Blank
    /// lines are skipped; malformed lines produce a structured-error
    /// response line and the stream continues.  Returns once `in` is
    /// exhausted or `out` fails (no further requests are executed).
    void serve_stream(std::istream& in, std::ostream& out);

    [[nodiscard]] service_metrics metrics() const;

    /// The `stats` request payload: the metrics snapshot as a JSON
    /// document (also callable directly).
    [[nodiscard]] std::string stats_json() const;

    /// The `health` request payload: readiness plus drain state, cheap
    /// enough for load-balancer probes ({"status": "ok" | "draining"}).
    [[nodiscard]] std::string health_json() const;

    /// Graceful-drain entry point.  After this, new work is refused with
    /// a structured "draining" error (health probes still answer, and
    /// report status "draining"); everything already queued keeps running
    /// to completion.  Idempotent and thread-safe.
    void begin_drain();
    [[nodiscard]] bool draining() const { return draining_.load(std::memory_order_acquire); }

    /// Blocks until every queued and in-flight request has been served,
    /// or `timeout` passes.  Returns true when the service fell idle in
    /// time.  Usually preceded by begin_drain() so the queue only ever
    /// shrinks; without it new submissions can extend the wait.
    [[nodiscard]] bool wait_idle(std::chrono::milliseconds timeout);

private:
    struct design_version;
    struct design_entry;
    struct pending;

    void worker_loop();
    void handle(pending job);
    void handle_batch(pending first);
    /// Completes `job`: stamps its latency, counts the response (a
    /// deadline_exceeded answer counts as an expiry here, and only here)
    /// and runs its callback.
    void finish(pending& job, analysis_response response);
    /// Answers `job` deadline_exceeded without running it.
    void shed_expired(pending& job);
    [[nodiscard]] analysis_response respond_error(const pending& job,
                                                  const std::string& diagnostic);
    /// The worker's one failure path: a tsg::error keeps the code its
    /// message carries, any other exception answers "internal".
    [[nodiscard]] analysis_response respond_exception(const pending& job,
                                                      const std::exception& e);

    /// Enqueues `job` unless admission control sheds it; a shed job's
    /// callback never runs.
    [[nodiscard]] std::optional<api_error> admit(pending job);

    /// True when `id` names a registered design.  Per-design state (fleet
    /// counters, quota buckets) exists only for these, so requests naming
    /// arbitrary ids cannot grow it.  Takes registry_mutex_; callers may
    /// hold fleet_mutex_ or quota_mutex_, which always lock first.
    [[nodiscard]] bool registered(const std::string& id) const;

    /// Applies `f` to the named design's fleet counters (no-op unless the
    /// design is registered).  The registry is consulted only for a
    /// design's first row, so the request path takes no registry lock.
    template <typename F> void bump_fleet(const std::string& design_id, F&& f)
    {
        std::lock_guard<std::mutex> lk(fleet_mutex_);
        auto it = fleet_.find(design_id);
        if (it == fleet_.end()) {
            if (!registered(design_id)) return;
            it = fleet_.emplace(design_id, design_traffic{}).first;
        }
        f(it->second);
    }

    [[nodiscard]] std::shared_ptr<design_version> resolve(const design_ref& ref);
    [[nodiscard]] std::shared_ptr<design_entry> entry_of(const std::string& id);
    std::uint64_t commit_version(design_entry& entry,
                                 std::shared_ptr<const signal_graph> graph);
    [[nodiscard]] rational nominal_of(design_version& version,
                                      const request_options& options);
    /// The version's cached sampling table of `request`'s Monte Carlo grid
    /// (built on first use); null when the grid is too large to cache.
    [[nodiscard]] std::shared_ptr<const monte_carlo_table> table_for(
        design_version& version, const analysis_request& request);
    /// The batch of a coalescable request, drawn through table_for.
    [[nodiscard]] std::unique_ptr<scenario_source> scenarios_for(
        design_version& version, const analysis_request& request);

    [[nodiscard]] std::string edit_payload(pending& job, std::uint64_t& out_version);

    service_options options_;
    std::chrono::steady_clock::time_point start_;

    mutable std::mutex registry_mutex_;
    std::map<std::string, std::shared_ptr<design_entry>> designs_;
    std::uint64_t use_tick_ = 0;

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::condition_variable idle_cv_; ///< signalled when queue + workers fall idle
    std::deque<pending> queue_;
    std::size_t queue_peak_ = 0;
    std::size_t busy_workers_ = 0; ///< workers currently serving a job
    bool stopping_ = false;
    std::atomic<bool> draining_{false};

    std::vector<std::thread> workers_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> failures_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> rate_limited_{0};
    std::atomic<std::uint64_t> deadline_expired_{0};
    std::atomic<std::uint64_t> drain_rejected_{0};
    std::atomic<std::uint64_t> engine_batches_{0};
    std::atomic<std::uint64_t> batch_requests_{0};
    std::atomic<std::uint64_t> coalesced_requests_{0};
    std::atomic<std::uint64_t> scenarios_{0};
    std::atomic<std::uint64_t> edits_{0};
    std::atomic<std::uint64_t> evictions_{0};

    latency_histogram latency_; ///< whole microseconds, submit to completion

    mutable std::mutex fleet_mutex_;
    std::map<std::string, design_traffic> fleet_;

    /// Takes one token from `id`'s quota bucket (design_quota_rps > 0).
    /// Returns 0 on admission (always for unregistered ids, which resolve
    /// to unknown_design), else the suggested retry delay in milliseconds
    /// (>= 1).
    [[nodiscard]] std::uint64_t take_quota_token(const std::string& id);
    mutable std::mutex quota_mutex_;
    std::map<std::string, token_bucket> quotas_;
};

} // namespace tsg

#endif // TSG_CORE_SERVICE_H
