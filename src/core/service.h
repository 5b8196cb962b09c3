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
// Serving metrics dogfood the statistical layer: per-request latencies
// stream through a stats_accumulator (core/stats.h) in microseconds, so
// the `stats` request kind reports p50/p95/p99 straight from the same
// histogram quantile machinery the timing analyses use.
//
// Admission control keeps the daemon responsive under bursty traffic:
// the request queue is bounded (service_options::max_queue_depth), and
// arrivals beyond the bound are shed immediately with a structured
// "overloaded" response instead of growing the deque without limit — a
// client sees either its result or a prompt, retryable error, never an
// unbounded wait.  Deterministic batch payloads are additionally cached
// across requests (keyed on design version + canonical request body,
// bounded by a per-version byte budget), and per-design fleet counters
// break the serving traffic down in the `stats` payload.
//
// Transport is the caller's problem: submit() is the in-process API
// (thread-safe, returns a future), submit_async() the callback flavour
// the epoll transport (net/event_loop.h) drives, and serve_stream()
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
#include "core/stats.h"
#include "sg/signal_graph.h"
#include "util/rational.h"

namespace tsg {

struct service_options {
    /// Dispatch threads draining the request queue.  Each worker runs one
    /// request (or one coalesced batch) at a time; the scenario fan-out
    /// inside a batch is the engine's own pool (request_options::
    /// max_threads).  0 is clamped to 1.
    unsigned workers = 2;

    /// Merge compatible queued batch requests into one engine run.  Off
    /// reproduces strict one-request-per-batch execution (the solo
    /// baseline the benchmark compares against).
    bool coalesce = true;

    /// Scenario budget per merged batch: the coalescer stops admitting
    /// partners when the merged batch would exceed this many scenarios.
    std::size_t max_coalesce_scenarios = 256;

    /// Extra time a worker waits for merge partners after popping a batch
    /// request, before scanning the queue.  0 (the default) coalesces
    /// only what is already queued — natural batching under load.
    std::chrono::microseconds coalesce_window{0};

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

    /// When coalesce_window is 0, scale a waiting window from the recent
    /// request arrival rate: under bursty traffic a worker briefly waits
    /// for merge partners (up to adaptive_window_cap), at low rates it
    /// never waits — latency is only spent where coalescing can pay.
    bool adaptive_window = true;
    std::chrono::microseconds adaptive_window_cap{400};

    /// Cross-request payload cache: deterministic batch requests (sweep,
    /// seeded non-adaptive Monte Carlo) with an identical body hitting the
    /// same design version are served the first response's payload bytes
    /// without touching the engine.  Keyed on (design version, canonical
    /// request document minus the client correlation id).
    bool payload_cache = true;
    /// Per-version byte budget of the payload cache, counting key plus
    /// payload bytes.  An insert that would overflow it clears the
    /// version's cache first; a payload larger than the whole budget is
    /// served but never cached.
    std::size_t payload_cache_bytes = std::size_t{1} << 20;

    /// Latency histogram: bin count and support [0, hi] in microseconds
    /// (quantiles clamp to the observed exact extremes regardless).
    std::size_t latency_histogram_bins = 64;
    rational latency_histogram_hi = rational(1000000);

    /// Per-design admission quota: a token bucket per design id refilled
    /// at `design_quota_rps` requests/second with capacity
    /// `design_quota_burst` (0 burst derives max(1, ceil(rps))).  Requests
    /// beyond the quota are shed with a structured "rate_limited" error
    /// carrying a retry_after_ms hint.  rps 0 disables quotas.  stats and
    /// health probes are exempt (they never name a design's work).
    double design_quota_rps = 0.0;
    double design_quota_burst = 0.0;
};

/// Per-design serving counters — the fleet view of one registered design.
struct design_traffic {
    std::uint64_t requests = 0;   ///< requests naming this design, shed included
    std::uint64_t failures = 0;   ///< of those, responses with ok == false
    std::uint64_t shed = 0;       ///< of those, shed by admission control
    std::uint64_t scenarios = 0;  ///< scenarios evaluated for this design
    std::uint64_t cache_hits = 0; ///< payloads served from the cross-request cache
    std::uint64_t rate_limited = 0;      ///< shed by the per-design quota
    std::uint64_t deadline_expired = 0;  ///< shed because deadline_ms passed
};

/// One consistent snapshot of the serving counters.
struct service_metrics {
    std::uint64_t requests = 0;           ///< accepted by submit()/serve_stream()
    std::uint64_t failures = 0;           ///< responses with ok == false
    std::uint64_t requests_shed = 0;      ///< shed with "overloaded" at admission
    std::uint64_t rate_limited = 0;       ///< shed with "rate_limited" (quota)
    std::uint64_t deadline_expired = 0;   ///< shed with "deadline_exceeded"
    std::uint64_t drain_rejected = 0;     ///< refused with "draining"
    bool draining = false;                ///< begin_drain() has been called
    std::uint64_t engine_batches = 0;     ///< scenario_engine::run invocations
    std::uint64_t batch_requests = 0;     ///< batch-kind requests served
    std::uint64_t coalesced_requests = 0; ///< of those, served from merged runs
    std::uint64_t cache_hits = 0;         ///< served from the payload cache
    std::size_t cache_entries = 0;        ///< payloads cached across live versions
    std::size_t cache_bytes = 0;          ///< their key + payload bytes
    std::uint64_t scenarios = 0;          ///< scenarios evaluated in batches
    std::uint64_t edits_committed = 0;    ///< edit requests that committed a version
    std::uint64_t versions_evicted = 0;

    std::size_t queue_depth = 0; ///< requests waiting right now
    std::size_t queue_peak = 0;  ///< high-water mark since construction
    std::size_t queue_limit = 0; ///< admission depth (0 = unbounded)
    std::size_t designs = 0;
    std::size_t versions = 0; ///< live snapshots across every chain

    /// Smoothed inter-arrival time of recent requests (microseconds; 0
    /// until two requests have arrived) — the adaptive window's input.
    double arrival_ewma_us = 0.0;

    /// Per-design traffic breakdown, sorted by design id.
    std::vector<std::pair<std::string, design_traffic>> fleet;

    /// batch_requests / engine_batches — how many requests each engine
    /// run served on average (1.0 = no merging happened).
    double coalescing_efficiency = 1.0;

    double uptime_seconds = 0.0;
    double scenarios_per_second = 0.0;

    /// Latency distribution (microseconds, submit to completion), from
    /// the dogfooded stats_accumulator.
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

    /// Enqueues one request; the future completes when a worker (or a
    /// coalesced batch) has served it.  Requests must reference a
    /// registered design by id — path/text/demo references are the
    /// tool's stand-alone mode, not the service's.  When admission
    /// control sheds the request the future is ready immediately with an
    /// "overloaded" error response.
    [[nodiscard]] std::future<analysis_response> submit(analysis_request request);

    /// The transport-facing submission path: `done` runs exactly once, on
    /// the worker thread that completes the request.  Returns nullopt on
    /// acceptance; otherwise the structured error to hand the client
    /// (queue full, service stopping) — `done` then never runs, so a
    /// non-blocking caller (the epoll loop) can respond synchronously
    /// without parking a thread on a future.
    [[nodiscard]] std::optional<api_error> submit_async(
        analysis_request request, std::function<void(analysis_response)> done);

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

    /// The arrival-rate-adaptive coalescing window: 0 at low rates (an
    /// isolated request should not wait for partners that are not
    /// coming), then a few inter-arrival times — clamped to `cap` — once
    /// arrivals are dense enough that a short wait fills a lane group.
    /// Pure; exposed for the backpressure tests.
    [[nodiscard]] static std::chrono::microseconds adaptive_coalesce_window(
        double arrival_ewma_us, std::chrono::microseconds cap);

private:
    struct design_version;
    struct design_entry;
    struct pending;

    void worker_loop();
    void handle(pending job);
    void handle_batch(pending first);
    void finish(pending& job, analysis_response response);
    /// Sheds `job` with a deadline_exceeded response and bumps counters.
    void shed_expired(pending& job);
    [[nodiscard]] analysis_response respond_error(const pending& job,
                                                  const std::string& diagnostic);

    /// Enqueues `job` unless admission control sheds it; on shedding the
    /// returned error is also delivered through the job's channel.
    [[nodiscard]] std::optional<api_error> admit(pending job);
    [[nodiscard]] std::chrono::microseconds coalesce_wait() const;

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
    [[nodiscard]] std::vector<scenario> scenarios_for(design_version& version,
                                                      const analysis_request& request);

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
    /// Arrival-rate tracking for the adaptive window (under queue_mutex_).
    bool arrival_seen_ = false;
    std::chrono::steady_clock::time_point last_arrival_;
    double arrival_ewma_us_ = 0.0;

    std::vector<std::thread> workers_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> failures_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> rate_limited_{0};
    std::atomic<std::uint64_t> deadline_expired_{0};
    std::atomic<std::uint64_t> drain_rejected_{0};
    std::atomic<std::uint64_t> cache_hits_{0};
    std::atomic<std::uint64_t> engine_batches_{0};
    std::atomic<std::uint64_t> batch_requests_{0};
    std::atomic<std::uint64_t> coalesced_requests_{0};
    std::atomic<std::uint64_t> scenarios_{0};
    std::atomic<std::uint64_t> edits_{0};
    std::atomic<std::uint64_t> evictions_{0};

    mutable std::mutex latency_mutex_;
    stats_accumulator latency_; ///< microseconds as exact cycle times

    mutable std::mutex fleet_mutex_;
    std::map<std::string, design_traffic> fleet_;

    /// Per-design token buckets (design_quota_rps > 0).  tokens refills
    /// continuously at design_quota_rps up to the burst capacity; an
    /// admission takes one token or sheds with a retry_after_ms hint.
    struct token_bucket {
        double tokens = 0.0;
        std::chrono::steady_clock::time_point last{};
        bool primed = false;
    };
    /// Takes one token from `id`'s bucket.  Returns 0 on admission (always
    /// for unregistered ids, which resolve to unknown_design), else the
    /// suggested retry delay in milliseconds (>= 1).
    [[nodiscard]] std::uint64_t take_quota_token(const std::string& id);
    mutable std::mutex quota_mutex_;
    std::map<std::string, token_bucket> quotas_;
};

} // namespace tsg

#endif // TSG_CORE_SERVICE_H
