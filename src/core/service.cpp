#include "core/service.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "core/compiled_graph.h"
#include "core/incremental.h"
#include "util/error.h"
#include "util/strings.h"

namespace tsg {

// --- internal structures -----------------------------------------------------

/// One queued request with its completion callback.
struct analysis_service::pending {
    analysis_request request;
    std::function<void(analysis_response)> done;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute deadline computed at admission from options.deadline_ms
    /// (epoch default: none).  Expired jobs are shed before execution and
    /// adaptive runs check it between rounds.
    std::chrono::steady_clock::time_point deadline{};

    [[nodiscard]] bool expired(std::chrono::steady_clock::time_point now) const
    {
        return deadline.time_since_epoch().count() != 0 && now >= deadline;
    }
};

/// One immutable compiled snapshot of a design.  The graph lives on the
/// heap behind a shared_ptr so its address is stable for the lifetime of
/// every rebind, even after the version is evicted from the chain while a
/// worker still analyzes it.  The engine owns the snapshot's caches (the
/// nominal cycle time and the Monte Carlo sampling tables), shared by every
/// worker that serves this version.
struct analysis_service::design_version {
    std::uint64_t version = 0;
    std::shared_ptr<const signal_graph> graph;
    std::unique_ptr<const compiled_graph> compiled;
    std::unique_ptr<scenario_engine> engine;
    std::uint64_t last_used = 0; ///< registry use tick, for LRU eviction
};

/// One design chain: ascending versions plus the edit serialization lock.
struct analysis_service::design_entry {
    std::string id;
    std::vector<std::shared_ptr<design_version>> versions;
    std::uint64_t next_version = 1;
    std::mutex edit_mutex; ///< structural edits on a design are serial
};

namespace {

/// Two batch requests may share one engine run only when every knob that
/// shapes the run itself agrees; the per-request payload knobs (factor,
/// samples, seed, spread, resolution) are free to differ.
bool engine_compatible(const request_options& a, const request_options& b)
{
    return a.solver == b.solver && a.max_threads == b.max_threads &&
           a.lane_width == b.lane_width && a.with_slack == b.with_slack &&
           a.with_witness == b.with_witness;
}

/// A sliced response reports the merged run's physical engine accounting
/// (the lane counters describe how the batch actually executed);
/// every per-request aggregate is re-reduced from the outcome slice.
void copy_engine_accounting(const scenario_batch_result& from, scenario_batch_result& to)
{
    to.lane_groups = from.lane_groups;
    to.lane_scenarios = from.lane_scenarios;
    to.lane_evictions = from.lane_evictions;
    to.scalar_scenarios = from.scalar_scenarios;
}

/// Scenario budget of one merged batch: the coalescer admits no partner
/// that would take the batch past it, and a request at or above it merges
/// with nothing.
constexpr std::size_t max_coalesce_scenarios = 256;

bool coalescable(const analysis_request& request)
{
    return request.kind == request_kind::sweep ||
           (request.kind == request_kind::montecarlo && !request.options.adaptive);
}

} // namespace

// --- lifecycle ---------------------------------------------------------------

analysis_service::analysis_service(service_options options)
    : options_(std::move(options)), start_(std::chrono::steady_clock::now())
{
    const unsigned n = std::max(1u, options_.workers);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back(&analysis_service::worker_loop, this);
}

analysis_service::~analysis_service()
{
    {
        std::lock_guard<std::mutex> lk(queue_mutex_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    // Workers drain the queue before exiting, so every accepted request
    // still receives its response.
    for (std::thread& w : workers_) w.join();
}

// --- registry ----------------------------------------------------------------

std::uint64_t analysis_service::register_design(const std::string& id,
                                                const signal_graph& sg)
{
    require(!id.empty(), "bad_request: a design id must not be empty");
    std::shared_ptr<design_entry> entry;
    {
        std::lock_guard<std::mutex> lk(registry_mutex_);
        std::shared_ptr<design_entry>& slot = designs_[id];
        if (!slot) {
            slot = std::make_shared<design_entry>();
            slot->id = id;
        }
        entry = slot;
    }
    std::lock_guard<std::mutex> edit_lock(entry->edit_mutex);
    return commit_version(*entry, std::make_shared<signal_graph>(sg));
}

bool analysis_service::registered(const std::string& id) const
{
    std::lock_guard<std::mutex> lk(registry_mutex_);
    return designs_.count(id) != 0;
}

std::shared_ptr<analysis_service::design_entry> analysis_service::entry_of(
    const std::string& id)
{
    std::lock_guard<std::mutex> lk(registry_mutex_);
    const auto it = designs_.find(id);
    require(it != designs_.end(),
            "unknown_design: no design named '" + id + "' is registered");
    return it->second;
}

std::shared_ptr<analysis_service::design_version> analysis_service::resolve(
    const design_ref& ref)
{
    require(!ref.id.empty(),
            "bad_request: the analysis service serves registered designs — set "
            "design.id (path/text references are the stand-alone tool's mode)");
    const std::shared_ptr<design_entry> entry = entry_of(ref.id);

    std::lock_guard<std::mutex> lk(registry_mutex_);
    std::shared_ptr<design_version> hit;
    if (ref.version == 0) {
        hit = entry->versions.back();
    } else {
        for (const std::shared_ptr<design_version>& v : entry->versions)
            if (v->version == ref.version) {
                hit = v;
                break;
            }
        if (!hit) {
            const std::string latest =
                std::to_string(entry->versions.back()->version);
            const std::string wanted = std::to_string(ref.version);
            if (ref.version < entry->next_version)
                throw error("unknown_version: design '" + ref.id + "' version " +
                            wanted + " was evicted (latest is " + latest + ")");
            throw error("unknown_version: design '" + ref.id + "' has no version " +
                        wanted + " (latest is " + latest + ")");
        }
    }
    hit->last_used = ++use_tick_;
    return hit;
}

std::uint64_t analysis_service::commit_version(design_entry& entry,
                                               std::shared_ptr<const signal_graph> graph)
{
    // Compile outside the registry lock — it is the expensive step.
    auto next = std::make_shared<design_version>();
    next->graph = std::move(graph);
    next->compiled = std::make_unique<compiled_graph>(*next->graph);
    next->engine = std::make_unique<scenario_engine>(*next->compiled);

    std::lock_guard<std::mutex> lk(registry_mutex_);
    next->version = entry.next_version++;
    next->last_used = ++use_tick_;
    entry.versions.push_back(std::move(next));

    const std::size_t keep = std::max<std::size_t>(1, options_.max_versions_per_design);
    while (entry.versions.size() > keep) {
        // Evict the least-recently-used version, never the latest.
        std::size_t victim = 0;
        for (std::size_t i = 1; i + 1 < entry.versions.size(); ++i)
            if (entry.versions[i]->last_used < entry.versions[victim]->last_used)
                victim = i;
        entry.versions.erase(entry.versions.begin() +
                             static_cast<std::ptrdiff_t>(victim));
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return entry.versions.back()->version;
}

// --- submission --------------------------------------------------------------

std::uint64_t analysis_service::take_quota_token(const std::string& id)
{
    if (options_.design_quota_rps <= 0.0) return 0;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lk(quota_mutex_);
    auto it = quotas_.find(id);
    if (it == quotas_.end()) {
        if (!registered(id)) return 0; // unknown ids answer unknown_design
        it = quotas_.emplace(id, token_bucket(options_.design_quota_rps,
                                              options_.design_quota_burst))
                 .first;
    }
    return it->second.take(now);
}

std::optional<api_error> analysis_service::admit(pending job)
{
    const auto now = std::chrono::steady_clock::now();
    // A deadline beyond what the steady clock can represent never passes:
    // it stays unset rather than overflow the addition.
    const std::uint64_t deadline_ms = job.request.options.deadline_ms;
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::time_point::max() - now);
    if (deadline_ms > 0 && deadline_ms < static_cast<std::uint64_t>(headroom.count()))
        job.deadline = now + std::chrono::milliseconds(deadline_ms);

    // Probe kinds (health, stats) are exempt from quotas, and health is
    // answerable while draining — a load balancer must be able to observe
    // the drain it is routing around.
    const bool probe = job.request.kind == request_kind::health ||
                       job.request.kind == request_kind::stats;
    std::optional<api_error> refusal;
    if (!probe) {
        const std::uint64_t retry_ms = take_quota_token(job.request.design.id);
        if (retry_ms > 0)
            refusal = api_error{"rate_limited",
                                "design '" + job.request.design.id +
                                    "' is over its admission quota (" +
                                    format_double(options_.design_quota_rps, 6) +
                                    " requests/s); retry after the hinted backoff",
                                retry_ms};
    }
    {
        std::lock_guard<std::mutex> lk(queue_mutex_);
        const bool drain = stopping_ || draining_.load(std::memory_order_acquire);
        if (drain && !(probe && !stopping_)) {
            refusal = api_error{"draining",
                                "the analysis service is draining for shutdown; "
                                "retry against another instance"};
        } else if (refusal) {
            // rate_limited, decided above — nothing to enqueue.
        } else if (options_.max_queue_depth != 0 &&
                   queue_.size() >= options_.max_queue_depth) {
            refusal = api_error{
                "overloaded", "request queue is full (depth " +
                                  std::to_string(options_.max_queue_depth) +
                                  "); the request was shed, retry later"};
        } else {
            queue_.push_back(std::move(job));
            queue_peak_ = std::max(queue_peak_, queue_.size());
        }
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (!refusal) {
        queue_cv_.notify_one();
        return std::nullopt;
    }
    if (refusal->code == "overloaded") shed_.fetch_add(1, std::memory_order_relaxed);
    if (refusal->code == "rate_limited")
        rate_limited_.fetch_add(1, std::memory_order_relaxed);
    if (refusal->code == "draining")
        drain_rejected_.fetch_add(1, std::memory_order_relaxed);
    bump_fleet(job.request.design.id, [&](design_traffic& t) {
        ++t.requests;
        ++t.failures;
        if (refusal->code == "overloaded") ++t.shed;
        if (refusal->code == "rate_limited") ++t.rate_limited;
    });
    return refusal;
}

std::optional<api_error> analysis_service::submit_async(
    analysis_request request, std::function<void(analysis_response)> done)
{
    pending job;
    job.request = std::move(request);
    job.done = std::move(done);
    job.enqueued = std::chrono::steady_clock::now();
    return admit(std::move(job));
}

std::future<analysis_response> analysis_service::submit(analysis_request request)
{
    // std::function needs a copyable callable, so the promise is shared.
    auto promise = std::make_shared<std::promise<analysis_response>>();
    std::future<analysis_response> result = promise->get_future();
    analysis_response refused;
    refused.id = request.id;
    const auto deliver = [promise](analysis_response response) {
        promise->set_value(std::move(response));
    };
    if (std::optional<api_error> refusal = submit_async(std::move(request), deliver)) {
        refused.error = std::move(*refusal);
        promise->set_value(std::move(refused));
    }
    return result;
}

analysis_response analysis_service::execute(analysis_request request)
{
    return submit(std::move(request)).get();
}

void analysis_service::serve_stream(std::istream& in, std::ostream& out)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        analysis_response response;
        try {
            response = execute(parse_analysis_request(line));
        } catch (const error& e) {
            requests_.fetch_add(1, std::memory_order_relaxed);
            failures_.fetch_add(1, std::memory_order_relaxed);
            response.error = classify_error(e.what(), "bad_request");
        } catch (const std::exception& e) {
            requests_.fetch_add(1, std::memory_order_relaxed);
            failures_.fetch_add(1, std::memory_order_relaxed);
            response.error = {"internal", e.what()};
        }
        out << analysis_response_json(response) << "\n" << std::flush;
        // A dead transport (EPIPE'd socket, closed pipe) puts the stream
        // in a failed state; executing the rest of the input would burn
        // engine time on responses nobody can receive.
        if (!out) break;
    }
}

// --- dispatch ----------------------------------------------------------------

void analysis_service::worker_loop()
{
    for (;;) {
        pending job;
        {
            std::unique_lock<std::mutex> lk(queue_mutex_);
            queue_cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            ++busy_workers_;
        }
        handle(std::move(job));
        {
            std::lock_guard<std::mutex> lk(queue_mutex_);
            --busy_workers_;
            if (queue_.empty() && busy_workers_ == 0) idle_cv_.notify_all();
        }
    }
}

void analysis_service::begin_drain()
{
    draining_.store(true, std::memory_order_release);
    // Wake idle waiters so a drain of an already-idle service returns
    // promptly; workers need no nudge — the flag only gates admission.
    std::lock_guard<std::mutex> lk(queue_mutex_);
    idle_cv_.notify_all();
}

bool analysis_service::wait_idle(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lk(queue_mutex_);
    return idle_cv_.wait_for(lk, timeout,
                             [&] { return queue_.empty() && busy_workers_ == 0; });
}

analysis_response analysis_service::respond_error(const pending& job,
                                                  const std::string& diagnostic)
{
    analysis_response response;
    response.id = job.request.id;
    response.ok = false;
    response.error = classify_error(diagnostic);
    return response;
}

analysis_response analysis_service::respond_exception(const pending& job,
                                                      const std::exception& e)
{
    if (dynamic_cast<const error*>(&e) != nullptr) return respond_error(job, e.what());
    return respond_error(job, std::string("internal: ") + e.what());
}

void analysis_service::finish(pending& job, analysis_response response)
{
    const auto now = std::chrono::steady_clock::now();
    response.elapsed_ms =
        std::chrono::duration<double, std::milli>(now - job.enqueued).count();
    latency_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - job.enqueued).count()));
    // Shed while queued or stopped mid-run: both answer deadline_exceeded.
    const bool expired = !response.ok && response.error.code == "deadline_exceeded";
    if (!response.ok) failures_.fetch_add(1, std::memory_order_relaxed);
    if (expired) deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    bump_fleet(job.request.design.id, [&](design_traffic& t) {
        ++t.requests;
        if (!response.ok) ++t.failures;
        if (expired) ++t.deadline_expired;
        t.scenarios += response.scenarios;
    });
    job.done(std::move(response));
}

void analysis_service::shed_expired(pending& job)
{
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - job.enqueued)
            .count();
    finish(job, respond_error(job, "deadline_exceeded: deadline_ms " +
                                       std::to_string(job.request.options.deadline_ms) +
                                       " passed while queued (" +
                                       std::to_string(waited) +
                                       " ms since admission); the work was shed"));
}

void analysis_service::handle(pending job)
{
    // Pre-execution deadline check: work whose deadline passed while it
    // waited in the queue is shed instead of burning a worker.
    if (job.expired(std::chrono::steady_clock::now())) {
        shed_expired(job);
        return;
    }

    if (coalescable(job.request)) {
        handle_batch(std::move(job));
        return;
    }

    analysis_response response;
    response.id = job.request.id;
    try {
        switch (job.request.kind) {
        case request_kind::stats:
            response.payload = stats_json();
            break;
        case request_kind::health:
            response.payload = health_json();
            break;
        case request_kind::edit:
            response.payload = edit_payload(job, response.design_version);
            break;
        default: {
            // analyze, criticality, adaptive montecarlo, optimize and
            // report_topk run solo — their work does not decompose into
            // mergeable scenarios.
            const std::shared_ptr<design_version> version = resolve(job.request.design);
            response.design_version = version->version;
            response.payload = execute_analysis_payload(
                job.request, *version->graph, *version->compiled, *version->engine,
                job.deadline, &response.scenarios);
            scenarios_.fetch_add(response.scenarios, std::memory_order_relaxed);
            break;
        }
        }
        response.ok = true;
    } catch (const std::exception& e) {
        response = respond_exception(job, e);
    }
    finish(job, std::move(response));
}

std::string analysis_service::edit_payload(pending& job, std::uint64_t& out_version)
{
    const std::shared_ptr<design_entry> entry = entry_of(job.request.design.id);
    std::lock_guard<std::mutex> edit_lock(entry->edit_mutex);

    std::shared_ptr<design_version> latest;
    {
        std::lock_guard<std::mutex> lk(registry_mutex_);
        latest = entry->versions.back();
        latest->last_used = ++use_tick_;
    }
    if (job.request.design.version != 0 && job.request.design.version != latest->version)
        throw error("bad_request: edits apply to the latest version of design '" +
                    job.request.design.id + "' (latest is " +
                    std::to_string(latest->version) + ", request pins " +
                    std::to_string(job.request.design.version) + ")");

    // Rejected batches roll back inside run_edit_script, so the engine
    // always ends on a valid structure; commit it as the next version
    // even when nothing changed (the version then snapshots "script ran").
    incremental_engine engine(*latest->graph);
    std::string payload = execute_edit_payload(job.request, engine);
    out_version = commit_version(*entry, std::make_shared<signal_graph>(engine.graph()));
    edits_.fetch_add(1, std::memory_order_relaxed);
    return payload;
}

// --- the coalescer -----------------------------------------------------------

void analysis_service::handle_batch(pending first)
{
    std::shared_ptr<design_version> version;
    std::vector<pending> jobs;
    std::vector<std::unique_ptr<scenario_source>> parts;
    try {
        version = resolve(first.request.design);
        parts.push_back(request_source(first.request, *version->engine));
    } catch (const std::exception& e) {
        finish(first, respond_exception(first, e));
        return;
    }
    jobs.push_back(std::move(first));

    // Admit queued partners: same kind, same design reference, identical
    // engine knobs — served against this worker's resolved snapshot (the
    // merged batch linearizes before any concurrently committed edit).
    std::size_t total = parts[0]->size();
    if (options_.coalesce && total > 0 && total < max_coalesce_scenarios) {
        std::vector<pending> partners;
        {
            std::lock_guard<std::mutex> lk(queue_mutex_);
            const analysis_request& head = jobs[0].request;
            for (auto it = queue_.begin(); it != queue_.end();) {
                const analysis_request& cand = it->request;
                if (cand.kind != head.kind || !coalescable(cand) ||
                    !(cand.design == head.design) ||
                    !engine_compatible(cand.options, head.options)) {
                    ++it;
                    continue;
                }
                // Scenario counts are predictable before generation: a
                // Monte Carlo request evaluates exactly `samples`, and a
                // sweep on the same design sweeps the same arcs as the
                // head request.
                const std::size_t predicted = cand.kind == request_kind::montecarlo
                                                  ? cand.options.samples
                                                  : parts[0]->size();
                if (total + predicted > max_coalesce_scenarios) {
                    ++it;
                    continue;
                }
                total += predicted;
                partners.push_back(std::move(*it));
                it = queue_.erase(it);
            }
        }
        for (pending& partner : partners) {
            if (partner.expired(std::chrono::steady_clock::now())) {
                shed_expired(partner);
                continue;
            }
            try {
                parts.push_back(request_source(partner.request, *version->engine));
                jobs.push_back(std::move(partner));
            } catch (const std::exception& e) {
                finish(partner, respond_exception(partner, e));
            }
        }
    }

    // Merge the requests' sources as consecutive spans of one batch,
    // dropping requests with nothing to evaluate (their solo run would fail
    // the same way).  No delay vector is copied.
    struct span {
        std::size_t offset = 0;
        std::size_t count = 0;
    };
    scenario_concat merged;
    std::vector<pending> live;
    std::vector<std::unique_ptr<scenario_source>> live_parts;
    std::vector<span> spans;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (parts[i]->size() == 0) {
            finish(jobs[i],
                   respond_error(jobs[i],
                                 "invalid_model: no scenarios to evaluate (no "
                                 "perturbable arcs)"));
            continue;
        }
        spans.push_back({merged.size(), parts[i]->size()});
        merged.add(*parts[i]);
        live.push_back(std::move(jobs[i]));
        live_parts.push_back(std::move(parts[i]));
    }
    if (live.empty()) return;

    rational nominal;
    scenario_batch_result batch;
    try {
        nominal = version->engine->nominal(live[0].request.options.max_threads);
        batch = version->engine->run(merged, live[0].request.options.to_batch_options());
    } catch (const std::exception& e) {
        for (pending& job : live) finish(job, respond_exception(job, e));
        return;
    }

    engine_batches_.fetch_add(1, std::memory_order_relaxed);
    batch_requests_.fetch_add(live.size(), std::memory_order_relaxed);
    scenarios_.fetch_add(merged.size(), std::memory_order_relaxed);
    const bool coalesced = live.size() > 1;
    if (coalesced) coalesced_requests_.fetch_add(live.size(), std::memory_order_relaxed);

    // Demultiplex: re-reduce each request's outcome slice so every
    // aggregate matches its solo run bit for bit.
    for (std::size_t i = 0; i < live.size(); ++i) {
        analysis_response response;
        response.id = live[i].request.id;
        try {
            scenario_batch_result slice;
            slice.outcomes.assign(
                batch.outcomes.begin() + static_cast<std::ptrdiff_t>(spans[i].offset),
                batch.outcomes.begin() +
                    static_cast<std::ptrdiff_t>(spans[i].offset + spans[i].count));
            copy_engine_accounting(batch, slice);
            reduce_scenario_outcomes(slice, version->graph->arc_count());
            response.payload = batch_payload_json(live[i].request, *version->graph,
                                                  nominal, *live_parts[i], slice);
            response.ok = true;
            response.design_version = version->version;
            response.scenarios = spans[i].count;
            response.coalesced = coalesced;
        } catch (const std::exception& e) {
            response = respond_exception(live[i], e);
        }
        finish(live[i], std::move(response));
    }
}

// --- metrics -----------------------------------------------------------------

service_metrics analysis_service::metrics() const
{
    service_metrics m;
    m.requests = requests_.load(std::memory_order_relaxed);
    m.failures = failures_.load(std::memory_order_relaxed);
    m.requests_shed = shed_.load(std::memory_order_relaxed);
    m.rate_limited = rate_limited_.load(std::memory_order_relaxed);
    m.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
    m.drain_rejected = drain_rejected_.load(std::memory_order_relaxed);
    m.draining = draining_.load(std::memory_order_acquire);
    m.queue_limit = options_.max_queue_depth;
    m.engine_batches = engine_batches_.load(std::memory_order_relaxed);
    m.batch_requests = batch_requests_.load(std::memory_order_relaxed);
    m.coalesced_requests = coalesced_requests_.load(std::memory_order_relaxed);
    m.scenarios = scenarios_.load(std::memory_order_relaxed);
    m.edits_committed = edits_.load(std::memory_order_relaxed);
    m.versions_evicted = evictions_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(registry_mutex_);
        m.designs = designs_.size();
        for (const auto& [id, entry] : designs_) m.versions += entry->versions.size();
    }
    {
        std::lock_guard<std::mutex> lk(queue_mutex_);
        m.queue_depth = queue_.size();
        m.queue_peak = queue_peak_;
    }
    {
        std::lock_guard<std::mutex> lk(fleet_mutex_);
        m.fleet.assign(fleet_.begin(), fleet_.end());
    }
    m.coalescing_efficiency =
        m.engine_batches
            ? static_cast<double>(m.batch_requests) / static_cast<double>(m.engine_batches)
            : 1.0;
    m.uptime_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    m.scenarios_per_second = m.uptime_seconds > 0.0
                                 ? static_cast<double>(m.scenarios) / m.uptime_seconds
                                 : 0.0;
    m.latency_samples = latency_.count();
    m.latency_mean_us = latency_.mean();
    m.latency_p50_us = latency_.quantile(0.50);
    m.latency_p95_us = latency_.quantile(0.95);
    m.latency_p99_us = latency_.quantile(0.99);
    return m;
}

std::string analysis_service::stats_json() const
{
    const service_metrics m = metrics();
    json_writer out;
    out.begin_object().key("command").value("stats");
    out.key("requests").begin_object()
        .key("total").value(m.requests)
        .key("failed").value(m.failures)
        .key("batch").value(m.batch_requests)
        .key("coalesced").value(m.coalesced_requests)
        .key("edits_committed").value(m.edits_committed)
        .end_object();
    out.key("designs").begin_object()
        .key("count").value(m.designs)
        .key("versions").value(m.versions)
        .key("evicted").value(m.versions_evicted)
        .end_object();
    out.key("queue").begin_object()
        .key("depth").value(m.queue_depth)
        .key("peak").value(m.queue_peak)
        .end_object();
    out.key("admission").begin_object()
        .key("queue_limit").value(m.queue_limit)
        .key("shed").value(m.requests_shed)
        .key("rate_limited").value(m.rate_limited)
        .key("deadline_expired").value(m.deadline_expired)
        .key("drain_rejected").value(m.drain_rejected)
        .key("draining").value(m.draining)
        .end_object();
    // Always 0 (nothing is cached); kept only because perfbench/run.py
    // still reads cache.hits.
    out.key("cache").begin_object().key("hits").value(0).end_object();
    out.key("fleet").begin_object();
    for (const auto& [id, t] : m.fleet)
        out.key(id).begin_object()
            .key("requests").value(t.requests)
            .key("failed").value(t.failures)
            .key("shed").value(t.shed)
            .key("rate_limited").value(t.rate_limited)
            .key("deadline_expired").value(t.deadline_expired)
            .key("scenarios").value(t.scenarios)
            .end_object();
    out.end_object();
    out.key("coalescing").begin_object()
        .key("engine_batches").value(m.engine_batches)
        .key("efficiency").value(m.coalescing_efficiency)
        .end_object();
    out.key("throughput").begin_object()
        .key("scenarios").value(m.scenarios)
        .key("uptime_seconds").value(m.uptime_seconds)
        .key("scenarios_per_second").value(m.scenarios_per_second)
        .end_object();
    out.key("latency_us").begin_object()
        .key("samples").value(m.latency_samples)
        .key("mean").value(m.latency_mean_us)
        .key("p50").value(m.latency_p50_us)
        .key("p95").value(m.latency_p95_us)
        .key("p99").value(m.latency_p99_us)
        .end_object();
    return out.end_object().take();
}

std::string analysis_service::health_json() const
{
    const bool drain = draining_.load(std::memory_order_acquire);
    std::size_t depth = 0;
    std::size_t busy = 0;
    {
        std::lock_guard<std::mutex> lk(queue_mutex_);
        depth = queue_.size();
        busy = busy_workers_;
    }
    std::size_t designs = 0;
    {
        std::lock_guard<std::mutex> lk(registry_mutex_);
        designs = designs_.size();
    }
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    json_writer out;
    return out.begin_object()
        .key("command").value("health")
        .key("status").value(drain ? "draining" : "ok")
        .key("draining").value(drain)
        .key("queue_depth").value(depth)
        .key("busy_workers").value(busy)
        .key("workers").value(workers_.size())
        .key("designs").value(designs)
        .key("uptime_seconds").value(uptime)
        .end_object()
        .take();
}

} // namespace tsg
