// Mixed-traffic load generator for the analysis service (core/service.h):
// coalesced serving vs one-at-a-time execution of the same request stream.
//
// The workload is the ISSUE's serving scenario: C concurrent clients fire
// small Monte Carlo requests (<= 8 scenarios each — far below one SoA lane
// group per engine batch) at one registered design.  Served one-at-a-time,
// every request pays a whole engine dispatch for a batch too small to
// parallelize; the coalescer merges queued requests into full lane-group
// batches, so the same stream reaches the scenario kernel as a few large
// runs that actually fan out across the pool.
//
// Modes measured over the identical request stream (same seeds, border
// solver pinned so witness identity is layout-independent):
//
//   solo      — service with coalescing disabled: strict one-request-per-
//               engine-batch execution, the pre-service behaviour;
//   coalesced — the same service with the coalescer on.
//
// Every coalesced response is compared against its solo payload after
// stripping the documented engine-accounting block (a merged run reports
// the batch's physical lane counters); any byte difference — or any
// failed request — counts as a mismatch and fails the bench.  Latency
// quantiles come from the service's own latency histogram (nearest rank,
// within 1/64 of a recorded latency).
//
// A third round drives the admission-control path: an overload fleet
// (>= 64 clients by default) bursts the same small-request traffic at a
// service whose queue bound is far below the offered load.  Measured
// there: the shed rate (how much of the burst was refused), the
// client-observed p99 of shed responses (shedding must be prompt — a
// refusal that waits on the worker pool is not backpressure) and the p99
// of the requests that were served.  Every refusal must carry the
// structured "overloaded" code; anything else counts as a failure.
//
// A fourth round drives the whole resilience stack end to end: the same
// small-request traffic flows through a real event_loop_server over TCP,
// issued by net::client fleets against a deliberately tight per-design
// quota.  The quota sheds a large fraction of the offered burst with
// structured rate_limited hints; the retrying client absorbs them and
// must converge every request to completion (retry_convergence == 1.0,
// zero unexpected failures — both CI-gated).  Also measured: how many
// sheds/retries the convergence cost and the latency the retry loop
// added over first-try requests.
//
// A fifth round times response encoding: one full-outcome sweep payload
// (slack and witness on the n-event design, ~2.5 MB at n=256) wrapped by
// analysis_response_json, which splices the payload into the envelope as
// its renderer wrote it, against the tree reference it replaced (a
// json_value envelope around json_parse(payload), then write()).  Best of 5 rounds each; the
// two lines must be byte-identical (encode_mismatches, CI-gated at zero,
// as is the speedup floor).
//
//   bench_serve [--events N] [--clients C] [--requests R] [--burst B]
//               [--workers W] [--rounds K] [--seed S] [--json out.json]
//               [--overload-clients C2] [--overload-requests R2]
//               [--overload-queue D]
//               [--retry-clients C3] [--retry-requests R3]
//               [--retry-quota-rps X] [--retry-quota-burst Y]
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <future>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/api.h"
#include "core/service.h"
#include "gen/random_sg.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "sg/signal_graph.h"
#include "util/json.h"

namespace {

using namespace tsg;
using clock_type = std::chrono::steady_clock;

/// Strips every "engine" member (any depth) and re-serializes — the one
/// payload block a coalesced response reports from the merged run.
void strip_engine(json_value& doc)
{
    doc.members.erase(std::remove_if(doc.members.begin(), doc.members.end(),
                                     [](const auto& m) { return m.first == "engine"; }),
                      doc.members.end());
    for (auto& [key, value] : doc.members) strip_engine(value);
    for (json_value& item : doc.items) strip_engine(item);
}

std::string without_engine_block(const std::string& payload)
{
    json_value doc = json_parse(payload, "payload");
    strip_engine(doc);
    return doc.write();
}

/// The full request stream, one vector per client.  Small Monte Carlo
/// batches with per-request seeds: deterministic, all engine-compatible
/// (border solver) but each with its own payload.
std::vector<std::vector<analysis_request>> make_stream(std::size_t clients,
                                                       std::size_t per_client)
{
    std::vector<std::vector<analysis_request>> stream(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t i = 0; i < per_client; ++i) {
            analysis_request request;
            request.kind = request_kind::montecarlo;
            request.id = "c" + std::to_string(c) + "-" + std::to_string(i);
            request.design.id = "bench";
            request.options.solver = cycle_time_solver::border_sweep;
            request.options.samples = 4 + (c * per_client + i) % 5; // 4..8
            request.options.seed = 1000 + c * 10000 + i;
            // The SSTA-style throughput client: cycle-time statistics only
            // (the engine's own guidance for Monte-Carlo-scale batches) —
            // witness extraction would dominate the lane-batched hot path.
            request.options.with_slack = false;
            request.options.with_witness = false;
            stream[c].push_back(request);
        }
    }
    return stream;
}

struct mode_result {
    double wall_seconds = 0.0;
    std::size_t scenarios = 0;
    std::size_t failures = 0;
    std::map<std::string, std::string> payloads; ///< id -> raw payload
    service_metrics metrics;
};

/// Runs the whole stream against a fresh service: C client threads, each
/// submitting bursts of B requests and draining them (a pipelined client).
mode_result run_mode(const signal_graph& sg,
                     const std::vector<std::vector<analysis_request>>& stream,
                     bool coalesce, unsigned workers, std::size_t burst)
{
    service_options options;
    options.workers = workers;
    options.coalesce = coalesce;
    analysis_service service(options);
    service.register_design("bench", sg);

    const std::size_t clients = stream.size();
    std::vector<std::vector<std::pair<std::string, std::string>>> collected(clients);
    std::vector<std::size_t> scenario_counts(clients, 0);
    std::vector<std::size_t> failure_counts(clients, 0);

    const clock_type::time_point start = clock_type::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            const std::vector<analysis_request>& requests = stream[c];
            for (std::size_t done = 0; done < requests.size();) {
                const std::size_t n = std::min(burst, requests.size() - done);
                std::vector<std::future<analysis_response>> futures;
                futures.reserve(n);
                for (std::size_t k = 0; k < n; ++k)
                    futures.push_back(service.submit(requests[done + k]));
                for (std::size_t k = 0; k < n; ++k) {
                    analysis_response response = futures[k].get();
                    if (!response.ok) {
                        ++failure_counts[c];
                        continue;
                    }
                    scenario_counts[c] += response.scenarios;
                    collected[c].emplace_back(std::move(response.id),
                                              std::move(response.payload));
                }
                done += n;
            }
        });
    }
    for (std::thread& t : threads) t.join();

    mode_result result;
    result.wall_seconds = std::chrono::duration<double>(clock_type::now() - start).count();
    for (std::size_t c = 0; c < clients; ++c) {
        result.scenarios += scenario_counts[c];
        result.failures += failure_counts[c];
        for (auto& [id, payload] : collected[c]) result.payloads.emplace(id, payload);
    }
    result.metrics = service.metrics();
    return result;
}

struct overload_result {
    double wall_seconds = 0.0;
    std::size_t served = 0;
    std::size_t shed = 0;
    std::size_t other_failures = 0; ///< anything not ok and not "overloaded"
    double shed_p99_us = 0.0;
    double served_p99_us = 0.0;
};

double p99(std::vector<double>& samples)
{
    if (samples.empty()) return 0.0;
    const std::size_t k = (samples.size() * 99) / 100;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

/// The overload fleet: every client fire-hoses its whole request list at
/// once against a deliberately tiny queue bound, then waits.  Client-side
/// submit-to-ready latency is recorded per response class, stamped where
/// each response becomes ready: in its completion callback, or when
/// submit_async returns a refusal — never when the client gets round to
/// reading it, which would charge a shed answer for the served requests
/// submitted before it.
overload_result run_overload(const signal_graph& sg,
                             const std::vector<std::vector<analysis_request>>& stream,
                             unsigned workers, std::size_t queue_depth)
{
    service_options options;
    options.workers = workers;
    options.coalesce = true;
    options.max_queue_depth = queue_depth;
    analysis_service service(options);
    service.register_design("bench", sg);

    const std::size_t clients = stream.size();
    std::vector<overload_result> per_client(clients);
    std::vector<std::vector<double>> shed_latencies(clients);
    std::vector<std::vector<double>> served_latencies(clients);

    const clock_type::time_point start = clock_type::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::mutex mu;
            std::condition_variable cv;
            std::size_t outstanding = 0;
            const auto record = [&](bool ok, const std::string& code,
                                    clock_type::time_point submitted,
                                    clock_type::time_point ready) {
                const double us =
                    std::chrono::duration<double, std::micro>(ready - submitted).count();
                if (ok) {
                    ++per_client[c].served;
                    served_latencies[c].push_back(us);
                } else if (code == "overloaded") {
                    ++per_client[c].shed;
                    shed_latencies[c].push_back(us);
                } else {
                    ++per_client[c].other_failures;
                }
            };
            for (const analysis_request& request : stream[c]) {
                const clock_type::time_point submitted = clock_type::now();
                {
                    const std::lock_guard<std::mutex> lk(mu);
                    ++outstanding;
                }
                const std::optional<api_error> refusal = service.submit_async(
                    request, [&, submitted](analysis_response response) {
                        const clock_type::time_point ready = clock_type::now();
                        const std::lock_guard<std::mutex> lk(mu);
                        record(response.ok, response.error.code, submitted, ready);
                        if (--outstanding == 0) cv.notify_one();
                    });
                if (refusal) {
                    const clock_type::time_point ready = clock_type::now();
                    const std::lock_guard<std::mutex> lk(mu);
                    record(false, refusal->code, submitted, ready);
                    --outstanding;
                }
            }
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return outstanding == 0; });
        });
    }
    for (std::thread& t : threads) t.join();

    overload_result result;
    result.wall_seconds = std::chrono::duration<double>(clock_type::now() - start).count();
    std::vector<double> shed_all;
    std::vector<double> served_all;
    for (std::size_t c = 0; c < clients; ++c) {
        result.served += per_client[c].served;
        result.shed += per_client[c].shed;
        result.other_failures += per_client[c].other_failures;
        shed_all.insert(shed_all.end(), shed_latencies[c].begin(), shed_latencies[c].end());
        served_all.insert(served_all.end(), served_latencies[c].begin(),
                          served_latencies[c].end());
    }
    result.shed_p99_us = p99(shed_all);
    result.served_p99_us = p99(served_all);
    return result;
}

struct retry_result {
    double wall_seconds = 0.0;
    std::size_t completed = 0;            ///< outcomes that ended ok
    std::size_t unexpected_failures = 0;  ///< outcomes that did not
    std::uint64_t sheds = 0;              ///< structured retryable sheds absorbed
    std::uint64_t retries = 0;            ///< re-submissions the clients made
    std::uint64_t reconnects = 0;         ///< connection (re)dials after the first
    double mean_attempts = 0.0;
    double added_latency_ms = 0.0; ///< mean latency of retried vs first-try requests
};

/// The retry-convergence fleet: C net::client threads push their whole
/// request list through a real event_loop_server whose per-design quota
/// is far below the offered burst.  Everything must converge to ok via
/// the structured rate_limited + retry_after_ms path.
retry_result run_retry(const signal_graph& sg,
                       const std::vector<std::vector<analysis_request>>& stream,
                       unsigned workers, double quota_rps, double quota_burst)
{
    service_options options;
    options.workers = workers;
    options.coalesce = true;
    options.design_quota_rps = quota_rps;
    options.design_quota_burst = quota_burst;
    analysis_service service(options);
    service.register_design("bench", sg);

    tsg::net::event_loop_options loop_options; // port 0: ephemeral
    tsg::net::event_loop_server server(service, loop_options);
    server.start();

    const std::size_t clients = stream.size();
    std::vector<std::vector<tsg::net::call_outcome>> outcomes(clients);
    std::vector<tsg::net::client_metrics> metrics(clients);

    const clock_type::time_point start = clock_type::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            tsg::net::client_options copts;
            copts.port = server.port();
            copts.max_attempts = 40;
            copts.jitter_seed = 0xb0b0 + c;
            tsg::net::client client(copts);
            outcomes[c] = client.call_many(stream[c]);
            metrics[c] = client.metrics();
        });
    }
    for (std::thread& t : threads) t.join();

    retry_result result;
    result.wall_seconds = std::chrono::duration<double>(clock_type::now() - start).count();
    std::uint64_t attempts = 0;
    std::size_t total = 0;
    double first_try_ms = 0.0, retried_ms = 0.0;
    std::size_t first_try = 0, retried = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        result.sheds += metrics[c].sheds_seen;
        result.retries += metrics[c].retries;
        result.reconnects += metrics[c].reconnects;
        for (const tsg::net::call_outcome& outcome : outcomes[c]) {
            ++total;
            attempts += outcome.attempts;
            if (outcome.response.ok)
                ++result.completed;
            else
                ++result.unexpected_failures;
            if (outcome.attempts > 1) {
                retried_ms += outcome.latency_ms;
                ++retried;
            } else {
                first_try_ms += outcome.latency_ms;
                ++first_try;
            }
        }
    }
    result.mean_attempts =
        total > 0 ? static_cast<double>(attempts) / static_cast<double>(total) : 0.0;
    if (retried > 0 && first_try > 0)
        result.added_latency_ms = retried_ms / static_cast<double>(retried) -
                                  first_try_ms / static_cast<double>(first_try);
    server.stop();
    return result;
}

/// The response encoder analysis_response_json replaced: parse the
/// payload into a tree, build the envelope around it, write the whole.
std::string tree_response_json(const analysis_response& response)
{
    char elapsed[40];
    std::snprintf(elapsed, sizeof elapsed, "%.12g", response.elapsed_ms);
    if (std::stod(elapsed) != response.elapsed_ms)
        std::snprintf(elapsed, sizeof elapsed, "%.17g", response.elapsed_ms);
    json_value doc = json_value::object();
    doc.set("id", json_value::string(response.id));
    doc.set("ok", json_value::boolean_value(response.ok));
    doc.set("elapsed_ms", json_value::raw_number(elapsed));
    doc.set("design_version", json_value::number(std::uint64_t{response.design_version}));
    doc.set("scenarios", json_value::number(std::uint64_t{response.scenarios}));
    doc.set("coalesced", json_value::boolean_value(response.coalesced));
    doc.set("payload", json_parse(response.payload, "payload"));
    return doc.write();
}

struct encode_result {
    std::size_t payload_bytes = 0;
    double encode_ms = 0.0; ///< analysis_response_json, best round
    double tree_ms = 0.0;   ///< tree reference, best round
    std::size_t mismatches = 0;
};

/// Times both encoders on one full-outcome sweep response of `sg`.
encode_result run_encode(const signal_graph& sg)
{
    analysis_request request;
    request.kind = request_kind::sweep;
    request.id = "encode";
    request.options.solver = cycle_time_solver::border_sweep;
    analysis_response response = execute_request(request, sg);
    response.elapsed_ms = 42.125;

    encode_result result;
    result.payload_bytes = response.payload.size();
    if (!response.ok) {
        result.mismatches = 1;
        return result;
    }
    const auto ms_since = [](clock_type::time_point start) {
        return std::chrono::duration<double, std::milli>(clock_type::now() - start).count();
    };
    for (int round = 0; round < 5; ++round) {
        clock_type::time_point start = clock_type::now();
        const std::string fast = analysis_response_json(response);
        const double fast_ms = ms_since(start);
        start = clock_type::now();
        const std::string tree = tree_response_json(response);
        const double tree_ms = ms_since(start);
        if (fast != tree) ++result.mismatches;
        if (round == 0 || fast_ms < result.encode_ms) result.encode_ms = fast_ms;
        if (round == 0 || tree_ms < result.tree_ms) result.tree_ms = tree_ms;
    }
    return result;
}

} // namespace

int main(int argc, char** argv)
{
    tsg_bench::bench_reporter reporter(argc, argv);

    std::uint32_t events = 256;
    std::size_t clients = 4;
    std::size_t per_client = 64;
    std::size_t burst = 8;
    unsigned workers = 2;
    int rounds = 2;
    std::uint32_t seed = 42;
    std::size_t overload_clients = 64;
    std::size_t overload_requests = 16;
    std::size_t overload_queue = 64;
    std::size_t retry_clients = 8;
    std::size_t retry_requests = 16;
    double retry_quota_rps = 500.0;
    double retry_quota_burst = 8.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--events" && i + 1 < argc)
            events = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        else if (arg == "--clients" && i + 1 < argc)
            clients = std::stoull(argv[++i]);
        else if (arg == "--requests" && i + 1 < argc)
            per_client = std::stoull(argv[++i]);
        else if (arg == "--burst" && i + 1 < argc)
            burst = std::stoull(argv[++i]);
        else if (arg == "--workers" && i + 1 < argc)
            workers = static_cast<unsigned>(std::stoul(argv[++i]));
        else if (arg == "--rounds" && i + 1 < argc)
            rounds = std::stoi(argv[++i]);
        else if (arg == "--seed" && i + 1 < argc)
            seed = static_cast<std::uint32_t>(std::stoul(argv[++i]));
        else if (arg == "--overload-clients" && i + 1 < argc)
            overload_clients = std::stoull(argv[++i]);
        else if (arg == "--overload-requests" && i + 1 < argc)
            overload_requests = std::stoull(argv[++i]);
        else if (arg == "--overload-queue" && i + 1 < argc)
            overload_queue = std::stoull(argv[++i]);
        else if (arg == "--retry-clients" && i + 1 < argc)
            retry_clients = std::stoull(argv[++i]);
        else if (arg == "--retry-requests" && i + 1 < argc)
            retry_requests = std::stoull(argv[++i]);
        else if (arg == "--retry-quota-rps" && i + 1 < argc)
            retry_quota_rps = std::stod(argv[++i]);
        else if (arg == "--retry-quota-burst" && i + 1 < argc)
            retry_quota_burst = std::stod(argv[++i]);
    }

    random_sg_options gopts;
    gopts.events = events;
    gopts.extra_arcs = events; // m = 2n
    gopts.seed = seed;
    gopts.border_limit = 4;
    const signal_graph sg = random_marked_graph(gopts);
    const std::vector<std::vector<analysis_request>> stream =
        make_stream(clients, per_client);
    const std::size_t total_requests = clients * per_client;

    std::cout << "model: n=" << sg.event_count() << " m=" << sg.arc_count() << ", "
              << clients << " clients x " << per_client << " requests (burst " << burst
              << ", " << workers << " workers)\n";

    mode_result solo;
    mode_result coalesced;
    for (int round = 0; round < rounds; ++round) {
        mode_result s = run_mode(sg, stream, /*coalesce=*/false, workers, burst);
        mode_result m = run_mode(sg, stream, /*coalesce=*/true, workers, burst);
        if (round == 0 || s.wall_seconds < solo.wall_seconds) solo = std::move(s);
        if (round == 0 || m.wall_seconds < coalesced.wall_seconds)
            coalesced = std::move(m);
    }

    // Bit-identity: every coalesced payload must equal its solo payload
    // once the merged run's engine-accounting block is stripped.
    std::size_t mismatches = solo.failures + coalesced.failures;
    if (solo.payloads.size() != total_requests ||
        coalesced.payloads.size() != total_requests)
        ++mismatches;
    for (const auto& [id, payload] : coalesced.payloads) {
        const auto it = solo.payloads.find(id);
        if (it == solo.payloads.end() ||
            without_engine_block(payload) != without_engine_block(it->second))
            ++mismatches;
    }

    // The overload round: a fleet far beyond the queue bound.  Best shed
    // p99 across rounds (the admission fast path is what is being gated,
    // not the scheduler's worst hiccup).
    const std::vector<std::vector<analysis_request>> overload_stream =
        make_stream(overload_clients, overload_requests);
    overload_result overload;
    for (int round = 0; round < rounds; ++round) {
        overload_result o = run_overload(sg, overload_stream, workers, overload_queue);
        if (round == 0 || o.shed_p99_us < overload.shed_p99_us) overload = std::move(o);
    }
    const std::size_t overload_total = overload_clients * overload_requests;
    const double shed_rate =
        static_cast<double>(overload.shed) / static_cast<double>(overload_total);

    // The retry-convergence round: TCP clients vs a tight per-design
    // quota.  One run — retries are a correctness drill, not a perf race.
    const std::vector<std::vector<analysis_request>> retry_stream =
        make_stream(retry_clients, retry_requests);
    const retry_result retry =
        run_retry(sg, retry_stream, workers, retry_quota_rps, retry_quota_burst);
    const std::size_t retry_total = retry_clients * retry_requests;
    const double retry_convergence =
        retry_total > 0
            ? static_cast<double>(retry.completed) / static_cast<double>(retry_total)
            : 1.0;

    // The encode round: one large payload, both encoders, byte-compared.
    const encode_result encode = run_encode(sg);
    const double encode_speedup = encode.encode_ms > 0 ? encode.tree_ms / encode.encode_ms : 0.0;

    const double solo_rate = static_cast<double>(solo.scenarios) / solo.wall_seconds;
    const double serve_rate =
        static_cast<double>(coalesced.scenarios) / coalesced.wall_seconds;
    const double speedup = serve_rate / solo_rate;
    const service_metrics& m = coalesced.metrics;

    std::cout << "solo      : " << solo.wall_seconds << " s  (" << solo_rate
              << " scenarios/s, " << solo.metrics.engine_batches << " engine batches)\n";
    std::cout << "coalesced : " << coalesced.wall_seconds << " s  (" << serve_rate
              << " scenarios/s, " << m.engine_batches << " engine batches, efficiency "
              << m.coalescing_efficiency << " req/batch)\n";
    std::cout << "speedup   : " << speedup << "x vs one-at-a-time\n";
    std::cout << "latency   : p50 " << m.latency_p50_us << " us, p95 " << m.latency_p95_us
              << " us, p99 " << m.latency_p99_us << " us (coalesced mode)\n";
    std::cout << "bit-identical: " << (mismatches == 0 ? "yes" : "NO") << " ("
              << mismatches << " mismatches)\n";
    std::cout << "overload  : " << overload_clients << " clients x " << overload_requests
              << " requests vs queue " << overload_queue << ": " << overload.served
              << " served, " << overload.shed << " shed (" << (shed_rate * 100.0)
              << "%), shed p99 " << overload.shed_p99_us << " us, served p99 "
              << overload.served_p99_us << " us, " << overload.other_failures
              << " unexpected failures\n";
    std::cout << "retry     : " << retry_clients << " clients x " << retry_requests
              << " requests vs quota " << retry_quota_rps << " rps (burst "
              << retry_quota_burst << "): " << retry.completed << "/" << retry_total
              << " converged (" << (retry_convergence * 100.0) << "%), " << retry.sheds
              << " sheds, " << retry.retries << " retries, " << retry.reconnects
              << " reconnects, mean " << retry.mean_attempts << " attempts, +"
              << retry.added_latency_ms << " ms retried latency, "
              << retry.unexpected_failures << " unexpected failures\n";
    std::cout << "encode    : " << encode.payload_bytes << "-byte sweep payload: "
              << encode.encode_ms << " ms spliced vs " << encode.tree_ms << " ms via tree ("
              << encode_speedup << "x), " << encode.mismatches << " mismatches\n";

    reporter.record("events", static_cast<double>(sg.event_count()), "count");
    reporter.record("arcs", static_cast<double>(sg.arc_count()), "count");
    reporter.record("clients", static_cast<double>(clients), "count");
    reporter.record("requests", static_cast<double>(total_requests), "count");
    reporter.record("scenarios", static_cast<double>(coalesced.scenarios), "count");
    reporter.record("solo_scenarios_per_second", solo_rate, "1/s");
    reporter.record("serve_scenarios_per_second", serve_rate, "1/s");
    reporter.record("speedup_vs_solo", speedup, "x");
    reporter.record("coalescing_efficiency", m.coalescing_efficiency, "req/batch");
    reporter.record("engine_batches", static_cast<double>(m.engine_batches), "count");
    reporter.record("coalesced_requests", static_cast<double>(m.coalesced_requests),
                    "count");
    reporter.record("latency_p50_us", m.latency_p50_us, "us");
    reporter.record("latency_p95_us", m.latency_p95_us, "us");
    reporter.record("latency_p99_us", m.latency_p99_us, "us");
    // Inverse latencies are the gateable (higher-is-better) views of the
    // same quantiles for ci/check_perf.py.
    reporter.record("inverse_latency_p50_khz",
                    m.latency_p50_us > 0 ? 1000.0 / m.latency_p50_us : 0.0, "1/ms");
    reporter.record("inverse_latency_p95_khz",
                    m.latency_p95_us > 0 ? 1000.0 / m.latency_p95_us : 0.0, "1/ms");
    reporter.record("inverse_latency_p99_khz",
                    m.latency_p99_us > 0 ? 1000.0 / m.latency_p99_us : 0.0, "1/ms");
    reporter.record("mismatches", static_cast<double>(mismatches), "count");

    // Overload metrics.  The gateable views: the shed rate must show the
    // queue bound actually refusing load, shed responses must come back
    // promptly (inverse kHz, higher is better), and nothing may fail with
    // anything other than the structured "overloaded" code.
    reporter.record("overload_clients", static_cast<double>(overload_clients), "count");
    reporter.record("overload_requests", static_cast<double>(overload_total), "count");
    reporter.record("overload_served", static_cast<double>(overload.served), "count");
    reporter.record("overload_shed", static_cast<double>(overload.shed), "count");
    reporter.record("overload_shed_rate", shed_rate, "fraction");
    reporter.record("overload_shed_p99_us", overload.shed_p99_us, "us");
    reporter.record("overload_served_p99_us", overload.served_p99_us, "us");
    reporter.record("inverse_overload_shed_p99_khz",
                    overload.shed_p99_us > 0 ? 1000.0 / overload.shed_p99_us : 0.0,
                    "1/ms");
    reporter.record("inverse_overload_served_p99_khz",
                    overload.served_p99_us > 0 ? 1000.0 / overload.served_p99_us : 0.0,
                    "1/ms");
    reporter.record("overload_unexpected_failures",
                    static_cast<double>(overload.other_failures), "count");

    // Retry-convergence metrics.  The gateable views: convergence must be
    // exactly 1.0 (every quota shed retried to completion over real TCP)
    // and nothing may end in an unstructured failure.
    reporter.record("retry_clients", static_cast<double>(retry_clients), "count");
    reporter.record("retry_requests", static_cast<double>(retry_total), "count");
    reporter.record("retry_convergence", retry_convergence, "fraction");
    reporter.record("retry_sheds", static_cast<double>(retry.sheds), "count");
    reporter.record("retry_retries", static_cast<double>(retry.retries), "count");
    reporter.record("retry_reconnects", static_cast<double>(retry.reconnects), "count");
    reporter.record("retry_mean_attempts", retry.mean_attempts, "count");
    reporter.record("retry_added_latency_ms", retry.added_latency_ms, "ms");
    reporter.record("retry_unexpected_failures",
                    static_cast<double>(retry.unexpected_failures), "count");

    // Encode metrics.  The gateable views: the spliced encoder must beat
    // the tree reference by a hardware-independent ratio and reproduce its
    // bytes exactly.
    reporter.record("encode_payload_bytes", static_cast<double>(encode.payload_bytes), "bytes");
    reporter.record("encode_ms", encode.encode_ms, "ms");
    reporter.record("encode_tree_ms", encode.tree_ms, "ms");
    reporter.record("encode_speedup_vs_tree", encode_speedup, "x");
    reporter.record("encode_mismatches", static_cast<double>(encode.mismatches), "count");

    if (encode.mismatches != 0) {
        std::cerr << "FAIL: the spliced response encoder diverges from the tree reference\n";
        return 1;
    }
    if (retry.unexpected_failures != 0) {
        std::cerr << "FAIL: the retrying client failed to converge "
                  << retry.unexpected_failures << " requests\n";
        return 1;
    }
    if (overload.other_failures != 0) {
        std::cerr << "FAIL: overload produced failures without the structured "
                     "\"overloaded\" code\n";
        return 1;
    }
    if (mismatches != 0) {
        std::cerr << "FAIL: coalesced payloads diverge from solo execution\n";
        return 1;
    }
    return 0;
}
