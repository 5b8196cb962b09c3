// Tests for the persistent analysis service (core/service.h):
//
//   * differential — every request kind served through the service yields
//     the byte-identical payload document the stand-alone tool renders;
//   * coalescing — requests merged into one engine batch demultiplex to
//     the exact solo payloads (modulo the documented engine-accounting
//     block, which reports the merged run's physical execution);
//   * concurrency — N client threads with a randomized request mix all
//     receive their solo payloads bit for bit;
//   * versioning — edits commit immutable snapshots, pinned versions stay
//     addressable, LRU eviction trims chains with structured errors;
//   * transport — serve_stream answers NDJSON lines in order, solo
//     stream replays are byte-identical to the tool (engine block
//     included), and serving stops once the output stream fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/api.h"
#include "core/service.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "util/json.h"
#include "util/prng.h"

namespace tsg {
namespace {

/// Removes every "engine" member (any depth): the one payload block a
/// coalesced response reports from the merged run instead of per request.
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

analysis_request make_request(request_kind kind, const std::string& id)
{
    analysis_request request;
    request.kind = kind;
    request.id = id;
    request.design.id = "chip";
    return request;
}

TEST(Service, EveryKindMatchesTheToolByteForByte)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 1;
    options.coalesce = false;
    analysis_service service(options);
    service.register_design("chip", sg);

    std::vector<analysis_request> requests;
    requests.push_back(make_request(request_kind::analyze, "a"));
    {
        analysis_request r = make_request(request_kind::sweep, "s");
        r.options.factor = rational(1, 10);
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::montecarlo, "m-border");
        r.options.samples = 5;
        r.options.solver = cycle_time_solver::border_sweep;
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::montecarlo, "m-howard");
        r.options.samples = 5;
        r.options.solver = cycle_time_solver::howard;
        r.options.max_threads = 1; // deterministic warm-start witness chains
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::montecarlo, "m-adaptive");
        r.options.adaptive = true;
        r.options.epsilon = 0.05;
        r.options.samples = 128;
        r.options.round_samples = 32;
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::criticality, "c");
        r.options.samples = 64;
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::optimize, "opt-det");
        r.options.budget = rational(2);
        r.options.step = rational(1);
        r.options.min_delay = rational(1);
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::optimize, "opt-stat");
        r.options.mode = optimize_mode::statistical;
        r.options.budget = rational(2);
        r.options.step = rational(1);
        r.options.target = rational(9);
        r.options.samples = 128;
        r.options.seed = 42;
        r.options.spread = rational(1, 10);
        r.options.max_threads = 1;
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::report_topk, "topk-det");
        r.options.k = 3;
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::report_topk, "topk-stat");
        r.options.mode = optimize_mode::statistical;
        r.options.k = 2;
        r.options.samples = 64;
        r.options.seed = 7;
        r.options.spread = rational(1, 10);
        r.options.max_threads = 1;
        requests.push_back(r);
    }
    {
        analysis_request r = make_request(request_kind::edit, "e");
        r.edits = json_parse(
            R"({"edits": [{"op": "set_delay", "arc": 0, "delay": "3/2"}]})");
        requests.push_back(r);
    }

    for (const analysis_request& request : requests) {
        const analysis_response expected = execute_request(request, sg);
        ASSERT_TRUE(expected.ok) << request.id << ": " << expected.error.message;
        const analysis_response served = service.execute(request);
        ASSERT_TRUE(served.ok) << request.id << ": " << served.error.message;
        EXPECT_EQ(served.payload, expected.payload) << request.id;
        EXPECT_EQ(served.id, request.id);
        EXPECT_FALSE(served.coalesced) << request.id;
    }
}

/// A mixed pool of small, engine-compatible batch requests (the coalescer
/// merges them; their payload knobs differ per request).
std::vector<analysis_request> small_batch_mix(std::size_t count)
{
    std::vector<analysis_request> requests;
    for (std::size_t i = 0; i < count; ++i) {
        if (i % 2 == 0) {
            analysis_request r =
                make_request(request_kind::sweep, "sweep-" + std::to_string(i));
            r.options.factor = rational(1 + static_cast<std::int64_t>(i % 9), 10);
            r.options.solver = cycle_time_solver::border_sweep;
            r.options.max_threads = 1;
            requests.push_back(r);
        } else {
            analysis_request r =
                make_request(request_kind::montecarlo, "mc-" + std::to_string(i));
            r.options.samples = 4 + i % 5;
            r.options.seed = 100 + i;
            r.options.spread = rational(1 + static_cast<std::int64_t>(i) % 3, 10);
            r.options.solver = cycle_time_solver::border_sweep;
            r.options.max_threads = 1;
            requests.push_back(r);
        }
    }
    return requests;
}

TEST(Service, CoalescedBatchesMatchSoloBitForBit)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 1; // one worker: queued requests pile up and merge
    options.coalesce = true;
    analysis_service service(options);
    service.register_design("chip", sg);

    // Solo ground truth through the tool pipeline.
    const std::vector<analysis_request> requests = small_batch_mix(12);
    std::vector<std::string> expected;
    for (const analysis_request& request : requests) {
        const analysis_response solo = execute_request(request, sg);
        ASSERT_TRUE(solo.ok) << solo.error.message;
        expected.push_back(without_engine_block(solo.payload));
    }

    // Occupy the single worker so the batch requests queue behind it and
    // the first popped one finds the rest waiting to merge.
    analysis_request plug = make_request(request_kind::montecarlo, "plug");
    plug.options.adaptive = true;
    plug.options.epsilon = 1e-9; // never converges: runs to the cap
    plug.options.samples = 4096;
    plug.options.min_samples = 4096;
    plug.options.with_witness = false;
    std::future<analysis_response> plug_done = service.submit(plug);

    std::vector<std::future<analysis_response>> futures;
    for (const analysis_request& request : requests)
        futures.push_back(service.submit(request));

    ASSERT_TRUE(plug_done.get().ok);
    std::size_t coalesced = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const analysis_response response = futures[i].get();
        ASSERT_TRUE(response.ok) << requests[i].id << ": " << response.error.message;
        EXPECT_EQ(without_engine_block(response.payload), expected[i]) << requests[i].id;
        if (response.coalesced) ++coalesced;
    }
    EXPECT_GT(coalesced, 0u) << "no request was served from a merged batch";

    const service_metrics m = service.metrics();
    EXPECT_EQ(m.batch_requests, requests.size());
    EXPECT_GT(m.coalesced_requests, 0u);
    EXPECT_LT(m.engine_batches, requests.size()); // merging actually happened
    EXPECT_GT(m.coalescing_efficiency, 1.0);
}

TEST(Service, CoalescedLaneGroupMixesScalesAndTheRationalPath)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 1;
    options.coalesce = true;
    analysis_service service(options);
    service.register_design("chip", sg);

    // Three requests filling one lane group of 8: two grids whose int64
    // images differ in scale, and one too fine to tabulate, which packs
    // its lanes from rationals.
    std::vector<analysis_request> requests;
    for (const auto& [spread, resolution, samples] :
         {std::tuple{rational(1, 10), std::int64_t{16}, std::size_t{3}},
          std::tuple{rational(1, 7), std::int64_t{16}, std::size_t{3}},
          std::tuple{rational(1, 10), std::int64_t{5000}, std::size_t{2}}}) {
        analysis_request r =
            make_request(request_kind::montecarlo, "mc-" + std::to_string(requests.size()));
        r.options.spread = spread;
        r.options.resolution = resolution;
        r.options.samples = samples;
        r.options.seed = 40 + requests.size();
        r.options.solver = cycle_time_solver::border_sweep;
        r.options.max_threads = 1;
        requests.push_back(r);
    }
    const monte_carlo_table first =
        build_monte_carlo_table(sg, requests[0].options.to_monte_carlo_options());
    const monte_carlo_table second =
        build_monte_carlo_table(sg, requests[1].options.to_monte_carlo_options());
    ASSERT_NE(first.scale, 0);
    ASSERT_NE(second.scale, 0);
    ASSERT_NE(first.scale, second.scale);
    ASSERT_FALSE(monte_carlo_table_fits(sg, requests[2].options.to_monte_carlo_options()));

    std::vector<std::string> expected;
    for (const analysis_request& request : requests) {
        const analysis_response solo = execute_request(request, sg);
        ASSERT_TRUE(solo.ok) << solo.error.message;
        expected.push_back(without_engine_block(solo.payload));
    }

    analysis_request plug = make_request(request_kind::montecarlo, "plug");
    plug.options.adaptive = true;
    plug.options.epsilon = 1e-9; // never converges: runs to the cap
    plug.options.samples = 4096;
    plug.options.min_samples = 4096;
    plug.options.with_witness = false;
    std::future<analysis_response> plug_done = service.submit(plug);
    std::vector<std::future<analysis_response>> futures;
    for (const analysis_request& request : requests)
        futures.push_back(service.submit(request));
    ASSERT_TRUE(plug_done.get().ok);

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const analysis_response response = futures[i].get();
        ASSERT_TRUE(response.ok) << requests[i].id << ": " << response.error.message;
        EXPECT_TRUE(response.coalesced) << requests[i].id;
        EXPECT_EQ(without_engine_block(response.payload), expected[i]) << requests[i].id;
        const json_value doc = json_parse(response.payload, "payload");
        const json_value* engine = doc.find("aggregate")->find("engine");
        EXPECT_EQ(engine->find("lane_groups")->text, "1") << requests[i].id;
        EXPECT_EQ(engine->find("lane_scenarios")->text, "8") << requests[i].id;
    }
    EXPECT_EQ(service.metrics().engine_batches, 1u);
}

TEST(Service, StatisticsRequestsCountTheSamplesTheyEvaluate)
{
    const signal_graph sg = c_oscillator_sg();
    analysis_service service;
    service.register_design("chip", sg);

    analysis_request criticality = make_request(request_kind::criticality, "crit");
    criticality.options.samples = 64;
    const analysis_response crit = service.execute(criticality);
    ASSERT_TRUE(crit.ok) << crit.error.message;
    EXPECT_EQ(crit.scenarios, 64u);

    analysis_request adaptive = make_request(request_kind::montecarlo, "adaptive");
    adaptive.options.adaptive = true;
    adaptive.options.epsilon = 0.05;
    adaptive.options.samples = 2048;
    const analysis_response run = service.execute(adaptive);
    ASSERT_TRUE(run.ok) << run.error.message;
    const json_value doc = json_parse(run.payload, "payload");
    const std::size_t samples = std::stoull(doc.find("statistics")->find("samples")->text);
    EXPECT_GT(samples, 0u);
    EXPECT_EQ(run.scenarios, samples);

    // Both count in the throughput and the fleet row, and both payloads
    // equal the tool's, which builds its own table.
    const service_metrics m = service.metrics();
    EXPECT_EQ(m.scenarios, 64u + samples);
    ASSERT_EQ(m.fleet.size(), 1u);
    EXPECT_EQ(m.fleet[0].second.scenarios, 64u + samples);
    EXPECT_EQ(crit.payload, execute_request(criticality, sg).payload);
    EXPECT_EQ(run.payload, execute_request(adaptive, sg).payload);
}

TEST(Service, ConcurrentClientsReceiveSoloPayloads)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 4;
    options.coalesce = true;
    analysis_service service(options);
    service.register_design("chip", sg);

    // A fixed request pool with precomputed solo payloads.
    const std::vector<analysis_request> pool = small_batch_mix(8);
    std::vector<std::string> expected;
    for (const analysis_request& request : pool) {
        const analysis_response solo = execute_request(request, sg);
        ASSERT_TRUE(solo.ok) << solo.error.message;
        expected.push_back(without_engine_block(solo.payload));
    }

    constexpr std::size_t clients = 4;
    constexpr std::size_t per_client = 10;
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::size_t> errors{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            prng rng(1000 + c);
            for (std::size_t i = 0; i < per_client; ++i) {
                const std::size_t pick = rng.index(pool.size());
                const analysis_response response = service.execute(pool[pick]);
                if (!response.ok) {
                    ++errors;
                    continue;
                }
                if (without_engine_block(response.payload) != expected[pick])
                    ++mismatches;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(errors.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(service.metrics().requests, clients * per_client);
}

TEST(Service, EditsCommitVersionsAndPinsStayAddressable)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 1;
    analysis_service service(options);
    EXPECT_EQ(service.register_design("chip", sg), 1u);

    // Arc 5 (a+ -> c+) sits on the demo's critical cycle, so the edit
    // provably moves the cycle time between versions.
    analysis_request edit = make_request(request_kind::edit, "e1");
    edit.edits =
        json_parse(R"({"edits": [{"op": "set_delay", "arc": 5, "delay": "50"}]})");
    const analysis_response committed = service.execute(edit);
    ASSERT_TRUE(committed.ok) << committed.error.message;
    EXPECT_EQ(committed.design_version, 2u);

    analysis_request pin1 = make_request(request_kind::analyze, "v1");
    pin1.design.version = 1;
    analysis_request pin2 = make_request(request_kind::analyze, "v2");
    pin2.design.version = 2;
    const analysis_response at1 = service.execute(pin1);
    const analysis_response at2 = service.execute(pin2);
    ASSERT_TRUE(at1.ok);
    ASSERT_TRUE(at2.ok);
    EXPECT_EQ(at1.design_version, 1u);
    EXPECT_EQ(at2.design_version, 2u);
    EXPECT_NE(at1.payload, at2.payload); // the edit moved the cycle time

    // Version 1 still serves exactly what the pre-edit tool run produced.
    const analysis_response tool = execute_request(pin1, sg);
    EXPECT_EQ(at1.payload, tool.payload);

    analysis_request missing = make_request(request_kind::analyze, "v99");
    missing.design.version = 99;
    const analysis_response not_there = service.execute(missing);
    EXPECT_FALSE(not_there.ok);
    EXPECT_EQ(not_there.error.code, "unknown_version");
    EXPECT_NE(not_there.error.message.find("has no version"), std::string::npos);

    analysis_request unknown = make_request(request_kind::analyze, "u");
    unknown.design.id = "nope";
    const analysis_response no_design = service.execute(unknown);
    EXPECT_FALSE(no_design.ok);
    EXPECT_EQ(no_design.error.code, "unknown_design");

    analysis_request unregistered = make_request(request_kind::analyze, "r");
    unregistered.design.id.clear();
    const analysis_response no_id = service.execute(unregistered);
    EXPECT_FALSE(no_id.ok);
    EXPECT_EQ(no_id.error.code, "bad_request");

    analysis_request stale_edit = make_request(request_kind::edit, "e-old");
    stale_edit.design.version = 1;
    stale_edit.edits =
        json_parse(R"({"edits": [{"op": "set_delay", "arc": 0, "delay": "2"}]})");
    const analysis_response stale = service.execute(stale_edit);
    EXPECT_FALSE(stale.ok);
    EXPECT_EQ(stale.error.code, "bad_request");
}

TEST(Service, OutOfRangeEditIndicesFailLikeOtherMalformedScripts)
{
    service_options options;
    options.workers = 1;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    const auto run_script = [&](const std::string& script) {
        analysis_request edit = make_request(request_kind::edit, "e");
        edit.edits = json_parse(script);
        return service.execute(edit);
    };
    const analysis_response unknown_op = run_script(R"({"edits": [{"op": "warp", "arc": 3}]})");
    ASSERT_FALSE(unknown_op.ok);
    // 2^32 + 3 must not wrap to arc 3, and a value past 2^64 must not leak
    // a standard-library exception.
    for (const char* arc : {"4294967299", "99999999999999999999"}) {
        const analysis_response r = run_script(
            std::string(R"({"edits": [{"op": "set_delay", "arc": )") + arc +
            R"(, "delay": "50"}]})");
        EXPECT_FALSE(r.ok) << arc;
        EXPECT_EQ(r.error.code, unknown_op.error.code) << arc << ": " << r.error.message;
        EXPECT_EQ(r.error.message.rfind("edit script: ", 0), 0u) << r.error.message;
    }
    const service_metrics m = service.metrics();
    EXPECT_EQ(m.versions, 1u);
    EXPECT_EQ(m.edits_committed, 0u);
}

TEST(Service, DeadlinesBeyondTheClockNeverExpire)
{
    analysis_service service;
    service.register_design("chip", c_oscillator_sg());
    analysis_request request = make_request(request_kind::analyze, "far");
    request.options.deadline_ms = 10000000000000; // about 317 years
    const analysis_response far = service.execute(request);
    EXPECT_TRUE(far.ok) << far.error.code << ": " << far.error.message;
    request.options.deadline_ms = std::numeric_limits<std::uint64_t>::max();
    EXPECT_TRUE(service.execute(request).ok);
    EXPECT_EQ(service.metrics().deadline_expired, 0u);
}

TEST(Service, OptimizeDeadlineStopsTheSearchAndTheWorkerServesOn)
{
    // A search of thousands of evaluations (well over 50 ms on any build)
    // against a 20 ms deadline: the search itself notices, the request
    // answers deadline_exceeded, and the one worker serves the next request.
    random_sg_options gopts;
    gopts.events = 512;
    gopts.extra_arcs = 512;
    gopts.seed = 3;
    gopts.border_limit = 4;
    service_options options;
    options.workers = 1;
    analysis_service service(options);
    service.register_design("chip", random_marked_graph(gopts));

    analysis_request slow = make_request(request_kind::optimize, "slow");
    slow.options.budget = rational(4);
    slow.options.step = rational(1);
    slow.options.deadline_ms = 20;
    const analysis_response expired = service.execute(slow);
    EXPECT_FALSE(expired.ok);
    EXPECT_EQ(expired.error.code, "deadline_exceeded");
    EXPECT_NE(expired.error.message.find("evaluations"), std::string::npos)
        << expired.error.message;
    EXPECT_EQ(service.metrics().deadline_expired, 1u);

    const analysis_response next = service.execute(make_request(request_kind::analyze, "next"));
    EXPECT_TRUE(next.ok) << next.error.code << ": " << next.error.message;

    // The expiry inside the run counted once, globally and on the
    // design's fleet row, and the request served after it adds none.
    const service_metrics m = service.metrics();
    EXPECT_EQ(m.deadline_expired, 1u);
    ASSERT_EQ(m.fleet.size(), 1u);
    EXPECT_EQ(m.fleet[0].first, "chip");
    EXPECT_EQ(m.fleet[0].second.deadline_expired, 1u);
    EXPECT_EQ(m.fleet[0].second.requests, 2u);
    EXPECT_EQ(m.fleet[0].second.failures, 1u);
}

TEST(Service, LruEvictionTrimsChainsWithStructuredErrors)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 1;
    options.max_versions_per_design = 2;
    analysis_service service(options);
    service.register_design("chip", sg);

    for (int i = 0; i < 3; ++i) {
        analysis_request edit = make_request(request_kind::edit, "e" + std::to_string(i));
        edit.edits = json_parse(R"({"edits": [{"op": "set_delay", "arc": 0, "delay": ")" +
                                std::to_string(10 + i) + R"("}]})");
        ASSERT_TRUE(service.execute(edit).ok);
    }
    // Chain is at versions {3, 4}; 1 and 2 were evicted.
    analysis_request pin1 = make_request(request_kind::analyze, "v1");
    pin1.design.version = 1;
    const analysis_response evicted = service.execute(pin1);
    EXPECT_FALSE(evicted.ok);
    EXPECT_EQ(evicted.error.code, "unknown_version");
    EXPECT_NE(evicted.error.message.find("was evicted"), std::string::npos);

    const service_metrics m = service.metrics();
    EXPECT_EQ(m.versions, 2u);
    EXPECT_EQ(m.versions_evicted, 2u);
    EXPECT_EQ(m.edits_committed, 3u);
}

/// The eviction race the LRU cap creates: version-pinned reads running
/// concurrently with edit commits that advance the chain and evict its
/// tail.  Every read must end in exactly one of two shapes — an ok
/// response whose payload is byte-stable for that (immutable) version,
/// or a structured unknown_version error.  Nothing in between: no torn
/// payloads, no internal errors, no crash.  The ASan/UBSan CI job runs
/// this test, so a latent use-after-free in the snapshot chain fails
/// loudly instead of silently.
TEST(Service, LruEvictionRacingPinnedReadsStaysStructured)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 4;
    options.max_versions_per_design = 2;
    analysis_service service(options);
    service.register_design("chip", sg);

    constexpr std::size_t edits = 20;
    std::atomic<std::uint64_t> latest{1};
    std::atomic<bool> writer_failed{false};

    std::mutex seen_mutex;
    std::map<std::uint64_t, std::string> seen; // version -> first ok payload
    std::atomic<std::size_t> violations{0};

    std::thread writer([&] {
        for (std::size_t i = 0; i < edits; ++i) {
            analysis_request edit =
                make_request(request_kind::edit, "e" + std::to_string(i));
            edit.edits =
                json_parse(R"({"edits": [{"op": "set_delay", "arc": 0, "delay": ")" +
                           std::to_string(10 + i) + R"("}]})");
            const analysis_response committed = service.execute(edit);
            if (!committed.ok) {
                writer_failed.store(true);
                return;
            }
            latest.store(committed.design_version, std::memory_order_release);
        }
    });

    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            prng rng(7000 + t);
            for (std::size_t i = 0; i < 40; ++i) {
                analysis_request pin = make_request(request_kind::analyze, "pin");
                pin.design.version =
                    1 + rng.next() % latest.load(std::memory_order_acquire);
                const analysis_response response = service.execute(pin);
                if (response.ok) {
                    std::lock_guard<std::mutex> lock(seen_mutex);
                    const auto [it, inserted] =
                        seen.emplace(response.design_version, response.payload);
                    if (!inserted && it->second != response.payload) ++violations;
                } else if (response.error.code != "unknown_version") {
                    ++violations;
                }
            }
        });
    }
    writer.join();
    for (std::thread& t : readers) t.join();

    EXPECT_FALSE(writer_failed.load());
    EXPECT_EQ(violations.load(), 0u);

    const service_metrics m = service.metrics();
    EXPECT_EQ(m.versions, 2u);
    EXPECT_EQ(m.edits_committed, edits);
    EXPECT_EQ(m.versions_evicted, edits - 1);

    // The head of the chain survives the storm and still serves.
    analysis_request head = make_request(request_kind::analyze, "head");
    head.design.version = latest.load();
    EXPECT_TRUE(service.execute(head).ok);
}

TEST(Service, ServeStreamAnswersInOrderAndMatchesTheTool)
{
    const signal_graph sg = c_oscillator_sg();
    service_options options;
    options.workers = 2;
    analysis_service service(options);
    service.register_design("chip", sg);

    analysis_request sweep = make_request(request_kind::sweep, "line2");
    sweep.options.factor = rational(1, 10);

    std::ostringstream script;
    script << analysis_request_json(make_request(request_kind::analyze, "line1")).write()
           << "\n";
    script << analysis_request_json(sweep).write() << "\n";
    script << "this is not json\n";
    script << "\n"; // blank lines are skipped
    script << analysis_request_json(make_request(request_kind::stats, "line4")).write()
           << "\n";

    std::istringstream in(script.str());
    std::ostringstream out;
    service.serve_stream(in, out);

    std::vector<std::string> lines;
    std::istringstream split(out.str());
    for (std::string line; std::getline(split, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);

    const json_value r1 = json_parse(lines[0]);
    const json_value r2 = json_parse(lines[1]);
    const json_value r3 = json_parse(lines[2]);
    const json_value r4 = json_parse(lines[3]);
    EXPECT_EQ(r1.find("id")->text, "line1");
    EXPECT_EQ(r2.find("id")->text, "line2");
    EXPECT_EQ(r4.find("id")->text, "line4");
    EXPECT_EQ(r3.find("ok")->k, json_value::kind::bool_v);
    EXPECT_FALSE(r3.find("ok")->boolean);
    ASSERT_NE(r3.find("error"), nullptr);
    EXPECT_EQ(r3.find("error")->find("code")->text, "bad_request");

    // A sequential stream serves every request solo, so the embedded
    // payload is the tool's document verbatim — engine block included.
    const analysis_response tool = execute_request(sweep, sg);
    EXPECT_EQ(*r2.find("payload"), json_parse(tool.payload));
}

/// An output buffer that accepts `budget` bytes and refuses every write
/// after that — a reader that went away mid-stream, without sockets.
class refusing_streambuf : public std::streambuf {
public:
    explicit refusing_streambuf(std::size_t budget) : budget_(budget) {}

protected:
    int_type overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof())) return traits_type::not_eof(ch);
        const char c = traits_type::to_char_type(ch);
        return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
    }

    std::streamsize xsputn(const char*, std::streamsize n) override
    {
        const auto taken = static_cast<std::streamsize>(
            std::min<std::size_t>(static_cast<std::size_t>(n), budget_));
        budget_ -= static_cast<std::size_t>(taken);
        return taken;
    }

private:
    std::size_t budget_;
};

TEST(Service, ServeStreamStopsOnceItsOutputFails)
{
    service_options options;
    options.workers = 1;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    // 64 request lines; the output takes a few bytes of the first
    // response and then refuses everything.
    std::ostringstream script;
    for (int i = 0; i < 64; ++i)
        script << analysis_request_json(make_request(request_kind::sweep,
                                                     "g" + std::to_string(i)))
                      .write()
               << "\n";
    std::istringstream in(script.str());
    refusing_streambuf sink(16);
    std::ostream out(&sink);

    service.serve_stream(in, out);
    EXPECT_FALSE(out.good());
    // Only the request whose response failed was executed; the rest of
    // the input is left unread.
    EXPECT_EQ(service.metrics().requests, 1u);
    std::size_t unread = 0;
    for (std::string line; std::getline(in, line);) ++unread;
    EXPECT_EQ(unread, 63u);
}

TEST(Service, StatsPayloadReflectsTraffic)
{
    const signal_graph sg = c_oscillator_sg();
    analysis_service service;
    service.register_design("chip", sg);

    for (const analysis_request& request : small_batch_mix(6))
        ASSERT_TRUE(service.execute(request).ok);

    const analysis_response stats =
        service.execute(make_request(request_kind::stats, "st"));
    ASSERT_TRUE(stats.ok) << stats.error.message;
    const json_value doc = json_parse(stats.payload, "stats payload");
    EXPECT_EQ(doc.write(), stats.payload); // written in its wire form
    EXPECT_EQ(doc.find("command")->text, "stats");
    const analysis_response health =
        service.execute(make_request(request_kind::health, "h"));
    ASSERT_TRUE(health.ok) << health.error.message;
    EXPECT_EQ(json_parse(health.payload, "health payload").write(), health.payload);
    ASSERT_NE(doc.find("requests"), nullptr);
    EXPECT_GE(std::stoull(doc.find("requests")->find("total")->text), 6u);
    ASSERT_NE(doc.find("latency_us"), nullptr);
    EXPECT_GE(std::stoull(doc.find("latency_us")->find("samples")->text), 6u);

    const service_metrics m = service.metrics();
    EXPECT_GE(m.latency_samples, 6u);
    EXPECT_LE(m.latency_p50_us, m.latency_p95_us);
    EXPECT_LE(m.latency_p95_us, m.latency_p99_us);
    EXPECT_GT(m.scenarios, 0u);
    EXPECT_EQ(m.failures, 0u);
    EXPECT_EQ(m.queue_depth, 0u);
}

TEST(Service, LatencyQuantilesMatchTheResponses)
{
    // Fast analyze requests and slow Monte Carlo runs: the reported
    // quantiles must resolve both, not collapse them into one bin.
    analysis_service service;
    service.register_design("chip", c_oscillator_sg());
    std::vector<double> elapsed_us;
    for (int i = 0; i < 30; ++i) {
        const std::string id = std::string("a").append(std::to_string(i));
        const analysis_response r = service.execute(make_request(request_kind::analyze, id));
        ASSERT_TRUE(r.ok) << r.error.message;
        elapsed_us.push_back(r.elapsed_ms * 1000.0);
    }
    for (int i = 0; i < 5; ++i) {
        const std::string id = std::string("m").append(std::to_string(i));
        analysis_request mc = make_request(request_kind::montecarlo, id);
        mc.options.samples = 5000;
        mc.options.seed = static_cast<std::uint64_t>(i + 1);
        const analysis_response r = service.execute(mc);
        ASSERT_TRUE(r.ok) << r.error.message;
        elapsed_us.push_back(r.elapsed_ms * 1000.0);
    }
    std::sort(elapsed_us.begin(), elapsed_us.end());
    // Nearest rank: the ceil(q * n)-th smallest latency.
    const auto exact = [&](double q) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(elapsed_us.size())));
        return elapsed_us[std::max<std::size_t>(rank, 1) - 1];
    };

    const service_metrics m = service.metrics();
    EXPECT_EQ(m.latency_samples, elapsed_us.size());
    for (const auto& [q, reported] : {std::pair{0.50, m.latency_p50_us},
                                      std::pair{0.95, m.latency_p95_us},
                                      std::pair{0.99, m.latency_p99_us}}) {
        const double want = exact(q);
        EXPECT_NEAR(reported, want, want / 64.0 + 1.0) << "q = " << q;
    }
}

} // namespace
} // namespace tsg
