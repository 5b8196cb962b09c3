// Admission control, load shedding, coalescing and the
// cross-request payload cache (core/service.h), plus the shed path
// through the epoll transport:
//
//   * a burst far beyond the queue bound gets exactly queue-depth
//     requests accepted; the overflow is shed with the structured
//     "overloaded" shape, and shed futures are ready the moment submit()
//     returns — shedding never waits on the worker pool;
//   * requests coalesced while the service is saturated demultiplex to
//     the byte-identical solo payloads (engine-accounting block aside,
//     the documented exception);
//   * an identical request body is served from the payload cache byte
//     for byte, and the hit is counted per service and per design;
//   * the cache stays within its per-version byte budget: an over-budget
//     payload is served but never cached, and overflow clears;
//   * the stats payload exposes the admission, cache and per-design
//     fleet blocks, and requests naming unknown design ids leave no
//     per-design state behind (fleet rows, quota buckets).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/service.h"
#include "gen/oscillator.h"
#include "service_test_harness.h"
#include "util/json.h"

namespace tsg {
namespace {

using testing::make_request;
using testing::plug_request;
using testing::request_line;
using testing::response_doc;
using testing::response_error_code;
using testing::response_ok;
using testing::script_client;
using testing::serve_harness;
using testing::wait_until;

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

/// Parks the single worker on a long run and waits until it was popped
/// off the queue, so the queue bound is all that is left for the burst.
std::future<analysis_response> occupy_worker(analysis_service& service,
                                             std::size_t samples = 1 << 17)
{
    auto future = service.submit(plug_request("plug", samples));
    [&] {
        ASSERT_TRUE(wait_until([&] { return service.metrics().queue_depth == 0; }));
    }();
    return future;
}

TEST(Backpressure, BurstBeyondTheQueueBoundShedsExactlyTheOverflow)
{
    service_options options;
    options.workers = 1;
    options.coalesce = false;
    options.max_queue_depth = 4;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    auto plug = occupy_worker(service);

    constexpr int burst = 32;
    std::vector<std::future<analysis_response>> futures;
    std::vector<bool> ready_at_submit;
    for (int i = 0; i < burst; ++i) {
        futures.push_back(
            service.submit(make_request(request_kind::analyze, "b" + std::to_string(i))));
        // A shed response must not wait on anything: its future is ready
        // before submit() even returns.
        ready_at_submit.push_back(futures.back().wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready);
    }

    int accepted = 0;
    int shed = 0;
    for (int i = 0; i < burst; ++i) {
        const analysis_response response = futures[i].get();
        if (response.ok) {
            ++accepted;
            EXPECT_FALSE(ready_at_submit[i]) << "request " << i;
        } else {
            ASSERT_EQ(response.error.code, "overloaded") << response.error.message;
            EXPECT_NE(response.error.message.find("queue"), std::string::npos);
            EXPECT_TRUE(ready_at_submit[i]) << "request " << i;
            EXPECT_EQ(response.id, "b" + std::to_string(i)); // id echo survives the shed
            ++shed;
        }
    }
    EXPECT_EQ(accepted, 4); // exactly the queue bound
    EXPECT_EQ(shed, burst - 4);
    EXPECT_TRUE(plug.get().ok);

    const service_metrics metrics = service.metrics();
    EXPECT_EQ(metrics.requests_shed, static_cast<std::uint64_t>(burst - 4));
    EXPECT_EQ(metrics.queue_limit, 4u);
    ASSERT_EQ(metrics.fleet.size(), 1u);
    EXPECT_EQ(metrics.fleet[0].first, "chip");
    EXPECT_EQ(metrics.fleet[0].second.shed, static_cast<std::uint64_t>(burst - 4));
}

TEST(Backpressure, ShedReachesTheWireAsStructuredOverloadedResponses)
{
    service_options service_opts;
    service_opts.workers = 1;
    service_opts.coalesce = false;
    service_opts.max_queue_depth = 1;
    serve_harness harness(service_opts);

    // One client parks the worker...
    script_client plug(harness.port());
    ASSERT_TRUE(plug.connected());
    ASSERT_TRUE(plug.send_line(request_line(plug_request("plug", 1 << 17))));
    ASSERT_TRUE(wait_until([&] { return harness.service().metrics().queue_depth == 0 &&
                                        harness.service().metrics().requests >= 1; }));

    // ...while another bursts eight pipelined requests: one fits the
    // queue, seven come back overloaded — all in request order.
    script_client burst(harness.port());
    ASSERT_TRUE(burst.connected());
    std::string wire;
    for (int i = 0; i < 8; ++i)
        wire += request_line(make_request(request_kind::analyze, "w" + std::to_string(i))) + "\n";
    ASSERT_TRUE(burst.send_raw(wire));

    int ok = 0;
    int overloaded = 0;
    for (int i = 0; i < 8; ++i) {
        const auto line = burst.read_line(std::chrono::milliseconds(30000));
        ASSERT_TRUE(line.has_value()) << "response " << i;
        const json_value doc = response_doc(*line);
        EXPECT_EQ(testing::response_id(doc), "w" + std::to_string(i));
        if (response_ok(doc))
            ++ok;
        else {
            EXPECT_EQ(response_error_code(doc), "overloaded");
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 1);
    EXPECT_EQ(overloaded, 7);
    EXPECT_TRUE(plug.read_line(std::chrono::milliseconds(30000)).has_value());
}

TEST(Backpressure, CoalescedUnderLoadMatchesSoloByteForBit)
{
    // Solo reference: strict one-request-per-batch execution.
    service_options solo_opts;
    solo_opts.workers = 1;
    solo_opts.coalesce = false;
    solo_opts.payload_cache = false;
    analysis_service solo(solo_opts);
    solo.register_design("chip", c_oscillator_sg());

    // Saturated service: everything below queues behind the plug and is
    // merged into one engine batch when the worker frees up.
    service_options options;
    options.workers = 1;
    options.coalesce = true;
    options.payload_cache = false;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    auto plug = occupy_worker(service);

    const rational factors[] = {rational(1, 10), rational(1, 5), rational(3, 10),
                                rational(2, 5)};
    std::vector<std::future<analysis_response>> futures;
    for (std::size_t i = 0; i < 4; ++i) {
        analysis_request request = make_request(request_kind::sweep, "s" + std::to_string(i));
        request.options.factor = factors[i];
        futures.push_back(service.submit(request));
    }
    EXPECT_TRUE(plug.get().ok);

    bool any_coalesced = false;
    for (std::size_t i = 0; i < 4; ++i) {
        const analysis_response merged = futures[i].get();
        ASSERT_TRUE(merged.ok) << merged.error.message;
        any_coalesced = any_coalesced || merged.coalesced;

        analysis_request request = make_request(request_kind::sweep, "s" + std::to_string(i));
        request.options.factor = factors[i];
        const analysis_response alone = solo.submit(request).get();
        ASSERT_TRUE(alone.ok);
        EXPECT_EQ(without_engine_block(merged.payload), without_engine_block(alone.payload))
            << "request " << i;
    }
    EXPECT_TRUE(any_coalesced);
    EXPECT_GE(service.metrics().coalesced_requests, 2u);
}

TEST(Backpressure, IdenticalRequestBodiesAreServedFromThePayloadCache)
{
    service_options options;
    options.workers = 1;
    options.coalesce = false;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    analysis_request request = make_request(request_kind::sweep, "first");
    const analysis_response first = service.submit(request).get();
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(service.metrics().cache_hits, 0u);

    // Same body, different correlation id: a cache hit, byte-identical
    // payload (engine block included — the bytes are the original run's).
    request.id = "second";
    const analysis_response second = service.submit(request).get();
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(second.payload, first.payload);
    EXPECT_EQ(second.id, "second");
    EXPECT_EQ(second.scenarios, first.scenarios);
    EXPECT_EQ(second.design_version, first.design_version);
    EXPECT_EQ(service.metrics().cache_hits, 1u);

    // Any option difference is a different body — a miss.
    request.id = "third";
    request.options.factor = rational(1, 5);
    const analysis_response third = service.submit(request).get();
    ASSERT_TRUE(third.ok);
    EXPECT_NE(third.payload, first.payload);
    EXPECT_EQ(service.metrics().cache_hits, 1u);

    const service_metrics metrics = service.metrics();
    ASSERT_EQ(metrics.fleet.size(), 1u);
    EXPECT_EQ(metrics.fleet[0].second.cache_hits, 1u);
}

TEST(Backpressure, PayloadCacheStaysWithinItsByteBudget)
{
    const auto sweep = [](const std::string& id, rational factor) {
        analysis_request request = make_request(request_kind::sweep, id);
        request.options.factor = factor;
        return request;
    };
    analysis_request big = make_request(request_kind::montecarlo, "big");
    big.options.samples = 128;

    // Entry size (key + payload) of one small sweep, and the big payload,
    // measured on an unconstrained service.
    service_options probe_options;
    probe_options.workers = 1;
    probe_options.coalesce = false;
    analysis_service probe(probe_options);
    probe.register_design("chip", c_oscillator_sg());
    ASSERT_TRUE(probe.submit(sweep("p", rational(1, 10))).get().ok);
    const std::size_t entry = probe.metrics().cache_bytes;
    ASSERT_GT(entry, 0u);
    const analysis_response big_alone = probe.submit(big).get();
    ASSERT_TRUE(big_alone.ok);

    // Room for two small entries, not for the big payload.
    service_options options = probe_options;
    options.payload_cache_bytes = 2 * entry + entry / 2;
    ASSERT_GT(big_alone.payload.size(), options.payload_cache_bytes);
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    ASSERT_TRUE(service.submit(sweep("s0", rational(1, 10))).get().ok);
    EXPECT_EQ(service.metrics().cache_entries, 1u);
    EXPECT_EQ(service.metrics().cache_bytes, entry);

    // Over budget: served byte-identical, twice, and never cached.
    for (const char* id : {"big1", "big2"}) {
        big.id = id;
        const analysis_response served = service.submit(big).get();
        ASSERT_TRUE(served.ok) << served.error.message;
        EXPECT_EQ(served.payload, big_alone.payload);
        EXPECT_EQ(service.metrics().cache_hits, 0u);
        EXPECT_EQ(service.metrics().cache_entries, 1u);
        EXPECT_EQ(service.metrics().cache_bytes, entry);
    }

    // Distinct small bodies: the byte count never passes the budget, and
    // overflow clears instead of growing.
    const rational factors[] = {rational(1, 5), rational(3, 10), rational(2, 5),
                                rational(1, 2), rational(3, 5)};
    std::size_t most_entries = 0;
    for (std::size_t i = 0; i < std::size(factors); ++i) {
        ASSERT_TRUE(service.submit(sweep("s" + std::to_string(i + 1), factors[i])).get().ok);
        const service_metrics m = service.metrics();
        EXPECT_LE(m.cache_bytes, options.payload_cache_bytes) << "after sweep " << i + 1;
        EXPECT_GE(m.cache_entries, 1u);
        most_entries = std::max(most_entries, m.cache_entries);
    }
    EXPECT_EQ(most_entries, 2u);

    // The newest entry survived the clears and serves the next repeat.
    const analysis_response repeat = service.submit(sweep("again", factors[4])).get();
    ASSERT_TRUE(repeat.ok);
    EXPECT_EQ(service.metrics().cache_hits, 1u);
}

TEST(Backpressure, CacheIsDisabledWhenConfiguredOff)
{
    service_options options;
    options.workers = 1;
    options.coalesce = false;
    options.payload_cache = false;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    analysis_request request = make_request(request_kind::sweep, "a");
    ASSERT_TRUE(service.submit(request).get().ok);
    request.id = "b";
    ASSERT_TRUE(service.submit(request).get().ok);
    EXPECT_EQ(service.metrics().cache_hits, 0u);
}

TEST(Backpressure, StatsPayloadReportsAdmissionCacheAndFleet)
{
    service_options options;
    options.workers = 1;
    options.coalesce = false;
    options.max_queue_depth = 2;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    // Produce one cache hit and a couple of shed requests.
    analysis_request request = make_request(request_kind::sweep, "x");
    ASSERT_TRUE(service.submit(request).get().ok);
    request.id = "y";
    ASSERT_TRUE(service.submit(request).get().ok);

    auto plug = occupy_worker(service);
    std::vector<std::future<analysis_response>> burst;
    for (int i = 0; i < 6; ++i)
        burst.push_back(service.submit(make_request(request_kind::analyze, "s" + std::to_string(i))));
    for (auto& f : burst) (void)f.get();
    EXPECT_TRUE(plug.get().ok);

    const analysis_response stats =
        service.submit(make_request(request_kind::stats, "stats", "")).get();
    ASSERT_TRUE(stats.ok) << stats.error.message;
    const json_value doc = json_parse(stats.payload, "stats");

    const json_value* admission = doc.find("admission");
    ASSERT_NE(admission, nullptr);
    EXPECT_EQ(admission->find("queue_limit")->text, "2");
    EXPECT_EQ(admission->find("shed")->text, "4"); // 6 burst - 2 queued

    const json_value* cache = doc.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->find("hits")->text, "1");
    EXPECT_EQ(cache->find("entries")->text, "1"); // x and y share one body
    EXPECT_EQ(cache->find("bytes")->text, std::to_string(service.metrics().cache_bytes));
    EXPECT_NE(cache->find("bytes")->text, "0");

    const json_value* fleet = doc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    const json_value* chip = fleet->find("chip");
    ASSERT_NE(chip, nullptr);
    EXPECT_EQ(chip->find("shed")->text, "4");
    EXPECT_EQ(chip->find("cache_hits")->text, "1");
}

TEST(Backpressure, UnknownDesignIdsLeaveNoPerDesignState)
{
    // Quotas off, then a tight quota: per-design buckets exist only for
    // registered designs, so no unknown id is ever rate limited either.
    for (const double quota_rps : {0.0, 1.0}) {
        SCOPED_TRACE(quota_rps > 0.0 ? "quota on" : "quota off");
        service_options options;
        options.workers = 1;
        options.design_quota_rps = quota_rps;
        analysis_service service(options);
        service.register_design("chip", c_oscillator_sg());
        ASSERT_TRUE(service.execute(make_request(request_kind::analyze, "known")).ok);

        constexpr int flood = 200;
        for (int i = 0; i < flood; ++i) {
            const analysis_response response = service.execute(make_request(
                request_kind::analyze, "u" + std::to_string(i), "bogus" + std::to_string(i)));
            ASSERT_FALSE(response.ok);
            EXPECT_EQ(response.error.code, "unknown_design") << response.error.message;
        }

        // The flood still counts globally...
        const service_metrics metrics = service.metrics();
        EXPECT_EQ(metrics.requests, static_cast<std::uint64_t>(flood + 1));
        EXPECT_EQ(metrics.failures, static_cast<std::uint64_t>(flood));
        EXPECT_EQ(metrics.rate_limited, 0u);
        // ...but only the registered design has a fleet row.
        ASSERT_EQ(metrics.fleet.size(), 1u);
        EXPECT_EQ(metrics.fleet[0].first, "chip");
        EXPECT_EQ(metrics.fleet[0].second.requests, 1u);

        const analysis_response stats =
            service.execute(make_request(request_kind::stats, "stats", ""));
        ASSERT_TRUE(stats.ok) << stats.error.message;
        const json_value doc = json_parse(stats.payload, "stats");
        const json_value* fleet = doc.find("fleet");
        ASSERT_NE(fleet, nullptr);
        ASSERT_EQ(fleet->members.size(), 1u);
        EXPECT_EQ(fleet->members[0].first, "chip");
    }
}

} // namespace
} // namespace tsg
