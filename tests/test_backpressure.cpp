// Admission control, load shedding and coalescing (core/service.h), plus
// the shed path through the epoll transport:
//
//   * a burst far beyond the queue bound gets exactly queue-depth
//     requests accepted; the overflow is shed with the structured
//     "overloaded" shape, and shed futures are ready the moment submit()
//     returns — shedding never waits on the worker pool;
//   * requests coalesced while the service is saturated demultiplex to
//     the byte-identical solo payloads (engine-accounting block aside,
//     the documented exception);
//   * the stats payload exposes the admission and per-design fleet
//     blocks (and a `cache` block whose hits stay 0: a repeated body is
//     recomputed), and requests naming unknown design ids leave no
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
    analysis_service solo(solo_opts);
    solo.register_design("chip", c_oscillator_sg());

    // Saturated service: everything below queues behind the plug and is
    // merged into one engine batch when the worker frees up.
    service_options options;
    options.workers = 1;
    options.coalesce = true;
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

TEST(Backpressure, StatsPayloadReportsAdmissionCacheAndFleet)
{
    service_options options;
    options.workers = 1;
    options.coalesce = false;
    options.max_queue_depth = 2;
    analysis_service service(options);
    service.register_design("chip", c_oscillator_sg());

    // A repeated body is recomputed byte for byte; then a couple of shed
    // requests.
    analysis_request request = make_request(request_kind::sweep, "x");
    const analysis_response first = service.submit(request).get();
    ASSERT_TRUE(first.ok);
    request.id = "y";
    const analysis_response again = service.submit(request).get();
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.payload, first.payload);
    EXPECT_EQ(service.metrics().batch_requests, 2u);
    EXPECT_EQ(service.metrics().engine_batches, 2u);

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

    // Nothing is cached: the block keeps only hits, always 0, because
    // perfbench/run.py still reads it.
    const json_value* cache = doc.find("cache");
    ASSERT_NE(cache, nullptr);
    ASSERT_EQ(cache->members.size(), 1u);
    EXPECT_EQ(cache->members[0].first, "hits");
    EXPECT_EQ(cache->members[0].second.text, "0");

    const json_value* fleet = doc.find("fleet");
    ASSERT_NE(fleet, nullptr);
    const json_value* chip = fleet->find("chip");
    ASSERT_NE(chip, nullptr);
    EXPECT_EQ(chip->find("shed")->text, "4");
    EXPECT_EQ(chip->find("requests")->text, "9"); // x, y, the plug and 6 burst
    std::vector<std::string> keys;
    for (const auto& [key, value] : chip->members) keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{"requests", "failed", "shed", "rate_limited",
                                              "deadline_expired", "scenarios"}));
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
