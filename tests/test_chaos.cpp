// Chaos drills for the fleet-resilience layer: the serving stack under
// the failures a real fleet produces on purpose (rolling restarts,
// drains) and by accident (bursts past quota, deadline storms).
//
// The invariant every drill enforces is the drain/shed contract from
// core/service.h and net/event_loop.h:
//
//   * every request the daemon ACCEPTS is answered — with its real
//     payload, byte-identical to a solo run (modulo the documented
//     engine-accounting block for coalesced responses);
//   * every request the daemon REFUSES is answered too — with a
//     structured, classified error (draining / overloaded /
//     rate_limited / deadline_exceeded), never a silent drop or RST;
//   * a retrying client (net/client.h) therefore converges to 100%
//     completion across restarts and quota exhaustion.
//
// All servers run on ephemeral loopback ports via serve_harness; all
// waits are bounded, so a broken invariant fails fast instead of
// hanging CI.  The ThreadSanitizer CI job runs this whole suite — the
// drain path crosses the signal/loop/worker boundary, exactly where a
// data race would live.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/service.h"
#include "gen/oscillator.h"
#include "net/client.h"
#include "service_test_harness.h"
#include "util/json.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace tsg {
namespace {

using testing::make_request;
using testing::plug_request;
using testing::request_line;
using testing::response_doc;
using testing::response_error_code;
using testing::response_id;
using testing::response_ok;
using testing::script_client;
using testing::serve_harness;
using testing::wait_until;

/// Removes every "engine" member (any depth) — the one payload block a
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

std::uint64_t response_retry_after_ms(const json_value& doc)
{
    const json_value* err = doc.find("error");
    const json_value* hint = err ? err->find("retry_after_ms") : nullptr;
    return hint ? std::stoull(hint->text) : 0;
}

/// Small engine-compatible batch requests — the coalescer merges them.
std::vector<analysis_request> small_mix(std::size_t count)
{
    std::vector<analysis_request> requests;
    for (std::size_t i = 0; i < count; ++i) {
        analysis_request r =
            make_request(request_kind::montecarlo, "mix-" + std::to_string(i));
        r.options.samples = 4 + i % 5;
        r.options.seed = 100 + i;
        r.options.solver = cycle_time_solver::border_sweep;
        r.options.max_threads = 1;
        requests.push_back(r);
    }
    return requests;
}

TEST(Chaos, HealthProbeReportsReadyThenDraining)
{
    service_options sopts = serve_harness::default_service_options();
    sopts.workers = 1;
    serve_harness harness(sopts);
    script_client c(harness.port());
    ASSERT_TRUE(c.connected());

    ASSERT_TRUE(c.send_line(request_line(make_request(request_kind::health, "h1"))));
    auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    json_value doc = response_doc(*line);
    ASSERT_TRUE(response_ok(doc)) << *line;
    const json_value* payload = doc.find("payload");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->find("status")->text, "ok");
    EXPECT_FALSE(payload->find("draining")->boolean);

    // Park the single worker so the drain stays observably in progress,
    // then probe again: health is answerable while draining — that is
    // how a balancer sees the drain it must route around.
    ASSERT_TRUE(c.send_line(request_line(plug_request("plug", 30000))));
    ASSERT_TRUE(wait_until([&] { return harness.service().metrics().requests >= 2; }));
    harness.server().begin_drain();
    ASSERT_TRUE(wait_until([&] { return harness.service().draining(); }));
    ASSERT_TRUE(c.send_line(request_line(make_request(request_kind::health, "h2"))));

    auto plug_line = c.read_line(std::chrono::milliseconds(20000));
    ASSERT_TRUE(plug_line.has_value());
    EXPECT_TRUE(response_ok(response_doc(*plug_line))) << *plug_line;

    auto h2 = c.read_line();
    ASSERT_TRUE(h2.has_value());
    doc = response_doc(*h2);
    ASSERT_TRUE(response_ok(doc)) << *h2;
    payload = doc.find("payload");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->find("status")->text, "draining");
    EXPECT_TRUE(payload->find("draining")->boolean);

    // Everything answered and flushed: the drain completes on its own.
    EXPECT_TRUE(c.wait_closed());
    EXPECT_TRUE(wait_until([&] { return harness.server().finished(); }));
}

TEST(Chaos, DrainDuringBurstAnswersEveryAcceptedRequestByteForByte)
{
    const signal_graph sg = c_oscillator_sg();
    service_options sopts = serve_harness::default_service_options();
    sopts.workers = 1; // queued work piles up behind the plug and coalesces
    serve_harness harness(sopts);

    const std::vector<analysis_request> burst = small_mix(6);
    std::vector<std::string> expected;
    for (const analysis_request& request : burst) {
        const analysis_response solo = execute_request(request, sg);
        ASSERT_TRUE(solo.ok) << solo.error.message;
        expected.push_back(without_engine_block(solo.payload));
    }

    script_client c(harness.port());
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.send_line(request_line(plug_request("plug", 30000))));
    ASSERT_TRUE(wait_until([&] { return harness.service().metrics().requests >= 1; }));
    for (const analysis_request& request : burst)
        ASSERT_TRUE(c.send_line(request_line(request)));
    ASSERT_TRUE(wait_until(
        [&] { return harness.service().metrics().requests >= 1 + burst.size(); }));

    // Everything above is ACCEPTED before the drain starts; the contract
    // says all of it completes with its real bytes.
    harness.server().begin_drain();
    ASSERT_TRUE(wait_until([&] { return harness.service().draining(); }));

    // A latecomer gets a structured refusal at the door, not a reset.
    script_client late(harness.port());
    ASSERT_TRUE(late.connected());
    auto refusal = late.read_line();
    ASSERT_TRUE(refusal.has_value());
    EXPECT_EQ(response_error_code(response_doc(*refusal)), "draining");
    EXPECT_TRUE(late.wait_closed());

    auto plug_line = c.read_line(std::chrono::milliseconds(20000));
    ASSERT_TRUE(plug_line.has_value());
    EXPECT_TRUE(response_ok(response_doc(*plug_line))) << *plug_line;
    for (std::size_t i = 0; i < burst.size(); ++i) {
        auto line = c.read_line(std::chrono::milliseconds(20000));
        ASSERT_TRUE(line.has_value()) << burst[i].id;
        const json_value doc = response_doc(*line);
        ASSERT_TRUE(response_ok(doc)) << burst[i].id << ": " << *line;
        EXPECT_EQ(response_id(doc), burst[i].id);
        EXPECT_EQ(without_engine_block(doc.find("payload")->write()), expected[i])
            << burst[i].id;
    }

    // In-flight work flushed: the loop exits well inside its budget.
    EXPECT_TRUE(c.wait_closed(std::chrono::milliseconds(10000)));
    EXPECT_TRUE(wait_until([&] { return harness.server().finished(); },
                           std::chrono::milliseconds(10000)));
    EXPECT_GE(harness.server().metrics().connections_drain_rejected, 1u);
    EXPECT_TRUE(harness.service().metrics().draining);
}

TEST(Chaos, RollingRestartUnder64ClientLoadConverges)
{
    const signal_graph sg = c_oscillator_sg();
    serve_harness harness;
    const analysis_request probe = make_request(request_kind::analyze, "probe");
    const analysis_response solo = execute_request(probe, sg);
    ASSERT_TRUE(solo.ok);
    // The client surfaces payloads re-serialized from the wire document,
    // so the comparison is in canonical (re-written) form.
    const std::string expected = json_parse(solo.payload, "solo payload").write();

    constexpr std::size_t clients = 64;
    constexpr std::size_t per_client = 4;
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> mismatches{0};
    std::atomic<std::uint64_t> sheds{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::size_t> warmed{0};
    std::atomic<bool> released{false};

    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
        threads.emplace_back([&, i] {
            net::client_options copts;
            copts.port = harness.port();
            copts.max_attempts = 40;
            copts.backoff_cap = std::chrono::milliseconds(50);
            copts.dial_timeout = std::chrono::milliseconds(3000);
            copts.jitter_seed = 9000 + i;
            net::client cl(copts);
            for (std::size_t r = 0; r < per_client; ++r) {
                analysis_request request = probe;
                request.id = "c" + std::to_string(i) + "-" + std::to_string(r);
                const net::call_outcome outcome = cl.call(request);
                if (!outcome.response.ok)
                    ++failures;
                else if (outcome.response.payload != expected)
                    ++mismatches;
                if (r == 0) {
                    // Connected and served once: hold the rest of the run
                    // until the first restart's drain has begun.
                    ++warmed;
                    while (!released.load())
                        std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
            }
            sheds += cl.metrics().sheds_seen;
            reconnects += cl.metrics().reconnects;
        });
    }

    // Two rolling-restart steps while the fleet of clients hammers away:
    // graceful drain, instance replaced on the same port.  The first one
    // starts only once every client is connected with requests left to
    // send, and the clients resume as the drain begins: each one's next
    // call meets either the draining instance (a structured shed) or its
    // closed connection (a reconnect), however fast the server answers.
    const bool fleet_connected = wait_until([&] { return warmed.load() == clients; },
                                            std::chrono::milliseconds(30000));
    harness.server().begin_drain();
    released = true;
    harness.restart();
    // The second step lands once the replacement is taking requests.
    (void)wait_until([&] { return harness.service().metrics().requests > 0; });
    harness.restart();

    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(fleet_connected);

    // Zero accepted requests lost, zero unexplained failures: the
    // retrying client converges to 100% across both restarts.
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    // The drills actually disturbed the fleet (clients reconnected or
    // absorbed structured sheds) — otherwise the test proved nothing.
    EXPECT_GT(sheds.load() + reconnects.load(), 0u);
}

TEST(Chaos, QuotaExhaustionShedsWithRetryHintsAndClientConverges)
{
    service_options sopts = serve_harness::default_service_options();
    sopts.design_quota_rps = 50.0;
    sopts.design_quota_burst = 4.0;
    serve_harness harness(sopts);

    script_client c(harness.port());
    ASSERT_TRUE(c.connected());
    constexpr std::size_t burst = 12;
    for (std::size_t i = 0; i < burst; ++i)
        ASSERT_TRUE(c.send_line(
            request_line(make_request(request_kind::analyze, "q" + std::to_string(i)))));

    std::size_t served = 0;
    std::size_t limited = 0;
    for (std::size_t i = 0; i < burst; ++i) {
        auto line = c.read_line();
        ASSERT_TRUE(line.has_value());
        const json_value doc = response_doc(*line);
        if (response_ok(doc)) {
            ++served;
            continue;
        }
        ASSERT_EQ(response_error_code(doc), "rate_limited") << *line;
        EXPECT_GE(response_retry_after_ms(doc), 1u) << *line;
        ++limited;
    }
    EXPECT_GE(served, 4u);  // the burst capacity was honoured
    EXPECT_GE(limited, 1u); // and the excess was shed, not served late

    // The sheds are visible in the fleet ledger.
    EXPECT_EQ(harness.service().metrics().rate_limited, limited);
    ASSERT_TRUE(c.send_line(request_line(make_request(request_kind::stats, "st"))));
    auto stats_line = c.read_line();
    ASSERT_TRUE(stats_line.has_value());
    const json_value stats = response_doc(*stats_line);
    ASSERT_TRUE(response_ok(stats)) << *stats_line; // probes bypass the quota
    const json_value* fleet = stats.find("payload")->find("fleet");
    ASSERT_NE(fleet, nullptr);
    const json_value* chip = fleet->find("chip");
    ASSERT_NE(chip, nullptr);
    EXPECT_EQ(std::stoull(chip->find("rate_limited")->text), limited);

    // A retrying client pointed at the same exhausted quota converges by
    // honouring the retry_after_ms hints.
    net::client_options copts;
    copts.port = harness.port();
    copts.max_attempts = 30;
    net::client cl(copts);
    std::vector<analysis_request> work;
    for (std::size_t i = 0; i < 8; ++i)
        work.push_back(make_request(request_kind::analyze, "w" + std::to_string(i)));
    const std::vector<net::call_outcome> outcomes = cl.call_many(work);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].response.ok)
            << work[i].id << ": " << outcomes[i].response.error.code;
    EXPECT_EQ(cl.metrics().gave_up, 0u);
}

TEST(Chaos, ClientGivingUpOnADeadPortAnswersWithTheRequestId)
{
    // A loopback socket bound but never listening: every dial is refused,
    // and no other process can take the port while the test holds it.
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

    net::client_options copts;
    copts.port = ntohs(addr.sin_port);
    copts.max_attempts = 2;
    copts.dial_timeout = std::chrono::milliseconds(5);
    net::client cl(copts);
    const auto expect_given_up = [](const net::call_outcome& outcome, const std::string& id) {
        EXPECT_FALSE(outcome.response.ok) << id;
        EXPECT_EQ(outcome.response.error.code, "internal") << id;
        EXPECT_EQ(outcome.response.id, id);
        EXPECT_EQ(outcome.attempts, 2u) << id;
        EXPECT_EQ(outcome.reconnects, 2u) << id;
    };
    expect_given_up(cl.call(make_request(request_kind::analyze, "solo")), "solo");
    const std::vector<net::call_outcome> many = cl.call_many(
        {make_request(request_kind::analyze, "m0"), make_request(request_kind::analyze, "m1")});
    ASSERT_EQ(many.size(), 2u);
    expect_given_up(many[0], "m0");
    expect_given_up(many[1], "m1");
    EXPECT_EQ(cl.metrics().requests, 3u);
    EXPECT_EQ(cl.metrics().gave_up, 3u);
    EXPECT_EQ(cl.metrics().responses, 0u);
    ::close(fd);
}

TEST(Chaos, PerConnectionRateLimitShedsWithHintsAndSparesProbes)
{
    net::event_loop_options lopts;
    lopts.limits.max_requests_per_second = 20.0;
    lopts.limits.rate_burst = 2.0;
    serve_harness harness(serve_harness::default_service_options(), lopts);

    script_client c(harness.port());
    ASSERT_TRUE(c.connected());
    constexpr std::size_t burst = 8;
    for (std::size_t i = 0; i < burst; ++i)
        ASSERT_TRUE(c.send_line(
            request_line(make_request(request_kind::analyze, "r" + std::to_string(i)))));
    // Probes ride above the connection's rate limit.
    ASSERT_TRUE(c.send_line(request_line(make_request(request_kind::health, "h"))));
    ASSERT_TRUE(c.send_line(request_line(make_request(request_kind::stats, "s"))));

    std::size_t served = 0;
    std::size_t limited = 0;
    for (std::size_t i = 0; i < burst; ++i) {
        auto line = c.read_line();
        ASSERT_TRUE(line.has_value());
        const json_value doc = response_doc(*line);
        if (response_ok(doc)) {
            ++served;
            continue;
        }
        ASSERT_EQ(response_error_code(doc), "rate_limited") << *line;
        EXPECT_GE(response_retry_after_ms(doc), 1u) << *line;
        ++limited;
    }
    EXPECT_GE(served, 2u);
    EXPECT_GE(limited, 1u);
    for (const char* id : {"h", "s"}) {
        auto line = c.read_line();
        ASSERT_TRUE(line.has_value());
        const json_value doc = response_doc(*line);
        EXPECT_TRUE(response_ok(doc)) << id << ": " << *line;
        EXPECT_EQ(response_id(doc), id);
    }

    // The connection survives its sheds: once the bucket refills, the
    // same socket serves again.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ASSERT_TRUE(c.send_line(request_line(make_request(request_kind::analyze, "after"))));
    auto line = c.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_TRUE(response_ok(response_doc(*line))) << *line;
}

TEST(Chaos, DeadlineStormShedsQueuedWorkAndCheckpointsAdaptiveRuns)
{
    service_options sopts = serve_harness::default_service_options();
    sopts.workers = 1;
    serve_harness harness(sopts);

    script_client c(harness.port());
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.send_line(request_line(plug_request("plug", 30000))));
    ASSERT_TRUE(wait_until([&] { return harness.service().metrics().requests >= 1; }));

    // The storm: short-deadline requests queue behind the plug and age
    // out before any worker reaches them.
    constexpr std::size_t storm = 4;
    for (std::size_t i = 0; i < storm; ++i) {
        analysis_request r = make_request(request_kind::analyze, "d" + std::to_string(i));
        r.options.deadline_ms = 5;
        ASSERT_TRUE(c.send_line(request_line(r)));
    }

    auto plug_line = c.read_line(std::chrono::milliseconds(20000));
    ASSERT_TRUE(plug_line.has_value());
    EXPECT_TRUE(response_ok(response_doc(*plug_line))) << *plug_line;
    for (std::size_t i = 0; i < storm; ++i) {
        auto line = c.read_line();
        ASSERT_TRUE(line.has_value());
        const json_value doc = response_doc(*line);
        ASSERT_FALSE(response_ok(doc)) << *line;
        EXPECT_EQ(response_error_code(doc), "deadline_exceeded") << *line;
        EXPECT_NE(doc.find("error")->find("message")->text.find("while queued"),
                  std::string::npos)
            << *line;
    }
    EXPECT_GE(harness.service().metrics().deadline_expired, storm);

    // The adaptive Monte Carlo checkpoint: a run that starts in time but
    // cannot finish is cut between rounds, never inside one.
    analysis_request mc = make_request(request_kind::montecarlo, "mc-deadline");
    mc.options.adaptive = true;
    mc.options.epsilon = 1e-9; // never converges: runs toward the cap
    mc.options.samples = 1000000;
    mc.options.round_samples = 4096;
    mc.options.deadline_ms = 25;
    ASSERT_TRUE(c.send_line(request_line(mc)));
    auto line = c.read_line(std::chrono::milliseconds(20000));
    ASSERT_TRUE(line.has_value());
    const json_value doc = response_doc(*line);
    ASSERT_FALSE(response_ok(doc)) << *line;
    EXPECT_EQ(response_error_code(doc), "deadline_exceeded") << *line;
    EXPECT_NE(doc.find("error")->find("message")->text.find("samples"),
              std::string::npos)
        << *line;
}

} // namespace
} // namespace tsg
