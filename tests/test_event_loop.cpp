// Fault-injection tests for the epoll serving transport
// (net/event_loop.h) through the scripted-client harness: every
// degradation path a faulty peer can trigger must resolve into the
// documented structured behaviour — never a crash, a hang, a leaked
// connection slot, or a reordered response.
//
//   * framing — requests reassemble identically under any chunking, and
//     a stream replay through the transport is payload-identical to the
//     in-process API;
//   * malformed bytes — one structured "bad_request" line, connection
//     lives and keeps serving;
//   * oversized payloads — one structured error line, then disconnect
//     (framing is unrecoverable), counted;
//   * oversized responses — a line the write buffer could never hold is
//     answered with one structured error instead, connection lives;
//   * ordering — pipelined responses leave in request order even when
//     the worker pool completes them out of order;
//   * backpressure — the per-connection in-flight cap pauses reading
//     instead of buffering without bound;
//   * disconnect/stall cleanup — mid-flight disconnects reclaim the
//     connection, late completions are dropped, silent and slow clients
//     are disconnected — all asserted via the transport counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/api.h"
#include "core/service.h"
#include "service_test_harness.h"
#include "util/json.h"

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

TEST(EventLoop, RoundTripMatchesInProcessPayload)
{
    service_options options = serve_harness::default_service_options();
    options.payload_cache = false; // compare real executions, not cache hits
    serve_harness harness(options);

    const analysis_request request = make_request(request_kind::sweep, "rt-1");
    const analysis_response direct = harness.service().submit(request).get();
    ASSERT_TRUE(direct.ok);

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_line(request_line(request)));
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());

    const json_value doc = response_doc(*line);
    EXPECT_TRUE(response_ok(doc));
    EXPECT_EQ(response_id(doc), "rt-1");
    const json_value* payload = doc.find("payload");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->write(), json_parse(direct.payload, "payload").write());
}

TEST(EventLoop, SplitFramesReassembleIdentically)
{
    serve_harness harness;
    const std::string wire = request_line(make_request(request_kind::sweep, "whole")) + "\n";

    script_client whole(harness.port());
    ASSERT_TRUE(whole.send_raw(wire));
    const auto whole_line = whole.read_line();
    ASSERT_TRUE(whole_line.has_value());

    // The same bytes under hostile chunkings, including one byte at a time
    // for the frame boundaries around the terminator.
    for (const std::size_t chunk : {1u, 3u, 7u, 64u}) {
        script_client split(harness.port());
        ASSERT_TRUE(split.connected());
        ASSERT_TRUE(split.send_chunked(wire, chunk, std::chrono::milliseconds(0)));
        const auto split_line = split.read_line();
        ASSERT_TRUE(split_line.has_value()) << "chunk size " << chunk;
        const json_value expect = response_doc(*whole_line);
        const json_value got = response_doc(*split_line);
        EXPECT_EQ(response_id(got), "whole");
        ASSERT_NE(got.find("payload"), nullptr) << "chunk size " << chunk;
        EXPECT_EQ(got.find("payload")->write(), expect.find("payload")->write())
            << "chunk size " << chunk;
    }
}

TEST(EventLoop, MidRequestStallCompletesOnceTheTailArrives)
{
    serve_harness harness;
    const std::string wire = request_line(make_request(request_kind::analyze, "stalled"));

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw(wire.substr(0, wire.size() / 2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(client.send_raw(wire.substr(wire.size() / 2) + "\n"));

    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(response_id(response_doc(*line)), "stalled");
}

TEST(EventLoop, MalformedLineAnswersStructuredErrorAndConnectionSurvives)
{
    serve_harness harness;
    script_client client(harness.port());
    ASSERT_TRUE(client.connected());

    ASSERT_TRUE(client.send_line("{\"api_version\": 1, this is not json"));
    const auto err_line = client.read_line();
    ASSERT_TRUE(err_line.has_value());
    const json_value err = response_doc(*err_line);
    EXPECT_FALSE(response_ok(err));
    EXPECT_EQ(response_error_code(err), "bad_request");

    // An unknown field is a parse error too — still structured, still alive.
    ASSERT_TRUE(client.send_line("{\"api_version\": 1, \"bogus\": true}"));
    const auto err2 = client.read_line();
    ASSERT_TRUE(err2.has_value());
    EXPECT_EQ(response_error_code(response_doc(*err2)), "bad_request");

    // The connection keeps serving real requests afterwards.
    ASSERT_TRUE(client.send_line(request_line(make_request(request_kind::analyze, "after"))));
    const auto ok_line = client.read_line();
    ASSERT_TRUE(ok_line.has_value());
    const json_value ok = response_doc(*ok_line);
    EXPECT_TRUE(response_ok(ok));
    EXPECT_EQ(response_id(ok), "after");

    EXPECT_EQ(harness.server().metrics().parse_errors, 2u);
}

TEST(EventLoop, OversizedLineGetsErrorThenDisconnect)
{
    net::event_loop_options loop_options;
    loop_options.limits.max_line_bytes = 256;
    serve_harness harness(serve_harness::default_service_options(), loop_options);

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_raw(std::string(1024, 'x'))); // no terminator needed

    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(response_error_code(response_doc(*line)), "bad_request");
    EXPECT_TRUE(client.wait_closed());

    const auto metrics = harness.server().metrics();
    EXPECT_EQ(metrics.disconnects_oversized, 1u);
    EXPECT_EQ(metrics.connections_active, 0u);
}

TEST(EventLoop, ResponseOverTheWriteCapAnswersStructuredErrorAndConnectionSurvives)
{
    net::event_loop_options loop_options;
    loop_options.limits.write_buffer_cap = 4096;
    serve_harness harness(serve_harness::default_service_options(), loop_options);

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    analysis_request big = make_request(request_kind::montecarlo, "big");
    big.options.samples = 64; // a ~10 KB response line
    ASSERT_TRUE(client.send_line(request_line(big)));

    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const json_value err = response_doc(*line);
    EXPECT_FALSE(response_ok(err));
    EXPECT_EQ(response_id(err), "big");
    ASSERT_EQ(response_error_code(err), "invalid_request");
    const std::string message = err.find("error")->find("message")->text;
    EXPECT_NE(message.find("write buffer cap of 4096 bytes"), std::string::npos) << message;
    EXPECT_NE(message.find("response of "), std::string::npos) << message;

    // The same connection keeps serving responses that fit.
    ASSERT_TRUE(client.send_line(request_line(make_request(request_kind::analyze, "small"))));
    const auto ok_line = client.read_line();
    ASSERT_TRUE(ok_line.has_value());
    EXPECT_TRUE(response_ok(response_doc(*ok_line)));
    EXPECT_EQ(response_id(response_doc(*ok_line)), "small");

    const auto metrics = harness.server().metrics();
    EXPECT_EQ(metrics.disconnects_slow, 0u);
    EXPECT_EQ(metrics.connections_active, 1u);
}

TEST(EventLoop, PipelinedResponsesKeepRequestOrder)
{
    // Two workers: the fast request completes while the plug is still
    // running, but its response must wait for the plug's slot.
    serve_harness harness;
    script_client client(harness.port());
    ASSERT_TRUE(client.connected());

    std::string wire = request_line(plug_request("slow")) + "\n";
    wire += request_line(make_request(request_kind::analyze, "fast")) + "\n";
    ASSERT_TRUE(client.send_raw(wire));

    const auto first = client.read_line(std::chrono::milliseconds(30000));
    const auto second = client.read_line(std::chrono::milliseconds(30000));
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(response_id(response_doc(*first)), "slow");
    EXPECT_EQ(response_id(response_doc(*second)), "fast");
}

TEST(EventLoop, InflightCapPausesReadingInsteadOfBuffering)
{
    net::event_loop_options loop_options;
    loop_options.limits.max_inflight = 1;
    serve_harness harness(serve_harness::default_service_options(), loop_options);

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    std::string wire;
    for (int i = 0; i < 4; ++i)
        wire += request_line(make_request(request_kind::analyze, "r" + std::to_string(i))) + "\n";
    ASSERT_TRUE(client.send_raw(wire));

    for (int i = 0; i < 4; ++i) {
        const auto line = client.read_line();
        ASSERT_TRUE(line.has_value()) << "response " << i;
        EXPECT_EQ(response_id(response_doc(*line)), "r" + std::to_string(i));
    }
    EXPECT_GE(harness.server().metrics().reads_paused, 1u);
}

TEST(EventLoop, DisconnectMidFlightReclaimsTheConnectionAndDropsTheResponse)
{
    serve_harness harness;
    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    // A few hundred ms of work: long enough that the reset below is
    // processed long before the worker completes.
    ASSERT_TRUE(client.send_line(request_line(plug_request("goner", 1 << 18))));

    // Give the loop a moment to hand the request to a worker, then reset
    // the connection while it is still computing (a FIN would keep the
    // connection half-open until the response flushed; an RST tears it
    // down immediately, so the late completion has nowhere to go).
    ASSERT_TRUE(wait_until([&] { return harness.server().metrics().lines_in >= 1; }));
    client.reset();

    ASSERT_TRUE(wait_until(
        [&] { return harness.server().metrics().connections_active == 0; },
        std::chrono::milliseconds(30000)));
    ASSERT_TRUE(wait_until(
        [&] { return harness.server().metrics().responses_dropped == 1; },
        std::chrono::milliseconds(30000)));
    EXPECT_EQ(harness.server().metrics().connections_closed, 1u);
}

TEST(EventLoop, SilentClientIsDisconnectedAfterIdleTimeout)
{
    net::event_loop_options loop_options;
    loop_options.idle_timeout = std::chrono::milliseconds(200);
    serve_harness harness(serve_harness::default_service_options(), loop_options);

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());

    // A served client that then goes silent...
    ASSERT_TRUE(client.send_line(request_line(make_request(request_kind::analyze, "one"))));
    ASSERT_TRUE(client.read_line().has_value());
    EXPECT_TRUE(client.wait_closed(std::chrono::milliseconds(5000)));

    // ...and a client that stalls mid-request both trip the sweep.
    script_client stalled(harness.port());
    ASSERT_TRUE(stalled.connected());
    ASSERT_TRUE(stalled.send_raw("{\"api_version\": 1")); // never finishes the line
    EXPECT_TRUE(stalled.wait_closed(std::chrono::milliseconds(5000)));

    EXPECT_GE(harness.server().metrics().disconnects_idle, 2u);
}

TEST(EventLoop, SlowReaderHittingTheWriteCapIsDisconnected)
{
    net::event_loop_options loop_options;
    loop_options.so_sndbuf = 2048;              // tiny kernel buffer
    loop_options.limits.write_buffer_cap = 8192; // tiny server-side bound
    serve_harness harness(serve_harness::default_service_options(), loop_options);

    // A tiny client receive window too, or loopback would absorb every
    // response without the client ever reading.
    script_client client(harness.port(), 2048);
    ASSERT_TRUE(client.connected());
    // Plenty of responses, and the client never reads one.
    std::string wire;
    for (int i = 0; i < 48; ++i)
        wire += request_line(make_request(request_kind::sweep, "s" + std::to_string(i))) + "\n";
    ASSERT_TRUE(client.send_raw(wire));

    ASSERT_TRUE(wait_until(
        [&] { return harness.server().metrics().disconnects_slow == 1; },
        std::chrono::milliseconds(30000)));
    EXPECT_TRUE(client.wait_closed());
    EXPECT_EQ(harness.server().metrics().connections_active, 0u);
}

TEST(EventLoop, ConnectionLimitRejectsWithStructuredOverloaded)
{
    net::event_loop_options loop_options;
    loop_options.max_connections = 2;
    serve_harness harness(serve_harness::default_service_options(), loop_options);

    script_client first(harness.port());
    script_client second(harness.port());
    ASSERT_TRUE(first.connected());
    ASSERT_TRUE(second.connected());
    // Make sure both are accepted before the third connects.
    ASSERT_TRUE(first.send_line(request_line(make_request(request_kind::analyze, "a"))));
    ASSERT_TRUE(first.read_line().has_value());
    ASSERT_TRUE(second.send_line(request_line(make_request(request_kind::analyze, "b"))));
    ASSERT_TRUE(second.read_line().has_value());

    script_client third(harness.port());
    ASSERT_TRUE(third.connected()); // TCP accepts; the loop rejects
    const auto line = third.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(response_error_code(response_doc(*line)), "overloaded");
    EXPECT_TRUE(third.wait_closed());
    EXPECT_EQ(harness.server().metrics().connections_rejected, 1u);
}

TEST(EventLoop, HalfCloseDrainsPipelinedResponsesThenCloses)
{
    serve_harness harness;
    script_client client(harness.port());
    ASSERT_TRUE(client.connected());

    std::string wire;
    for (int i = 0; i < 3; ++i)
        wire += request_line(make_request(request_kind::analyze, "h" + std::to_string(i))) + "\n";
    ASSERT_TRUE(client.send_raw(wire));
    client.shutdown_write();

    for (int i = 0; i < 3; ++i) {
        const auto line = client.read_line();
        ASSERT_TRUE(line.has_value()) << "response " << i;
        EXPECT_EQ(response_id(response_doc(*line)), "h" + std::to_string(i));
    }
    EXPECT_TRUE(client.wait_closed());
    EXPECT_TRUE(wait_until(
        [&] { return harness.server().metrics().connections_active == 0; }));
}

TEST(EventLoop, BatchedSendsShipMultipleResponseLinesTogether)
{
    // A plug parks one of two workers while three fast requests run on
    // the other: their responses complete while the plug's slot still
    // blocks the head of the FIFO, so once the plug finishes all four
    // lines flush as one batch.  Structural, not timing-based — the
    // sanitizer jobs run this too.
    service_options options = serve_harness::default_service_options();
    options.workers = 2;
    serve_harness harness(options);

    script_client client(harness.port());
    ASSERT_TRUE(client.connected());
    std::string wire = request_line(plug_request("plug", 30000)) + "\n";
    for (int i = 0; i < 3; ++i)
        wire += request_line(make_request(request_kind::analyze, "q" + std::to_string(i))) + "\n";
    ASSERT_TRUE(client.send_raw(wire));

    std::vector<std::string> ids;
    for (int i = 0; i < 4; ++i) {
        const auto line = client.read_line(std::chrono::milliseconds(30000));
        ASSERT_TRUE(line.has_value());
        ids.push_back(response_id(response_doc(*line)));
    }
    EXPECT_EQ(ids, (std::vector<std::string>{"plug", "q0", "q1", "q2"}));
    EXPECT_GE(harness.server().metrics().batched_lines, 2u);
}

} // namespace
} // namespace tsg
