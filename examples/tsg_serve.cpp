// The analysis daemon: a persistent process serving the unified request
// API (core/api.h) from a shared design registry (core/service.h).
//
// Clients speak newline-delimited JSON — one analysis_request document
// per line, one analysis_response line back, in order per connection.
// All connections share one analysis_service, so every client analyzes
// the same compiled snapshots and small batch requests from different
// clients coalesce into full lane-group engine batches.
//
// The TCP transport is the single-threaded epoll event loop
// (net/event_loop.h): non-blocking sockets, batched sends, bounded
// per-connection buffers, admission control and slow-client/idle
// disconnects.  Pipe mode serves stdin/stdout sequentially through
// analysis_service::serve_stream.
//
// Usage:
//   tsg_serve --pipe [options]            serve stdin/stdout (one client;
//                                         the mode tests and scripts use)
//   tsg_serve --port N [options]          listen on 127.0.0.1:N on the
//                                         event loop (0 = ephemeral)
// Options:
//   --design name=path      register a .tsg model (repeatable)
//   --demo name             register the built-in demo oscillator
//   --workers N             dispatch threads (default 2)
//   --no-coalesce           strict one-request-per-batch execution (by
//                           default a worker merges the compatible batch
//                           requests already queued, up to 256 scenarios)
//   --max-versions N        versions kept per design chain (default 4)
//   --queue-depth N         admission bound; 0 disables shedding
//                           (default 1024)
//   --max-conn N            concurrent connections (default 256)
//   --max-inflight N        unanswered requests per connection (default 64)
//   --max-line BYTES        request line bound (default 1 MiB)
//   --write-cap BYTES       pending response bytes per connection
//                           (default 8 MiB)
//   --idle-timeout-ms N     disconnect silent clients; 0 disables
//                           (default 30000)
//   --drain-timeout-ms N    graceful-drain budget after SIGTERM/SIGINT
//                           (default 5000)
//   --quota-rps X           per-design admission quota in requests/s;
//                           0 disables (default)
//   --quota-burst X         per-design quota bucket capacity
//                           (default: max(1, ceil(rps)))
//   --conn-rps X            per-connection request-rate limit in
//                           requests/s; 0 disables (default)
//   --conn-burst X          per-connection rate bucket capacity
//                           (default: max(1, ceil(rps)))
//
// Both rate limits are the same token bucket (util/token_bucket.h): it
// starts full, and a refusal hints retry_after_ms = ceil(ms until the
// next token).  Count flags (--port, --workers, --queue-depth, ...) take
// plain decimal digits: a sign, trailing characters or a port above 65535
// is an error naming the flag.  Rate flags (--quota-rps, --quota-burst,
// --conn-rps, --conn-burst) take a plain non-negative decimal such as 20
// or 2.5: a sign, an exponent, inf, nan or trailing characters is an
// error naming the flag.
//
// Lifecycle: SIGTERM or SIGINT triggers a bounded graceful drain on the
// event-loop transport — the daemon stops taking new work (structured
// "draining" errors), finishes and flushes everything in flight, prints
// a final stats snapshot to stderr and exits 0 before the drain budget.
//
// Example session (pipe mode):
//   $ tsg_serve --pipe --demo osc
//   {"api_version": 1, "kind": "sweep", "design": {"id": "osc"}}
//   {"id": "", "ok": true, ...}
#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/service.h"
#include "gen/oscillator.h"
#include "net/event_loop.h"
#include "sg/sg_io.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

using namespace tsg;

/// The drain hook: signal handlers may only touch async-signal-safe
/// state, and event_loop_server::begin_drain() is exactly that (an atomic
/// store plus an eventfd write) — the loop thread does the actual work.
std::atomic<net::event_loop_server*> g_server{nullptr};

extern "C" void drain_signal_handler(int)
{
    net::event_loop_server* server = g_server.load(std::memory_order_acquire);
    if (server != nullptr) server->begin_drain();
}

void install_drain_handlers()
{
    struct sigaction sa{};
    sa.sa_handler = drain_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: epoll_wait returning EINTR is handled
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

} // namespace

int main(int argc, char** argv)
{
    try {
        // Pipe mode writes std::cout: a reader that closes the pipe must
        // fail the stream (serve_stream then stops), not kill the process.
        std::signal(SIGPIPE, SIG_IGN);

        std::vector<std::string> args(argv + 1, argv + argc);

        service_options options;
        net::event_loop_options loop_options;
        bool pipe = false;
        int port = -1;
        std::vector<std::pair<std::string, std::string>> designs; // name -> path
        std::vector<std::string> demos;

        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& arg = args[i];
            const auto value = [&]() -> std::string {
                require(i + 1 < args.size(), arg + " needs a value");
                return args[++i];
            };
            const auto count = [&](std::uint64_t max =
                                       std::numeric_limits<std::uint64_t>::max()) {
                return parse_count(arg, value(), max);
            };
            const auto rate = [&] { return parse_rate(arg, value()); };
            constexpr std::uint64_t int64_max = std::numeric_limits<std::int64_t>::max();
            if (arg == "--pipe") {
                pipe = true;
            } else if (arg == "--port") {
                port = static_cast<int>(count(65535));
            } else if (arg == "--design") {
                const std::string spec = value();
                const std::size_t eq = spec.find('=');
                require(eq != std::string::npos && eq > 0,
                        "--design needs name=path, got '" + spec + "'");
                designs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
            } else if (arg == "--demo") {
                demos.push_back(value());
            } else if (arg == "--workers") {
                options.workers =
                    static_cast<unsigned>(count(std::numeric_limits<unsigned>::max()));
            } else if (arg == "--no-coalesce") {
                options.coalesce = false;
            } else if (arg == "--max-versions") {
                options.max_versions_per_design = count();
            } else if (arg == "--queue-depth") {
                options.max_queue_depth = count();
            } else if (arg == "--max-conn") {
                loop_options.max_connections = count();
            } else if (arg == "--max-inflight") {
                loop_options.limits.max_inflight = count();
            } else if (arg == "--max-line") {
                loop_options.limits.max_line_bytes = count();
            } else if (arg == "--write-cap") {
                loop_options.limits.write_buffer_cap = count();
            } else if (arg == "--idle-timeout-ms") {
                loop_options.idle_timeout = std::chrono::milliseconds(count(int64_max));
            } else if (arg == "--drain-timeout-ms") {
                loop_options.drain_timeout = std::chrono::milliseconds(count(int64_max));
            } else if (arg == "--quota-rps") {
                options.design_quota_rps = rate();
            } else if (arg == "--quota-burst") {
                options.design_quota_burst = rate();
            } else if (arg == "--conn-rps") {
                loop_options.limits.max_requests_per_second = rate();
            } else if (arg == "--conn-burst") {
                loop_options.limits.rate_burst = rate();
            } else {
                std::cerr << "error: unrecognized argument '" << arg << "'\n";
                return 1;
            }
        }
        if (pipe == (port >= 0)) {
            std::cerr << "error: pick exactly one of --pipe or --port N\n";
            return 1;
        }
        if (designs.empty() && demos.empty()) {
            std::cerr << "error: register at least one design (--design name=path "
                         "or --demo name)\n";
            return 1;
        }

        analysis_service service(options);
        for (const auto& [name, path] : designs) service.register_design(name, load_sg(path));
        for (const std::string& name : demos) service.register_design(name, c_oscillator_sg());

        if (pipe) {
            service.serve_stream(std::cin, std::cout);
            return 0;
        }
        loop_options.port = static_cast<std::uint16_t>(port);
        net::event_loop_server server(service, loop_options);
        g_server.store(&server, std::memory_order_release);
        install_drain_handlers();
        std::cerr << "tsg_serve: listening on 127.0.0.1:" << server.port()
                  << " (event loop)\n";
        server.run();
        g_server.store(nullptr, std::memory_order_release);
        if (server.draining()) {
            // The drain's final act: one stats snapshot so the fleet's
            // log collector sees what this instance served before exit.
            std::cerr << "tsg_serve: drained, final stats:\n" << service.stats_json() << '\n';
        }
        return 0;
    } catch (const tsg::error& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
