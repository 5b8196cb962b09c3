// The serving transport: a single-threaded epoll event loop feeding the
// analysis service's worker pool.
//
// PR 7's daemon spent one blocking thread per connection; this loop
// serves every connection from one thread with non-blocking sockets, so
// connection count stops being a thread count and the worker pool stays
// the only place analysis work runs — execution is unchanged and
// bit-identical, only the transport moved:
//
//   read  -> incremental NDJSON framing (net/connection.h) -> parse ->
//   analysis_service::submit_async() -> worker completes -> completion
//   bus (eventfd) wakes the loop -> ordered response slot -> batched
//   send()
//
// Degradation paths are all structured, bounded and counted — the
// contract the fault-injection tests pin:
//
//   * malformed line        -> one "bad_request" response, connection lives;
//   * oversized line        -> one error response, connection closed
//                              (framing is unrecoverable past the bound);
//   * service queue full    -> "overloaded" response straight from the
//                              loop (admission control's shed path, no
//                              thread handoff);
//   * per-connection in-flight cap -> reading pauses (EPOLLIN off) until
//                              responses drain: TCP backpressure reaches
//                              the client instead of buffering its burst;
//   * slow reader           -> write buffer hits its cap -> disconnect;
//   * response line over the write-buffer cap -> one "invalid_request"
//                              line naming both sizes, connection lives
//                              (a response that fails to encode answers
//                              "internal" the same way);
//   * idle / stalled client -> timeout disconnect;
//   * disconnect mid-flight -> late completions are dropped by id, the
//                              connection slot is reclaimed immediately.
//
// Responses leave in request order per connection (a worker-pool race
// never reorders a pipelined client's replies), and every wakeup ships
// all ready lines in as few send() calls as the socket accepts.
#ifndef TSG_NET_EVENT_LOOP_H
#define TSG_NET_EVENT_LOOP_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>

#include "net/connection.h"

namespace tsg {
class analysis_service;
}

namespace tsg::net {

struct event_loop_options {
    /// 127.0.0.1 listening port; 0 binds an ephemeral port (port()
    /// reports the bound one — the test harness's mode).
    std::uint16_t port = 0;

    /// Accepted connections beyond this are answered with one
    /// "overloaded" error line and closed immediately.
    std::size_t max_connections = 256;

    /// Per-connection bounds (line size, write buffer, in-flight cap).
    connection_limits limits;

    /// When nonzero, each accepted socket's kernel send buffer is shrunk
    /// to this many bytes (SO_SNDBUF) — the fault-injection tests use it
    /// to exercise the write-buffer cap without megabytes of traffic.
    int so_sndbuf = 0;

    /// A connection is dropped when it neither sends nor accepts bytes
    /// for this long while nothing is owed to it (or while it refuses to
    /// read what it is owed).  0 disables the sweep.
    std::chrono::milliseconds idle_timeout{30000};

    /// Graceful-drain budget: after begin_drain() the loop keeps serving
    /// until every connection's in-flight work has flushed, but no longer
    /// than this before it exits anyway.
    std::chrono::milliseconds drain_timeout{5000};
};

/// One consistent snapshot of the transport counters.
struct event_loop_metrics {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_rejected = 0; ///< over max_connections
    std::uint64_t connections_drain_rejected = 0; ///< refused while draining
    std::uint64_t connections_closed = 0;
    std::size_t connections_active = 0;

    std::uint64_t disconnects_idle = 0;
    std::uint64_t disconnects_slow = 0;      ///< write-buffer cap exceeded
    std::uint64_t disconnects_oversized = 0; ///< request line over the bound

    std::uint64_t lines_in = 0;      ///< complete request lines framed
    std::uint64_t parse_errors = 0;  ///< lines answered with a codec error
    std::uint64_t responses_out = 0; ///< response lines written
    std::uint64_t responses_dropped = 0; ///< completed after their connection died
    std::uint64_t reads_paused = 0;  ///< in-flight cap pauses (transitions)

    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t sends = 0;          ///< send() calls that moved bytes
    std::uint64_t batched_lines = 0;  ///< response lines that shared a flush
};

/// The epoll transport.  Construction binds and listens (throws
/// tsg::error on failure); run() blocks serving until stop(), start()
/// runs the same loop on an owned background thread.  metrics() is
/// thread-safe; everything else belongs to the owner.
class event_loop_server {
public:
    explicit event_loop_server(analysis_service& service,
                               event_loop_options options = {});
    ~event_loop_server();

    event_loop_server(const event_loop_server&) = delete;
    event_loop_server& operator=(const event_loop_server&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// Serves until stop().  Call at most once (directly or via start()).
    void run();

    /// run() on an owned background thread (joined by stop()/destruction).
    void start();

    /// Signals the loop to exit and joins the start() thread if any.
    /// Idempotent; safe from any thread.
    void stop();

    /// Graceful drain: flips the service into its draining state, keeps
    /// answering new lines with structured "draining" errors, finishes
    /// and flushes all in-flight work, then exits run() — no later than
    /// options.drain_timeout after the call.  Async-signal-safe (an
    /// atomic store plus an eventfd write), so SIGTERM handlers may call
    /// it directly.  Idempotent.
    void begin_drain();
    [[nodiscard]] bool draining() const { return draining_.load(std::memory_order_acquire); }

    /// True once run() has returned (the drain completed or stop() was
    /// honoured) — the harness's "the daemon is gone" observation point.
    [[nodiscard]] bool finished() const { return finished_.load(std::memory_order_acquire); }

    [[nodiscard]] event_loop_metrics metrics() const;

private:
    struct completion_bus;
    struct counters;

    void accept_ready();
    void drain_completions();
    void handle_io(std::uint64_t conn_id, std::uint32_t events);
    void read_some(connection& conn);
    void process_backlog(connection& conn);
    void flush_ready(connection& conn);
    /// False when the connection was closed by the attempt.
    bool flush_writes(connection& conn);
    void update_flow(connection& conn);
    void update_interest(connection& conn);
    void maybe_close_finished(connection& conn);
    void close_conn(std::uint64_t conn_id);
    void fail_conn(connection& conn, const char* code, const std::string& message);
    void sweep_timeouts();
    /// True when, with the drain armed, no connection holds in-flight
    /// slots, unparsed backlog or unsent bytes — including bytes still
    /// sitting unread in kernel buffers (a final read sweep pulls them).
    [[nodiscard]] bool drain_complete();

    analysis_service& service_;
    event_loop_options options_;

    int epoll_fd_ = -1;
    int listen_fd_ = -1;
    int drain_efd_ = -1;
    std::uint16_t port_ = 0;

    std::shared_ptr<completion_bus> bus_;
    std::unordered_map<std::uint64_t, std::unique_ptr<connection>> conns_;
    std::uint64_t next_conn_id_ = 3; ///< 0/1/2 tag listener, bus and drain fd

    std::atomic<bool> stop_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> finished_{false};
    /// Loop-thread drain state: armed on the first drain event, after
    /// which the loop winds down toward the deadline.
    bool drain_armed_ = false;
    std::chrono::steady_clock::time_point drain_deadline_{};
    std::thread thread_;

    std::unique_ptr<counters> counters_;
};

} // namespace tsg::net

#endif // TSG_NET_EVENT_LOOP_H
