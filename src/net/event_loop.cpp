#include "net/event_loop.h"

#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/api.h"
#include "core/service.h"
#include "util/error.h"
#include "util/strings.h"

namespace tsg::net {

namespace {

constexpr std::uint64_t k_listener_tag = 0;
constexpr std::uint64_t k_bus_tag = 1;
constexpr std::uint64_t k_drain_tag = 2;

/// Pending connections the kernel queues before accept().
constexpr int k_listen_backlog = 64;

void throw_errno(const char* what)
{
    throw error(std::string(what) + ": " + std::strerror(errno));
}

std::string shed_line(const char* code, const std::string& id, const std::string& message)
{
    analysis_response response;
    response.id = id;
    response.ok = false;
    response.error = {code, message};
    return analysis_response_json(response);
}

std::string overloaded_line(const std::string& id, const std::string& message)
{
    return shed_line("overloaded", id, message);
}

/// Encodes a completed response for a connection whose write buffer
/// holds at most `write_cap` bytes (0: unbounded).  Runs inside the
/// completion callback on a worker thread, so it answers instead of
/// throwing: an encoding failure becomes "internal", and a line the
/// buffer could never hold becomes "invalid_request" naming both sizes —
/// rather than a slow-reader disconnect midway through the line.
std::string encode_completion(const analysis_response& response, std::size_t write_cap)
{
    analysis_response refusal;
    refusal.id = response.id;
    refusal.elapsed_ms = response.elapsed_ms;
    try {
        std::string line = analysis_response_json(response);
        if (write_cap == 0 || line.size() < write_cap) return line; // + '\n' fits
        refusal.error = {"invalid_request",
                         "response of " + std::to_string(line.size() + 1) +
                             " bytes exceeds the connection's write buffer cap of " +
                             std::to_string(write_cap) +
                             " bytes; request a smaller result (fewer scenarios, or "
                             "without slack and witness)"};
    } catch (const std::exception& e) {
        refusal.error = {"internal", std::string("response encoding failed: ") + e.what()};
    }
    return analysis_response_json(refusal);
}

/// eventfd writes are 8 bytes and atomic, but a signal can still
/// interrupt before any byte moves — retry instead of dropping the wake.
/// Async-signal-safe (write(2) plus errno only).
void eventfd_signal(int fd)
{
    const std::uint64_t one = 1;
    for (;;) {
        const ssize_t n = ::write(fd, &one, sizeof(one));
        if (n >= 0 || errno != EINTR) return; // EAGAIN: the counter is already hot
    }
}

void eventfd_drain(int fd)
{
    std::uint64_t value = 0;
    while (::read(fd, &value, sizeof(value)) < 0 && errno == EINTR) {
    }
}

} // namespace

/// The hand-off between worker threads and the loop.  Workers post
/// completed response lines here and poke the eventfd; the loop drains
/// on wakeup.  Held by shared_ptr from every in-flight callback, so a
/// completion that outlives the server finds `open == false` and drops
/// harmlessly instead of touching freed loop state.
struct event_loop_server::completion_bus {
    struct completion {
        std::uint64_t conn_id;
        std::uint64_t seq;
        std::string line;
    };

    std::mutex mutex;
    std::vector<completion> items;
    int efd = -1;
    bool open = true;

    ~completion_bus()
    {
        if (efd >= 0) ::close(efd);
    }

    void post(std::uint64_t conn_id, std::uint64_t seq, std::string line)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!open) return;
        items.push_back({conn_id, seq, std::move(line)});
        eventfd_signal(efd);
    }

    void wake()
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!open) return;
        eventfd_signal(efd);
    }

    void close_bus()
    {
        std::lock_guard<std::mutex> lock(mutex);
        open = false;
        items.clear();
    }
};

struct event_loop_server::counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> drain_rejected{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::size_t> active{0};
    std::atomic<std::uint64_t> idle{0};
    std::atomic<std::uint64_t> slow{0};
    std::atomic<std::uint64_t> oversized{0};
    std::atomic<std::uint64_t> lines_in{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> responses_out{0};
    std::atomic<std::uint64_t> responses_dropped{0};
    std::atomic<std::uint64_t> reads_paused{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> sends{0};
    std::atomic<std::uint64_t> batched_lines{0};
};

event_loop_server::event_loop_server(analysis_service& service, event_loop_options options)
    : service_(service), options_(options), counters_(std::make_unique<counters>())
{
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("socket");

    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    addr.sin_port = ::htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        errno = saved;
        throw_errno("bind");
    }
    if (::listen(listen_fd_, k_listen_backlog) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        errno = saved;
        throw_errno("listen");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
        port_ = ::ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        errno = saved;
        throw_errno("epoll_create1");
    }

    bus_ = std::make_shared<completion_bus>();
    bus_->efd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    drain_efd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (bus_->efd < 0 || drain_efd_ < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        ::close(epoll_fd_);
        if (drain_efd_ >= 0) ::close(drain_efd_);
        listen_fd_ = epoll_fd_ = drain_efd_ = -1;
        errno = saved;
        throw_errno("eventfd");
    }

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = k_listener_tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) throw_errno("epoll_ctl");
    ev.data.u64 = k_bus_tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, bus_->efd, &ev) != 0) throw_errno("epoll_ctl");
    ev.data.u64 = k_drain_tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, drain_efd_, &ev) != 0) throw_errno("epoll_ctl");
}

event_loop_server::~event_loop_server()
{
    stop();
    if (bus_) bus_->close_bus();
    for (auto& [id, conn] : conns_) ::close(conn->fd());
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (drain_efd_ >= 0) ::close(drain_efd_);
}

void event_loop_server::begin_drain()
{
    draining_.store(true, std::memory_order_release);
    if (drain_efd_ >= 0) eventfd_signal(drain_efd_);
}

void event_loop_server::start()
{
    thread_ = std::thread([this] { run(); });
}

void event_loop_server::stop()
{
    stop_.store(true, std::memory_order_release);
    if (bus_) bus_->wake();
    if (thread_.joinable()) thread_.join();
}

void event_loop_server::run()
{
    epoll_event events[64];
    while (!stop_.load(std::memory_order_acquire)) {
        // A finite wait keeps the idle/slow sweep running even when the
        // sockets are silent; an empty server can sleep longer.  A drain
        // in progress polls fast so completion is observed promptly.
        const int timeout_ms =
            drain_armed_ ? 10
                         : (conns_.empty() || options_.idle_timeout.count() <= 0 ? 200 : 50);
        const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == k_listener_tag) {
                accept_ready();
            } else if (tag == k_bus_tag) {
                eventfd_drain(bus_->efd);
                drain_completions();
            } else if (tag == k_drain_tag) {
                eventfd_drain(drain_efd_);
                if (!drain_armed_) {
                    drain_armed_ = true;
                    drain_deadline_ =
                        std::chrono::steady_clock::now() + options_.drain_timeout;
                    // The service refuses new work with "draining" from
                    // here on; everything already queued keeps running.
                    service_.begin_drain();
                }
            } else {
                handle_io(tag, events[i].events);
            }
        }
        sweep_timeouts();
        if (drain_armed_ &&
            (drain_complete() || std::chrono::steady_clock::now() >= drain_deadline_))
            break;
    }

    // Teardown on the loop thread: close the bus first so worker
    // callbacks racing with this shutdown drop their completions instead
    // of queueing into a server being torn down.
    bus_->close_bus();
    for (auto& [id, conn] : conns_) ::close(conn->fd());
    conns_.clear();
    counters_->active.store(0, std::memory_order_relaxed);
    finished_.store(true, std::memory_order_release);
}

bool event_loop_server::drain_complete()
{
    const auto busy = [](connection& conn) {
        return conn.has_pending_slots() || !conn.backlog().empty() || conn.unsent() > 0;
    };
    for (const auto& [id, conn] : conns_)
        if (busy(*conn)) return false;

    // Quiet sockets may still hide request bytes in kernel buffers that
    // epoll has reported but this iteration has not read.  Pull them now:
    // any line surfaced gets its structured "draining" answer before the
    // loop is allowed to exit.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const std::uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it != conns_.end()) read_some(*it->second);
    }
    for (const auto& [id, conn] : conns_)
        if (busy(*conn)) return false;
    return true;
}

void event_loop_server::accept_ready()
{
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return; // EAGAIN or a transient accept error: back to the loop
        }
        if (drain_armed_) {
            // A draining daemon still answers the door — with a structured
            // refusal a retrying client can act on, not a silent RST.
            const std::string line =
                shed_line("draining", "",
                          "the analysis service is draining for shutdown; retry "
                          "against another instance") +
                "\n";
            [[maybe_unused]] ssize_t n =
                ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
            counters_->drain_rejected.fetch_add(1, std::memory_order_relaxed);
            ::close(fd);
            continue;
        }
        if (conns_.size() >= options_.max_connections) {
            // Best effort: tell the client why before hanging up.
            const std::string line =
                overloaded_line("", "connection limit reached (" +
                                        std::to_string(options_.max_connections) +
                                        "); retry later") +
                "\n";
            [[maybe_unused]] ssize_t n =
                ::send(fd, line.data(), line.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
            counters_->rejected.fetch_add(1, std::memory_order_relaxed);
            ::close(fd);
            continue;
        }
        if (options_.so_sndbuf > 0)
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                         sizeof(options_.so_sndbuf));
        // Responses are whole lines flushed in batches already; Nagle
        // would only hold a small one back until the client's delayed ACK.
        const int nodelay = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
        const std::uint64_t id = next_conn_id_++;
        auto conn = std::make_unique<connection>(fd, id, options_.limits);
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP;
        ev.data.u64 = id;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conns_.emplace(id, std::move(conn));
        counters_->accepted.fetch_add(1, std::memory_order_relaxed);
        counters_->active.store(conns_.size(), std::memory_order_relaxed);
    }
}

void event_loop_server::handle_io(std::uint64_t conn_id, std::uint32_t events)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    connection& conn = *it->second;

    if (events & (EPOLLHUP | EPOLLERR)) {
        close_conn(conn_id);
        return;
    }
    if (events & EPOLLOUT) {
        if (!flush_writes(conn)) return;
        update_flow(conn);
        if (conns_.find(conn_id) == conns_.end()) return;
    }
    if (events & (EPOLLIN | EPOLLRDHUP)) read_some(conn);
}

void event_loop_server::read_some(connection& conn)
{
    const std::uint64_t conn_id = conn.id();
    char buf[16384];
    bool peer_closed = false;
    for (;;) {
        if (conn.paused_read) break;
        const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
            counters_->bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                          std::memory_order_relaxed);
            conn.touch();
            std::vector<std::string> lines;
            const bool ok = conn.splitter().feed(buf, static_cast<std::size_t>(n), lines);
            counters_->lines_in.fetch_add(lines.size(), std::memory_order_relaxed);
            for (std::string& line : lines) conn.backlog().push_back(std::move(line));
            if (!ok) {
                // Framing is unrecoverable past the bound: answer with one
                // structured error and hang up.  Lines completed before
                // the oversize are abandoned with the connection — their
                // responses could not be ordered against the poisoned tail.
                counters_->oversized.fetch_add(1, std::memory_order_relaxed);
                fail_conn(conn, "bad_request",
                          "request line exceeds " +
                              std::to_string(conn.limits().max_line_bytes) +
                              " bytes; closing connection");
                return;
            }
            update_flow(conn);
            if (conns_.find(conn_id) == conns_.end()) return;
            continue;
        }
        if (n == 0) {
            peer_closed = true;
            break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn_id);
        return;
    }
    if (peer_closed) {
        conn.read_closed = true;
        update_flow(conn);
        if (conns_.find(conn_id) == conns_.end()) return;
        maybe_close_finished(conn);
    }
}

void event_loop_server::process_backlog(connection& conn)
{
    while (!conn.backlog().empty() && !conn.at_inflight_cap()) {
        std::string line = std::move(conn.backlog().front());
        conn.backlog().pop_front();
        if (line.find_first_not_of(" \t") == std::string::npos) continue;

        const std::uint64_t seq = conn.open_slot();
        analysis_request request;
        bool parsed = false;
        analysis_response err_response;
        try {
            request = parse_analysis_request(line);
            parsed = true;
        } catch (const error& e) {
            counters_->parse_errors.fetch_add(1, std::memory_order_relaxed);
            err_response.error = classify_error(e.what(), "bad_request");
        } catch (const std::exception& e) {
            counters_->parse_errors.fetch_add(1, std::memory_order_relaxed);
            err_response.error = {"internal", e.what()};
        }
        if (!parsed) {
            conn.complete_slot(seq, analysis_response_json(err_response));
            continue;
        }

        // Per-connection request-rate limit.  Probe kinds are exempt: a
        // load balancer's health checks must not compete with the client
        // traffic they supervise.
        if (request.kind != request_kind::health && request.kind != request_kind::stats) {
            const std::uint64_t retry_ms =
                conn.rate_limit().take(std::chrono::steady_clock::now());
            if (retry_ms > 0) {
                analysis_response limited;
                limited.id = request.id;
                limited.ok = false;
                limited.error = {"rate_limited",
                                 "connection request rate exceeds " +
                                     format_double(conn.rate_limit().rate(), 6) +
                                     " requests/s; retry after the hinted backoff",
                                 retry_ms};
                conn.complete_slot(seq, analysis_response_json(limited));
                continue;
            }
        }

        const std::string request_id = request.id;
        auto bus = bus_;
        const std::uint64_t conn_id = conn.id();
        const std::size_t write_cap = conn.limits().write_buffer_cap;
        const auto refusal = service_.submit_async(
            std::move(request), [bus, conn_id, seq, write_cap](analysis_response response) {
                bus->post(conn_id, seq, encode_completion(response, write_cap));
            });
        if (refusal) {
            // Admission control shed it: the callback never runs, the
            // loop answers the slot directly — shedding costs no hand-off.
            analysis_response shed;
            shed.id = request_id;
            shed.error = *refusal;
            conn.complete_slot(seq, analysis_response_json(shed));
        }
    }
}

void event_loop_server::flush_ready(connection& conn)
{
    const std::size_t appended = conn.collect_ready();
    if (appended == 0) {
        maybe_close_finished(conn);
        return;
    }
    counters_->responses_out.fetch_add(appended, std::memory_order_relaxed);
    if (appended > 1)
        counters_->batched_lines.fetch_add(appended, std::memory_order_relaxed);
    if (flush_writes(conn)) maybe_close_finished(conn);
}

bool event_loop_server::flush_writes(connection& conn)
{
    const std::uint64_t conn_id = conn.id();
    while (conn.unsent() > 0) {
        const ssize_t n = ::send(conn.fd(), conn.send_data(), conn.unsent(), MSG_NOSIGNAL);
        if (n > 0) {
            counters_->bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                           std::memory_order_relaxed);
            counters_->sends.fetch_add(1, std::memory_order_relaxed);
            conn.consumed(static_cast<std::size_t>(n));
            conn.touch();
            continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn_id); // EPIPE / ECONNRESET / ...: the peer is gone
        return false;
    }
    if (conn.unsent() > 0) {
        if (conn.over_write_cap()) {
            // The reader is slower than its own request stream allows;
            // drop it rather than buffer its responses without bound.
            counters_->slow.fetch_add(1, std::memory_order_relaxed);
            close_conn(conn_id);
            return false;
        }
        if (!conn.want_write) {
            conn.want_write = true;
            update_interest(conn);
        }
    } else if (conn.want_write) {
        conn.want_write = false;
        update_interest(conn);
    }
    return true;
}

void event_loop_server::update_flow(connection& conn)
{
    const std::uint64_t conn_id = conn.id();
    process_backlog(conn);
    flush_ready(conn);
    if (conns_.find(conn_id) == conns_.end()) return;

    // Pause reading while the connection is saturated: the in-flight cap
    // is reached (or parsed lines are still waiting on it), or the peer
    // half-closed.  TCP pushes the backpressure to the client.
    const bool should_pause =
        conn.read_closed || conn.at_inflight_cap() || !conn.backlog().empty();
    if (should_pause != conn.paused_read) {
        if (should_pause) counters_->reads_paused.fetch_add(1, std::memory_order_relaxed);
        conn.paused_read = should_pause;
        update_interest(conn);
    }
}

void event_loop_server::update_interest(connection& conn)
{
    epoll_event ev{};
    ev.events = (conn.paused_read ? 0u : (EPOLLIN | EPOLLRDHUP)) |
                (conn.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd(), &ev);
}

void event_loop_server::maybe_close_finished(connection& conn)
{
    if (conn.read_closed && !conn.has_pending_slots() && conn.backlog().empty() &&
        conn.unsent() == 0)
        close_conn(conn.id());
}

void event_loop_server::close_conn(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    const int fd = it->second->fd();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(it);
    // Counters before close(): a peer that observes EOF must already see
    // its connection accounted as closed.
    counters_->closed.fetch_add(1, std::memory_order_relaxed);
    counters_->active.store(conns_.size(), std::memory_order_relaxed);
    ::close(fd);
}

void event_loop_server::fail_conn(connection& conn, const char* code,
                                  const std::string& message)
{
    analysis_response response;
    response.error = {code, message};
    conn.write_buffer().append(analysis_response_json(response));
    conn.write_buffer().push_back('\n');
    counters_->responses_out.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t conn_id = conn.id();
    if (flush_writes(conn)) close_conn(conn_id);
}

void event_loop_server::sweep_timeouts()
{
    if (options_.idle_timeout.count() <= 0 || conns_.empty()) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> drop;
    for (const auto& [id, conn] : conns_) {
        // A connection waiting on its own in-flight work is the server's
        // debt, not the client's silence — unless it is also refusing to
        // read what it is already owed.
        const bool waiting_on_us = conn->has_pending_slots() && conn->unsent() == 0;
        if (waiting_on_us) continue;
        if (now - conn->last_activity() > options_.idle_timeout) drop.push_back(id);
    }
    for (const std::uint64_t id : drop) {
        counters_->idle.fetch_add(1, std::memory_order_relaxed);
        close_conn(id);
    }
}

void event_loop_server::drain_completions()
{
    std::vector<completion_bus::completion> items;
    {
        std::lock_guard<std::mutex> lock(bus_->mutex);
        items.swap(bus_->items);
    }
    std::vector<std::uint64_t> touched;
    for (completion_bus::completion& item : items) {
        auto it = conns_.find(item.conn_id);
        if (it == conns_.end() || !it->second->complete_slot(item.seq, std::move(item.line))) {
            counters_->responses_dropped.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        touched.push_back(item.conn_id);
    }
    for (const std::uint64_t id : touched) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue; // closed by an earlier flush
        update_flow(*it->second);
    }
}

event_loop_metrics event_loop_server::metrics() const
{
    event_loop_metrics m;
    m.connections_accepted = counters_->accepted.load(std::memory_order_relaxed);
    m.connections_rejected = counters_->rejected.load(std::memory_order_relaxed);
    m.connections_drain_rejected =
        counters_->drain_rejected.load(std::memory_order_relaxed);
    m.connections_closed = counters_->closed.load(std::memory_order_relaxed);
    m.connections_active = counters_->active.load(std::memory_order_relaxed);
    m.disconnects_idle = counters_->idle.load(std::memory_order_relaxed);
    m.disconnects_slow = counters_->slow.load(std::memory_order_relaxed);
    m.disconnects_oversized = counters_->oversized.load(std::memory_order_relaxed);
    m.lines_in = counters_->lines_in.load(std::memory_order_relaxed);
    m.parse_errors = counters_->parse_errors.load(std::memory_order_relaxed);
    m.responses_out = counters_->responses_out.load(std::memory_order_relaxed);
    m.responses_dropped = counters_->responses_dropped.load(std::memory_order_relaxed);
    m.reads_paused = counters_->reads_paused.load(std::memory_order_relaxed);
    m.bytes_in = counters_->bytes_in.load(std::memory_order_relaxed);
    m.bytes_out = counters_->bytes_out.load(std::memory_order_relaxed);
    m.sends = counters_->sends.load(std::memory_order_relaxed);
    m.batched_lines = counters_->batched_lines.load(std::memory_order_relaxed);
    return m;
}

} // namespace tsg::net
