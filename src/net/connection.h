// Per-connection state for the epoll serving transport: incremental
// NDJSON framing, ordered response slots, and buffered batched writes.
//
// The framing half (line_splitter) is a standalone value type so the
// fault-injection and fuzz tests can hammer it without sockets: bytes go
// in under any chunking, complete lines come out — the reassembly is
// chunking-independent by construction, and a line that outgrows the
// configured bound reports an oversize condition instead of buffering
// without limit.
//
// The connection half enforces the serving contract the event loop
// needs:
//
//   * responses leave in request order even though the worker pool
//     completes them out of order — each parsed line claims the next
//     slot in a FIFO; a slot's response line is written only once every
//     earlier slot has flushed;
//   * writes are batched: every ready line is appended to one
//     contiguous write buffer and shipped with as few send() calls as
//     the socket accepts (the Galois buffered-network idiom);
//   * the write buffer is bounded — a slow reader that lets it grow past
//     the cap is disconnected rather than allowed to pin server memory;
//   * requests are rate limited per connection by a token bucket
//     (util/token_bucket.h), the policy the service's design quotas use.
#ifndef TSG_NET_CONNECTION_H
#define TSG_NET_CONNECTION_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/token_bucket.h"

namespace tsg::net {

/// Incremental NDJSON framing: feed arbitrary byte chunks, pop complete
/// lines.  '\n' terminates a line; a trailing '\r' is stripped (telnet
/// and CRLF clients work).  Bytes of an incomplete line stay buffered
/// across feeds, so any split of the stream reassembles identically.
class line_splitter {
public:
    /// `max_line_bytes` bounds one line (terminator excluded); 0 means
    /// unbounded.
    explicit line_splitter(std::size_t max_line_bytes = 0)
        : max_line_bytes_(max_line_bytes)
    {
    }

    /// Appends `n` bytes and moves every newly completed line into
    /// `out`.  Returns false when a line (complete or still partial)
    /// exceeds the bound — framing is lost at that point and the caller
    /// should fail the stream; the splitter keeps rejecting afterwards.
    bool feed(const char* data, std::size_t n, std::vector<std::string>& out);

    /// Bytes of the current incomplete line.
    [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

    [[nodiscard]] bool oversized() const { return oversized_; }

private:
    std::string buffer_;
    std::size_t max_line_bytes_ = 0;
    bool oversized_ = false;
};

/// Hard bounds one connection lives under.
struct connection_limits {
    std::size_t max_line_bytes = 1 << 20;     ///< one request line
    std::size_t write_buffer_cap = 8u << 20;  ///< pending response bytes
    std::size_t max_inflight = 64;            ///< unanswered requests

    /// Per-connection request-rate limit: a token bucket refilled at
    /// `max_requests_per_second` with capacity `rate_burst` (0 burst
    /// derives max(1, ceil(rate))).  Requests over the rate are answered
    /// with a structured "rate_limited" error carrying a retry_after_ms
    /// hint of ceil(ms until the next token) — the connection itself
    /// stays up.  0 disables the limit.
    double max_requests_per_second = 0.0;
    double rate_burst = 0.0;
};

/// One client connection of the event loop.  Plain state plus the
/// response-ordering bookkeeping; all socket calls live in the loop.
class connection {
public:
    connection(int fd, std::uint64_t id, connection_limits limits)
        : fd_(fd), id_(id), limits_(limits), splitter_(limits.max_line_bytes),
          last_activity_(std::chrono::steady_clock::now()),
          rate_limit_(limits.max_requests_per_second, limits.rate_burst)
    {
    }

    [[nodiscard]] int fd() const { return fd_; }
    [[nodiscard]] std::uint64_t id() const { return id_; }
    [[nodiscard]] const connection_limits& limits() const { return limits_; }

    line_splitter& splitter() { return splitter_; }

    // --- ordered response slots -------------------------------------------

    /// Claims the next slot and returns its sequence number.
    std::uint64_t open_slot()
    {
        slots_.push_back({});
        return front_seq_ + slots_.size() - 1;
    }

    /// Marks slot `seq` ready with its serialized response line.
    /// Returns false when the slot is unknown (already flushed — cannot
    /// happen for well-behaved callers, guards double completion).
    bool complete_slot(std::uint64_t seq, std::string line)
    {
        if (seq < front_seq_ || seq - front_seq_ >= slots_.size()) return false;
        slot& s = slots_[static_cast<std::size_t>(seq - front_seq_)];
        if (s.ready) return false;
        s.ready = true;
        s.line = std::move(line);
        return true;
    }

    /// Unanswered requests (slots not yet completed).
    [[nodiscard]] std::size_t inflight() const
    {
        std::size_t n = 0;
        for (const slot& s : slots_)
            if (!s.ready) ++n;
        return n;
    }

    /// Moves every ready head slot into the write buffer (one line each,
    /// '\n'-terminated) and returns how many lines were appended — the
    /// batch the next send() ships together.
    std::size_t collect_ready()
    {
        std::size_t appended = 0;
        while (!slots_.empty() && slots_.front().ready) {
            write_buffer_.append(slots_.front().line);
            write_buffer_.push_back('\n');
            slots_.pop_front();
            ++front_seq_;
            ++appended;
        }
        return appended;
    }

    [[nodiscard]] bool has_pending_slots() const { return !slots_.empty(); }

    // --- write buffer -------------------------------------------------------

    std::string& write_buffer() { return write_buffer_; }
    [[nodiscard]] std::size_t unsent() const
    {
        return write_buffer_.size() - write_pos_;
    }
    [[nodiscard]] bool over_write_cap() const
    {
        return limits_.write_buffer_cap != 0 && unsent() > limits_.write_buffer_cap;
    }
    [[nodiscard]] const char* send_data() const
    {
        return write_buffer_.data() + write_pos_;
    }
    void consumed(std::size_t n)
    {
        write_pos_ += n;
        if (write_pos_ == write_buffer_.size()) {
            write_buffer_.clear();
            write_pos_ = 0;
        }
    }

    // --- backlog / flow control --------------------------------------------

    /// Parsed lines waiting because the in-flight cap is reached.
    std::deque<std::string>& backlog() { return backlog_; }

    [[nodiscard]] bool at_inflight_cap() const
    {
        return inflight() >= limits_.max_inflight;
    }

    bool paused_read = false;  ///< EPOLLIN currently deregistered
    bool want_write = false;   ///< EPOLLOUT currently registered
    bool read_closed = false;  ///< peer half-closed (recv returned 0)

    std::chrono::steady_clock::time_point last_activity() const
    {
        return last_activity_;
    }
    void touch() { last_activity_ = std::chrono::steady_clock::now(); }

    /// The connection's request-rate bucket (admits everything when
    /// max_requests_per_second is 0).
    token_bucket& rate_limit() { return rate_limit_; }

private:
    struct slot {
        bool ready = false;
        std::string line;
    };

    int fd_;
    std::uint64_t id_;
    connection_limits limits_;
    line_splitter splitter_;
    std::deque<slot> slots_;
    std::uint64_t front_seq_ = 0;
    std::string write_buffer_;
    std::size_t write_pos_ = 0;
    std::deque<std::string> backlog_;
    std::chrono::steady_clock::time_point last_activity_;
    token_bucket rate_limit_;
};

} // namespace tsg::net

#endif // TSG_NET_CONNECTION_H
