#include "net/client.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.h"
#include "util/json.h"

namespace tsg::net {

namespace {

/// First step of the exponential backoff (client_options::backoff_cap).
constexpr std::chrono::milliseconds backoff_base{2};
/// Outstanding requests per connection.
constexpr std::size_t max_pipeline = 32;
/// Bound on one blocking read for a response line.
constexpr std::chrono::milliseconds response_timeout{10000};

/// Pulls the pieces the retry policy needs out of one response line.
/// A line that fails to parse as a response document is treated as an
/// internal error (the daemon never emits one — a mangled line means the
/// stream is broken and the caller will see the loss on the next read).
analysis_response parse_response_line(const std::string& line)
{
    analysis_response response;
    try {
        const json_value doc = json_parse(line, "response");
        if (const json_value* id = doc.find("id")) response.id = id->text;
        if (const json_value* ok = doc.find("ok")) response.ok = ok->boolean;
        if (const json_value* version = doc.find("design_version"))
            response.design_version = std::strtoull(version->text.c_str(), nullptr, 10);
        if (const json_value* scenarios = doc.find("scenarios"))
            response.scenarios = std::strtoull(scenarios->text.c_str(), nullptr, 10);
        if (const json_value* coalesced = doc.find("coalesced"))
            response.coalesced = coalesced->boolean;
        if (const json_value* elapsed = doc.find("elapsed_ms"))
            response.elapsed_ms = std::strtod(elapsed->text.c_str(), nullptr);
        if (response.ok) {
            if (const json_value* payload = doc.find("payload"))
                response.payload = payload->write();
        } else if (const json_value* err = doc.find("error")) {
            if (const json_value* code = err->find("code")) response.error.code = code->text;
            if (const json_value* message = err->find("message"))
                response.error.message = message->text;
            if (const json_value* retry = err->find("retry_after_ms"))
                response.error.retry_after_ms =
                    std::strtoull(retry->text.c_str(), nullptr, 10);
        }
    } catch (const std::exception& e) {
        response.ok = false;
        response.error = {"internal", std::string("unparseable response line: ") + e.what()};
    }
    return response;
}

} // namespace

client::client(client_options options)
    : options_(options), jitter_(options.jitter_seed)
{
}

client::~client() { disconnect(); }

bool client::retryable(const api_error& error)
{
    // draining: this instance is going away, but a restart (or a peer
    // behind the same balancer) will take the request.  deadline_exceeded
    // is terminal by design — the time the retry would spend has already
    // run out once.
    return error.code == "overloaded" || error.code == "rate_limited" ||
           error.code == "draining";
}

void client::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    read_buffer_.clear();
}

bool client::ensure_connected()
{
    if (fd_ >= 0) return true;
    const auto deadline = std::chrono::steady_clock::now() + options_.dial_timeout;
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) return false;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
        addr.sin_port = ::htons(options_.port);
        int rc;
        do {
            rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        } while (rc != 0 && errno == EINTR);
        if (rc == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            fd_ = fd;
            return true;
        }
        ::close(fd);
        // Loopback dials fail fast (ECONNREFUSED while the daemon is
        // restarting); poll the listener until the dial budget runs out.
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

bool client::send_line(const std::string& line)
{
    if (fd_ < 0) return false;
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n =
            ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        disconnect();
        return false;
    }
    return true;
}

bool client::read_line(std::string& line)
{
    if (fd_ < 0) return false;
    const auto deadline = std::chrono::steady_clock::now() + response_timeout;
    for (;;) {
        const std::size_t pos = read_buffer_.find('\n');
        if (pos != std::string::npos) {
            line = read_buffer_.substr(0, pos);
            read_buffer_.erase(0, pos + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            return true;
        }
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            disconnect();
            return false;
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int remaining_ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count() +
            1);
        const int pr = ::poll(&pfd, 1, remaining_ms);
        if (pr < 0) {
            if (errno == EINTR) continue;
            disconnect();
            return false;
        }
        if (pr == 0) {
            disconnect();
            return false;
        }
        char buf[16384];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            read_buffer_.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
        disconnect(); // EOF or a hard error: the connection is gone
        return false;
    }
}

std::chrono::milliseconds client::backoff_delay(unsigned attempt, std::uint64_t hint_ms)
{
    const auto base = static_cast<double>(backoff_base.count());
    const double exp = base * static_cast<double>(1ULL << std::min(attempt, 20u));
    const double capped = std::min(exp, static_cast<double>(options_.backoff_cap.count()));
    // Jitter in [0.5, 1.0]: desynchronizes a fleet of retrying clients
    // without ever collapsing the wait to zero.
    const double jittered = capped * (0.5 + 0.5 * jitter_.uniform01());
    const double with_hint = std::max(jittered, static_cast<double>(hint_ms));
    return std::chrono::milliseconds(static_cast<std::int64_t>(with_hint));
}

/// One request of a call_many batch: where it is in its retry life.
struct client::slot {
    std::size_t index = 0; ///< position in the input (and output) vector
    std::string line;      ///< serialized request, reused across attempts
    unsigned attempts = 0;
    unsigned sheds = 0;
    unsigned reconnects = 0;
    std::chrono::steady_clock::time_point eligible{}; ///< earliest next send
    std::chrono::steady_clock::time_point started{};
};

std::vector<call_outcome> client::call_many(const std::vector<analysis_request>& requests)
{
    std::vector<call_outcome> outcomes(requests.size());
    if (requests.empty()) return outcomes;
    metrics_.requests += requests.size();

    const auto now0 = std::chrono::steady_clock::now();
    std::deque<slot> sendq;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        slot s;
        s.index = i;
        s.line = analysis_request_json(requests[i]).write() + "\n";
        s.eligible = now0;
        s.started = now0;
        sendq.push_back(std::move(s));
    }
    std::deque<slot> outstanding; ///< FIFO: responses match in send order
    std::size_t unresolved = requests.size();

    const auto resolve = [&](slot& s, analysis_response response) {
        call_outcome& outcome = outcomes[s.index];
        outcome.response = std::move(response);
        outcome.attempts = s.attempts;
        outcome.sheds = s.sheds;
        outcome.reconnects = s.reconnects;
        outcome.latency_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - s.started)
                                 .count();
        --unresolved;
    };
    const auto lost = [&](const slot& s) {
        analysis_response response;
        response.id = requests[s.index].id;
        response.error = {"internal", "connection lost before a response"};
        return response;
    };
    const auto requeue_or_give_up = [&](slot s, const analysis_response& last,
                                        std::uint64_t hint_ms) {
        if (s.attempts >= options_.max_attempts) {
            ++metrics_.gave_up;
            resolve(s, last);
            return;
        }
        ++metrics_.retries;
        s.eligible = std::chrono::steady_clock::now() + backoff_delay(s.attempts, hint_ms);
        sendq.push_back(std::move(s));
    };

    while (unresolved > 0) {
        const auto now = std::chrono::steady_clock::now();

        // Fill the pipeline with every eligible queued request.
        bool sent_any = false;
        for (auto it = sendq.begin();
             it != sendq.end() && outstanding.size() < max_pipeline;) {
            if (it->eligible > now) {
                ++it;
                continue;
            }
            slot s = std::move(*it);
            it = sendq.erase(it);
            ++s.attempts;
            if (!ensure_connected() || !send_line(s.line)) {
                ++s.reconnects;
                ++metrics_.reconnects;
                const analysis_response last = lost(s);
                requeue_or_give_up(std::move(s), last, 0);
                break; // the connection is down; let the loop re-dial
            }
            outstanding.push_back(std::move(s));
            sent_any = true;
        }

        if (!outstanding.empty()) {
            std::string line;
            if (!read_line(line)) {
                // The connection died with work in flight: the daemon
                // answers everything it accepts, so unanswered means
                // unaccepted — every outstanding request retries.
                while (!outstanding.empty()) {
                    slot s = std::move(outstanding.front());
                    outstanding.pop_front();
                    ++s.reconnects;
                    ++metrics_.reconnects;
                    const analysis_response last = lost(s);
                    requeue_or_give_up(std::move(s), last, 0);
                }
                continue;
            }
            analysis_response response = parse_response_line(line);
            ++metrics_.responses;
            slot s = std::move(outstanding.front());
            outstanding.pop_front();
            if (response.ok || !retryable(response.error)) {
                resolve(s, std::move(response));
            } else {
                ++s.sheds;
                ++metrics_.sheds_seen;
                const std::uint64_t hint = response.error.retry_after_ms;
                requeue_or_give_up(std::move(s), response, hint);
            }
            continue;
        }

        if (!sent_any && !sendq.empty()) {
            // Everything is backing off: sleep until the earliest slot.
            auto earliest = sendq.front().eligible;
            for (const slot& s : sendq) earliest = std::min(earliest, s.eligible);
            const auto wake = std::max(earliest, now + std::chrono::milliseconds(1));
            std::this_thread::sleep_until(wake);
        }
    }
    return outcomes;
}

call_outcome client::call(const analysis_request& request)
{
    return std::move(call_many({request}).front());
}

} // namespace tsg::net
