/**
 * @file
 * ZkvClient implementation: connect/send/recv over the zkv wire
 * protocol, polling before it blocks (design notes in client.hpp,
 * docs/server.md).
 */

#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/trace_event.hpp"

namespace zc::net {

namespace {

Status
errnoStatus(const std::string& what)
{
    return Status::ioError("client: " + what + ": " +
                           std::strerror(errno));
}

/** May the calling thread run on two or more CPUs? */
bool
twoOrMoreCpus()
{
    cpu_set_t allowed;
    return ::sched_getaffinity(0, sizeof allowed, &allowed) == 0 &&
           CPU_COUNT(&allowed) >= 2;
}

} // namespace

ZkvClient::~ZkvClient()
{
    if (fd_ >= 0) ::close(fd_);
}

Expected<std::unique_ptr<ZkvClient>>
ZkvClient::connect(const ZkvClientConfig& cfg)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
        return Status::invalidArgument(
            "client: host '" + cfg.host +
            "' is not a valid IPv4 address");
    }

    int fd = -1;
    for (std::uint32_t attempt = 0;; attempt++) {
        fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) return errnoStatus("socket");
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
            break;
        }
        int err = errno;
        ::close(fd);
        fd = -1;
        // The listener may still be warming up (a test's server
        // thread), or an injected net.accept fault reset us.
        if ((err == ECONNREFUSED || err == ECONNRESET ||
             err == EINTR) &&
            attempt < cfg.connectRetries) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(cfg.connectRetryMs));
            continue;
        }
        errno = err;
        return errnoStatus("connect " + cfg.host + ":" +
                           std::to_string(cfg.port));
    }

    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto cli = std::unique_ptr<ZkvClient>(new ZkvClient());
    cli->fd_ = fd;
    cli->crc_ = cfg.crc;
    cli->poll_ = twoOrMoreCpus();
    return cli;
}

Status
ZkvClient::sendRaw(const Request& req)
{
    encodeRequest(req, wbuf_);
    return Status::ok();
}

Status
ZkvClient::flush()
{
    std::size_t sent = 0;
    while (sent < wbuf_.size()) {
        ssize_t n = ::send(fd_, wbuf_.data() + sent,
                           wbuf_.size() - sent, MSG_NOSIGNAL);
        st_.sendCalls++;
        if (n < 0) {
            if (errno == EINTR) continue;
            Status s = errnoStatus("send");
            // The stream may now end mid-frame: send none of it again.
            wbuf_.clear();
            return s;
        }
        sent += static_cast<std::size_t>(n);
    }
    wbuf_.clear();
    return Status::ok();
}

ssize_t
ZkvClient::readSome(std::uint8_t* buf, std::size_t len,
                    std::uint64_t& pollUntilNs)
{
    if (pollUntilNs == 0) {
        const bool skip = pollSkip_ > 0;
        if (skip) pollSkip_--;
        pollUntilNs = poll_ && !skip ? obsNowNs() + kPollBudgetNs : 1;
    }
    bool foundNothing = false;
    while (obsNowNs() < pollUntilNs) {
        ssize_t n = ::recv(fd_, buf, len, MSG_DONTWAIT);
        st_.recvCalls++;
        if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            if (foundNothing) pollBackoff_ = 1; // the poll paid
            return n;
        }
        st_.polls++;
        foundNothing = true;
    }
    if (pollUntilNs != 1) {
        // The poll ran out. If the peer shares this thread's CPU, every
        // poll will: the next waits block at once, 1, 2, 4, ... up to
        // kMaxPollSkip of them while each poll in between runs out.
        pollSkip_ = pollBackoff_;
        pollBackoff_ = std::min(2 * pollBackoff_, kMaxPollSkip);
        pollUntilNs = 1;
    }
    const std::uint64_t t0 = obsNowNs();
    ssize_t n = ::recv(fd_, buf, len, 0);
    st_.recvCalls++;
    st_.parks++;
    // max: TSC reads on two cores may disagree by a few ticks.
    st_.parkedNs += std::max(obsNowNs(), t0) - t0;
    return n;
}

Expected<Response>
ZkvClient::recvResponse()
{
    std::uint64_t pollUntilNs = 0;
    for (;;) {
        if (rpos_ < rbuf_.size()) {
            Response resp;
            auto consumed_or = decodeResponse(
                rbuf_.data() + rpos_, rbuf_.size() - rpos_, &resp);
            if (!consumed_or) return consumed_or.status();
            if (*consumed_or > 0) {
                rpos_ += *consumed_or;
                return resp;
            }
        }
        // Compact once per recv, not once per frame: only the partial
        // frame, if any, moves to the front.
        rbuf_.erase(rbuf_.begin(),
                    rbuf_.begin() + static_cast<std::ptrdiff_t>(rpos_));
        rpos_ = 0;
        // About to wait: whatever is queued goes out first, so the
        // response we wait for can be the answer to it.
        if (Status s = flush(); !s.isOk()) return s;
        std::uint8_t buf[4096];
        ssize_t n = readSome(buf, sizeof(buf), pollUntilNs);
        if (n == 0) return truncatedAtEof(rbuf_.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            return errnoStatus("recv");
        }
        rbuf_.insert(rbuf_.end(), buf, buf + n);
    }
}

Expected<Response>
ZkvClient::roundTrip(Request& req)
{
    req.id = nextId_++;
    req.crc = crc_;
    if (Status s = sendRaw(req); !s.isOk()) return s;
    auto resp_or = recvResponse();
    if (!resp_or) return resp_or.status();
    if (resp_or->id != req.id) {
        return Status::corruption(
            "client: response id " + std::to_string(resp_or->id) +
            " does not echo request id " + std::to_string(req.id) +
            " (stream desynchronized)");
    }
    return resp_or;
}

Expected<Response>
ZkvClient::call(MsgType type, std::uint64_t key, std::uint64_t value)
{
    Request req;
    req.type = type;
    req.key = key;
    req.value = value;
    return roundTrip(req);
}

Expected<Response>
ZkvClient::putBytes(std::uint64_t key, std::span<const std::uint8_t> value)
{
    if (value.size() > kMaxValueBytes) {
        return Status::invalidArgument(
            "client: putBytes payload " + std::to_string(value.size()) +
            " exceeds the " + std::to_string(kMaxValueBytes) +
            "-byte cap");
    }
    Request req;
    req.type = MsgType::Put;
    req.key = key;
    req.bytes = true;
    req.valueBytes.assign(value.begin(), value.end());
    auto resp_or = roundTrip(req);
    if (!resp_or) return resp_or.status();
    if (resp_or->status != ErrorCode::Ok) {
        return Status(resp_or->status, "client: putBytes(" +
                                           std::to_string(key) +
                                           ") failed server-side");
    }
    return resp_or;
}

Expected<std::optional<std::vector<std::uint8_t>>>
ZkvClient::getBytes(std::uint64_t key)
{
    Request req;
    req.type = MsgType::Get;
    req.key = key;
    req.bytes = true;
    auto resp_or = roundTrip(req);
    if (!resp_or) return resp_or.status();
    if (resp_or->status != ErrorCode::Ok) {
        return Status(resp_or->status, "client: getBytes(" +
                                           std::to_string(key) +
                                           ") failed server-side");
    }
    if (!resp_or->hit()) {
        return std::optional<std::vector<std::uint8_t>>{};
    }
    return std::optional<std::vector<std::uint8_t>>{
        std::move(resp_or->valueBytes)};
}

Expected<std::optional<std::uint64_t>>
ZkvClient::get(std::uint64_t key)
{
    auto resp_or = call(MsgType::Get, key);
    if (!resp_or) return resp_or.status();
    if (resp_or->status != ErrorCode::Ok) {
        return Status(resp_or->status, "client: get(" +
                                           std::to_string(key) +
                                           ") failed server-side");
    }
    if (!resp_or->hit()) return std::optional<std::uint64_t>{};
    return std::optional<std::uint64_t>{resp_or->value};
}

Expected<Response>
ZkvClient::put(std::uint64_t key, std::uint64_t value)
{
    auto resp_or = call(MsgType::Put, key, value);
    if (!resp_or) return resp_or.status();
    if (resp_or->status != ErrorCode::Ok) {
        return Status(resp_or->status, "client: put(" +
                                           std::to_string(key) +
                                           ") failed server-side");
    }
    return resp_or;
}

Expected<bool>
ZkvClient::erase(std::uint64_t key)
{
    auto resp_or = call(MsgType::Erase, key);
    if (!resp_or) return resp_or.status();
    if (resp_or->status != ErrorCode::Ok) {
        return Status(resp_or->status, "client: erase(" +
                                           std::to_string(key) +
                                           ") failed server-side");
    }
    return resp_or->hit();
}

Status
ZkvClient::ping()
{
    auto resp_or = call(MsgType::Ping, 0);
    if (!resp_or) return resp_or.status();
    if (resp_or->status != ErrorCode::Ok) {
        return Status(resp_or->status, "client: ping failed");
    }
    return Status::ok();
}

} // namespace zc::net
