/**
 * @file
 * ZkvClient implementation: blocking connect/send/recv over the zkv
 * wire protocol (design notes in client.hpp, docs/server.md).
 */

#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace zc::net {

namespace {

Status
errnoStatus(const std::string& what)
{
    return Status::ioError("client: " + what + ": " +
                           std::strerror(errno));
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
    return cli;
}

Status
ZkvClient::sendRaw(const Request& req)
{
    wbuf_.clear();
    encodeRequest(req, wbuf_);
    std::size_t sent = 0;
    while (sent < wbuf_.size()) {
        ssize_t n = ::send(fd_, wbuf_.data() + sent,
                           wbuf_.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return errnoStatus("send");
        }
        sent += static_cast<std::size_t>(n);
    }
    return Status::ok();
}

Expected<Response>
ZkvClient::recvResponse()
{
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
        std::uint8_t buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
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
