/**
 * @file
 * ZkvServer implementation: epoll event loop, per-round batched shard
 * dispatch, graceful drain (design notes in server.hpp and
 * docs/server.md).
 */

#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace zc::net {

// The wire cap and the store cap are one contract: a max-size stored
// payload must fit a single frame (docs/compression.md).
static_assert(kMaxValueBytes == kZkvMaxValueBytes,
              "net frame payload cap must match the store's value cap");

namespace {

Status
errnoStatus(const std::string& what)
{
    return Status::ioError("server: " + what + ": " +
                           std::strerror(errno));
}

} // namespace

ZkvServer::ZkvServer(ZkvServerConfig cfg) : cfg_(std::move(cfg)) {}

ZkvServer::~ZkvServer()
{
    for (auto& [fd, c] : conns_) ::close(fd);
    conns_.clear();
    if (listenFd_ >= 0) ::close(listenFd_);
    if (wakeFd_ >= 0) ::close(wakeFd_);
    if (epollFd_ >= 0) ::close(epollFd_);
}

Expected<std::unique_ptr<ZkvServer>>
ZkvServer::create(const ZkvServerConfig& cfg)
{
    if (Status s = cfg.validate(); !s.isOk()) return s;

    auto store_or = ZkvStore::create(cfg.store);
    if (!store_or) return store_or.status();

    auto srv = std::unique_ptr<ZkvServer>(new ZkvServer(cfg));
    srv->store_ = std::move(*store_or);

    if (Status s = srv->setupListener(); !s.isOk()) return s;
    if (Status s = srv->setupLoop(); !s.isOk()) return s;

    // Live telemetry (docs/telemetry.md): trace records flow from the
    // store's instrumented batch path; the snapshotter samples store
    // totals plus the server's own counters.
    if (cfg.obs.anyEnabled()) {
        if (!cfg.obs.tracePath.empty()) {
            ObsTracerConfig tc;
            tc.path = cfg.obs.tracePath;
            tc.ringCapacity = cfg.obs.ringCapacity;
            tc.processName = "zkv_server";
            srv->tracer_ = std::make_unique<ObsTracer>(std::move(tc));
            srv->store_->enableObs(srv->tracer_.get());
        } else {
            // Metrics-only mode still wants the instrumented op paths
            // (net_ns / lock_wait_ns attribution) without a trace
            // file: a count-only tracer sinks the records.
            ObsTracerConfig tc;
            tc.ringCapacity = cfg.obs.ringCapacity;
            srv->tracer_ = std::make_unique<ObsTracer>(std::move(tc));
            srv->store_->enableObs(srv->tracer_.get());
        }
        if (!cfg.obs.metricsPath.empty() || !cfg.obs.promPath.empty()) {
            MetricsSnapshotterConfig mc;
            mc.ndjsonPath = cfg.obs.metricsPath;
            mc.promPath = cfg.obs.promPath;
            mc.intervalMs = cfg.obs.metricsIntervalMs;
            ZkvServer* raw = srv.get();
            srv->snap_ = std::make_unique<MetricsSnapshotter>(
                std::move(mc), [raw] {
                    MetricsSample s = raw->store_->metricsSample();
                    appendCounters(s, kServerCounters, raw->stats(), "net_");
                    return s;
                });
        }
    }
    return srv;
}

Status
ZkvServer::setupListener()
{
    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) return errnoStatus("socket");

    int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        return Status::invalidArgument(
            "server: host '" + cfg_.host +
            "' is not a valid IPv4 address");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        return errnoStatus("bind " + cfg_.host + ":" +
                           std::to_string(cfg_.port));
    }
    if (::listen(listenFd_, cfg_.backlog) != 0) {
        return errnoStatus("listen");
    }

    // Resolve the kernel-assigned port in the ephemeral (--port=0)
    // hermetic-test mode.
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound),
                      &blen) != 0) {
        return errnoStatus("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    return Status::ok();
}

Status
ZkvServer::setupLoop()
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) return errnoStatus("epoll_create1");

    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd_ < 0) return errnoStatus("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) != 0) {
        return errnoStatus("epoll_ctl(listen)");
    }
    ev.data.fd = wakeFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0) {
        return errnoStatus("epoll_ctl(wake)");
    }
    return Status::ok();
}

void
ZkvServer::shutdown()
{
    shutdownReq_.store(true, std::memory_order_release);
    // One write(2) on an eventfd: async-signal-safe, so SIGTERM
    // handlers may call shutdown() directly (bench/zkv_server.cpp).
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void
ZkvServer::acceptReady()
{
    for (;;) {
        int fd = ::accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            bumpCounter(st_.acceptErrors);
            return;
        }
        if (ZC_INJECT_FAULT("net.accept")) {
            // Model a post-accept setup failure: the client sees an
            // immediate close (loadgen counts it as a transport error
            // and reconnects, docs/robustness.md).
            bumpCounter(st_.acceptErrors);
            ::close(fd);
            continue;
        }
        if (conns_.size() >= cfg_.maxConnections) {
            bumpCounter(st_.rejectedConns);
            ::close(fd);
            continue;
        }
        int one = 1;
        (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof(one));
        Conn c;
        c.fd = fd;
        c.id = nextConnId_++;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            bumpCounter(st_.acceptErrors);
            ::close(fd);
            continue;
        }
        conns_.emplace(fd, std::move(c));
        bumpCounter(st_.accepted);
    }
}

bool
ZkvServer::readReady(Conn& c)
{
    if (ZC_INJECT_FAULT("net.read")) {
        bumpCounter(st_.readErrors);
        closeConn(c.fd);
        return false;
    }
    std::uint8_t buf[4096];
    for (;;) {
        ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        bumpCounter(st_.recvCalls);
        if (n > 0) {
            c.in.insert(c.in.end(), buf, buf + n);
            c.sawBytes = true;
            bumpCounter(st_.bytesIn, static_cast<std::uint64_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(buf)) break;
            continue;
        }
        if (n == 0) {
            c.readClosed = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        bumpCounter(st_.readErrors);
        closeConn(c.fd);
        return false;
    }
    if (!decodeFrames(c)) return false;
    if (c.readClosed && c.out.empty() && !hasPendingFor(c)) {
        // Peer is gone and nothing is owed: a clean close. Bytes of a
        // partial frame count as a truncated stream.
        if (!c.in.empty()) {
            bumpCounter(st_.protocolErrors);
        }
        closeConn(c.fd);
        return false;
    }
    return true;
}

bool
ZkvServer::hasPendingFor(const Conn& c) const
{
    for (const PendingReq& p : pending_) {
        if (p.fd == c.fd && p.connId == c.id) return true;
    }
    return false;
}

bool
ZkvServer::decodeFrames(Conn& c)
{
    std::size_t off = 0;
    const bool obs_on = store_->obsEnabled();
    while (off < c.in.size()) {
        if (ZC_INJECT_FAULT("net.frame")) {
            bumpCounter(st_.protocolErrors);
            closeConn(c.fd);
            return false;
        }
        Request req;
        auto consumed_or =
            decodeRequest(c.in.data() + off, c.in.size() - off, &req);
        if (!consumed_or) {
            // Framing is desynchronized; no resync point exists
            // (protocol.hpp), so the connection is closed.
            bumpCounter(st_.protocolErrors);
            closeConn(c.fd);
            return false;
        }
        if (*consumed_or == 0) break; // partial frame: read more
        off += *consumed_or;
        bumpCounter(st_.framesIn);

        PendingReq p;
        p.fd = c.fd;
        p.connId = c.id;
        p.ping = req.type == MsgType::Ping;
        // A GET/PUT whose bytes flag disagrees with the store's mode is
        // answered with InvalidArgument instead of being dispatched —
        // the frame parsed fine, only the value representation is wrong
        // (protocol.hpp). ERASE/PING are representation-free.
        if ((req.type == MsgType::Get || req.type == MsgType::Put) &&
            req.bytes != store_->bytesMode()) {
            p.modeErr = true;
        }
        if (!p.ping && !p.modeErr) p.shard = store_->shardOf(req.key);
        if (obs_on) p.enqueueNs = obsNowNs();
        p.req = std::move(req);
        pending_.push_back(std::move(p));
    }
    if (off > 0) c.in.erase(c.in.begin(), c.in.begin() + off);
    return true;
}

void
ZkvServer::dispatchRound()
{
    if (pending_.empty()) return;

    // Group this round's store ops by shard and execute each group
    // under ONE lock acquisition (ZkvStore::runShardBatch).
    const std::uint32_t nsh = store_->numShards();
    if (shardOps_.size() != nsh) {
        shardOps_.resize(nsh);
        shardRes_.resize(nsh);
    }
    touched_.clear();
    for (PendingReq& p : pending_) {
        if (p.ping || p.modeErr) continue;
        StoreBatchOp op;
        op.key = p.req.key;
        op.value = p.req.value;
        if (p.req.bytes && p.req.type == MsgType::Put) {
            op.valueBytes = std::move(p.req.valueBytes);
        }
        op.enqueueNs = p.enqueueNs;
        switch (p.req.type) {
          case MsgType::Get: op.kind = ObsOp::Get; break;
          case MsgType::Put: op.kind = ObsOp::Put; break;
          default: op.kind = ObsOp::Erase; break;
        }
        if (shardOps_[p.shard].empty()) touched_.push_back(p.shard);
        p.batchSlot = shardOps_[p.shard].size();
        shardOps_[p.shard].push_back(op);
    }
    for (std::uint32_t s : touched_) {
        shardRes_[s].resize(shardOps_[s].size());
        store_->runShardBatch(s, shardOps_[s], shardRes_[s].data());
        bumpCounter(st_.batches);
        bumpCounter(st_.batchedOps, shardOps_[s].size());
    }

    // Serialize responses back in decode order, so pipelined requests
    // on one connection always complete in order.
    for (PendingReq& p : pending_) {
        auto it = conns_.find(p.fd);
        if (it == conns_.end() || it->second.id != p.connId) continue;
        Conn& c = it->second;

        Response resp;
        resp.type = p.req.type;
        resp.id = p.req.id;
        resp.crc = p.req.crc; // CRC echo: protect iff the request did
        resp.bytes = p.req.bytes; // mode echo (protocol.hpp)
        if (p.ping) {
            bumpCounter(st_.pings);
        } else if (p.modeErr) {
            bumpCounter(st_.modeErrors);
            resp.status = ErrorCode::InvalidArgument;
        } else {
            StoreBatchResult& r = shardRes_[p.shard][p.batchSlot];
            resp.status = r.code;
            if (r.hit) resp.rflags |= kRespFlagHit;
            if (r.inserted) resp.rflags |= kRespFlagInserted;
            if (r.evicted) resp.rflags |= kRespFlagEvicted;
            resp.value = r.value;
            if (p.req.bytes && p.req.type == MsgType::Get) {
                resp.valueBytes = std::move(r.valueBytes);
            }
            resp.candidates = r.candidates;
            resp.relocations = r.relocations;
            resp.evictedKey = r.evictedKey;
            resp.evictedValue = r.evictedValue;
        }
        encodeResponse(resp, c.out);
        bumpCounter(st_.framesOut);
    }
    pending_.clear();
    for (std::uint32_t s : touched_) {
        shardOps_[s].clear();
        shardRes_[s].clear();
    }
}

bool
ZkvServer::flushOut(Conn& c)
{
    while (c.outSent < c.out.size()) {
        if (ZC_INJECT_FAULT("net.write")) {
            bumpCounter(st_.writeErrors);
            closeConn(c.fd);
            return false;
        }
        ssize_t n = ::send(c.fd, c.out.data() + c.outSent,
                           c.out.size() - c.outSent, MSG_NOSIGNAL);
        bumpCounter(st_.sendCalls);
        if (n > 0) {
            c.outSent += static_cast<std::size_t>(n);
            bumpCounter(st_.bytesOut, static_cast<std::uint64_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        bumpCounter(st_.writeErrors);
        closeConn(c.fd);
        return false;
    }
    if (c.outSent == c.out.size()) {
        c.out.clear();
        c.outSent = 0;
    }
    updateEpollInterest(c);
    if (c.readClosed && c.out.empty()) {
        closeConn(c.fd);
        return false;
    }
    return true;
}

void
ZkvServer::updateEpollInterest(Conn& c)
{
    bool want = !c.out.empty();
    if (want == c.wantWrite) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
        c.wantWrite = want;
    }
}

void
ZkvServer::closeConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(it);
    bumpCounter(st_.closed);
}

void
ZkvServer::beginDrain()
{
    if (draining_) return;
    draining_ = true;
    drainDeadlineNs_ =
        obsNowNs() +
        static_cast<std::uint64_t>(cfg_.drainTimeoutMs) * 1000000ull;
    // Stop accepting; existing connections get their in-flight
    // requests executed and responses flushed before closing.
    if (listenFd_ >= 0) {
        (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

Status
ZkvServer::serve()
{
    constexpr int kMaxEvents = 64;
    epoll_event evs[kMaxEvents];
    std::vector<int> fds; // iteration snapshot; closeConn mutates conns_

    if (snap_) snap_->start();

    // Poll with a zero timeout until kPollBudgetNs has passed since the
    // end of the last round that saw events, then park. The drain keeps
    // parking: its quiescence rule reads one round's progress, and a
    // parked round gives a connection that is still sending the time
    // it had before.
    std::uint64_t pollUntilNs = 0;
    bool busy = false;

    for (;;) {
        const std::uint64_t now = obsNowNs();
        if (busy) pollUntilNs = now + kPollBudgetNs;
        const bool poll = !draining_ && now < pollUntilNs;
        bumpCounter(st_.rounds);
        bumpCounter(poll ? st_.polls : st_.parks);
        const int timeout_ms = poll ? 0 : draining_ ? 10 : 200;
        int n = ::epoll_wait(epollFd_, evs, kMaxEvents, timeout_ms);
        if (!poll) {
            // max: TSC reads on two cores may disagree by a few ticks.
            bumpCounter(st_.parkedNs, std::max(obsNowNs(), now) - now);
        }
        busy = n > 0;
        if (n < 0) {
            if (errno == EINTR) continue;
            return errnoStatus("epoll_wait");
        }

        bool wake = false;
        for (int i = 0; i < n; i++) {
            int fd = evs[i].data.fd;
            if (fd == wakeFd_) {
                std::uint64_t tok;
                while (::read(wakeFd_, &tok, sizeof(tok)) > 0) {}
                wake = true;
                continue;
            }
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end()) continue;
            if ((evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
                if (!readReady(it->second)) continue;
            }
            if ((evs[i].events & EPOLLOUT) != 0) {
                it = conns_.find(fd);
                if (it != conns_.end()) (void)flushOut(it->second);
            }
        }

        if ((wake || shutdownReq_.load(std::memory_order_acquire)) &&
            !draining_) {
            beginDrain();
        }

        if (draining_) {
            // Forced read sweep: pick up whatever the kernel already
            // buffered, whether or not epoll flagged it this round.
            fds.clear();
            for (auto& [fd, c] : conns_) {
                c.sawBytes = false;
                fds.push_back(fd);
            }
            for (int fd : fds) {
                auto it = conns_.find(fd);
                if (it != conns_.end()) (void)readReady(it->second);
            }
        }

        dispatchRound();

        fds.clear();
        for (auto& [fd, c] : conns_) {
            if (!c.out.empty()) fds.push_back(fd);
        }
        for (int fd : fds) {
            auto it = conns_.find(fd);
            if (it != conns_.end()) (void)flushOut(it->second);
        }

        if (draining_) {
            // A connection is quiescent once nothing is owed (output
            // flushed, no complete frame buffered) and this round's
            // read made no progress.
            fds.clear();
            for (auto& [fd, c] : conns_) {
                if (c.out.empty() && !c.sawBytes) fds.push_back(fd);
            }
            for (int fd : fds) {
                bumpCounter(st_.drained);
                closeConn(fd);
            }
            if (conns_.empty()) break;
            if (obsNowNs() >= drainDeadlineNs_) {
                fds.clear();
                for (auto& [fd, c] : conns_) fds.push_back(fd);
                for (int fd : fds) {
                    bumpCounter(st_.drainAborted);
                    closeConn(fd);
                }
                break;
            }
        }
    }

    // Telemetry teardown (loadgen.cpp order): the loop has quiesced,
    // so the final metrics window captures end-of-run totals, then
    // the store detaches and the tracer closes with exact accounting
    // against the executed-op total.
    Status out = Status::ok();
    if (snap_) {
        Status s = snap_->stop();
        if (!s.isOk()) out = s;
    }
    if (tracer_) {
        store_->disableObs();
        auto sum_or = tracer_->finish(st_.batchedOps);
        if (!sum_or && out.isOk()) out = sum_or.status();
    }
    return out;
}

ZkvServerStats
ZkvServer::stats() const
{
    ZkvServerStats s;
    loadCounters(s, kServerCounters, st_);
    return s;
}

void
ZkvServer::registerStats(StatGroup& g)
{
    StatGroup& srv = g.group("server", "zkv TCP server (docs/server.md)");
    srv.addConst("host", "bound address", JsonValue(cfg_.host));
    srv.addCounter("port", "bound TCP port",
                   [this] { return std::uint64_t{port_}; });
    srv.addCounter("connections", "currently open connections",
                   [this] { return std::uint64_t{conns_.size()}; });
    registerCounters(srv, kServerCounters, [this] { return stats(); });
    store_->registerStats(g);
    if (tracer_) tracer_->registerStats(g.group("obs"));
}

} // namespace zc::net
