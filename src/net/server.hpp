/**
 * @file
 * ZkvServer: a single-threaded, non-blocking epoll event loop serving
 * the zkv wire protocol (net/protocol.hpp) over TCP, with batched
 * shard dispatch into a ZkvStore (docs/server.md).
 *
 * Event-loop shape: one epoll instance watches the listening socket,
 * an eventfd (the shutdown doorbell — async-signal-safe to ring from
 * a SIGTERM handler), and every client connection, all level-
 * triggered. Each loop round drains readable sockets into
 * per-connection buffers, decodes every complete frame, then executes
 * the round's decoded requests grouped by shardOf(key): one
 * ZkvStore::runShardBatch call per touched shard takes that shard's
 * lock ONCE for the whole group, so under pipelining the lock traffic
 * amortizes over the batch. Responses are serialized back in each
 * connection's decode order — pipelined requests on one connection
 * always complete in order — and flushed with at most one write()
 * per connection per round, amortizing syscalls the same way.
 *
 * Poll before park: after a round that saw events, the loop calls
 * epoll_wait with a zero timeout until kPollBudgetNs passes with no
 * event, and only then blocks. A client that sends its next request
 * within the budget of its last response does not wait for the loop
 * thread to be woken. The stats count every epoll_wait as a poll or
 * a park, and the time spent parked (docs/server.md).
 *
 * Shutdown: shutdown() (or the doorbell) closes the listener and
 * enters drain mode: buffered and already-readable requests are still
 * executed and their responses flushed; a connection closes once it
 * has gone quiescent (no buffered output, no partial frame making
 * progress). Connections still active at cfg.drainTimeoutMs are
 * force-closed and counted in stats().drainAborted.
 *
 * Error model: structured Status (docs/robustness.md). A framing
 * error on a connection closes that connection (the stream cannot be
 * resynchronized); socket errors close the connection; only listener
 * setup and epoll failures fail serve() itself. Fault-injection
 * sites: net.accept, net.read, net.write, net.frame.
 *
 * Live telemetry (docs/telemetry.md): when cfg.obs asks, the store's
 * instrumented paths trace every executed op, with the server
 * extending each op's span backwards to its frame-decode time — the
 * `net` child phase is decode-to-dispatch queueing — and a
 * MetricsSnapshotter samples store + server counters into windowed
 * NDJSON / Prometheus files.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/stats_registry.hpp"
#include "net/protocol.hpp"
#include "store/zkv.hpp"

namespace zc {

class ObsTracer;
class MetricsSnapshotter;

namespace net {

struct ZkvServerConfig
{
    /** Bind address. Tests use 127.0.0.1 with port 0 (ephemeral). */
    std::string host = "127.0.0.1";

    /** TCP port; 0 asks the kernel for an ephemeral port, which
     *  create() resolves and port() reports — the hermetic-CI mode. */
    std::uint16_t port = 0;

    ZkvConfig store;

    int backlog = 128;
    std::uint32_t maxConnections = 1024;

    /** Drain budget after shutdown before force-closing stragglers. */
    std::uint32_t drainTimeoutMs = 2000;

    /** Live-telemetry sinks (docs/telemetry.md); all off by default. */
    ObsConfig obs;

    Status
    validate() const
    {
        if (host.empty()) {
            return Status::invalidArgument("server: host must be set");
        }
        if (maxConnections == 0) {
            return Status::invalidArgument(
                "server: maxConnections must be > 0");
        }
        if (Status s = obs.validate(); !s.isOk()) return s;
        return store.validate();
    }
};

/** Monotonic server counters (snapshot via ZkvServer::stats()). */
struct ZkvServerStats
{
    std::uint64_t accepted = 0;  ///< connections accepted
    std::uint64_t closed = 0;    ///< connections closed (any reason)
    std::uint64_t framesIn = 0;  ///< request frames decoded
    std::uint64_t framesOut = 0; ///< response frames encoded
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t pings = 0;        ///< ping frames answered
    std::uint64_t batches = 0;      ///< runShardBatch calls issued
    std::uint64_t batchedOps = 0;   ///< store ops executed via batches
    std::uint64_t protocolErrors = 0; ///< framing errors (conn closed)
    std::uint64_t modeErrors = 0;    ///< bytes-flag/store-mode mismatches
    std::uint64_t readErrors = 0;
    std::uint64_t writeErrors = 0;
    std::uint64_t acceptErrors = 0;
    std::uint64_t rejectedConns = 0; ///< over maxConnections
    std::uint64_t drained = 0;       ///< conns closed clean in drain
    std::uint64_t drainAborted = 0;  ///< conns force-closed at deadline
    std::uint64_t rounds = 0;    ///< epoll_wait calls (== polls + parks)
    std::uint64_t polls = 0;     ///< epoll_wait calls with a zero timeout
    std::uint64_t parks = 0;     ///< blocking epoll_wait calls
    std::uint64_t parkedNs = 0;  ///< time spent inside blocking calls
    std::uint64_t recvCalls = 0; ///< recv(2) calls, EAGAIN included
    std::uint64_t sendCalls = 0; ///< send(2) calls, EAGAIN included
};

/** ZkvServerStats' counters, in stats-tree order. */
inline constexpr CounterField<ZkvServerStats> kServerCounters[] = {
    {"accepted", "connections accepted", &ZkvServerStats::accepted},
    {"closed", "connections closed", &ZkvServerStats::closed},
    {"frames_in", "request frames decoded", &ZkvServerStats::framesIn},
    {"frames_out", "response frames encoded", &ZkvServerStats::framesOut},
    {"bytes_in", "payload bytes received", &ZkvServerStats::bytesIn},
    {"bytes_out", "payload bytes sent", &ZkvServerStats::bytesOut},
    {"pings", "ping frames answered", &ZkvServerStats::pings},
    {"batches", "shard batches dispatched", &ZkvServerStats::batches},
    {"batched_ops", "store ops executed via batches",
     &ZkvServerStats::batchedOps},
    {"protocol_errors", "framing errors (conn closed)",
     &ZkvServerStats::protocolErrors},
    {"mode_errors", "bytes-flag/store-mode mismatches",
     &ZkvServerStats::modeErrors},
    {"read_errors", "socket read failures", &ZkvServerStats::readErrors},
    {"write_errors", "socket write failures", &ZkvServerStats::writeErrors},
    {"accept_errors", "accept/setup failures", &ZkvServerStats::acceptErrors},
    {"rejected_conns", "accepts over maxConnections",
     &ZkvServerStats::rejectedConns},
    {"drained", "connections closed clean in drain", &ZkvServerStats::drained},
    {"drain_aborted", "connections force-closed at drain deadline",
     &ZkvServerStats::drainAborted},
    {"rounds", "epoll_wait calls (polls + parks)", &ZkvServerStats::rounds},
    {"polls", "epoll_wait calls with a zero timeout", &ZkvServerStats::polls},
    {"parks", "blocking epoll_wait calls", &ZkvServerStats::parks},
    {"parked_ns", "time spent inside blocking epoll_wait",
     &ZkvServerStats::parkedNs},
    {"recv_calls", "recv calls, EAGAIN included", &ZkvServerStats::recvCalls},
    {"send_calls", "send calls, EAGAIN included", &ZkvServerStats::sendCalls},
};

class ZkvServer
{
  public:
    /**
     * How long the loop keeps polling after its last event before it
     * parks. It must exceed the gap between a response leaving the
     * server and a lone client's next request arriving; the value and
     * the gap it was chosen from are in docs/server.md.
     */
    static constexpr std::uint64_t kPollBudgetNs = 50'000;

    /** Build the store, bind + listen (resolving an ephemeral port),
     *  and set up epoll; serve() then runs the loop. */
    static Expected<std::unique_ptr<ZkvServer>>
    create(const ZkvServerConfig& cfg);

    ~ZkvServer();

    ZkvServer(const ZkvServer&) = delete;
    ZkvServer& operator=(const ZkvServer&) = delete;

    /** The bound TCP port (the resolved one when cfg.port was 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Run the event loop on the calling thread until shutdown() (or a
     * doorbell ring) and the subsequent drain complete. Returns Ok
     * after a clean drain; a Status only for loop-fatal conditions
     * (epoll failure, telemetry sink I/O errors at teardown).
     */
    Status serve();

    /**
     * Ring the shutdown doorbell. Safe from any thread and from a
     * signal handler (a single write(2) on an eventfd). serve()
     * finishes its drain and returns.
     */
    void shutdown();

    /** Counter snapshot (loop-thread writes, relaxed reads). */
    ZkvServerStats stats() const;

    ZkvStore& store() { return *store_; }

    /** Register server + store (+ tracer) stats under @p g. */
    void registerStats(StatGroup& g);

  private:
    explicit ZkvServer(ZkvServerConfig cfg);

    struct Conn
    {
        int fd = -1;
        std::uint64_t id = 0; ///< unique per accept; guards fd reuse
        std::vector<std::uint8_t> in;  ///< unparsed request bytes
        std::vector<std::uint8_t> out; ///< unflushed response bytes
        std::size_t outSent = 0; ///< bytes of `out` already written
        bool wantWrite = false;  ///< EPOLLOUT armed
        bool readClosed = false; ///< peer EOF seen
        bool sawBytes = false;   ///< read progress this drain round
    };

    /** One decoded request awaiting dispatch this round. */
    struct PendingReq
    {
        int fd = -1;
        std::uint64_t connId = 0; ///< must still match conns_[fd].id
        Request req;
        bool ping = false;           ///< answered inline, no store op
        bool modeErr = false;        ///< bytes-flag/store-mode mismatch
        std::uint32_t shard = 0;
        std::uint64_t enqueueNs = 0; ///< decode time (0 if obs off)
        std::size_t batchSlot = 0;   ///< index into the shard batch
    };

    Status setupListener();
    Status setupLoop();

    void acceptReady();
    /** Drain readable bytes; false = connection died (and was closed). */
    bool readReady(Conn& c);
    /** Decode frames into pending_; false = framing error (conn closed). */
    bool decodeFrames(Conn& c);
    /** Does @p c still have decoded-but-undispatched requests? */
    bool hasPendingFor(const Conn& c) const;
    /** Execute pending_ grouped by shard; append responses in order. */
    void dispatchRound();
    /** Flush c.out; false = connection died (and was closed). */
    bool flushOut(Conn& c);
    void updateEpollInterest(Conn& c);
    void closeConn(int fd);
    void beginDrain();

    ZkvServerConfig cfg_;
    std::unique_ptr<ZkvStore> store_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1; ///< eventfd shutdown doorbell
    std::uint16_t port_ = 0;

    std::unordered_map<int, Conn> conns_;
    std::uint64_t nextConnId_ = 1;
    std::vector<PendingReq> pending_; ///< this round's decoded requests

    /** Per-shard dispatch scratch, reused across rounds. */
    std::vector<std::vector<StoreBatchOp>> shardOps_;
    std::vector<std::vector<StoreBatchResult>> shardRes_;
    std::vector<std::uint32_t> touched_; ///< shards with ops this round

    bool draining_ = false;
    std::uint64_t drainDeadlineNs_ = 0;
    std::atomic<bool> shutdownReq_{false};

    /** The loop thread bumps these through bumpCounter(); stats()
     *  loads them relaxed through kServerCounters. */
    ZkvServerStats st_;

    std::unique_ptr<ObsTracer> tracer_;
    std::unique_ptr<MetricsSnapshotter> snap_;
};

} // namespace net
} // namespace zc
