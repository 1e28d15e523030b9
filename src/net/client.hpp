/**
 * @file
 * ZkvClient: a small blocking client for the zkv wire protocol
 * (net/protocol.hpp) — the reference peer for ZkvServer, used by the
 * e2e tests and as the transport layer under bench/net_loadgen.cpp.
 *
 * The API has two levels:
 *
 *  - typed round trips: get / put / erase / ping encode one request,
 *    block for its response, and map the response's status byte back
 *    into a structured Status;
 *  - pipelining primitives, with hiredis's output-buffer contract:
 *    sendRaw() only encodes a request into the client's queue; it
 *    makes no system call. recvResponse() returns a response that is
 *    already buffered without a system call; only when it must block
 *    in recv does it first write everything queued. flush() writes
 *    the queue at once without waiting. A closed loop that answers
 *    each response with a new request thus writes, per wait, every
 *    request queued since the last one, not one frame per send.
 *    Requests still queued when the client is destroyed are never
 *    sent. ZkvServer preserves per-connection order, so K sendRaw
 *    calls followed by K recvResponse calls see responses in send
 *    order.
 *
 * The wait, when recvResponse() finds no whole frame buffered:
 *
 *  1. flush() the queue;
 *  2. poll: recv with MSG_DONTWAIT until a frame decodes or
 *     kPollBudgetNs (protocol.hpp, the serve loop's own budget) has
 *     passed since the flush;
 *  3. block in recv.
 *
 * A response due within microseconds is thus read by a thread that
 * never slept, so the round trip does not include this thread's own
 * wake-up. The price is a core spun for up to the budget per wait
 * (docs/server.md, "The CPU price"). Step 2 runs only when the thread
 * that called connect() could run on two or more CPUs: on one CPU the
 * poll would spin on the CPU the server needs. Pin client threads
 * after connect(), as perfbench's net-bytes does, to keep the poll.
 * The scheduler can still put this thread and the server on one CPU
 * of many, where every poll runs out. So a poll that runs out makes
 * the next wait skip step 2, and each further one doubles the waits
 * skipped, up to kMaxPollSkip, until a poll pays: it finds nothing,
 * then reads bytes. stats() counts the polls, the blocking reads and
 * the time they blocked.
 *
 * When cfg.crc is set every request carries a CRC-32 trailer; the
 * server echoes the protection on its responses, and decode verifies
 * it (ErrorCode::Corruption on mismatch).
 */

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "net/protocol.hpp"

namespace zc::net {

/** A client's own counters (ZkvClient::stats()). */
struct ZkvClientStats
{
    std::uint64_t polls = 0;     ///< non-blocking reads that found nothing
    std::uint64_t parks = 0;     ///< blocking reads
    std::uint64_t parkedNs = 0;  ///< time spent inside blocking reads
    std::uint64_t recvCalls = 0; ///< recv(2) calls, both kinds
    std::uint64_t sendCalls = 0; ///< send(2) calls
};

struct ZkvClientConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    /** CRC-protect every request frame (server echoes it back). */
    bool crc = false;

    /** connect() retries while the server's backlog warms up. */
    std::uint32_t connectRetries = 20;
    std::uint32_t connectRetryMs = 50;
};

class ZkvClient
{
  public:
    static Expected<std::unique_ptr<ZkvClient>>
    connect(const ZkvClientConfig& cfg);

    ~ZkvClient();

    ZkvClient(const ZkvClient&) = delete;
    ZkvClient& operator=(const ZkvClient&) = delete;

    /** One blocking round trip; checks the response id echoes ours. */
    Expected<Response> call(MsgType type, std::uint64_t key,
                            std::uint64_t value = 0);

    /** The resident value, or nullopt on a clean miss. */
    Expected<std::optional<std::uint64_t>> get(std::uint64_t key);

    /** PutResult-shaped response (inserted / evicted / walk cost). */
    Expected<Response> put(std::uint64_t key, std::uint64_t value);

    /** True when the key was resident and got removed. */
    Expected<bool> erase(std::uint64_t key);

    Status ping();

    // ---- bytes mode (kFrameFlagBytes; docs/compression.md) ---------

    /** Byte-payload put against a bytes-mode server. The payload must
     *  be <= kMaxValueBytes (InvalidArgument otherwise). */
    Expected<Response> putBytes(std::uint64_t key,
                                std::span<const std::uint8_t> value);

    /** Byte-payload get: nullopt on a clean miss, the stored bytes on
     *  a hit. A mode-mismatched server answers InvalidArgument. */
    Expected<std::optional<std::vector<std::uint8_t>>>
    getBytes(std::uint64_t key);

    /** Queue one request; it is written by flush() or by the next
     *  recvResponse() that has to wait. Makes no system call. */
    Status sendRaw(const Request& req);

    /** Write every queued request now, without waiting for a reply
     *  (IoError if the write fails; the queue is dropped either way). */
    Status flush();

    /** The next response frame: from the read buffer if one is there,
     *  else flush(), poll, then block in recv until one decodes (file
     *  comment), or the stream errors: Truncated on EOF mid-stream,
     *  Corruption on framing. */
    Expected<Response> recvResponse();

    /** This client's counters; it is single-threaded, so plain. */
    ZkvClientStats stats() const { return st_; }

    /** Next request id this client will assign (for pipelined ids). */
    std::uint64_t nextId() const { return nextId_; }

    /** The socket, for callers that write their own frames on it
     *  (bench/net_loadgen.cpp); flush() queued requests first. */
    int fd() const { return fd_; }

  private:
    ZkvClient() = default;

    /** Assign an id, send @p req, block for the echoed response. */
    Expected<Response> roundTrip(Request& req);

    /** One read for a wait: without blocking until @p pollUntilNs,
     *  then blocking. The wait's first read sets @p pollUntilNs (0
     *  before) to the end of the wait's poll, or to 1 if the wait does
     *  not poll. recv's result, errno set on -1; EAGAIN never escapes. */
    ssize_t readSome(std::uint8_t* buf, std::size_t len,
                     std::uint64_t& pollUntilNs);

    /** The most waits that one poll that ran out makes block at once. */
    static constexpr std::uint32_t kMaxPollSkip = 256;

    int fd_ = -1;
    bool crc_ = false;
    bool poll_ = false; ///< connect()'s thread could run on 2+ CPUs
    std::uint32_t pollSkip_ = 0;    ///< next waits that do not poll
    std::uint32_t pollBackoff_ = 1; ///< pollSkip_ after a poll runs out
    ZkvClientStats st_;
    std::uint64_t nextId_ = 1;
    std::vector<std::uint8_t> rbuf_;
    std::size_t rpos_ = 0; ///< bytes of rbuf_ already decoded
    std::vector<std::uint8_t> wbuf_; ///< encoded, not yet written
};

} // namespace zc::net
