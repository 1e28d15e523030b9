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
 *  - pipelining primitives: sendRaw() writes a request without
 *    waiting, recvResponse() blocks for the next response frame.
 *    ZkvServer preserves per-connection order, so K sendRaw calls
 *    followed by K recvResponse calls see responses in send order.
 *
 * When cfg.crc is set every request carries a CRC-32 trailer; the
 * server echoes the protection on its responses, and decode verifies
 * it (ErrorCode::Corruption on mismatch).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "net/protocol.hpp"

namespace zc::net {

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

    /** Write one request now and return; pair with recvResponse(). */
    Status sendRaw(const Request& req);

    /** Block until the next response frame decodes (or the stream
     *  errors: Truncated on EOF mid-stream, Corruption on framing). */
    Expected<Response> recvResponse();

    /** Next request id this client will assign (for pipelined ids). */
    std::uint64_t nextId() const { return nextId_; }

    int fd() const { return fd_; }

  private:
    ZkvClient() = default;

    /** Assign an id, send @p req, block for the echoed response. */
    Expected<Response> roundTrip(Request& req);

    int fd_ = -1;
    bool crc_ = false;
    std::uint64_t nextId_ = 1;
    std::vector<std::uint8_t> rbuf_;
    std::size_t rpos_ = 0; ///< bytes of rbuf_ already decoded
    std::vector<std::uint8_t> wbuf_;
};

} // namespace zc::net
