/**
 * @file
 * zkv wire protocol: compact length-prefixed binary frames for
 * GET / PUT / ERASE / PING over TCP (docs/server.md has the full byte
 * layout and the rationale).
 *
 * Frame layout (all integers little-endian on the wire):
 *
 *     u32 len      — byte length of everything AFTER this field
 *     u8  magic    — 0x5A ('Z')
 *     u8  version  — kProtoVersion (1)
 *     u8  type     — MsgType (get/put/erase/ping)
 *     u8  flags    — bit 0: trailing CRC present; bit 1: response
 *     u64 id       — request id, echoed verbatim in the response
 *     ...payload   — fixed size per (type, request/response)
 *     [u32 crc]    — CRC-32 (common/crc32.hpp) over header + payload,
 *                    present iff flags bit 0 is set
 *
 * Request payloads: GET/ERASE carry the u64 key, PUT carries key +
 * value, PING is empty. Response payloads start with a u8 status
 * (ErrorCode) and a u8 result-flags byte (hit / inserted / evicted);
 * when status == Ok, GET adds the u64 value and PUT adds the walk cost
 * (u32 candidates, u32 relocations) plus the evicted key/value pair
 * (zeros unless the evicted flag is set).
 *
 * Byte-payload frames (flags bit 2, kFrameFlagBytes) are the wire form
 * of the store's bytes mode (docs/compression.md): a PUT request's
 * value becomes [u16 len][len bytes] after the key, and a GET response
 * with status == Ok becomes [u16 len][len bytes] in place of the u64
 * value (len = 0 on a miss). GET/ERASE/PING requests and PUT/ERASE/
 * PING responses keep their fixed layouts — the flag on them only
 * declares which mode the sender speaks, so a mode mismatch is caught
 * at dispatch, not mis-parsed. Lengths above kMaxValueBytes are
 * rejected (InvalidArgument), and a declared length that disagrees
 * with the actual frame size is Corruption.
 *
 * Encoding is one pass: an encoder sizes the frame, grows the output
 * once and writes every field through a pointer (tests/test_net.cpp
 * pins the bytes of each frame shape).
 *
 * Decoding is streaming-friendly: decodeRequest / decodeResponse
 * consume at most one frame from a byte window, returning 0 when the
 * window holds only a partial frame (read more and retry) and a
 * structured Status for unrecoverable framing errors, with exact codes
 * the tests pin down (tests/test_net.cpp):
 *
 *   - Corruption        bad magic, payload-length mismatch, CRC
 *                       mismatch, or a frame shorter than its header
 *   - Unsupported       unknown protocol version
 *   - InvalidArgument   oversized frame (len > kMaxFrameBody) or an
 *                       unknown message type
 *   - Truncated         (helper truncatedAtEof) a connection that
 *                       ended mid-frame
 *
 * A framing error means the byte stream is desynchronized; the server
 * closes the connection rather than guess at a resync point.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace zc::net {

inline constexpr std::uint8_t kProtoMagic = 0x5A;
inline constexpr std::uint8_t kProtoVersion = 1;

/** Frame header bytes after the u32 length prefix. */
inline constexpr std::size_t kHeaderBytes = 12;

/** Hard ceiling on a frame body (header + payload + crc). */
inline constexpr std::size_t kMaxFrameBody = 256;

/**
 * Largest byte-payload value a frame can carry. Sized so the biggest
 * bytes-mode frame — a PUT request: header + u64 key + u16 length +
 * payload + optional CRC — still fits kMaxFrameBody, which the
 * static_assert pins down. The store's kZkvMaxValueBytes mirrors this
 * (asserted equal where both headers meet, src/net/server.cpp).
 */
inline constexpr std::size_t kMaxValueBytes = 224;

static_assert(kHeaderBytes + 8 + 2 + kMaxValueBytes + 4 <= kMaxFrameBody,
              "a max-size bytes PUT request must fit one frame");

/**
 * How long an endpoint that expects bytes polls for them before it
 * blocks: the serve loop after its last event (ZkvServer::serve), a
 * client after it has written its queue (ZkvClient::recvResponse). It
 * must exceed the gap between a response leaving the server and a lone
 * client's next request arriving; the value and the gap it was chosen
 * from are in docs/server.md.
 */
inline constexpr std::uint64_t kPollBudgetNs = 50'000;

/** Frame flag bits. */
enum : std::uint8_t {
    kFrameFlagCrc = 1u << 0,   ///< body ends with a CRC-32
    kFrameFlagResp = 1u << 1,  ///< response frame (server -> client)
    kFrameFlagBytes = 1u << 2, ///< byte-payload (bytes-mode) frame
};

/** Response result-flag bits (Response::rflags). */
enum : std::uint8_t {
    kRespFlagHit = 1u << 0,      ///< get/erase found the key
    kRespFlagInserted = 1u << 1, ///< put installed a new key
    kRespFlagEvicted = 1u << 2,  ///< insert displaced a resident key
};

enum class MsgType : std::uint8_t {
    Get = 0,
    Put = 1,
    Erase = 2,
    Ping = 3,
};

inline const char*
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::Get: return "get";
      case MsgType::Put: return "put";
      case MsgType::Erase: return "erase";
      case MsgType::Ping: return "ping";
    }
    return "?";
}

/** One decoded request frame. */
struct Request
{
    MsgType type = MsgType::Ping;
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    std::uint64_t value = 0; ///< puts only (fixed-u64 mode)

    /**
     * Byte-payload PUT value (bytes mode, valid iff `bytes`). OWNED:
     * the server keeps decoded requests past the read buffer's
     * compaction, so the payload never aliases the connection buffer.
     * A reused Request keeps its capacity (decodeRequest).
     */
    std::vector<std::uint8_t> valueBytes;

    bool bytes = false; ///< kFrameFlagBytes was set
    bool crc = false;   ///< frame carried (and passed) a CRC
};

/** One decoded response frame. */
struct Response
{
    MsgType type = MsgType::Ping;
    std::uint64_t id = 0;
    ErrorCode status = ErrorCode::Ok;
    std::uint8_t rflags = 0;

    std::uint64_t value = 0; ///< get payload (valid iff kRespFlagHit)

    /** Byte-payload GET result (bytes mode; empty on a miss). OWNED,
     *  like Request::valueBytes. */
    std::vector<std::uint8_t> valueBytes;

    /** Put walk cost + evicted pair (docs/store.md). */
    std::uint32_t candidates = 0;
    std::uint32_t relocations = 0;
    std::uint64_t evictedKey = 0;
    std::uint64_t evictedValue = 0;

    bool bytes = false; ///< kFrameFlagBytes was set
    bool crc = false;   ///< frame carried (and passed) a CRC

    bool hit() const { return (rflags & kRespFlagHit) != 0; }
    bool inserted() const { return (rflags & kRespFlagInserted) != 0; }
    bool evicted() const { return (rflags & kRespFlagEvicted) != 0; }
};

/** Append @p req as a complete frame (with CRC iff req.crc) to @p out. */
void encodeRequest(const Request& req, std::vector<std::uint8_t>& out);

/**
 * Append @p resp as a complete frame (with CRC iff resp.crc), with
 * @p valueBytes as the bytes-mode GET payload; resp.valueBytes is not
 * read. The server encodes straight from its batch results this way.
 */
void encodeResponse(const Response& resp,
                    std::span<const std::uint8_t> valueBytes,
                    std::vector<std::uint8_t>& out);

/** Append @p resp as a complete frame (with CRC iff resp.crc). */
inline void
encodeResponse(const Response& resp, std::vector<std::uint8_t>& out)
{
    encodeResponse(resp, resp.valueBytes, out);
}

/**
 * Try to decode one request frame from the first @p n bytes at @p p.
 * Returns the byte count consumed (> 0, frame complete), 0 when the
 * window holds only a partial frame, or a Status for a fatal framing
 * error (see the file comment for the exact codes).
 *
 * *out is filled in place, every field of it, so a reused Request
 * keeps its payload buffer's capacity and carries nothing over from
 * the frame before. It is untouched unless a whole frame decodes: the
 * frame is validated before the first write.
 */
Expected<std::size_t> decodeRequest(const std::uint8_t* p, std::size_t n,
                                    Request* out);

/** decodeRequest's twin for response frames. */
Expected<std::size_t> decodeResponse(const std::uint8_t* p, std::size_t n,
                                     Response* out);

/** The Status a reader reports when its stream ends mid-frame. */
inline Status
truncatedAtEof(std::size_t have)
{
    return Status::truncated("net: connection closed mid-frame (" +
                             std::to_string(have) +
                             " byte(s) of an incomplete frame buffered)");
}

} // namespace zc::net
