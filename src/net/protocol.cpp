/**
 * @file
 * Wire-protocol encode/decode (see protocol.hpp for the byte layout).
 * Integers are stored little-endian whatever the host, so frames are
 * identical across host endianness; the CRC is computed over the body
 * (header + payload) exactly as it appears on the wire. An encoder
 * sizes its frame first and writes it in one pass; a decoder validates
 * the whole frame before it writes its output.
 */

#include "net/protocol.hpp"

#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/log.hpp"

namespace zc::net {

namespace {

// The byte loops are unrolled so that GCC merges each into one load or
// store at -O2 and up. Without the pragma, GCC 12 leaves 8-byte loads
// (and, at -O2, 8-byte stores) byte at a time.

/** Store @p v little-endian at @p p; returns the byte after it. */
template <class T>
std::uint8_t*
putLe(std::uint8_t* p, T v)
{
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); i++) {
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return p + sizeof(T);
}

/** Load a little-endian T from @p p. */
template <class T>
T
getLe(const std::uint8_t* p)
{
    T v = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < sizeof(T); i++) {
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    }
    return v;
}

/** Copy a byte payload to @p p; returns the byte after it. */
std::uint8_t*
putRaw(std::uint8_t* p, std::span<const std::uint8_t> bytes)
{
    if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
    return p + bytes.size();
}

std::size_t
requestPayloadBytes(MsgType t)
{
    switch (t) {
      case MsgType::Get:
      case MsgType::Erase: return 8;
      case MsgType::Put: return 16;
      case MsgType::Ping: return 0;
    }
    return 0;
}

std::size_t
responsePayloadBytes(MsgType t, ErrorCode status)
{
    // Every response starts with [status u8][rflags u8]; error
    // responses stop there.
    if (status != ErrorCode::Ok) return 2;
    switch (t) {
      case MsgType::Get: return 2 + 8;
      case MsgType::Put: return 2 + 4 + 4 + 8 + 8;
      case MsgType::Erase:
      case MsgType::Ping: return 2;
    }
    return 2;
}

/**
 * Append one frame with @p payload payload bytes to @p out: grow it
 * once, write the length prefix and the header, let @p fill write the
 * payload (it returns the byte after what it wrote), then write the
 * CRC over the body as written iff @p flags ask for one.
 */
template <class Fill>
void
appendFrame(std::vector<std::uint8_t>& out, MsgType type, std::uint8_t flags,
            std::uint64_t id, std::size_t payload, Fill fill)
{
    const bool crc = (flags & kFrameFlagCrc) != 0;
    const std::size_t body = kHeaderBytes + payload + (crc ? 4 : 0);
    const std::size_t start = out.size();
    out.resize(start + 4 + body);
    std::uint8_t* const h =
        putLe(out.data() + start, static_cast<std::uint32_t>(body));
    h[0] = kProtoMagic;
    h[1] = kProtoVersion;
    h[2] = static_cast<std::uint8_t>(type);
    h[3] = flags;
    std::uint8_t* const end = fill(putLe(h + 4, id));
    zc_assert(end == h + kHeaderBytes + payload);
    if (crc) putLe(end, Crc32::of(h, kHeaderBytes + payload));
}

/**
 * Shared header validation: consumes nothing; on success sets *body to
 * the frame's body length (the window is known to hold it all).
 * Returns consumed=0 ("need more bytes") via the bool.
 */
Expected<bool>
checkFrame(const std::uint8_t* p, std::size_t n, bool expect_response,
           std::size_t* body_out)
{
    if (n < 4) return false;
    std::size_t body = getLe<std::uint32_t>(p);
    if (body > kMaxFrameBody) {
        return Status::invalidArgument(
            "net: oversized frame (body " + std::to_string(body) +
            " > max " + std::to_string(kMaxFrameBody) + ")");
    }
    if (body < kHeaderBytes) {
        return Status::corruption(
            "net: frame body " + std::to_string(body) +
            " shorter than the " + std::to_string(kHeaderBytes) +
            "-byte header");
    }
    if (n < 4 + body) return false;

    const std::uint8_t* h = p + 4;
    if (h[0] != kProtoMagic) {
        return Status::corruption("net: bad frame magic 0x" + [&] {
            char buf[3];
            std::snprintf(buf, sizeof(buf), "%02x", h[0]);
            return std::string(buf);
        }());
    }
    if (h[1] != kProtoVersion) {
        return Status::unsupported(
            "net: protocol version " + std::to_string(h[1]) +
            " (this build speaks version " +
            std::to_string(kProtoVersion) + ")");
    }
    if (h[2] > static_cast<std::uint8_t>(MsgType::Ping)) {
        return Status::invalidArgument("net: unknown message type " +
                                       std::to_string(h[2]));
    }
    const std::uint8_t flags = h[3];
    const bool is_resp = (flags & kFrameFlagResp) != 0;
    if (is_resp != expect_response) {
        return Status::corruption(
            is_resp ? "net: response frame on the request stream"
                    : "net: request frame on the response stream");
    }
    if (flags & kFrameFlagCrc) {
        if (body < kHeaderBytes + 4) {
            return Status::corruption(
                "net: CRC flag set on a frame too short to carry one");
        }
        std::uint32_t want = getLe<std::uint32_t>(p + 4 + body - 4);
        std::uint32_t got = Crc32::of(p + 4, body - 4);
        if (want != got) {
            return Status::corruption(
                "net: frame CRC mismatch (stored " +
                std::to_string(want) + ", computed " +
                std::to_string(got) + ")");
        }
    }
    *body_out = body;
    return true;
}

} // namespace

void
encodeRequest(const Request& req, std::vector<std::uint8_t>& out)
{
    const bool var_len = req.bytes && req.type == MsgType::Put;
    const std::span<const std::uint8_t> bytes(req.valueBytes);
    if (var_len) zc_assert(bytes.size() <= kMaxValueBytes);
    const auto flags = static_cast<std::uint8_t>(
        (req.crc ? kFrameFlagCrc : 0) | (req.bytes ? kFrameFlagBytes : 0));
    const std::size_t payload =
        var_len ? 8 + 2 + bytes.size() : requestPayloadBytes(req.type);
    appendFrame(out, req.type, flags, req.id, payload, [&](std::uint8_t* p) {
        if (req.type == MsgType::Ping) return p;
        p = putLe(p, req.key);
        if (req.type != MsgType::Put) return p;
        if (!var_len) return putLe(p, req.value);
        p = putLe(p, static_cast<std::uint16_t>(bytes.size()));
        return putRaw(p, bytes);
    });
}

void
encodeResponse(const Response& resp, std::span<const std::uint8_t> valueBytes,
               std::vector<std::uint8_t>& out)
{
    const bool ok = resp.status == ErrorCode::Ok;
    const bool var_len = ok && resp.bytes && resp.type == MsgType::Get;
    if (var_len) zc_assert(valueBytes.size() <= kMaxValueBytes);
    const auto flags = static_cast<std::uint8_t>(
        kFrameFlagResp | (resp.crc ? kFrameFlagCrc : 0) |
        (resp.bytes ? kFrameFlagBytes : 0));
    const std::size_t payload =
        var_len ? 2 + 2 + valueBytes.size()
                : responsePayloadBytes(resp.type, resp.status);
    appendFrame(out, resp.type, flags, resp.id, payload, [&](std::uint8_t* p) {
        *p++ = static_cast<std::uint8_t>(resp.status);
        *p++ = resp.rflags;
        if (!ok) return p;
        switch (resp.type) {
          case MsgType::Get:
            if (!var_len) return putLe(p, resp.value);
            p = putLe(p, static_cast<std::uint16_t>(valueBytes.size()));
            return putRaw(p, valueBytes);
          case MsgType::Put:
            p = putLe(p, resp.candidates);
            p = putLe(p, resp.relocations);
            p = putLe(p, resp.evictedKey);
            return putLe(p, resp.evictedValue);
          case MsgType::Erase:
          case MsgType::Ping: break;
        }
        return p;
    });
}

Expected<std::size_t>
decodeRequest(const std::uint8_t* p, std::size_t n, Request* out)
{
    std::size_t body = 0;
    auto ok = checkFrame(p, n, /*expect_response=*/false, &body);
    if (!ok) return ok.status();
    if (!*ok) return std::size_t{0};

    const std::uint8_t* h = p + 4;
    const auto type = static_cast<MsgType>(h[2]);
    const bool bytes = (h[3] & kFrameFlagBytes) != 0;
    const bool crc = (h[3] & kFrameFlagCrc) != 0;
    const std::uint8_t* pl = h + kHeaderBytes;
    const std::size_t crc_bytes = crc ? 4 : 0;
    const bool var_len = bytes && type == MsgType::Put;
    std::size_t len = 0;
    if (var_len) {
        // Variable-length payload: key + u16 length + that many bytes.
        if (body < kHeaderBytes + 10 + crc_bytes) {
            return Status::corruption(
                "net: bytes put request too short for its key and "
                "length fields");
        }
        len = getLe<std::uint16_t>(pl + 8);
        if (len > kMaxValueBytes) {
            return Status::invalidArgument(
                "net: bytes put value length " + std::to_string(len) +
                " exceeds the " + std::to_string(kMaxValueBytes) +
                "-byte cap");
        }
        if (body != kHeaderBytes + 10 + len + crc_bytes) {
            return Status::corruption(
                "net: bytes put request body is " + std::to_string(body) +
                " bytes, want " +
                std::to_string(kHeaderBytes + 10 + len + crc_bytes) +
                " for its declared value length");
        }
    } else if (const std::size_t payload = requestPayloadBytes(type);
               body != kHeaderBytes + payload + crc_bytes) {
        return Status::corruption(
            "net: " + std::string(msgTypeName(type)) +
            " request body is " + std::to_string(body) + " bytes, want " +
            std::to_string(kHeaderBytes + payload + crc_bytes));
    }

    // The frame is whole and valid: fill *out.
    out->type = type;
    out->id = getLe<std::uint64_t>(h + 4);
    out->key = type != MsgType::Ping ? getLe<std::uint64_t>(pl) : 0;
    out->value = type == MsgType::Put && !var_len
                     ? getLe<std::uint64_t>(pl + 8)
                     : 0;
    if (var_len) {
        out->valueBytes.assign(pl + 10, pl + 10 + len);
    } else {
        out->valueBytes.clear();
    }
    out->bytes = bytes;
    out->crc = crc;
    return 4 + body;
}

Expected<std::size_t>
decodeResponse(const std::uint8_t* p, std::size_t n, Response* out)
{
    std::size_t body = 0;
    auto ok = checkFrame(p, n, /*expect_response=*/true, &body);
    if (!ok) return ok.status();
    if (!*ok) return std::size_t{0};

    const std::uint8_t* h = p + 4;
    Response resp;
    resp.type = static_cast<MsgType>(h[2]);
    resp.bytes = (h[3] & kFrameFlagBytes) != 0;
    resp.crc = (h[3] & kFrameFlagCrc) != 0;
    resp.id = getLe<std::uint64_t>(h + 4);

    const std::uint8_t* pl = h + kHeaderBytes;
    const std::size_t crc_bytes = resp.crc ? 4 : 0;
    if (body < kHeaderBytes + 2 + crc_bytes) {
        return Status::corruption(
            "net: response body too short for status bytes");
    }
    const std::uint8_t status_raw = pl[0];
    if (status_raw > static_cast<std::uint8_t>(ErrorCode::Internal)) {
        return Status::corruption("net: response status byte " +
                                  std::to_string(status_raw) +
                                  " is not an ErrorCode");
    }
    resp.status = static_cast<ErrorCode>(status_raw);
    resp.rflags = pl[1];

    if (resp.bytes && resp.type == MsgType::Get &&
        resp.status == ErrorCode::Ok) {
        // Variable-length payload: u16 length + that many bytes.
        if (body < kHeaderBytes + 4 + crc_bytes) {
            return Status::corruption(
                "net: bytes get response too short for its length "
                "field");
        }
        const std::size_t len = getLe<std::uint16_t>(pl + 2);
        if (len > kMaxValueBytes) {
            return Status::invalidArgument(
                "net: bytes get value length " + std::to_string(len) +
                " exceeds the " + std::to_string(kMaxValueBytes) +
                "-byte cap");
        }
        if (body != kHeaderBytes + 4 + len + crc_bytes) {
            return Status::corruption(
                "net: bytes get response body is " +
                std::to_string(body) + " bytes, want " +
                std::to_string(kHeaderBytes + 4 + len + crc_bytes) +
                " for its declared value length");
        }
        resp.valueBytes.assign(pl + 4, pl + 4 + len);
        *out = std::move(resp);
        return 4 + body;
    }

    const std::size_t payload = responsePayloadBytes(resp.type, resp.status);
    if (body != kHeaderBytes + payload + crc_bytes) {
        return Status::corruption(
            "net: " + std::string(msgTypeName(resp.type)) +
            " response body is " + std::to_string(body) +
            " bytes, want " +
            std::to_string(kHeaderBytes + payload + crc_bytes));
    }
    if (resp.status == ErrorCode::Ok) {
        switch (resp.type) {
          case MsgType::Get: resp.value = getLe<std::uint64_t>(pl + 2); break;
          case MsgType::Put:
            resp.candidates = getLe<std::uint32_t>(pl + 2);
            resp.relocations = getLe<std::uint32_t>(pl + 6);
            resp.evictedKey = getLe<std::uint64_t>(pl + 10);
            resp.evictedValue = getLe<std::uint64_t>(pl + 18);
            break;
          case MsgType::Erase:
          case MsgType::Ping: break;
        }
    }
    *out = resp;
    return 4 + body;
}

} // namespace zc::net
