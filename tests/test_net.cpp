/**
 * @file
 * Networked-zkv tests (docs/server.md): wire-protocol round trips for
 * every (type, direction, crc) combination; exact structured error
 * codes for truncated, corrupt, oversized and unknown-type frames;
 * streaming decode over split byte windows; an end-to-end localhost
 * server whose read-your-writes view matches a direct ZkvStore built
 * from the identical config; pipelined per-connection ordering;
 * graceful-drain delivery of in-flight responses and every response
 * to a half-closed peer; the loop's poll and park rounds; a client
 * decoding many responses per read, writing its queued requests only
 * when it waits, and polling before it blocks unless it was connected
 * on one CPU; and the net.* fault sites (docs/robustness.md) surfacing
 * as structured failures, not crashes.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/openloop.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "store/zkv.hpp"
#include "window_check.hpp"

namespace zc::net {
namespace {

ZkvConfig
tinyStore(std::uint32_t shards = 4, std::uint32_t blocks = 64)
{
    ZkvConfig cfg;
    cfg.shards = shards;
    cfg.array.kind = ArrayKind::ZCache;
    cfg.array.blocks = blocks;
    cfg.array.ways = 4;
    cfg.array.levels = 2;
    cfg.array.policy = PolicyKind::Lru;
    cfg.array.seed = 0xbeef;
    return cfg;
}

/** A live server on an ephemeral port with its loop on its own thread. */
class ServerFixture
{
  public:
    explicit ServerFixture(ZkvServerConfig cfg = {})
    {
        if (cfg.store.array.blocks == 0) cfg.store = tinyStore();
        cfg.port = 0;
        auto s = ZkvServer::create(cfg);
        EXPECT_TRUE(s.hasValue()) << s.status().str();
        server_ = std::move(*s);
        loop_ = std::thread([this] { serveStatus_ = server_->serve(); });
    }

    ~ServerFixture()
    {
        stop();
    }

    void
    stop()
    {
        if (loop_.joinable()) {
            server_->shutdown();
            loop_.join();
            EXPECT_TRUE(serveStatus_.isOk()) << serveStatus_.str();
        }
    }

    std::unique_ptr<ZkvClient>
    client(bool crc = false)
    {
        ZkvClientConfig c;
        c.port = server_->port();
        c.crc = crc;
        auto cl = ZkvClient::connect(c);
        EXPECT_TRUE(cl.hasValue()) << cl.status().str();
        return std::move(*cl);
    }

    ZkvServer& server() { return *server_; }

  private:
    std::unique_ptr<ZkvServer> server_;
    std::thread loop_;
    Status serveStatus_;
};

// ---------------------------------------------------------------------
// Protocol: encode/decode round trips.

TEST(NetProtocol, RequestRoundTripAllTypesAndCrc)
{
    Pcg32 rng(7, 7);
    for (auto type : {MsgType::Get, MsgType::Put, MsgType::Erase,
                      MsgType::Ping}) {
        for (bool crc : {false, true}) {
            for (int i = 0; i < 64; i++) {
                Request req;
                req.type = type;
                req.id = rng.next64();
                req.key = rng.next64();
                if (type == MsgType::Put) req.value = rng.next64();
                req.crc = crc;

                std::vector<std::uint8_t> buf;
                encodeRequest(req, buf);

                Request got;
                auto n = decodeRequest(buf.data(), buf.size(), &got);
                ASSERT_TRUE(n.hasValue()) << n.status().str();
                EXPECT_EQ(*n, buf.size());
                EXPECT_EQ(got.type, req.type);
                EXPECT_EQ(got.id, req.id);
                if (type != MsgType::Ping) {
                    EXPECT_EQ(got.key, req.key);
                }
                if (type == MsgType::Put) {
                    EXPECT_EQ(got.value, req.value);
                }
                EXPECT_EQ(got.crc, crc);
            }
        }
    }
}

TEST(NetProtocol, ResponseRoundTripAllShapes)
{
    Pcg32 rng(11, 3);
    for (auto type : {MsgType::Get, MsgType::Put, MsgType::Erase,
                      MsgType::Ping}) {
        for (bool crc : {false, true}) {
            for (int i = 0; i < 64; i++) {
                Response resp;
                resp.type = type;
                resp.id = rng.next64();
                resp.status = ErrorCode::Ok;
                resp.rflags = static_cast<std::uint8_t>(rng.next64() & 7);
                if (type == MsgType::Get) resp.value = rng.next64();
                if (type == MsgType::Put) {
                    resp.candidates =
                        static_cast<std::uint32_t>(rng.next64());
                    resp.relocations =
                        static_cast<std::uint32_t>(rng.next64());
                    resp.evictedKey = rng.next64();
                    resp.evictedValue = rng.next64();
                }
                resp.crc = crc;

                std::vector<std::uint8_t> buf;
                encodeResponse(resp, buf);

                Response got;
                auto n = decodeResponse(buf.data(), buf.size(), &got);
                ASSERT_TRUE(n.hasValue()) << n.status().str();
                EXPECT_EQ(*n, buf.size());
                EXPECT_EQ(got.type, resp.type);
                EXPECT_EQ(got.id, resp.id);
                EXPECT_EQ(got.status, resp.status);
                EXPECT_EQ(got.rflags, resp.rflags);
                EXPECT_EQ(got.value, resp.value);
                EXPECT_EQ(got.candidates, resp.candidates);
                EXPECT_EQ(got.relocations, resp.relocations);
                EXPECT_EQ(got.evictedKey, resp.evictedKey);
                EXPECT_EQ(got.evictedValue, resp.evictedValue);
                EXPECT_EQ(got.crc, crc);
            }
        }
    }
}

TEST(NetProtocol, ErrorResponseCarriesStatusByte)
{
    Response resp;
    resp.type = MsgType::Put;
    resp.id = 9;
    resp.status = ErrorCode::ResourceExhausted;

    std::vector<std::uint8_t> buf;
    encodeResponse(resp, buf);

    Response got;
    auto n = decodeResponse(buf.data(), buf.size(), &got);
    ASSERT_TRUE(n.hasValue()) << n.status().str();
    EXPECT_EQ(got.status, ErrorCode::ResourceExhausted);
}

/** Streaming contract: every prefix shorter than the frame decodes to
 *  0 (partial, read more); trailing bytes are left unconsumed. */
TEST(NetProtocol, PartialWindowsAndBackToBackFrames)
{
    Request a;
    a.type = MsgType::Put;
    a.id = 1;
    a.key = 42;
    a.value = 99;
    a.crc = true;
    Request b;
    b.type = MsgType::Get;
    b.id = 2;
    b.key = 42;

    std::vector<std::uint8_t> buf;
    encodeRequest(a, buf);
    const std::size_t frameA = buf.size();
    encodeRequest(b, buf);

    Request got;
    for (std::size_t n = 0; n < frameA; n++) {
        auto r = decodeRequest(buf.data(), n, &got);
        ASSERT_TRUE(r.hasValue()) << "prefix " << n << ": "
                                  << r.status().str();
        EXPECT_EQ(*r, 0u) << "prefix " << n;
    }

    auto r1 = decodeRequest(buf.data(), buf.size(), &got);
    ASSERT_TRUE(r1.hasValue());
    EXPECT_EQ(*r1, frameA);
    EXPECT_EQ(got.id, 1u);
    auto r2 = decodeRequest(buf.data() + *r1, buf.size() - *r1, &got);
    ASSERT_TRUE(r2.hasValue());
    EXPECT_EQ(*r2, buf.size() - frameA);
    EXPECT_EQ(got.id, 2u);
}

// ---------------------------------------------------------------------
// Protocol: the bytes on the wire.

/** @p hex as bytes; spaces, which separate the fields, are skipped. */
std::vector<std::uint8_t>
fromHex(std::string_view hex)
{
    const auto nibble = [](char c) {
        return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    };
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < hex.size(); i++) {
        if (hex[i] == ' ') continue;
        out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 |
                                                nibble(hex[i + 1])));
        i++;
    }
    return out;
}

/** Every field of a request or response, for whole-value checks. */
auto
fields(const Request& r)
{
    return std::tuple(static_cast<int>(r.type), r.id, r.key, r.value,
                      r.valueBytes, r.bytes, r.crc);
}

auto
fields(const Response& r)
{
    return std::tuple(static_cast<int>(r.type), r.id,
                      static_cast<int>(r.status), r.rflags, r.value,
                      r.valueBytes, r.candidates, r.relocations,
                      r.evictedKey, r.evictedValue, r.bytes, r.crc);
}

/**
 * One frame of each shape, with and without CRC, against bytes written
 * from the layout in docs/server.md: little-endian, `len` counts the
 * body after it, and the CRC-32 covers header and payload. Spaces in
 * the literals separate prefix, header, id, payload fields and CRC. A
 * round trip alone would pass a mistake that the encoder and the
 * decoder make the same way.
 */
TEST(NetProtocol, EncodersEmitTheDocumentedBytes)
{
    constexpr std::uint64_t kId = 0x0102030405060708ull;
    constexpr std::uint64_t kKey = 0x1122334455667788ull;
    constexpr std::uint64_t kValue = 0x99aabbccddeeff00ull;

    struct ReqCase
    {
        Request req;
        const char* plain;
        const char* crc;
    };
    const ReqCase reqs[] = {
        {{.type = MsgType::Get, .id = kId, .key = kKey, .valueBytes = {}},
         "14000000 5a010000 0807060504030201 8877665544332211",
         "18000000 5a010001 0807060504030201 8877665544332211 2ca43921"},
        {{.type = MsgType::Put,
          .id = kId,
          .key = kKey,
          .value = kValue,
          .valueBytes = {}},
         "1c000000 5a010100 0807060504030201 8877665544332211 "
         "00ffeeddccbbaa99",
         "20000000 5a010101 0807060504030201 8877665544332211 "
         "00ffeeddccbbaa99 ad1d60a7"},
        {{.type = MsgType::Put,
          .id = kId,
          .key = kKey,
          .valueBytes = {0xde, 0xad, 0xbe, 0xef, 0x01},
          .bytes = true},
         "1b000000 5a010104 0807060504030201 8877665544332211 0500 "
         "deadbeef01",
         "1f000000 5a010105 0807060504030201 8877665544332211 0500 "
         "deadbeef01 7be013d5"},
        {{.type = MsgType::Erase, .id = kId, .key = kKey, .valueBytes = {}},
         "14000000 5a010200 0807060504030201 8877665544332211",
         "18000000 5a010201 0807060504030201 8877665544332211 afcfed24"},
        {{.type = MsgType::Ping, .id = kId, .valueBytes = {}},
         "0c000000 5a010300 0807060504030201",
         "10000000 5a010301 0807060504030201 ce36b550"},
    };
    for (const ReqCase& c : reqs) {
        for (bool crc : {false, true}) {
            Request want = c.req;
            want.crc = crc;
            const std::vector<std::uint8_t> wire =
                fromHex(crc ? c.crc : c.plain);
            SCOPED_TRACE(std::string(msgTypeName(want.type)) + " request" +
                         (want.bytes ? ", bytes" : "") +
                         (crc ? ", crc" : ""));
            std::vector<std::uint8_t> buf;
            encodeRequest(want, buf);
            EXPECT_EQ(buf, wire);
            Request got;
            auto n = decodeRequest(wire.data(), wire.size(), &got);
            ASSERT_TRUE(n.hasValue()) << n.status().str();
            EXPECT_EQ(*n, wire.size());
            EXPECT_EQ(fields(got), fields(want));
        }
    }

    struct RespCase
    {
        Response resp;
        const char* plain;
        const char* crc;
    };
    const RespCase resps[] = {
        {{.type = MsgType::Get,
          .id = kId,
          .rflags = kRespFlagHit,
          .value = kValue,
          .valueBytes = {}},
         "16000000 5a010002 0807060504030201 00 01 00ffeeddccbbaa99",
         "1a000000 5a010003 0807060504030201 00 01 00ffeeddccbbaa99 "
         "d635c44e"},
        {{.type = MsgType::Get,
          .id = kId,
          .rflags = kRespFlagHit,
          .valueBytes = {0x0a, 0x0b, 0x0c},
          .bytes = true},
         "13000000 5a010006 0807060504030201 00 01 0300 0a0b0c",
         "17000000 5a010007 0807060504030201 00 01 0300 0a0b0c fddc65ab"},
        {{.type = MsgType::Get, .id = kId, .valueBytes = {}, .bytes = true},
         "10000000 5a010006 0807060504030201 00 00 0000",
         "14000000 5a010007 0807060504030201 00 00 0000 042e6db9"},
        {{.type = MsgType::Put,
          .id = kId,
          .rflags = kRespFlagInserted | kRespFlagEvicted,
          .valueBytes = {},
          .candidates = 52,
          .relocations = 3,
          .evictedKey = 0x0123456789abcdefull,
          .evictedValue = 0xfedcba9876543210ull},
         "26000000 5a010102 0807060504030201 00 06 34000000 03000000 "
         "efcdab8967452301 1032547698badcfe",
         "2a000000 5a010103 0807060504030201 00 06 34000000 03000000 "
         "efcdab8967452301 1032547698badcfe a29022f1"},
        {{.type = MsgType::Erase,
          .id = kId,
          .rflags = kRespFlagHit,
          .valueBytes = {}},
         "0e000000 5a010202 0807060504030201 00 01",
         "12000000 5a010203 0807060504030201 00 01 2be8d46f"},
        {{.type = MsgType::Ping, .id = kId, .valueBytes = {}},
         "0e000000 5a010302 0807060504030201 00 00",
         "12000000 5a010303 0807060504030201 00 00 d2947683"},
        // An error response stops after its status and flag bytes.
        {{.type = MsgType::Put,
          .id = kId,
          .status = ErrorCode::ResourceExhausted,
          .valueBytes = {}},
         "0e000000 5a010102 0807060504030201 07 00",
         "12000000 5a010103 0807060504030201 07 00 8a9c0c20"},
    };
    for (const RespCase& c : resps) {
        for (bool crc : {false, true}) {
            Response want = c.resp;
            want.crc = crc;
            const std::vector<std::uint8_t> wire =
                fromHex(crc ? c.crc : c.plain);
            SCOPED_TRACE(std::string(msgTypeName(want.type)) +
                         " response, status " +
                         errorCodeName(want.status) +
                         (want.bytes ? ", bytes" : "") +
                         (crc ? ", crc" : ""));
            std::vector<std::uint8_t> buf;
            encodeResponse(want, buf);
            EXPECT_EQ(buf, wire);
            Response got;
            auto n = decodeResponse(wire.data(), wire.size(), &got);
            ASSERT_TRUE(n.hasValue()) << n.status().str();
            EXPECT_EQ(*n, wire.size());
            EXPECT_EQ(fields(got), fields(want));
        }
    }
}

// ---------------------------------------------------------------------
// Protocol: exact error codes for malformed frames.

std::vector<std::uint8_t>
goodFrame(bool crc = false)
{
    Request req;
    req.type = MsgType::Put;
    req.id = 5;
    req.key = 10;
    req.value = 20;
    req.crc = crc;
    std::vector<std::uint8_t> buf;
    encodeRequest(req, buf);
    return buf;
}

ErrorCode
decodeErr(const std::vector<std::uint8_t>& buf)
{
    Request got;
    auto r = decodeRequest(buf.data(), buf.size(), &got);
    EXPECT_FALSE(r.hasValue()) << "decode unexpectedly consumed " << *r;
    return r.hasValue() ? ErrorCode::Ok : r.status().code();
}

TEST(NetProtocolErrors, BadMagicIsCorruption)
{
    auto buf = goodFrame();
    buf[4] = 0x00; // magic byte, right after the u32 length prefix
    EXPECT_EQ(decodeErr(buf), ErrorCode::Corruption);
}

TEST(NetProtocolErrors, UnknownVersionIsUnsupported)
{
    auto buf = goodFrame();
    buf[5] = kProtoVersion + 1;
    EXPECT_EQ(decodeErr(buf), ErrorCode::Unsupported);
}

TEST(NetProtocolErrors, UnknownTypeIsInvalidArgument)
{
    auto buf = goodFrame();
    buf[6] = 0x7f;
    EXPECT_EQ(decodeErr(buf), ErrorCode::InvalidArgument);
}

TEST(NetProtocolErrors, OversizedFrameIsInvalidArgument)
{
    std::vector<std::uint8_t> buf(4 + kMaxFrameBody + 1, 0);
    const std::uint32_t len =
        static_cast<std::uint32_t>(kMaxFrameBody + 1);
    buf[0] = static_cast<std::uint8_t>(len);
    buf[1] = static_cast<std::uint8_t>(len >> 8);
    buf[2] = static_cast<std::uint8_t>(len >> 16);
    buf[3] = static_cast<std::uint8_t>(len >> 24);
    EXPECT_EQ(decodeErr(buf), ErrorCode::InvalidArgument);
}

TEST(NetProtocolErrors, BodyShorterThanHeaderIsCorruption)
{
    // Claimed body length below the 12 header bytes; ship that many
    // zero bytes so the frame is "complete" but structurally short.
    std::vector<std::uint8_t> buf(4 + 4, 0);
    buf[0] = 4;
    EXPECT_EQ(decodeErr(buf), ErrorCode::Corruption);
}

TEST(NetProtocolErrors, PayloadLengthMismatchIsCorruption)
{
    auto buf = goodFrame();
    // Shrink the claimed body length by one: the PUT payload no longer
    // fits the (type, flags) contract.
    buf[0] = static_cast<std::uint8_t>(buf[0] - 1);
    buf.pop_back();
    EXPECT_EQ(decodeErr(buf), ErrorCode::Corruption);
}

TEST(NetProtocolErrors, CrcMismatchIsCorruption)
{
    auto buf = goodFrame(/*crc=*/true);
    buf[buf.size() - 1] ^= 0xff; // flip a CRC byte
    EXPECT_EQ(decodeErr(buf), ErrorCode::Corruption);

    buf = goodFrame(/*crc=*/true);
    buf[16] ^= 0x01; // flip a payload byte under the CRC
    EXPECT_EQ(decodeErr(buf), ErrorCode::Corruption);
}

TEST(NetProtocolErrors, TruncatedAtEofHelper)
{
    EXPECT_EQ(truncatedAtEof(3).code(), ErrorCode::Truncated);
}

// ---------------------------------------------------------------------
// Bytes mode (kFrameFlagBytes, docs/compression.md).

TEST(NetProtocolBytes, PutRequestAndGetResponseRoundTrip)
{
    Pcg32 rng(13, 5);
    for (bool crc : {false, true}) {
        for (std::size_t len :
             {std::size_t{0}, std::size_t{1}, std::size_t{100},
              kMaxValueBytes}) {
            Request req;
            req.type = MsgType::Put;
            req.id = rng.next64();
            req.key = rng.next64();
            req.bytes = true;
            req.valueBytes.resize(len);
            for (auto& b : req.valueBytes) {
                b = static_cast<std::uint8_t>(rng.next64());
            }
            req.crc = crc;

            std::vector<std::uint8_t> buf;
            encodeRequest(req, buf);
            Request got;
            auto n = decodeRequest(buf.data(), buf.size(), &got);
            ASSERT_TRUE(n.hasValue()) << n.status().str();
            EXPECT_EQ(*n, buf.size());
            EXPECT_TRUE(got.bytes);
            EXPECT_EQ(got.key, req.key);
            EXPECT_EQ(got.valueBytes, req.valueBytes);

            Response resp;
            resp.type = MsgType::Get;
            resp.id = rng.next64();
            resp.status = ErrorCode::Ok;
            resp.rflags = 1; // hit
            resp.bytes = true;
            resp.valueBytes = req.valueBytes;
            resp.crc = crc;

            buf.clear();
            encodeResponse(resp, buf);
            Response rgot;
            auto m = decodeResponse(buf.data(), buf.size(), &rgot);
            ASSERT_TRUE(m.hasValue()) << m.status().str();
            EXPECT_EQ(*m, buf.size());
            EXPECT_TRUE(rgot.bytes);
            EXPECT_EQ(rgot.valueBytes, req.valueBytes);
        }
    }
}

TEST(NetProtocolBytes, OversizedDeclaredLengthIsInvalidArgument)
{
    // Hand-build a bytes PUT whose u16 length field claims more than
    // kMaxValueBytes: must be rejected before any allocation.
    Request req;
    req.type = MsgType::Put;
    req.id = 1;
    req.key = 2;
    req.bytes = true;
    req.valueBytes.assign(8, 0xcd);
    std::vector<std::uint8_t> buf;
    encodeRequest(req, buf);
    // Body layout: u32 len | 12B header | key(8) | u16 vlen | bytes.
    const std::size_t vlen_off = 4 + kHeaderBytes + 8;
    buf[vlen_off] = 0xff;
    buf[vlen_off + 1] = 0xff;
    Request got;
    auto n = decodeRequest(buf.data(), buf.size(), &got);
    ASSERT_FALSE(n.hasValue());
    EXPECT_EQ(n.status().code(), ErrorCode::InvalidArgument);
}

TEST(NetProtocolBytes, LengthBodyMismatchIsCorruption)
{
    Request req;
    req.type = MsgType::Put;
    req.id = 1;
    req.key = 2;
    req.bytes = true;
    req.valueBytes.assign(8, 0xcd);
    std::vector<std::uint8_t> buf;
    encodeRequest(req, buf);
    const std::size_t vlen_off = 4 + kHeaderBytes + 8;
    buf[vlen_off] = 9; // declares one byte more than the body carries
    Request got;
    auto n = decodeRequest(buf.data(), buf.size(), &got);
    ASSERT_FALSE(n.hasValue());
    EXPECT_EQ(n.status().code(), ErrorCode::Corruption);
}

/**
 * decodeRequest fills *out in place. A frame that decodes rewrites
 * every field, so a reused Request carries nothing over from the frame
 * before and keeps its payload buffer; a partial window or a bad frame
 * writes nothing.
 */
TEST(NetProtocol, DecodeIntoAReusedRequestLeavesNothingBehind)
{
    const Request seq[] = {
        {.type = MsgType::Put,
         .id = 1,
         .key = 11,
         .valueBytes = std::vector<std::uint8_t>(100, 0xab),
         .bytes = true,
         .crc = true},
        {.type = MsgType::Get, .id = 2, .key = 22, .valueBytes = {}},
        {.type = MsgType::Put,
         .id = 3,
         .key = 33,
         .value = 44,
         .valueBytes = {},
         .crc = true},
        {.type = MsgType::Ping, .id = 4, .valueBytes = {}},
    };
    Request got;
    std::size_t capacity = 0;
    for (const Request& want : seq) {
        std::vector<std::uint8_t> buf;
        encodeRequest(want, buf);
        auto n = decodeRequest(buf.data(), buf.size(), &got);
        ASSERT_TRUE(n.hasValue()) << n.status().str();
        EXPECT_EQ(*n, buf.size());
        EXPECT_EQ(fields(got), fields(want))
            << msgTypeName(want.type) << " id " << want.id;
        EXPECT_GE(got.valueBytes.capacity(), capacity);
        capacity = got.valueBytes.capacity();
    }

    // The malformed frames of NetProtocolErrors and NetProtocolBytes.
    std::vector<std::pair<const char*, std::vector<std::uint8_t>>> bad;
    std::vector<std::uint8_t> frame = goodFrame();
    frame[4] = 0x00;
    bad.emplace_back("bad magic", frame);
    frame = goodFrame();
    frame[5] = kProtoVersion + 1;
    bad.emplace_back("unknown version", frame);
    frame = goodFrame();
    frame[6] = 0x7f;
    bad.emplace_back("unknown type", frame);
    frame.assign(4 + kMaxFrameBody + 1, 0);
    frame[0] = static_cast<std::uint8_t>(kMaxFrameBody + 1);
    frame[1] = static_cast<std::uint8_t>((kMaxFrameBody + 1) >> 8);
    bad.emplace_back("oversized frame", frame);
    frame.assign(4 + 4, 0);
    frame[0] = 4;
    bad.emplace_back("body shorter than the header", frame);
    frame = goodFrame();
    frame[0] = static_cast<std::uint8_t>(frame[0] - 1);
    frame.pop_back();
    bad.emplace_back("payload length mismatch", frame);
    frame = goodFrame(/*crc=*/true);
    frame.back() ^= 0xff;
    bad.emplace_back("CRC byte flipped", frame);
    frame = goodFrame(/*crc=*/true);
    frame[16] ^= 0x01;
    bad.emplace_back("payload byte under the CRC flipped", frame);
    const Request bytesPut{.type = MsgType::Put,
                           .id = 1,
                           .key = 2,
                           .valueBytes = std::vector<std::uint8_t>(8, 0xcd),
                           .bytes = true};
    const std::size_t vlen_off = 4 + kHeaderBytes + 8;
    frame.clear();
    encodeRequest(bytesPut, frame);
    frame[vlen_off] = 0xff;
    frame[vlen_off + 1] = 0xff;
    bad.emplace_back("bytes length over the cap", frame);
    frame.clear();
    encodeRequest(bytesPut, frame);
    frame[vlen_off] = 9;
    bad.emplace_back("bytes length past the body", frame);

    // Hold a frame whose fields all differ from the bad ones' defaults.
    std::vector<std::uint8_t> held_frame;
    encodeRequest(seq[0], held_frame);
    ASSERT_TRUE(
        decodeRequest(held_frame.data(), held_frame.size(), &got).hasValue());
    const auto held = fields(got);
    const std::vector<std::uint8_t> whole = goodFrame(/*crc=*/true);
    for (std::size_t n = 0; n < whole.size(); n++) {
        auto r = decodeRequest(whole.data(), n, &got);
        ASSERT_TRUE(r.hasValue()) << "prefix " << n;
        EXPECT_EQ(*r, 0u) << "prefix " << n;
        EXPECT_EQ(fields(got), held) << "prefix " << n;
    }
    for (const auto& [what, bytes] : bad) {
        auto r = decodeRequest(bytes.data(), bytes.size(), &got);
        EXPECT_FALSE(r.hasValue()) << what;
        EXPECT_EQ(fields(got), held) << what;
    }
}

// ---------------------------------------------------------------------
// End-to-end: server over localhost.

TEST(NetServer, EphemeralPortResolves)
{
    ServerFixture f;
    EXPECT_GT(f.server().port(), 0);
}

// The server validates its telemetry config like the load generator: a
// zero metrics interval would write windows in a busy loop.
TEST(NetServer, CreateRejectsInvalidObsConfig)
{
    ZkvServerConfig cfg;
    cfg.store = tinyStore();
    cfg.obs.metricsPath = ::testing::TempDir() + "zc_net_invalid.ndjson";
    cfg.obs.metricsIntervalMs = 0;
    auto zero_interval = ZkvServer::create(cfg);
    ASSERT_FALSE(zero_interval.hasValue());
    EXPECT_EQ(zero_interval.status().code(), ErrorCode::InvalidArgument);

    cfg.obs = ObsConfig{};
    cfg.obs.ringCapacity = 0;
    auto zero_ring = ZkvServer::create(cfg);
    ASSERT_FALSE(zero_ring.hasValue());
    EXPECT_EQ(zero_ring.status().code(), ErrorCode::InvalidArgument);
}

TEST(NetServer, PingAndBasicOps)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);

    EXPECT_TRUE(cl->ping().isOk());

    auto miss = cl->get(123);
    ASSERT_TRUE(miss.hasValue()) << miss.status().str();
    EXPECT_FALSE(miss->has_value());

    auto put = cl->put(123, 456);
    ASSERT_TRUE(put.hasValue()) << put.status().str();
    EXPECT_TRUE(put->inserted());

    auto hit = cl->get(123);
    ASSERT_TRUE(hit.hasValue());
    ASSERT_TRUE(hit->has_value());
    EXPECT_EQ(**hit, 456u);

    auto erased = cl->erase(123);
    ASSERT_TRUE(erased.hasValue());
    EXPECT_TRUE(*erased);
    auto gone = cl->get(123);
    ASSERT_TRUE(gone.hasValue());
    EXPECT_FALSE(gone->has_value());
}

TEST(NetServer, ReservedKeyIsInvalidArgumentOverTheWire)
{
    ServerFixture f;
    auto cl = f.client();
    auto r = cl->put(ZkvStore::kReservedKey, 1);
    EXPECT_FALSE(r.hasValue());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
}

/**
 * Read-your-writes equivalence: the same deterministic op stream
 * against the server and against a direct ZkvStore with the identical
 * config must agree on every get result — the server's shard batching
 * and response routing add no semantics.
 */
TEST(NetServer, MatchesDirectStoreReadYourWrites)
{
    const ZkvConfig storeCfg = tinyStore(/*shards=*/4, /*blocks=*/128);

    ZkvServerConfig scfg;
    scfg.store = storeCfg;
    ServerFixture f(scfg);
    auto cl = f.client(/*crc=*/true);
    ASSERT_TRUE(cl);

    auto direct = ZkvStore::create(storeCfg);
    ASSERT_TRUE(direct.hasValue()) << direct.status().str();

    Pcg32 rng(0xe2e, 1);
    for (int i = 0; i < 2000; i++) {
        const std::uint64_t key = rng.next64() % 300;
        const std::uint64_t roll = rng.next64() % 100;
        if (roll < 50) {
            auto want = (*direct)->get(key);
            auto got = cl->get(key);
            ASSERT_TRUE(got.hasValue()) << got.status().str();
            ASSERT_EQ(got->has_value(), want.has_value()) << "op " << i;
            if (want) {
                EXPECT_EQ(**got, *want) << "op " << i;
            }
        } else if (roll < 90) {
            const std::uint64_t val = rng.next64();
            auto want = (*direct)->put(key, val);
            ASSERT_TRUE(want.hasValue());
            auto got = cl->put(key, val);
            ASSERT_TRUE(got.hasValue()) << got.status().str();
            EXPECT_EQ(got->inserted(), want->inserted) << "op " << i;
            EXPECT_EQ(got->evicted(), want->evicted) << "op " << i;
            if (want->evicted) {
                EXPECT_EQ(got->evictedKey, want->evictedKey);
                EXPECT_EQ(got->evictedValue, want->evictedValue);
            }
        } else {
            const bool want = (*direct)->erase(key);
            auto got = cl->erase(key);
            ASSERT_TRUE(got.hasValue());
            EXPECT_EQ(*got, want) << "op " << i;
        }
    }
}

/** Bytes mode end to end: byte-exact round trips through the wire,
 *  updates, misses, erases — against a BDI-compressed store. */
TEST(NetServer, BytesModeRoundTripsByteExactly)
{
    ZkvServerConfig scfg;
    scfg.store = tinyStore(/*shards=*/2, /*blocks=*/256);
    scfg.store.value.maxBytes = kZkvMaxValueBytes;
    scfg.store.value.codec = CodecKind::Bdi;
    ServerFixture f(scfg);
    auto cl = f.client(/*crc=*/true);
    ASSERT_TRUE(cl);

    Pcg32 rng(0xb17e, 1);
    for (std::size_t len : {std::size_t{0}, std::size_t{1},
                            std::size_t{64}, kMaxValueBytes}) {
        std::vector<std::uint8_t> v(len);
        for (auto& b : v) b = static_cast<std::uint8_t>(rng.next64());
        auto put = cl->putBytes(len + 1, v);
        ASSERT_TRUE(put.hasValue()) << put.status().str();
        auto got = cl->getBytes(len + 1);
        ASSERT_TRUE(got.hasValue()) << got.status().str();
        ASSERT_TRUE(got->has_value()) << len;
        EXPECT_EQ(**got, v) << len;
    }

    // Update in place, then miss and erase semantics.
    std::vector<std::uint8_t> v2(100, 0x5a);
    ASSERT_TRUE(cl->putBytes(65, v2).hasValue());
    auto updated = cl->getBytes(65);
    ASSERT_TRUE(updated.hasValue());
    ASSERT_TRUE(updated->has_value());
    EXPECT_EQ(**updated, v2);

    auto miss = cl->getBytes(0xdeadULL);
    ASSERT_TRUE(miss.hasValue());
    EXPECT_FALSE(miss->has_value());

    auto erased = cl->erase(65);
    ASSERT_TRUE(erased.hasValue());
    EXPECT_TRUE(*erased);
    auto gone = cl->getBytes(65);
    ASSERT_TRUE(gone.hasValue());
    EXPECT_FALSE(gone->has_value());

    auto over = cl->putBytes(1, std::vector<std::uint8_t>(
                                    kMaxValueBytes + 1, 0));
    ASSERT_FALSE(over.hasValue());
    EXPECT_EQ(over.status().code(), ErrorCode::InvalidArgument);
}

/**
 * A bytes-flagged op against a u64 server (and vice versa) answers
 * InvalidArgument at dispatch — never a mis-parsed payload — and the
 * mismatch is counted in the server's mode_errors stat. Ping and
 * erase are representation-free and work in both modes.
 */
TEST(NetServer, ModeMismatchIsInvalidArgumentAndCounted)
{
    { // u64 server, bytes client ops
        ServerFixture f;
        auto cl = f.client();
        std::vector<std::uint8_t> v(8, 1);
        auto put = cl->putBytes(1, v);
        ASSERT_FALSE(put.hasValue());
        EXPECT_EQ(put.status().code(), ErrorCode::InvalidArgument);
        auto get = cl->getBytes(1);
        ASSERT_FALSE(get.hasValue());
        EXPECT_EQ(get.status().code(), ErrorCode::InvalidArgument);
        EXPECT_TRUE(cl->ping().isOk());
        EXPECT_EQ(f.server().stats().modeErrors, 2u);
    }
    { // bytes server, u64 client ops
        ZkvServerConfig scfg;
        scfg.store = tinyStore();
        scfg.store.value.maxBytes = kZkvMaxValueBytes;
        ServerFixture f(scfg);
        auto cl = f.client();
        auto put = cl->put(1, 2);
        ASSERT_FALSE(put.hasValue());
        EXPECT_EQ(put.status().code(), ErrorCode::InvalidArgument);
        auto get = cl->get(1);
        ASSERT_FALSE(get.hasValue());
        EXPECT_EQ(get.status().code(), ErrorCode::InvalidArgument);
        EXPECT_TRUE(cl->ping().isOk());
        auto erased = cl->erase(1);
        ASSERT_TRUE(erased.hasValue());
        EXPECT_FALSE(*erased);
        EXPECT_EQ(f.server().stats().modeErrors, 2u);
    }
}

/** K pipelined sends then K receives: responses come back in send
 *  order with the ids echoed, across shard-interleaved keys. */
TEST(NetServer, PipelinedResponsesPreserveOrder)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);

    constexpr int kDepth = 64;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kDepth; i++) {
        Request req;
        req.id = cl->nextId();
        // Alternate puts and gets over keys spread across shards.
        if (i % 2 == 0) {
            req.type = MsgType::Put;
            req.key = static_cast<std::uint64_t>(i) * 977;
            req.value = req.key + 1;
        } else {
            req.type = MsgType::Get;
            req.key = static_cast<std::uint64_t>(i - 1) * 977;
        }
        ids.push_back(req.id);
        ASSERT_TRUE(cl->sendRaw(req).isOk());
    }
    for (int i = 0; i < kDepth; i++) {
        auto resp = cl->recvResponse();
        ASSERT_TRUE(resp.hasValue()) << resp.status().str();
        EXPECT_EQ(resp->id, ids[static_cast<std::size_t>(i)])
            << "response " << i << " out of order";
        if (i % 2 == 1) {
            // The get pipelined directly behind its put must hit.
            EXPECT_TRUE(resp->hit()) << "response " << i;
            EXPECT_EQ(resp->value,
                      static_cast<std::uint64_t>(i - 1) * 977 + 1);
        }
    }
}

/** A garbage frame closes only the offending connection; the server
 *  keeps serving others and counts the framing error. */
TEST(NetServer, FramingErrorClosesOnlyThatConnection)
{
    ServerFixture f;
    auto bad = f.client();
    auto good = f.client();
    ASSERT_TRUE(bad && good);

    auto buf = goodFrame();
    buf[4] = 0x00; // corrupt the magic
    ASSERT_EQ(::send(bad->fd(), buf.data(), buf.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(buf.size()));
    auto r = bad->recvResponse();
    EXPECT_FALSE(r.hasValue()); // server closed us without replying

    EXPECT_TRUE(good->ping().isOk());
    auto put = good->put(1, 2);
    ASSERT_TRUE(put.hasValue()) << put.status().str();

    // protocolErrors is loop-thread-written; the surviving round trips
    // above ordered us after the close.
    EXPECT_GE(f.server().stats().protocolErrors, 1u);
}

/** Shutdown mid-pipeline: every already-sent request still gets its
 *  response before the server closes (the drain contract). */
TEST(NetServer, DrainDeliversInFlightResponses)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);

    constexpr int kDepth = 128;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kDepth; i++) {
        Request req;
        req.id = cl->nextId();
        req.type = MsgType::Put;
        req.key = static_cast<std::uint64_t>(i);
        req.value = static_cast<std::uint64_t>(i) + 7;
        ids.push_back(req.id);
        ASSERT_TRUE(cl->sendRaw(req).isOk());
    }
    ASSERT_TRUE(cl->flush().isOk()); // in flight before the drain starts
    f.server().shutdown();

    int got = 0;
    for (int i = 0; i < kDepth; i++) {
        auto resp = cl->recvResponse();
        if (!resp.hasValue()) break;
        EXPECT_EQ(resp->id, ids[static_cast<std::size_t>(got)]);
        got++;
    }
    EXPECT_EQ(got, kDepth);

    f.stop();
    const auto st = f.server().stats();
    EXPECT_EQ(st.framesOut, static_cast<std::uint64_t>(kDepth));
    EXPECT_GE(st.drained, 1u);
    EXPECT_EQ(st.drainAborted, 0u);
}

TEST(NetServer, StatsReconcileFramesAndOps)
{
    ServerFixture f;
    {
        auto cl = f.client();
        ASSERT_TRUE(cl);
        for (int i = 0; i < 100; i++) {
            auto r = cl->put(static_cast<std::uint64_t>(i), 1);
            ASSERT_TRUE(r.hasValue());
        }
        ASSERT_TRUE(cl->ping().isOk());
    }
    f.stop();

    const auto st = f.server().stats();
    EXPECT_EQ(st.framesIn, 101u);
    EXPECT_EQ(st.framesOut, 101u);
    EXPECT_EQ(st.batchedOps, 100u); // pings are answered inline
    EXPECT_EQ(st.pings, 1u);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.batches, st.batchedOps);
    EXPECT_EQ(st.accepted, 1u);
    EXPECT_EQ(st.closed, 1u);
    // Every epoll_wait is either a poll or a park; the round after a
    // busy round always polls. Sequential round trips take one recv
    // and one send per frame at least.
    EXPECT_EQ(st.polls + st.parks, st.rounds);
    EXPECT_GE(st.polls, 1u);
    EXPECT_GE(st.parks, 1u);
    EXPECT_GE(st.recvCalls, st.framesIn);
    EXPECT_GE(st.sendCalls, st.framesOut);
}

/** A request sent after the poll budget has lapsed finds the loop
 *  parked; it wakes the loop and is answered, and the park's time is
 *  counted. A park's time is added when it returns, so the idle time
 *  shows up once the request has woken the loop. */
TEST(NetServer, RequestAfterThePollBudgetWakesAParkedLoop)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);
    ASSERT_TRUE(cl->put(1, 2).hasValue());
    const ZkvServerStats busy = f.server().stats();

    constexpr auto kIdle = std::chrono::milliseconds(20);
    static_assert(kIdle > std::chrono::nanoseconds(100 * kPollBudgetNs));
    std::this_thread::sleep_for(kIdle);

    auto hit = cl->get(1);
    ASSERT_TRUE(hit.hasValue()) << hit.status().str();
    ASSERT_TRUE(hit->has_value());
    EXPECT_EQ(**hit, 2u);
    const ZkvServerStats woken = f.server().stats();
    EXPECT_GE(woken.parkedNs - busy.parkedNs,
              static_cast<std::uint64_t>(
                  std::chrono::nanoseconds(kIdle).count() / 2));
    EXPECT_GE(woken.parks, 2u); // before the put, and across the idle
}

/** shutdown() right after a response, inside the loop's poll window:
 *  the doorbell is seen, every in-flight response is delivered, and
 *  the drain ends well before its deadline. */
TEST(NetServer, ShutdownInThePollWindowDrainsBeforeTheDeadline)
{
    ZkvServerConfig cfg;
    cfg.store = tinyStore();
    cfg.drainTimeoutMs = 2000;
    ServerFixture f(cfg);
    auto cl = f.client();
    ASSERT_TRUE(cl);

    constexpr int kDepth = 32;
    for (int i = 0; i < kDepth; i++) {
        Request req;
        req.id = cl->nextId();
        req.type = MsgType::Put;
        req.key = static_cast<std::uint64_t>(i);
        req.value = static_cast<std::uint64_t>(i) + 3;
        ASSERT_TRUE(cl->sendRaw(req).isOk());
    }
    auto first = cl->recvResponse();
    ASSERT_TRUE(first.hasValue()) << first.status().str();
    const auto t0 = std::chrono::steady_clock::now();
    f.server().shutdown();

    int got = 1;
    while (cl->recvResponse().hasValue()) got++;
    f.stop();
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_EQ(got, kDepth);
    EXPECT_LT(ms, cfg.drainTimeoutMs / 2);
    const auto st = f.server().stats();
    EXPECT_EQ(st.framesOut, static_cast<std::uint64_t>(kDepth));
    EXPECT_EQ(st.drained, 1u);
    EXPECT_EQ(st.drainAborted, 0u);
    EXPECT_EQ(st.polls + st.parks, st.rounds);
}

/**
 * A peer that pipelines its requests and then half-closes gets every
 * response in order, then EOF. The server reads the FIN with the last
 * frames, and closes the connection only once their responses are
 * written, however the reads and its backed-up writes interleave.
 */
TEST(NetServer, HalfClosedPeerGetsEveryResponse)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);

    // Enough responses to back up the server's writes while the client
    // is still sending.
    constexpr std::uint64_t kDepth = 4096;
    for (std::uint64_t id = 1; id <= kDepth; id++) {
        Request req;
        req.id = id;
        req.type = MsgType::Put;
        req.key = id;
        req.value = id + 5;
        ASSERT_TRUE(cl->sendRaw(req).isOk());
    }
    ASSERT_TRUE(cl->flush().isOk());
    ASSERT_EQ(::shutdown(cl->fd(), SHUT_WR), 0);

    std::uint64_t got = 0;
    for (;;) {
        auto resp = cl->recvResponse();
        if (!resp.hasValue()) {
            EXPECT_EQ(resp.status().code(), ErrorCode::Truncated)
                << resp.status().str();
            break;
        }
        got++;
        ASSERT_EQ(resp->id, got) << "response out of order";
    }
    EXPECT_EQ(got, kDepth);

    f.stop();
    const auto st = f.server().stats();
    EXPECT_EQ(st.framesIn, kDepth);
    EXPECT_EQ(st.framesOut, kDepth);
    EXPECT_EQ(st.closed, 1u);
    EXPECT_EQ(st.protocolErrors, 0u);
}

/**
 * Connect a client to a bare listener and accept it, so that a test
 * decides every byte the client reads and sees every byte it writes.
 * The caller closes @p lfd and @p peer.
 */
void
connectToBarePeer(int& lfd, int& peer, std::unique_ptr<ZkvClient>& cl)
{
    lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t alen = sizeof(addr);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), alen), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen),
              0);
    ZkvClientConfig cc;
    cc.port = ntohs(addr.sin_port);
    auto cl_or = ZkvClient::connect(cc);
    ASSERT_TRUE(cl_or.hasValue()) << cl_or.status().str();
    cl = std::move(*cl_or);
    peer = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(peer, 0);
}

/**
 * One recv delivers many responses and the head of the last one; the
 * rest of that frame comes in a second recv. The client decodes them
 * all in order, ids and payloads intact. A bare listener stands in
 * for the server so the test decides where the bytes are cut.
 */
TEST(NetClient, ManyResponsesPerRecvAndASplitLastFrame)
{
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));

    constexpr int kFrames = 24;
    Pcg32 rng(0x5b1f, 1);
    std::vector<Response> want;
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < kFrames; i++) {
        Response r;
        r.type = MsgType::Get;
        r.id = 1000 + static_cast<std::uint64_t>(i);
        r.rflags = kRespFlagHit;
        r.bytes = true;
        r.valueBytes.resize(16 + rng.below(112));
        for (auto& b : r.valueBytes) {
            b = static_cast<std::uint8_t>(rng.next64());
        }
        encodeResponse(r, wire);
        want.push_back(std::move(r));
    }
    ASSERT_LT(wire.size(), 4096u); // fits one client recv
    const std::size_t cut = wire.size() - 5; // inside the last frame
    ASSERT_EQ(::send(peer, wire.data(), cut, MSG_NOSIGNAL),
              static_cast<ssize_t>(cut));
    for (int i = 0; i < kFrames; i++) {
        if (i == kFrames - 1) {
            ASSERT_EQ(::send(peer, wire.data() + cut, wire.size() - cut,
                             MSG_NOSIGNAL),
                      static_cast<ssize_t>(wire.size() - cut));
        }
        auto got = cl->recvResponse();
        ASSERT_TRUE(got.hasValue()) << got.status().str();
        EXPECT_EQ(got->id, want[static_cast<std::size_t>(i)].id);
        EXPECT_EQ(got->valueBytes,
                  want[static_cast<std::size_t>(i)].valueBytes);
    }
    ::close(peer);
    auto eof = cl->recvResponse();
    EXPECT_FALSE(eof.hasValue());
    ::close(lfd);
}

/**
 * sendRaw only queues: the peer sees nothing until flush(), which
 * writes every queued frame in order, or until a recvResponse() has
 * to wait. A response already buffered is returned without writing
 * the request queued since; the next call, which must block, writes
 * that request before it waits.
 */
TEST(NetClient, QueuedRequestsGoOutWhenTheClientWaits)
{
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));

    const auto request = [](std::uint64_t id) {
        Request r;
        r.type = MsgType::Get;
        r.id = id;
        r.key = id * 977;
        return r;
    };
    const auto peerHasNothing = [&] {
        std::uint8_t b = 0;
        return ::recv(peer, &b, 1, MSG_DONTWAIT) < 0 &&
               (errno == EAGAIN || errno == EWOULDBLOCK);
    };
    // The ids of the next @p n request frames the peer reads, waiting
    // up to 5 s for each chunk.
    std::vector<std::uint8_t> in;
    const auto peerReads = [&](std::size_t n) {
        std::vector<std::uint64_t> ids;
        std::size_t off = 0;
        while (ids.size() < n) {
            Request r;
            auto used = decodeRequest(in.data() + off, in.size() - off, &r);
            if (!used.hasValue()) {
                ADD_FAILURE() << used.status().str();
                break;
            }
            if (*used > 0) {
                off += *used;
                ids.push_back(r.id);
                continue;
            }
            pollfd pfd{peer, POLLIN, 0};
            if (::poll(&pfd, 1, 5000) != 1) {
                ADD_FAILURE() << "the peer got no bytes within 5 s";
                break;
            }
            std::uint8_t buf[4096];
            const ssize_t got = ::recv(peer, buf, sizeof(buf), 0);
            if (got <= 0) {
                ADD_FAILURE() << "peer recv returned " << got;
                break;
            }
            in.insert(in.end(), buf, buf + got);
        }
        in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(off));
        return ids;
    };
    const auto respond = [&](std::initializer_list<std::uint64_t> ids) {
        std::vector<std::uint8_t> wire;
        for (std::uint64_t id : ids) {
            Response r;
            r.type = MsgType::Get;
            r.id = id;
            encodeResponse(r, wire);
        }
        EXPECT_EQ(::send(peer, wire.data(), wire.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(wire.size()));
        return wire.size();
    };

    constexpr std::uint64_t kQueued = 16;
    std::vector<std::uint64_t> want;
    for (std::uint64_t id = 1; id <= kQueued; id++) {
        ASSERT_TRUE(cl->sendRaw(request(id)).isOk());
        want.push_back(id);
    }
    EXPECT_TRUE(peerHasNothing()) << "sendRaw wrote before the client waited";
    ASSERT_TRUE(cl->flush().isOk());
    EXPECT_EQ(peerReads(kQueued), want);
    EXPECT_TRUE(in.empty());

    // Two responses wait in the client's socket, so one recv reads both.
    const int sent = static_cast<int>(respond({101, 102}));
    int avail = 0;
    for (int tries = 0; avail < sent && tries < 5000; tries++) {
        ASSERT_EQ(::ioctl(cl->fd(), FIONREAD, &avail), 0);
        if (avail < sent) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    ASSERT_EQ(avail, sent);
    auto first = cl->recvResponse();
    ASSERT_TRUE(first.hasValue()) << first.status().str();
    EXPECT_EQ(first->id, 101u);
    ASSERT_TRUE(cl->sendRaw(request(kQueued + 1)).isOk());
    auto second = cl->recvResponse(); // buffered: no write, no wait
    ASSERT_TRUE(second.hasValue()) << second.status().str();
    EXPECT_EQ(second->id, 102u);
    EXPECT_TRUE(peerHasNothing())
        << "a buffered response wrote the queued request";

    // Nothing is buffered now: the third call writes the queued request
    // and blocks until the peer answers it.
    std::optional<Expected<Response>> third;
    std::thread waiter([&] { third.emplace(cl->recvResponse()); });
    const std::vector<std::uint64_t> late = peerReads(1);
    EXPECT_EQ(late, std::vector<std::uint64_t>{kQueued + 1});
    if (late.size() == 1) {
        respond({103});
    } else {
        ::shutdown(peer, SHUT_RDWR); // unblock the waiter
    }
    waiter.join();
    ASSERT_TRUE(third.has_value());
    ASSERT_TRUE(third->hasValue()) << third->status().str();
    EXPECT_EQ((*third)->id, 103u);
    ::close(peer);
    ::close(lfd);
}

/** May the calling thread run on two or more CPUs? A client connected
 *  from such a thread polls before it blocks (client.hpp). */
bool
twoOrMoreCpus()
{
    cpu_set_t allowed;
    return ::sched_getaffinity(0, sizeof allowed, &allowed) == 0 &&
           CPU_COUNT(&allowed) >= 2;
}

/** Pins the calling thread to the first CPU it may run on, and gives
 *  the thread its old mask back when destroyed. */
class PinToOneCpu
{
  public:
    PinToOneCpu()
    {
        if (::pthread_getaffinity_np(::pthread_self(), sizeof old_, &old_) !=
            0) {
            return;
        }
        saved_ = true;
        cpu_set_t one;
        CPU_ZERO(&one);
        for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
            if (CPU_ISSET(cpu, &old_)) {
                CPU_SET(cpu, &one);
                break;
            }
        }
        pinned_ =
            ::pthread_setaffinity_np(::pthread_self(), sizeof one, &one) == 0;
    }

    ~PinToOneCpu()
    {
        if (saved_) {
            (void)::pthread_setaffinity_np(::pthread_self(), sizeof old_,
                                           &old_);
        }
    }

    PinToOneCpu(const PinToOneCpu&) = delete;
    PinToOneCpu& operator=(const PinToOneCpu&) = delete;

    bool pinned() const { return pinned_; }

  private:
    cpu_set_t old_{};
    bool saved_ = false;
    bool pinned_ = false;
};

Request
getRequest(std::uint64_t id)
{
    Request r;
    r.type = MsgType::Get;
    r.id = id;
    r.key = id * 977;
    return r;
}

/** Write a GET response frame for @p id, or its first @p cut bytes,
 *  to @p fd; the byte count written. */
int
writeResponse(int fd, std::uint64_t id, std::size_t cut = SIZE_MAX)
{
    Response r;
    r.type = MsgType::Get;
    r.id = id;
    std::vector<std::uint8_t> wire;
    encodeResponse(r, wire);
    const std::size_t n = std::min(cut, wire.size());
    EXPECT_EQ(::send(fd, wire.data(), n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
    return static_cast<int>(n);
}

/** Read one request frame from @p fd, waiting up to 5 s for it; its id,
 *  or 0 on failure. Nothing may follow the frame. */
std::uint64_t
readRequest(int fd)
{
    std::vector<std::uint8_t> in;
    for (;;) {
        Request r;
        auto used = decodeRequest(in.data(), in.size(), &r);
        if (!used.hasValue()) {
            ADD_FAILURE() << used.status().str();
            return 0;
        }
        if (*used > 0) {
            EXPECT_EQ(*used, in.size()) << "bytes after the request";
            return r.id;
        }
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 5000) != 1) {
            ADD_FAILURE() << "no request within 5 s";
            return 0;
        }
        std::uint8_t buf[kMaxFrameBody + 4];
        const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
        if (got <= 0) {
            ADD_FAILURE() << "peer recv returned " << got;
            return 0;
        }
        in.insert(in.end(), buf, buf + got);
    }
}

/** Bytes waiting in @p fd's receive queue once @p want have arrived,
 *  waiting up to 5 s; fewer if they never do. */
int
waitForBytes(int fd, int want)
{
    int avail = 0;
    for (int tries = 0; tries < 5000; tries++) {
        if (::ioctl(fd, FIONREAD, &avail) != 0 || avail >= want) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return avail;
}

/**
 * A response already in the client's socket is read by the poll: the
 * wait writes the queued request first and then takes no blocking
 * read, unless the client was connected on one CPU, where it never
 * polls and its one blocking read returns at once.
 */
TEST(NetClient, WaitReadsAResponseAlreadyThereWithoutParking)
{
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));
    const bool polls = twoOrMoreCpus();

    const int sent = writeResponse(peer, 7);
    ASSERT_EQ(waitForBytes(cl->fd(), sent), sent);
    ASSERT_TRUE(cl->sendRaw(getRequest(7)).isOk());

    const ZkvClientStats before = cl->stats();
    auto got = cl->recvResponse();
    const ZkvClientStats after = cl->stats();
    ASSERT_TRUE(got.hasValue()) << got.status().str();
    EXPECT_EQ(got->id, 7u);
    EXPECT_EQ(after.sendCalls - before.sendCalls, 1u);
    EXPECT_EQ(after.recvCalls - before.recvCalls, 1u);
    EXPECT_EQ(after.polls, before.polls);
    EXPECT_EQ(after.parks - before.parks, polls ? 0u : 1u);
    // The request went out before the read that found the response.
    EXPECT_EQ(readRequest(peer), 7u);
    ::close(peer);
    ::close(lfd);
}

/**
 * A response written 20 ms after its request outlasts the poll: the
 * client polls (on two or more CPUs), then parks once, and the
 * response still arrives.
 */
TEST(NetClient, LateResponseArrivesAfterOnePark)
{
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));
    const bool polls = twoOrMoreCpus();

    ASSERT_TRUE(cl->sendRaw(getRequest(11)).isOk());
    std::thread late([&] {
        const std::uint64_t id = readRequest(peer);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        writeResponse(peer, id);
    });
    const ZkvClientStats before = cl->stats();
    auto got = cl->recvResponse();
    const ZkvClientStats after = cl->stats();
    late.join();
    ASSERT_TRUE(got.hasValue()) << got.status().str();
    EXPECT_EQ(got->id, 11u);
    EXPECT_EQ(after.parks - before.parks, 1u);
    EXPECT_GT(after.parkedNs, before.parkedNs);
    if (polls) {
        EXPECT_GT(after.polls, before.polls);
    } else {
        EXPECT_EQ(after.polls, before.polls);
    }
    // Every read but the blocking one found nothing.
    EXPECT_EQ(after.recvCalls - before.recvCalls,
              after.polls - before.polls + 1);
    ::close(peer);
    ::close(lfd);
}

/**
 * A poll that runs out, as every poll does while the peer shares the
 * client's CPU, makes the next wait block at once; a second one makes
 * the next two do so. A wait whose response is already there when it
 * polls leaves that count alone.
 */
TEST(NetClient, PollThatRunsOutSkipsTheNextWaitsPolls)
{
    if (!twoOrMoreCpus()) GTEST_SKIP() << "a client on one CPU never polls";
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));

    std::uint64_t id = 0;
    // One wait; its stats delta. The peer answers 20 ms after it reads
    // the request if @p late, else before the request is sent.
    auto wait = [&](bool late) {
        id++;
        std::thread answer;
        if (late) {
            answer = std::thread([&, want = id] {
                EXPECT_EQ(readRequest(peer), want);
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                writeResponse(peer, want);
            });
        } else {
            const int sent = writeResponse(peer, id);
            EXPECT_EQ(waitForBytes(cl->fd(), sent), sent);
        }
        EXPECT_TRUE(cl->sendRaw(getRequest(id)).isOk());
        const ZkvClientStats before = cl->stats();
        auto got = cl->recvResponse();
        ZkvClientStats d = cl->stats();
        if (late) {
            answer.join();
        } else {
            EXPECT_EQ(readRequest(peer), id);
        }
        EXPECT_TRUE(got.hasValue() && got->id == id) << "wait " << id;
        d.polls -= before.polls;
        d.parks -= before.parks;
        return d;
    };

    ZkvClientStats d = wait(true);
    EXPECT_GT(d.polls, 0u);
    EXPECT_EQ(d.parks, 1u);
    d = wait(false); // skipped
    EXPECT_EQ(d.polls, 0u);
    EXPECT_EQ(d.parks, 1u);
    d = wait(false); // polls, and its first read finds the response
    EXPECT_EQ(d.polls, 0u);
    EXPECT_EQ(d.parks, 0u);

    d = wait(true);
    EXPECT_GT(d.polls, 0u);
    EXPECT_EQ(d.parks, 1u);
    for (int skipped = 0; skipped < 2; skipped++) {
        d = wait(false);
        EXPECT_EQ(d.parks, 1u) << "skipped wait " << skipped;
    }
    d = wait(false);
    EXPECT_EQ(d.parks, 0u);
    ::close(peer);
    ::close(lfd);
}

/**
 * A peer that closes while the client polls gives the codes a blocking
 * read gives: Truncated at EOF, with or without part of a frame
 * buffered, and IoError on a reset.
 */
TEST(NetClient, PeerClosingInThePollWindowGivesTheBlockingCodes)
{
    const bool polls = twoOrMoreCpus();
    // Each peer's end is there before the wait, so the wait's first
    // read sees it: a poll, on two or more CPUs.
    for (const bool reset : {false, true}) {
        SCOPED_TRACE(reset ? "reset" : "EOF");
        int lfd = -1, peer = -1;
        std::unique_ptr<ZkvClient> cl;
        ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));
        if (reset) {
            const linger now{1, 0};
            ASSERT_EQ(::setsockopt(peer, SOL_SOCKET, SO_LINGER, &now,
                                   sizeof now),
                      0);
        }
        ::close(peer);
        pollfd pfd{cl->fd(), POLLIN, 0};
        ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
        const ZkvClientStats before = cl->stats();
        auto got = cl->recvResponse();
        ASSERT_FALSE(got.hasValue());
        EXPECT_EQ(got.status().code(),
                  reset ? ErrorCode::IoError : ErrorCode::Truncated);
        EXPECT_EQ(cl->stats().parks - before.parks, polls ? 0u : 1u);
        ::close(lfd);
    }

    // The peer answers with part of a frame and closes while the
    // client waits for the rest.
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));
    ASSERT_TRUE(cl->sendRaw(getRequest(5)).isOk());
    std::thread closer([&] {
        writeResponse(peer, readRequest(peer), 5);
        ::close(peer);
    });
    auto got = cl->recvResponse();
    closer.join();
    ASSERT_FALSE(got.hasValue());
    EXPECT_EQ(got.status().code(), ErrorCode::Truncated);
    ::close(lfd);
}

/**
 * The poll guard is read once, at connect(): a client connected from a
 * thread pinned to one CPU never polls, even once that thread may run
 * on more CPUs again, and still gets its response.
 */
TEST(NetClient, ClientConnectedOnOneCpuNeverPolls)
{
    int lfd = -1, peer = -1;
    std::unique_ptr<ZkvClient> cl;
    {
        PinToOneCpu pin;
        ASSERT_TRUE(pin.pinned());
        ASSERT_NO_FATAL_FAILURE(connectToBarePeer(lfd, peer, cl));
    }
    ASSERT_TRUE(cl->sendRaw(getRequest(3)).isOk());
    std::thread answer([&] { writeResponse(peer, readRequest(peer)); });
    auto got = cl->recvResponse();
    answer.join();
    ASSERT_TRUE(got.hasValue()) << got.status().str();
    EXPECT_EQ(got->id, 3u);
    EXPECT_EQ(cl->stats().polls, 0u);
    EXPECT_EQ(cl->stats().parks, 1u);
    EXPECT_EQ(cl->stats().recvCalls, 1u);
    ::close(peer);
    ::close(lfd);
}

// The server samples the same store counters as the load generator
// (ZkvStore::metricsSample) and appends its net_* series: a durable
// server windows every counter its stats tree reports, and the windows
// partition the run — every d_* column sums to its final value.
TEST(NetServer, DurableMetricsCarryStoreCountersAndReconcile)
{
    namespace fs = std::filesystem;
    const std::string base = ::testing::TempDir() + "zc_net_metrics_" +
                             std::to_string(::getpid());
    const std::string nd = base + ".ndjson";
    fs::remove_all(base);

    ZkvServerConfig cfg;
    cfg.store = tinyStore();
    cfg.store.persist.dataDir = base;
    cfg.store.persist.fsync = persist::FsyncPolicy::Interval;
    cfg.obs.metricsPath = nd;
    cfg.obs.metricsIntervalMs = 5;
    auto srv_or = ZkvServer::create(cfg);
    ASSERT_TRUE(srv_or.hasValue()) << srv_or.status().str();
    std::unique_ptr<ZkvServer> srv = std::move(*srv_or);
    ASSERT_TRUE(srv->store().recover().hasValue());

    // No ASSERT while the loop thread runs: it must be joined first.
    auto traffic = [&] {
        ZkvClientConfig c;
        c.port = srv->port();
        auto cl = ZkvClient::connect(c);
        if (!cl.hasValue()) return false;
        // 300 keys over 256 blocks: the puts walk and evict.
        for (std::uint64_t i = 0; i < 3000; i++) {
            if (!(*cl)->put(i % 300, i).hasValue() ||
                !(*cl)->get((i * 7) % 300).hasValue()) {
                return false;
            }
            if (i % 10 == 0 && (!(*cl)->erase((i * 3) % 300).hasValue() ||
                                !(*cl)->ping().isOk())) {
                return false;
            }
        }
        return true;
    };
    Status served;
    std::thread loop([&] { served = srv->serve(); });
    const bool traffic_ok = traffic();
    srv->shutdown();
    loop.join();
    ASSERT_TRUE(traffic_ok);
    EXPECT_TRUE(served.isOk()) << served.str();
    EXPECT_TRUE(srv->store().stopPersist().isOk());

    std::vector<JsonValue> windows;
    std::ifstream in(nd);
    for (std::string line; std::getline(in, line);) {
        auto rec = JsonValue::parse(line);
        ASSERT_TRUE(rec.has_value()) << line;
        windows.push_back(std::move(*rec));
    }
    StatsRegistry reg;
    srv->registerStats(reg.root());
    expectEveryCounterWindowed(reg.toJson(), windows);
    const JsonValue& last = windows.back();
    EXPECT_EQ(last.find("ops")->asU64(), 6300u);
    EXPECT_GT(last.find("walk_candidates")->asU64(), 0u);
    EXPECT_GT(last.find("erase_hits")->asU64(), 0u);
    EXPECT_GT(last.find("persist_appended")->asU64(), 0u);
    EXPECT_EQ(last.find("net_pings")->asU64(), 300u);

    srv.reset();
    fs::remove_all(base);
    fs::remove(nd);
}

// ---------------------------------------------------------------------
// Fault sites (docs/robustness.md): structured failure, no crash.

class NetFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjection::resetAll(); }
    void TearDown() override { FaultInjection::resetAll(); }
};

TEST_F(NetFaultTest, AcceptFaultRejectsConnectionServerSurvives)
{
    ServerFixture f;
    {
        ScopedFault fault("net.accept", {.failCount = 1});
        ZkvClientConfig c;
        c.port = f.server().port();
        c.connectRetries = 0;
        // The TCP handshake completes in the kernel before accept()
        // runs, so connect() itself succeeds; the injected accept
        // failure surfaces as an immediate close (EOF on first read).
        auto cl = ZkvClient::connect(c);
        if (cl.hasValue()) {
            auto r = (*cl)->ping();
            EXPECT_FALSE(r.isOk());
        }
    }
    EXPECT_GE(f.server().stats().acceptErrors, 1u);

    auto cl = f.client();
    ASSERT_TRUE(cl);
    EXPECT_TRUE(cl->ping().isOk());
}

TEST_F(NetFaultTest, ReadFaultClosesConnectionServerSurvives)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);
    ASSERT_TRUE(cl->ping().isOk()); // connection is up and serving

    {
        ScopedFault fault("net.read", {.failCount = 1});
        auto r = cl->call(MsgType::Get, 1);
        EXPECT_FALSE(r.hasValue()); // conn died before a response
    }
    EXPECT_GE(f.server().stats().readErrors, 1u);

    auto cl2 = f.client();
    ASSERT_TRUE(cl2);
    EXPECT_TRUE(cl2->ping().isOk());
}

TEST_F(NetFaultTest, WriteFaultClosesConnectionServerSurvives)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);
    ASSERT_TRUE(cl->ping().isOk());

    {
        ScopedFault fault("net.write", {.failCount = 1});
        auto r = cl->call(MsgType::Put, 3, 4);
        EXPECT_FALSE(r.hasValue());
    }
    EXPECT_GE(f.server().stats().writeErrors, 1u);

    auto cl2 = f.client();
    ASSERT_TRUE(cl2);
    EXPECT_TRUE(cl2->ping().isOk());
}

TEST_F(NetFaultTest, FrameFaultCountsProtocolError)
{
    ServerFixture f;
    auto cl = f.client();
    ASSERT_TRUE(cl);
    ASSERT_TRUE(cl->ping().isOk());

    {
        ScopedFault fault("net.frame", {.failCount = 1});
        auto r = cl->call(MsgType::Get, 9);
        EXPECT_FALSE(r.hasValue());
    }
    EXPECT_GE(f.server().stats().protocolErrors, 1u);

    auto cl2 = f.client();
    ASSERT_TRUE(cl2);
    EXPECT_TRUE(cl2->ping().isOk());
}

// ---------------------------------------------------------------------
// Open-loop arrival schedules (net/openloop.hpp).

TEST(ArrivalScheduleTest, FixedIsDriftFreeMetronome)
{
    ArrivalSchedule s(ArrivalKind::Fixed, 1e6, /*seed=*/1);
    EXPECT_EQ(s.nextOffsetNs(), 0u);
    EXPECT_EQ(s.nextOffsetNs(), 1000u);
    for (int i = 2; i < 10000; i++) {
        EXPECT_EQ(s.nextOffsetNs(), static_cast<std::uint64_t>(i) * 1000);
    }
}

TEST(ArrivalScheduleTest, PoissonMeanMatchesRateAndIsDeterministic)
{
    constexpr int kN = 200000;
    ArrivalSchedule a(ArrivalKind::Poisson, 1e6, 42);
    ArrivalSchedule b(ArrivalKind::Poisson, 1e6, 42);
    std::uint64_t last = 0;
    for (int i = 0; i < kN; i++) {
        const std::uint64_t t = a.nextOffsetNs();
        EXPECT_EQ(t, b.nextOffsetNs()); // same seed, same schedule
        EXPECT_GE(t, last);             // nondecreasing
        last = t;
    }
    // Mean inter-arrival over kN samples must be within 2% of 1us.
    const double meanNs = static_cast<double>(last) / (kN - 1);
    EXPECT_NEAR(meanNs, 1000.0, 20.0);
}

TEST(ArrivalScheduleTest, ParseNames)
{
    auto p = parseArrivalKind("poisson");
    ASSERT_TRUE(p.hasValue());
    EXPECT_EQ(*p, ArrivalKind::Poisson);
    auto x = parseArrivalKind("bursty");
    EXPECT_FALSE(x.hasValue());
    EXPECT_EQ(x.status().code(), ErrorCode::InvalidArgument);
}

} // namespace
} // namespace zc::net
