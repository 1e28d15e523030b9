/**
 * @file
 * Networked-zkv tests (docs/server.md): wire-protocol round trips for
 * every (type, direction, crc) combination; exact structured error
 * codes for truncated, corrupt, oversized and unknown-type frames;
 * streaming decode over split byte windows; an end-to-end localhost
 * server whose read-your-writes view matches a direct ZkvStore built
 * from the identical config; pipelined per-connection ordering;
 * graceful-drain delivery of in-flight responses; the loop's poll and
 * park rounds; a client decoding many responses per read; and the
 * net.* fault sites (docs/robustness.md) surfacing as structured
 * failures, not crashes.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
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
    static_assert(kIdle > std::chrono::nanoseconds(
                              100 * ZkvServer::kPollBudgetNs));
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
 * One recv delivers many responses and the head of the last one; the
 * rest of that frame comes in a second recv. The client decodes them
 * all in order, ids and payloads intact. A bare listener stands in
 * for the server so the test decides where the bytes are cut.
 */
TEST(NetClient, ManyResponsesPerRecvAndASplitLastFrame)
{
    const int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
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
    auto cl = ZkvClient::connect(cc);
    ASSERT_TRUE(cl.hasValue()) << cl.status().str();
    const int peer = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(peer, 0);

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
        auto got = (*cl)->recvResponse();
        ASSERT_TRUE(got.hasValue()) << got.status().str();
        EXPECT_EQ(got->id, want[static_cast<std::size_t>(i)].id);
        EXPECT_EQ(got->valueBytes,
                  want[static_cast<std::size_t>(i)].valueBytes);
    }
    ::close(peer);
    auto eof = (*cl)->recvResponse();
    EXPECT_FALSE(eof.hasValue());
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
