/**
 * @file
 * The compressed-value tier (docs/compression.md), bottom to top:
 *
 *  - codec unit + property tests: round-trips over random and
 *    adversarial payloads (all-zero, all-distinct, incompressible,
 *    max-size), the maxCompressedSize bound, the raw-fallback
 *    passthrough guarantee, name/parse/factory plumbing, and the
 *    compress.codec fault site's structured Corruption;
 *  - ContentModel determinism and validation;
 *  - compressed-array invariants: the byte budget is never exceeded
 *    (makeSpace), extra evictions appear exactly when compression
 *    falls short of the tag surplus, and the equal-data-budget
 *    miss-rate acceptance claim (extra-tag BDI zcache strictly below
 *    the uncompressed zcache);
 *  - zkv bytes mode: byte-exact round trips, in-place updates,
 *    evictions, config validation of every rejected combination,
 *    decode-failure containment (Corruption, never a torn value),
 *    stats accounting, warm puts and batches that allocate nothing
 *    (counted by this file's replacement of global operator new), and
 *    multithreaded read-your-writes through the loadgen's
 *    deterministic payload scheme.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cache/array_factory.hpp"
#include "cache/cache_model.hpp"
#include "cache/compressed_array.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "store/loadgen.hpp"
#include "store/zkv.hpp"
#include "trace/generator.hpp"

// Every global operator new in this binary counts into the calling
// thread's tally, so a test can assert that a stretch of its own
// thread's work allocated nothing.
namespace {
thread_local std::uint64_t tlsNews = 0;

void*
countedNew(std::size_t n, std::size_t align)
{
    tlsNews++;
    const std::size_t size = n == 0 ? 1 : n;
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + align - 1) & ~(align - 1);
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, rounded);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
} // namespace

void*
operator new(std::size_t n)
{
    return countedNew(n, 0);
}

void*
operator new(std::size_t n, std::align_val_t a)
{
    return countedNew(n, static_cast<std::size_t>(a));
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace zc {
namespace {

// ------------------------------------------------------------ codecs

std::vector<std::uint8_t>
roundTrip(const Codec& c, const std::vector<std::uint8_t>& src)
{
    std::vector<std::uint8_t> comp(c.maxCompressedSize(src.size()));
    auto n = c.compress(src.data(), src.size(), comp.data(), comp.size());
    EXPECT_TRUE(n.hasValue()) << c.name() << ": " << n.status().str();
    EXPECT_LE(*n, c.maxCompressedSize(src.size())) << c.name();
    std::vector<std::uint8_t> out(src.size());
    auto m = c.decompress(comp.data(), *n, out.data(), out.size());
    EXPECT_TRUE(m.hasValue()) << c.name() << ": " << m.status().str();
    EXPECT_EQ(*m, src.size()) << c.name();
    return out;
}

std::vector<std::uint8_t>
adversarialPayload(int kind, std::size_t n, Pcg32& rng)
{
    std::vector<std::uint8_t> v(n);
    switch (kind) {
      case 0: // all zero — the best case every scheme must nail
        break;
      case 1: // one repeated non-zero byte
        std::fill(v.begin(), v.end(), std::uint8_t{0xa5});
        break;
      case 2: // all-distinct ramp — defeats repeat detection, feeds delta
        for (std::size_t i = 0; i < n; i++)
            v[i] = static_cast<std::uint8_t>(i);
        break;
      default: // incompressible random — must hit the raw fallback
        for (auto& b : v) b = static_cast<std::uint8_t>(rng.next64());
        break;
    }
    return v;
}

TEST(Codec, RoundTripsRandomPayloadsAtEverySize)
{
    Pcg32 rng(1);
    for (CodecKind k : kAllCodecKinds) {
        auto c = makeCodec(k);
        for (std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{8},
                              std::size_t{63}, std::size_t{64},
                              std::size_t{100}, std::size_t{224}}) {
            std::vector<std::uint8_t> src(n);
            for (auto& b : src) b = static_cast<std::uint8_t>(rng.next64());
            EXPECT_EQ(roundTrip(*c, src), src)
                << c->name() << " n=" << n;
        }
    }
}

TEST(Codec, RoundTripsAdversarialPayloads)
{
    Pcg32 rng(2);
    for (CodecKind k : kAllCodecKinds) {
        auto c = makeCodec(k);
        for (int kind = 0; kind < 4; kind++) {
            for (std::size_t n : {std::size_t{16}, std::size_t{64},
                                  std::size_t{224}}) {
                auto src = adversarialPayload(kind, n, rng);
                EXPECT_EQ(roundTrip(*c, src), src)
                    << c->name() << " kind=" << kind << " n=" << n;
            }
        }
    }
}

/**
 * compress() gets exactly maxCompressedSize(n) bytes, as zkv sizes its
 * buffers, followed by a canary: no trial encoding may write past the
 * bound at any length a bytes PUT can carry. The patterns are the
 * adversarial kinds plus a small-delta u64 ramp, whose base+delta
 * trials fit but can lose to raw on short payloads.
 */
TEST(Codec, CompressNeverWritesPastMaxCompressedSize)
{
    constexpr std::size_t kCanary = 32;
    constexpr std::uint8_t kFill = 0xcd;
    Pcg32 rng(5);
    for (CodecKind k : kAllCodecKinds) {
        auto c = makeCodec(k);
        for (int kind = 0; kind < 5; kind++) {
            for (std::size_t n = 0; n <= kZkvMaxValueBytes; n++) {
                std::vector<std::uint8_t> src;
                if (kind < 4) {
                    src = adversarialPayload(kind, n, rng);
                } else {
                    src.resize(n);
                    for (std::size_t off = 0; off < n; off += 8) {
                        std::uint64_t word = 0x1000 + off;
                        std::memcpy(src.data() + off, &word,
                                    std::min<std::size_t>(8, n - off));
                    }
                }
                const std::size_t cap = c->maxCompressedSize(n);
                std::vector<std::uint8_t> buf(cap + kCanary, kFill);
                auto m = c->compress(src.data(), n, buf.data(), cap);
                ASSERT_TRUE(m.hasValue()) << c->name() << " n=" << n;
                for (std::size_t i = cap; i < buf.size(); i++) {
                    ASSERT_EQ(buf[i], kFill)
                        << c->name() << " kind=" << kind << " n=" << n
                        << " wrote byte " << i - cap << " past the bound";
                }
            }
        }
    }
}

TEST(Codec, BdiCompressesTheCompressibleClasses)
{
    auto c = makeCodec(CodecKind::Bdi);
    Pcg32 rng(3);
    std::vector<std::vector<std::uint8_t>> cases;
    cases.push_back(adversarialPayload(0, 64, rng)); // all zero
    cases.push_back(adversarialPayload(1, 64, rng)); // repeated byte
    {
        // Small-delta u64 ramp — the base+delta sweet spot (BDI works
        // at word granularity; a byte ramp is raw-fallback territory).
        std::vector<std::uint8_t> v(64);
        for (std::size_t w = 0; w < 8; w++) {
            std::uint64_t word = 0x1000 + w * 3;
            std::memcpy(v.data() + w * 8, &word, 8);
        }
        cases.push_back(std::move(v));
    }
    for (std::size_t i = 0; i < cases.size(); i++) {
        const auto& src = cases[i];
        std::vector<std::uint8_t> comp(c->maxCompressedSize(src.size()));
        auto n =
            c->compress(src.data(), src.size(), comp.data(), comp.size());
        ASSERT_TRUE(n.hasValue());
        EXPECT_LT(*n, src.size()) << "class " << i;
        EXPECT_EQ(roundTrip(*c, src), src) << "class " << i;
    }
}

// The passthrough guarantee: incompressible input may grow only by the
// fixed header, never more — the bound maxCompressedSize promises.
TEST(Codec, IncompressibleInputStaysWithinTheRawFallbackBound)
{
    auto c = makeCodec(CodecKind::Bdi);
    Pcg32 rng(4);
    auto src = adversarialPayload(3, 224, rng);
    std::vector<std::uint8_t> comp(c->maxCompressedSize(src.size()));
    auto n = c->compress(src.data(), src.size(), comp.data(), comp.size());
    ASSERT_TRUE(n.hasValue());
    EXPECT_LE(*n, c->maxCompressedSize(src.size()));
    EXPECT_GE(*n, src.size()); // raw fallback carries the payload whole
}

TEST(Codec, UndersizedOutputBufferIsAStructuredError)
{
    for (CodecKind k : kAllCodecKinds) {
        auto c = makeCodec(k);
        std::uint8_t src[64] = {};
        std::uint8_t dst[4];
        auto n = c->compress(src, sizeof src, dst, sizeof dst);
        ASSERT_FALSE(n.hasValue()) << c->name();
        EXPECT_EQ(n.status().code(), ErrorCode::InvalidArgument)
            << c->name();
    }
}

TEST(Codec, BdiRejectsCorruptStreams)
{
    auto c = makeCodec(CodecKind::Bdi);
    std::uint8_t dst[64];
    // Shorter than the header.
    std::uint8_t tiny[2] = {0, 1};
    auto a = c->decompress(tiny, sizeof tiny, dst, sizeof dst);
    ASSERT_FALSE(a.hasValue());
    EXPECT_EQ(a.status().code(), ErrorCode::Corruption);
    // Unknown scheme byte.
    std::uint8_t bad[8] = {0xff, 8, 0, 0, 0, 0, 0, 0};
    auto b = c->decompress(bad, sizeof bad, dst, sizeof dst);
    ASSERT_FALSE(b.hasValue());
    EXPECT_EQ(b.status().code(), ErrorCode::Corruption);
}

TEST(Codec, FaultSiteInjectsStructuredCorruption)
{
    for (CodecKind k : kAllCodecKinds) {
        auto c = makeCodec(k);
        std::uint8_t src[16] = {1, 2, 3};
        std::vector<std::uint8_t> comp(c->maxCompressedSize(sizeof src));
        auto n = c->compress(src, sizeof src, comp.data(), comp.size());
        ASSERT_TRUE(n.hasValue());
        std::uint8_t out[16];
        ScopedFault fault("compress.codec");
        auto m = c->decompress(comp.data(), *n, out, sizeof out);
        ASSERT_FALSE(m.hasValue()) << c->name();
        EXPECT_EQ(m.status().code(), ErrorCode::Corruption) << c->name();
    }
}

TEST(Codec, NamesParseAndFactoryAgree)
{
    for (CodecKind k : kAllCodecKinds) {
        auto parsed = parseCodecKind(codecKindName(k));
        ASSERT_TRUE(parsed.hasValue()) << codecKindName(k);
        EXPECT_EQ(*parsed, k);
        auto c = makeCodec(k);
        EXPECT_EQ(c->kind(), k);
        EXPECT_EQ(c->name(), std::string(codecKindName(k)));
    }
    auto bad = parseCodecKind("gzip");
    ASSERT_FALSE(bad.hasValue());
    EXPECT_EQ(bad.status().code(), ErrorCode::NotFound);
}

// ------------------------------------------------------ ContentModel

TEST(ContentModel, FillIsAPureFunctionOfAddrAndSeed)
{
    ContentModel m;
    std::uint8_t a[64], b[64];
    for (std::uint64_t addr : {0ULL, 1ULL, 0x1234ULL, ~0ULL >> 1}) {
        m.fill(addr, a, sizeof a);
        m.fill(addr, b, sizeof b);
        EXPECT_EQ(std::memcmp(a, b, sizeof a), 0) << addr;
    }
    ContentModel other = m;
    other.seed = m.seed + 1;
    m.fill(42, a, sizeof a);
    other.fill(42, b, sizeof b);
    EXPECT_NE(std::memcmp(a, b, sizeof a), 0);
}

TEST(ContentModel, ValidateRejectsOverfullClassMix)
{
    ContentModel m;
    m.zeroPct = 60;
    m.repeatPct = 30;
    m.deltaPct = 20; // 110% total
    EXPECT_FALSE(m.validate().isOk());
}

// -------------------------------------------------- compressed array

ArraySpec
compressedSpec(std::uint32_t data_blocks, std::uint32_t ratio,
               CodecKind codec, const ContentModel& content)
{
    ArraySpec s;
    s.kind = ArrayKind::CompressedZ;
    s.blocks = data_blocks * ratio;
    s.ways = 4;
    s.levels = 2;
    s.policy = PolicyKind::Lru;
    s.seed = 5;
    s.extraTagRatio = ratio;
    s.lineBytes = 64;
    s.codec = codec;
    s.content = content;
    return s;
}

/**
 * The defining invariant: occupied stored bytes never exceed the data
 * budget, at any point in the run — makeSpace must fire extra
 * evictions before an insert that would overflow, and those show up
 * in extraEvictions exactly when the content is too incompressible to
 * fund the tag surplus.
 */
TEST(CompressedArray, ByteBudgetIsNeverExceeded)
{
    ContentModel incompressible;
    incompressible.zeroPct = 0;
    incompressible.repeatPct = 0;
    incompressible.deltaPct = 0;
    auto spec = compressedSpec(256, 2, CodecKind::Bdi, incompressible);
    CacheModel m(makeArray(spec));
    const auto& cz = static_cast<const CompressedZArray&>(m.array());
    Pcg32 rng(6);
    for (int i = 0; i < 20000; i++) {
        m.access(rng.next64() % 2048);
        ASSERT_LE(cz.sizeMirror().occupiedBytes(), cz.dataBudgetBytes())
            << "access " << i;
    }
    // Random content cannot compress 2x, so the doubled tag count must
    // have been paid for with budget evictions.
    EXPECT_GT(m.stats().extraEvictions, 0u);
    EXPECT_EQ(m.stats().extraEvictions,
              cz.sizeMirror().extraEvictions());
}

TEST(CompressedArray, CompressibleContentFundsTheExtraTagsWithoutEvictions)
{
    ContentModel zeros;
    zeros.zeroPct = 100;
    zeros.repeatPct = 0;
    zeros.deltaPct = 0;
    auto spec = compressedSpec(256, 2, CodecKind::Bdi, zeros);
    CacheModel m(makeArray(spec));
    Pcg32 rng(6);
    // Footprint fits the doubled tag count: all-zero lines compress
    // far better than 2x, so no budget eviction may ever fire.
    for (int i = 0; i < 20000; i++) m.access(rng.next64() % 512);
    EXPECT_EQ(m.stats().extraEvictions, 0u);
    const auto& cz = static_cast<const CompressedZArray&>(m.array());
    EXPECT_GT(static_cast<double>(cz.sizeMirror().rawBytesTotal()) /
                  static_cast<double>(cz.sizeMirror().storedBytesTotal()),
              2.0);
}

/**
 * The acceptance claim (ISSUE 10): on the pinned profile, at an EQUAL
 * data byte budget, the extra-tag BDI zcache has a strictly lower
 * miss rate than the uncompressed zcache. Mirrors
 * bench/compressed_curves.cpp at a test-sized scale: 512 data lines,
 * footprint 2x — past the uncompressed capacity, inside the
 * compressed tier's effective capacity on the default content mix.
 */
TEST(CompressedArray, ExtraTagBdiBeatsUncompressedAtEqualDataBudget)
{
    const std::uint32_t data_blocks = 512;
    const std::uint64_t footprint = 1024; // 2x the uncompressed capacity
    const std::uint64_t accesses = 200000;

    ArraySpec plain;
    plain.kind = ArrayKind::ZCache;
    plain.blocks = data_blocks;
    plain.ways = 4;
    plain.levels = 2;
    plain.policy = PolicyKind::Lru;
    plain.seed = 5;

    ContentModel content; // default mix: 20% zero, 20% repeat, 40% delta
    auto comp = compressedSpec(data_blocks, 2, CodecKind::Bdi, content);

    auto run = [&](const ArraySpec& s) {
        CacheModel m(makeArray(s));
        ZipfGenerator gen(0, footprint, 0.9, 17);
        for (std::uint64_t i = 0; i < accesses; i++) {
            m.access(gen.next().lineAddr);
        }
        return m.stats().missRate();
    };

    double plain_miss = run(plain);
    double comp_miss = run(comp);
    EXPECT_LT(comp_miss, plain_miss)
        << "compressed " << comp_miss << " vs plain " << plain_miss;
}

// ----------------------------------------------------- zkv bytes mode

ZkvConfig
bytesConfig(std::uint32_t blocks = 4096)
{
    ZkvConfig cfg;
    cfg.shards = 2;
    cfg.array.blocks = blocks;
    cfg.value.maxBytes = kZkvMaxValueBytes;
    cfg.value.codec = CodecKind::Bdi;
    return cfg;
}

TEST(ZkvBytes, RoundTripsAndUpdatesInPlace)
{
    auto store = ZkvStore::create(bytesConfig());
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    EXPECT_TRUE(kv.bytesMode());

    Pcg32 rng(7);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                          std::size_t{64},
                          std::size_t{kZkvMaxValueBytes}}) {
        std::vector<std::uint8_t> v(n);
        for (auto& b : v) b = static_cast<std::uint8_t>(rng.next64());
        auto pr = kv.putBytes(n + 1, v);
        ASSERT_TRUE(pr.hasValue()) << n;
        EXPECT_TRUE(pr->inserted);
        auto got = kv.getBytes(n + 1);
        ASSERT_TRUE(got.hasValue()) << n;
        ASSERT_TRUE(got->has_value()) << n;
        EXPECT_EQ(**got, v) << n;
    }

    // Update in place: longer, shorter, then equal-length payloads.
    for (std::size_t n : {std::size_t{200}, std::size_t{8},
                          std::size_t{8}}) {
        std::vector<std::uint8_t> v(n);
        for (auto& b : v) b = static_cast<std::uint8_t>(rng.next64());
        auto pr = kv.putBytes(65, v);
        ASSERT_TRUE(pr.hasValue());
        auto got = kv.getBytes(65);
        ASSERT_TRUE(got.hasValue());
        ASSERT_TRUE(got->has_value());
        EXPECT_EQ(**got, v);
    }

    auto miss = kv.getBytes(0xdeadULL);
    ASSERT_TRUE(miss.hasValue());
    EXPECT_FALSE(miss->has_value());
}

TEST(ZkvBytes, RejectsOversizeAndWrongModeCalls)
{
    ZkvConfig cfg = bytesConfig();
    cfg.value.maxBytes = 32;
    auto store = ZkvStore::create(cfg);
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;

    std::vector<std::uint8_t> big(33, 0xab);
    auto pr = kv.putBytes(1, big);
    ASSERT_FALSE(pr.hasValue());
    EXPECT_EQ(pr.status().code(), ErrorCode::InvalidArgument);

    // u64 put on a bytes store (get() asserts — it is compile-time
    // unreachable for bytes-mode callers, docs/store.md).
    EXPECT_EQ(kv.put(1, 1).status().code(), ErrorCode::InvalidArgument);

    // Bytes entry points on a u64 store.
    auto u64store = ZkvStore::create(ZkvConfig{});
    ASSERT_TRUE(u64store.hasValue());
    std::vector<std::uint8_t> small(4, 1);
    EXPECT_EQ((*u64store)->putBytes(1, small).status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ((*u64store)->getBytes(1).status().code(),
              ErrorCode::InvalidArgument);
}

TEST(ZkvBytes, ValidateRejectsIncompatibleConfigs)
{
    { // over the protocol cap
        ZkvConfig cfg = bytesConfig();
        cfg.value.maxBytes = kZkvMaxValueBytes + 1;
        EXPECT_FALSE(ZkvStore::create(cfg).hasValue());
    }
    { // optimistic read path cannot snapshot byte payloads
        ZkvConfig cfg = bytesConfig();
        cfg.readPath = ReadPath::Optimistic;
        auto r = ZkvStore::create(cfg);
        ASSERT_FALSE(r.hasValue());
        EXPECT_EQ(r.status().code(), ErrorCode::Unsupported);
    }
    { // durability tier records u64 values
        ZkvConfig cfg = bytesConfig();
        cfg.persist.dataDir = "/tmp/zc-test-compress-persist";
        auto r = ZkvStore::create(cfg);
        ASSERT_FALSE(r.hasValue());
        EXPECT_EQ(r.status().code(), ErrorCode::Unsupported);
    }
    { // compressed array kinds are simulator-only
        ZkvConfig cfg;
        cfg.array.kind = ArrayKind::CompressedZ;
        auto r = ZkvStore::create(cfg);
        ASSERT_FALSE(r.hasValue());
        EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
    }
}

TEST(ZkvBytes, EvictionReportsTheEvictedKey)
{
    ZkvConfig cfg = bytesConfig(64);
    cfg.shards = 1;
    auto store = ZkvStore::create(cfg);
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    std::vector<std::uint8_t> v(32, 0x11);
    bool evicted = false;
    for (std::uint64_t key = 1; key <= 256 && !evicted; key++) {
        auto pr = kv.putBytes(key, v);
        ASSERT_TRUE(pr.hasValue()) << key;
        if (pr->evicted) {
            evicted = true;
            // The evicted key must be gone; the payload is dropped,
            // never decompressed into the result.
            auto got = kv.getBytes(pr->evictedKey);
            ASSERT_TRUE(got.hasValue());
            EXPECT_FALSE(got->has_value());
            EXPECT_EQ(pr->evictedValue, 0u);
        }
    }
    EXPECT_TRUE(evicted);
}

/**
 * Satellite (a): a decode failure surfaces as Corruption and never as
 * a torn or partial value — and it is per-operation: the entry stays
 * resident and readable once the fault clears.
 */
TEST(ZkvBytes, DecompressFailureIsCorruptionNeverATornValue)
{
    auto store = ZkvStore::create(bytesConfig());
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    std::vector<std::uint8_t> v(100);
    for (std::size_t i = 0; i < v.size(); i++) {
        v[i] = static_cast<std::uint8_t>(i * 3);
    }
    ASSERT_TRUE(kv.putBytes(9, v).hasValue());
    {
        ScopedFault fault("compress.codec");
        auto got = kv.getBytes(9);
        ASSERT_FALSE(got.hasValue());
        EXPECT_EQ(got.status().code(), ErrorCode::Corruption);
    }
    auto after = kv.getBytes(9);
    ASSERT_TRUE(after.hasValue());
    ASSERT_TRUE(after->has_value());
    EXPECT_EQ(**after, v);
}

TEST(ZkvBytes, CompressionTotalsAccountResidentBytes)
{
    auto store = ZkvStore::create(bytesConfig());
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    std::vector<std::uint8_t> zeros(64, 0);
    for (std::uint64_t key = 1; key <= 100; key++) {
        ASSERT_TRUE(kv.putBytes(key, zeros).hasValue());
    }
    ZkvCompressionStats cp = kv.compressionTotals();
    EXPECT_EQ(cp.compressCalls, 100u);
    EXPECT_EQ(cp.rawBytesTotal, 6400u);
    EXPECT_LT(cp.storedBytesTotal, cp.rawBytesTotal);
    EXPECT_EQ(cp.residentRawBytes, 6400u);
    EXPECT_EQ(cp.residentStoredBytes, cp.storedBytesTotal);
    EXPECT_GT(cp.ratio(), 1.0);

    // Erase returns the resident accounting to zero.
    for (std::uint64_t key = 1; key <= 100; key++) {
        ASSERT_TRUE(kv.erase(key));
    }
    cp = kv.compressionTotals();
    EXPECT_EQ(cp.residentRawBytes, 0u);
    EXPECT_EQ(cp.residentStoredBytes, 0u);
}

/** Overwriting one key with payloads of one length reuses its slab
 *  slot, so 10,000 overwrites hold the store at one slab. */
TEST(ZkvBytes, OverwritesOfOneLengthHoldOneSlab)
{
    auto store = ZkvStore::create(bytesConfig());
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    Pcg32 rng(5);
    std::vector<std::uint8_t> v(100);
    for (int i = 0; i < 10000; i++) {
        for (auto& b : v) b = static_cast<std::uint8_t>(rng.next64());
        ASSERT_TRUE(kv.putBytes(42, v).hasValue()) << i;
    }
    EXPECT_EQ(kv.compressionTotals().slabBytes, kZkvSlabBytes);
    auto got = kv.getBytes(42);
    ASSERT_TRUE(got.hasValue());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, v);
}

/**
 * Payload memory belongs to the shard, not to the thread that put it:
 * a store filled by one thread and then wholly overwritten by another,
 * with the same lengths, reuses the slots the overwrites free, so
 * slab_bytes grows by at most one slab per size class.
 */
TEST(ZkvBytes, AnotherThreadsOverwritesReuseTheFreedSlots)
{
    ZkvConfig cfg = bytesConfig();
    cfg.value.codec = CodecKind::None; // stored length == value length
    auto store = ZkvStore::create(cfg);
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    // Half the capacity, so the fill evicts nothing and every key is
    // still resident for the overwrite.
    const std::uint64_t keys = std::uint64_t{cfg.shards} * cfg.array.blocks / 2;
    const auto pass = [&](std::uint64_t seed) {
        Pcg32 rng(seed);
        std::vector<std::uint8_t> v;
        for (std::uint64_t key = 1; key <= keys; key++) {
            v.resize(1 + (key * 37) % kZkvMaxValueBytes);
            for (auto& b : v) b = static_cast<std::uint8_t>(rng.next64());
            ASSERT_TRUE(kv.putBytes(key, v).hasValue()) << key;
        }
    };
    std::thread(pass, 1).join();
    const ZkvCompressionStats filled = kv.compressionTotals();
    ASSERT_EQ(kv.totals().evictions, 0u);
    std::thread(pass, 2).join();
    const ZkvCompressionStats overwritten = kv.compressionTotals();
    ASSERT_EQ(kv.size(), keys);

    const std::uint64_t classes = kZkvMaxValueBytes / kZkvSlabClassBytes;
    // Without reuse the overwrite would grow the slabs by about the
    // fill, which is above the bound.
    EXPECT_GT(filled.slabBytes, classes * kZkvSlabBytes);
    EXPECT_LE(overwritten.slabBytes - filled.slabBytes,
              classes * kZkvSlabBytes);
    EXPECT_EQ(overwritten.residentStoredBytes, filled.residentStoredBytes);
}

/**
 * Warm bytes-mode ops make no heap allocation on the calling thread: a
 * single-op putBytes compresses straight from the caller's span, and
 * runShardBatch reuses its results' payload buffers and the thread's
 * packing scratch. Each overwrite has its key's length, so it reuses
 * its slab slot.
 */
TEST(ZkvBytes, WarmPutsAndBatchesAllocateNothing)
{
    auto store = ZkvStore::create(bytesConfig());
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    Pcg32 rng(3);
    std::vector<std::uint8_t> payload(100);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next64());

    for (std::uint64_t key = 1; key <= 16; key++) {
        ASSERT_TRUE(kv.putBytes(key, payload).hasValue());
    }
    std::uint64_t failed = 0;
    const std::uint64_t putNews = tlsNews;
    for (std::uint64_t i = 0; i < 1000; i++) {
        failed += kv.putBytes(1 + i % 16, payload).hasValue() ? 0 : 1;
    }
    const std::uint64_t putAllocs = tlsNews - putNews;
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(putAllocs, 0u) << "allocations in 1,000 warm putBytes";

    // A 16-op batch on shard 0: puts, get hits, and an erase that the
    // next op undoes, over op and result vectors the loop reuses.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t key = 100; keys.size() < 8; key++) {
        if (kv.shardOf(key) == 0) keys.push_back(key);
    }
    for (std::uint64_t key : keys) {
        ASSERT_TRUE(kv.putBytes(key, payload).hasValue());
    }
    struct Step
    {
        ObsOp kind;
        std::size_t key;
    };
    const Step steps[] = {
        {ObsOp::Put, 0}, {ObsOp::Get, 0}, {ObsOp::Get, 1},   {ObsOp::Put, 1},
        {ObsOp::Get, 2}, {ObsOp::Get, 3}, {ObsOp::Erase, 4}, {ObsOp::Put, 4},
        {ObsOp::Get, 4}, {ObsOp::Get, 5}, {ObsOp::Put, 5},   {ObsOp::Get, 6},
        {ObsOp::Get, 7}, {ObsOp::Put, 6}, {ObsOp::Get, 0},   {ObsOp::Put, 7},
    };
    std::vector<StoreBatchOp> ops(std::size(steps));
    for (std::size_t i = 0; i < ops.size(); i++) {
        ops[i].kind = steps[i].kind;
        ops[i].key = keys[steps[i].key];
        if (ops[i].kind == ObsOp::Put) ops[i].valueBytes = payload;
    }
    std::vector<StoreBatchResult> out(ops.size());
    const auto batch = [&] { kv.runShardBatch(0, ops, out.data()); };
    batch(); // warm-up: the results' buffers and the packing scratch
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    const std::uint64_t batchNews = tlsNews;
    for (int r = 0; r < 100; r++) {
        batch();
        for (std::size_t i = 0; i < ops.size(); i++) {
            failed += out[i].code == ErrorCode::Ok ? 0 : 1;
            gets += ops[i].kind == ObsOp::Get ? 1 : 0;
            hits += ops[i].kind == ObsOp::Get && out[i].hit ? 1 : 0;
        }
    }
    const std::uint64_t batchAllocs = tlsNews - batchNews;
    EXPECT_EQ(failed, 0u);
    EXPECT_EQ(batchAllocs, 0u) << "allocations in 100 warm 16-op batches";
    EXPECT_EQ(hits, gets);
    for (std::size_t i = 0; i < ops.size(); i++) {
        if (ops[i].kind == ObsOp::Get) {
            EXPECT_EQ(out[i].valueBytes, payload) << "op " << i;
        }
    }
}

/**
 * The acceptance run, in-process: multithreaded loadgen against a
 * compressed store, byte-exact read-your-writes (verifyFailures == 0
 * — every hit regenerated from (key, writer tid) and compared whole)
 * and a realized ratio >= 1 on the mixed payload classes.
 */
TEST(ZkvBytes, MultithreadedLoadgenReadsItsWritesByteExactly)
{
    LoadGenConfig cfg;
    cfg.store = bytesConfig();
    cfg.threads = 4;
    cfg.opsPerThread = 20000;
    cfg.seed = 11;
    cfg.valueBytesMin = 8;
    cfg.valueBytesMax = 128;
    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    ThreadStats agg = r->aggregate();
    EXPECT_GT(agg.getHits, 0u);
    EXPECT_EQ(agg.verifyFailures, 0u);
    EXPECT_EQ(agg.getErrors, 0u);
    EXPECT_EQ(agg.putErrors, 0u);
    EXPECT_GE(r->compression.ratio(), 1.0);
    EXPECT_GT(r->compression.compressCalls, 0u);
    EXPECT_GT(r->residentKeys, 0u);
}

} // namespace
} // namespace zc
