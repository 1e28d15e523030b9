/**
 * @file
 * zkv store tests (docs/store.md): single-thread shard semantics
 * (get/put/erase, eviction picks the relocation walk's victim),
 * deterministic stats for a fixed seed, structured-error fault
 * injection at store.alloc / store.walk, concurrent read-your-writes
 * under >= 4 threads over >= 2 shards, a shard-lock torture test and
 * a cross-thread register check of whole-store histories (the targets
 * of the CI ThreadSanitizer job).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "obs/tracer.hpp"
#include "store/loadgen.hpp"
#include "store/zkv.hpp"

namespace zc {
namespace {

/** Small single-shard zcache store: evicts early, walk-heavy. */
ZkvConfig
tinyConfig(std::uint32_t shards = 1, std::uint32_t blocks = 64)
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

std::unique_ptr<ZkvStore>
mustCreate(const ZkvConfig& cfg)
{
    auto store = ZkvStore::create(cfg);
    EXPECT_TRUE(store.hasValue()) << store.status().str();
    return std::move(*store);
}

// ---------------------------------------------------------------------
// Single-thread shard semantics.

TEST(ZkvStore, GetPutEraseRoundTrip)
{
    auto kv = mustCreate(tinyConfig());

    EXPECT_EQ(kv->get(10), std::nullopt);

    auto put = kv->put(10, 111);
    ASSERT_TRUE(put.hasValue());
    EXPECT_TRUE(put->inserted);
    EXPECT_FALSE(put->evicted);
    EXPECT_EQ(kv->get(10), std::optional<std::uint64_t>(111));
    EXPECT_EQ(kv->size(), 1u);

    // Update in place: no insert, value replaced.
    put = kv->put(10, 222);
    ASSERT_TRUE(put.hasValue());
    EXPECT_FALSE(put->inserted);
    EXPECT_EQ(kv->get(10), std::optional<std::uint64_t>(222));
    EXPECT_EQ(kv->size(), 1u);

    EXPECT_TRUE(kv->erase(10));
    EXPECT_EQ(kv->get(10), std::nullopt);
    EXPECT_FALSE(kv->erase(10));
    EXPECT_EQ(kv->size(), 0u);
}

TEST(ZkvStore, ReservedKeyRejectedStructurally)
{
    auto kv = mustCreate(tinyConfig());
    auto put = kv->put(ZkvStore::kReservedKey, 1);
    ASSERT_FALSE(put.hasValue());
    EXPECT_EQ(put.status().code(), ErrorCode::InvalidArgument);
}

TEST(ZkvStore, InvalidConfigRejected)
{
    ZkvConfig cfg = tinyConfig();
    cfg.shards = 0;
    auto store = ZkvStore::create(cfg);
    ASSERT_FALSE(store.hasValue());
    EXPECT_EQ(store.status().code(), ErrorCode::InvalidArgument);

    cfg = tinyConfig();
    cfg.array.blocks = 60; // blocks/ways not a power of two
    store = ZkvStore::create(cfg);
    ASSERT_FALSE(store.hasValue());
    EXPECT_EQ(store.status().code(), ErrorCode::InvalidArgument);
}

TEST(ZkvStore, ShardSelectionCoversAllShards)
{
    auto kv = mustCreate(tinyConfig(/*shards=*/4));
    std::vector<std::uint64_t> hits(4, 0);
    for (std::uint64_t k = 0; k < 4000; k++) {
        std::uint32_t s = kv->shardOf(k);
        ASSERT_LT(s, 4u);
        hits[s]++;
    }
    for (std::uint64_t h : hits) {
        EXPECT_GT(h, 700u); // ~1000 each; splitmix64 spreads uniformly
    }
}

/**
 * Eviction picks the walk victim: a shard must report exactly the
 * eviction sequence a bare factory-built array with the shard's spec
 * produces under the identical access/insert sequence — the value
 * mirror may not perturb the walk.
 */
TEST(ZkvStore, EvictionPicksTheWalkVictim)
{
    ZkvConfig cfg = tinyConfig(/*shards=*/1, /*blocks=*/64);
    auto kv = mustCreate(cfg);

    // Reference: the same array + policy the shard builds (shardSpec
    // exposes the derived per-shard seed).
    auto bare = makeArray(cfg.shardSpec(0));

    std::vector<std::uint64_t> store_evicted;
    std::vector<std::uint64_t> bare_evicted;
    Pcg32 rng(99);
    for (int i = 0; i < 2000; i++) {
        std::uint64_t key = rng.next64() % 256;
        if (rng.uniform() < 0.5) {
            // put: access (hit => update) else insert.
            auto pr = kv->put(key, key * 3);
            ASSERT_TRUE(pr.hasValue());
            if (pr->evicted) store_evicted.push_back(pr->evictedKey);

            AccessContext ctx{key, kNoNextUse};
            if (bare->access(key, ctx) == kInvalidPos) {
                Replacement r = bare->insert(key, ctx);
                if (r.evictedValid()) {
                    bare_evicted.push_back(r.evictedAddr);
                }
            }
        } else {
            (void)kv->get(key);
            AccessContext ctx{key, kNoNextUse};
            (void)bare->access(key, ctx);
        }
    }
    ASSERT_GT(store_evicted.size(), 100u); // footprint 4x capacity
    EXPECT_EQ(store_evicted, bare_evicted);
}

TEST(ZkvStore, EvictedValueTravelsWithTheKey)
{
    auto kv = mustCreate(tinyConfig(/*shards=*/1, /*blocks=*/16));
    // Value = key * 7 + 1: when an insert displaces a resident key,
    // the reported pair must still match — values must have followed
    // their blocks through every walk relocation.
    Pcg32 rng(3);
    std::uint64_t evictions = 0;
    for (int i = 0; i < 3000; i++) {
        std::uint64_t key = rng.next64() % 64;
        auto pr = kv->put(key, key * 7 + 1);
        ASSERT_TRUE(pr.hasValue());
        if (pr->evicted) {
            evictions++;
            EXPECT_EQ(pr->evictedValue, pr->evictedKey * 7 + 1)
                << "value lost in relocation for key " << pr->evictedKey;
        }
    }
    EXPECT_GT(evictions, 500u);
}

TEST(ZkvStore, SetAssociativeBaselineShards)
{
    ZkvConfig cfg = tinyConfig(/*shards=*/2, /*blocks=*/64);
    cfg.array.kind = ArrayKind::SetAssoc;
    auto kv = mustCreate(cfg);

    std::uint64_t evictions = 0;
    for (std::uint64_t k = 0; k < 1000; k++) {
        auto pr = kv->put(k, k + 5);
        ASSERT_TRUE(pr.hasValue());
        if (pr->evicted) evictions++;
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_LE(kv->size(), 128u);
    // Resident keys still read back exactly.
    std::uint64_t hits = 0;
    for (std::uint64_t k = 0; k < 1000; k++) {
        if (auto v = kv->get(k)) {
            hits++;
            EXPECT_EQ(*v, k + 5);
        }
    }
    EXPECT_GT(hits, 0u);
}

TEST(ZkvStore, SkewAssociativeShards)
{
    ZkvConfig cfg = tinyConfig(/*shards=*/2, /*blocks=*/64);
    cfg.array.kind = ArrayKind::SkewAssoc;
    auto kv = mustCreate(cfg);
    for (std::uint64_t k = 0; k < 500; k++) {
        ASSERT_TRUE(kv->put(k, ~k).hasValue());
    }
    std::uint64_t hits = 0;
    for (std::uint64_t k = 0; k < 500; k++) {
        if (auto v = kv->get(k)) {
            hits++;
            EXPECT_EQ(*v, ~k);
        }
    }
    EXPECT_GT(hits, 0u);
}

// ---------------------------------------------------------------------
// Stats.

TEST(ZkvStore, StatsTreeShapeAndTotals)
{
    auto kv = mustCreate(tinyConfig(/*shards=*/2));
    for (std::uint64_t k = 0; k < 100; k++) {
        ASSERT_TRUE(kv->put(k, k).hasValue());
    }
    for (std::uint64_t k = 0; k < 100; k++) (void)kv->get(k);
    (void)kv->erase(7);

    StatsRegistry reg;
    kv->registerStats(reg.root());
    JsonValue dump = reg.toJson();

    const JsonValue* store = dump.find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->find("shards")->asU64(), 2u);
    ASSERT_NE(store->find("totals"), nullptr);
    ASSERT_NE(store->find("shard0"), nullptr);
    ASSERT_NE(store->find("shard1"), nullptr);
    ASSERT_NE(store->find("shard0")->find("array"), nullptr);
    // ZCache shards expose the walk group.
    EXPECT_NE(store->find("shard0")->find("array")->find("walk"), nullptr);

    ZkvShardStats tot = kv->totals();
    EXPECT_EQ(tot.puts, 100u);
    EXPECT_EQ(tot.gets, 100u);
    EXPECT_EQ(tot.erases, 1u);
    EXPECT_EQ(store->find("totals")->find("puts")->asU64(), tot.puts);
    EXPECT_EQ(store->find("totals")->find("gets")->asU64(), tot.gets);
    EXPECT_EQ(store->find("resident_keys")->asU64(), kv->size());

    ZkvShardStats sum;
    sumCounters(sum, kShardStatsCounters, kv->shardStats(0));
    sumCounters(sum, kShardStatsCounters, kv->shardStats(1));
    EXPECT_EQ(sum.puts, tot.puts);
    EXPECT_EQ(sum.getHits, tot.getHits);
}

// ---------------------------------------------------------------------
// Fault injection (docs/robustness.md sites store.alloc, store.walk).

TEST(ZkvStore, AllocFaultFailsCreateStructurally)
{
    ScopedFault fault("store.alloc");
    auto store = ZkvStore::create(tinyConfig(/*shards=*/4));
    ASSERT_FALSE(store.hasValue());
    EXPECT_EQ(store.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_NE(store.status().message().find("store.alloc"),
              std::string::npos);
}

TEST(ZkvStore, WalkFaultSurfacesAsStatusNotCrash)
{
    auto kv = mustCreate(tinyConfig());
    ASSERT_TRUE(kv->put(1, 10).hasValue());

    {
        ScopedFault fault("store.walk");
        // Update path never walks: unaffected.
        EXPECT_TRUE(kv->put(1, 11).hasValue());
        // Insert path: the injected walk failure is a structured error.
        auto pr = kv->put(2, 20);
        ASSERT_FALSE(pr.hasValue());
        EXPECT_EQ(pr.status().code(), ErrorCode::ResourceExhausted);
        EXPECT_NE(pr.status().message().find("store.walk"),
                  std::string::npos);
        // The failed insert left no partial state.
        EXPECT_EQ(kv->get(2), std::nullopt);
        EXPECT_EQ(kv->get(1), std::optional<std::uint64_t>(11));
    }

    // Site disarmed: the same insert now succeeds.
    ASSERT_TRUE(kv->put(2, 20).hasValue());
    EXPECT_EQ(kv->get(2), std::optional<std::uint64_t>(20));
}

// ---------------------------------------------------------------------
// Determinism: 1 thread + fixed seed => byte-identical stats.

TEST(ZkvLoadGen, SingleThreadStatsAreByteIdentical)
{
    LoadGenConfig cfg;
    cfg.store = tinyConfig(/*shards=*/2, /*blocks=*/256);
    cfg.threads = 1;
    cfg.opsPerThread = 20000;
    cfg.seed = 42;
    cfg.workload = "canneal";

    auto a = runLoadGen(cfg);
    ASSERT_TRUE(a.hasValue()) << a.status().str();
    auto b = runLoadGen(cfg);
    ASSERT_TRUE(b.hasValue()) << b.status().str();

    EXPECT_EQ(a->storeStats.str(2), b->storeStats.str(2));
    // And the run did real work.
    ThreadStats agg = a->aggregate();
    EXPECT_EQ(agg.ops, 20000u);
    EXPECT_GT(agg.gets, 0u);
    EXPECT_GT(agg.puts, 0u);
    EXPECT_EQ(agg.verifyFailures, 0u);
}

TEST(ZkvLoadGen, DifferentSeedsDiverge)
{
    LoadGenConfig cfg;
    cfg.store = tinyConfig(/*shards=*/2, /*blocks=*/256);
    cfg.threads = 1;
    cfg.opsPerThread = 20000;
    cfg.workload = "canneal";

    cfg.seed = 1;
    auto a = runLoadGen(cfg);
    ASSERT_TRUE(a.hasValue());
    cfg.seed = 2;
    auto b = runLoadGen(cfg);
    ASSERT_TRUE(b.hasValue());
    EXPECT_NE(a->storeStats.str(), b->storeStats.str());
}

/**
 * Wall time spans every worker's own measured interval: it runs from
 * the earliest worker start to the latest worker end, so it cannot
 * start late on a coordinator that wakes after the workers ran.
 */
TEST(ZkvLoadGen, WallClockCoversEveryWorker)
{
    LoadGenConfig cfg;
    cfg.store = tinyConfig(/*shards=*/2, /*blocks=*/256);
    cfg.threads = 1;
    cfg.opsPerThread = 2000;
    cfg.workload = "canneal";

    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    for (const ThreadStats& t : r->perThread) {
        EXPECT_GT(t.seconds, 0.0);
        EXPECT_GE(r->seconds, t.seconds);
    }
}

TEST(ZkvLoadGen, UnknownWorkloadIsStructuredNotFound)
{
    LoadGenConfig cfg;
    cfg.workload = "no-such-workload";
    auto r = runLoadGen(cfg);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
}

TEST(ZkvLoadGen, InvalidMixRejected)
{
    LoadGenConfig cfg;
    cfg.getFrac = 0.9;
    cfg.eraseFrac = 0.2;
    auto r = runLoadGen(cfg);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Optimistic (seqlock) read path, docs/store.md "Read path". Run under
// TSan in CI: lock-free readers race writers' value-mirror stores.

/** tinyConfig on the lock-free get path. */
ZkvConfig
optimisticConfig(std::uint32_t shards = 1, std::uint32_t blocks = 64)
{
    ZkvConfig cfg = tinyConfig(shards, blocks);
    cfg.readPath = ReadPath::Optimistic;
    return cfg;
}

/** Torture payload: any hit on key k must decode to exactly this. */
std::uint64_t
tortureValue(std::uint64_t key)
{
    return zkvMix64(key) | 1;
}

TEST(ZkvOptimistic, CreateRejectsArraysWithoutLookupWays)
{
    // The lock-free reader needs the array to enumerate a key's W
    // candidate positions as a pure function (lookupWays); designs
    // with victim buffers or indirection tables can't, and must be
    // refused structurally instead of racing.
    for (ArrayKind kind : {ArrayKind::FullyAssoc, ArrayKind::VWay}) {
        ZkvConfig cfg = optimisticConfig();
        cfg.array.kind = kind;
        cfg.array.ways = 1;
        cfg.array.levels = 1;
        auto store = ZkvStore::create(cfg);
        ASSERT_FALSE(store.hasValue()) << arrayKindName(kind);
        EXPECT_EQ(store.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(store.status().message().find("optimistic"),
                  std::string::npos);
    }
    // The supported kinds create fine.
    for (ArrayKind kind :
         {ArrayKind::ZCache, ArrayKind::SetAssoc, ArrayKind::SkewAssoc}) {
        ZkvConfig cfg = optimisticConfig();
        cfg.array.kind = kind;
        EXPECT_TRUE(ZkvStore::create(cfg).hasValue()) << arrayKindName(kind);
    }
}

TEST(ZkvOptimistic, RoundTripAndCountersSingleThread)
{
    auto kv = mustCreate(optimisticConfig());

    EXPECT_EQ(kv->get(10), std::nullopt);
    ASSERT_TRUE(kv->put(10, 111).hasValue());
    EXPECT_EQ(kv->get(10), std::optional<std::uint64_t>(111));
    ASSERT_TRUE(kv->put(10, 222).hasValue());
    EXPECT_EQ(kv->get(10), std::optional<std::uint64_t>(222));
    EXPECT_TRUE(kv->erase(10));
    EXPECT_EQ(kv->get(10), std::nullopt);

    // Single-threaded, every optimistic read validates on its first
    // attempt: no retries, no fallbacks, and the seq counters fold
    // into the ordinary gets/get_hits totals.
    ZkvShardStats tot = kv->totals();
    EXPECT_EQ(tot.gets, 4u);
    EXPECT_EQ(tot.getHits, 2u);
    ZkvShardObs obs = kv->obsTotals();
    EXPECT_EQ(obs.getOptimistic, 4u);
    EXPECT_EQ(obs.getRetried, 0u);
    EXPECT_EQ(obs.getFallback, 0u);
}

/**
 * On the optimistic path gets never touch the replacement policy (on
 * the lock-free AND the fallback arm), so eviction decisions are a
 * pure function of the put/erase sequence: a bare factory-built array
 * fed ONLY the puts must report the identical eviction sequence even
 * though the store additionally serves interleaved gets.
 */
TEST(ZkvOptimistic, EvictionIgnoresGetsAndMatchesBareArray)
{
    ZkvConfig cfg = optimisticConfig(/*shards=*/1, /*blocks=*/64);
    auto kv = mustCreate(cfg);
    auto bare = makeArray(cfg.shardSpec(0));

    std::vector<std::uint64_t> store_evicted;
    std::vector<std::uint64_t> bare_evicted;
    Pcg32 rng(99);
    for (int i = 0; i < 2000; i++) {
        std::uint64_t key = rng.next64() % 256;
        if (rng.uniform() < 0.5) {
            auto pr = kv->put(key, key * 3);
            ASSERT_TRUE(pr.hasValue());
            if (pr->evicted) store_evicted.push_back(pr->evictedKey);

            AccessContext ctx{key, kNoNextUse};
            if (bare->access(key, ctx) == kInvalidPos) {
                Replacement r = bare->insert(key, ctx);
                if (r.evictedValid()) {
                    bare_evicted.push_back(r.evictedAddr);
                }
            }
        } else {
            (void)kv->get(key); // no bare-array mirror: gets are inert
        }
    }
    ASSERT_GT(store_evicted.size(), 100u);
    EXPECT_EQ(store_evicted, bare_evicted);
}

/**
 * Seqlock torture: one walk-heavy writer (footprint 4x capacity, so
 * inserts relocate constantly) races lock-free readers. Readers check
 * two invariants: (a) no torn pair — any hit on a writer key decodes
 * to tortureValue(key); (b) read-your-writes — each reader owns a
 * disjoint key range and any hit there returns exactly its last put.
 */
TEST(ZkvOptimistic, SeqlockTortureNoTornOrStaleReads)
{
    ZkvConfig cfg = optimisticConfig(/*shards=*/2, /*blocks=*/128);
    auto kv = mustCreate(cfg);

    constexpr std::uint64_t kWriterKeys = 1024; // keys 1..1024
    constexpr std::uint32_t kReaders = 3;
    constexpr std::uint64_t kOwnKeys = 64;

    std::vector<std::uint64_t> torn(kReaders, 0);
    std::vector<std::uint64_t> stale(kReaders, 0);

    std::thread writer([&] {
        Pcg32 rng(1);
        for (int i = 0; i < 60000; i++) {
            std::uint64_t key = 1 + rng.next64() % kWriterKeys;
            ASSERT_TRUE(kv->put(key, tortureValue(key)).hasValue());
        }
    });
    std::vector<std::thread> readers;
    for (std::uint32_t tid = 0; tid < kReaders; tid++) {
        readers.emplace_back([&, tid] {
            const std::uint64_t base = 10000 + tid * kOwnKeys;
            std::vector<std::uint64_t> last(kOwnKeys, 0);
            Pcg32 rng(100 + tid);
            for (int i = 0; i < 40000; i++) {
                if (rng.uniform() < 0.8) {
                    // Writer range: value is a pure function of key.
                    std::uint64_t key = 1 + rng.next64() % kWriterKeys;
                    if (auto v = kv->get(key)) {
                        if (*v != tortureValue(key)) torn[tid]++;
                    }
                } else {
                    std::uint64_t idx = rng.next64() % kOwnKeys;
                    std::uint64_t key = base + idx;
                    if (rng.uniform() < 0.5) {
                        std::uint64_t val =
                            (std::uint64_t{tid} << 32) | (i + 1);
                        if (kv->put(key, val).hasValue()) last[idx] = val;
                    } else if (auto v = kv->get(key)) {
                        if (last[idx] != 0 && *v != last[idx]) stale[tid]++;
                    }
                }
            }
        });
    }
    writer.join();
    for (auto& r : readers) r.join();

    for (std::uint32_t tid = 0; tid < kReaders; tid++) {
        EXPECT_EQ(torn[tid], 0u) << "torn read, reader " << tid;
        EXPECT_EQ(stale[tid], 0u) << "stale read, reader " << tid;
    }
    // The lock-free path actually served reads (not everything fell
    // back); retries/fallbacks are race-dependent and not asserted.
    ZkvShardObs obs = kv->obsTotals();
    EXPECT_GT(obs.getOptimistic, 0u);
    EXPECT_EQ(kv->totals().gets,
              obs.getOptimistic + obs.getFallback);
}

TEST(ZkvOptimistic, AllGetsBatchAnswersLockFree)
{
    auto kv = mustCreate(optimisticConfig(/*shards=*/1, /*blocks=*/64));
    for (std::uint64_t k = 1; k <= 8; k++) {
        ASSERT_TRUE(kv->put(k, k * 11).hasValue());
    }
    std::vector<StoreBatchOp> ops;
    for (std::uint64_t k = 1; k <= 16; k++) {
        StoreBatchOp op;
        op.kind = ObsOp::Get;
        op.key = k;
        ops.push_back(op);
    }
    std::vector<StoreBatchResult> out(ops.size());
    kv->runShardBatch(0, std::span<const StoreBatchOp>(ops), out.data());
    for (std::uint64_t k = 1; k <= 16; k++) {
        const StoreBatchResult& r = out[k - 1];
        EXPECT_EQ(r.code, ErrorCode::Ok);
        if (k <= 8) {
            EXPECT_TRUE(r.hit) << "key " << k;
            EXPECT_EQ(r.value, k * 11);
        } else {
            EXPECT_FALSE(r.hit) << "key " << k;
        }
    }
    // Uncontended, the whole batch — hits and validated misses alike —
    // is answered without the shard lock.
    ZkvShardObs obs = kv->obsTotals();
    EXPECT_EQ(obs.getOptimistic, 16u);
    EXPECT_EQ(obs.getFallback, 0u);
}

TEST(ZkvOptimistic, MixedBatchKeepsInOrderSemantics)
{
    auto kv = mustCreate(optimisticConfig(/*shards=*/1, /*blocks=*/64));
    // put -> get -> erase -> get on the same key: the gets must see
    // the preceding ops in program order, so a mixed batch may not
    // take the lock-free fork.
    std::vector<StoreBatchOp> ops(4);
    ops[0].kind = ObsOp::Put;
    ops[0].key = 5;
    ops[0].value = 55;
    ops[1].kind = ObsOp::Get;
    ops[1].key = 5;
    ops[2].kind = ObsOp::Erase;
    ops[2].key = 5;
    ops[3].kind = ObsOp::Get;
    ops[3].key = 5;
    std::vector<StoreBatchResult> out(ops.size());
    kv->runShardBatch(0, std::span<const StoreBatchOp>(ops), out.data());
    EXPECT_TRUE(out[0].inserted);
    EXPECT_TRUE(out[1].hit);
    EXPECT_EQ(out[1].value, 55u);
    EXPECT_TRUE(out[2].hit);
    EXPECT_FALSE(out[3].hit);
}

/**
 * A get in a batch with a put is answered under the lock, but it is
 * still an optimistic-mode get: it must not promote, so the eviction
 * sequence stays the bare array's fed only the puts, and it counts as
 * a fallback (every get is either optimistic or a fallback).
 */
TEST(ZkvOptimistic, MixedBatchesKeepEvictionAPureFunctionOfPuts)
{
    ZkvConfig cfg = optimisticConfig(/*shards=*/1, /*blocks=*/64);
    auto kv = mustCreate(cfg);
    auto bare = makeArray(cfg.shardSpec(0));

    std::vector<std::uint64_t> store_evicted;
    std::vector<std::uint64_t> bare_evicted;
    Pcg32 rng(23);
    for (int i = 0; i < 500; i++) {
        std::vector<StoreBatchOp> ops(2);
        ops[0].kind = ObsOp::Put;
        ops[0].key = rng.next64() % 256;
        ops[0].value = ops[0].key * 3;
        ops[1].kind = ObsOp::Get;
        ops[1].key = rng.next64() % 256;
        std::vector<StoreBatchResult> out(ops.size());
        kv->runShardBatch(0, std::span<const StoreBatchOp>(ops), out.data());
        ASSERT_EQ(out[0].code, ErrorCode::Ok);
        if (out[0].evicted) store_evicted.push_back(out[0].evictedKey);

        AccessContext ctx{ops[0].key, kNoNextUse};
        if (bare->access(ops[0].key, ctx) == kInvalidPos) {
            Replacement r = bare->insert(ops[0].key, ctx);
            if (r.evictedValid()) bare_evicted.push_back(r.evictedAddr);
        }
    }
    ASSERT_GT(store_evicted.size(), 100u);
    EXPECT_EQ(store_evicted, bare_evicted);

    ZkvShardObs obs = kv->obsTotals();
    EXPECT_EQ(kv->totals().gets, 500u);
    EXPECT_EQ(kv->totals().gets, obs.getOptimistic + obs.getFallback);
}

TEST(ZkvOptimistic, TracedPathMatchesPlain)
{
    // Same op sequence with and without live telemetry: identical
    // answers and identical op/seq counters (the traced twins add
    // attribution, never semantics).
    auto plain = mustCreate(optimisticConfig(/*shards=*/2, /*blocks=*/128));
    auto traced = mustCreate(optimisticConfig(/*shards=*/2, /*blocks=*/128));
    ObsTracerConfig tc; // empty path: count-only collector
    ObsTracer tracer(std::move(tc));
    traced->enableObs(&tracer);

    Pcg32 rng(17);
    for (int i = 0; i < 4000; i++) {
        std::uint64_t key = 1 + rng.next64() % 512;
        double u = rng.uniform();
        if (u < 0.6) {
            EXPECT_EQ(plain->get(key), traced->get(key));
        } else if (u < 0.9) {
            ASSERT_TRUE(plain->put(key, key + i).hasValue());
            ASSERT_TRUE(traced->put(key, key + i).hasValue());
        } else {
            EXPECT_EQ(plain->erase(key), traced->erase(key));
        }
    }
    traced->disableObs();

    ZkvShardStats ps = plain->totals();
    ZkvShardStats ts = traced->totals();
    EXPECT_EQ(ps.gets, ts.gets);
    EXPECT_EQ(ps.getHits, ts.getHits);
    EXPECT_EQ(ps.evictions, ts.evictions);
    ZkvShardObs po = plain->obsTotals();
    ZkvShardObs to = traced->obsTotals();
    EXPECT_EQ(po.getOptimistic, to.getOptimistic);
    EXPECT_EQ(po.getFallback, to.getFallback);
}

// ---------------------------------------------------------------------
// Concurrency (run under TSan in CI): >= 4 threads over >= 2 shards
// with strict read-your-writes on per-thread key ranges.

TEST(ZkvConcurrency, ReadYourWritesAcrossFourThreads)
{
    ZkvConfig cfg = tinyConfig(/*shards=*/4, /*blocks=*/1024);
    auto kv = mustCreate(cfg);

    constexpr std::uint32_t kThreads = 4;
    constexpr std::uint64_t kKeysPerThread = 512;
    constexpr std::uint64_t kOps = 20000;
    std::vector<std::uint64_t> failures(kThreads, 0);

    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < kThreads; tid++) {
        workers.emplace_back([&, tid] {
            // Disjoint key range per thread: only this thread writes
            // these keys, so any hit must return exactly its last put.
            const std::uint64_t base = 1 + tid * kKeysPerThread;
            std::vector<std::uint64_t> last(kKeysPerThread, 0);
            Pcg32 rng(tid + 1);
            for (std::uint64_t i = 0; i < kOps; i++) {
                std::uint64_t idx = rng.next64() % kKeysPerThread;
                std::uint64_t key = base + idx;
                double u = rng.uniform();
                if (u < 0.5) {
                    if (auto v = kv->get(key)) {
                        if (last[idx] == 0 || *v != last[idx]) {
                            failures[tid]++;
                        }
                    }
                } else if (u < 0.9) {
                    std::uint64_t val = (i << 8) | tid | 0x100;
                    auto pr = kv->put(key, val);
                    if (pr.hasValue()) {
                        last[idx] = val;
                    } else {
                        failures[tid]++;
                    }
                } else {
                    (void)kv->erase(key);
                    last[idx] = 0; // next hit must be a fresh put
                }
            }
        });
    }
    for (auto& w : workers) w.join();

    for (std::uint32_t tid = 0; tid < kThreads; tid++) {
        EXPECT_EQ(failures[tid], 0u) << "thread " << tid;
    }
    // All four threads really hammered the same store.
    ZkvShardStats tot = kv->totals();
    EXPECT_EQ(tot.gets + tot.puts + tot.erases, kThreads * kOps);
}

TEST(ZkvConcurrency, SpinLockModeIsEquallySafe)
{
    ZkvConfig cfg = tinyConfig(/*shards=*/2, /*blocks=*/256);
    cfg.lock = ShardLockKind::Spin;
    auto kv = mustCreate(cfg);

    constexpr std::uint32_t kThreads = 4;
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < kThreads; tid++) {
        workers.emplace_back([&, tid] {
            Pcg32 rng(tid + 10);
            for (int i = 0; i < 5000; i++) {
                std::uint64_t key = 1 + rng.next64() % 512;
                if (rng.uniform() < 0.5) {
                    (void)kv->get(key);
                } else {
                    (void)kv->put(key, key);
                }
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(kv->totals().gets + kv->totals().puts, kThreads * 5000u);
}

TEST(ZkvConcurrency, LoadGenMultithreadVerifiesPayloads)
{
    LoadGenConfig cfg;
    cfg.store = tinyConfig(/*shards=*/2, /*blocks=*/512);
    cfg.threads = 4;
    cfg.opsPerThread = 10000;
    cfg.seed = 7;
    cfg.workload = "canneal";

    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    ASSERT_EQ(r->perThread.size(), 4u);
    ThreadStats agg = r->aggregate();
    EXPECT_EQ(agg.ops, 40000u);
    EXPECT_EQ(agg.verifyFailures, 0u);
    EXPECT_EQ(agg.putErrors, 0u);
    EXPECT_GT(r->opsPerSec, 0.0);
    EXPECT_GT(r->seconds, 0.0);
    // Timing block carries aggregate + per-thread latency.
    JsonValue timing = r->timing();
    EXPECT_EQ(timing.find("ops_total")->asU64(), 40000u);
    EXPECT_EQ(timing.find("per_thread")->arr().size(), 4u);
    EXPECT_GT(timing.find("latency")->find("count")->asU64(), 0u);
}

TEST(ZkvConcurrency, LoadGenOptimisticReadPathVerifies)
{
    // The loadgen's payload verification (value must decode to the
    // writing thread + op) through the lock-free read path, 4 threads
    // over 2 shards — the CI TSan smoke in miniature.
    LoadGenConfig cfg;
    cfg.store = tinyConfig(/*shards=*/2, /*blocks=*/512);
    cfg.store.readPath = ReadPath::Optimistic;
    cfg.threads = 4;
    cfg.opsPerThread = 10000;
    cfg.seed = 9;
    cfg.workload = "canneal";
    cfg.getFrac = 0.9;
    cfg.eraseFrac = 0.0;

    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    ThreadStats agg = r->aggregate();
    EXPECT_EQ(agg.ops, 40000u);
    EXPECT_EQ(agg.verifyFailures, 0u);
    EXPECT_EQ(agg.putErrors, 0u);
}

// ---------------------------------------------------------------------
// The shard lock under torture, and a cross-thread register check of
// whole-store histories (both run under TSan and ASan+UBSan in CI).

/**
 * 8 threads take one ShardLock 20,000 times each and bump a plain
 * counter; an atomic count of current holders flags any overlap.
 * Every 64th time thread 0 takes it, it sleeps 1 ms before letting
 * go, so Mutex waiters use up their spin and park. A lost wake-up
 * leaves parked threads asleep for good, and joining them would hang:
 * past a 60 s deadline the test reports that and ends the process.
 */
void
tortureShardLock(ShardLockKind kind)
{
    constexpr std::uint32_t kThreads = 8;
    constexpr std::uint64_t kTakes = 20000;
    ShardLock lock(kind);
    std::uint64_t counter = 0;            // guarded by lock
    std::atomic<std::uint32_t> inside{0}; // holders right now
    std::atomic<std::uint64_t> overlaps{0}, contended{0}, spins{0};
    std::atomic<std::uint32_t> done{0};
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < kThreads; tid++) {
        workers.emplace_back([&, tid] {
            for (std::uint64_t i = 0; i < kTakes; i++) {
                // Alternate the instrumented and the plain entry. The
                // first take is instrumented: the sleeps keep threads
                // 1-7 waiting there while thread 0 runs.
                if (i % 2 == 1) {
                    lock.lock();
                } else {
                    const ShardLock::Acquire a = lock.lockInstrumented();
                    contended += a.contended ? 1 : 0;
                    spins += a.spins;
                }
                // A second holder shows here, not only as a lost count.
                if (inside.fetch_add(1) != 0) overlaps++;
                counter++;
                if (tid == 0 && i % 64 == 0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
                inside.fetch_sub(1);
                lock.unlock();
            }
            done++;
        });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (done.load() < kThreads &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done.load() < kThreads) {
        ADD_FAILURE() << kThreads - done.load()
                      << " workers still waiting after 60 s: a lost wake-up";
        std::fflush(stdout);
        std::_Exit(1);
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(overlaps.load(), 0u);
    EXPECT_EQ(counter, kThreads * kTakes);
    EXPECT_GT(contended.load(), 0u);
    EXPECT_GT(spins.load(), 0u);
}

TEST(ZkvShardLock, MutexTortureCountsExactlyAndWakesParkedWaiters)
{
    tortureShardLock(ShardLockKind::Mutex);
}

TEST(ZkvShardLock, SpinTortureCountsExactly)
{
    tortureShardLock(ShardLockKind::Spin);
}

/**
 * One op of a recorded history. `invoke` and `complete` are stamps
 * from one global counter, taken just before the call and just after
 * it returns, so an op whose complete stamp is below another's invoke
 * stamp finished before that one started.
 */
struct HistoryOp
{
    ObsOp kind = ObsOp::Get;
    std::uint64_t key = 0;
    std::uint64_t value = 0; ///< put: value written; get hit: value read
    bool hit = false;        ///< get: found the key
    std::uint64_t invoke = 0;
    std::uint64_t complete = 0;
};

/**
 * Check @p history against a per-key register in which a miss is
 * always legal (an eviction may drop any key). A get hit must return a
 * value some put of that key wrote (put values are unique), and:
 *  - that put was invoked before the get completed;
 *  - no other put or erase of the key lies wholly between that put's
 *    completion and the get's invocation.
 * Returns one line per violation.
 */
std::vector<std::string>
checkRegisterHistory(const std::vector<HistoryOp>& history)
{
    std::unordered_map<std::uint64_t, const HistoryOp*> putOf;
    std::unordered_map<std::uint64_t, std::vector<const HistoryOp*>> writes;
    for (const HistoryOp& op : history) {
        if (op.kind == ObsOp::Get) continue;
        if (op.kind == ObsOp::Put) putOf[op.value] = &op;
        writes[op.key].push_back(&op);
    }
    for (auto& [key, ws] : writes) {
        std::sort(ws.begin(), ws.end(),
                  [](const HistoryOp* a, const HistoryOp* b) {
                      return a->invoke < b->invoke;
                  });
    }
    std::vector<std::string> bad;
    for (const HistoryOp& get : history) {
        if (get.kind != ObsOp::Get || !get.hit) continue;
        const std::string where = "get of key " + std::to_string(get.key) +
                                  " at [" + std::to_string(get.invoke) +
                                  ", " + std::to_string(get.complete) + "]";
        auto it = putOf.find(get.value);
        if (it == putOf.end() || it->second->key != get.key) {
            bad.push_back(where + " read " + std::to_string(get.value) +
                          ", never put for that key");
            continue;
        }
        const HistoryOp& put = *it->second;
        if (put.invoke > get.complete) {
            bad.push_back(where + " read a put invoked after it completed");
            continue;
        }
        const std::vector<const HistoryOp*>& ws = writes[get.key];
        auto w = std::upper_bound(ws.begin(), ws.end(), put.complete,
                                  [](std::uint64_t t, const HistoryOp* op) {
                                      return t < op->invoke;
                                  });
        for (; w != ws.end() && (*w)->invoke < get.invoke; ++w) {
            if ((*w)->complete < get.invoke) {
                bad.push_back(where + " read a value overwritten by the " +
                              obsOpName((*w)->kind) + " at [" +
                              std::to_string((*w)->invoke) + ", " +
                              std::to_string((*w)->complete) + "]");
                break;
            }
        }
    }
    return bad;
}

TEST(ZkvRegister, CheckerFlagsStaleAndForeignReads)
{
    using H = HistoryOp;
    const H put1{ObsOp::Put, 7, 100, false, 1, 2};
    const H put2{ObsOp::Put, 7, 200, false, 3, 4};
    const H erase{ObsOp::Erase, 7, 0, true, 5, 6};
    const auto violations = [](const std::vector<H>& h) {
        return checkRegisterHistory(h).size();
    };
    // Concurrent with put2, either value is legal; so is any miss.
    EXPECT_EQ(violations({put1, put2, {ObsOp::Get, 7, 100, true, 2, 3}}), 0u);
    EXPECT_EQ(violations({put1, put2, {ObsOp::Get, 7, 100, true, 3, 5}}), 0u);
    EXPECT_EQ(violations({put1, put2, {ObsOp::Get, 7, 0, false, 9, 10}}), 0u);
    // put2 completed before the get began: 100 is stale.
    EXPECT_EQ(violations({put1, put2, {ObsOp::Get, 7, 100, true, 5, 6}}), 1u);
    // An erase completed in between: nothing but a miss is legal.
    EXPECT_EQ(violations({put2, erase, {ObsOp::Get, 7, 200, true, 7, 8}}), 1u);
    // A value from the future, and one put only for another key.
    EXPECT_EQ(violations({put2, {ObsOp::Get, 7, 200, true, 1, 2}}), 1u);
    EXPECT_EQ(violations({put1, {ObsOp::Get, 8, 100, true, 5, 6}}), 1u);
}

/**
 * 4 threads share 64 keys on 2 shards of 32 blocks, so walks and
 * evictions run, with a 70/25/5 get/put/erase mix. Every op is stamped
 * and the whole history is checked against the register model.
 */
void
checkStoreHistory(ZkvConfig cfg)
{
    auto kv = mustCreate(cfg);
    constexpr std::uint32_t kThreads = 4;
    constexpr std::uint64_t kOps = 20000;
    constexpr std::uint64_t kKeys = 64;
    std::atomic<std::uint64_t> clock{0};
    std::vector<std::vector<HistoryOp>> logs(kThreads);

    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < kThreads; tid++) {
        workers.emplace_back([&, tid] {
            std::vector<HistoryOp>& log = logs[tid];
            log.reserve(kOps);
            Pcg32 rng(0x7e6 + tid);
            for (std::uint64_t i = 0; i < kOps; i++) {
                HistoryOp op;
                op.key = 1 + rng.next64() % kKeys;
                const double u = rng.uniform();
                op.kind = u < 0.70   ? ObsOp::Get
                          : u < 0.95 ? ObsOp::Put
                                     : ObsOp::Erase;
                if (op.kind == ObsOp::Put) {
                    op.value = (std::uint64_t{tid + 1} << 32) | i;
                }
                op.invoke = clock++;
                switch (op.kind) {
                  case ObsOp::Get:
                    if (auto v = kv->get(op.key)) {
                        op.hit = true;
                        op.value = *v;
                    }
                    break;
                  case ObsOp::Put:
                    EXPECT_TRUE(kv->put(op.key, op.value).hasValue());
                    break;
                  case ObsOp::Erase:
                    op.hit = kv->erase(op.key);
                    break;
                }
                op.complete = clock++;
                log.push_back(op);
            }
        });
    }
    for (auto& w : workers) w.join();

    std::vector<HistoryOp> history;
    for (const auto& log : logs) {
        history.insert(history.end(), log.begin(), log.end());
    }
    const std::vector<std::string> bad = checkRegisterHistory(history);
    EXPECT_TRUE(bad.empty()) << bad.size() << " violations, first: "
                             << (bad.empty() ? "" : bad.front());
    const ZkvShardStats tot = kv->totals();
    EXPECT_EQ(tot.gets + tot.puts + tot.erases, kThreads * kOps);
    EXPECT_GT(tot.getHits, 0u);
    EXPECT_GT(tot.evictions, 0u);
}

TEST(ZkvRegister, LockedMutexHistoriesAreRegisterLegal)
{
    checkStoreHistory(tinyConfig(/*shards=*/2, /*blocks=*/32));
}

TEST(ZkvRegister, LockedSpinHistoriesAreRegisterLegal)
{
    ZkvConfig cfg = tinyConfig(/*shards=*/2, /*blocks=*/32);
    cfg.lock = ShardLockKind::Spin;
    checkStoreHistory(cfg);
}

TEST(ZkvRegister, OptimisticHistoriesAreRegisterLegal)
{
    checkStoreHistory(optimisticConfig(/*shards=*/2, /*blocks=*/32));
}

} // namespace
} // namespace zc
