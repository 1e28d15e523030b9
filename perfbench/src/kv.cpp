/**
 * @file
 * kv-mixed and kv-durable: closed-loop worker threads against an
 * in-process ZkvStore with u64 values over canneal key streams.
 *
 *  - kv-mixed: 8 Z4/16 shards, locked reads, mutex locks, 3 workers,
 *    70/25/5 get/put/erase. Lock, ValueMirror, probe and policy
 *    dominate; net, codec and persist are bypassed.
 *  - kv-durable: 2 shards, optimistic (seqlock) reads, 2 workers, 90/10
 *    get/put, persist tier on (fsync=interval, backpressure=block,
 *    periodic compaction). Set-up is create + recover of a log written
 *    in an untimed pre-phase.
 */

#include <barrier>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "store/zkv.hpp"
#include "trace/workloads.hpp"
#include "workloads.hpp"

namespace zc::bench {

std::vector<std::vector<std::uint64_t>>
cannealStreams(std::uint32_t threads, std::size_t count, std::uint64_t seed,
               double* nextNs)
{
    const WorkloadProfile& p = WorkloadRegistry::byName("canneal");
    std::vector<std::vector<std::uint64_t>> keys(threads);
    const std::uint64_t t0 = nowNs();
    for (std::uint32_t t = 0; t < threads; t++) {
        GeneratorPtr gen =
            WorkloadRegistry::makeCoreGenerator(p, t, threads, seed);
        keys[t].resize(count);
        for (auto& k : keys[t]) k = gen->next().lineAddr;
    }
    *nextNs = static_cast<double>(nowNs() - t0) /
              static_cast<double>(count * threads);
    return keys;
}

namespace {

namespace fs = std::filesystem;

struct KvShape
{
    std::uint32_t shards;
    std::uint32_t blocksPerShard;
    std::uint32_t threads;
    ReadPath readPath;
    std::uint32_t getPct; ///< remainder after gets and puts is erases
    std::uint32_t putPct;
    bool durable;
};

constexpr KvShape kMixed{8, 4096, 3, ReadPath::Locked, 70, 25, false};
constexpr KvShape kDurable{2, 8192, 2, ReadPath::Optimistic, 90, 10, true};

constexpr std::size_t kKeys = std::size_t{1} << 20; ///< per thread
constexpr std::size_t kLatEvery = 32;  ///< 1 in 32 ops timed (and traced)
constexpr std::uint64_t kPreRecords = 400000; ///< kv-durable pre-phase puts
constexpr std::uint64_t kSnapshotEveryOps = 200000;

ZkvConfig
storeConfig(const KvShape& sh, std::uint64_t seed, const std::string& dir)
{
    ZkvConfig c;
    c.shards = sh.shards;
    c.array.kind = ArrayKind::ZCache;
    c.array.blocks = sh.blocksPerShard;
    c.array.ways = 4;
    c.array.levels = 2;
    c.array.hashKind = HashKind::H3;
    c.array.policy = PolicyKind::Lru;
    c.array.seed = zkvMix64(seed ^ 0x6b76ULL);
    c.lock = ShardLockKind::Mutex;
    c.readPath = sh.readPath;
    if (sh.durable) {
        c.persist.dataDir = dir;
        c.persist.fsync = persist::FsyncPolicy::Interval;
        c.persist.fsyncIntervalMs = 50;
        c.persist.backpressure = persist::Backpressure::Block;
        c.persist.snapshotEveryOps = kSnapshotEveryOps;
    }
    return c;
}

std::unique_ptr<ZkvStore>
createStore(const ZkvConfig& cfg)
{
    auto st = ZkvStore::create(cfg);
    throwIfError(st.status());
    return std::move(*st);
}

/** Put the streams' keys round-robin until the store is full and at
 *  least @p minPuts puts were made (bounded, so a stream that cannot
 *  fill the store fails the full-after-set-up check). */
void
prefill(ZkvStore& st, const std::vector<std::vector<std::uint64_t>>& keys,
        std::uint64_t capacity, std::uint64_t minPuts)
{
    const std::size_t t = keys.size();
    for (std::uint64_t i = 0; i < 64 * capacity; i++) {
        if (i >= minPuts && i % 4096 == 0 && storeFull(st.size(), capacity)) {
            return;
        }
        const std::uint64_t k = keys[i % t][(i / t) % kKeys];
        throwIfError(st.put(k, zkvMix64(k) + i % t).status());
    }
}

struct KvState
{
    std::vector<std::vector<std::uint64_t>> keys;
    std::unique_ptr<ZkvStore> store;
    double nextNs = 0.0;
    double recoverS = 0.0;
    std::uint64_t recovered = 0; ///< records replayed by recover()
};

struct Counters
{
    std::uint64_t ops = 0, gets = 0, hits = 0, puts = 0, inserts = 0;
    std::uint64_t evictions = 0, candidates = 0, erases = 0;
    std::uint64_t putErrors = 0, verifyFailures = 0;

    void
    add(const Counters& o)
    {
        ops += o.ops;
        gets += o.gets;
        hits += o.hits;
        puts += o.puts;
        inserts += o.inserts;
        evictions += o.evictions;
        candidates += o.candidates;
        erases += o.erases;
        putErrors += o.putErrors;
        verifyFailures += o.verifyFailures;
    }
};

enum OpKind { kGet, kPut, kErase };

/** The replay rungs of the persist tier: the same puts with and
 *  without the tier, single-threaded on fresh stores. */
void
persistPutRungs(const KvShape& sh, const RunSpec& spec, const KvState& st,
                RunResult& r)
{
    constexpr std::size_t kN = 200000;
    const std::vector<std::uint64_t>& keys = st.keys[0];
    const auto putBlock = [&](ZkvStore& s) {
        return blockNs(kN, [&](std::size_t i) {
            throwIfError(s.put(keys[i], zkvMix64(keys[i])).status());
        });
    };
    KvShape base = sh;
    base.durable = false;
    auto plain = createStore(storeConfig(base, spec.seed, ""));
    const double baseNs = putBlock(*plain);
    const std::string dir = spec.tmpDir + "/kv-durable-replay";
    fs::remove_all(dir);
    double persistNs = 0.0;
    {
        auto durable = createStore(storeConfig(sh, spec.seed, dir));
        throwIfError(durable->recover().status());
        persistNs = putBlock(*durable);
        r.check(durable->stopPersist().isOk(),
                "kv-durable: replay stopPersist failed");
    }
    fs::remove_all(dir);
    r.set("persist.put_ns", persistNs, "ns");
    r.set("persist.put_base_ns", baseNs, "ns");
    Composite c;
    c.name = "persist.put_ns";
    c.residual = "persist.put_residual_ns";
    c.total = persistNs;
    c.parts = {{"persist.put_base_ns", baseNs}};
    r.composites.push_back(c);
}

void
durableLadder(const KvShape& sh, const RunSpec& spec, const KvState& st,
              const Counters& tot, RunResult& r)
{
    const ZkvShardObs o = st.store->obsTotals();
    const double gets = static_cast<double>(st.store->totals().gets);
    r.set("store.get_optimistic_frac", o.getOptimistic / gets, "fraction");
    r.set("store.get_retries_per_get", o.getRetried / gets, "count");
    r.set("store.get_fallback_frac", o.getFallback / gets, "fraction");

    persist::PersistTier& tier = *st.store->persistTier();
    persist::PersistShardCounters c;
    for (std::uint32_t i = 0; i < tier.shardCount(); i++) {
        const persist::PersistShardCounters s = tier.counters(i);
        c.blocked += s.blocked;
        c.appended += s.appended;
        c.appendBytes += s.appendBytes;
        c.fsyncs += s.fsyncs;
        c.snapshots += s.snapshots;
        c.appendNs += s.appendNs;
        c.fsyncNs += s.fsyncNs;
        c.snapshotNs += s.snapshotNs;
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double appended = static_cast<double>(c.appended);
    r.set("persist.blocked_per_put", ratio(c.blocked, tot.puts), "count");
    r.set("persist.records_per_fsync", ratio(appended, c.fsyncs), "count");
    r.set("persist.append_ns_per_record", ratio(c.appendNs, appended), "ns");
    r.set("persist.fsync_ms", ratio(c.fsyncNs, c.fsyncs) / 1e6, "ms");
    r.set("persist.snapshot_ms", ratio(c.snapshotNs, c.snapshots) / 1e6,
          "ms");
    r.set("persist.snapshots", static_cast<double>(c.snapshots), "count");
    r.set("persist.log_bytes_per_record", ratio(c.appendBytes, appended),
          "B");
    r.set("persist.recover_records_per_s", ratio(st.recovered, st.recoverS),
          "1/s");
    r.set("persist.write_amp", ratio(c.appendBytes, 16.0 * tot.puts),
          "ratio");
    persistPutRungs(sh, spec, st, r);
}

void
mixedLadder(const KvState& st, const Counters& tot, const Windows& w,
            RunResult& r)
{
    const double getNs = spanCostNs(r.spans, "store.get");
    r.set("store.get_ns", getNs, "ns");
    r.set("store.put_ns", spanCostNs(r.spans, "store.put"), "ns");
    r.set("store.erase_ns", spanCostNs(r.spans, "store.erase"), "ns");
    r.set("store.latency_p99_us", windowLatency(w.latNs, 0.99) / 1e3, "us");
    r.set("store.put_evict_frac",
          static_cast<double>(tot.evictions) / tot.puts, "fraction");
    r.set("store.put_candidates",
          static_cast<double>(tot.candidates) / tot.inserts, "count");

    ZkvStore& s = *st.store;
    double maxOps = 0.0, sumOps = 0.0;
    for (std::uint32_t i = 0; i < s.numShards(); i++) {
        const ZkvShardStats ss = s.shardStats(i);
        const double ops = static_cast<double>(ss.gets + ss.puts + ss.erases);
        maxOps = std::max(maxOps, ops);
        sumOps += ops;
    }
    r.set("store.shard_imbalance", maxOps / (sumOps / s.numShards()),
          "ratio");

    ShardLock lock(s.config().lock);
    const double lockNs = blockNs(1000000, [&](std::size_t) {
        lock.lock();
        lock.unlock();
    });
    r.set("store.lock_ns", lockNs, "ns");

    // The array a get reaches, alone: a bare array of shard 0's exact
    // spec, warmed with shard 0's keys, then probed like a get.
    std::vector<std::uint64_t> shardKeys;
    for (const auto& ks : st.keys) {
        for (std::uint64_t k : ks) {
            if (s.shardOf(k) == 0) shardKeys.push_back(k);
        }
    }
    auto arr = makeArray(s.config().shardSpec(0));
    for (std::uint64_t k : shardKeys) {
        AccessContext ctx;
        ctx.lineAddr = k;
        if (arr->access(k, ctx) == kInvalidPos) arr->insert(k, ctx);
    }
    std::uint64_t sink = 0;
    const double arrayNs = blockNs(shardKeys.size(), [&](std::size_t i) {
        AccessContext ctx;
        ctx.lineAddr = shardKeys[i];
        sink += arr->access(shardKeys[i], ctx);
    });
    keep(sink);
    r.set("store.array_get_ns", arrayNs, "ns");

    Composite c;
    c.name = "store.get_ns";
    c.residual = "store.get_residual_ns";
    c.total = getNs;
    c.parts = {{"store.lock_ns", lockNs}, {"store.array_get_ns", arrayNs}};
    r.composites.push_back(c);
}

RunResult
runKv(const KvShape& sh, const RunSpec& spec)
{
    RunResult r;
    const std::string dir = spec.tmpDir + "/kv-durable-data";
    const ZkvConfig cfg = storeConfig(sh, spec.seed, dir);
    const std::uint64_t capacity =
        std::uint64_t{sh.shards} * sh.blocksPerShard;

    if (sh.durable) {
        // Untimed pre-phase: the log every set-up recovers.
        fs::remove_all(dir);
        double ns = 0.0;
        auto keys = cannealStreams(sh.threads, kKeys, spec.seed, &ns);
        auto s = createStore(cfg);
        throwIfError(s->recover().status());
        prefill(*s, keys, capacity, kPreRecords);
        throwIfError(s->stopPersist());
    }

    std::vector<Windows> wins; // built in place: a copy drops the room
    for (std::uint32_t t = 0; t < sh.threads; t++) {
        wins.emplace_back(kWindows, kSamplesPerWindow);
    }
    double setupS = 0.0;
    const auto make = [&] {
        auto s = std::make_unique<KvState>();
        s->keys = cannealStreams(sh.threads, kKeys, spec.seed, &s->nextNs);
        r.sampleRssBase();
        s->store = createStore(cfg);
        if (sh.durable) {
            const std::uint64_t t0 = nowNs();
            auto rep = s->store->recover();
            s->recoverS = static_cast<double>(nowNs() - t0) / 1e9;
            throwIfError(rep.status());
            s->recovered = rep->totalReplayed();
        } else {
            prefill(*s->store, s->keys, capacity, 0);
        }
        return s;
    };
    auto st = timedSetups(spec.setups, make, &setupS);
    r.sampleRss();
    ZkvStore& store = *st->store;
    r.check(storeFull(store.size(), capacity),
            "kv: shards not full after set-up (" +
                std::to_string(store.size()) + " of " +
                std::to_string(capacity) + ")");
    const ZkvShardStats before = store.totals();

    std::vector<Counters> cnt(sh.threads);
    for (std::uint32_t t = 0; t < sh.threads; t++) {
        r.spans.emplace_back("worker-" + std::to_string(t), SpanLog());
    }
    const char* names[] = {
        sh.readPath == ReadPath::Optimistic ? "store.get_optimistic"
                                            : "store.get",
        sh.durable ? "persist.put" : "store.put", "store.erase"};
    std::barrier sync(static_cast<std::ptrdiff_t>(sh.threads) + 1);
    WindowPlan plan;
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < sh.threads; tid++) {
        workers.emplace_back([&, tid] {
            Counters& c = cnt[tid];
            Windows& w = wins[tid];
            SpanLog& log = r.spans[tid].second;
            const std::vector<std::uint64_t>& keys = st->keys[tid];
            Pcg32 mix(zkvMix64(spec.seed + tid), 0x6b76ULL + tid);
            std::size_t pos = 0;
            const auto op = [&] {
                const std::uint64_t k = keys[pos];
                if (++pos == kKeys) pos = 0;
                const std::uint32_t u = mix.below(100);
                c.ops++;
                if (u < sh.getPct) {
                    c.gets++;
                    if (auto v = store.get(k)) {
                        c.hits++;
                        c.verifyFailures += *v - zkvMix64(k) >= sh.threads;
                    }
                    return kGet;
                }
                if (u < sh.getPct + sh.putPct) {
                    c.puts++;
                    auto pr = store.put(k, zkvMix64(k) + tid);
                    if (!pr) {
                        c.putErrors++;
                    } else {
                        c.inserts += pr->inserted;
                        c.evictions += pr->evicted;
                        c.candidates += pr->candidates;
                    }
                    return kPut;
                }
                c.erases++;
                store.erase(k);
                return kErase;
            };
            sync.arrive_and_wait();
            for (;;) {
                const std::uint64_t t0 = nowNs();
                const int kind = op();
                const std::uint64_t t1 = nowNs();
                const std::int64_t slot = plan.slot(t1);
                if (slot >= plan.n) break;
                if (spec.traced) log.add(names[kind], t0, t1, c.ops);
                for (std::size_t k = 1; k < kLatEvery; k++) op();
                if (slot >= 0) {
                    w.addLatency(slot, static_cast<double>(t1 - t0));
                    w.ops[slot] += kLatEvery;
                }
            }
        });
    }
    plan = WindowPlan::start(0.5, spec.seconds, kWindows);
    sync.arrive_and_wait();
    for (auto& t : workers) t.join();
    r.sampleRss();

    Counters tot;
    Windows win(kWindows);
    for (std::uint32_t t = 0; t < sh.threads; t++) {
        tot.add(cnt[t]);
        win.merge(wins[t]);
    }
    const ZkvShardStats after = store.totals();
    r.check(after.gets - before.gets == tot.gets &&
                after.puts - before.puts == tot.puts &&
                after.erases - before.erases == tot.erases,
            "kv: store counters disagree with the workers' op counts");
    r.attempted = tot.ops;
    r.failed = tot.putErrors + tot.verifyFailures;
    r.setEndToEnd(setupS, win, plan.winSeconds(),
                  static_cast<double>(tot.hits) / tot.gets);
    if (spec.traced) r.set("trace.next_ns", st->nextNs, "ns");

    if (sh.durable) {
        r.check(store.stopPersist().isOk(), "kv-durable: stopPersist failed");
        if (spec.traced) durableLadder(sh, spec, *st, tot, r);
        st.reset();
        // A fresh recover of what the run left on disk: no seqno gaps.
        auto fresh = createStore(cfg);
        auto rep = fresh->recover();
        r.check(rep && rep->totalGaps() == 0,
                "kv-durable: fresh recover found seqno gaps");
        r.check(fresh->stopPersist().isOk(),
                "kv-durable: fresh stopPersist failed");
        fresh.reset();
        fs::remove_all(dir);
    } else {
        // kv-durable does not repeat its set-up here: the measured phase
        // grew the log that a set-up recovers.
        if (spec.traced) mixedLadder(*st, tot, win, r);
        st.reset();
        moreSetups(r, spec.setups, make);
    }
    return r;
}

} // namespace

RunResult
runKvMixed(const RunSpec& spec)
{
    return runKv(kMixed, spec);
}

RunResult
runKvDurable(const RunSpec& spec)
{
    return runKv(kDurable, spec);
}

} // namespace zc::bench
