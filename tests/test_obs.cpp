/**
 * @file
 * Live-telemetry tests (docs/telemetry.md): the SPSC trace ring's
 * FIFO/overflow accounting (single-thread and producer/consumer under
 * the CI ThreadSanitizer job), the collector.overflow fault site's
 * deterministic drop counting, tracer end-to-end trace-file structure
 * and the recorded + dropped == ops reconciliation, the metrics
 * snapshotter's windows-partition-the-run exactness contract, the
 * Prometheus exposition shape, writeEpochSeries, the shared latency
 * bin scale, and the store's traced-path equivalence / disabled-mode
 * zero-event guarantees.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/latency_scale.hpp"
#include "obs/metrics.hpp"
#include "obs/spsc_ring.hpp"
#include "obs/trace_event.hpp"
#include "obs/tracer.hpp"
#include "store/loadgen.hpp"
#include "store/zkv.hpp"
#include "window_check.hpp"

namespace zc {
namespace {

std::string
tmpPath(const std::string& leaf)
{
    return ::testing::TempDir() + "zc_obs_" + leaf;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<JsonValue>
parseNdjson(const std::string& path)
{
    std::vector<JsonValue> records;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        auto v = JsonValue::parse(line);
        EXPECT_TRUE(v.has_value()) << "bad NDJSON line: " << line;
        if (v) records.push_back(std::move(*v));
    }
    return records;
}

// ---------------------------------------------------------------------
// SpscRing.

TEST(SpscRing, CeilPow2)
{
    EXPECT_EQ(ceilPow2(1), 2u);
    EXPECT_EQ(ceilPow2(2), 2u);
    EXPECT_EQ(ceilPow2(3), 4u);
    EXPECT_EQ(ceilPow2(64), 64u);
    EXPECT_EQ(ceilPow2(65), 128u);
}

TEST(SpscRing, FifoOrderAcrossWraparound)
{
    SpscRing<int> ring(4); // capacity 4
    std::vector<int> out;
    int next = 0;
    // Push/pop in bursts so the indices wrap several times.
    for (int round = 0; round < 10; round++) {
        for (int i = 0; i < 3; i++) ASSERT_TRUE(ring.tryPush(next++));
        ring.popBatch(out, 3);
    }
    ASSERT_EQ(out.size(), 30u);
    for (int i = 0; i < 30; i++) EXPECT_EQ(out[i], i);
}

TEST(SpscRing, OverflowFailsExactlyPastCapacity)
{
    SpscRing<int> ring(8);
    for (int i = 0; i < 8; i++) EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(8));
    EXPECT_FALSE(ring.tryPush(9));
    EXPECT_EQ(ring.size(), 8u);

    std::vector<int> out;
    EXPECT_EQ(ring.popBatch(out, 3), 3u);
    EXPECT_TRUE(ring.tryPush(8)); // freed space is reusable
    EXPECT_EQ(ring.size(), 6u);
}

TEST(SpscRing, PopBatchHonoursMax)
{
    SpscRing<int> ring(16);
    for (int i = 0; i < 10; i++) ASSERT_TRUE(ring.tryPush(i));
    std::vector<int> out;
    EXPECT_EQ(ring.popBatch(out, 4), 4u);
    EXPECT_EQ(ring.popBatch(out, 100), 6u);
    EXPECT_EQ(ring.popBatch(out, 100), 0u);
    ASSERT_EQ(out.size(), 10u);
    EXPECT_EQ(out.front(), 0);
    EXPECT_EQ(out.back(), 9);
}

/**
 * The TSan target: one producer hammering tryPush while a consumer
 * drains. Every pushed item must come out exactly once, in order, and
 * pushed + dropped must equal the number produced.
 */
TEST(SpscRing, ConcurrentProducerConsumerLosesNothing)
{
    SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t kOps = 200000;

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kOps; i++) {
            if (ring.tryPush(i)) {
                ring.countPush();
            } else {
                ring.countDrop();
            }
        }
    });

    std::vector<std::uint64_t> got;
    std::uint64_t last = 0;
    bool monotone = true;
    while (true) {
        std::vector<std::uint64_t> batch;
        ring.popBatch(batch, 128);
        for (std::uint64_t v : batch) {
            if (!got.empty() && v <= last) monotone = false;
            last = v;
            got.push_back(v);
        }
        if (batch.empty() &&
            ring.pushed() + ring.dropped() == kOps &&
            got.size() == ring.pushed()) {
            // Producer may still be between tryPush and countPush;
            // only exit once the tallies and the drain agree.
            if (ring.size() == 0) break;
        }
        std::this_thread::yield();
    }
    producer.join();
    ring.popBatch(got, kOps); // anything raced in after the last check

    EXPECT_TRUE(monotone) << "items reordered";
    EXPECT_EQ(got.size(), ring.pushed());
    EXPECT_EQ(ring.pushed() + ring.dropped(), kOps);
    EXPECT_GT(got.size(), 0u);
}

// ---------------------------------------------------------------------
// collector.overflow fault site.

TEST(ObsChannel, CollectorOverflowFaultCountsExactDrops)
{
    ObsTracerConfig cfg; // count-only
    cfg.ringCapacity = 1 << 10;
    ObsTracer tracer(std::move(cfg));
    ObsThreadChannel* ch = tracer.registerThread("t0");

    FaultSpec spec;
    spec.afterHits = 5;
    spec.failCount = 3;
    ScopedFault fault("collector.overflow", spec);

    ObsOpRecord rec;
    int ok = 0, drop = 0;
    for (int i = 0; i < 20; i++) {
        if (ch->record(rec)) {
            ok++;
        } else {
            drop++;
        }
    }
    EXPECT_EQ(drop, 3);
    EXPECT_EQ(ok, 17);
    EXPECT_EQ(ch->dropped(), 3u);
    EXPECT_EQ(ch->pushed(), 17u);

    auto sum = tracer.finish(20);
    ASSERT_TRUE(sum.hasValue()) << sum.status().str();
    EXPECT_EQ(sum->recorded, 17u);
    EXPECT_EQ(sum->dropped, 3u);
    EXPECT_EQ(sum->recorded + sum->dropped, 20u);
}

// ---------------------------------------------------------------------
// ObsTracer end to end.

TEST(ObsTracer, WritesParseableTraceWithExactReconciliation)
{
    std::string path = tmpPath("trace.json");
    ObsTracerConfig cfg;
    cfg.path = path;
    ObsTracer tracer(std::move(cfg));

    constexpr int kThreads = 3;
    constexpr int kOpsPerThread = 500;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
        workers.emplace_back([&tracer, t] {
            ObsThreadChannel* ch =
                tracer.registerThread("worker-" + std::to_string(t));
            for (int i = 0; i < kOpsPerThread; i++) {
                ObsOpRecord rec;
                rec.tsBeginNs = obsNowNs();
                rec.key = static_cast<std::uint64_t>(i);
                rec.durNs = 1000;
                rec.lockWaitNs = 100;
                rec.probeNs = 200;
                rec.op = i % 2 == 0 ? ObsOp::Get : ObsOp::Put;
                if (i % 7 == 0) {
                    rec.walkNs = 300;
                    rec.flags = kObsFlagInserted | kObsFlagEvicted;
                }
                ch->record(rec);
            }
        });
    }
    for (auto& w : workers) w.join();

    auto sum = tracer.finish(kThreads * kOpsPerThread);
    ASSERT_TRUE(sum.hasValue()) << sum.status().str();
    EXPECT_EQ(sum->threads, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(sum->recorded + sum->dropped,
              static_cast<std::uint64_t>(kThreads * kOpsPerThread));

    auto doc = JsonValue::parse(slurp(path));
    ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
    const JsonValue* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::uint64_t op_spans = 0, children = 0, instants = 0, meta = 0;
    for (const JsonValue& e : events->arr()) {
        const JsonValue* ph = e.find("ph");
        const JsonValue* name = e.find("name");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(name, nullptr);
        const std::string& n = name->asString();
        if (ph->asString() == "M") {
            meta++;
        } else if (ph->asString() == "i") {
            instants++;
        } else if (n == "get" || n == "put" || n == "erase") {
            op_spans++;
        } else {
            EXPECT_TRUE(n == "lock_wait" || n == "probe" || n == "walk")
                << "unexpected event name " << n;
            children++;
        }
    }
    EXPECT_EQ(op_spans, sum->recorded);
    EXPECT_GT(children, 0u);
    EXPECT_GT(instants, 0u); // the i%7 evictions
    EXPECT_GT(meta, 0u);     // process/thread names

    const JsonValue* other = doc->find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("ops_recorded")->asU64(), sum->recorded);
    EXPECT_EQ(other->find("ops_dropped")->asU64(), sum->dropped);
    EXPECT_EQ(other->find("ops_expected")->asU64(),
              static_cast<std::uint64_t>(kThreads * kOpsPerThread));

    // finish() is idempotent: same summary, no double-close.
    auto again = tracer.finish();
    ASSERT_TRUE(again.hasValue());
    EXPECT_EQ(again->recorded, sum->recorded);

    std::remove(path.c_str());
}

TEST(ObsTracer, CountOnlyModeWritesNoFile)
{
    ObsTracerConfig cfg; // path empty
    ObsTracer tracer(std::move(cfg));
    ObsThreadChannel* ch = tracer.channel();
    ObsOpRecord rec;
    for (int i = 0; i < 100; i++) ch->record(rec);
    auto sum = tracer.finish(100);
    ASSERT_TRUE(sum.hasValue());
    EXPECT_EQ(sum->recorded, 100u);
    EXPECT_EQ(sum->dropped, 0u);
    EXPECT_EQ(sum->threads, 1u);
}

// ---------------------------------------------------------------------
// Store integration: traced twins and the disabled-mode guarantee.

ZkvConfig
storeConfig()
{
    ZkvConfig cfg;
    cfg.shards = 2;
    cfg.array.kind = ArrayKind::ZCache;
    cfg.array.blocks = 256;
    cfg.array.ways = 4;
    cfg.array.levels = 2;
    cfg.array.policy = PolicyKind::Lru;
    cfg.array.seed = 0xbeef;
    return cfg;
}

TEST(ZkvObs, DisabledStoreEmitsZeroEvents)
{
    auto store = ZkvStore::create(storeConfig());
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;
    EXPECT_FALSE(kv.obsEnabled());

    for (std::uint64_t k = 0; k < 2000; k++) {
        (void)kv.put(k, k);
        (void)kv.get(k);
        if (k % 5 == 0) (void)kv.erase(k);
    }
    // No instrumented path ran: every obs counter is still zero.
    ZkvShardObs totals = kv.obsTotals();
    EXPECT_EQ(totals.lockAcquisitions, 0u);
    EXPECT_EQ(totals.opNs, 0u);
}

TEST(ZkvObs, TracedPathMatchesPlainPathObservably)
{
    auto plain = ZkvStore::create(storeConfig());
    auto traced = ZkvStore::create(storeConfig());
    ASSERT_TRUE(plain.hasValue());
    ASSERT_TRUE(traced.hasValue());

    ObsTracerConfig tc; // count-only
    ObsTracer tracer(std::move(tc));
    (*traced)->enableObs(&tracer);
    EXPECT_TRUE((*traced)->obsEnabled());

    // Same deterministic op sequence against both stores: every
    // observable result must agree op for op.
    std::uint64_t ops = 0;
    for (std::uint64_t i = 0; i < 4000; i++) {
        std::uint64_t k = (i * 2654435761u) % 1024;
        if (i % 3 == 0) {
            auto a = (*plain)->put(k, i);
            auto b = (*traced)->put(k, i);
            ASSERT_EQ(a.hasValue(), b.hasValue());
            if (a.hasValue()) {
                EXPECT_EQ(a->inserted, b->inserted);
                EXPECT_EQ(a->evicted, b->evicted);
            }
        } else if (i % 3 == 1) {
            EXPECT_EQ((*plain)->get(k), (*traced)->get(k));
        } else {
            EXPECT_EQ((*plain)->erase(k), (*traced)->erase(k));
        }
        ops++;
    }
    EXPECT_EQ((*plain)->size(), (*traced)->size());

    (*traced)->disableObs();
    EXPECT_FALSE((*traced)->obsEnabled());

    // The instrumented path really ran and recorded one record per op.
    ZkvShardObs totals = (*traced)->obsTotals();
    EXPECT_EQ(totals.lockAcquisitions, ops);
    auto sum = tracer.finish(ops);
    ASSERT_TRUE(sum.hasValue());
    EXPECT_EQ(sum->recorded + sum->dropped, ops);
}

/**
 * Bytes-mode single ops run through the same traced core as u64 ops:
 * every putBytes/getBytes/erase leaves one record and one lock take,
 * so a traced bytes run reconciles like any other.
 */
TEST(ZkvObs, BytesModeOpsAreTraced)
{
    ZkvConfig cfg = storeConfig();
    cfg.value.maxBytes = 64;
    cfg.value.codec = CodecKind::Bdi;
    auto store = ZkvStore::create(cfg);
    ASSERT_TRUE(store.hasValue());
    ZkvStore& kv = **store;

    ObsTracerConfig tc; // count-only
    ObsTracer tracer(std::move(tc));
    kv.enableObs(&tracer);
    std::uint64_t ops = 0;
    for (std::uint64_t k = 1; k <= 600; k++) {
        std::vector<std::uint8_t> v(8 + k % 56, static_cast<std::uint8_t>(k));
        ASSERT_TRUE(kv.putBytes(k, v).hasValue());
        auto got = kv.getBytes(k / 2 + 1);
        ASSERT_TRUE(got.hasValue());
        ops += 2;
        if (k % 7 == 0) {
            (void)kv.erase(k);
            ops++;
        }
    }
    kv.disableObs();

    EXPECT_EQ(kv.obsTotals().lockAcquisitions, ops);
    auto sum = tracer.finish(ops);
    ASSERT_TRUE(sum.hasValue());
    EXPECT_EQ(sum->recorded + sum->dropped, ops);
}

// ---------------------------------------------------------------------
// MetricsSnapshotter.

TEST(MetricsSnapshotter, WindowsPartitionTheRunExactly)
{
    std::string nd = tmpPath("metrics.ndjson");
    std::string prom = tmpPath("metrics.prom");

    std::atomic<std::uint64_t> ops{0}, hits{0};
    MetricsSnapshotterConfig cfg;
    cfg.ndjsonPath = nd;
    cfg.promPath = prom;
    cfg.intervalMs = 20;
    MetricsSnapshotter snap(cfg, [&] {
        MetricsSample s;
        s.counters.emplace_back("ops",
                                ops.load(std::memory_order_relaxed));
        s.counters.emplace_back("gets",
                                ops.load(std::memory_order_relaxed));
        s.counters.emplace_back("get_hits",
                                hits.load(std::memory_order_relaxed));
        s.latencyBins.assign(64, 0);
        s.latencyBins[10] = ops.load(std::memory_order_relaxed);
        return s;
    });

    snap.start();
    for (int burst = 0; burst < 5; burst++) {
        for (int i = 0; i < 1000; i++) {
            ops.fetch_add(1, std::memory_order_relaxed);
            if (i % 2 == 0) hits.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    Status st = snap.stop();
    ASSERT_TRUE(st.isOk()) << st.str();
    EXPECT_GE(snap.windowsEmitted(), 1u);

    auto windows = parseNdjson(nd);
    ASSERT_EQ(windows.size(), snap.windowsEmitted());

    std::uint64_t d_sum = 0;
    bool saw_hit_rate = false;
    for (const JsonValue& w : windows) {
        const JsonValue* d = w.find("d_ops");
        ASSERT_NE(d, nullptr);
        d_sum += d->asU64();
        ASSERT_NE(w.find("ops_per_sec"), nullptr);
        ASSERT_NE(w.find("p50_ns"), nullptr);
        ASSERT_NE(w.find("p99_ns"), nullptr);
        // hit_rate is windowed: present iff the window saw gets.
        const JsonValue* hr = w.find("hit_rate");
        EXPECT_EQ(hr != nullptr, w.find("d_gets")->asU64() > 0);
        if (hr != nullptr) {
            saw_hit_rate = true;
            // Hits accrue on every other op; a window boundary can
            // split a pair, so windowed rates are only near 0.5.
            EXPECT_NEAR(hr->asDouble(), 0.5, 0.05);
        }
    }
    EXPECT_TRUE(saw_hit_rate);
    // Exactness: the d_* columns partition the run.
    EXPECT_EQ(d_sum, 5000u);
    EXPECT_EQ(windows.back().find("ops")->asU64(), 5000u);

    // Prometheus exposition: typed counters with the zkv_ prefix.
    std::string exposition = slurp(prom);
    EXPECT_NE(exposition.find("# TYPE zkv_ops_total counter"),
              std::string::npos);
    EXPECT_NE(exposition.find("zkv_ops_total 5000"), std::string::npos);

    // stop() is idempotent.
    EXPECT_TRUE(snap.stop().isOk());

    std::remove(nd.c_str());
    std::remove(prom.c_str());
}

// ---------------------------------------------------------------------
// writeEpochSeries.

TEST(EpochSeries, WritesTaggedRecordsAndAppends)
{
    std::string path = tmpPath("epochs.ndjson");

    JsonValue samples = JsonValue::array();
    for (int i = 0; i < 2; i++) {
        JsonValue s = JsonValue::object();
        s.set("instructions", JsonValue(std::uint64_t(1000 * (i + 1))));
        s.set("miss_rate", JsonValue(0.25));
        samples.push(std::move(s));
    }
    JsonValue tags = JsonValue::object();
    tags.set("workload", JsonValue(std::string("canneal")));

    Status st = writeEpochSeries(path, samples, tags);
    ASSERT_TRUE(st.isOk()) << st.str();
    auto recs = parseNdjson(path);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].find("epoch")->asU64(), 0u);
    EXPECT_EQ(recs[1].find("epoch")->asU64(), 1u);
    EXPECT_EQ(recs[0].find("workload")->asString(), "canneal");
    EXPECT_EQ(recs[1].find("instructions")->asU64(), 2000u);

    // Append mode extends; plain mode truncates.
    ASSERT_TRUE(writeEpochSeries(path, samples, tags, true).isOk());
    EXPECT_EQ(parseNdjson(path).size(), 4u);
    ASSERT_TRUE(writeEpochSeries(path, samples, tags).isOk());
    EXPECT_EQ(parseNdjson(path).size(), 2u);

    EXPECT_FALSE(
        writeEpochSeries(path, JsonValue(std::uint64_t{1}), tags).isOk());

    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Latency scale.

TEST(LatencyScale, BinIndexMatchesUnitHistogram)
{
    for (std::size_t bins : {32u, 64u, 128u}) {
        UnitHistogram h(bins);
        for (double ns : {0.0, 1.0, 99.0, 1e3, 5e4, 1e6, 1e9, 1e12}) {
            h.reset();
            h.record(latencyToUnit(ns));
            std::size_t idx = latencyBinIndex(ns, bins);
            ASSERT_LT(idx, bins);
            EXPECT_EQ(h.binCount(idx), 1u)
                << "ns=" << ns << " bins=" << bins << " idx=" << idx;
        }
    }
}

TEST(LatencyScale, QuantileInvertsScale)
{
    std::vector<std::uint64_t> counts(64, 0);
    counts[32] = 100; // all mass in one bin
    double p50 = binsQuantileNs(counts, 0.5);
    double p99 = binsQuantileNs(counts, 0.99);
    EXPECT_EQ(p50, p99); // single-bin mass: every quantile at its edge
    // Bin 32 of 64 covers log2(1+ns)/32 in [0.5, 0.515625]: right edge
    // is 2^16.5 - 1.
    EXPECT_NEAR(p50, std::exp2(16.5) - 1.0, 1.0);
    EXPECT_EQ(binsQuantileNs(std::vector<std::uint64_t>(64, 0), 0.5), 0.0);
}

// ---------------------------------------------------------------------
// Load-generator end to end.

TEST(ZkvObsLoadGen, ObsRunReconcilesAndWindowsSum)
{
    std::string trace = tmpPath("lg_trace.json");
    std::string nd = tmpPath("lg_metrics.ndjson");

    LoadGenConfig cfg;
    cfg.store = storeConfig();
    cfg.threads = 4;
    cfg.opsPerThread = 5000;
    cfg.seed = 7;
    cfg.workload = "canneal";
    cfg.obs.tracePath = trace;
    cfg.obs.metricsPath = nd;
    cfg.obs.metricsIntervalMs = 20;

    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();

    const std::uint64_t total = 4u * 5000u;
    EXPECT_EQ(r->aggregate().ops, total);
    EXPECT_EQ(r->obsRecorded + r->obsDropped, total);
    EXPECT_EQ(r->obsThreads, 4u);
    EXPECT_GE(r->obsWindows, 1u);

    // Trace file parses and its otherData matches the result block.
    auto doc = JsonValue::parse(slurp(trace));
    ASSERT_TRUE(doc.has_value());
    const JsonValue* other = doc->find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("ops_recorded")->asU64(), r->obsRecorded);
    EXPECT_EQ(other->find("ops_expected")->asU64(), total);

    // Metrics windows partition the run.
    auto windows = parseNdjson(nd);
    ASSERT_EQ(windows.size(), r->obsWindows);
    std::uint64_t d_sum = 0;
    for (const JsonValue& w : windows) d_sum += w.find("d_ops")->asU64();
    EXPECT_EQ(d_sum, total);
    EXPECT_EQ(windows.back().find("ops")->asU64(), total);

    std::remove(trace.c_str());
    std::remove(nd.c_str());
}

/** A metrics-on load run over @p store windows every counter of its
 *  stats tree, and the windows reconcile (tests/window_check.hpp). */
void
expectLoadGenWindowsEveryCounter(const ZkvConfig& store,
                                 const std::string& leaf)
{
    const std::string nd = tmpPath(leaf);
    LoadGenConfig cfg;
    cfg.store = store;
    cfg.threads = 2;
    cfg.opsPerThread = 4000;
    cfg.workload = "canneal";
    cfg.obs.metricsPath = nd;
    cfg.obs.metricsIntervalMs = 5;

    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    expectEveryCounterWindowed(r->storeStats, parseNdjson(nd));
    std::remove(nd.c_str());
}

TEST(ZkvObsLoadGen, BytesModeWindowsCarryEveryStatsTreeCounter)
{
    ZkvConfig store = storeConfig();
    store.value.maxBytes = 64;
    store.value.codec = CodecKind::Bdi;
    expectLoadGenWindowsEveryCounter(store, "lg_bytes.ndjson");
}

TEST(ZkvObsLoadGen, OptimisticWindowsCarryEveryStatsTreeCounter)
{
    ZkvConfig store = storeConfig();
    store.readPath = ReadPath::Optimistic;
    expectLoadGenWindowsEveryCounter(store, "lg_optimistic.ndjson");
}

TEST(ZkvObsLoadGen, DefaultRunStaysUninstrumented)
{
    LoadGenConfig cfg;
    cfg.store = storeConfig();
    cfg.threads = 1;
    cfg.opsPerThread = 2000;
    cfg.workload = "canneal";

    auto r = runLoadGen(cfg);
    ASSERT_TRUE(r.hasValue()) << r.status().str();
    EXPECT_EQ(r->obsRecorded, 0u);
    EXPECT_EQ(r->obsDropped, 0u);
    EXPECT_EQ(r->obsThreads, 0u);
    EXPECT_EQ(r->obsWindows, 0u);
}

TEST(ZkvObsLoadGen, InvalidObsConfigRejected)
{
    LoadGenConfig cfg;
    cfg.store = storeConfig();
    cfg.obs.metricsPath = tmpPath("invalid.ndjson");
    cfg.obs.metricsIntervalMs = 0;
    auto r = runLoadGen(cfg);
    ASSERT_FALSE(r.hasValue());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
}

} // namespace
} // namespace zc
