/**
 * @file
 * Tests for the observability stack: JSON document model, hierarchical
 * stats registry, the zcache walk-event trace, and the CmpSystem epoch
 * sampler (via runExperiment).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>

#include "cache/z_array.hpp"
#include "common/json.hpp"
#include "common/stats_registry.hpp"
#include "obs/metrics.hpp"
#include "replacement/bucketed_lru.hpp"
#include "sim/experiment.hpp"

namespace zc {
namespace {

// ---------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------

TEST(Json, WriterBasics)
{
    JsonValue v = JsonValue::object();
    v.set("u", JsonValue(std::uint64_t{42}));
    v.set("d", JsonValue(1.5));
    v.set("s", JsonValue("hi\n\"there\""));
    v.set("b", JsonValue(true));
    v.set("n", JsonValue());
    EXPECT_EQ(v.str(),
              "{\"u\":42,\"d\":1.5,\"s\":\"hi\\n\\\"there\\\"\","
              "\"b\":true,\"n\":null}");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue v = JsonValue::object();
    v.set("zebra", JsonValue(1u));
    v.set("apple", JsonValue(2u));
    v.set("mango", JsonValue(3u));
    EXPECT_EQ(v.obj()[0].first, "zebra");
    EXPECT_EQ(v.obj()[1].first, "apple");
    EXPECT_EQ(v.obj()[2].first, "mango");
    // Overwriting keeps the original slot.
    v.set("apple", JsonValue(9u));
    EXPECT_EQ(v.obj()[1].first, "apple");
    EXPECT_EQ(v.obj()[1].second.asU64(), 9u);
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    JsonValue v = JsonValue::array();
    v.push(JsonValue(std::nan("")));
    v.push(JsonValue(std::numeric_limits<double>::infinity()));
    EXPECT_EQ(v.str(), "[null,null]");
}

TEST(Json, ParseRoundTrip)
{
    JsonValue v = JsonValue::object();
    v.set("counters", JsonValue::array());
    for (std::uint64_t i = 0; i < 4; i++) {
        v.obj()[0].second.push(JsonValue(i * 1000));
    }
    v.set("pi", JsonValue(3.25)); // exactly representable
    v.set("name", JsonValue("walk trace"));
    v.set("on", JsonValue(false));

    for (int indent : {-1, 2}) {
        auto parsed = JsonValue::parse(v.str(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
        EXPECT_EQ(parsed->str(), v.str());
    }
}

TEST(Json, ParseRejectsMalformed)
{
    for (const char* bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\":1} trailing", "nul",
          "\"unterminated", "{\"a\" 1}"}) {
        EXPECT_FALSE(JsonValue::parse(bad).has_value()) << bad;
    }
}

TEST(Json, ParseNumberKinds)
{
    auto doc = JsonValue::parse("[18446744073709551615, -3, 2.5, 1e3]");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->arr()[0].kind(), JsonValue::Kind::U64);
    EXPECT_EQ(doc->arr()[0].asU64(), 18446744073709551615ull);
    EXPECT_EQ(doc->arr()[1].kind(), JsonValue::Kind::F64);
    EXPECT_DOUBLE_EQ(doc->arr()[1].asDouble(), -3.0);
    EXPECT_DOUBLE_EQ(doc->arr()[2].asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(doc->arr()[3].asDouble(), 1000.0);
}

// ---------------------------------------------------------------------
// StatGroup / StatsRegistry
// ---------------------------------------------------------------------

TEST(StatsRegistry, BoundStatsReadLiveValues)
{
    StatsRegistry reg;
    std::uint64_t hits = 0;
    reg.root().addCounter("hits", "demand hits", [&] { return hits; });

    EXPECT_EQ(reg.toJson().find("hits")->asU64(), 0u);
    hits = 7;
    EXPECT_EQ(reg.toJson().find("hits")->asU64(), 7u);
}

TEST(StatsRegistry, HierarchyAndDumpOrder)
{
    StatsRegistry reg;
    StatGroup& l2 = reg.root().group("l2", "shared L2");
    l2.addConst("banks", "bank count", JsonValue(8u));
    StatGroup& b0 = l2.group("bank0");
    b0.addConst("blocks", "", JsonValue(1024u));
    // group() is get-or-create.
    EXPECT_EQ(&l2.group("bank0"), &b0);

    JsonValue doc = reg.toJson();
    const JsonValue* l2j = doc.find("l2");
    ASSERT_NE(l2j, nullptr);
    // Stats come before child groups, in registration order.
    EXPECT_EQ(l2j->obj()[0].first, "banks");
    EXPECT_EQ(l2j->obj()[1].first, "bank0");
    EXPECT_EQ(l2j->find("bank0")->find("blocks")->asU64(), 1024u);
}

TEST(StatsRegistry, DuplicateNamesThrow)
{
    StatsRegistry reg;
    reg.root().addConst("x", "", JsonValue(1u));
    EXPECT_THROW(reg.root().addConst("x", "", JsonValue(2u)),
                 std::invalid_argument);
    EXPECT_THROW(reg.root().group("x"), std::invalid_argument);

    reg.root().group("g");
    EXPECT_THROW(reg.root().addConst("g", "", JsonValue(3u)),
                 std::invalid_argument);
}

TEST(StatsRegistry, ResetRunsHooksDepthFirst)
{
    StatsRegistry reg;
    std::string order;
    reg.root().addResetHook([&] { order += "root"; });
    reg.root().group("child").addResetHook([&] { order += "child,"; });
    reg.reset();
    EXPECT_EQ(order, "child,root");
}

TEST(StatsRegistry, HistogramDump)
{
    StatsRegistry reg;
    UnitHistogram h(4);
    h.record(0.1);
    h.record(0.9);
    reg.root().addHistogram("prio", "eviction priorities", &h);

    JsonValue doc = reg.toJson();
    const JsonValue* d = doc.find("prio");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->find("samples")->asU64(), 2u);
    EXPECT_EQ(d->find("bins")->asU64(), 4u);
    EXPECT_EQ(d->find("counts")->arr()[0].asU64(), 1u);
    EXPECT_EQ(d->find("counts")->arr()[3].asU64(), 1u);
}

TEST(StatsRegistry, SchemaMirrorsTree)
{
    StatsRegistry reg;
    reg.root().addConst("ipc", "aggregate IPC", JsonValue(1.0));
    reg.root().group("l2", "shared L2").addConst("misses", "L2 misses",
                                                 JsonValue(0u));
    JsonValue schema = reg.schema();
    EXPECT_EQ(schema.find("ipc")->asString(), "aggregate IPC");
    EXPECT_EQ(schema.find("l2")->find("_desc")->asString(), "shared L2");
    EXPECT_EQ(schema.find("l2")->find("misses")->asString(), "L2 misses");
}

TEST(StatsRegistry, WriteJsonFileRoundTrips)
{
    StatsRegistry reg;
    reg.root().addConst("answer", "", JsonValue(42u));
    std::string path = testing::TempDir() + "zc_stats_registry_test.json";
    ASSERT_TRUE(reg.writeJsonFile(path));

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("answer")->asU64(), 42u);
}

struct TwoCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

constexpr CounterField<TwoCounters> kTwoCounters[] = {
    {"hits", "lookups that hit", &TwoCounters::hits},
    {"misses", "lookups that missed", &TwoCounters::misses},
};

TEST(StatsRegistry, CounterTableFeedsEveryExport)
{
    TwoCounters live;
    bumpCounter(live.hits, 3);
    bumpCounter(live.misses);
    TwoCounters snap;
    loadCounters(snap, kTwoCounters, live);
    TwoCounters sum;
    sumCounters(sum, kTwoCounters, snap);
    sumCounters(sum, kTwoCounters, snap);
    EXPECT_EQ(sum.hits, 6u);
    EXPECT_EQ(sum.misses, 2u);

    StatsRegistry reg;
    registerCounters(reg.root(), kTwoCounters, [&sum] { return sum; });
    sum.hits++; // bound: read at dump time
    EXPECT_EQ(reg.toJson().str(), "{\"hits\":7,\"misses\":2}");
    EXPECT_EQ(reg.schema().find("misses")->asString(), "lookups that missed");

    JsonValue j = JsonValue::object();
    countersJson(j, kTwoCounters, sum);
    EXPECT_EQ(j.str(), reg.toJson().str());

    MetricsSample m;
    appendCounters(m, kTwoCounters, sum, "l2_");
    appendGauges(m, kTwoCounters, snap);
    ASSERT_EQ(m.counters.size(), 2u);
    EXPECT_EQ(m.counters[1].first, "l2_misses");
    EXPECT_EQ(m.counters[1].second, 2u);
    ASSERT_EQ(m.gauges.size(), 2u);
    EXPECT_EQ(m.gauges[0].first, "hits");
    EXPECT_EQ(m.gauges[0].second, 3.0);
}

// ---------------------------------------------------------------------
// ZArray walk-event trace
// ---------------------------------------------------------------------

ZArray
makeTracedArray(std::uint32_t blocks, std::uint32_t capacity)
{
    ZArrayConfig cfg;
    cfg.ways = 4;
    cfg.levels = 2;
    cfg.traceCapacity = capacity;
    return ZArray(blocks, cfg,
                  std::make_unique<BucketedLruPolicy>(blocks));
}

TEST(WalkTrace, RecordsEventsAndCapsRing)
{
    ZArray z = makeTracedArray(64, 8);
    ASSERT_TRUE(z.walkTraceEnabled());
    // 4x footprint forces steady-state replacements.
    for (Addr a = 0; a < 2000; a++) {
        AccessContext ctx;
        if (z.access(a % 256, ctx) == kInvalidPos) z.insert(a % 256, ctx);
    }
    const WalkTraceSummary& s = z.walkTraceSummary();
    EXPECT_EQ(s.events, z.walkStats().walks);
    EXPECT_GT(s.events, 8u);

    auto ring = z.walkTraceSnapshot();
    EXPECT_EQ(ring.size(), 8u); // capped at capacity, not event count
    for (const WalkEvent& e : ring) {
        EXPECT_GE(e.candidates, 1u);
        EXPECT_LE(e.candidates, ZArray::nominalCandidates(4, 2));
        EXPECT_LE(e.victimDepth, e.levels);
        EXPECT_LT(e.evictionRank, e.candidates);
        EXPECT_EQ(e.latencyCycles > 0, true);
    }
    // Default 200-cycle budget dwarfs a 2-level walk: all hidden.
    EXPECT_EQ(s.hidden, s.events);
}

TEST(WalkTrace, DisabledByDefaultAndZeroCost)
{
    ZArrayConfig cfg;
    cfg.ways = 4;
    cfg.levels = 2;
    ZArray z(64, cfg, std::make_unique<BucketedLruPolicy>(64));
    EXPECT_FALSE(z.walkTraceEnabled());
    for (Addr a = 0; a < 1000; a++) {
        AccessContext ctx;
        if (z.access(a % 256, ctx) == kInvalidPos) z.insert(a % 256, ctx);
    }
    EXPECT_EQ(z.walkTraceSummary().events, 0u);
    EXPECT_TRUE(z.walkTraceSnapshot().empty());
}

TEST(WalkTrace, ResetStatsClearsTrace)
{
    ZArray z = makeTracedArray(64, 8);
    for (Addr a = 0; a < 1000; a++) {
        AccessContext ctx;
        if (z.access(a % 256, ctx) == kInvalidPos) z.insert(a % 256, ctx);
    }
    ASSERT_GT(z.walkTraceSummary().events, 0u);
    z.resetStats();
    EXPECT_EQ(z.walkTraceSummary().events, 0u);
    EXPECT_TRUE(z.walkTraceSnapshot().empty());
}

TEST(WalkTrace, AppearsInRegisteredStats)
{
    ZArray z = makeTracedArray(64, 8);
    for (Addr a = 0; a < 1000; a++) {
        AccessContext ctx;
        if (z.access(a % 256, ctx) == kInvalidPos) z.insert(a % 256, ctx);
    }
    StatsRegistry reg;
    z.registerStats(reg.root().group("array"));
    JsonValue doc = reg.toJson();
    const JsonValue* arr = doc.find("array");
    ASSERT_NE(arr, nullptr);
    const JsonValue* walk = arr->find("walk");
    ASSERT_NE(walk, nullptr);
    EXPECT_EQ(walk->find("walks")->asU64(), z.walkStats().walks);
    const JsonValue* trace = arr->find("walk_trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->find("events")->asU64(),
              z.walkTraceSummary().events);
    EXPECT_EQ(trace->find("ring")->size(), 8u);
}

// ---------------------------------------------------------------------
// Epoch sampler + full experiment stats tree
// ---------------------------------------------------------------------

TEST(EpochSampler, SeriesMonotoneAndStatsTreeComplete)
{
    RunParams p;
    p.workload = "gcc";
    p.l2Spec.kind = ArrayKind::ZCache;
    p.l2Spec.ways = 4;
    p.l2Spec.levels = 2;
    p.l2Spec.policy = PolicyKind::BucketedLru;
    p.warmupInstr = 1500;
    p.measureInstr = 6000;
    p.epochInstr = 0; // auto: ~8 samples
    p.walkTraceCapacity = 16;
    RunResult r = runExperiment(p);

    // Epoch series: at least 2 samples, strictly monotone in the
    // cumulative axes.
    ASSERT_GE(r.epochs.size(), 2u);
    for (std::size_t i = 1; i < r.epochs.size(); i++) {
        EXPECT_GT(r.epochs[i].instructions, r.epochs[i - 1].instructions);
        EXPECT_GE(r.epochs[i].cycles, r.epochs[i - 1].cycles);
    }

    // The stats tree carries the acceptance-critical subtrees.
    const JsonValue* sys = r.stats.find("system");
    ASSERT_NE(sys, nullptr);
    const JsonValue* core0 = sys->find("cores")->find("core0");
    ASSERT_NE(core0, nullptr);
    EXPECT_GT(core0->find("ipc")->asDouble(), 0.0);

    const JsonValue* bank0 = sys->find("l2")->find("bank0");
    ASSERT_NE(bank0, nullptr);
    EXPECT_NE(bank0->find("walk"), nullptr);
    EXPECT_GT(bank0->find("walk")->find("walks")->asU64(), 0u);

    const JsonValue* energy = r.stats.find("energy");
    ASSERT_NE(energy, nullptr);
    EXPECT_GT(energy->find("total_j")->asDouble(), 0.0);

    const JsonValue* samples = sys->find("epochs")->find("samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_EQ(samples->size(), r.epochs.size());

    // The whole tree must survive a serialize -> parse round trip.
    auto parsed = JsonValue::parse(r.stats.str(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->str(), r.stats.str());
}

TEST(EpochSampler, DisabledWhenIntervalLargerThanRun)
{
    RunParams p;
    p.workload = "gcc";
    p.l2Spec.kind = ArrayKind::SetAssoc;
    p.l2Spec.ways = 4;
    p.l2Spec.policy = PolicyKind::BucketedLru;
    p.warmupInstr = 0;
    p.measureInstr = 2000;
    p.epochInstr = 1ull << 40;
    RunResult r = runExperiment(p);
    EXPECT_TRUE(r.epochs.empty());
}

} // namespace
} // namespace zc
