/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: array
 * lookups and miss-path insertions for each design, and the zcache walk
 * at several depths. These quantify *simulation* throughput (how fast
 * the models run on the host), not modeled hardware latency — useful
 * when sizing bench sweeps.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/array_factory.hpp"
#include "cache/cache_model.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "obs/tracer.hpp"
#include "store/loadgen.hpp"
#include "store/zkv.hpp"
#include "trace/generator.hpp"

namespace zc {
namespace {

CacheModel
modelFor(ArrayKind kind, std::uint32_t ways, std::uint32_t levels)
{
    ArraySpec spec;
    spec.kind = kind;
    spec.blocks = 16384;
    spec.ways = ways;
    spec.levels = levels;
    spec.policy = PolicyKind::BucketedLru;
    return CacheModel(makeArray(spec));
}

void
runMix(benchmark::State& state, CacheModel& m, std::uint64_t footprint)
{
    Pcg32 rng(1);
    // Warm the array.
    for (int i = 0; i < 60000; i++) m.access(rng.next64() % footprint);
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.access(rng.next64() % footprint));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void
BM_SetAssocAccess(benchmark::State& state)
{
    auto m = modelFor(ArrayKind::SetAssoc,
                      static_cast<std::uint32_t>(state.range(0)), 1);
    runMix(state, m, 65536);
}
BENCHMARK(BM_SetAssocAccess)->Arg(4)->Arg(16)->Arg(32);

void
BM_ZCacheAccess(benchmark::State& state)
{
    auto m = modelFor(ArrayKind::ZCache, 4,
                      static_cast<std::uint32_t>(state.range(0)));
    runMix(state, m, 65536);
}
BENCHMARK(BM_ZCacheAccess)->Arg(1)->Arg(2)->Arg(3);

void
BM_FullyAssocAccess(benchmark::State& state)
{
    auto m = modelFor(ArrayKind::FullyAssoc, 1, 1);
    runMix(state, m, 65536);
}
BENCHMARK(BM_FullyAssocAccess);

/**
 * Single-threaded zkv get/put mix (70/30) against a 4-shard zcache
 * store with a footprint 2x capacity (docs/store.md). The argument
 * turns live telemetry on: /0 runs untraced, /1 runs the instrumented
 * op paths with one trace record per op into a per-thread ring drained
 * by a count-only collector (no file I/O), so /1 minus /0 prices the
 * instrumentation itself (docs/performance.md, docs/telemetry.md).
 */
void
BM_StoreGetPut(benchmark::State& state)
{
    ZkvConfig cfg;
    cfg.shards = 4;
    cfg.array.blocks = 4096;
    auto store = ZkvStore::create(cfg);
    zc_assert(store.hasValue());
    ZkvStore& kv = **store;
    std::optional<ObsTracer> tracer;
    if (state.range(0) != 0) {
        tracer.emplace(ObsTracerConfig{}); // empty path: count-only
        kv.enableObs(&*tracer);
    }
    Pcg32 rng(7);
    const std::uint64_t footprint = 32768;
    for (int i = 0; i < 60000; i++) {
        std::uint64_t key = rng.next64() % footprint;
        (void)kv.put(key, key);
    }
    for (auto _ : state) {
        std::uint64_t key = rng.next64() % footprint;
        if (rng.uniform() < 0.7) {
            benchmark::DoNotOptimize(kv.get(key));
        } else {
            benchmark::DoNotOptimize(kv.put(key, key));
        }
    }
    kv.disableObs();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreGetPut)->Arg(0)->Arg(1);

/**
 * BM_StoreGetPut with the store in compressed bytes mode (BDI values,
 * docs/compression.md): the same 70/30 mix, but puts build a loadgen
 * payload and run it through the codec, and get hits decompress. The
 * delta vs BM_StoreGetPut is the compressed tier's op-path cost; the
 * ratio counter must sit above 1.0 on the loadgen payload mix.
 */
void
BM_StoreGetPutCompressed(benchmark::State& state)
{
    ZkvConfig cfg;
    cfg.shards = 4;
    cfg.array.blocks = 4096;
    cfg.value.maxBytes = kZkvMaxValueBytes;
    cfg.value.codec = CodecKind::Bdi;
    auto store = ZkvStore::create(cfg);
    zc_assert(store.hasValue());
    ZkvStore& kv = **store;
    Pcg32 rng(7);
    const std::uint64_t footprint = 32768;
    const std::uint32_t vb_min = 16, vb_max = 64;
    std::vector<std::uint8_t> payload;
    auto putOne = [&](std::uint64_t key) {
        zkvFillPayload(key, 0, zkvPayloadLen(key, vb_min, vb_max), payload);
        return kv.putBytes(key, payload);
    };
    for (int i = 0; i < 60000; i++) {
        (void)putOne(rng.next64() % footprint);
    }
    for (auto _ : state) {
        std::uint64_t key = rng.next64() % footprint;
        if (rng.uniform() < 0.7) {
            benchmark::DoNotOptimize(kv.getBytes(key));
        } else {
            benchmark::DoNotOptimize(putOne(key));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    const ZkvCompressionStats cp = kv.compressionTotals();
    state.counters["compression_ratio"] = benchmark::Counter(
        cp.storedBytesTotal > 0
            ? static_cast<double>(cp.rawBytesTotal) /
                  static_cast<double>(cp.storedBytesTotal)
            : 1.0);
}
BENCHMARK(BM_StoreGetPutCompressed);

void
BM_ZipfGenerator(benchmark::State& state)
{
    ZipfGenerator gen(0, 100000, 1.0, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.next().lineAddr);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfGenerator);

} // namespace
} // namespace zc

/**
 * Custom main so this binary honours the suite-wide flags: --json=<path>
 * is translated into google-benchmark's own JSON reporter flags
 * (--benchmark_out / --benchmark_out_format) before initialization, and
 * the sweep-engine flags (--jobs=N, --no-progress) are stripped —
 * google-benchmark times single-threaded hot loops, so there is nothing
 * for a thread pool to do here.
 */
int
main(int argc, char** argv)
{
    std::vector<char*> args(argv, argv + argc);
    std::string out_flag, fmt_flag;
    for (auto it = args.begin(); it != args.end();) {
        constexpr const char* kJson = "--json=";
        constexpr const char* kJobs = "--jobs=";
        if (std::strncmp(*it, kJson, std::strlen(kJson)) == 0) {
            out_flag = std::string("--benchmark_out=") +
                       (*it + std::strlen(kJson));
            fmt_flag = "--benchmark_out_format=json";
            it = args.erase(it);
        } else if (std::strncmp(*it, kJobs, std::strlen(kJobs)) == 0 ||
                   std::strcmp(*it, "--no-progress") == 0) {
            it = args.erase(it);
        } else {
            ++it;
        }
    }
    if (!out_flag.empty()) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
