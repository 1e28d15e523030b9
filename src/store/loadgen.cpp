/**
 * @file
 * Load-generator implementation: deterministic per-thread key streams
 * and op mixes, barrier-released workers, wall-clock aggregation.
 */

#include "store/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.hpp"
#include "common/stats_registry.hpp"
#include "obs/latency_scale.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/workloads.hpp"

namespace zc {

namespace {

using Clock = std::chrono::steady_clock;

// The log-latency helpers (latencyToUnit / histQuantileNs) moved to
// obs/latency_scale.hpp so the live metrics snapshotter reports
// percentiles on exactly the scale these end-of-run reports use.

JsonValue
latencyJson(const ThreadStats& t)
{
    JsonValue lat = JsonValue::object();
    lat.set("count", JsonValue(t.latencyNs.count()));
    lat.set("mean_ns", JsonValue(t.latencyNs.mean()));
    lat.set("min_ns", JsonValue(t.latencyNs.min()));
    lat.set("max_ns", JsonValue(t.latencyNs.max()));
    lat.set("stddev_ns", JsonValue(t.latencyNs.stddev()));
    lat.set("p50_ns", JsonValue(histQuantileNs(t.latency, 0.50)));
    lat.set("p95_ns", JsonValue(histQuantileNs(t.latency, 0.95)));
    lat.set("p99_ns", JsonValue(histQuantileNs(t.latency, 0.99)));
    JsonValue counts = JsonValue::array();
    for (std::size_t i = 0; i < t.latency.bins(); i++) {
        counts.push(JsonValue(t.latency.binCount(i)));
    }
    lat.set("hist_counts", std::move(counts));
    return lat;
}

} // namespace

Status
LoadGenConfig::validate() const
{
    if (threads == 0) {
        return Status::invalidArgument("loadgen: threads must be > 0");
    }
    if (opsPerThread == 0) {
        return Status::invalidArgument(
            "loadgen: ops-per-thread must be > 0");
    }
    if (getFrac < 0.0 || eraseFrac < 0.0 || getFrac + eraseFrac > 1.0) {
        return Status::invalidArgument(
            "loadgen: op mix needs getFrac, eraseFrac >= 0 and "
            "getFrac + eraseFrac <= 1");
    }
    if (Status s = obs.validate(); !s.isOk()) return s;
    if (store.value.bytesMode()) {
        if (valueBytesMin < 4) {
            return Status::invalidArgument(
                "loadgen: valueBytesMin must be >= 4 (the payload's "
                "writer-tid prefix)");
        }
        if (valueBytesMax < valueBytesMin) {
            return Status::invalidArgument(
                "loadgen: valueBytesMax must be >= valueBytesMin");
        }
        if (valueBytesMax > store.value.maxBytes) {
            return Status::invalidArgument(
                "loadgen: valueBytesMax " +
                std::to_string(valueBytesMax) +
                " exceeds store.value.maxBytes " +
                std::to_string(store.value.maxBytes));
        }
    }
    return store.validate();
}

ThreadStats
LoadGenResult::aggregate() const
{
    ThreadStats agg;
    for (const ThreadStats& t : perThread) {
        sumCounters(agg, kThreadCounters, t);
        agg.seconds = std::max(agg.seconds, t.seconds);
        agg.latency.merge(t.latency);
        agg.latencyNs.merge(t.latencyNs);
    }
    return agg;
}

JsonValue
LoadGenResult::timing() const
{
    ThreadStats agg = aggregate();
    JsonValue o = JsonValue::object();
    o.set("seconds", JsonValue(seconds));
    o.set("ops_total", JsonValue(agg.ops));
    o.set("ops_per_sec", JsonValue(opsPerSec));
    o.set("latency", latencyJson(agg));
    JsonValue per = JsonValue::array();
    for (const ThreadStats& t : perThread) {
        JsonValue rec = JsonValue::object();
        rec.set("seconds", JsonValue(t.seconds));
        rec.set("ops_per_sec",
                JsonValue(t.seconds > 0.0
                              ? static_cast<double>(t.ops) / t.seconds
                              : 0.0));
        rec.set("latency", latencyJson(t));
        per.push(std::move(rec));
    }
    o.set("per_thread", std::move(per));
    return o;
}

Expected<LoadGenResult>
runLoadGen(const LoadGenConfig& cfg)
{
    if (Status s = cfg.validate(); !s.isOk()) return s;

    const WorkloadProfile* profile = WorkloadRegistry::find(cfg.workload);
    if (profile == nullptr) {
        return Status::notFound("loadgen: unknown workload '" +
                                cfg.workload + "'");
    }

    auto store_or = ZkvStore::create(cfg.store);
    if (!store_or) return store_or.status();
    std::unique_ptr<ZkvStore> store = std::move(*store_or);

    // With a data directory configured, replay whatever it holds and
    // start the durability tier before any worker issues traffic.
    if (store->persistEnabled()) {
        auto report_or = store->recover();
        if (!report_or) return report_or.status();
    }

    LoadGenResult result;
    result.perThread.resize(cfg.threads);

    // Live telemetry (docs/telemetry.md): the tracer receives one
    // compact record per op from the instrumented store paths; the
    // snapshotter samples store totals plus the per-thread live
    // histogram bins below into windowed NDJSON. Both are absent (and
    // the store keeps its uninstrumented paths) unless cfg.obs asks.
    const bool obs_on = cfg.obs.anyEnabled();
    std::unique_ptr<ObsTracer> tracer;
    if (obs_on) {
        ObsTracerConfig tc;
        tc.path = cfg.obs.tracePath;
        tc.ringCapacity = cfg.obs.ringCapacity;
        tracer = std::make_unique<ObsTracer>(std::move(tc));
        store->enableObs(tracer.get());
    }

    // Per-thread atomic copies of the latency bin counts, updated by
    // workers only when obs is on, so the snapshotter can read windowed
    // percentiles mid-run without racing the plain ThreadStats
    // histograms (which stay single-owner until join).
    const std::size_t bins = kLatencyBins;
    std::vector<std::atomic<std::uint64_t>> liveBins(
        obs_on ? static_cast<std::size_t>(cfg.threads) * bins : 0);

    std::unique_ptr<MetricsSnapshotter> snap;
    if (obs_on &&
        (!cfg.obs.metricsPath.empty() || !cfg.obs.promPath.empty())) {
        MetricsSnapshotterConfig mc;
        mc.ndjsonPath = cfg.obs.metricsPath;
        mc.promPath = cfg.obs.promPath;
        mc.intervalMs = cfg.obs.metricsIntervalMs;
        ZkvStore* st = store.get();
        auto* live = liveBins.data();
        const std::size_t nthreads = cfg.threads;
        snap = std::make_unique<MetricsSnapshotter>(
            std::move(mc), [st, live, bins, nthreads] {
                MetricsSample s = st->metricsSample();
                s.latencyBins.assign(bins, 0);
                for (std::size_t i = 0; i < nthreads * bins; i++) {
                    s.latencyBins[i % bins] +=
                        live[i].load(std::memory_order_relaxed);
                }
                return s;
            });
    }

    // Lazily-built profile tables must exist before workers spawn
    // (same prime() discipline as the sweep runner, docs/runner.md).
    WorkloadRegistry::prime();

    // Each worker stamps its own start and end: the wall interval runs
    // from the earliest start to the latest end, so it never depends on
    // when the coordinator wakes from the barrier.
    std::vector<Clock::time_point> starts(cfg.threads);
    std::vector<Clock::time_point> ends(cfg.threads);
    std::barrier sync(static_cast<std::ptrdiff_t>(cfg.threads) + 1);
    std::vector<std::thread> workers;
    workers.reserve(cfg.threads);
    for (std::uint32_t tid = 0; tid < cfg.threads; tid++) {
        workers.emplace_back([&, tid] {
            // Counted locally and moved into the result after the loop:
            // neighbouring ThreadStats in result.perThread share cache
            // lines, and every op writes its counters.
            ThreadStats ts;
            GeneratorPtr gen = WorkloadRegistry::makeCoreGenerator(
                *profile, tid, cfg.threads, cfg.seed);
            // Bytes mode: per-thread payload buffers, reused per op.
            const bool bytes_mode = store->bytesMode();
            std::vector<std::uint8_t> payload;
            std::vector<std::uint8_t> scratch;
            // Op-mix stream independent of the key stream.
            Pcg32 mix(zkvMix64(cfg.seed + tid),
                      /*stream=*/0x6b76ULL + tid);
            if (tracer) {
                // Pre-register with a stable name so trace tids are
                // worker indices, and ops land in this thread's ring.
                tracer->registerThread("worker-" + std::to_string(tid));
            }
            std::atomic<std::uint64_t>* myBins =
                obs_on ? liveBins.data() +
                             static_cast<std::size_t>(tid) * bins
                       : nullptr;

            sync.arrive_and_wait();
            const auto t0 = starts[tid] = Clock::now();
            for (std::uint64_t i = 0; i < cfg.opsPerThread; i++) {
                std::uint64_t key = gen->next().lineAddr;
                double u = mix.uniform();
                const auto op0 = Clock::now();
                if (u < cfg.getFrac) {
                    ts.gets++;
                    if (bytes_mode) {
                        auto v_or = store->getBytes(key);
                        if (!v_or) {
                            ts.getErrors++;
                        } else if (*v_or) {
                            ts.getHits++;
                            if (!zkvVerifyPayload(key, cfg.threads,
                                                  cfg.valueBytesMin,
                                                  cfg.valueBytesMax,
                                                  **v_or, scratch)) {
                                ts.verifyFailures++;
                            }
                        }
                    } else if (auto v = store->get(key)) {
                        ts.getHits++;
                        // Decode the writer thread from the payload.
                        if (*v - zkvMix64(key) >= cfg.threads) {
                            ts.verifyFailures++;
                        }
                    }
                } else if (u < cfg.getFrac + cfg.eraseFrac) {
                    ts.erases++;
                    if (store->erase(key)) ts.eraseHits++;
                } else {
                    ts.puts++;
                    Expected<PutResult> pr = [&] {
                        if (!bytes_mode) {
                            return store->put(key, zkvMix64(key) + tid);
                        }
                        zkvFillPayload(key, tid,
                                       zkvPayloadLen(key,
                                                     cfg.valueBytesMin,
                                                     cfg.valueBytesMax),
                                       payload);
                        return store->putBytes(key, payload);
                    }();
                    if (!pr) {
                        ts.putErrors++;
                    } else if (pr->evicted) {
                        ts.evictions++;
                    }
                }
                auto op1 = Clock::now();
                ts.ops++;
                auto ns = static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        op1 - op0)
                        .count());
                ts.latencyNs.record(ns);
                ts.latency.record(latencyToUnit(ns));
                if (myBins != nullptr) {
                    myBins[latencyBinIndex(ns, bins)].fetch_add(
                        1, std::memory_order_relaxed);
                }
            }
            ends[tid] = Clock::now();
            ts.seconds = std::chrono::duration<double>(ends[tid] - t0).count();
            result.perThread[tid] = std::move(ts);
        });
    }

    if (snap) snap->start();
    sync.arrive_and_wait();
    for (std::thread& w : workers) w.join();
    result.seconds = std::chrono::duration<double>(
                         *std::max_element(ends.begin(), ends.end()) -
                         *std::min_element(starts.begin(), starts.end()))
                         .count();
    double total_ops = static_cast<double>(cfg.threads) *
                       static_cast<double>(cfg.opsPerThread);
    result.opsPerSec =
        result.seconds > 0.0 ? total_ops / result.seconds : 0.0;

    // Telemetry teardown order matters: workers are joined (quiesced),
    // so (1) the snapshotter's final window captures the end-of-run
    // totals, (2) the store detaches from the tracer, (3) finish()
    // drains every ring and closes the trace with the exact
    // recorded/dropped accounting against the known op total.
    if (snap) {
        Status s = snap->stop();
        result.obsWindows = snap->windowsEmitted();
        if (!s.isOk()) return s;
    }
    if (tracer) {
        store->disableObs();
        auto sum_or =
            tracer->finish(static_cast<std::uint64_t>(total_ops));
        if (!sum_or) return sum_or.status();
        result.obsRecorded = sum_or->recorded;
        result.obsDropped = sum_or->dropped;
        result.obsThreads = sum_or->threads;
    }

    // Quiesce the durability tier before the stats dump so the
    // persist counters are final, and surface any sticky writer error
    // as a run failure instead of a silent counter.
    if (store->persistEnabled()) {
        if (Status s = store->stopPersist(); !s.isOk()) return s;
    }

    // End-of-run codec accounting (bytes mode): workers are joined, so
    // the totals are final and deterministic for a 1-thread run.
    if (store->bytesMode()) {
        result.compression = store->compressionTotals();
        result.residentKeys = store->size();
    }

    // Deterministic block: the store's stats tree plus per-thread
    // operation counters (workers are joined — the dump is quiesced).
    StatsRegistry reg;
    store->registerStats(reg.root());
    JsonValue det = reg.toJson();
    JsonValue workers_json = JsonValue::array();
    for (const ThreadStats& t : result.perThread) {
        JsonValue w = JsonValue::object();
        countersJson(w, kThreadCounters, t);
        workers_json.push(std::move(w));
    }
    det.set("workers", std::move(workers_json));
    result.storeStats = std::move(det);
    return result;
}

} // namespace zc
