/**
 * @file
 * Windowed metrics time-series for live runs (docs/telemetry.md).
 *
 * The stats registry is pull-model and end-of-run; this layer adds the
 * time axis. A MetricsSnapshotter samples a cumulative MetricsSample
 * from the instrumented system every interval, diffs consecutive
 * samples into windows, and emits one NDJSON record per window
 * (cumulative counters, d_* deltas, *_per_sec rates, windowed
 * hit_rate and p50/p99 latency from the shared log-scaled bins) plus
 * a Prometheus-style text exposition file rewritten atomically.
 *
 * Exactness contract (tested in tests/test_obs.cpp): stop() takes one
 * final sample after the caller has quiesced its workers, so summing
 * any d_* column across all emitted windows reproduces the final
 * cumulative counter exactly — the windows are a partition of the run,
 * not a lossy sampling of it.
 *
 * writeEpochSeries() adapts the simulator's per-epoch samples
 * (CmpSystem's epoch sampler) onto the same NDJSON sink, so simulator
 * sweeps and live store runs feed one downstream tool chain.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/stats_registry.hpp"
#include "common/status.hpp"

namespace zc {

/**
 * One cumulative observation of the system. Counters are monotonic
 * since-start totals (the snapshotter forms windows by diffing);
 * gauges are instantaneous values passed through as-is; latencyBins
 * are cumulative counts on the shared log-latency scale
 * (obs/latency_scale.hpp).
 */
struct MetricsSample
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::uint64_t> latencyBins;
};

/** Append every @p table field of @p t to @p s as a counter named
 *  @p prefix + its stats-tree name (common/stats_registry.hpp). */
template <class T, std::size_t N>
void
appendCounters(MetricsSample& s, const CounterField<T> (&table)[N],
               const T& t, const std::string& prefix = "")
{
    for (const CounterField<T>& f : table) {
        s.counters.emplace_back(prefix + f.name, t.*f.field);
    }
}

/** appendCounters for levels that can fall: gauges get no d_* column,
 *  so every counter column's window deltas still sum to its value. */
template <class T, std::size_t N>
void
appendGauges(MetricsSample& s, const CounterField<T> (&table)[N],
             const T& t, const std::string& prefix = "")
{
    for (const CounterField<T>& f : table) {
        s.gauges.emplace_back(prefix + f.name,
                              static_cast<double>(t.*f.field));
    }
}

/**
 * Live-telemetry sinks of a run (docs/telemetry.md), shared by the
 * load generator and the server. All off by default: the store then
 * runs its uninstrumented op paths.
 */
struct ObsConfig
{
    /** Chrome trace-event JSON (Perfetto-loadable); empty = no trace. */
    std::string tracePath;

    /** Windowed metrics NDJSON, one record per window; empty = none. */
    std::string metricsPath;

    /** Prometheus text exposition, rewritten per window; empty = none. */
    std::string promPath;

    std::uint32_t metricsIntervalMs = 100;

    /** Per-thread trace ring capacity in records. */
    std::size_t ringCapacity = 1u << 16;

    bool
    anyEnabled() const
    {
        return !tracePath.empty() || !metricsPath.empty() ||
               !promPath.empty();
    }

    Status
    validate() const
    {
        if (metricsIntervalMs == 0) {
            return Status::invalidArgument(
                "obs: metricsIntervalMs must be > 0");
        }
        if (ringCapacity == 0) {
            return Status::invalidArgument("obs: ringCapacity must be > 0");
        }
        return Status::ok();
    }
};

struct MetricsSnapshotterConfig
{
    /** NDJSON sink, one record per window; empty = disabled. */
    std::string ndjsonPath;

    /** Prometheus text exposition, atomically rewritten per window;
     *  empty = disabled. */
    std::string promPath;

    std::uint32_t intervalMs = 100;

    /** Metric name prefix in the Prometheus exposition. */
    std::string promPrefix = "zkv_";
};

/**
 * Background sampler: calls the SampleFn every intervalMs, diffs into
 * windows, appends NDJSON and rewrites the Prometheus file. start()
 * spawns the thread; stop() joins it and emits the final window —
 * call stop() only after the sampled system has quiesced so the last
 * cumulative sample is the deterministic end-of-run total.
 */
class MetricsSnapshotter
{
  public:
    /** Every sample must carry the same counters in the same order;
     *  each window reads a counter's previous value by position. */
    using SampleFn = std::function<MetricsSample()>;

    MetricsSnapshotter(MetricsSnapshotterConfig cfg, SampleFn sample);
    ~MetricsSnapshotter();

    MetricsSnapshotter(const MetricsSnapshotter&) = delete;
    MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

    void start();

    /** Join the sampler and flush the final window. Idempotent. */
    Status stop();

    std::uint64_t windowsEmitted() const
    {
        return windows_.load(std::memory_order_relaxed);
    }

    const MetricsSnapshotterConfig& config() const { return cfg_; }

  private:
    void samplerMain();
    void emitWindow(const MetricsSample& cur, std::uint64_t now_ns);
    void writeProm(const MetricsSample& cur, const JsonValue& window);

    MetricsSnapshotterConfig cfg_;
    SampleFn sample_;

    MetricsSample prev_;
    std::ofstream ndjson_; ///< open from start() to stop()
    std::uint64_t startNs_ = 0;
    std::uint64_t prevNs_ = 0;

    std::atomic<std::uint64_t> windows_{0};
    std::atomic<bool> stopReq_{false};
    std::thread sampler_;
    bool started_ = false;
    bool stopped_ = false;
    bool ioFailed_ = false;
};

/**
 * Write the simulator's per-epoch sample array (the "samples" array
 * CmpSystem registers under system.epochs) to @p path as NDJSON, one
 * record per epoch, each tagged with the epoch index and @p tags
 * (e.g. the sweep point's parameters). Deterministic: pure re-shaping
 * of deterministic stats, no clocks involved. With @p append the file
 * is extended instead of truncated, so a sweep bench can stream every
 * grid point's series into one file, distinguished by its tags (the
 * "epoch" field restarts from 0 at each call).
 */
Status writeEpochSeries(const std::string& path, const JsonValue& samples,
                        const JsonValue& tags, bool append = false);

/** Sanitize a counter name for Prometheus exposition ([a-zA-Z0-9_]). */
std::string promName(const std::string& name);

} // namespace zc
