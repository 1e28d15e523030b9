/**
 * @file
 * The shared log-scaled latency domain used by every latency histogram
 * in the repo (docs/telemetry.md): nanoseconds are mapped onto [0, 1]
 * as log2(1+ns)/32, so a UnitHistogram with B bins spends 32/B bits of
 * log range per bin — 64 bins ≈ half-a-bit resolution from 1 ns to
 * ~4 s. The load generator's per-op histograms, the live metrics
 * snapshotter's windowed percentiles, and the trace reporter all agree
 * on this scale, so their quantiles are directly comparable.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace zc {

/** Bins of every latency histogram on this scale (the load generators'
 *  per-op histograms and the metrics windows' percentiles). */
inline constexpr std::size_t kLatencyBins = 64;

/** Map an op latency to the [0,1] histogram domain: log2(1+ns)/32. */
inline double
latencyToUnit(double ns)
{
    return std::log2(1.0 + ns) / 32.0;
}

/** Invert latencyToUnit for approximate quantile reporting. */
inline double
unitToLatencyNs(double u)
{
    return std::exp2(32.0 * u) - 1.0;
}

/**
 * Bin index a latency of @p ns lands in for a @p bins-bin histogram on
 * this scale — UnitHistogram::record(latencyToUnit(ns)) picks the same
 * bin, so a live atomic mirror of a histogram stays bin-for-bin equal.
 */
inline std::size_t
latencyBinIndex(double ns, std::size_t bins)
{
    double x = std::clamp(latencyToUnit(ns), 0.0, 1.0);
    auto b = static_cast<std::size_t>(x * static_cast<double>(bins));
    return b >= bins ? bins - 1 : b;
}

/** Approximate quantile from histogram bins (right-edge inversion). */
inline double
histQuantileNs(const UnitHistogram& h, double q)
{
    if (h.samples() == 0) return 0.0;
    auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(h.samples()));
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < h.bins(); i++) {
        acc += h.binCount(i);
        if (acc > target) {
            double edge = (static_cast<double>(i) + 1.0) /
                          static_cast<double>(h.bins());
            return unitToLatencyNs(edge);
        }
    }
    return unitToLatencyNs(1.0);
}

/**
 * Quantile over a raw bin-count vector on the same log scale — the
 * windowed form used by the metrics snapshotter, where a window's
 * histogram is the delta of two cumulative snapshots and never lives
 * in a UnitHistogram object.
 */
inline double
binsQuantileNs(const std::vector<std::uint64_t>& counts, double q)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts) total += c;
    if (total == 0) return 0.0;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < counts.size(); i++) {
        acc += counts[i];
        if (acc > target) {
            double edge = (static_cast<double>(i) + 1.0) /
                          static_cast<double>(counts.size());
            return unitToLatencyNs(edge);
        }
    }
    return unitToLatencyNs(1.0);
}

} // namespace zc
