/**
 * @file
 * Percentile and measurement-window estimators for the benchmark.
 *
 * The noise rules in perfbench/README.md come down to three estimators:
 *
 *  - exact percentiles of raw samples (no log-binned histograms: their
 *    ~41 % wide bins made p50/p99 read identically on every run);
 *  - the 90th-percentile per-window throughput over equal windows of a
 *    run, which ignores the host's second-long interference phases that
 *    drag a whole-run mean around;
 *  - the low decile, across windows, of each window's latency
 *    percentile, for the same reason.
 *
 * Composite ladder rungs report a residual: the composite minus the sum
 * of its parts, computed in one place so the identity holds exactly.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zc::bench {

/**
 * Exact q-quantile (0 <= q <= 1) of @p v by linear interpolation between
 * order statistics (the numpy default). Sorts @p v in place; NaN when
 * @p v is empty.
 */
inline double
percentileInPlace(std::vector<double>& v, double q)
{
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

/** percentileInPlace on a copy. */
inline double
percentile(std::vector<double> v, double q)
{
    return percentileInPlace(v, q);
}

inline double
median(std::vector<double> v)
{
    return percentileInPlace(v, 0.5);
}

/**
 * q-quantile of samples that are whole numbers (nanosecond timings),
 * treating each value x as spread evenly over [x - 0.5, x + 0.5): the
 * grouped-data median. Plain interpolation would return a whole number
 * whenever the order statistics around the rank tie, which they almost
 * always do for timings a few hundred ns long, so two different runs
 * would read exactly alike. NaN when @p v is empty.
 */
inline double
groupedPercentileInPlace(std::vector<double>& v, double q)
{
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size());
    const std::size_t i =
        std::min(static_cast<std::size_t>(rank), v.size() - 1);
    const double x = v[i];
    const auto lo = static_cast<double>(
        std::lower_bound(v.begin(), v.end(), x) - v.begin());
    const auto hi = static_cast<double>(
        std::upper_bound(v.begin(), v.end(), x) - v.begin());
    return x - 0.5 + (rank - lo) / (hi - lo);
}

/**
 * Throughput estimator: the @p q quantile (0.9 by the noise rules) of
 * per-window rates, where window i completed @p counts[i] operations in
 * @p windowSeconds.
 */
inline double
windowRate(const std::vector<std::uint64_t>& counts, double windowSeconds,
           double q = 0.9)
{
    std::vector<double> rates;
    rates.reserve(counts.size());
    for (std::uint64_t c : counts) {
        rates.push_back(static_cast<double>(c) / windowSeconds);
    }
    return percentileInPlace(rates, q);
}

/**
 * Latency estimator over whole-nanosecond samples: the grouped @p q
 * quantile of each window's samples, then the @p across quantile (0.1,
 * the low decile) of those per-window values. Windows with fewer than
 * @p minSamples samples are skipped so a nearly empty edge window
 * cannot set the result.
 */
inline double
windowLatency(const std::vector<std::vector<double>>& windows, double q,
              double across = 0.1, std::size_t minSamples = 20)
{
    std::vector<double> per;
    per.reserve(windows.size());
    for (const auto& w : windows) {
        if (w.size() < minSamples) continue;
        std::vector<double> copy = w;
        per.push_back(groupedPercentileInPlace(copy, q));
    }
    return percentileInPlace(per, across);
}

/** A composite ladder rung: a measured whole and its measured parts. */
struct Composite
{
    std::string name;       ///< metric name of the whole
    std::string residual;   ///< metric name the residual is reported as
    double total = 0.0;
    std::vector<std::pair<std::string, double>> parts;

    /** total minus the parts, summed in declaration order. */
    double
    residualValue() const
    {
        double sum = 0.0;
        for (const auto& p : parts) sum += p.second;
        return total - sum;
    }
};

} // namespace zc::bench
