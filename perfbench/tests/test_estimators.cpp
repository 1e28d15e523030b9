/**
 * @file
 * Unit tests for the benchmark's percentile and window estimators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "estimators.hpp"

using namespace zc::bench;

TEST(Percentile, UniformIntegersGiveExactQuantiles)
{
    // 0..100: the q-quantile by interpolation is exactly 100q.
    std::vector<double> v;
    for (int i = 100; i >= 0; i--) v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
    EXPECT_DOUBLE_EQ(median(v), 50.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({10.0}, 0.99), 10.0);
    EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, ExponentialSampleMatchesTheory)
{
    // Exp(1): p50 = ln 2, p99 = ln 100.
    std::mt19937_64 rng(7);
    std::exponential_distribution<double> d(1.0);
    std::vector<double> v(400000);
    for (auto& x : v) x = d(rng);
    EXPECT_NEAR(percentile(v, 0.5), std::log(2.0), 0.01);
    EXPECT_NEAR(percentile(v, 0.99), std::log(100.0), 0.05);
}

TEST(WindowRate, IsTheNinetiethPercentileOfWindowRates)
{
    // Windows complete 1..10 ops in 0.5 s each: rates 2..20 per second.
    std::vector<std::uint64_t> counts;
    for (std::uint64_t c = 10; c >= 1; c--) counts.push_back(c);
    // Sorted rates 2,4,...,20; position 0.9*9 = 8.1 -> 18 + 0.1*2.
    EXPECT_DOUBLE_EQ(windowRate(counts, 0.5), 18.2);
    EXPECT_DOUBLE_EQ(windowRate(counts, 0.5, 0.5), 11.0);
}

TEST(WindowRate, IgnoresASlowPhase)
{
    // A quarter of the windows run at half speed (host interference);
    // the p90 window still reads the undisturbed rate.
    std::vector<std::uint64_t> counts(40, 1000);
    for (int i = 0; i < 10; i++) counts[i] = 500;
    EXPECT_DOUBLE_EQ(windowRate(counts, 1.0), 1000.0);
}

TEST(GroupedPercentile, SpreadsTiesOverTheirUnitInterval)
{
    // {1, 2, 2, 3}: the median rank 2 sits halfway through the two 2s.
    std::vector<double> v{3, 2, 1, 2};
    EXPECT_DOUBLE_EQ(groupedPercentileInPlace(v, 0.5), 2.0);
    // Rank 1.2 is 0.2 into the 2s' interval [1.5, 2.5).
    EXPECT_DOUBLE_EQ(groupedPercentileInPlace(v, 0.3), 1.6);
    // Nine 100s and one 101: the median moves with the counts.
    std::vector<double> w(9, 100.0);
    w.push_back(101.0);
    EXPECT_DOUBLE_EQ(groupedPercentileInPlace(w, 0.5), 100.0 - 0.5 + 5.0 / 9);
    std::vector<double> e;
    EXPECT_TRUE(std::isnan(groupedPercentileInPlace(e, 0.5)));
}

TEST(WindowLatency, IsTheLowDecileOfPerWindowPercentiles)
{
    // Window i holds samples i..i+100 (101 values), so its grouped median
    // is i + 50 and its grouped p99 is i + 99 - 0.5 + 0.99.
    std::vector<std::vector<double>> w(11);
    for (int i = 0; i < 11; i++) {
        for (int j = 0; j <= 100; j++) w[i].push_back(i + j);
    }
    // Per-window medians 50..60; low decile (rank 1 of 11) = 51.
    EXPECT_DOUBLE_EQ(windowLatency(w, 0.5), 51.0);
    EXPECT_NEAR(windowLatency(w, 0.99), 1 + 99 - 0.5 + 0.99, 1e-9);
}

TEST(WindowLatency, SkipsSparseWindows)
{
    std::vector<std::vector<double>> w(3);
    w[0] = std::vector<double>(50, 10.0);
    w[1] = std::vector<double>(50, 10.0);
    w[2] = {1.0}; // an edge window with one sample
    EXPECT_DOUBLE_EQ(windowLatency(w, 0.5), 10.0);
}

TEST(Composite, ResidualIsTotalMinusParts)
{
    Composite c;
    c.total = 123.456;
    c.parts = {{"a", 0.1}, {"b", 20.2}, {"c", 3.3}};
    double sum = 0.0;
    for (const auto& p : c.parts) sum += p.second;
    EXPECT_EQ(c.residualValue(), c.total - sum);

    c.parts.clear();
    EXPECT_EQ(c.residualValue(), c.total);
    c.parts = {{"all", 123.456}};
    EXPECT_EQ(c.residualValue(), 0.0);
}
