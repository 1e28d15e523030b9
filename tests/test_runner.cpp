/**
 * @file
 * Tests of the parallel sweep engine (src/runner): runGrid's workers
 * running every index exactly once, its grid-order determinism and
 * fault isolation (exception capture + bounded retry), the SweepSpec
 * seed derivation, and the SweepRunner end-to-end contract that
 * --jobs=N produces byte-identical results to --jobs=1.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/sweep.hpp"

namespace zc {
namespace {

SweepOptions
quiet(unsigned jobs)
{
    SweepOptions o;
    o.jobs = jobs;
    o.progress = false;
    return o;
}

// --------------------------------------------------------------- jobs

TEST(Grid, DefaultJobsIsNeverZero)
{
    // --jobs=0 means "auto". std::thread::hardware_concurrency() is
    // allowed to return 0 (the value is only a hint), so the auto path
    // must clamp to one worker: zero workers would never run a job.
    EXPECT_GE(detail::defaultJobs(), 1u);
}

TEST(Grid, JobsZeroRunsTheWholeGrid)
{
    std::atomic<int> ran{0};
    auto outs = runGrid<int>(
        12,
        [&](std::size_t i) {
            ran.fetch_add(1);
            return static_cast<int>(i) * 2;
        },
        quiet(0));
    ASSERT_EQ(outs.size(), 12u);
    EXPECT_EQ(ran.load(), 12);
    for (std::size_t i = 0; i < outs.size(); i++) {
        EXPECT_TRUE(outs[i].ok);
        EXPECT_EQ(outs[i].result, static_cast<int>(i) * 2);
    }
}

// -------------------------------------------------------------- runGrid

TEST(RunGrid, EmptyGrid)
{
    auto out = runGrid<int>(
        0, [](std::size_t) { return 0; }, quiet(4));
    EXPECT_TRUE(out.empty());
}

TEST(RunGrid, SinglePoint)
{
    auto out = runGrid<int>(
        1, [](std::size_t i) { return static_cast<int>(i) + 41; },
        quiet(4));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok);
    EXPECT_EQ(out[0].index, 0u);
    EXPECT_EQ(out[0].attempts, 1u);
    EXPECT_EQ(out[0].result, 41);
    EXPECT_TRUE(out[0].error.empty());
}

TEST(RunGrid, EveryIndexRunsOnceInItsOwnSlot)
{
    // Uneven job times: every seventh index sleeps, the rest return at
    // once, so workers claim indices at very different rates. The last
    // grid has more workers than indices.
    struct Case
    {
        std::size_t count;
        unsigned jobs;
    };
    for (Case c : {Case{300, 1}, Case{300, 3}, Case{300, 8}, Case{3, 16}}) {
        std::vector<std::atomic<int>> calls(c.count);
        auto out = runGrid<std::size_t>(
            c.count,
            [&](std::size_t i) {
                calls[i].fetch_add(1);
                if (i % 7 == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(20 * (i % 5 + 1)));
                }
                return 3 * i + 1;
            },
            quiet(c.jobs));
        ASSERT_EQ(out.size(), c.count);
        for (std::size_t i = 0; i < c.count; i++) {
            EXPECT_EQ(calls[i].load(), 1) << "jobs=" << c.jobs << " i=" << i;
            EXPECT_EQ(out[i].index, i);
            EXPECT_TRUE(out[i].ok);
            EXPECT_EQ(out[i].attempts, 1u);
            EXPECT_EQ(out[i].result, 3 * i + 1);
        }
    }
}

TEST(RunGrid, OutcomesInGridOrderRegardlessOfCompletionOrder)
{
    // Early indices sleep longest, so completion order is roughly the
    // reverse of grid order; the outcome vector must not care.
    constexpr std::size_t kN = 32;
    auto out = runGrid<std::size_t>(
        kN,
        [](std::size_t i) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(50 * (kN - i)));
            return i * i;
        },
        quiet(8));
    ASSERT_EQ(out.size(), kN);
    for (std::size_t i = 0; i < kN; i++) {
        EXPECT_EQ(out[i].index, i);
        EXPECT_TRUE(out[i].ok);
        EXPECT_EQ(out[i].result, i * i);
    }
}

TEST(RunGrid, CapturesPersistentFailureWithoutAbortingSweep)
{
    auto out = runGrid<int>(
        5,
        [](std::size_t i) -> int {
            if (i == 2) throw std::runtime_error("point 2 is broken");
            return static_cast<int>(i);
        },
        quiet(4));
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(gridFailures(out), 1u);
    EXPECT_FALSE(out[2].ok);
    EXPECT_EQ(out[2].attempts, 2u); // one bounded retry
    EXPECT_NE(out[2].error.find("point 2 is broken"), std::string::npos);
    EXPECT_NE(out[2].error.find("attempt 1"), std::string::npos);
    EXPECT_NE(out[2].error.find("attempt 2"), std::string::npos);
    for (std::size_t i : {0u, 1u, 3u, 4u}) {
        EXPECT_TRUE(out[i].ok);
        EXPECT_EQ(out[i].result, static_cast<int>(i));
    }
}

TEST(RunGrid, RetrySucceedsAfterTransientFailure)
{
    std::atomic<int> calls{0};
    auto out = runGrid<int>(
        1,
        [&calls](std::size_t) -> int {
            if (calls.fetch_add(1) == 0) {
                throw std::runtime_error("transient");
            }
            return 7;
        },
        quiet(2));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok);
    EXPECT_EQ(out[0].attempts, 2u);
    EXPECT_EQ(out[0].result, 7);
    // The first attempt's message is preserved for diagnostics.
    EXPECT_NE(out[0].error.find("transient"), std::string::npos);
    EXPECT_EQ(calls.load(), 2);
}

TEST(RunGrid, NonStandardExceptionIsCaptured)
{
    auto out = runGrid<int>(
        1, [](std::size_t) -> int { throw 42; }, quiet(1));
    EXPECT_FALSE(out[0].ok);
    EXPECT_NE(out[0].error.find("non-standard exception"),
              std::string::npos);
}

TEST(RunGrid, MaxAttemptsIsHonoured)
{
    std::atomic<int> calls{0};
    SweepOptions opts = quiet(1);
    opts.maxAttempts = 3;
    auto out = runGrid<int>(
        1,
        [&calls](std::size_t) -> int {
            calls.fetch_add(1);
            throw std::runtime_error("always");
        },
        opts);
    EXPECT_FALSE(out[0].ok);
    EXPECT_EQ(out[0].attempts, 3u);
    EXPECT_EQ(calls.load(), 3);
}

// ------------------------------------------------------------ SweepSpec

TEST(SweepSpec, PointSeedIsStableAndDistinct)
{
    // Golden values: recorded results depend on this derivation, so a
    // change here is a breaking change, not a refactor.
    EXPECT_EQ(SweepSpec::pointSeed(7, 0), 7191089600892374487ULL);
    EXPECT_EQ(SweepSpec::pointSeed(7, 1), 309689372594955804ULL);
    EXPECT_EQ(SweepSpec::pointSeed(7, 2), 16616101746815609346ULL);
    // Pure function of (base, index).
    EXPECT_EQ(SweepSpec::pointSeed(7, 1), SweepSpec::pointSeed(7, 1));
    EXPECT_NE(SweepSpec::pointSeed(7, 1), SweepSpec::pointSeed(8, 1));
}

RunParams
tinyRun(const std::string& workload)
{
    RunParams p;
    p.workload = workload;
    p.warmupInstr = 1500;
    p.measureInstr = 1500;
    return p;
}

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "test-sweep";
    for (const char* wl : {"gcc", "mcf"}) {
        for (std::uint32_t ways : {4u, 8u}) {
            RunParams p = tinyRun(wl);
            p.l2Spec.ways = ways;
            spec.add(p, {{"workload", JsonValue(std::string(wl))},
                         {"ways", JsonValue(ways)}});
        }
    }
    return spec;
}

TEST(SweepRunner, EmptySpec)
{
    SweepSpec spec;
    spec.name = "empty";
    auto outs = SweepRunner(quiet(4)).run(spec);
    EXPECT_TRUE(outs.empty());
    EXPECT_EQ(SweepRunner::reportFailures(spec, outs), 0u);
}

TEST(SweepRunner, ParallelRunIsByteIdenticalToSerial)
{
    SweepSpec spec = tinySpec();
    auto serial = SweepRunner(quiet(1)).run(spec);
    auto parallel = SweepRunner(quiet(8)).run(spec);
    ASSERT_EQ(serial.size(), spec.size());
    ASSERT_EQ(parallel.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); i++) {
        EXPECT_TRUE(serial[i].ok);
        EXPECT_TRUE(parallel[i].ok);
        EXPECT_EQ(serial[i].index, i);
        EXPECT_EQ(parallel[i].index, i);
        // The full stats tree — every counter the run produced — must
        // serialize identically: the determinism contract.
        EXPECT_EQ(serial[i].result.stats.str(2),
                  parallel[i].result.stats.str(2))
            << "grid point " << i << " diverged between --jobs=1 and "
            << "--jobs=8";
        EXPECT_EQ(serial[i].result.mpki, parallel[i].result.mpki);
        EXPECT_EQ(serial[i].result.ipc, parallel[i].result.ipc);
    }
}

TEST(SweepRunner, BaseSeedDerivesPerPointSeeds)
{
    SweepSpec spec;
    spec.name = "seeded";
    spec.baseSeed = 7;
    spec.add(tinyRun("gcc"));
    spec.add(tinyRun("gcc"));
    auto outs = SweepRunner(quiet(2)).run(spec);
    ASSERT_EQ(outs.size(), 2u);
    for (std::size_t i = 0; i < 2; i++) {
        ASSERT_TRUE(outs[i].ok);
        // The run group records the seed each experiment actually used.
        std::string dump = outs[i].result.stats.str(2);
        std::string want =
            std::to_string(SweepSpec::pointSeed(7, i));
        EXPECT_NE(dump.find(want), std::string::npos)
            << "point " << i << " did not run with pointSeed(7, " << i
            << ")";
    }
    // Same params, different derived seeds: the runs must differ.
    EXPECT_NE(outs[0].result.stats.str(2), outs[1].result.stats.str(2));
}

TEST(SweepRunner, ZeroBaseSeedKeepsDeclaredSeeds)
{
    SweepSpec spec;
    spec.name = "declared-seed";
    RunParams p = tinyRun("gcc");
    p.seed = 123;
    spec.add(p);
    auto outs = SweepRunner(quiet(1)).run(spec);
    ASSERT_TRUE(outs[0].ok);
    EXPECT_NE(outs[0].result.stats.str(2).find("\"seed\": 123"),
              std::string::npos);
}

TEST(SweepRunner, JobsZeroRunsFullSweep)
{
    // End-to-end cover for the drivers' --jobs=0 default: the auto
    // worker count must be clamped to >= 1 and the sweep must complete.
    SweepSpec spec;
    spec.name = "jobs0";
    spec.add(tinyRun("gcc"));
    spec.add(tinyRun("mcf"));
    auto outs = SweepRunner(quiet(0)).run(spec);
    ASSERT_EQ(outs.size(), 2u);
    for (const auto& o : outs) EXPECT_TRUE(o.ok) << o.error;
}

} // namespace
} // namespace zc
