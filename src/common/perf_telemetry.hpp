/**
 * @file
 * Simulator throughput telemetry: wall-clock, simulated-work totals and
 * peak RSS, surfaced as first-class counters so regressions are visible
 * in every report instead of only in someone's terminal scrollback.
 *
 * A PerfMeter starts its clock at construction, harvests simulated-work
 * totals (instructions, L2 accesses, walk candidates) from the runs'
 * stats trees, and registers throughput counters into a StatsRegistry
 * StatGroup. Bench drivers attach its dump as the top-level "perf"
 * block of --json reports (bench/bench_util.hpp JsonReport).
 *
 * The block is intentionally *outside* the per-run records: run stats
 * stay byte-identical across --jobs values, journal resumes and
 * machines (the repo's determinism contract), while timing — which can
 * never be — lives in one clearly-marked sidecar. Regression tooling
 * that diffs reports strips "perf" first. See docs/performance.md.
 */

#pragma once

#include <chrono>
#include <cstdint>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/stats_registry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace zc {

/** Peak resident set size of this process in bytes (0 if unknown). */
inline std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru
    {
    };
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss); // bytes on Darwin
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u; // KiB on Linux
#endif
#else
    return 0;
#endif
}

class PerfMeter
{
  public:
    PerfMeter() : start_(std::chrono::steady_clock::now()) {}

    /**
     * Accumulate one run's simulated work from its stats tree. Two
     * shapes are understood: full CMP dumps (system.instructions and
     * system.l2.accesses — RunResult::stats) and array-level ablation
     * dumps (summary.accesses). Walk candidates are gathered by
     * recursively summing every "walk" group's candidates_total, so
     * any bank nesting works. Trees with neither shape contribute
     * nothing — the meter still reports wall time and RSS.
     */
    void
    addRun(const JsonValue& stats)
    {
        runs_++;
        const JsonValue* sys = stats.find("system");
        if (sys && sys->isObject()) {
            if (const JsonValue* v = sys->find("instructions");
                v && v->kind() == JsonValue::Kind::U64) {
                instructions_ += v->asU64();
            }
            const JsonValue* l2 = sys->find("l2");
            if (const JsonValue* v = l2 && l2->isObject()
                                         ? l2->find("accesses")
                                         : nullptr;
                v && v->kind() == JsonValue::Kind::U64) {
                accesses_ += v->asU64();
            }
        } else if (const JsonValue* summary = stats.find("summary");
                   summary && summary->isObject()) {
            if (const JsonValue* v = summary->find("accesses");
                v && v->kind() == JsonValue::Kind::U64) {
                accesses_ += v->asU64();
            }
        }
        walkCandidates_ += sumWalkCandidates(stats);
    }

    /** Accumulate raw totals directly (drivers without a stats tree). */
    void
    addCounts(std::uint64_t instructions, std::uint64_t accesses,
              std::uint64_t walk_candidates)
    {
        instructions_ += instructions;
        accesses_ += accesses;
        walkCandidates_ += walk_candidates;
    }

    double
    elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    std::uint64_t runs() const { return runs_; }
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t walkCandidates() const { return walkCandidates_; }

    double
    accessesPerSec() const
    {
        double s = elapsedSeconds();
        return s > 0 ? static_cast<double>(accesses_) / s : 0.0;
    }

    /**
     * Register the throughput counters into @p g. Values are read at
     * dump time, so register early and dump once at exit.
     */
    void
    registerStats(StatGroup& g) const
    {
        g.addCounter("runs", "experiment runs metered",
                     [this] { return runs_; });
        g.addCounter("instructions_total", "simulated instructions",
                     [this] { return instructions_; });
        g.addCounter("sim_accesses_total", "simulated L2 accesses",
                     [this] { return accesses_; });
        g.addCounter("walk_candidates_total",
                     "replacement candidates examined",
                     [this] { return walkCandidates_; });
        g.addScalar("wall_seconds", "wall-clock time since meter start",
                    [this] { return elapsedSeconds(); });
        g.addScalar("instructions_per_sec",
                    "simulated instructions per wall second", [this] {
                        double s = elapsedSeconds();
                        return s > 0
                                   ? static_cast<double>(instructions_) / s
                                   : 0.0;
                    });
        g.addScalar("sim_accesses_per_sec",
                    "simulated L2 accesses per wall second",
                    [this] { return accessesPerSec(); });
        g.addScalar("walk_candidates_per_sec",
                    "walk candidates examined per wall second", [this] {
                        double s = elapsedSeconds();
                        return s > 0 ? static_cast<double>(walkCandidates_) /
                                           s
                                     : 0.0;
                    });
        g.addCounter("peak_rss_bytes", "peak resident set size",
                     [] { return peakRssBytes(); });
    }

    /** The "perf" block: a one-shot registry dump of registerStats(). */
    JsonValue
    toJson() const
    {
        StatsRegistry reg;
        registerStats(reg.root().group("perf", "throughput telemetry"));
        JsonValue doc = reg.toJson();
        const JsonValue* p = doc.find("perf");
        zc_assert(p != nullptr);
        return *p;
    }

  private:
    /** Sum of "walk" groups' candidates_total anywhere under @p v. */
    static std::uint64_t
    sumWalkCandidates(const JsonValue& v)
    {
        if (!v.isObject()) return 0;
        std::uint64_t total = 0;
        for (const auto& [key, child] : v.obj()) {
            if (!child.isObject()) continue;
            if (key == "walk") {
                if (const JsonValue* c = child.find("candidates_total");
                    c && c->kind() == JsonValue::Kind::U64) {
                    total += c->asU64();
                }
                continue;
            }
            total += sumWalkCandidates(child);
        }
        return total;
    }

    std::chrono::steady_clock::time_point start_;
    std::uint64_t runs_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t walkCandidates_ = 0;
};

} // namespace zc
