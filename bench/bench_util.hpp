/**
 * @file
 * Shared helpers for the report harnesses: tiny flag parser, table
 * formatting, the --json telemetry writer, and the glue between the
 * parallel sweep engine (src/runner, docs/runner.md) and bench output.
 * Each bench binary regenerates one of the paper's tables or figures as
 * text (rows/series), so results can be diffed against EXPERIMENTS.md;
 * with --json=<path> it additionally serializes the runs' full stats
 * trees for plotting and regression tooling (docs/observability.md).
 *
 * Every driver accepts --jobs=N (0/absent = hardware concurrency) and
 * --no-progress; the sweep engine guarantees text and JSON output are
 * identical for any N. Sweep drivers additionally accept
 * --job-timeout=<seconds> (per-point watchdog), --retry-backoff-ms=<ms>
 * (exponential retry backoff), and --journal=<path> / --resume=<path>
 * (crash-resumable sweeps, docs/robustness.md).
 *
 * Exit-code protocol (docs/robustness.md):
 *   0  every sweep point succeeded and all requested outputs were
 *      written;
 *   1  one or more grid points failed (their errors are on stderr and
 *      counted under "sweep.failed" in --json output) or an output file
 *      could not be written;
 *   2  usage error — unknown flag value (policy/design name), a
 *      numeric flag that does not parse whole (a count that is not a
 *      whole decimal number, a fraction or rate that is not a finite
 *      decimal number), or a structured journal refusal (corrupt
 *      header, wrong grid).
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/perf_telemetry.hpp"
#include "runner/sweep.hpp"

namespace zc::benchutil {

/** "--key=value" flag lookup; returns fallback when absent. */
inline std::string
flag(int argc, char** argv, const std::string& key,
     const std::string& fallback)
{
    std::string prefix = "--" + key + "=";
    for (int i = 1; i < argc; i++) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            return std::string(argv[i] + prefix.size());
        }
    }
    return fallback;
}

/**
 * @p v as a whole decimal number, or exit 2 (usage error) naming the
 * flag @p what: strtoull alone would read "1e6" as 1 and "abc" as 0.
 */
inline std::uint64_t
parseU64(const std::string& v, const std::string& what)
{
    std::uint64_t n = 0;
    const char* last = v.data() + v.size();
    auto [end, ec] = std::from_chars(v.data(), last, n);
    if (v.empty() || ec != std::errc() || end != last) {
        std::fprintf(stderr,
                     "error: %s: '%s' is not a whole decimal number\n",
                     what.c_str(), v.c_str());
        std::exit(2);
    }
    return n;
}

inline std::uint64_t
flagU64(int argc, char** argv, const std::string& key,
        std::uint64_t fallback)
{
    std::string v = flag(argc, argv, key, "");
    return v.empty() ? fallback : parseU64(v, "--" + key);
}

/**
 * @p v as a finite decimal number ("0.7", "2e4"), or exit 2 naming the
 * flag @p what: atof alone would read "9O" as 9 and "abc" as 0.
 */
inline double
parseF64(const std::string& v, const std::string& what)
{
    double x = 0.0;
    const char* last = v.data() + v.size();
    auto [end, ec] = std::from_chars(v.data(), last, x);
    if (v.empty() || ec != std::errc() || end != last || !std::isfinite(x)) {
        std::fprintf(stderr, "error: %s: '%s' is not a decimal number\n",
                     what.c_str(), v.c_str());
        std::exit(2);
    }
    return x;
}

inline double
flagF64(int argc, char** argv, const std::string& key, double fallback)
{
    std::string v = flag(argc, argv, key, "");
    return v.empty() ? fallback : parseF64(v, "--" + key);
}

/**
 * A --value-bytes distribution, "fixed:N", "uniform:LO:HI" or a bare
 * "N" (= fixed:N), as its inclusive {LO, HI}; or exit 2 (usage error)
 * unless 4 <= LO <= HI <= @p cap: a payload holds at least its 4-byte
 * writer-tid prefix and at most the store's value cap (the load
 * generators pass kZkvMaxValueBytes).
 */
inline std::pair<std::uint32_t, std::uint32_t>
parseValueBytes(const std::string& spec, std::uint32_t cap)
{
    std::string body = spec;
    bool uniform = false;
    if (spec.rfind("fixed:", 0) == 0) {
        body = spec.substr(6);
    } else if (spec.rfind("uniform:", 0) == 0) {
        body = spec.substr(8);
        uniform = true;
    }
    const std::size_t colon = uniform ? body.find(':') : body.size();
    if (colon == std::string::npos) {
        std::fprintf(stderr,
                     "error: bad --value-bytes '%s' (valid: fixed:N, "
                     "uniform:LO:HI, N)\n",
                     spec.c_str());
        std::exit(2);
    }
    const std::uint64_t lo = parseU64(body.substr(0, colon), "--value-bytes");
    const std::uint64_t hi =
        uniform ? parseU64(body.substr(colon + 1), "--value-bytes") : lo;
    if (lo < 4 || hi < lo || hi > cap) {
        std::fprintf(stderr,
                     "error: --value-bytes range [%llu, %llu] must satisfy "
                     "4 <= LO <= HI <= %u\n",
                     static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), cap);
        std::exit(2);
    }
    return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

inline bool
flagBool(int argc, char** argv, const std::string& key)
{
    std::string bare = "--" + key;
    for (int i = 1; i < argc; i++) {
        if (bare == argv[i]) return true;
    }
    return flag(argc, argv, key, "") == "1" ||
           flag(argc, argv, key, "") == "true";
}

/** Section banner. */
inline void
banner(const std::string& title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

/**
 * Sweep-engine options from the shared flags: --jobs=N, --no-progress,
 * --job-timeout=<seconds>, --retry-backoff-ms=<ms>, --journal=<path>,
 * --resume=<path>. @p label names the sweep in the progress line.
 */
inline zc::SweepOptions
sweepOptions(int argc, char** argv, const std::string& label)
{
    zc::SweepOptions o;
    o.jobs = static_cast<unsigned>(flagU64(argc, argv, "jobs", 0));
    o.progress = !flagBool(argc, argv, "no-progress");
    o.label = label;
    o.jobTimeoutMs = flagU64(argc, argv, "job-timeout", 0) * 1000;
    o.retryBackoffMs = flagU64(argc, argv, "retry-backoff-ms", 0);
    o.journalPath = flag(argc, argv, "journal", "");
    o.resumePath = flag(argc, argv, "resume", "");
    return o;
}

/**
 * SweepRunner::run with the structured-refusal contract of the CLI:
 * a journal that cannot be created or resumed (corrupt header, grid
 * fingerprint mismatch) prints the diagnostic and exits 2 — a usage
 * error, distinct from exit 1's "some points failed".
 */
inline std::vector<zc::RunOutcome>
runSweep(const zc::SweepRunner& runner, const zc::SweepSpec& spec)
{
    try {
        return runner.run(spec);
    } catch (const zc::StatusError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
    }
}

/**
 * Stderr note per failed grid point, for benches driving runGrid
 * directly; returns the failure count (nonzero => exit code 1).
 */
template <typename Result>
inline std::size_t
reportGridFailures(const std::vector<zc::GridOutcome<Result>>& outcomes,
                   const std::string& label)
{
    std::size_t failures = 0;
    for (const auto& o : outcomes) {
        if (o.ok) continue;
        failures++;
        std::fprintf(stderr,
                     "%s: grid point %zu failed after %u attempts: %s\n",
                     label.c_str(), o.index, o.attempts, o.error.c_str());
    }
    return failures;
}

/**
 * Accumulates run records for the --json=<path> output of a bench
 * binary. Text stdout is untouched; the JSON file is written once at
 * the end (writeIfRequested in a destructor would hide I/O errors, so
 * benches call it explicitly). Layout:
 *
 *   { "report": <name>, "perf": { <throughput counters> },
 *     "runs": [ { <tags...>, "stats": <tree> }, ... ] }
 *
 * where <tree> is the RunResult::stats dump of one experiment.
 *
 * "perf" (common/perf_telemetry.hpp) carries the report's wall clock,
 * simulated accesses/sec, walk candidates/sec and peak RSS. It is the
 * ONLY nondeterministic block in the file: tooling that byte-compares
 * reports across --jobs values or journal resumes must drop it first
 * (the CI workflow does).
 */
class JsonReport
{
  public:
    JsonReport(int argc, char** argv, const std::string& name)
        : path_(flag(argc, argv, "json", "")), name_(name)
    {
    }

    bool enabled() const { return !path_.empty(); }

    /**
     * Append one run: @p tags identify it within the report (workload,
     * design, ...), @p stats is the run's full stats tree.
     */
    void
    add(std::vector<std::pair<std::string, JsonValue>> tags, JsonValue stats)
    {
        if (!enabled()) return;
        perf_.addRun(stats);
        JsonValue rec = JsonValue::object();
        for (auto& [k, v] : tags) rec.set(k, std::move(v));
        rec.set("stats", std::move(stats));
        runs_.push_back(std::move(rec));
    }

    /** The report's throughput meter (running since construction). */
    PerfMeter& perf() { return perf_; }

    /**
     * Append a whole sweep's outcomes in grid order (failed points are
     * skipped — their absence plus the "failed" count below records
     * them). Grid order is what makes the JSON independent of --jobs.
     */
    void
    addSweep(const zc::SweepSpec& spec,
             const std::vector<zc::RunOutcome>& outcomes)
    {
        if (!enabled()) return;
        sweepPoints_ += spec.size();
        for (const auto& o : outcomes) {
            if (o.timedOut) sweepTimedOut_++;
            if (!o.ok) {
                sweepFailed_++;
                continue;
            }
            add(spec.points[o.index].tags, o.result.stats);
        }
        haveSweep_ = true;
    }

    /**
     * Attach an extra named top-level block (e.g. store_loadgen's
     * "scaling" summary). Reserved names (report/perf/sweep/runs) are
     * the caller's responsibility to avoid; later sets win.
     */
    void
    setBlock(const std::string& key, JsonValue block)
    {
        if (!enabled()) return;
        blocks_.emplace_back(key, std::move(block));
    }

    /** Write the report; returns false (with a stderr note) on failure. */
    bool
    writeIfRequested()
    {
        if (!enabled()) return true;
        JsonValue doc = JsonValue::object();
        doc.set("report", JsonValue(name_));
        doc.set("perf", perf_.toJson());
        for (auto& [k, v] : blocks_) doc.set(k, std::move(v));
        if (haveSweep_) {
            JsonValue sweep = JsonValue::object();
            sweep.set("points", JsonValue(std::uint64_t{sweepPoints_}));
            sweep.set("failed", JsonValue(std::uint64_t{sweepFailed_}));
            sweep.set("timed_out", JsonValue(std::uint64_t{sweepTimedOut_}));
            // Regression tooling keys off this single flag instead of
            // re-deriving it from the counts.
            sweep.set("ok", JsonValue(sweepFailed_ == 0));
            doc.set("sweep", std::move(sweep));
        }
        JsonValue arr = JsonValue::array();
        for (auto& r : runs_) arr.push(std::move(r));
        doc.set("runs", std::move(arr));
        std::ofstream out(path_);
        if (!out) {
            std::fprintf(stderr, "error: cannot open %s for writing\n",
                         path_.c_str());
            return false;
        }
        out << doc.str(2) << "\n";
        std::fprintf(stderr, "wrote JSON report: %s (%zu runs)\n",
                     path_.c_str(), runs_.size());
        return out.good();
    }

  private:
    std::string path_;
    std::string name_;
    PerfMeter perf_;
    std::vector<JsonValue> runs_;
    std::vector<std::pair<std::string, JsonValue>> blocks_;
    std::uint64_t sweepPoints_ = 0;
    std::uint64_t sweepFailed_ = 0;
    std::uint64_t sweepTimedOut_ = 0;
    bool haveSweep_ = false;
};

} // namespace zc::benchutil
