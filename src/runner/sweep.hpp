/**
 * @file
 * Parallel sweep engine: declarative experiment grids executed by
 * worker threads with deterministic results and per-job fault
 * isolation.
 *
 * Three layers (docs/runner.md):
 *
 *  - runGrid<R>(count, fn, opts): the generic engine. Its workers claim
 *    the indices 0..count one at a time from a shared counter, capture
 *    exceptions into GridOutcome records with one bounded retry, report
 *    live progress on stderr, and return the outcomes **in grid
 *    order** — never in completion order.
 *  - SweepSpec: a grid of RunParams points with JSON tags identifying
 *    each point in bench reports, plus an optional base seed from which
 *    every point derives a deterministic seed (a pure function of the
 *    grid index — independent of thread count and scheduling).
 *  - SweepRunner: executes a SweepSpec's points through runExperiment.
 *
 * Determinism contract: given the same spec, the outcome vector (and
 * every RunResult in it) is byte-identical for any --jobs=N, because
 * (a) each point's parameters — seed included — are fixed before any
 * job starts, (b) jobs share no mutable state (see the audit in
 * docs/runner.md), and (c) results are indexed by grid position.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "common/watchdog.hpp"
#include "sim/experiment.hpp"

namespace zc {

/** Execution knobs shared by runGrid and SweepRunner. */
struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency (the --jobs flag). */
    unsigned jobs = 0;

    /** Attempts per job: 2 = one bounded retry after a failure. */
    std::uint32_t maxAttempts = 2;

    /** Live progress line on stderr (completed/total, ETA, in flight). */
    bool progress = true;

    /** Progress label; SweepRunner defaults it to the spec name. */
    std::string label = "sweep";

    /**
     * Per-attempt wall-clock budget in milliseconds (--job-timeout).
     * Armed as a cooperative JobWatchdog around each attempt; a job
     * that blows it is recorded with timedOut set and never retried
     * (a hung job would just hang again). 0 = no deadline.
     */
    std::uint64_t jobTimeoutMs = 0;

    /**
     * Exponential backoff before retries: attempt n sleeps
     * retryBackoffMs * 2^(n-2) ms first. 0 (default) retries
     * immediately — transient failures inside a single process rarely
     * need a pause, but fault-injection and flaky-I/O sweeps do.
     */
    std::uint64_t retryBackoffMs = 0;

    /**
     * Crash-resume journal (runner/journal.hpp), SweepRunner only.
     * journalPath starts a fresh journal (truncating any existing
     * file); resumePath loads completed points from an existing
     * journal first — or starts fresh when the file does not exist —
     * then appends. Setting both is allowed; resumePath wins.
     */
    std::string journalPath;
    std::string resumePath;
};

/** One grid point's execution record; `result` is valid iff `ok`. */
template <typename Result>
struct GridOutcome
{
    std::size_t index = 0;
    bool ok = false;
    std::uint32_t attempts = 0;
    bool timedOut = false; ///< cancelled by the per-job watchdog
    std::string error;     ///< per-attempt messages, empty when clean
    Result result{};
};

namespace detail {

/**
 * Thread-safe stderr progress line. On a TTY it rewrites one line in
 * place; in logs (CI) it prints a full line roughly every tenth of the
 * grid. Progress is cosmetic: it never touches stdout, so text reports
 * stay byte-identical whether it is on or off.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::string label, std::size_t total, bool enabled);
    void jobStarted();
    void jobFinished(bool ok);
    void finish();

  private:
    void emit(bool final_line);
    std::string eta() const;

    std::string label_;
    std::size_t total_;
    bool enabled_;
    bool tty_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mx_;
    std::size_t started_ = 0;
    std::size_t done_ = 0;
    std::size_t failed_ = 0;
    std::size_t nextMark_ = 0; ///< non-TTY: next `done_` worth a line
};

unsigned defaultJobs();

/** Append one attempt's failure message to an outcome's error log. */
void appendAttemptError(std::string& log, std::uint32_t attempt,
                        const char* what);

/**
 * Failure categories that no amount of retrying fixes: the same
 * impossible configuration or unknown name fails identically every
 * attempt, so the engine records them after one try.
 */
inline bool
isPermanentError(ErrorCode c)
{
    return c == ErrorCode::InvalidArgument || c == ErrorCode::NotFound ||
           c == ErrorCode::Unsupported;
}

} // namespace detail

/**
 * Run fn(index) for every index in [0, count) on @p opts.jobs workers.
 * Each worker claims the next unclaimed index from one shared counter,
 * so a worker that finishes a short job moves straight on to the next
 * and none waits behind a long one. Returns outcomes in grid order. A
 * job that throws is retried (with exponential backoff when
 * opts.retryBackoffMs is set) up to opts.maxAttempts times — except
 * permanent errors (invalid-argument, not-found, unsupported), which
 * fail once, and watchdog timeouts, which mark the outcome timedOut and
 * are never retried. A job that keeps failing yields ok == false with
 * every attempt's message, and never aborts the rest of the sweep.
 *
 * @p onOutcome, when set, is invoked once per finished job — success
 * or failure — serialized under an internal mutex, in completion
 * order. The sweep journal hooks in here; anything slow in the hook
 * throttles every worker.
 */
template <typename Result, typename Fn>
std::vector<GridOutcome<Result>>
runGrid(std::size_t count, Fn fn, const SweepOptions& opts = {},
        const std::function<void(const GridOutcome<Result>&)>& onOutcome = {})
{
    std::vector<GridOutcome<Result>> out(count);
    for (std::size_t i = 0; i < count; i++) out[i].index = i;
    if (!opts.journalPath.empty() || !opts.resumePath.empty()) {
        // Journaling lives in SweepRunner (which knows how to persist a
        // RunResult); a raw grid has no serializer for its Result type.
        std::fprintf(stderr,
                     "warning: %s: this driver does not journal its "
                     "grid; ignoring --journal/--resume\n",
                     opts.label.c_str());
    }
    if (count == 0) return out;

    unsigned jobs = opts.jobs ? opts.jobs : detail::defaultJobs();
    if (jobs > count) jobs = static_cast<unsigned>(count);
    detail::ProgressMeter meter(opts.label, count, opts.progress);
    std::mutex hook_mx;
    // Each index is claimed exactly once; a worker touches only the
    // outcome slots it claimed, and joining the workers publishes them.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < count;) {
            meter.jobStarted();
            GridOutcome<Result>& o = out[i];
            for (std::uint32_t attempt = 1;
                 attempt <= opts.maxAttempts && !o.ok; attempt++) {
                o.attempts = attempt;
                if (attempt > 1 && opts.retryBackoffMs > 0) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(
                        opts.retryBackoffMs << (attempt - 2)));
                }
                try {
                    ScopedWatchdog wd(opts.jobTimeoutMs);
                    o.result = fn(i);
                    o.ok = true;
                } catch (const StatusError& e) {
                    detail::appendAttemptError(o.error, attempt, e.what());
                    if (e.code() == ErrorCode::Timeout) {
                        o.timedOut = true;
                        break;
                    }
                    if (detail::isPermanentError(e.code())) break;
                } catch (const std::exception& e) {
                    detail::appendAttemptError(o.error, attempt, e.what());
                } catch (...) {
                    detail::appendAttemptError(o.error, attempt,
                                               "non-standard exception");
                }
            }
            meter.jobFinished(o.ok);
            if (onOutcome) {
                std::lock_guard<std::mutex> g(hook_mx);
                onOutcome(o);
            }
        }
    };
    {
        std::vector<std::jthread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; w++) workers.emplace_back(worker);
    } // jthreads join here
    meter.finish();
    return out;
}

/** Failed-job count of any outcome vector. */
template <typename Result>
std::size_t
gridFailures(const std::vector<GridOutcome<Result>>& outcomes)
{
    std::size_t n = 0;
    for (const auto& o : outcomes) n += o.ok ? 0 : 1;
    return n;
}

/** One experiment in a sweep: full parameters plus identifying tags. */
struct SweepPoint
{
    RunParams params;
    JsonValue::Object tags; ///< report keys (workload, design, ...)
};

/** A declarative grid of runExperiment calls. */
struct SweepSpec
{
    std::string name; ///< report/progress label

    /**
     * When nonzero, every point's RunParams::seed is overridden with
     * pointSeed(baseSeed, index) before execution. Zero (the default)
     * keeps the seeds the points were declared with, so ported benches
     * reproduce their historical outputs exactly.
     */
    std::uint64_t baseSeed = 0;

    std::vector<SweepPoint> points;

    SweepPoint&
    add(RunParams params, JsonValue::Object tags = {})
    {
        points.push_back(SweepPoint{std::move(params), std::move(tags)});
        return points.back();
    }

    std::size_t size() const { return points.size(); }

    /**
     * The per-job seed derivation: splitmix64 over (base, index), a
     * pure function of the grid position. Stable across releases —
     * recorded results depend on it.
     */
    static std::uint64_t pointSeed(std::uint64_t base, std::size_t index);
};

using RunOutcome = GridOutcome<RunResult>;

/**
 * Executes a SweepSpec. Primes shared lazy singletons (the workload
 * registry) before spawning workers, so jobs are data-race-free by
 * construction, then fans runExperiment out through runGrid.
 *
 * With opts.journalPath or opts.resumePath set, every completed point
 * streams into a crash-resume journal (runner/journal.hpp) as it
 * finishes, and a resume run executes only the points the journal is
 * missing — producing byte-identical outcomes (and hence stdout /
 * --json reports) to an uninterrupted run, because journaled outcomes
 * round-trip exactly and outcomes are ordered by grid index either
 * way.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {}) : opts_(std::move(opts)) {}

    /**
     * Run every point; outcomes are returned in grid order. Throws
     * StatusError when journaling is requested but the journal cannot
     * be created, is corrupt beyond its header, or belongs to a
     * different grid (fingerprint mismatch) — a structured refusal
     * benches turn into a usage-error exit, never silent mixing.
     */
    std::vector<RunOutcome> run(const SweepSpec& spec) const;

    /**
     * Print one stderr line per failed outcome (index, tags, attempts,
     * error) and return the failure count — benches turn this into a
     * nonzero exit code without losing the completed points.
     */
    static std::size_t reportFailures(const SweepSpec& spec,
                                      const std::vector<RunOutcome>& outs);

  private:
    SweepOptions opts_;
};

} // namespace zc
