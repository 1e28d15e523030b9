#include "runner/sweep.hpp"

#include <cinttypes>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "runner/journal.hpp"
#include "trace/workloads.hpp"

namespace zc {

namespace detail {

unsigned
defaultJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

void
appendAttemptError(std::string& log, std::uint32_t attempt,
                   const char* what)
{
    if (!log.empty()) log += "; ";
    log += "attempt " + std::to_string(attempt) + ": " + what;
}

ProgressMeter::ProgressMeter(std::string label, std::size_t total,
                             bool enabled)
    : label_(std::move(label)), total_(total), enabled_(enabled),
      tty_(isatty(fileno(stderr)) != 0),
      start_(std::chrono::steady_clock::now())
{
    // Non-TTY logs get ~10 lines per sweep instead of a rewritten one.
    nextMark_ = total_ >= 10 ? total_ / 10 : 1;
}

std::string
ProgressMeter::eta() const
{
    if (done_ == 0) return "--";
    using namespace std::chrono;
    double elapsed =
        duration_cast<duration<double>>(steady_clock::now() - start_)
            .count();
    double left = elapsed / static_cast<double>(done_) *
                  static_cast<double>(total_ - done_);
    char buf[32];
    if (left >= 60.0) {
        std::snprintf(buf, sizeof buf, "%dm%02ds",
                      static_cast<int>(left) / 60,
                      static_cast<int>(left) % 60);
    } else {
        std::snprintf(buf, sizeof buf, "%ds", static_cast<int>(left));
    }
    return buf;
}

void
ProgressMeter::emit(bool final_line)
{
    // Caller holds mx_. One formatted buffer, one write: concurrent
    // meters (nested grids) cannot shear each other's lines.
    char buf[256];
    std::size_t in_flight = started_ - done_;
    if (final_line) {
        using namespace std::chrono;
        double elapsed =
            duration_cast<duration<double>>(steady_clock::now() - start_)
                .count();
        std::snprintf(buf, sizeof buf,
                      "%s%s: %zu/%zu done (%zu failed) in %.1fs\n",
                      tty_ ? "\r" : "", label_.c_str(), done_, total_,
                      failed_, elapsed);
    } else if (tty_) {
        std::snprintf(buf, sizeof buf,
                      "\r%s: %zu/%zu done (%zu failed), %zu in flight, "
                      "ETA %s   ",
                      label_.c_str(), done_, total_, failed_, in_flight,
                      eta().c_str());
    } else {
        std::snprintf(buf, sizeof buf,
                      "%s: %zu/%zu done (%zu failed), %zu in flight, "
                      "ETA %s\n",
                      label_.c_str(), done_, total_, failed_, in_flight,
                      eta().c_str());
    }
    std::fputs(buf, stderr);
    std::fflush(stderr);
}

void
ProgressMeter::jobStarted()
{
    if (!enabled_) return;
    std::lock_guard<std::mutex> g(mx_);
    started_++;
    if (tty_) emit(false);
}

void
ProgressMeter::jobFinished(bool ok)
{
    if (!enabled_) return;
    std::lock_guard<std::mutex> g(mx_);
    done_++;
    if (!ok) failed_++;
    if (tty_) {
        emit(false);
    } else if (done_ >= nextMark_ && done_ < total_) {
        emit(false);
        nextMark_ = done_ + (total_ >= 10 ? total_ / 10 : 1);
    }
}

void
ProgressMeter::finish()
{
    if (!enabled_) return;
    std::lock_guard<std::mutex> g(mx_);
    emit(true);
}

} // namespace detail

std::uint64_t
SweepSpec::pointSeed(std::uint64_t base, std::size_t index)
{
    // splitmix64 (Steele et al.); the golden-ratio stride separates
    // consecutive indices before mixing.
    std::uint64_t x =
        base + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::vector<RunOutcome>
SweepRunner::run(const SweepSpec& spec) const
{
    // Touch lazily-initialized shared singletons once, on this thread,
    // before any worker exists (see docs/runner.md, shared-state audit).
    WorkloadRegistry::prime();

    SweepOptions opts = opts_;
    if (!spec.name.empty()) opts.label = spec.name;

    auto point = [&spec](std::size_t i) {
        RunParams p = spec.points[i].params;
        if (spec.baseSeed != 0) {
            p.seed = SweepSpec::pointSeed(spec.baseSeed, i);
        }
        return runExperiment(p);
    };

    if (opts.journalPath.empty() && opts.resumePath.empty()) {
        return runGrid<RunResult>(spec.points.size(), point, opts);
    }

    // Journaled path. Resume loads the completed points first; both
    // paths then stream every newly finished point to disk.
    const std::string path =
        !opts.resumePath.empty() ? opts.resumePath : opts.journalPath;
    bool resuming =
        !opts.resumePath.empty() && ::access(path.c_str(), F_OK) == 0;
    // The journaling happens here, through runGrid's outcome hook —
    // strip the paths so the generic engine does not warn about them.
    opts.journalPath.clear();
    opts.resumePath.clear();

    std::vector<RunOutcome> out(spec.size());
    for (std::size_t i = 0; i < spec.size(); i++) out[i].index = i;
    std::vector<char> done(spec.size(), 0);

    SweepJournal journal;
    if (resuming) {
        auto resumed = SweepJournal::resume(path, spec);
        if (!resumed.hasValue()) throw StatusError(resumed.status());
        journal = std::move(resumed->journal);
        for (RunOutcome& o : resumed->entries) {
            done[o.index] = 1;
            out[o.index] = std::move(o);
        }
    } else {
        auto fresh = SweepJournal::create(path, spec);
        if (!fresh.hasValue()) throw StatusError(fresh.status());
        journal = std::move(*fresh);
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < spec.size(); i++) {
        if (!done[i]) pending.push_back(i);
    }

    // The sub-grid counts the pending points from 0; the journal and
    // `out` take each one's grid index. A journal append failure (disk
    // full, injected fault) must not kill the sweep — the run's results
    // are still good, only the ability to resume is lost. Warn once and
    // keep going.
    bool append_failed = false;
    auto sub = runGrid<RunResult>(
        pending.size(), [&](std::size_t j) { return point(pending[j]); },
        opts, [&](const RunOutcome& o) {
            if (Status s = journal.append(pending[o.index], o);
                !s.isOk() && !append_failed) {
                append_failed = true;
                std::fprintf(stderr,
                             "warning: sweep journaling lost (resume "
                             "will re-run later points): %s\n",
                             s.str().c_str());
            }
        });

    for (RunOutcome& o : sub) {
        o.index = pending[o.index];
        out[o.index] = std::move(o);
    }
    return out;
}

std::size_t
SweepRunner::reportFailures(const SweepSpec& spec,
                            const std::vector<RunOutcome>& outs)
{
    std::size_t failures = 0;
    for (const auto& o : outs) {
        if (o.ok) continue;
        failures++;
        std::string tags;
        if (o.index < spec.points.size()) {
            for (const auto& [k, v] : spec.points[o.index].tags) {
                if (!tags.empty()) tags += " ";
                tags += k + "=" + v.str();
            }
        }
        std::fprintf(stderr,
                     "sweep '%s': point %zu {%s} %s after %" PRIu32
                     " attempt(s): %s\n",
                     spec.name.c_str(), o.index, tags.c_str(),
                     o.timedOut ? "timed out" : "failed", o.attempts,
                     o.error.c_str());
    }
    return failures;
}

} // namespace zc
