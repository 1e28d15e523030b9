/**
 * @file
 * Shared harness pieces: the run contract each workload fills in,
 * the measurement-window plan, the in-memory span log, and small timing
 * helpers. Everything here lives in the benchmark, outside src/.
 */

#pragma once

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "estimators.hpp"

namespace zc::bench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** What one workload run is asked to do. */
struct RunSpec
{
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured phase length
    bool traced = false;    ///< record spans and per-layer metrics
    unsigned setups = 5;    ///< identical set-ups timed; setup_s = fastest
    std::string tmpDir;     ///< scratch directory owned by this run
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** One timed interval at a layer boundary (choosing-metrics §4). */
struct Span
{
    const char* name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::int64_t parent = -1; ///< index into the same thread's log
    std::uint64_t op = 0;     ///< op id shared by one request's spans
};

/**
 * Per-thread span log. Kept in memory and written out when the run ends;
 * once @p cap spans are held, further spans are counted, not stored.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t cap = 1u << 14) : cap_(cap)
    {
        spans_.reserve(std::min<std::size_t>(cap, 1u << 14));
    }

    bool full() const { return spans_.size() >= cap_; }

    /** Record a finished span; returns its index (or -1 when full). */
    std::int64_t
    add(const char* name, std::uint64_t start, std::uint64_t end,
        std::uint64_t op, std::int64_t parent = -1)
    {
        if (full()) {
            dropped_++;
            return -1;
        }
        spans_.push_back(Span{name, start, end, parent, op});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    const std::vector<Span>& spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::size_t cap_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** Every thread's span log of one run, tagged with the thread name. */
using SpanSet = std::vector<std::pair<std::string, SpanLog>>;

/** Mean duration in ns of the spans called @p name, or NaN. */
inline double
spanMeanNs(const SpanSet& set, const std::string& name)
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto& [thread, log] : set) {
        for (const Span& s : log.spans()) {
            if (name == s.name) {
                sum += static_cast<double>(s.endNs - s.startNs);
                n++;
            }
        }
    }
    return n ? sum / static_cast<double>(n) : std::nan("");
}

/**
 * The measured phase: @p n equal windows after an untimed warm-up.
 * slot() maps a timestamp to its window, -1 during warm-up and n after
 * the last window.
 */
struct WindowPlan
{
    std::uint64_t t0Ns = 0;  ///< start of window 0
    std::uint64_t winNs = 1;
    std::int64_t n = 0;

    static WindowPlan
    start(double warmSeconds, double seconds, std::int64_t windows)
    {
        WindowPlan p;
        p.t0Ns = nowNs() + static_cast<std::uint64_t>(warmSeconds * 1e9);
        p.winNs = static_cast<std::uint64_t>(seconds * 1e9 /
                                             static_cast<double>(windows));
        p.n = windows;
        return p;
    }

    std::int64_t
    slot(std::uint64_t t) const
    {
        if (t < t0Ns) return -1;
        return std::min<std::int64_t>(
            static_cast<std::int64_t>((t - t0Ns) / winNs), n);
    }

    double winSeconds() const { return static_cast<double>(winNs) / 1e9; }
};

/** Latency samples kept per window and thread: the first ones taken. */
inline constexpr std::size_t kSamplesPerWindow = 8192;

/** Per-window op counts and latency samples of one thread (or merged). */
struct Windows
{
    std::vector<std::uint64_t> ops;
    std::vector<std::vector<double>> latNs;

    /** @p samples per window are allocated and touched here, so that
     *  recording them allocates nothing during the measured phase. */
    explicit Windows(std::int64_t n = 0, std::size_t samples = 0)
        : ops(static_cast<std::size_t>(n), 0),
          latNs(static_cast<std::size_t>(n))
    {
        for (auto& v : latNs) {
            v.resize(samples);
            v.clear();
        }
    }

    /** Keep a latency sample of window @p slot while there is room. */
    void
    addLatency(std::int64_t slot, double ns)
    {
        auto& v = latNs[static_cast<std::size_t>(slot)];
        if (v.size() < v.capacity()) v.push_back(ns);
    }

    void
    merge(const Windows& o)
    {
        for (std::size_t i = 0; i < ops.size(); i++) {
            ops[i] += o.ops[i];
            latNs[i].insert(latNs[i].end(), o.latNs[i].begin(),
                            o.latNs[i].end());
        }
    }

    std::uint64_t
    totalOps() const
    {
        std::uint64_t t = 0;
        for (auto c : ops) t += c;
        return t;
    }
};

/** Windows per measured phase (the noise rules ask for >= 40). */
inline constexpr std::int64_t kWindows = 50;

/**
 * Resident set of this process in MB, counted page by page
 * (/proc/self/smaps_rollup walks the page tables). The kernel's running
 * RSS counters behind statm and ru_maxrss are per-CPU approximations
 * that wander by tens of pages, a fifth of sim-walk's whole array.
 */
inline double
rssMb()
{
    std::ifstream f("/proc/self/smaps_rollup");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("Rss:", 0) == 0) {
            return std::stod(line.substr(4)) / 1024.0; // kB
        }
    }
    throw StatusError(Status::ioError("no Rss in /proc/self/smaps_rollup"));
}

/** Result of one workload run. */
struct RunResult
{
    MetricMap e2e;    ///< end-to-end metrics (meaningful untraced only)
    MetricMap layer;  ///< per-layer metrics (traced runs only)
    std::vector<Composite> composites;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;        ///< failed ops + verify mismatches
    std::vector<std::string> errors; ///< failed whole-run checks
    SpanSet spans;

    void
    set(const std::string& name, double v, const char* unit)
    {
        layer[name] = Metric{v, unit};
    }

    void
    check(bool ok, const std::string& what)
    {
        if (!ok) errors.push_back(what);
    }

    /** Fill the end-to-end metrics every workload reports. */
    void
    setEndToEnd(double setupS, const Windows& w, double winSeconds,
                double hitRate)
    {
        e2e["setup_s"] = {setupS, "s"};
        e2e["ops_per_s"] = {windowRate(w.ops, winSeconds), "1/s"};
        e2e["latency_p50_us"] = {windowLatency(w.latNs, 0.5) / 1e3, "us"};
        e2e["hit_rate"] = {hitRate, "fraction"};
    }

    /**
     * Call in each set-up once the inputs and the harness's buffers are
     * in memory, before the program's array, store or server is built.
     * The last set-up's RSS there is the base that peak_rss_mb is
     * measured from. Freed heap pages of earlier set-ups are returned
     * first, so the program cannot reuse them unseen.
     */
    void
    sampleRssBase()
    {
        malloc_trim(0);
        rssBaseMb_ = rssMb();
        rssPeakMb_ = rssBaseMb_;
    }

    /**
     * Call once set-up has filled the program's structures and again
     * when the measured phase ends: peak_rss_mb is the larger RSS of the
     * two over the base.
     */
    void
    sampleRss()
    {
        rssPeakMb_ = std::max(rssPeakMb_, rssMb());
        e2e["peak_rss_mb"] = {rssPeakMb_ - rssBaseMb_, "MB"};
    }

  private:
    double rssBaseMb_ = 0.0;
    double rssPeakMb_ = 0.0;
};

/**
 * A store counts as full at 99.9 % of its capacity: once a key stream's
 * footprint is resident no new key arrives, so no walk reaches the last
 * few empty slots of a zcache shard.
 */
inline bool
storeFull(std::uint64_t size, std::uint64_t capacity)
{
    return size >= capacity - capacity / 1000;
}

/**
 * Run @p make @p k times, timing each call, and keep the last result:
 * the k set-ups are identical, so the fastest is the set-up time and
 * the slower ones carry host noise only.
 */
template <typename Make>
auto
timedSetups(unsigned k, Make make, double* fastestSeconds)
{
    std::vector<double> secs;
    decltype(make()) kept{};
    for (unsigned i = 0; i < std::max(1u, k); i++) {
        kept = {};
        const std::uint64_t t0 = nowNs();
        kept = make();
        secs.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    *fastestSeconds = *std::min_element(secs.begin(), secs.end());
    return kept;
}

/**
 * Time @p k more identical set-ups once the measured phase is over and
 * the run's own state is freed; setup_s becomes the fastest of all. The
 * host's slow phases last seconds, so set-ups only at the start of a run
 * could all fall into one.
 */
template <typename Make>
void
moreSetups(RunResult& r, unsigned k, Make make)
{
    double s = 0.0;
    timedSetups(k, make, &s);
    Metric& m = r.e2e.at("setup_s");
    m.value = std::min(m.value, s);
}

/** Make @p v observable so replay loops are not optimized away. */
template <typename T>
inline void
keep(const T& v)
{
    asm volatile("" : : "g"(v) : "memory");
}

/** Mean ns per call of @p fn over @p n calls, timed as one block. */
template <typename Fn>
double
blockNs(std::size_t n, Fn fn)
{
    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < n; i++) fn(i);
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(std::max<std::size_t>(n, 1));
}

/** Mean cost of one nowNs() call: the bias one span measurement adds. */
inline double
timerNs()
{
    static const double ns = [] {
        constexpr int kN = 200000;
        std::uint64_t sink = 0;
        const std::uint64_t t0 = nowNs();
        for (int i = 0; i < kN; i++) sink += nowNs() & 1;
        const std::uint64_t t1 = nowNs();
        keep(sink);
        return static_cast<double>(t1 - t0) / kN;
    }();
    return ns;
}

/** Span mean with the timer's own cost taken out. */
inline double
spanCostNs(const SpanSet& set, const std::string& name)
{
    return std::max(0.0, spanMeanNs(set, name) - timerNs());
}

} // namespace zc::bench
