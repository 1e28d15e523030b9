#include "obs/metrics.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/log.hpp"
#include "common/stats_registry.hpp"
#include "obs/latency_scale.hpp"
#include "obs/trace_event.hpp"

namespace zc {

std::string
promName(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

MetricsSnapshotter::MetricsSnapshotter(MetricsSnapshotterConfig cfg,
                                       SampleFn sample)
    : cfg_(std::move(cfg)), sample_(std::move(sample))
{
}

MetricsSnapshotter::~MetricsSnapshotter()
{
    (void)stop();
}

void
MetricsSnapshotter::start()
{
    if (started_) return;
    started_ = true;
    // Truncate a stale NDJSON file so re-running into the same path
    // never interleaves two runs' windows; the stream stays open until
    // stop().
    if (!cfg_.ndjsonPath.empty()) {
        ndjson_.open(cfg_.ndjsonPath, std::ios::trunc);
        if (!ndjson_) ioFailed_ = true;
    }
    startNs_ = obsNowNs();
    prevNs_ = startNs_;
    prev_ = sample_();
    sampler_ = std::thread([this] { samplerMain(); });
}

Status
MetricsSnapshotter::stop()
{
    if (!started_ || stopped_) return Status::ok();
    stopped_ = true;
    stopReq_.store(true, std::memory_order_release);
    if (sampler_.joinable()) sampler_.join();
    // Final window: the system has quiesced, so this sample is the
    // end-of-run total and the emitted deltas partition the whole run.
    emitWindow(sample_(), obsNowNs());
    ndjson_.close();
    if (ioFailed_) {
        return Status::ioError("metrics snapshotter: write failed ('" +
                               cfg_.ndjsonPath + "' / '" + cfg_.promPath +
                               "')");
    }
    return Status::ok();
}

void
MetricsSnapshotter::samplerMain()
{
    while (!stopReq_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.intervalMs));
        if (stopReq_.load(std::memory_order_acquire)) break;
        emitWindow(sample_(), obsNowNs());
    }
}

void
MetricsSnapshotter::emitWindow(const MetricsSample& cur,
                               std::uint64_t now_ns)
{
    const double window_s =
        static_cast<double>(now_ns - prevNs_) / 1e9;

    // Column names are unique across the sample (tests/window_check.hpp
    // checks it), so every column is appended, never looked up.
    JsonValue rec = JsonValue::object();
    JsonValue::Object& cols = rec.obj();
    cols.reserve(6 + 3 * cur.counters.size() + cur.gauges.size());
    cols.emplace_back("seq",
                      JsonValue(windows_.load(std::memory_order_relaxed)));
    cols.emplace_back(
        "t_ms", JsonValue(static_cast<double>(now_ns - startNs_) / 1e6));
    cols.emplace_back("window_ms", JsonValue(window_s * 1e3));

    // Cumulative counters, window deltas, and rates. Every sample has
    // the same counters in the same order (SampleFn), so a counter's
    // previous value is at its own position.
    zc_assert(prev_.counters.size() == cur.counters.size());
    std::uint64_t dGets = 0, dGetHits = 0;
    bool haveGets = false, haveGetHits = false;
    for (std::size_t k = 0; k < cur.counters.size(); k++) {
        const auto& [name, val] = cur.counters[k];
        zc_assert(prev_.counters[k].first == name);
        const std::uint64_t before = prev_.counters[k].second;
        const std::uint64_t d = val >= before ? val - before : 0;
        cols.emplace_back(name, JsonValue(val));
        cols.emplace_back("d_" + name, JsonValue(d));
        if (window_s > 0.0) {
            cols.emplace_back(name + "_per_sec",
                              JsonValue(static_cast<double>(d) / window_s));
        }
        if (name == "gets") {
            dGets = d;
            haveGets = true;
        } else if (name == "get_hits") {
            dGetHits = d;
            haveGetHits = true;
        }
    }
    if (haveGets && haveGetHits && dGets > 0) {
        cols.emplace_back("hit_rate",
                          JsonValue(static_cast<double>(dGetHits) /
                                    static_cast<double>(dGets)));
    }
    for (const auto& [name, val] : cur.gauges) {
        cols.emplace_back(name, JsonValue(val));
    }

    // Windowed latency percentiles from the cumulative bin deltas.
    if (!cur.latencyBins.empty() &&
        cur.latencyBins.size() == prev_.latencyBins.size()) {
        std::vector<std::uint64_t> delta(cur.latencyBins.size(), 0);
        for (std::size_t i = 0; i < delta.size(); i++) {
            delta[i] = cur.latencyBins[i] >= prev_.latencyBins[i]
                           ? cur.latencyBins[i] - prev_.latencyBins[i]
                           : 0;
        }
        cols.emplace_back("p50_ns", JsonValue(binsQuantileNs(delta, 0.50)));
        cols.emplace_back("p99_ns", JsonValue(binsQuantileNs(delta, 0.99)));
    } else if (!cur.latencyBins.empty()) {
        cols.emplace_back("p50_ns",
                          JsonValue(binsQuantileNs(cur.latencyBins, 0.50)));
        cols.emplace_back("p99_ns",
                          JsonValue(binsQuantileNs(cur.latencyBins, 0.99)));
    }

    if (ndjson_.is_open()) {
        ndjson_ << rec.str() << '\n';
        ndjson_.flush();
        if (!ndjson_) ioFailed_ = true;
    }
    writeProm(cur, rec);

    prev_ = cur;
    prevNs_ = now_ns;
    windows_.fetch_add(1, std::memory_order_relaxed);
}

void
MetricsSnapshotter::writeProm(const MetricsSample& cur,
                              const JsonValue& window)
{
    if (cfg_.promPath.empty()) return;

    std::string body;
    body.reserve(1024);
    auto emit = [&](const std::string& name, const char* type,
                    double value) {
        std::string m = cfg_.promPrefix + promName(name);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        body += "# TYPE " + m + " " + type + "\n";
        body += m + " " + buf + "\n";
    };
    for (const auto& [name, val] : cur.counters) {
        emit(name + "_total", "counter", static_cast<double>(val));
    }
    for (const auto& [name, val] : cur.gauges) {
        emit(name, "gauge", val);
    }
    for (const char* g : {"hit_rate", "p50_ns", "p99_ns"}) {
        if (const JsonValue* v = window.find(g)) {
            emit(g, "gauge", v->asDouble());
        }
    }

    // Atomic rewrite (tmp + rename) so a concurrent scraper never
    // reads a half-written exposition.
    std::string tmp = cfg_.promPath + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            ioFailed_ = true;
            return;
        }
        out << body;
        if (!out.good()) {
            ioFailed_ = true;
            return;
        }
    }
    if (std::rename(tmp.c_str(), cfg_.promPath.c_str()) != 0) {
        ioFailed_ = true;
    }
}

Status
writeEpochSeries(const std::string& path, const JsonValue& samples,
                 const JsonValue& tags, bool append)
{
    if (!samples.isArray()) {
        return Status::invalidArgument(
            "writeEpochSeries: samples is not an array");
    }
    if (!append) {
        std::ofstream trunc(path, std::ios::trunc);
        if (!trunc) {
            return Status::ioError("writeEpochSeries: cannot open '" +
                                   path + "'");
        }
    }
    for (std::size_t i = 0; i < samples.arr().size(); i++) {
        const JsonValue& s = samples.arr()[i];
        JsonValue rec = JsonValue::object();
        rec.set("epoch", JsonValue(std::uint64_t{i}));
        if (tags.isObject()) {
            for (const auto& [k, v] : tags.obj()) rec.set(k, v);
        }
        if (s.isObject()) {
            for (const auto& [k, v] : s.obj()) rec.set(k, v);
        }
        if (!appendJsonl(path, rec)) {
            return Status::ioError("writeEpochSeries: write failed ('" +
                                   path + "')");
        }
    }
    return Status::ok();
}

} // namespace zc
