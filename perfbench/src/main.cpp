/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--tmp-dir <dir>]
 *
 * Untraced (--trace 0): five timed set-ups, one measured phase, output
 * checks, then every end-to-end metric. Traced (--trace 1): the
 * workload runs once untraced and once traced (the ratio of their p90
 * window rates is the tracing overhead), then every other workload runs
 * briefly as a
 * donor for the rungs of layers this one bypasses; the full per-layer
 * ladder is printed as a table, written as JSON with the spans, and
 * reported. The last stdout line is always the one-line JSON result.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/status.hpp"
#include "workloads.hpp"

namespace zc::bench {
namespace {

struct Workload
{
    const char* name;
    RunResult (*run)(const RunSpec&);
};

constexpr Workload kWorkloads[] = {
    {"sim-walk", runSimWalk},
    {"kv-mixed", runKvMixed},
    {"kv-durable", runKvDurable},
    {"net-bytes", runNetBytes},
};

struct MetricDef
{
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},   {"latency_p50_us", "us"},
    {"hit_rate", "fraction"},
};

/** The per-layer ladder, in print order. BENCHMARK.json lists the same
 *  names; every traced run reports every one of them. */
constexpr MetricDef kLayer[] = {
    {"trace.next_ns", "ns"},
    {"hash.positions_ns", "ns"},
    {"cache.probe_ns", "ns"},
    {"cache.probe_miss_ns", "ns"},
    {"cache.access_ns", "ns"},
    {"replacement.touch_ns", "ns"},
    {"cache.insert_ns", "ns"},
    {"cache.insert_ns_per_candidate", "ns"},
    {"cache.candidates_per_insert", "count"},
    {"cache.relocations_per_insert", "count"},
    {"sim.access_ns_total", "ns"},
    {"sim.residual_ns", "ns"},
    {"store.get_ns", "ns"},
    {"store.put_ns", "ns"},
    {"store.erase_ns", "ns"},
    {"store.lock_ns", "ns"},
    {"store.array_get_ns", "ns"},
    {"store.get_residual_ns", "ns"},
    {"store.latency_p99_us", "us"},
    {"store.put_evict_frac", "fraction"},
    {"store.put_candidates", "count"},
    {"store.shard_imbalance", "ratio"},
    {"store.batch_ns_per_op", "ns"},
    {"store.get_optimistic_frac", "fraction"},
    {"store.get_retries_per_get", "count"},
    {"store.get_fallback_frac", "fraction"},
    {"persist.put_ns", "ns"},
    {"persist.put_base_ns", "ns"},
    {"persist.put_residual_ns", "ns"},
    {"persist.blocked_per_put", "count"},
    {"persist.records_per_fsync", "count"},
    {"persist.append_ns_per_record", "ns"},
    {"persist.fsync_ms", "ms"},
    {"persist.snapshot_ms", "ms"},
    {"persist.snapshots", "count"},
    {"persist.log_bytes_per_record", "B"},
    {"persist.recover_records_per_s", "1/s"},
    {"persist.write_amp", "ratio"},
    {"compress.compress_ns", "ns"},
    {"compress.decompress_ns", "ns"},
    {"compress.ratio", "ratio"},
    {"compress.bytes_per_key", "B"},
    {"net.encode_req_ns", "ns"},
    {"net.decode_req_ns", "ns"},
    {"net.encode_resp_ns", "ns"},
    {"net.decode_resp_ns", "ns"},
    {"net.round_trip_us", "us"},
    {"net.ops_per_batch", "count"},
    {"net.bytes_per_op", "B"},
    {"net.server_op_us", "us"},
    {"net.server_residual_us", "us"},
    {"bench.trace_overhead_frac", "fraction"},
    {"bench.timer_ns", "ns"},
};

/** Seconds each donor workload runs inside a traced run. */
constexpr double kDonorSeconds = 1.5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string tmpDir = ".";
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--out-dir") a.outDir = v;
        else if (k == "--tmp-dir") a.tmpDir = v;
        else throw StatusError(Status::invalidArgument("unknown flag " + k));
    }
    if (a.seconds <= 0.0) {
        throw StatusError(Status::invalidArgument("--seconds must be > 0"));
    }
    return a;
}

const Workload*
findWorkload(const std::string& name)
{
    for (const Workload& w : kWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string& s)
{
    return "\"" + s + "\"";
}

/** The one-line result the benchmark contract asks for. */
std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricMap& m, const MetricDef* defs, std::size_t n)
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < n; i++) {
        const Metric& x = m.at(defs[i].name);
        out += (i ? ", " : "") + quote(defs[i].name) + ": {\"value\": " +
               num(x.value) + ", \"unit\": " + quote(x.unit) + "}";
    }
    return out + "}}";
}

/** Every defined metric present, with its declared unit and a finite
 *  value; returns the problems found. */
std::vector<std::string>
validate(const MetricMap& m, const MetricDef* defs, std::size_t n)
{
    std::vector<std::string> bad;
    for (std::size_t i = 0; i < n; i++) {
        auto it = m.find(defs[i].name);
        if (it == m.end()) {
            bad.push_back(std::string("missing metric ") + defs[i].name);
        } else if (!std::isfinite(it->second.value)) {
            bad.push_back(std::string("non-finite metric ") + defs[i].name);
        } else if (it->second.unit != defs[i].unit) {
            bad.push_back(std::string("unit mismatch for ") + defs[i].name);
        }
    }
    return bad;
}

/** Print the result line: correct unless a whole-run check failed. */
int
report(const RunResult& r, const MetricMap& m, const MetricDef* defs,
       std::size_t n)
{
    for (const auto& e : r.errors) {
        std::cerr << "perfbench: check failed: " << e << "\n";
    }
    std::cout << resultLine(r.errors.empty(), r.attempted, r.failed, m,
                            defs, n)
              << std::endl;
    return r.errors.empty() ? 0 : 1;
}

/** A metric set the harness failed to fill is a harness bug: exit 2
 *  without a result. */
bool
complete(const MetricMap& m, const MetricDef* defs, std::size_t n)
{
    const std::vector<std::string> bad = validate(m, defs, n);
    for (const auto& e : bad) std::cerr << "perfbench: " << e << "\n";
    return bad.empty();
}

int
untraced(const Args& a, const Workload& w)
{
    RunSpec spec{a.seed, a.seconds, false, 5, a.tmpDir};
    RunResult r = w.run(spec);
    constexpr std::size_t n = std::size(kEndToEnd);
    if (!complete(r.e2e, kEndToEnd, n)) return 2;
    for (const MetricDef& d : kEndToEnd) {
        std::printf("%-16s %14s %s\n", d.name,
                    num(r.e2e.at(d.name).value).c_str(), d.unit);
    }
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    return report(r, r.e2e, kEndToEnd, n);
}

void
writeSpans(const std::string& path,
           const std::vector<std::pair<std::string, RunResult>>& runs)
{
    std::ofstream f(path);
    for (const auto& [run, r] : runs) {
        for (const auto& [thread, log] : r.spans) {
            const auto& sp = log.spans();
            for (std::size_t i = 0; i < sp.size(); i++) {
                f << "{\"run\": " << quote(run) << ", \"thread\": "
                  << quote(thread) << ", \"id\": " << i
                  << ", \"name\": " << quote(sp[i].name)
                  << ", \"start_ns\": " << sp[i].startNs
                  << ", \"end_ns\": " << sp[i].endNs
                  << ", \"parent\": " << sp[i].parent
                  << ", \"op\": " << sp[i].op << "}\n";
            }
        }
    }
    if (!f) {
        throw StatusError(Status::ioError("cannot write " + path));
    }
}

int
traced(const Args& a, const Workload& w)
{
    // Untraced and traced halves of the same workload: their throughput
    // ratio is the tracing overhead.
    RunResult base = w.run(RunSpec{a.seed, a.seconds * 0.4, false, 1,
                                   a.tmpDir});
    std::vector<std::pair<std::string, RunResult>> runs;
    runs.emplace_back(w.name, w.run(RunSpec{a.seed, a.seconds * 0.6, true,
                                            1, a.tmpDir}));
    for (const Workload& d : kWorkloads) {
        if (&d == &w) continue;
        runs.emplace_back(d.name,
                          d.run(RunSpec{a.seed, std::min(kDonorSeconds,
                                                         a.seconds),
                                        true, 1, a.tmpDir}));
    }

    // Merge: the traced workload's own rungs first, donors fill the rest.
    MetricMap merged;
    std::map<std::string, std::string> source;
    std::vector<std::pair<std::string, Composite>> composites;
    RunResult total;
    total.errors = base.errors;
    for (const auto& [run, r] : runs) {
        for (const auto& [name, m] : r.layer) {
            if (merged.emplace(name, m).second) source[name] = run;
        }
        for (const Composite& c : r.composites) {
            if (!merged.count(c.residual)) {
                merged[c.residual] = {c.residualValue(),
                                      merged.at(c.name).unit};
                source[c.residual] = run;
                composites.emplace_back(run, c);
            }
        }
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.errors.insert(total.errors.end(), r.errors.begin(),
                            r.errors.end());
    }
    total.attempted += base.attempted;
    total.failed += base.failed;
    // The same estimator as the end-to-end ops_per_s: the p90 window rate
    // steps over the host's slow phases, which a whole-run mean does not.
    const RunResult& own = runs.front().second;
    merged["bench.trace_overhead_frac"] = {
        1.0 - own.e2e.at("ops_per_s").value / base.e2e.at("ops_per_s").value,
        "fraction"};
    source["bench.trace_overhead_frac"] = w.name;
    merged["bench.timer_ns"] = {timerNs(), "ns"};
    source["bench.timer_ns"] = w.name;

    constexpr std::size_t n = std::size(kLayer);
    if (!complete(merged, kLayer, n)) return 2;

    // Outputs: spans (JSON lines) and the per-layer JSON.
    namespace fs = std::filesystem;
    fs::create_directories(a.outDir);
    const std::string stem =
        a.outDir + "/" + w.name + "-seed" + std::to_string(a.seed);
    writeSpans(stem + ".spans.jsonl", runs);
    {
        std::ofstream f(stem + ".layers.json");
        f << "{\"workload\": " << quote(w.name) << ", \"seed\": " << a.seed
          << ",\n \"metrics\": {";
        for (std::size_t i = 0; i < n; i++) {
            const Metric& m = merged.at(kLayer[i].name);
            f << (i ? ",\n  " : "\n  ") << quote(kLayer[i].name)
              << ": {\"value\": " << num(m.value) << ", \"unit\": "
              << quote(m.unit) << ", \"source\": "
              << quote(source[kLayer[i].name]) << "}";
        }
        f << "},\n \"composites\": [";
        for (std::size_t i = 0; i < composites.size(); i++) {
            const auto& [run, c] = composites[i];
            f << (i ? ",\n  " : "\n  ") << "{\"name\": " << quote(c.name)
              << ", \"source\": " << quote(run)
              << ", \"total\": " << num(c.total) << ", \"parts\": {";
            for (std::size_t j = 0; j < c.parts.size(); j++) {
                f << (j ? ", " : "") << quote(c.parts[j].first) << ": "
                  << num(c.parts[j].second);
            }
            f << "}, \"residual_name\": " << quote(c.residual)
              << ", \"residual\": " << num(c.residualValue()) << "}";
        }
        f << "],\n \"trace_overhead_frac\": "
          << num(merged.at("bench.trace_overhead_frac").value) << "}\n";
        if (!f) {
            throw StatusError(Status::ioError("cannot write layers json"));
        }
    }

    // The ladder as a table: own rungs first-class, donor rungs marked.
    std::printf("%-32s %14s %-9s %s\n", "layer metric", "value", "unit",
                "source");
    const auto toNs = [](const Metric& m) {
        if (m.unit == "ns") return m.value;
        if (m.unit == "us") return m.value * 1e3;
        if (m.unit == "ms") return m.value * 1e6;
        return -1.0;
    };
    std::string costName;
    double costNs = -1.0;
    for (const MetricDef& d : kLayer) {
        const Metric& m = merged.at(d.name);
        const std::string& src = source[d.name];
        std::printf("%-32s %14s %-9s %s\n", d.name, num(m.value).c_str(),
                    d.unit, src == w.name ? "own" : src.c_str());
        bool composite = false;
        for (const auto& [run, c] : composites) {
            composite |= c.name == d.name || c.residual == d.name;
        }
        const std::string nm = d.name;
        const bool cost = nm.rfind("bench.", 0) != 0 &&
                          nm.find("latency_") == std::string::npos;
        if (src == w.name && !composite && cost && toNs(m) > costNs) {
            costNs = toNs(m);
            costName = d.name;
        }
    }
    std::string residName;
    double resid = 0.0;
    for (const auto& [run, c] : composites) {
        std::printf("composite %-22s total %s = ", c.name.c_str(),
                    num(c.total).c_str());
        for (const auto& p : c.parts) {
            std::printf("%s (%s) + ", num(p.second).c_str(),
                        p.first.c_str());
        }
        std::printf("residual %s\n", num(c.residualValue()).c_str());
        if (run == w.name &&
            std::fabs(c.residualValue()) >= std::fabs(resid)) {
            resid = c.residualValue();
            residName = c.residual;
        }
    }
    std::printf("largest measured cost (%s): %s = %s ns\n", w.name,
                costName.c_str(), num(costNs).c_str());
    std::printf("largest residual (%s): %s\n", w.name,
                residName.empty()
                    ? "none (no composite of its own)"
                    : (residName + " = " + num(resid)).c_str());
    std::printf("spans: %s.spans.jsonl, ladder: %s.layers.json\n",
                stem.c_str(), stem.c_str());
    return report(total, merged, kLayer, n);
}

} // namespace
} // namespace zc::bench

int
main(int argc, char** argv)
{
    using namespace zc::bench;
    try {
        const Args a = parseArgs(argc, argv);
        const Workload* w = findWorkload(a.workload);
        if (w == nullptr) {
            std::cerr << "perfbench: unknown workload '" << a.workload
                      << "'\n";
            return 2;
        }
        return a.trace ? traced(a, *w) : untraced(a, *w);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
