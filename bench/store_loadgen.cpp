/**
 * @file
 * Multithreaded closed-loop load generator for the zkv store
 * (src/store, docs/store.md): the concurrent-throughput companion to
 * the trace-driven simulator benches. Sweeps shard count, worker
 * count, and array design (zcache vs set-associative vs
 * skew-associative shards) over a synthetic workload key stream and
 * reports aggregate + per-thread throughput and latency percentiles.
 *
 * Flags (all grid axes take comma-separated lists):
 *   --threads=1,8        worker threads per point
 *   --shards=4           store shards (banks)
 *   --array=z            shard design: z | sa | skew
 *   --ways=4             ways per shard array
 *   --cands=0            zcache early-stop cap (0 = full walk)
 *   --blocks=4096        blocks (keys) per shard
 *   --levels=2           zcache walk levels
 *   --policy=lru         replacement policy
 *   --lock=mutex         shard lock: mutex | spin
 *   --workload=canneal   WorkloadRegistry profile for key streams
 *   --ops=200000         operations per thread
 *   --get=0.7            get fraction   (rest after erase = puts)
 *   --erase=0.05         erase fraction
 *   --read-pct=95        shorthand: gets = N%, erases = 0, puts = rest
 *                        (overrides --get/--erase)
 *   --read-path=locked   get-path mode: locked | optimistic
 *                        (docs/store.md "Read path"; optimistic = the
 *                        lock-free seqlock fast path, no LRU promotion)
 *   --seed=1             base seed (per-point seeds derived)
 *   --json=<path>        standard JSON report (docs/store.md schema)
 *
 * Compressed-value mode (docs/compression.md; default off):
 *   --value-bytes=<dist> switch the store to variable-length byte
 *                        payloads with deterministic per-key lengths:
 *                        fixed:N | uniform:LO:HI | N (= fixed:N).
 *                        Lengths must be >= 4 (the writer-tid prefix)
 *                        and <= the 224-byte value cap. Every get hit
 *                        is verified byte-exactly against the
 *                        regenerated payload.
 *   --codec=bdi          value codec: bdi | none (passthrough). The
 *                        run report gains a "compression" block:
 *                        ratio, resident_bytes_per_key, codec totals.
 *                        Incompatible with --read-path=optimistic and
 *                        --data-dir (the store rejects both).
 *
 * Scaling mode (docs/performance.md):
 *   --scaling            replace --threads with 1,2,4,...,nproc and
 *                        emit a per-thread-count throughput + p99
 *                        table (stdout) and a top-level "scaling"
 *                        block in the JSON report, with get-throughput
 *                        speedups relative to the 1-thread point.
 *                        Defaults --read-path to optimistic (the mode
 *                        whose scaling the CI gate asserts); other
 *                        grid axes are clamped to their first value.
 *
 * There is no open-loop mode: --open-loop, --rate and --arrivals exit
 * 2. A worker that waits for each scheduled arrival wakes tens of µs
 * late, far longer than a store op, so its latencies would time the
 * wait. bench/net_loadgen.cpp is the open-loop tool (docs/server.md).
 *
 * Durability (docs/durability.md; default off, zero overhead):
 *   --data-dir=<path>        enable the persist tier rooted here; the
 *                            store recovers from any prior state before
 *                            load and drains the op log before the
 *                            deterministic stats dump
 *   --fsync=always           always | interval | never (default always)
 *   --fsync-interval-ms=50   group-commit window for --fsync=interval
 *   --snapshot-every-ops=N   compaction snapshot cadence (0 = never)
 *   --persist-queue-cap=N    per-shard writer queue depth (default 4096)
 *   --persist-backpressure=block  block | drop (drop counts, never
 *                            silent; rejected with --fsync=always)
 * With more than one grid point, each point persists under
 * <data-dir>/pointN so points never share a log.
 *
 * Live telemetry (docs/telemetry.md; default off, zero overhead):
 *   --trace-out=<path>       Chrome trace-event JSON (Perfetto-loadable)
 *   --metrics-out=<path>     windowed metrics NDJSON
 *   --prom-out=<path>        Prometheus text exposition (rewritten live)
 *   --metrics-interval-ms=N  sampling window (default 100)
 *   --ring-cap=N             per-thread trace ring capacity (default 64Ki)
 * With more than one grid point, each point writes to
 * <path>.pointN<ext> so traces are never interleaved.
 *
 *   --jobs=1             grid points in flight; points are themselves
 *                        multithreaded, so the default measures one
 *                        point at a time (unlike simulator sweeps,
 *                        where --jobs defaults to all cores)
 *   --no-progress        suppress the stderr progress meter
 *
 * Exit codes follow the bench protocol (docs/robustness.md): 0 clean,
 * 1 failed grid points or unwritable output, 2 usage error.
 *
 * stdout is NOT deterministic — every row carries wall-clock-derived
 * throughput. In the JSON report, run "stats" blocks are deterministic
 * for threads=1 points; "timing" tags and the top-level "perf" block
 * are wall-clock (docs/observability.md). The top-level "host" block
 * records the CPUs the process may run on (sched_getaffinity).
 */

#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "store/loadgen.hpp"
#include "store/zkv.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace zc;
using namespace zc::benchutil;

std::vector<std::uint64_t>
parseU64List(const std::string& csv, const std::string& what)
{
    std::vector<std::uint64_t> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) comma = csv.size();
        std::string item = csv.substr(pos, comma - pos);
        if (!item.empty()) {
            out.push_back(parseU64(item, what));
        }
        pos = comma + 1;
    }
    return out;
}

Expected<ArrayKind>
parseStoreArray(const std::string& name)
{
    if (name == "z") return ArrayKind::ZCache;
    if (name == "sa") return ArrayKind::SetAssoc;
    if (name == "skew") return ArrayKind::SkewAssoc;
    return Status::invalidArgument("store_loadgen: unknown --array '" +
                                   name + "' (valid: z, sa, skew)");
}

std::vector<std::string>
parseStrList(const std::string& csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) comma = csv.size();
        std::string item = csv.substr(pos, comma - pos);
        if (!item.empty()) out.push_back(item);
        pos = comma + 1;
    }
    return out;
}

struct Point
{
    LoadGenConfig cfg;
    std::string design; ///< shard array label
};

/**
 * Per-point output path: the base path for a single-point grid,
 * "<stem>.pointN<ext>" otherwise, so concurrent or sequential points
 * never clobber one another's telemetry files.
 */
std::string
pointPath(const std::string& base, std::size_t index,
          std::size_t grid_size)
{
    if (base.empty() || grid_size <= 1) return base;
    std::size_t slash = base.find_last_of('/');
    std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return base + ".point" + std::to_string(index);
    }
    return base.substr(0, dot) + ".point" + std::to_string(index) +
           base.substr(dot);
}

} // namespace

int
main(int argc, char** argv)
{
    // The flag parser ignores unknown flags, so the removed open-loop
    // flags would silently run closed-loop: refuse them instead.
    for (const char* gone : {"open-loop", "rate", "arrivals"}) {
        if (flagBool(argc, argv, gone) || !flag(argc, argv, gone, "").empty()) {
            std::fprintf(stderr,
                         "error: --%s: store_loadgen has no open-loop mode "
                         "(a sleeping wait for each arrival times its own "
                         "wake-up, not the store); use net_loadgen\n",
                         gone);
            return 2;
        }
    }
    auto threads_list =
        parseU64List(flag(argc, argv, "threads", "1"), "--threads");
    auto shards_list =
        parseU64List(flag(argc, argv, "shards", "4"), "--shards");
    auto ways_list = parseU64List(flag(argc, argv, "ways", "4"), "--ways");
    auto cands_list = parseU64List(flag(argc, argv, "cands", "0"), "--cands");
    auto array_list = parseStrList(flag(argc, argv, "array", "z"));
    std::uint64_t blocks = flagU64(argc, argv, "blocks", 4096);
    std::uint64_t levels = flagU64(argc, argv, "levels", 2);
    std::uint64_t ops = flagU64(argc, argv, "ops", 200000);
    double get_frac = flagF64(argc, argv, "get", 0.7);
    double erase_frac = flagF64(argc, argv, "erase", 0.05);
    bool scaling = flagBool(argc, argv, "scaling");
    std::string read_pct_str = flag(argc, argv, "read-pct", "");
    if (!read_pct_str.empty()) {
        double read_pct = parseF64(read_pct_str, "--read-pct");
        if (read_pct < 0.0 || read_pct > 100.0) {
            std::fprintf(stderr,
                         "error: --read-pct must be in [0, 100]\n");
            return 2;
        }
        get_frac = read_pct / 100.0;
        erase_frac = 0.0;
    }
    std::string read_path_name = flag(argc, argv, "read-path",
                                      scaling ? "optimistic" : "locked");
    std::string policy_name = flag(argc, argv, "policy", "lru");
    std::string lock_name = flag(argc, argv, "lock", "mutex");
    std::string workload = flag(argc, argv, "workload", "canneal");
    std::uint64_t seed = flagU64(argc, argv, "seed", 1);
    std::string trace_out = flag(argc, argv, "trace-out", "");
    std::string metrics_out = flag(argc, argv, "metrics-out", "");
    std::string prom_out = flag(argc, argv, "prom-out", "");
    std::uint64_t metrics_interval =
        flagU64(argc, argv, "metrics-interval-ms", 100);
    std::uint64_t ring_cap = flagU64(argc, argv, "ring-cap", 1u << 16);
    std::string data_dir = flag(argc, argv, "data-dir", "");
    std::string fsync_name = flag(argc, argv, "fsync", "always");
    std::uint64_t fsync_interval =
        flagU64(argc, argv, "fsync-interval-ms", 50);
    std::uint64_t snapshot_every =
        flagU64(argc, argv, "snapshot-every-ops", 0);
    std::uint64_t persist_cap =
        flagU64(argc, argv, "persist-queue-cap", 4096);
    std::string backpressure_name =
        flag(argc, argv, "persist-backpressure", "block");
    std::string value_bytes_spec = flag(argc, argv, "value-bytes", "");
    std::string codec_name = flag(argc, argv, "codec", "bdi");

    std::uint32_t vb_min = 0, vb_max = 0;
    CodecKind codec = CodecKind::None;
    const bool bytes_mode = !value_bytes_spec.empty();
    if (bytes_mode) {
        std::tie(vb_min, vb_max) =
            parseValueBytes(value_bytes_spec, kZkvMaxValueBytes);
        auto ck = parseCodecKind(codec_name);
        if (!ck) {
            std::fprintf(stderr, "error: %s\n",
                         ck.status().str().c_str());
            return 2;
        }
        codec = *ck;
    }

    auto policy = parsePolicyKind(policy_name);
    if (!policy) {
        std::fprintf(stderr, "error: %s\n", policy.status().str().c_str());
        return 2;
    }
    if (lock_name != "mutex" && lock_name != "spin") {
        std::fprintf(stderr,
                     "error: unknown --lock '%s' (valid: mutex, spin)\n",
                     lock_name.c_str());
        return 2;
    }
    if (read_path_name != "locked" && read_path_name != "optimistic") {
        std::fprintf(stderr,
                     "error: unknown --read-path '%s' (valid: locked, "
                     "optimistic)\n",
                     read_path_name.c_str());
        return 2;
    }
    const ReadPath read_path = read_path_name == "optimistic"
                                   ? ReadPath::Optimistic
                                   : ReadPath::Locked;
    if (scaling) {
        // One axis only: the thread count, 1,2,4,... up to the core
        // count but never stopping short of 8 — the CI gate compares
        // the 8-thread and 1-thread points, and a lock-free read path
        // should hold its plateau even oversubscribed. Other list axes
        // collapse to their first value so every point differs in
        // threads alone.
        unsigned nproc = std::thread::hardware_concurrency();
        if (nproc == 0) nproc = 8;
        std::uint64_t top = nproc < 8 ? 8 : nproc;
        threads_list.clear();
        for (std::uint64_t t = 1; t < top; t *= 2) {
            threads_list.push_back(t);
        }
        threads_list.push_back(top);
        shards_list.resize(1);
        ways_list.resize(1);
        cands_list.resize(1);
        array_list.resize(1);
    }
    if (WorkloadRegistry::find(workload) == nullptr) {
        std::fprintf(stderr, "error: unknown --workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    persist::PersistConfig persist_cfg;
    persist_cfg.dataDir = data_dir;
    auto fsync_policy = persist::parseFsyncPolicy(fsync_name);
    if (!fsync_policy) {
        std::fprintf(stderr, "error: %s\n",
                     fsync_policy.status().str().c_str());
        return 2;
    }
    persist_cfg.fsync = *fsync_policy;
    persist_cfg.fsyncIntervalMs =
        static_cast<std::uint32_t>(fsync_interval);
    persist_cfg.snapshotEveryOps = snapshot_every;
    persist_cfg.queueCap = static_cast<std::size_t>(persist_cap);
    auto backpressure = persist::parseBackpressure(backpressure_name);
    if (!backpressure) {
        std::fprintf(stderr, "error: %s\n",
                     backpressure.status().str().c_str());
        return 2;
    }
    persist_cfg.backpressure = *backpressure;
    if (Status s = persist_cfg.validate(); !s.isOk()) {
        std::fprintf(stderr, "error: %s\n", s.str().c_str());
        return 2;
    }
    // Sink paths are set per grid point below.
    ObsConfig obs_cfg;
    obs_cfg.metricsIntervalMs = static_cast<std::uint32_t>(metrics_interval);
    obs_cfg.ringCapacity = static_cast<std::size_t>(ring_cap);
    if (Status s = obs_cfg.validate(); !s.isOk()) {
        std::fprintf(stderr, "error: %s\n", s.str().c_str());
        return 2;
    }

    // Grid: array x ways x cands x shards x threads, declared before
    // execution so per-point seeds are pure functions of grid position.
    std::vector<Point> grid;
    for (const std::string& array_name : array_list) {
        auto kind = parseStoreArray(array_name);
        if (!kind) {
            std::fprintf(stderr, "error: %s\n",
                         kind.status().message().c_str());
            return 2;
        }
        for (std::uint64_t ways : ways_list) {
            for (std::uint64_t cands : cands_list) {
                for (std::uint64_t shards : shards_list) {
                    for (std::uint64_t threads : threads_list) {
                        Point p;
                        p.cfg.store.shards =
                            static_cast<std::uint32_t>(shards);
                        p.cfg.store.array.kind = *kind;
                        p.cfg.store.array.blocks =
                            static_cast<std::uint32_t>(blocks);
                        p.cfg.store.array.ways =
                            static_cast<std::uint32_t>(ways);
                        p.cfg.store.array.levels =
                            static_cast<std::uint32_t>(levels);
                        p.cfg.store.array.maxCandidates =
                            static_cast<std::uint32_t>(cands);
                        p.cfg.store.array.policy = *policy;
                        p.cfg.store.array.seed = SweepSpec::pointSeed(
                            seed, grid.size());
                        p.cfg.store.lock = lock_name == "spin"
                                               ? ShardLockKind::Spin
                                               : ShardLockKind::Mutex;
                        p.cfg.store.readPath = read_path;
                        p.cfg.threads =
                            static_cast<std::uint32_t>(threads);
                        p.cfg.opsPerThread = ops;
                        p.cfg.getFrac = get_frac;
                        p.cfg.eraseFrac = erase_frac;
                        p.cfg.workload = workload;
                        p.cfg.seed = SweepSpec::pointSeed(
                            seed ^ 0x6c67ULL, grid.size());
                        p.cfg.obs = obs_cfg;
                        p.cfg.store.persist = persist_cfg;
                        if (bytes_mode) {
                            p.cfg.store.value.maxBytes =
                                kZkvMaxValueBytes;
                            p.cfg.store.value.codec = codec;
                            p.cfg.valueBytesMin = vb_min;
                            p.cfg.valueBytesMax = vb_max;
                        }
                        p.design = p.cfg.store.array.label();
                        grid.push_back(std::move(p));
                    }
                }
            }
        }
    }

    // Per-point telemetry paths (suffixed when the grid has several
    // points) must be fixed before execution so they are pure
    // functions of grid position, like the per-point seeds.
    for (std::size_t i = 0; i < grid.size(); i++) {
        grid[i].cfg.obs.tracePath =
            pointPath(trace_out, i, grid.size());
        grid[i].cfg.obs.metricsPath =
            pointPath(metrics_out, i, grid.size());
        grid[i].cfg.obs.promPath = pointPath(prom_out, i, grid.size());
        // Data dirs are directories, not files: suffix with a
        // subdirectory so grid points never share an op log.
        if (!data_dir.empty() && grid.size() > 1) {
            grid[i].cfg.store.persist.dataDir =
                data_dir + "/point" + std::to_string(i);
        }
    }

    JsonReport report(argc, argv, "store_loadgen");
    // The CPUs this process may run on, so a scaling ratio can be read
    // against the host: 8 workers on 4 CPUs cannot scale like 8 on 8.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int ncpus =
        sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
    JsonValue host = JsonValue::object();
    host.set("cpus", JsonValue(static_cast<std::uint64_t>(ncpus)));
    report.setBlock("host", std::move(host));

    SweepOptions opts = sweepOptions(argc, argv, "store_loadgen");
    // Points are themselves multithreaded: measure one at a time
    // unless the caller explicitly asks for overlap.
    if (flag(argc, argv, "jobs", "").empty()) opts.jobs = 1;

    auto outcomes = runGrid<LoadGenResult>(
        grid.size(),
        [&](std::size_t i) {
            return std::move(runLoadGen(grid[i].cfg)).valueOrThrow();
        },
        opts);

    banner("zkv store load generation (" + workload + ", " +
           std::to_string(ops) + " ops/thread)");
    std::printf("%-10s %7s %8s %6s %12s %7s %10s %10s %8s\n", "design",
                "shards", "threads", "lock", "ops/s", "hit%", "p50_ns",
                "p99_ns", "verify");
    for (const auto& o : outcomes) {
        if (!o.ok) continue;
        const Point& p = grid[o.index];
        const LoadGenResult& r = o.result;
        ThreadStats agg = r.aggregate();
        double hit_pct =
            agg.gets ? 100.0 * static_cast<double>(agg.getHits) /
                           static_cast<double>(agg.gets)
                     : 0.0;
        const JsonValue timing = r.timing();
        const JsonValue* lat = timing.find("latency");
        double p50 = lat->find("p50_ns")->asDouble();
        double p99 = lat->find("p99_ns")->asDouble();
        std::printf("%-10s %7u %8u %6s %12.0f %6.1f%% %10.0f %10.0f "
                    "%8" PRIu64 "\n",
                    p.design.c_str(), p.cfg.store.shards, p.cfg.threads,
                    shardLockKindName(p.cfg.store.lock), r.opsPerSec,
                    hit_pct, p50, p99, agg.verifyFailures);

        JsonValue compj = JsonValue::object();
        if (bytes_mode) {
            const ZkvCompressionStats& cp = r.compression;
            compj.set("codec",
                      JsonValue(std::string(codecKindName(codec))));
            compj.set("value_bytes_min",
                      JsonValue(std::uint64_t{p.cfg.valueBytesMin}));
            compj.set("value_bytes_max",
                      JsonValue(std::uint64_t{p.cfg.valueBytesMax}));
            countersJson(compj, kCompressionCounters, cp);
            countersJson(compj, kCompressionLevels, cp);
            compj.set("ratio", JsonValue(cp.ratio()));
            compj.set("resident_keys", JsonValue(r.residentKeys));
            compj.set(
                "resident_bytes_per_key",
                JsonValue(r.residentKeys > 0
                              ? static_cast<double>(
                                    cp.residentStoredBytes) /
                                    static_cast<double>(r.residentKeys)
                              : 0.0));
        }

        JsonValue obs = JsonValue::object();
        if (p.cfg.obs.anyEnabled()) {
            obs.set("trace_path", JsonValue(p.cfg.obs.tracePath));
            obs.set("metrics_path", JsonValue(p.cfg.obs.metricsPath));
            obs.set("ops_recorded", JsonValue(r.obsRecorded));
            obs.set("ops_dropped", JsonValue(r.obsDropped));
            obs.set("threads", JsonValue(r.obsThreads));
            obs.set("metrics_windows", JsonValue(r.obsWindows));
        }

        report.add(
            {
                {"design", JsonValue(p.design)},
                {"workload", JsonValue(p.cfg.workload)},
                {"shards", JsonValue(std::uint64_t{p.cfg.store.shards})},
                {"threads", JsonValue(std::uint64_t{p.cfg.threads})},
                {"lock",
                 JsonValue(std::string(
                     shardLockKindName(p.cfg.store.lock)))},
                {"read_path",
                 JsonValue(std::string(
                     readPathName(p.cfg.store.readPath)))},
                {"ops_per_thread", JsonValue(p.cfg.opsPerThread)},
                {"timing", timing},
                {"compression", std::move(compj)},
                {"obs", std::move(obs)},
            },
            r.storeStats);
    }

    if (scaling) {
        // Scaling summary: one row per thread count, speedups relative
        // to the 1-thread point. Get throughput (not overall ops/s) is
        // what the CI gate asserts — the optimistic path only changes
        // gets, and a put-heavy mix would mask read-path scaling.
        struct ScalRow
        {
            std::uint32_t threads = 0;
            double opsPerSec = 0.0;
            double getsPerSec = 0.0;
            double p99 = 0.0;
        };
        std::vector<ScalRow> rows;
        for (const auto& o : outcomes) {
            if (!o.ok) continue;
            const Point& p = grid[o.index];
            const LoadGenResult& r = o.result;
            ThreadStats agg = r.aggregate();
            ScalRow row;
            row.threads = p.cfg.threads;
            row.opsPerSec = r.opsPerSec;
            row.getsPerSec =
                r.seconds > 0.0
                    ? static_cast<double>(agg.gets) / r.seconds
                    : 0.0;
            row.p99 = r.timing().find("latency")->find("p99_ns")
                          ->asDouble();
            rows.push_back(row);
        }
        double base_gets = 0.0;
        double base_ops = 0.0;
        for (const ScalRow& row : rows) {
            if (row.threads == 1) {
                base_gets = row.getsPerSec;
                base_ops = row.opsPerSec;
            }
        }
        banner("get-throughput scaling (read path " + read_path_name +
               ", " + std::to_string(static_cast<int>(get_frac * 100.0)) +
               "% gets)");
        std::printf("%8s %14s %14s %10s %9s\n", "threads", "ops/s",
                    "gets/s", "p99_ns", "speedup");
        JsonValue points = JsonValue::array();
        for (const ScalRow& row : rows) {
            double speedup =
                base_gets > 0.0 ? row.getsPerSec / base_gets : 0.0;
            std::printf("%8u %14.0f %14.0f %10.0f %8.2fx\n", row.threads,
                        row.opsPerSec, row.getsPerSec, row.p99, speedup);
            JsonValue rec = JsonValue::object();
            rec.set("threads", JsonValue(std::uint64_t{row.threads}));
            rec.set("ops_per_sec", JsonValue(row.opsPerSec));
            rec.set("gets_per_sec", JsonValue(row.getsPerSec));
            rec.set("p99_ns", JsonValue(row.p99));
            rec.set("get_speedup", JsonValue(speedup));
            rec.set("ops_speedup",
                    JsonValue(base_ops > 0.0 ? row.opsPerSec / base_ops
                                             : 0.0));
            points.push(std::move(rec));
        }
        JsonValue scal = JsonValue::object();
        scal.set("read_path", JsonValue(read_path_name));
        scal.set("workload", JsonValue(workload));
        scal.set("get_frac", JsonValue(get_frac));
        scal.set("ops_per_thread", JsonValue(ops));
        scal.set("points", std::move(points));
        report.setBlock("scaling", std::move(scal));
    }

    if (!trace_out.empty()) {
        std::uint64_t rec = 0, drop = 0;
        for (const auto& o : outcomes) {
            if (!o.ok) continue;
            rec += o.result.obsRecorded;
            drop += o.result.obsDropped;
        }
        // Notice, not report output: stdout stays byte-identical with or
        // without the flag (docs/observability.md).
        std::fprintf(stderr,
                     "trace: %" PRIu64 " op spans recorded, %" PRIu64
                     " dropped (out of %" PRIu64 " ops) -> %s\n",
                     rec, drop, rec + drop, trace_out.c_str());
    }

    std::size_t failures = reportGridFailures(outcomes, "store_loadgen");
    bool wrote = report.writeIfRequested();
    if (failures > 0 || !wrote) return 1;
    return 0;
}
