/**
 * @file
 * zkv_server: the networked zkv daemon (src/net, docs/server.md) — an
 * epoll event loop serving the wire protocol over TCP with batched
 * shard dispatch into a ZkvStore.
 *
 * Flags:
 *   --host=127.0.0.1       bind address
 *   --port=0               TCP port; 0 = kernel-assigned ephemeral
 *                          (the hermetic-CI mode; pair with
 *                          --port-file so clients learn the port)
 *   --port-file=<path>     write the resolved port as one line
 *   --shards=4 --array=z --ways=4 --cands=0 --blocks=4096 --levels=2
 *   --policy=lru --lock=mutex --seed=1     store shape (docs/store.md)
 *   --value-bytes[=CAP]    bytes mode (docs/compression.md): values
 *                          are variable-length byte payloads up to CAP
 *                          bytes (1..224; default 224, the frame cap),
 *                          stored compressed; clients must speak
 *                          bytes-mode frames (net_loadgen --value-bytes)
 *   --codec=bdi            bytes-mode value codec: bdi | none
 *   --max-conns=1024       concurrent connection ceiling
 *   --drain-timeout-ms=2000  grace budget after SIGTERM/SIGINT
 *   --duration-s=N         self-shutdown after N seconds (0 = run
 *                          until a signal; tests use SIGTERM)
 *   --stats-out=<path>     full stats-registry JSON written at exit
 *   --fault=<site[:after[:count]]>  arm a fault-injection site
 *                          (net.accept/net.read/net.write/net.frame,
 *                          store.walk, persist.append, ... —
 *                          docs/robustness.md); repeatable via comma
 *                          separation
 *
 * Durability (docs/durability.md; default off):
 *   --data-dir=<path>      enable the persist tier rooted here; prior
 *                          state is recovered before the listener
 *                          accepts, and the op log drains before exit
 *   --fsync=always         always | interval | never
 *   --fsync-interval-ms=50 group-commit window for --fsync=interval
 *   --snapshot-every-ops=N compaction snapshot cadence (0 = never)
 *   --persist-queue-cap=N  per-shard writer queue depth (default 4096)
 *   --persist-backpressure=block   block | drop
 *   --recovery-report-out=<path>   write the recovery report JSON
 *                          (scripts/recovery_report.py validates it)
 *
 * Live telemetry (docs/telemetry.md):
 *   --trace-out=<path>     Chrome trace-event JSON (net phase spans)
 *   --metrics-out=<path>   windowed metrics NDJSON
 *   --prom-out=<path>      Prometheus text exposition
 *   --metrics-interval-ms=N --ring-cap=N
 *
 * SIGTERM/SIGINT ring the server's eventfd doorbell (async-signal-
 * safe) and the loop drains: buffered requests execute, their
 * responses flush, then connections close. Exit 0 after a clean
 * drain, 1 on a serve/teardown error, 2 on a usage error.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench_util.hpp"
#include "common/fault_injection.hpp"
#include "net/server.hpp"

namespace {

using namespace zc;
using namespace zc::benchutil;

std::atomic<net::ZkvServer*> g_server{nullptr};

void
onSignal(int)
{
    net::ZkvServer* srv = g_server.load(std::memory_order_acquire);
    if (srv != nullptr) srv->shutdown();
}

/** "site[:after[:count]]", comma-separated list. */
void
armFaults(const std::string& spec_csv)
{
    std::size_t pos = 0;
    while (pos <= spec_csv.size()) {
        std::size_t comma = spec_csv.find(',', pos);
        if (comma == std::string::npos) comma = spec_csv.size();
        std::string item = spec_csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty()) continue;
        FaultSpec fs;
        std::size_t c1 = item.find(':');
        std::string site = item.substr(0, c1);
        if (c1 != std::string::npos) {
            std::size_t c2 = item.find(':', c1 + 1);
            fs.afterHits =
                parseU64(item.substr(c1 + 1, c2 - c1 - 1), "--fault");
            if (c2 != std::string::npos) {
                fs.failCount = parseU64(item.substr(c2 + 1), "--fault");
            }
        }
        FaultInjection::enable(site, fs);
        std::fprintf(stderr,
                     "zkv_server: armed fault site '%s' (after=%llu "
                     "count=%llu)\n",
                     site.c_str(),
                     static_cast<unsigned long long>(fs.afterHits),
                     static_cast<unsigned long long>(fs.failCount));
    }
}

} // namespace

int
main(int argc, char** argv)
{
    net::ZkvServerConfig cfg;
    cfg.host = flag(argc, argv, "host", "127.0.0.1");
    cfg.port = static_cast<std::uint16_t>(flagU64(argc, argv, "port", 0));
    cfg.store.shards =
        static_cast<std::uint32_t>(flagU64(argc, argv, "shards", 4));
    std::string array_name = flag(argc, argv, "array", "z");
    if (array_name == "z") {
        cfg.store.array.kind = ArrayKind::ZCache;
    } else if (array_name == "sa") {
        cfg.store.array.kind = ArrayKind::SetAssoc;
    } else if (array_name == "skew") {
        cfg.store.array.kind = ArrayKind::SkewAssoc;
    } else {
        std::fprintf(stderr,
                     "error: unknown --array '%s' (valid: z, sa, skew)\n",
                     array_name.c_str());
        return 2;
    }
    cfg.store.array.blocks =
        static_cast<std::uint32_t>(flagU64(argc, argv, "blocks", 4096));
    cfg.store.array.ways =
        static_cast<std::uint32_t>(flagU64(argc, argv, "ways", 4));
    cfg.store.array.levels =
        static_cast<std::uint32_t>(flagU64(argc, argv, "levels", 2));
    cfg.store.array.maxCandidates =
        static_cast<std::uint32_t>(flagU64(argc, argv, "cands", 0));
    auto policy = parsePolicyKind(flag(argc, argv, "policy", "lru"));
    if (!policy) {
        std::fprintf(stderr, "error: %s\n",
                     policy.status().str().c_str());
        return 2;
    }
    cfg.store.array.policy = *policy;
    cfg.store.array.seed = flagU64(argc, argv, "seed", 1);
    std::string lock_name = flag(argc, argv, "lock", "mutex");
    if (lock_name != "mutex" && lock_name != "spin") {
        std::fprintf(stderr,
                     "error: unknown --lock '%s' (valid: mutex, spin)\n",
                     lock_name.c_str());
        return 2;
    }
    cfg.store.lock = lock_name == "spin" ? ShardLockKind::Spin
                                         : ShardLockKind::Mutex;
    if (flagBool(argc, argv, "value-bytes") ||
        !flag(argc, argv, "value-bytes", "").empty()) {
        std::uint64_t cap = flagU64(argc, argv, "value-bytes",
                                    kZkvMaxValueBytes);
        if (cap == 0 || cap > kZkvMaxValueBytes) {
            std::fprintf(stderr,
                         "error: --value-bytes=%llu: the cap must be "
                         "1..%u (the frame cap)\n",
                         static_cast<unsigned long long>(cap),
                         kZkvMaxValueBytes);
            return 2;
        }
        cfg.store.value.maxBytes = static_cast<std::uint32_t>(cap);
        auto codec = parseCodecKind(flag(argc, argv, "codec", "bdi"));
        if (!codec) {
            std::fprintf(stderr, "error: %s\n",
                         codec.status().str().c_str());
            return 2;
        }
        cfg.store.value.codec = *codec;
    }
    cfg.maxConnections = static_cast<std::uint32_t>(
        flagU64(argc, argv, "max-conns", 1024));
    cfg.drainTimeoutMs = static_cast<std::uint32_t>(
        flagU64(argc, argv, "drain-timeout-ms", 2000));
    cfg.obs.tracePath = flag(argc, argv, "trace-out", "");
    cfg.obs.metricsPath = flag(argc, argv, "metrics-out", "");
    cfg.obs.promPath = flag(argc, argv, "prom-out", "");
    cfg.obs.metricsIntervalMs = static_cast<std::uint32_t>(
        flagU64(argc, argv, "metrics-interval-ms", 100));
    cfg.obs.ringCapacity = static_cast<std::uint32_t>(
        flagU64(argc, argv, "ring-cap", 1u << 16));

    cfg.store.persist.dataDir = flag(argc, argv, "data-dir", "");
    auto fsync_policy =
        persist::parseFsyncPolicy(flag(argc, argv, "fsync", "always"));
    if (!fsync_policy) {
        std::fprintf(stderr, "error: %s\n",
                     fsync_policy.status().str().c_str());
        return 2;
    }
    cfg.store.persist.fsync = *fsync_policy;
    cfg.store.persist.fsyncIntervalMs = static_cast<std::uint32_t>(
        flagU64(argc, argv, "fsync-interval-ms", 50));
    cfg.store.persist.snapshotEveryOps =
        flagU64(argc, argv, "snapshot-every-ops", 0);
    cfg.store.persist.queueCap = static_cast<std::size_t>(
        flagU64(argc, argv, "persist-queue-cap", 4096));
    auto backpressure = persist::parseBackpressure(
        flag(argc, argv, "persist-backpressure", "block"));
    if (!backpressure) {
        std::fprintf(stderr, "error: %s\n",
                     backpressure.status().str().c_str());
        return 2;
    }
    cfg.store.persist.backpressure = *backpressure;
    std::string recovery_report_out =
        flag(argc, argv, "recovery-report-out", "");

    std::string port_file = flag(argc, argv, "port-file", "");
    std::string stats_out = flag(argc, argv, "stats-out", "");
    std::uint64_t duration_s = flagU64(argc, argv, "duration-s", 0);
    std::string faults = flag(argc, argv, "fault", "");
    if (!faults.empty()) armFaults(faults);

    auto srv_or = net::ZkvServer::create(cfg);
    if (!srv_or) {
        std::fprintf(stderr, "error: %s\n",
                     srv_or.status().str().c_str());
        return srv_or.status().code() == ErrorCode::InvalidArgument ? 2
                                                                    : 1;
    }
    std::unique_ptr<net::ZkvServer> srv = std::move(*srv_or);

    if (srv->store().persistEnabled()) {
        auto report_or = srv->store().recover();
        if (!report_or) {
            std::fprintf(stderr, "error: %s\n",
                         report_or.status().str().c_str());
            return 1;
        }
        const persist::RecoveryReport& rep = *report_or;
        std::fprintf(stderr,
                     "zkv_server: recovered %llu op(s) (%llu skipped, "
                     "%llu salvaged byte(s), %llu gap(s)) from %s\n",
                     static_cast<unsigned long long>(
                         rep.totalReplayed()),
                     static_cast<unsigned long long>(
                         rep.totalSkipped()),
                     static_cast<unsigned long long>(
                         rep.totalSalvagedBytes()),
                     static_cast<unsigned long long>(rep.totalGaps()),
                     cfg.store.persist.dataDir.c_str());
        if (!recovery_report_out.empty()) {
            std::ofstream out(recovery_report_out);
            out << rep.toJson().str(2) << "\n";
            if (!out.good()) {
                std::fprintf(stderr,
                             "error: cannot write "
                             "--recovery-report-out %s\n",
                             recovery_report_out.c_str());
                return 1;
            }
        }
    } else if (!recovery_report_out.empty()) {
        std::fprintf(stderr, "error: --recovery-report-out needs "
                             "--data-dir\n");
        return 2;
    }

    if (!port_file.empty()) {
        std::ofstream out(port_file);
        out << srv->port() << "\n";
        if (!out.good()) {
            std::fprintf(stderr, "error: cannot write --port-file %s\n",
                         port_file.c_str());
            return 1;
        }
    }
    std::fprintf(stderr, "zkv_server: listening on %s:%u (%s, %u "
                         "shards, lock=%s)\n",
                 cfg.host.c_str(), srv->port(),
                 cfg.store.array.label().c_str(), cfg.store.shards,
                 shardLockKindName(cfg.store.lock));

    g_server.store(srv.get(), std::memory_order_release);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    // Interruptible duration timer: when a signal ends serve() early,
    // the condvar cancels the wait so exit (and --stats-out) is not
    // delayed by the remainder of --duration-s.
    std::thread timer;
    std::mutex timer_mx;
    std::condition_variable timer_cv;
    bool timer_cancel = false;
    if (duration_s > 0) {
        net::ZkvServer* raw = srv.get();
        timer = std::thread([&, raw, duration_s] {
            std::unique_lock<std::mutex> lk(timer_mx);
            bool cancelled = timer_cv.wait_for(
                lk, std::chrono::seconds(duration_s),
                [&] { return timer_cancel; });
            if (!cancelled) raw->shutdown();
        });
    }

    Status serve_status = srv->serve();
    if (timer.joinable()) {
        {
            std::lock_guard<std::mutex> lk(timer_mx);
            timer_cancel = true;
        }
        timer_cv.notify_all();
        timer.join();
    }
    g_server.store(nullptr, std::memory_order_release);

    net::ZkvServerStats st = srv->stats();
    std::fprintf(stderr,
                 "zkv_server: served %llu frames (%llu ops in %llu "
                 "batches, %llu pings) over %llu connections; drained "
                 "%llu, aborted %llu\n",
                 static_cast<unsigned long long>(st.framesIn),
                 static_cast<unsigned long long>(st.batchedOps),
                 static_cast<unsigned long long>(st.batches),
                 static_cast<unsigned long long>(st.pings),
                 static_cast<unsigned long long>(st.accepted),
                 static_cast<unsigned long long>(st.drained),
                 static_cast<unsigned long long>(st.drainAborted));

    // Drain the op log before the stats dump so writer counters are
    // final and every acked op is on disk at exit.
    if (srv->store().persistEnabled()) {
        if (Status s = srv->store().stopPersist(); !s.isOk()) {
            std::fprintf(stderr, "error: %s\n", s.str().c_str());
            if (serve_status.isOk()) serve_status = s;
        }
    }

    if (!stats_out.empty()) {
        StatsRegistry reg;
        srv->registerStats(reg.root());
        if (!reg.writeJsonFile(stats_out)) {
            std::fprintf(stderr, "error: cannot write --stats-out %s\n",
                         stats_out.c_str());
            return 1;
        }
    }

    if (!serve_status.isOk()) {
        std::fprintf(stderr, "error: %s\n", serve_status.str().c_str());
        return 1;
    }
    return 0;
}
