/**
 * @file
 * Open-loop TCP load generator for zkv_server (docs/server.md): the
 * coordinated-omission-safe companion to the in-process
 * store_loadgen. Arrival times are fixed up front from a target rate
 * (net/openloop.hpp) and every operation's latency is measured from
 * its INTENDED arrival, not from when the socket got around to
 * sending it — server stalls therefore land in the histogram as the
 * queueing delay a real client population would have seen, which is
 * what makes the throughput-vs-p99 curves honest (closed-loop
 * generators silently pace themselves to the server and miss exactly
 * the latencies that matter).
 *
 * Flags:
 *   --host=127.0.0.1 --port=N   server address; or --port-file=<path>
 *                               (reads the port zkv_server wrote)
 *   --connections=1             client connections (one thread each)
 *   --ops=100000                total operations across connections
 *   --rate=50000                target ops/sec across connections
 *   --sweep-rates=a,b,c         rate-sweep mode: one point per rate,
 *                               printing the throughput-vs-percentile
 *                               curve (scripts/slo_report.py renders
 *                               the JSON); overrides --rate
 *   --arrivals=poisson          arrival process: poisson | fixed
 *   --get=0.7 --erase=0.05      op mix (rest = puts)
 *   --workload=canneal          WorkloadRegistry key-stream profile
 *   --seed=1                    base seed
 *   --crc                       CRC-protect every frame (echoed back)
 *   --value-bytes=<dist>        bytes mode (docs/compression.md):
 *                               variable-length byte payloads against
 *                               a bytes-mode server (zkv_server
 *                               --value-bytes). fixed:N | uniform:LO:HI
 *                               | N. Payloads are the same
 *                               deterministic function of (key, conn)
 *                               store_loadgen uses, so every GET hit
 *                               is verified byte-exactly end to end
 *                               through compression and the wire.
 *                               Incompatible with --shadow-out /
 *                               --verify-shadow (u64 shadow maps).
 *   --pipeline-depth=0          optional cap on in-flight requests
 *                               per connection (0 = unbounded, the
 *                               pure open-loop; a bound models client
 *                               admission control)
 *   --drain-wait-ms=5000        grace for straggler responses after
 *                               the last send before counting them
 *                               lost
 *   --json=<path>               standard JSON report
 *
 * Crash-recovery verification (docs/durability.md):
 *   --shadow-out=<path>   write a shadow map of every key this run
 *                         touched: the set of values a later GET may
 *                         legally return (puts are value-deterministic
 *                         per key+connection, so acked and in-flight
 *                         writes both land in the allowed set) plus an
 *                         erased marker. Survives a SIGKILLed server:
 *                         the file describes what the CLIENT observed.
 *   --verify-shadow=<path>  read a shadow map and GET every key from
 *                         the (recovered) server instead of running
 *                         load: a hit whose value is outside the
 *                         allowed set — including any hit on an
 *                         erased-and-never-put key — is a durability
 *                         violation and exits 1; misses are always
 *                         legal (eviction, unacked loss, erase).
 *
 * Failures surface as structured counts, never crashes
 * (docs/robustness.md): response status bytes are tallied per
 * ErrorCode, transport errors (resets from injected net.* faults,
 * refused connects) count under transport_errors with automatic
 * reconnects, and responses forfeited by a dead connection count
 * under lost_inflight. completed + lost_inflight == issued ==
 * scheduled arrivals, exactly.
 *
 * Exit codes (bench protocol): 0 clean (failure *counts* are data,
 * not an exit condition), 1 a point could not run at all (no
 * connection, zero completions) or unwritable output, 2 usage error.
 */

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/stats_registry.hpp"
#include "net/client.hpp"
#include "net/openloop.hpp"
#include "obs/latency_scale.hpp"
#include "obs/trace_event.hpp"
#include "store/loadgen.hpp"
#include "store/zkv.hpp"
#include "trace/workloads.hpp"

namespace {

using namespace zc;
using namespace zc::benchutil;

/// Longest single wait for a response (the drain polls at this pace).
constexpr std::uint64_t kMaxWaitNs = 100000000;

/**
 * How long before an arrival a connection stops sleeping and polls
 * without blocking. A sleeping ppoll() wakes late by the kernel's
 * default 50 us timer slack plus the wake-up itself: over 1,000 waits
 * each of 10-450 us on an idle socket (4-vCPU x86-64 KVM guest) it
 * overshot by 57-59 us at the median and 60-69 us at the 99th
 * percentile.
 */
constexpr std::uint64_t kWakeSlackNs = 70000;

/** One connection-thread's tallies. */
struct ConnStats
{
    std::uint64_t issued = 0;    ///< requests sent (== arrivals taken)
    std::uint64_t completed = 0; ///< responses received
    std::uint64_t lostInflight = 0; ///< forfeited to dead connections
    std::uint64_t transportErrors = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t lateSends = 0; ///< sent >1ms after intended arrival

    std::uint64_t gets = 0, getHits = 0;
    std::uint64_t puts = 0, erases = 0;
    std::uint64_t verifyFailures = 0;

    /** Response status bytes tallied per ErrorCode (index = code). */
    std::array<std::uint64_t, 16> statusCounts{};

    /** From INTENDED arrival to response. */
    UnitHistogram latency{kLatencyBins};
    double seconds = 0.0;
};

/** ConnStats' counters, in the order of each run's `stats` block;
 *  lateSends reports under `timing`. */
constexpr CounterField<ConnStats> kConnCounters[] = {
    {"issued", "requests sent", &ConnStats::issued},
    {"completed", "responses received", &ConnStats::completed},
    {"lost_inflight", "requests forfeited to dead connections",
     &ConnStats::lostInflight},
    {"transport_errors", "connection failures",
     &ConnStats::transportErrors},
    {"reconnects", "connections re-established", &ConnStats::reconnects},
    {"gets", "get requests", &ConnStats::gets},
    {"get_hits", "get responses that hit", &ConnStats::getHits},
    {"puts", "put requests", &ConnStats::puts},
    {"erases", "erase requests", &ConnStats::erases},
    {"verify_failures", "get hits whose value failed its check",
     &ConnStats::verifyFailures},
};

/**
 * One connection's contribution to the shadow map: keys it issued
 * puts/erases for. Values are not stored — a put's payload is the
 * pure function zkvMix64(key) + tid, so the key set IS the value set.
 * Keys are recorded at issue time: an in-flight write the server may
 * or may not have applied before a crash is exactly as legal a GET
 * result as an acked one.
 */
struct ShadowLog
{
    std::unordered_set<std::uint64_t> putKeys;
    std::unordered_set<std::uint64_t> eraseKeys;
};

/** Merged shadow map: key -> (allowed hit values, erased marker). */
struct ShadowEntry
{
    std::set<std::uint64_t> allowed;
    bool erased = false;
};

struct PointConfig
{
    net::ZkvClientConfig client;
    std::uint32_t connections = 1;
    std::uint64_t ops = 100000;
    double rate = 50000.0;
    ArrivalKind arrivals = ArrivalKind::Poisson;
    double getFrac = 0.7;
    double eraseFrac = 0.05;
    std::string workload = "canneal";
    std::uint64_t seed = 1;
    std::uint64_t pipelineDepth = 0; ///< 0 = unbounded
    std::uint64_t drainWaitMs = 5000;

    /** Bytes mode (docs/compression.md): variable-length payloads
     *  with deterministic per-key lengths in [vbMin, vbMax]. */
    bool bytesMode = false;
    std::uint32_t vbMin = 16;
    std::uint32_t vbMax = 64;
};

struct PointResult
{
    std::vector<ConnStats> perConn;
    double seconds = 0.0; ///< wall clock, first send to last response
};

/**
 * Drive one connection open-loop: send each request at its scheduled
 * arrival (never waiting for responses), collect responses as they
 * come, measure latency from the intended arrival time. On a
 * transport error the connection is re-established and outstanding
 * responses are counted lost — the schedule keeps going.
 */
void
runConn(const PointConfig& cfg, std::uint32_t tid,
        std::uint64_t ops_budget, double conn_rate, ConnStats& cs,
        ShadowLog* shadow)
{
    const WorkloadProfile* profile =
        WorkloadRegistry::find(cfg.workload);
    GeneratorPtr gen = WorkloadRegistry::makeCoreGenerator(
        *profile, tid, cfg.connections, cfg.seed);
    Pcg32 mix(zkvMix64(cfg.seed + tid), /*stream=*/0x6e6cULL + tid);
    ArrivalSchedule sched(cfg.arrivals, conn_rate,
                          zkvMix64(cfg.seed ^ 0xa1ULL) + tid);

    auto cli_or = net::ZkvClient::connect(cfg.client);
    if (!cli_or) {
        // Total connection failure: every scheduled op is forfeited.
        cs.transportErrors++;
        return;
    }
    std::unique_ptr<net::ZkvClient> cli = std::move(*cli_or);

    // Intended arrival offset (from t0) and key, per request id - 1:
    // responses echo id + type but not the key, so read-your-writes
    // verification looks the key up by id.
    std::vector<std::uint64_t> intendedNs(ops_budget, 0);
    std::vector<std::uint64_t> keyOf(ops_budget, 0);
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> wbuf;
    std::vector<std::uint8_t> vscratch; // bytes-mode verify buffer

    const std::uint64_t t0 = obsNowNs();
    std::uint64_t nextArr = sched.nextOffsetNs();
    std::uint64_t outstanding = 0;
    std::uint64_t drainDeadline = 0;

    auto now_off = [t0] { return obsNowNs() - t0; };

    auto reconnect = [&]() -> bool {
        cs.lostInflight += outstanding;
        outstanding = 0;
        rbuf.clear();
        cs.reconnects++;
        auto again = net::ZkvClient::connect(cfg.client);
        if (!again) return false;
        cli = std::move(*again);
        return true;
    };

    while (cs.completed + cs.lostInflight < ops_budget) {
        std::uint64_t now = now_off();

        // Send every arrival whose time has come (open loop: never
        // gated on responses, unless a pipeline bound models client
        // admission control).
        while (cs.issued < ops_budget && nextArr <= now &&
               (cfg.pipelineDepth == 0 ||
                outstanding < cfg.pipelineDepth)) {
            net::Request req;
            req.id = cs.issued + 1; // ids are 1-based per connection
            req.crc = cfg.client.crc;
            std::uint64_t key = gen->next().lineAddr;
            double u = mix.uniform();
            if (u < cfg.getFrac) {
                req.type = net::MsgType::Get;
                req.key = key;
                req.bytes = cfg.bytesMode;
                cs.gets++;
            } else if (u < cfg.getFrac + cfg.eraseFrac) {
                req.type = net::MsgType::Erase;
                req.key = key;
                cs.erases++;
                if (shadow != nullptr) shadow->eraseKeys.insert(key);
            } else {
                req.type = net::MsgType::Put;
                req.key = key;
                if (cfg.bytesMode) {
                    req.bytes = true;
                    zkvFillPayload(key, tid,
                                   zkvPayloadLen(key, cfg.vbMin,
                                                 cfg.vbMax),
                                   req.valueBytes);
                } else {
                    req.value = zkvMix64(key) + tid;
                }
                cs.puts++;
                if (shadow != nullptr) shadow->putKeys.insert(key);
            }
            intendedNs[cs.issued] = nextArr;
            keyOf[cs.issued] = req.key;
            if (now - nextArr > 1000000) cs.lateSends++;
            wbuf.clear();
            encodeRequest(req, wbuf);
            std::size_t sent = 0;
            bool dead = false;
            while (sent < wbuf.size()) {
                ssize_t n = ::send(cli->fd(), wbuf.data() + sent,
                                   wbuf.size() - sent, MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EINTR) continue;
                    dead = true;
                    break;
                }
                sent += static_cast<std::size_t>(n);
            }
            cs.issued++;
            if (dead) {
                cs.transportErrors++;
                cs.lostInflight++; // this request never made it out
                if (!reconnect()) {
                    cs.lostInflight += ops_budget - cs.issued;
                    cs.issued = ops_budget;
                    return;
                }
            } else {
                outstanding++;
            }
            if (cs.issued < ops_budget) {
                nextArr = sched.nextOffsetNs();
            }
            now = now_off();
        }

        if (cs.issued == ops_budget && outstanding == 0) break;

        if (cs.issued == ops_budget && drainDeadline == 0) {
            drainDeadline = now + cfg.drainWaitMs * 1000000ull;
        }
        if (drainDeadline != 0 && now >= drainDeadline) {
            cs.lostInflight += outstanding;
            outstanding = 0;
            break;
        }

        // Wait for a response, but never past the next arrival. While a
        // response is outstanding, poll without blocking, so that its
        // latency does not include this thread's own wake-up (a full
        // pipeline always has one outstanding). With nothing in flight,
        // sleep until kWakeSlackNs before the arrival and poll without
        // blocking for the last stretch. The drain blocks for the last
        // responses.
        std::uint64_t wait_ns = 0;
        if (cs.issued == ops_budget) {
            wait_ns = kMaxWaitNs;
        } else if (outstanding == 0) {
            const std::uint64_t due = nextArr > now ? nextArr - now : 0;
            wait_ns = due > kWakeSlackNs
                          ? std::min(due - kWakeSlackNs, kMaxWaitNs)
                          : 0;
        }
        const timespec timeout{
            static_cast<time_t>(wait_ns / 1000000000ull),
            static_cast<long>(wait_ns % 1000000000ull)};
        pollfd pfd{cli->fd(), POLLIN, 0};
        int pr = ::ppoll(&pfd, 1, &timeout, nullptr);
        if (pr < 0 && errno != EINTR) {
            cs.transportErrors++;
            if (!reconnect()) break;
            continue;
        }
        if (pr <= 0 || (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;

        std::uint8_t buf[4096];
        ssize_t n = ::recv(cli->fd(), buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            // EOF or reset — a drained server or an injected net.*
            // fault; either way the outstanding responses are gone.
            cs.transportErrors++;
            if (cs.issued < ops_budget) {
                if (!reconnect()) {
                    cs.lostInflight += ops_budget - cs.issued;
                    cs.issued = ops_budget;
                    break;
                }
            } else {
                cs.lostInflight += outstanding;
                outstanding = 0;
                break;
            }
            continue;
        }
        rbuf.insert(rbuf.end(), buf, buf + n);

        std::size_t off = 0;
        bool framing_dead = false;
        while (off < rbuf.size()) {
            net::Response resp;
            auto consumed_or = net::decodeResponse(
                rbuf.data() + off, rbuf.size() - off, &resp);
            if (!consumed_or) {
                // Framing desync: unrecoverable on this connection.
                cs.transportErrors++;
                framing_dead = true;
                break;
            }
            if (*consumed_or == 0) break;
            off += *consumed_or;

            std::uint64_t recv_off = now_off();
            if (resp.id >= 1 && resp.id <= cs.issued) {
                std::uint64_t intended = intendedNs[resp.id - 1];
                double ns = recv_off > intended
                                ? static_cast<double>(recv_off -
                                                      intended)
                                : 0.0;
                cs.latency.record(latencyToUnit(ns));
                if (resp.type == net::MsgType::Get && resp.hit()) {
                    cs.getHits++;
                    // Values encode (key, writer tid); a hit decoding
                    // to an impossible writer means the store (or the
                    // wire) cross-connected a payload. Bytes mode
                    // checks the whole payload byte-exactly instead.
                    if (cfg.bytesMode) {
                        if (!zkvVerifyPayload(keyOf[resp.id - 1],
                                              cfg.connections,
                                              cfg.vbMin, cfg.vbMax,
                                              resp.valueBytes,
                                              vscratch)) {
                            cs.verifyFailures++;
                        }
                    } else if (resp.value -
                                   zkvMix64(keyOf[resp.id - 1]) >=
                               cfg.connections) {
                        cs.verifyFailures++;
                    }
                }
            }
            auto code = static_cast<std::size_t>(resp.status);
            if (code < cs.statusCounts.size()) cs.statusCounts[code]++;
            cs.completed++;
            if (outstanding > 0) outstanding--;
        }
        if (off > 0) {
            rbuf.erase(rbuf.begin(),
                       rbuf.begin() + static_cast<std::ptrdiff_t>(off));
        }
        if (framing_dead) {
            if (!reconnect()) break;
        }
    }
    cs.seconds = static_cast<double>(now_off()) / 1e9;
}

PointResult
runPoint(const PointConfig& cfg, std::vector<ShadowLog>* shadows)
{
    PointResult res;
    res.perConn.resize(cfg.connections);
    if (shadows != nullptr) shadows->assign(cfg.connections, {});
    WorkloadRegistry::prime();

    std::vector<std::thread> threads;
    threads.reserve(cfg.connections);
    const std::uint64_t per = cfg.ops / cfg.connections;
    const double conn_rate =
        cfg.rate / static_cast<double>(cfg.connections);
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t tid = 0; tid < cfg.connections; tid++) {
        std::uint64_t budget =
            per + (tid == 0 ? cfg.ops % cfg.connections : 0);
        threads.emplace_back([&, tid, budget] {
            runConn(cfg, tid, budget, conn_rate, res.perConn[tid],
                    shadows != nullptr ? &(*shadows)[tid] : nullptr);
        });
    }
    for (std::thread& t : threads) t.join();
    res.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return res;
}

/** Merge per-connection stats (histograms bin-for-bin). */
ConnStats
aggregate(const PointResult& r)
{
    ConnStats a;
    for (const ConnStats& c : r.perConn) {
        sumCounters(a, kConnCounters, c);
        a.lateSends += c.lateSends;
        for (std::size_t i = 0; i < a.statusCounts.size(); i++) {
            a.statusCounts[i] += c.statusCounts[i];
        }
        a.latency.merge(c.latency);
        a.seconds = std::max(a.seconds, c.seconds);
    }
    return a;
}

std::vector<double>
parseRateList(const std::string& csv)
{
    std::vector<double> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) comma = csv.size();
        std::string item = csv.substr(pos, comma - pos);
        if (!item.empty()) out.push_back(parseF64(item, "--sweep-rates"));
        pos = comma + 1;
    }
    return out;
}

/**
 * Shadow map file: "ZKSHADOW v1" header, then one line per key:
 * "<key> <v1>[,<v2>...] <erased 0|1>", values "-" when the key was
 * only ever erased. Decimal u64 throughout, keys sorted.
 */
bool
writeShadow(const std::string& path,
            const std::map<std::uint64_t, ShadowEntry>& map)
{
    std::ofstream out(path);
    out << "ZKSHADOW v1\n";
    for (const auto& [key, e] : map) {
        out << key << ' ';
        if (e.allowed.empty()) {
            out << '-';
        } else {
            bool first = true;
            for (std::uint64_t v : e.allowed) {
                if (!first) out << ',';
                out << v;
                first = false;
            }
        }
        out << ' ' << (e.erased ? 1 : 0) << '\n';
    }
    out.flush();
    return out.good();
}

bool
readShadow(const std::string& path,
           std::map<std::uint64_t, ShadowEntry>* map)
{
    std::ifstream in(path);
    std::string header;
    if (!std::getline(in, header) || header != "ZKSHADOW v1") {
        return false;
    }
    std::uint64_t key = 0;
    std::string vals;
    int erased = 0;
    while (in >> key >> vals >> erased) {
        ShadowEntry e;
        e.erased = erased != 0;
        if (vals != "-") {
            std::size_t pos = 0;
            while (pos <= vals.size()) {
                std::size_t comma = vals.find(',', pos);
                if (comma == std::string::npos) comma = vals.size();
                e.allowed.insert(parseU64(vals.substr(pos, comma - pos),
                                          "--verify-shadow value"));
                pos = comma + 1;
            }
        }
        (*map)[key] = std::move(e);
    }
    return in.eof();
}

/**
 * GET every shadowed key from a (recovered) server and check the
 * durability contract: a hit must decode to an allowed value; a miss
 * is always legal (eviction, unacked loss, erase). Returns the
 * process exit code.
 */
int
verifyShadow(const net::ZkvClientConfig& client_cfg,
             const std::string& path)
{
    std::map<std::uint64_t, ShadowEntry> map;
    if (!readShadow(path, &map)) {
        std::fprintf(stderr,
                     "error: cannot read shadow map %s\n",
                     path.c_str());
        return 2;
    }
    auto cli_or = net::ZkvClient::connect(client_cfg);
    if (!cli_or) {
        std::fprintf(stderr, "error: %s\n",
                     cli_or.status().str().c_str());
        return 1;
    }
    std::unique_ptr<net::ZkvClient> cli = std::move(*cli_or);

    std::uint64_t hits = 0, misses = 0, mismatches = 0;
    for (const auto& [key, e] : map) {
        auto got = cli->get(key);
        if (!got) {
            std::fprintf(stderr, "error: GET %llu: %s\n",
                         static_cast<unsigned long long>(key),
                         got.status().str().c_str());
            return 1;
        }
        if (!got->has_value()) {
            misses++;
            continue;
        }
        std::uint64_t value = **got;
        if (e.allowed.count(value) != 0) {
            hits++;
            continue;
        }
        mismatches++;
        if (mismatches <= 10) {
            std::fprintf(stderr,
                         "error: shadow mismatch: key %llu hit value "
                         "%llu outside the allowed set (%zu value(s), "
                         "erased=%d)\n",
                         static_cast<unsigned long long>(key),
                         static_cast<unsigned long long>(value),
                         e.allowed.size(), e.erased ? 1 : 0);
        }
    }
    std::printf("net_loadgen: shadow verify: %zu key(s), "
                "verified_hits=%llu misses=%llu mismatches=%llu\n",
                map.size(), static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(mismatches));
    return mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    PointConfig base;
    base.client.host = flag(argc, argv, "host", "127.0.0.1");
    base.client.port =
        static_cast<std::uint16_t>(flagU64(argc, argv, "port", 0));
    std::string port_file = flag(argc, argv, "port-file", "");
    if (base.client.port == 0 && !port_file.empty()) {
        std::ifstream in(port_file);
        unsigned p = 0;
        if (!(in >> p) || p == 0 || p > 65535) {
            std::fprintf(stderr,
                         "error: cannot read a port from --port-file "
                         "%s\n",
                         port_file.c_str());
            return 2;
        }
        base.client.port = static_cast<std::uint16_t>(p);
    }
    if (base.client.port == 0) {
        std::fprintf(stderr,
                     "error: --port=N or --port-file=<path> required\n");
        return 2;
    }
    base.client.crc = flagBool(argc, argv, "crc");

    std::string shadow_out = flag(argc, argv, "shadow-out", "");
    std::string verify_shadow =
        flag(argc, argv, "verify-shadow", "");
    if (!verify_shadow.empty()) {
        // Verification replaces load generation: GET the shadowed
        // keys and judge the recovered store against the map.
        return verifyShadow(base.client, verify_shadow);
    }

    base.connections = static_cast<std::uint32_t>(
        flagU64(argc, argv, "connections", 1));
    base.ops = flagU64(argc, argv, "ops", 100000);
    base.rate = flagF64(argc, argv, "rate", 50000.0);
    base.getFrac = flagF64(argc, argv, "get", 0.7);
    base.eraseFrac = flagF64(argc, argv, "erase", 0.05);
    base.workload = flag(argc, argv, "workload", "canneal");
    base.seed = flagU64(argc, argv, "seed", 1);
    base.pipelineDepth = flagU64(argc, argv, "pipeline-depth", 0);
    base.drainWaitMs = flagU64(argc, argv, "drain-wait-ms", 5000);

    std::string value_bytes = flag(argc, argv, "value-bytes", "");
    if (!value_bytes.empty()) {
        if (!shadow_out.empty()) {
            std::fprintf(stderr,
                         "error: --value-bytes is incompatible with "
                         "--shadow-out (u64 shadow maps)\n");
            return 2;
        }
        base.bytesMode = true;
        std::tie(base.vbMin, base.vbMax) =
            parseValueBytes(value_bytes, kZkvMaxValueBytes);
    }

    auto kind_or =
        parseArrivalKind(flag(argc, argv, "arrivals", "poisson"));
    if (!kind_or) {
        std::fprintf(stderr, "error: %s\n",
                     kind_or.status().str().c_str());
        return 2;
    }
    base.arrivals = *kind_or;
    if (base.connections == 0 || base.ops == 0 || base.rate <= 0.0) {
        std::fprintf(stderr, "error: --connections, --ops and --rate "
                             "must be positive\n");
        return 2;
    }
    if (WorkloadRegistry::find(base.workload) == nullptr) {
        std::fprintf(stderr, "error: unknown --workload '%s'\n",
                     base.workload.c_str());
        return 2;
    }

    std::vector<double> rates =
        parseRateList(flag(argc, argv, "sweep-rates", ""));
    const bool sweep = !rates.empty();
    if (!sweep) rates.push_back(base.rate);

    JsonReport report(argc, argv, "net_loadgen");

    banner("zkv open-loop load (" + base.workload + ", " +
           std::string(arrivalKindName(base.arrivals)) +
           " arrivals, " + std::to_string(base.connections) +
           " conn)");
    std::printf("%12s %12s %10s %10s %10s %8s %8s %8s\n",
                "target_ops/s", "ops/s", "p50_ns", "p99_ns", "p999_ns",
                "complete", "lost", "xperr");

    std::size_t failed_points = 0;
    std::map<std::uint64_t, ShadowEntry> shadow_map;
    for (std::size_t pi = 0; pi < rates.size(); pi++) {
        PointConfig cfg = base;
        cfg.rate = rates[pi];
        // Sweep points scale op count with rate so every point runs a
        // comparable wall-clock window at its own intensity.
        if (sweep) {
            double secs = static_cast<double>(base.ops) / base.rate;
            cfg.ops = static_cast<std::uint64_t>(
                std::llround(secs * cfg.rate));
            if (cfg.ops == 0) cfg.ops = 1;
        }
        cfg.seed = SweepSpec::pointSeed(base.seed, pi);

        std::vector<ShadowLog> shadows;
        PointResult r = runPoint(
            cfg, shadow_out.empty() ? nullptr : &shadows);
        ConnStats a = aggregate(r);

        for (std::uint32_t tid = 0; tid < shadows.size(); tid++) {
            for (std::uint64_t key : shadows[tid].putKeys) {
                shadow_map[key].allowed.insert(zkvMix64(key) + tid);
            }
            for (std::uint64_t key : shadows[tid].eraseKeys) {
                shadow_map[key].erased = true;
            }
        }

        double achieved =
            r.seconds > 0.0
                ? static_cast<double>(a.completed) / r.seconds
                : 0.0;
        double p50 = histQuantileNs(a.latency, 0.50);
        double p99 = histQuantileNs(a.latency, 0.99);
        double p999 = histQuantileNs(a.latency, 0.999);
        std::printf("%12.0f %12.0f %10.0f %10.0f %10.0f %8" PRIu64
                    " %8" PRIu64 " %8" PRIu64 "\n",
                    cfg.rate, achieved, p50, p99, p999, a.completed,
                    a.lostInflight, a.transportErrors);

        if (a.completed == 0) failed_points++;

        JsonValue statuses = JsonValue::object();
        for (std::size_t c = 0; c < a.statusCounts.size(); c++) {
            if (a.statusCounts[c] == 0) continue;
            statuses.set(errorCodeName(static_cast<ErrorCode>(c)),
                         JsonValue(a.statusCounts[c]));
        }
        JsonValue timing = JsonValue::object();
        timing.set("seconds", JsonValue(r.seconds));
        timing.set("ops_per_sec", JsonValue(achieved));
        timing.set("p50_ns", JsonValue(p50));
        timing.set("p99_ns", JsonValue(p99));
        timing.set("p999_ns", JsonValue(p999));
        timing.set("late_sends", JsonValue(a.lateSends));

        JsonValue stats = JsonValue::object();
        countersJson(stats, kConnCounters, a);
        stats.set("statuses", std::move(statuses));

        report.add(
            {
                {"rate", JsonValue(cfg.rate)},
                {"arrivals",
                 JsonValue(std::string(arrivalKindName(cfg.arrivals)))},
                {"connections",
                 JsonValue(std::uint64_t{cfg.connections})},
                {"ops", JsonValue(cfg.ops)},
                {"workload", JsonValue(cfg.workload)},
                {"crc", JsonValue(cfg.client.crc)},
                {"bytes_mode", JsonValue(cfg.bytesMode)},
                {"value_bytes_min",
                 JsonValue(std::uint64_t{cfg.vbMin})},
                {"value_bytes_max",
                 JsonValue(std::uint64_t{cfg.vbMax})},
                {"timing", std::move(timing)},
            },
            std::move(stats));
    }

    if (!shadow_out.empty()) {
        if (!writeShadow(shadow_out, shadow_map)) {
            std::fprintf(stderr,
                         "error: cannot write --shadow-out %s\n",
                         shadow_out.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "shadow: %zu key(s) recorded -> %s\n",
                     shadow_map.size(), shadow_out.c_str());
    }

    bool wrote = report.writeIfRequested();
    if (failed_points > 0 || !wrote) return 1;
    return 0;
}
