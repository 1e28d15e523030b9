/**
 * @file
 * net-bytes: an in-process ZkvServer on loopback with a bytes-mode store
 * (BDI codec, 16-224 B values from zkvFillPayload), prefilled through
 * ZkvServer::store(). Two ZkvClient connections each run a closed loop
 * with a fixed window of pipelined requests, 70/25/5 get/put/erase;
 * ops_per_s comes from them. Then a third connection, the probe, runs
 * the same mix alone, one request at a time, and latency_p50_us comes
 * from its requests. The frame codec, the server round, runShardBatch
 * and the codec do the work; optimistic reads and persist are bypassed.
 *
 * The pipelined requests are not timed: in a closed loop their latency
 * is the window over the throughput (Little's law), so it would restate
 * ops_per_s. A probe request timed beside the pipelines waited behind
 * one or two of their server rounds, and which one it was changed from
 * run to run. Alone, a probe request is one server round of one op.
 */

#include <pthread.h>
#include <sched.h>

#include <barrier>
#include <deque>
#include <thread>

#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "store/loadgen.hpp"
#include "workloads.hpp"

namespace zc::bench {

namespace {

/**
 * Pin @p t to CPU @p cpu when the process may run on at least three
 * CPUs including that one. The serve thread and the two pipelined
 * clients are all busy; left to the scheduler they sometimes share a
 * CPU, which moved ops/s by a fifth between otherwise identical runs.
 */
void
pin(std::thread& t, unsigned cpu)
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0 ||
        CPU_COUNT(&allowed) < 3 || !CPU_ISSET(cpu, &allowed)) {
        return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(t.native_handle(), sizeof one, &one);
}

constexpr std::uint32_t kPipelined = 2; ///< clients 0 and 1
constexpr std::uint32_t kProbe = kPipelined; ///< client id of the probe
constexpr std::uint32_t kClients = kPipelined + 1;
constexpr std::uint32_t kWindow = 64; ///< requests in flight per pipeline
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kBlocksPerShard = 8192;
constexpr std::uint32_t kLenMin = 16;
constexpr std::uint32_t kLenMax = 224;
constexpr std::size_t kKeys = std::size_t{1} << 19; ///< per client
constexpr std::size_t kRecord = 32768; ///< frames kept per client, traced
constexpr double kProbeShare = 0.2; ///< probe phase, share of --seconds

net::ZkvServerConfig
serverConfig(std::uint64_t seed)
{
    net::ZkvServerConfig c;
    c.host = "127.0.0.1";
    c.port = 0;
    c.store.shards = kShards;
    c.store.array.kind = ArrayKind::ZCache;
    c.store.array.blocks = kBlocksPerShard;
    c.store.array.ways = 4;
    c.store.array.levels = 2;
    c.store.array.hashKind = HashKind::H3;
    c.store.array.seed = zkvMix64(seed ^ 0x6e6574ULL);
    c.store.value.maxBytes = kZkvMaxValueBytes;
    c.store.value.codec = CodecKind::Bdi;
    return c;
}

struct NetState
{
    std::vector<std::vector<std::uint64_t>> keys;
    std::unique_ptr<net::ZkvServer> server;
    double nextNs = 0.0;
};

std::unique_ptr<NetState>
setUp(const RunSpec& spec, RunResult& r)
{
    auto st = std::make_unique<NetState>();
    st->keys = cannealStreams(kClients, kKeys, spec.seed, &st->nextNs);
    r.sampleRssBase();
    auto srv = net::ZkvServer::create(serverConfig(spec.seed));
    throwIfError(srv.status());
    st->server = std::move(*srv);
    ZkvStore& store = st->server->store();
    std::vector<std::uint8_t> payload;
    // Fill the store; bounded so a stream that cannot fill it fails the
    // full-after-set-up check instead of spinning.
    const std::uint64_t capacity = std::uint64_t{kShards} * kBlocksPerShard;
    for (std::uint64_t i = 0; i < 64 * capacity; i++) {
        if (i % 4096 == 0 && storeFull(store.size(), capacity)) break;
        const auto tid = static_cast<std::uint32_t>(i % kClients);
        const std::uint64_t k = st->keys[tid][(i / kClients) % kKeys];
        zkvFillPayload(k, tid, zkvPayloadLen(k, kLenMin, kLenMax), payload);
        throwIfError(store.putBytes(k, payload).status());
    }
    return st;
}

struct ClientCounters
{
    std::uint64_t sent = 0, done = 0, gets = 0, hits = 0;
    std::uint64_t failed = 0; ///< non-Ok status, id mismatch, bad payload
    std::vector<net::Request> reqs;   ///< first kRecord requests, traced
    std::vector<net::Response> resps; ///< first kRecord responses, traced
};

struct InFlight
{
    std::uint64_t id = 0;
    std::uint64_t key = 0;
    net::MsgType type = net::MsgType::Get;
    std::uint64_t sendNs = 0, sentNs = 0;
};

/** One connection's closed loop: kWindow requests in flight, or one at
 *  a time, each timed, for the probe. */
void
runClient(std::uint32_t cid, net::ZkvClient& cl, const RunSpec& spec,
          const std::vector<std::uint64_t>& keys, const WindowPlan& plan,
          std::barrier<>& sync, ClientCounters& c, Windows& w, SpanLog& log,
          std::string& error)
{
    const bool probe = cid == kProbe;
    sync.arrive_and_wait();
    Pcg32 mix(zkvMix64(spec.seed + 0x6e6574ULL + cid), 0x6e74ULL + cid);
    std::deque<InFlight> inflight;
    std::vector<std::uint8_t> scratch;
    std::size_t pos = 0;
    std::uint64_t nextId = 1;

    const auto send = [&]() -> bool {
        net::Request req;
        req.bytes = true;
        req.id = nextId++;
        req.key = keys[pos];
        if (++pos == kKeys) pos = 0;
        const std::uint32_t u = mix.below(100);
        req.type = u < 70   ? net::MsgType::Get
                   : u < 95 ? net::MsgType::Put
                            : net::MsgType::Erase;
        if (req.type == net::MsgType::Put) {
            zkvFillPayload(req.key, cid,
                           zkvPayloadLen(req.key, kLenMin, kLenMax),
                           req.valueBytes);
        }
        InFlight f{req.id, req.key, req.type, 0, 0};
        f.sendNs = nowNs();
        Status s = cl.sendRaw(req);
        f.sentNs = nowNs();
        if (!s.isOk()) {
            error = s.str();
            return false;
        }
        c.sent++;
        if (spec.traced && c.reqs.size() < kRecord) {
            c.reqs.push_back(std::move(req));
        }
        inflight.push_back(f);
        return true;
    };
    const auto recv = [&](std::int64_t* slot) -> bool {
        const std::uint64_t r0 = nowNs();
        auto resp = cl.recvResponse();
        const std::uint64_t r1 = nowNs();
        if (!resp) {
            error = resp.status().str();
            return false;
        }
        const InFlight f = inflight.front();
        inflight.pop_front();
        c.done++;
        bool ok = resp->id == f.id && resp->status == ErrorCode::Ok;
        if (ok && f.type == net::MsgType::Get) {
            c.gets++;
            if (resp->hit()) {
                c.hits++;
                ok = zkvVerifyPayload(f.key, kClients, kLenMin, kLenMax,
                                      resp->valueBytes, scratch);
            }
        }
        c.failed += !ok;
        *slot = plan.slot(r1);
        if (probe && *slot >= 0 && *slot < plan.n) {
            w.addLatency(*slot, static_cast<double>(r1 - f.sendNs));
            if (spec.traced) {
                const std::int64_t root =
                    log.add("net.request", f.sendNs, r1, f.id);
                log.add("client.sendRaw", f.sendNs, f.sentNs, f.id, root);
                log.add("client.recvResponse", r0, r1, f.id, root);
            }
        }
        if (*slot >= 0 && *slot < plan.n) w.ops[*slot]++;
        if (spec.traced && c.resps.size() < kRecord) {
            c.resps.push_back(std::move(*resp));
        }
        return true;
    };

    for (std::uint32_t i = 0; i < (probe ? 1 : kWindow); i++) {
        if (!send()) return;
    }
    for (;;) {
        std::int64_t slot = 0;
        if (!recv(&slot)) return;
        if (slot >= plan.n) break;
        if (!send()) return;
    }
    while (!inflight.empty()) {
        std::int64_t slot = 0;
        if (!recv(&slot)) return;
    }
}

/** Replay rungs over the frames and payloads the clients recorded. */
void
ladder(NetState& st, const std::vector<ClientCounters>& cnt,
       const net::ZkvServerStats& ss, RunResult& r)
{
    std::vector<const net::Request*> reqs;
    std::vector<const net::Response*> resps;
    for (const auto& c : cnt) {
        for (const auto& q : c.reqs) reqs.push_back(&q);
        for (const auto& p : c.resps) resps.push_back(&p);
    }
    std::vector<std::uint8_t> buf;
    buf.reserve(reqs.size() * 256);
    const double encReq = blockNs(reqs.size(), [&](std::size_t i) {
        net::encodeRequest(*reqs[i], buf);
    });
    std::size_t off = 0;
    net::Request rq;
    const double decReq = blockNs(reqs.size(), [&](std::size_t) {
        auto n = net::decodeRequest(buf.data() + off, buf.size() - off, &rq);
        off += n ? *n : buf.size();
    });
    r.check(off == buf.size(), "net-bytes: request replay did not decode");
    buf.clear();
    const double encResp = blockNs(resps.size(), [&](std::size_t i) {
        net::encodeResponse(*resps[i], buf);
    });
    off = 0;
    net::Response rp;
    const double decResp = blockNs(resps.size(), [&](std::size_t) {
        auto n = net::decodeResponse(buf.data() + off, buf.size() - off, &rp);
        off += n ? *n : buf.size();
    });
    r.check(off == buf.size(), "net-bytes: response replay did not decode");

    // runShardBatch replay: the recorded requests, grouped by shard into
    // batches of the size the server formed.
    ZkvStore& store = st.server->store();
    const double opsPerBatch =
        static_cast<double>(ss.batchedOps) / static_cast<double>(ss.batches);
    const std::size_t b = std::max<std::size_t>(
        1, static_cast<std::size_t>(opsPerBatch + 0.5));
    std::vector<std::vector<StoreBatchOp>> pending(store.numShards());
    std::vector<std::pair<std::uint32_t, std::vector<StoreBatchOp>>> batches;
    for (const net::Request* q : reqs) {
        StoreBatchOp op;
        op.kind = q->type == net::MsgType::Get   ? ObsOp::Get
                  : q->type == net::MsgType::Put ? ObsOp::Put
                                                 : ObsOp::Erase;
        op.key = q->key;
        op.valueBytes = q->valueBytes;
        const std::uint32_t sh = store.shardOf(q->key);
        pending[sh].push_back(std::move(op));
        if (pending[sh].size() == b) {
            batches.emplace_back(sh, std::move(pending[sh]));
            pending[sh].clear();
        }
    }
    std::vector<StoreBatchResult> out(b);
    std::size_t ops = 0;
    const double batchTotal = blockNs(batches.size(), [&](std::size_t i) {
        store.runShardBatch(batches[i].first, batches[i].second, out.data());
        ops += batches[i].second.size();
    }) * static_cast<double>(batches.size());
    const double batchNs = batchTotal / static_cast<double>(ops);

    // Codec rungs over the recorded put payloads.
    auto codec = makeCodec(CodecKind::Bdi);
    std::vector<const std::vector<std::uint8_t>*> payloads;
    for (const net::Request* q : reqs) {
        if (q->type == net::MsgType::Put) payloads.push_back(&q->valueBytes);
    }
    std::vector<std::vector<std::uint8_t>> packed(payloads.size());
    std::vector<std::uint8_t> plain(kZkvMaxValueBytes);
    double raw = 0.0, stored = 0.0;
    for (std::size_t i = 0; i < payloads.size(); i++) {
        packed[i].resize(codec->maxCompressedSize(payloads[i]->size()));
    }
    const double compNs = blockNs(payloads.size(), [&](std::size_t i) {
        auto n = codec->compress(payloads[i]->data(), payloads[i]->size(),
                                 packed[i].data(), packed[i].size());
        packed[i].resize(n ? *n : 0);
    });
    for (std::size_t i = 0; i < payloads.size(); i++) {
        raw += static_cast<double>(payloads[i]->size());
        stored += static_cast<double>(packed[i].size());
    }
    std::size_t bad = 0;
    const double decompNs = blockNs(payloads.size(), [&](std::size_t i) {
        auto n = codec->decompress(packed[i].data(), packed[i].size(),
                                   plain.data(), plain.size());
        bad += !n || *n != payloads[i]->size();
    });
    r.check(bad == 0, "net-bytes: codec replay did not round-trip");

    const ZkvCompressionStats ct = store.compressionTotals();
    r.set("net.encode_req_ns", encReq, "ns");
    r.set("net.decode_req_ns", decReq, "ns");
    r.set("net.encode_resp_ns", encResp, "ns");
    r.set("net.decode_resp_ns", decResp, "ns");
    r.set("net.round_trip_us", spanCostNs(r.spans, "net.request") / 1e3,
          "us");
    r.set("net.ops_per_batch", opsPerBatch, "count");
    r.set("net.bytes_per_op",
          static_cast<double>(ss.bytesIn + ss.bytesOut) /
              static_cast<double>(ss.framesIn),
          "B");
    r.set("store.batch_ns_per_op", batchNs, "ns");
    r.set("compress.compress_ns", compNs, "ns");
    r.set("compress.decompress_ns", decompNs, "ns");
    r.set("compress.ratio", raw / stored, "ratio");
    r.set("compress.bytes_per_key",
          static_cast<double>(ct.residentStoredBytes) /
              static_cast<double>(store.size()),
          "B");
    const double serverOpUs = 1e6 / r.e2e.at("ops_per_s").value;
    r.set("net.server_op_us", serverOpUs, "us");
    Composite c;
    c.name = "net.server_op_us";
    c.residual = "net.server_residual_us";
    c.total = serverOpUs;
    c.parts = {{"net.decode_req_ns/1e3", decReq / 1e3},
               {"store.batch_ns_per_op/1e3", batchNs / 1e3},
               {"net.encode_resp_ns/1e3", encResp / 1e3}};
    r.composites.push_back(c);
}

} // namespace

RunResult
runNetBytes(const RunSpec& spec)
{
    RunResult r;
    std::vector<Windows> wins;
    for (std::uint32_t c = 0; c < kClients; c++) {
        wins.emplace_back(kWindows, c == kProbe ? kSamplesPerWindow : 0);
    }
    double setupS = 0.0;
    auto st =
        timedSetups(spec.setups, [&] { return setUp(spec, r); }, &setupS);
    r.sampleRss();
    const std::uint64_t capacity = std::uint64_t{kShards} * kBlocksPerShard;
    r.check(storeFull(st->server->store().size(), capacity),
            "net-bytes: store not full after set-up (" +
                std::to_string(st->server->store().size()) + " of " +
                std::to_string(capacity) + ")");

    // Connect one by one before serving, so the server accepts the
    // connections in the same order, under the same descriptors, in every
    // run (it visits them in descriptor-hash order each round).
    net::ZkvServer& srv = *st->server;
    std::vector<std::unique_ptr<net::ZkvClient>> conns;
    for (std::uint32_t c = 0; c < kClients; c++) {
        net::ZkvClientConfig cc;
        cc.port = srv.port();
        auto cl = net::ZkvClient::connect(cc);
        throwIfError(cl.status());
        conns.push_back(std::move(*cl));
    }
    Status serveStatus;
    std::thread loop([&] { serveStatus = srv.serve(); });
    pin(loop, 0);

    std::vector<ClientCounters> cnt(kClients);
    std::vector<std::string> errors(kClients);
    for (std::uint32_t c = 0; c < kClients; c++) {
        r.spans.emplace_back("client-" + std::to_string(c), SpanLog());
    }
    // Clients [from, to) run their closed loops over @p plan, which
    // starts after a 0.5 s untimed warm-up.
    const auto phase = [&](std::uint32_t from, std::uint32_t to,
                           double seconds, WindowPlan& plan) {
        std::barrier<> sync(static_cast<std::ptrdiff_t>(to - from) + 1);
        std::vector<std::thread> clients;
        for (std::uint32_t c = from; c < to; c++) {
            clients.emplace_back([&, c] {
                runClient(c, *conns[c], spec, st->keys[c], plan, sync,
                          cnt[c], wins[c], r.spans[c].second, errors[c]);
            });
            pin(clients.back(), 1 + c - from);
        }
        plan = WindowPlan::start(0.5, seconds, kWindows);
        sync.arrive_and_wait();
        for (auto& t : clients) t.join();
    };
    WindowPlan plan, probePlan;
    phase(0, kPipelined, spec.seconds, plan);
    phase(kProbe, kClients, spec.seconds * kProbeShare, probePlan);
    r.sampleRss();
    srv.shutdown();
    loop.join();

    r.check(serveStatus.isOk(), "net-bytes: serve() failed");
    std::uint64_t sent = 0, gets = 0, hits = 0;
    Windows win(kWindows); // the pipelines' ops, the probe's latencies
    for (std::uint32_t c = 0; c < kClients; c++) {
        r.check(errors[c].empty(), "net-bytes: client error: " + errors[c]);
        r.check(cnt[c].sent == cnt[c].done,
                "net-bytes: responses missing on a connection");
        sent += cnt[c].sent;
        gets += cnt[c].gets;
        hits += cnt[c].hits;
        r.failed += cnt[c].failed;
        if (c != kProbe) win.merge(wins[c]);
    }
    win.latNs = std::move(wins[kProbe].latNs);
    const net::ZkvServerStats ss = srv.stats();
    r.check(ss.framesIn == sent && ss.framesOut == sent,
            "net-bytes: client requests != server framesIn/framesOut");
    r.attempted = sent;
    r.setEndToEnd(setupS, win, plan.winSeconds(),
                  static_cast<double>(hits) / static_cast<double>(gets));
    if (spec.traced) {
        r.set("trace.next_ns", st->nextNs, "ns");
        ladder(*st, cnt, ss, r);
    }
    st.reset();
    moreSetups(r, spec.setups, [&] { return setUp(spec, r); });
    return r;
}

} // namespace zc::bench
