/**
 * @file
 * sim-walk: one bank of the paper's Table I L2 (Z4/52: 4 ways, 3 walk
 * levels, H3, bucketed LRU; 16 K blocks = 1 MB) fed the interleaved
 * stream of 32 mcf per-core generators. Hash, probe, walk and policy do
 * all the work; store, lock, net, codec and persist do none.
 */

#include <unordered_set>

#include "cache/array_factory.hpp"
#include "hash/hash_factory.hpp"
#include "hash/way_index.hpp"
#include "store/zkv.hpp"
#include "trace/workloads.hpp"
#include "workloads.hpp"

namespace zc::bench {

namespace {

constexpr std::uint32_t kBlocks = 16384;
constexpr std::uint32_t kWays = 4;
constexpr std::uint32_t kCores = 32;
constexpr std::size_t kStream = std::size_t{1} << 20; ///< accesses per pass
constexpr std::size_t kPrefill = std::size_t{1} << 18; ///< timed in set-up
constexpr std::size_t kLatEvery = 8;   ///< 1 in 8 accesses timed
constexpr std::size_t kSpanEvery = 64; ///< 1 in 64 accesses traced

ArraySpec
arraySpec(std::uint64_t seed)
{
    ArraySpec s;
    s.kind = ArrayKind::ZCache;
    s.blocks = kBlocks;
    s.ways = kWays;
    s.levels = 3;
    s.hashKind = HashKind::H3;
    s.policy = PolicyKind::BucketedLru;
    s.seed = zkvMix64(seed);
    return s;
}

/** One simulated L2 access; true on a hit. */
inline bool
simAccess(CacheArray& a, Addr addr)
{
    AccessContext ctx;
    ctx.lineAddr = addr;
    if (a.access(addr, ctx) != kInvalidPos) return true;
    a.insert(addr, ctx);
    return false;
}

struct SimState
{
    std::vector<Addr> stream;
    std::unique_ptr<CacheArray> array;
    double nextNs = 0.0;
    std::uint64_t prefillHits = 0;
};

std::unique_ptr<SimState>
setUp(const RunSpec& spec, RunResult& r)
{
    auto st = std::make_unique<SimState>();
    {
        const WorkloadProfile& mcf = WorkloadRegistry::byName("mcf");
        std::vector<GeneratorPtr> gens;
        for (std::uint32_t c = 0; c < kCores; c++) {
            gens.push_back(WorkloadRegistry::makeCoreGenerator(mcf, c, kCores,
                                                               spec.seed));
        }
        st->stream.resize(kStream);
        const std::uint64_t t0 = nowNs();
        for (std::size_t i = 0; i < kStream; i++) {
            st->stream[i] = gens[i % kCores]->next().lineAddr;
        }
        st->nextNs = static_cast<double>(nowNs() - t0) / kStream;
    }
    r.sampleRssBase();
    st->array = makeArray(arraySpec(spec.seed));
    for (std::size_t i = 0; i < kPrefill; i++) {
        st->prefillHits += simAccess(*st->array, st->stream[i]);
    }
    return st;
}

/** Per-layer rungs replayed on the warm array after the measured phase. */
void
ladder(const RunSpec& spec, SimState& st, RunResult& r)
{
    CacheArray& a = *st.array;
    const std::vector<Addr>& s = st.stream;

    // Composite: one whole pass exactly as the workload runs it.
    std::uint64_t passHits = 0;
    const double totalNs = blockNs(kStream, [&](std::size_t i) {
        passHits += simAccess(a, s[i]);
    });
    const double hitFrac = static_cast<double>(passHits) / kStream;

    std::vector<Addr> resident, missing;
    std::unordered_set<Addr> seen;
    for (Addr x : s) {
        if (!seen.insert(x).second) continue;
        (a.probe(x) != kInvalidPos ? resident : missing).push_back(x);
    }
    std::uint64_t sink = 0;
    const double probeNs = blockNs(resident.size(), [&](std::size_t i) {
        sink += a.probe(resident[i]);
    });
    const double probeMissNs = blockNs(missing.size(), [&](std::size_t i) {
        sink += a.probe(missing[i]);
    });
    const double accessNs = blockNs(resident.size(), [&](std::size_t i) {
        AccessContext ctx;
        ctx.lineAddr = resident[i];
        sink += a.access(resident[i], ctx);
    });
    std::uint64_t cands = 0, relocs = 0;
    const std::size_t nIns = std::min<std::size_t>(missing.size(), 65536);
    const double insertNs = blockNs(nIns, [&](std::size_t i) {
        AccessContext ctx;
        ctx.lineAddr = missing[i];
        Replacement rep = a.insert(missing[i], ctx);
        cands += rep.candidates;
        relocs += rep.relocations;
    });

    const ArraySpec as = arraySpec(spec.seed);
    WayIndexer idx(makeHashFamily(as.hashKind, as.ways, as.blocks / as.ways,
                                  as.seed),
                   as.blocks / as.ways);
    BlockPos out[kWays];
    const double posNs = blockNs(kStream, [&](std::size_t i) {
        idx.positionsAll(s[i], out);
        sink += out[i % kWays];
    });
    keep(sink);

    const double candsPer = static_cast<double>(cands) / nIns;
    r.set("trace.next_ns", st.nextNs, "ns");
    r.set("hash.positions_ns", posNs, "ns");
    r.set("cache.probe_ns", probeNs, "ns");
    r.set("cache.probe_miss_ns", probeMissNs, "ns");
    r.set("cache.access_ns", accessNs, "ns");
    r.set("replacement.touch_ns", accessNs - probeNs, "ns");
    r.set("cache.insert_ns", insertNs, "ns");
    r.set("cache.insert_ns_per_candidate", insertNs / candsPer, "ns");
    r.set("cache.candidates_per_insert", candsPer, "count");
    r.set("cache.relocations_per_insert",
          static_cast<double>(relocs) / nIns, "count");
    r.set("sim.access_ns_total", totalNs, "ns");

    Composite c;
    c.name = "sim.access_ns_total";
    c.residual = "sim.residual_ns";
    c.total = totalNs;
    c.parts = {{"hit_frac*cache.access_ns", hitFrac * accessNs},
               {"miss_frac*cache.probe_miss_ns",
                (1.0 - hitFrac) * probeMissNs},
               {"miss_frac*cache.insert_ns", (1.0 - hitFrac) * insertNs}};
    r.composites.push_back(c);
}

} // namespace

RunResult
runSimWalk(const RunSpec& spec)
{
    RunResult r;
    Windows win(kWindows, kSamplesPerWindow);
    double setupS = 0.0;
    std::vector<std::uint64_t> prefillHits;
    std::vector<std::uint32_t> prefillValid;
    const auto make = [&] {
        auto s = setUp(spec, r);
        prefillHits.push_back(s->prefillHits);
        prefillValid.push_back(s->array->validCount());
        return s;
    };
    auto st = timedSetups(spec.setups, make, &setupS);
    r.sampleRss();
    for (std::size_t i = 0; i < prefillHits.size(); i++) {
        r.check(prefillValid[i] == kBlocks,
                "sim-walk: array not full after set-up (" +
                    std::to_string(prefillValid[i]) + " valid)");
        r.check(prefillHits[i] == prefillHits[0],
                "sim-walk: identical set-ups disagree on hits");
    }
    CacheArray& a = *st->array;
    const std::vector<Addr>& s = st->stream;
    const auto walks = [&] {
        return static_cast<const ZArray&>(a).walkStats().walks;
    };

    // Warm-up: the rest of the first pass, untimed.
    for (std::size_t i = kPrefill; i < kStream; i++) simAccess(a, s[i]);

    const std::uint64_t walks0 = walks();
    std::uint64_t accesses = 0, hits = 0, pass1Hits = 0, passes = 0;
    std::size_t pos = 0;
    const auto advance = [&](bool h) {
        hits += h;
        accesses++;
        if (++pos == kStream) {
            pos = 0;
            if (passes++ == 0) pass1Hits = hits;
        }
    };
    const auto step = [&] { advance(simAccess(a, s[pos])); };

    r.spans.emplace_back("sim", SpanLog());
    SpanLog& log = r.spans.back().second;
    const WindowPlan plan = WindowPlan::start(0.0, spec.seconds, kWindows);
    for (std::uint64_t group = 0;; group++) {
        const std::uint64_t t0 = nowNs();
        if (spec.traced && group % (kSpanEvery / kLatEvery) == 0 &&
            !log.full()) {
            // Traced op: split the access into its public calls.
            AccessContext ctx;
            ctx.lineAddr = s[pos];
            const std::uint64_t a0 = nowNs();
            const bool h = a.access(s[pos], ctx) != kInvalidPos;
            const std::uint64_t a1 = nowNs();
            std::uint64_t i1 = a1;
            if (!h) {
                a.insert(s[pos], ctx);
                i1 = nowNs();
            }
            const std::int64_t root = log.add("sim.access", a0, i1, accesses);
            log.add("cache.access", a0, a1, accesses, root);
            if (!h) log.add("cache.insert", a1, i1, accesses, root);
            advance(h);
        } else {
            step();
        }
        const std::uint64_t t1 = nowNs();
        const std::int64_t w = plan.slot(t1);
        if (w >= plan.n && passes >= 1) break;
        for (std::size_t k = 1; k < kLatEvery; k++) step();
        if (w >= 0 && w < plan.n) {
            win.addLatency(w, static_cast<double>(t1 - t0));
            win.ops[w] += kLatEvery;
        }
    }
    r.sampleRss();

    r.check(hits + (walks() - walks0) == accesses,
            "sim-walk: hits + misses != accesses");
    r.attempted = accesses;
    const double hitRate = static_cast<double>(pass1Hits) / kStream;
    r.setEndToEnd(setupS, win, plan.winSeconds(), hitRate);
    if (spec.traced) ladder(spec, *st, r);
    st.reset();
    moreSetups(r, spec.setups, make);
    return r;
}

} // namespace zc::bench
