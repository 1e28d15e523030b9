/**
 * @file
 * Equivalence proofs for the walk's hot-path evaluations.
 *
 * WalkEquivalence: a ZArray whose H3 family WayIndexer tabulates must be
 * *bit-identical* to the same ZArray over the same family evaluated
 * through the virtual HashFunction::hash(). The reference array wraps
 * each hash in a test-local ForwardingHash, which the indexer cannot
 * tabulate. Identity is checked at every level a divergence could
 * hide: per-access hit/miss and Replacement fields, aggregate
 * ZWalkStats, the walk-event trace (ring and streaming summary), and
 * the final tag-array contents — across every hash kind, walk
 * strategy, candidate cap and the Bloom repeat filter. Only H3 is
 * tabulated, so for the other kinds both arrays evaluate hash() and
 * those cases check only that the walk is deterministic.
 *
 * EpochSet: the walk's candidate dedup must agree with
 * std::unordered_set op by op, start empty, and survive the uint32
 * epoch wrap. WayIndexer: the table must agree with hash() for every
 * way the lanes can pack.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/array_factory.hpp"
#include "cache/z_array.hpp"
#include "common/rng.hpp"
#include "hash/hash_factory.hpp"
#include "hash/way_index.hpp"
#include "replacement/policy_factory.hpp"

namespace zc {
namespace {

constexpr std::uint32_t kBlocks = 1024; // e.g. 4 ways x 256 lines
constexpr std::uint64_t kFootprint = 4096;
// Odd, so multiplying is a bijection: spreads the footprint over all 64
// address bits, reaching every nibble table of the H3 tabulation.
constexpr Addr kSpread = 0x9e3779b97f4a7c15ULL;

/**
 * Forwards to a wrapped hash. It is not an H3Hash, so WayIndexer cannot
 * tabulate a family of them and evaluates every position through the
 * virtual hash().
 */
class ForwardingHash final : public HashFunction
{
  public:
    explicit ForwardingHash(HashPtr inner) : inner_(std::move(inner)) {}

    std::uint64_t hash(Addr a) const override { return inner_->hash(a); }
    std::uint64_t buckets() const override { return inner_->buckets(); }
    std::string name() const override { return inner_->name(); }

  private:
    HashPtr inner_;
};

/**
 * The array @p cfg describes; with @p reference, over the same family
 * wrapped in ForwardingHash so that no position comes from the table.
 */
std::unique_ptr<ZArray>
makeArray(const ZArrayConfig& cfg, bool reference, PolicyKind pk)
{
    auto policy = makePolicy(pk, kBlocks, 99);
    if (!reference) {
        return std::make_unique<ZArray>(kBlocks, cfg, std::move(policy));
    }
    std::vector<HashPtr> fam;
    for (auto& h :
         makeHashFamily(cfg.hashKind, cfg.ways, kBlocks / cfg.ways, cfg.seed)) {
        fam.push_back(std::make_unique<ForwardingHash>(std::move(h)));
    }
    return std::make_unique<ZArray>(kBlocks, cfg, std::move(policy),
                                    std::move(fam));
}

/**
 * Drive the tabulated and virtual-hash arrays with the same stream and
 * require identical behaviour at every step and in every aggregate.
 */
void
expectEquivalent(const ZArrayConfig& cfg, PolicyKind pk, int accesses,
                 const std::string& label)
{
    auto fast = makeArray(cfg, false, pk);
    auto ref = makeArray(cfg, true, pk);
    Pcg32 rng(7);
    for (int i = 0; i < accesses; i++) {
        Addr a = rng.next64() % kFootprint * kSpread;
        AccessContext ctx;
        ctx.lineAddr = a;
        BlockPos pf = fast->access(a, ctx);
        BlockPos pr = ref->access(a, ctx);
        ASSERT_EQ(pf, pr) << label << ": access " << i << " addr " << a;
        if (pf != kInvalidPos) continue;
        Replacement rf = fast->insert(a, ctx);
        Replacement rr = ref->insert(a, ctx);
        ASSERT_EQ(rf.evictedAddr, rr.evictedAddr)
            << label << ": access " << i;
        ASSERT_EQ(rf.victimPos, rr.victimPos) << label << ": access " << i;
        ASSERT_EQ(rf.candidates, rr.candidates)
            << label << ": access " << i;
        ASSERT_EQ(rf.relocations, rr.relocations)
            << label << ": access " << i;
    }

    const ZWalkStats& sf = fast->walkStats();
    const ZWalkStats& sr = ref->walkStats();
    EXPECT_EQ(sf.walks, sr.walks) << label;
    EXPECT_EQ(sf.candidatesTotal, sr.candidatesTotal) << label;
    EXPECT_EQ(sf.relocationsTotal, sr.relocationsTotal) << label;
    EXPECT_EQ(sf.repeatsTotal, sr.repeatsTotal) << label;
    EXPECT_EQ(sf.emptyAbsorbed, sr.emptyAbsorbed) << label;

    if (cfg.traceCapacity > 0) {
        const WalkTraceSummary& tf = fast->walkTraceSummary();
        const WalkTraceSummary& tr = ref->walkTraceSummary();
        EXPECT_EQ(tf.events, tr.events) << label;
        EXPECT_EQ(tf.hidden, tr.hidden) << label;
        EXPECT_EQ(tf.capped, tr.capped) << label;
        EXPECT_EQ(tf.emptyAbsorbed, tr.emptyAbsorbed) << label;
        EXPECT_EQ(tf.candidates.sum(), tr.candidates.sum()) << label;
        EXPECT_EQ(tf.victimDepth.sum(), tr.victimDepth.sum()) << label;
        EXPECT_EQ(tf.evictionRank.sum(), tr.evictionRank.sum()) << label;
        EXPECT_EQ(tf.latencyCycles.sum(), tr.latencyCycles.sum()) << label;

        auto ef = fast->walkTraceSnapshot();
        auto er = ref->walkTraceSnapshot();
        ASSERT_EQ(ef.size(), er.size()) << label;
        for (std::size_t i = 0; i < ef.size(); i++) {
            EXPECT_EQ(ef[i].candidates, er[i].candidates)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].levels, er[i].levels) << label << ": event "
                                                  << i;
            EXPECT_EQ(ef[i].victimDepth, er[i].victimDepth)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].evictionRank, er[i].evictionRank)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].latencyCycles, er[i].latencyCycles)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].emptyAbsorbed, er[i].emptyAbsorbed)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].capped, er[i].capped)
                << label << ": event " << i;
            EXPECT_EQ(ef[i].hiddenUnderMissLatency,
                      er[i].hiddenUnderMissLatency)
                << label << ": event " << i;
        }
    }

    // Final array contents: same valid count and the same address at
    // every position.
    ASSERT_EQ(fast->validCount(), ref->validCount()) << label;
    for (BlockPos p = 0; p < kBlocks; p++) {
        ASSERT_EQ(fast->addrAt(p), ref->addrAt(p))
            << label << ": position " << p;
    }
}

std::string
comboLabel(HashKind hk, WalkStrategy ws, std::uint32_t cap, bool bloom)
{
    std::string s = hashKindName(hk);
    s += ws == WalkStrategy::Bfs   ? "/bfs"
         : ws == WalkStrategy::Dfs ? "/dfs"
                                   : "/hybrid";
    s += "/cap" + std::to_string(cap);
    if (bloom) s += "/bloom";
    return s;
}

// Every hash kind x every walk strategy, uncapped, trace on. Only the
// H3 cases compare the table with hash(); the rest run hash() on both
// sides and check determinism.
TEST(WalkEquivalence, AllHashKindsAllStrategies)
{
    for (HashKind hk : kAllHashKinds) {
        for (WalkStrategy ws :
             {WalkStrategy::Bfs, WalkStrategy::Dfs, WalkStrategy::Hybrid}) {
            ZArrayConfig cfg;
            cfg.ways = 4;
            cfg.levels = 3;
            cfg.strategy = ws;
            cfg.hashKind = hk;
            cfg.traceCapacity = 64;
            expectEquivalent(cfg, PolicyKind::Srrip, 4000,
                             comboLabel(hk, ws, 0, false));
        }
    }
}

// The early-stop cap changes which candidates exist at all, so the two
// evaluations must agree about *order* of discovery, not just the
// final set. A tight cap makes any ordering slip visible immediately.
TEST(WalkEquivalence, CandidateCaps)
{
    for (std::uint32_t cap : {6u, 16u}) {
        for (WalkStrategy ws :
             {WalkStrategy::Bfs, WalkStrategy::Hybrid}) {
            ZArrayConfig cfg;
            cfg.ways = 4;
            cfg.levels = 3;
            cfg.strategy = ws;
            cfg.maxCandidates = cap;
            cfg.traceCapacity = 64;
            expectEquivalent(cfg, PolicyKind::Srrip, 4000,
                             comboLabel(cfg.hashKind, ws, cap, false));
        }
    }
}

// The Bloom repeat filter marks nodes before dedup sees them; both
// arrays must count repeats identically.
TEST(WalkEquivalence, BloomRepeatFilter)
{
    for (WalkStrategy ws : {WalkStrategy::Bfs, WalkStrategy::Dfs}) {
        ZArrayConfig cfg;
        cfg.ways = 4;
        cfg.levels = 3;
        cfg.strategy = ws;
        cfg.bloomRepeatFilter = true;
        cfg.traceCapacity = 64;
        expectEquivalent(cfg, PolicyKind::Lru, 4000,
                         comboLabel(cfg.hashKind, ws, 0, true));
    }
}

// L=1 (skew-associative degenerate) and wider arrays: shapes at the
// edges of the walk-tree recurrence. W8L2 packs its 8 x 7-bit H3 lanes
// into one table word; W16 x 64 lines needs 16 6-bit lanes at 10 per
// word, so its walks run on the second word too.
TEST(WalkEquivalence, DegenerateAndWideShapes)
{
    {
        ZArrayConfig cfg;
        cfg.ways = 4;
        cfg.levels = 1;
        cfg.traceCapacity = 32;
        expectEquivalent(cfg, PolicyKind::Lru, 3000, "h3/bfs/L1");
    }
    {
        ZArrayConfig cfg;
        cfg.ways = 8;
        cfg.levels = 2;
        cfg.traceCapacity = 32;
        expectEquivalent(cfg, PolicyKind::Srrip, 3000, "h3/bfs/W8L2");
    }
    {
        ZArrayConfig cfg;
        cfg.ways = 16;
        cfg.levels = 2;
        cfg.traceCapacity = 32;
        expectEquivalent(cfg, PolicyKind::Srrip, 3000, "h3/bfs/W16L2");
    }
}

// ---------------------------------------------------------- EpochSet

TEST(EpochSet, FreshSetIsEmpty)
{
    EpochSet set(64);
    for (BlockPos p = 0; p < 64; p++) EXPECT_TRUE(set.insert(p)) << p;
}

TEST(EpochSet, MatchesUnorderedSetOpByOp)
{
    EpochSet set(64);
    std::unordered_set<BlockPos> ref;
    Pcg32 rng(5);
    for (int i = 0; i < 200000; i++) {
        if (rng.below(8) == 0) {
            set.clear();
            ref.clear();
            continue;
        }
        const BlockPos p = rng.below(64);
        ASSERT_EQ(set.insert(p), ref.insert(p).second) << "op " << i;
    }
}

// 2^32 clears take the uint32 epoch round once. The stamps must be
// re-zeroed on the wrap, and the epoch must skip 0 (every fresh stamp):
// without the re-zero a stamp reads as current again after 2^32 - 1
// clears, and an epoch allowed to reach 0 repeats after 2^32.
TEST(EpochSet, EpochWrapForgetsOldStamps)
{
    EpochSet set(4);
    ASSERT_TRUE(set.insert(1));
    ASSERT_TRUE(set.insert(2));
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << 32) - 1; i++) {
        set.clear();
    }
    EXPECT_TRUE(set.insert(1));
    EXPECT_TRUE(set.insert(3));
    set.clear();
    EXPECT_TRUE(set.insert(2));
}

// ------------------------------------------- Compressed degeneration

/**
 * The compressed tier's no-op configuration must be *bit-identical* to
 * the plain zcache (docs/compression.md): with extraTagRatio=1 the tag
 * count matches, and with the null codec every stored size equals
 * lineBytes exactly, so the data budget (blocks x lineBytes) can never
 * be exceeded and makeSpace never fires. The SizeMirror decorator
 * forwards every ranking/notification call to the inner policy
 * untouched, so replacement decisions — and therefore the whole walk
 * event stream and final tag contents — must match position for
 * position. A divergence here means the decorator perturbed policy
 * state or the budget check fired spuriously.
 */
TEST(WalkEquivalence, CompressedNullCodecRatio1IsBitIdentical)
{
    for (PolicyKind pk : {PolicyKind::Lru, PolicyKind::Srrip}) {
        ArraySpec plain;
        plain.kind = ArrayKind::ZCache;
        plain.blocks = kBlocks;
        plain.ways = 4;
        plain.levels = 3;
        plain.policy = pk;
        plain.seed = 99;

        ArraySpec comp = plain;
        comp.kind = ArrayKind::CompressedZ;
        comp.extraTagRatio = 1;
        comp.codec = CodecKind::None;
        comp.lineBytes = 64;

        auto p = zc::makeArray(plain);
        auto c = zc::makeArray(comp);
        auto* pz = dynamic_cast<ZArray*>(p.get());
        auto* cz = dynamic_cast<CompressedZArray*>(c.get());
        ASSERT_NE(pz, nullptr);
        ASSERT_NE(cz, nullptr);

        Pcg32 rng(7);
        for (int i = 0; i < 6000; i++) {
            Addr a = rng.next64() % kFootprint;
            AccessContext ctx;
            ctx.lineAddr = a;
            BlockPos hp = p->access(a, ctx);
            BlockPos hc = c->access(a, ctx);
            ASSERT_EQ(hp, hc) << policyKindName(pk) << ": access " << i;
            if (hp != kInvalidPos) continue;
            Replacement rp = p->insert(a, ctx);
            Replacement rc = c->insert(a, ctx);
            ASSERT_EQ(rp.evictedAddr, rc.evictedAddr)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rp.victimPos, rc.victimPos)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rp.candidates, rc.candidates)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rp.relocations, rc.relocations)
                << policyKindName(pk) << ": access " << i;
            ASSERT_EQ(rc.extraEvictions, 0u)
                << policyKindName(pk) << ": access " << i;
        }

        EXPECT_EQ(cz->sizeMirror().extraEvictions(), 0u);
        EXPECT_EQ(cz->sizeMirror().occupiedBytes(),
                  static_cast<std::uint64_t>(cz->validCount()) * 64);
        const ZWalkStats& sp = pz->walkStats();
        const ZWalkStats& sc = cz->walkStats();
        EXPECT_EQ(sp.walks, sc.walks);
        EXPECT_EQ(sp.candidatesTotal, sc.candidatesTotal);
        EXPECT_EQ(sp.relocationsTotal, sc.relocationsTotal);
        ASSERT_EQ(pz->validCount(), cz->validCount());
        for (BlockPos pos = 0; pos < kBlocks; pos++) {
            ASSERT_EQ(pz->addrAt(pos), cz->addrAt(pos))
                << policyKindName(pk) << ": position " << pos;
        }
    }
}

// ------------------------------------------------------- WayIndexer

// For every kind, the indexer must (a) tabulate exactly the H3 families,
// and (b) agree with the virtual hashes on every way for a large
// address sample — including the batched positionsAll entry point the
// walk actually uses, and the probe/lookupWays of a ZArray built over
// the same family. The shapes cover every way H3 lanes can pack: one
// word (4x256), lanes filling exactly 64 bits (4x65536), a second word
// (8x4096), six words (32x1024), 1-bit lanes (2x2) and 0-bit lanes
// (4x1). The sample leads with 0, ~0 and every single-bit address,
// which reach each of the 16 H3 nibble tables on its own.
TEST(WayIndexer, MatchesVirtualHashesForEveryKind)
{
    struct Shape
    {
        std::uint32_t ways, lines;
    };
    const Shape shapes[] = {{4, 256},   {4, 65536}, {8, 4096},
                            {32, 1024}, {2, 2},     {4, 1}};
    std::vector<Addr> sample = {0, ~Addr{0}};
    for (std::uint32_t k = 0; k < 64; k++) sample.push_back(Addr{1} << k);
    Pcg32 rng(11);
    for (int i = 0; i < 20000; i++) sample.push_back(rng.next64());
    // Each insert runs a replacement walk; a prefix keeps the test fast.
    const std::size_t arraySample = 4096;

    for (const Shape& s : shapes) {
        for (HashKind hk : kAllHashKinds) {
            // Folded XOR needs at least one output bit.
            if (hk == HashKind::FoldedXor && s.lines < 2) continue;
            const std::string label = std::string(hashKindName(hk)) + " " +
                                      std::to_string(s.ways) + "x" +
                                      std::to_string(s.lines);
            auto fam = makeHashFamily(hk, s.ways, s.lines, 0x5eed);
            WayIndexer idx(fam, s.lines);
            EXPECT_EQ(idx.tabulated(), hk == HashKind::H3) << label;
            ZArrayConfig cfg;
            cfg.ways = s.ways;
            cfg.hashKind = hk;
            cfg.seed = 0x5eed;
            const std::uint32_t blocks = s.ways * s.lines;
            ZArray arr(blocks, cfg, makePolicy(PolicyKind::Lru, blocks, 1));

            std::vector<BlockPos> want(s.ways), batched(s.ways),
                listed(s.ways);
            for (std::size_t i = 0; i < sample.size(); i++) {
                const Addr a = sample[i];
                for (std::uint32_t w = 0; w < s.ways; w++) {
                    want[w] =
                        static_cast<BlockPos>(w * s.lines + fam[w]->hash(a));
                }
                idx.positionsAll(a, batched.data());
                ASSERT_EQ(arr.lookupWays(a, listed.data(), s.ways), s.ways)
                    << label;
                for (std::uint32_t w = 0; w < s.ways; w++) {
                    ASSERT_EQ(idx.position(w, a), want[w])
                        << label << " way " << w << " addr " << a;
                    ASSERT_EQ(batched[w], want[w])
                        << label << " way " << w << " addr " << a;
                    ASSERT_EQ(listed[w], want[w])
                        << label << " way " << w << " addr " << a;
                }

                // ~0 is the empty-slot tag, never a resident address.
                if (a == kInvalidAddr || i >= arraySample) continue;
                BlockPos resident = kInvalidPos;
                for (BlockPos p : want) {
                    if (arr.addrAt(p) == a) {
                        resident = p;
                        break;
                    }
                }
                ASSERT_EQ(arr.probe(a), resident) << label << " addr " << a;
                if (resident != kInvalidPos) continue;
                AccessContext ctx;
                ctx.lineAddr = a;
                arr.insert(a, ctx);
                const BlockPos placed = arr.probe(a);
                ASSERT_NE(std::find(want.begin(), want.end(), placed),
                          want.end())
                    << label << " addr " << a;
                ASSERT_EQ(arr.addrAt(placed), a) << label << " addr " << a;
            }
        }
    }
}

// A mixed family must stay on the virtual path — tabulating on the
// first way's type would silently evaluate the wrong function.
TEST(WayIndexer, MixedFamilyFallsBackToGeneric)
{
    const std::uint32_t lines = 256;
    std::vector<HashPtr> fam;
    fam.push_back(makeHash(HashKind::H3, lines, 1));
    fam.push_back(makeHash(HashKind::FoldedXor, lines, 2));
    WayIndexer idx(fam, lines);
    EXPECT_FALSE(idx.tabulated());
    Pcg32 rng(3);
    for (int i = 0; i < 1000; i++) {
        Addr a = rng.next64();
        for (std::uint32_t w = 0; w < 2; w++) {
            EXPECT_EQ(idx.position(w, a),
                      static_cast<BlockPos>(w * lines + fam[w]->hash(a)));
        }
    }
}

} // namespace
} // namespace zc
