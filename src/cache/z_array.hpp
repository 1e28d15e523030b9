/**
 * @file
 * The zcache array (Section III) — the paper's primary contribution.
 *
 * Like a skew-associative cache, each of the W ways is indexed by a
 * different hash function and a block can live in exactly one position
 * per way, so hits cost a single W-way lookup. On a replacement, the
 * array *walks* the tag array: the blocks conflicting with the incoming
 * address are first-level candidates; each of those blocks could instead
 * move to its position in any other way, whose current occupants become
 * second-level candidates; and so on — a breadth-first expansion that
 * yields R = W * sum_{l=0}^{L-1} (W-1)^l candidates after L levels. The
 * victim is the policy's best candidate anywhere in the tree; its
 * ancestors are relocated one step down their path to make room, and the
 * incoming block lands in the first-level slot of the victim's root way.
 *
 * Extensions from Section III-D are implemented and selectable:
 *  - early stop (candidate cap) — trades associativity for bandwidth;
 *  - Bloom-filter repeat avoidance;
 *  - DFS (cuckoo-style single-path) walks;
 *  - hybrid BFS+DFS: a second BFS phase tries to re-insert the phase-1
 *    victim, doubling candidates without extra walk-table state.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/bloom_filter.hpp"
#include "cache/cache_array.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "hash/hash_factory.hpp"
#include "hash/hash_function.hpp"
#include "hash/way_index.hpp"

namespace zc {

/** Walk strategy (Section III-D, "Alternative walk strategies"). */
enum class WalkStrategy {
    Bfs,    ///< breadth-first (paper default; hardware walk table)
    Dfs,    ///< depth-first single path (cuckoo-hashing style)
    Hybrid, ///< BFS, then a second BFS rooted at the phase-1 victim
};

/** ZArray configuration. */
struct ZArrayConfig
{
    std::uint32_t ways = 4;

    /**
     * Walk levels L (BFS/Hybrid). L=1 degenerates to a skew-associative
     * cache (first-level candidates only). For Hybrid, each phase uses
     * `levels` levels.
     */
    std::uint32_t levels = 2;

    /**
     * Early-stop cap on replacement candidates (0 = no cap). Models
     * stopping the walk when bandwidth or energy becomes a concern
     * (Section III, "the replacement process can be stopped early").
     */
    std::uint32_t maxCandidates = 0;

    WalkStrategy strategy = WalkStrategy::Bfs;

    /** Avoid re-expanding visited addresses (Section III-D). */
    bool bloomRepeatFilter = false;

    /** Hash family used to index the ways. */
    HashKind hashKind = HashKind::H3;

    /** Seed for hash matrices and the DFS path choice. */
    std::uint64_t seed = 0x5eed;

    /**
     * Walk-event trace: keep the last traceCapacity replacement events
     * in a ring buffer (0 = tracing off, zero overhead). Gives direct
     * visibility into the Section III-B replacement process: per walk,
     * the levels expanded, candidates seen, victim depth, the victim's
     * eviction-priority rank among the candidates, and whether the
     * walk's latency hides under the triggering miss's memory latency.
     */
    std::uint32_t traceCapacity = 0;

    /** Tag access latency (cycles) for the per-walk latency estimate. */
    std::uint32_t traceTagCycles = 2;

    /**
     * Miss latency budget (cycles) a walk must fit under to count as
     * hidden — Table I's 200-cycle memory latency by default.
     */
    std::uint32_t traceMissLatencyCycles = 200;
};

/** One traced replacement walk (ZArrayConfig::traceCapacity > 0). */
struct WalkEvent
{
    std::uint32_t candidates = 0;  ///< replacement candidates examined
    std::uint32_t levels = 0;      ///< walk-tree levels expanded
    std::uint32_t victimDepth = 0; ///< victim's level == relocations done
    /**
     * Number of examined candidates the policy preferred to evict over
     * the chosen victim (0 = victim was the best seen). Nonzero when an
     * empty slot absorbed the fill mid-walk or a capped/hybrid walk
     * settled for a worse block.
     */
    std::uint32_t evictionRank = 0;
    std::uint32_t latencyCycles = 0; ///< estimated pipelined walk latency
    bool emptyAbsorbed = false;      ///< fill landed in an empty slot
    bool capped = false;             ///< early-stopped by maxCandidates
    bool hiddenUnderMissLatency = false; ///< latency fits under the miss
};

/** Streaming aggregate over all traced walk events (not just the ring). */
struct WalkTraceSummary
{
    std::uint64_t events = 0;
    std::uint64_t hidden = 0;
    std::uint64_t capped = 0;
    std::uint64_t emptyAbsorbed = 0;
    RunningStat candidates;
    RunningStat victimDepth;
    RunningStat evictionRank;
    RunningStat latencyCycles;
};

/** Aggregate walk statistics (for energy and bandwidth analyses). */
struct ZWalkStats
{
    std::uint64_t walks = 0;            ///< replacements performed
    std::uint64_t candidatesTotal = 0;  ///< sum of candidates over walks
    std::uint64_t relocationsTotal = 0; ///< sum of relocations over walks
    std::uint64_t repeatsTotal = 0;     ///< candidates skipped/repeated
    std::uint64_t emptyAbsorbed = 0;    ///< fills absorbed by empty slots

    double
    avgCandidates() const
    {
        return walks ? static_cast<double>(candidatesTotal) /
                           static_cast<double>(walks)
                     : 0.0;
    }

    double
    avgRelocations() const
    {
        return walks ? static_cast<double>(relocationsTotal) /
                           static_cast<double>(walks)
                     : 0.0;
    }
};

/**
 * A set of block positions that empties in O(1), for the walk's
 * candidate dedup: position p is in the set iff stamps_[p] == epoch_.
 * clear() bumps the epoch instead of touching the stamps. When the
 * uint32 epoch wraps, the stamps are re-zeroed so a stamp from 2^32
 * clears ago can never read as current. Stamps start at 0 and the
 * epoch at 1, so a fresh set is empty.
 */
class EpochSet
{
  public:
    /** A set over positions [0, @p positions). */
    explicit EpochSet(std::size_t positions) : stamps_(positions, 0) {}

    void
    clear()
    {
        if (++epoch_ == 0) {
            std::fill(stamps_.begin(), stamps_.end(), 0u);
            epoch_ = 1;
        }
    }

    /** Add @p pos; true when it was not in the set yet. */
    bool
    insert(BlockPos pos)
    {
        if (stamps_[pos] == epoch_) return false;
        stamps_[pos] = epoch_;
        return true;
    }

  private:
    std::vector<std::uint32_t> stamps_;
    std::uint32_t epoch_ = 1;
};

class ZArray : public CacheArray
{
  public:
    /**
     * @param num_blocks Total blocks; must be ways * 2^k.
     * @param cfg Walk/hash configuration.
     * @param policy Replacement policy (sized num_blocks).
     */
    ZArray(std::uint32_t num_blocks, const ZArrayConfig& cfg,
           std::unique_ptr<ReplacementPolicy> policy);

    /**
     * Construct with explicit per-way hash functions (one per way, each
     * over linesPerWay buckets). Used by tests that need fully
     * deterministic walk trees — e.g. the golden reproduction of the
     * paper's Fig. 1 example — and by callers with bespoke families.
     */
    ZArray(std::uint32_t num_blocks, const ZArrayConfig& cfg,
           std::unique_ptr<ReplacementPolicy> policy,
           std::vector<HashPtr> hashes);

    BlockPos access(Addr lineAddr, const AccessContext& ctx) override;
    BlockPos probe(Addr lineAddr) const override;
    std::uint32_t lookupWays(Addr lineAddr, BlockPos* out,
                             std::uint32_t cap) const override;
    Replacement insert(Addr lineAddr, const AccessContext& ctx) override;
    bool invalidate(Addr lineAddr) override;

    Addr addrAt(BlockPos pos) const override;
    void forEachValid(
        const std::function<void(BlockPos, Addr)>& fn) const override;
    std::uint32_t validCount() const override;
    std::string name() const override;

    std::uint32_t ways() const { return cfg_.ways; }
    std::uint32_t linesPerWay() const { return linesPerWay_; }
    const ZArrayConfig& config() const { return cfg_; }
    const ZWalkStats& walkStats() const { return zstats_; }

    /** Streaming aggregate over every traced walk (tracing enabled). */
    const WalkTraceSummary& walkTraceSummary() const { return traceSummary_; }

    /** Retained ring-buffer events, oldest first. */
    std::vector<WalkEvent> walkTraceSnapshot() const;

    bool walkTraceEnabled() const { return cfg_.traceCapacity > 0; }

    void registerStats(StatGroup& g) override;

    void
    resetStats() override
    {
        CacheArray::resetStats();
        zstats_ = ZWalkStats{};
        trace_.clear();
        traceHead_ = 0;
        traceSummary_ = WalkTraceSummary{};
    }

    /**
     * Adjust the early-stop candidate cap at run time (0 = uncapped).
     * Supports the paper's future-work direction of adaptive /
     * software-controlled associativity: "the zcache makes it trivial
     * to increase or reduce associativity with the same hardware
     * design" (Section VIII). See examples/adaptive_assoc.cpp.
     */
    void
    setMaxCandidates(std::uint32_t cap)
    {
        cfg_.maxCandidates = cap;
        sizeWalkBuffers();
    }

    /**
     * Nominal replacement candidates R for a W-way, L-level BFS walk
     * with no repeats: R = W * sum_{l=0}^{L-1} (W-1)^l (Section III-B).
     */
    static std::uint32_t nominalCandidates(std::uint32_t ways,
                                           std::uint32_t levels);

    /**
     * Pipelined walk latency in tag-access units (Section III-B):
     * T_walk = sum_{l=0}^{L-1} max(T_tag, (W-1)^l).
     */
    static std::uint32_t walkLatency(std::uint32_t ways,
                                     std::uint32_t levels,
                                     std::uint32_t tag_cycles);

  private:
    /** One walk-table entry. Parent links give the relocation path. */
    struct WalkNode
    {
        Addr addr; ///< occupant at walk time; kInvalidAddr if empty slot
        BlockPos pos;
        std::uint32_t way;
        std::int32_t parent; ///< index into nodes_, -1 for first level
        bool repeat; ///< Bloom filter saw this address before (III-D)
    };

    /** What a walk leaves for the trace and the commit. */
    struct Walk
    {
        std::uint32_t victim;     ///< index into nodes_
        std::uint32_t candidates; ///< nodes pushed, both hybrid phases
        bool capped;              ///< early-stopped by maxCandidates
    };

    Walk walk(Addr incoming);
    /** Most nodes one walk can push under the current configuration. */
    std::uint32_t walkBound() const;
    void sizeWalkBuffers();
    std::uint32_t selectAmong(std::uint32_t begin, std::uint32_t end,
                              std::int32_t extra_idx);
    Replacement commit(Addr lineAddr, const AccessContext& ctx,
                       std::uint32_t victim_idx, std::uint32_t candidates);
    std::uint32_t nodeDepth(std::int32_t idx) const;
    void recordWalkEvent(const Walk& w);

    ZArrayConfig cfg_;
    std::uint32_t linesPerWay_;
    std::vector<HashPtr> hashes_;
    WayIndexer wayIndex_; ///< batched view of hashes_
    std::vector<Addr> tags_;
    std::uint32_t valid_ = 0;
    Pcg32 rng_;
    BloomFilter bloom_;
    ZWalkStats zstats_;

    // Walk scratch (the hardware walk table and the candidate list),
    // written by index and sized to walkBound(): they only grow, when
    // setMaxCandidates() raises the bound.
    std::vector<WalkNode> nodes_;
    std::vector<BlockPos> cands_;
    std::vector<std::uint32_t> candNode_;
    // One address's W positions, for the walk's WayIndexer::Cursor.
    std::vector<BlockPos> wayPos_;

    // Candidate dedup for selectAmong and recordWalkEvent, sized to the
    // bank.
    EpochSet seen_;

    // Walk-event trace ring buffer (cfg_.traceCapacity entries).
    std::vector<WalkEvent> trace_;
    std::size_t traceHead_ = 0;
    WalkTraceSummary traceSummary_;
};

} // namespace zc
