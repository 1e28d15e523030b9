/**
 * @file
 * Abstract cache array.
 *
 * Per the paper's model (Section IV-A) a cache splits into a *cache array*
 * — which implements associative lookup and, on a replacement, produces a
 * list of replacement candidates — and a *replacement policy*, which ranks
 * blocks globally. CacheArray is the array half; it owns a
 * ReplacementPolicy and drives it through the position-based notification
 * protocol in replacement/policy.hpp.
 *
 * Arrays expose a flat BlockPos space of numBlocks() positions; the
 * mapping from position to physical (way, line) or (set, way) is private
 * to each implementation.
 *
 * All operations account tag/data array reads and writes in stats() so
 * that energy (Section III-B's E_miss formula) and bandwidth (Section
 * VI-D) analyses can be layered on without touching the arrays.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/log.hpp"
#include "common/stats_registry.hpp"
#include "common/types.hpp"
#include "replacement/policy.hpp"

namespace zc {

/** Tag/data array traffic counters (per array). */
struct ArrayStats
{
    std::uint64_t tagReads = 0;
    std::uint64_t tagWrites = 0;
    std::uint64_t dataReads = 0;
    std::uint64_t dataWrites = 0;

    void
    reset()
    {
        tagReads = tagWrites = dataReads = dataWrites = 0;
    }
};

/** Outcome of a replacement (miss-path insertion). */
struct Replacement
{
    /** Address evicted, or kInvalidAddr if an empty slot absorbed the
     *  fill. */
    Addr evictedAddr = kInvalidAddr;

    /** Position the victim occupied before any relocation. */
    BlockPos victimPos = kInvalidPos;

    /** Replacement candidates examined (R in Section III-B). */
    std::uint32_t candidates = 0;

    /** Block relocations performed (m in Section III-B; 0 for
     *  non-zcache arrays). */
    std::uint32_t relocations = 0;

    /**
     * Additional victims evicted beyond the walk's own, to satisfy a
     * byte budget (compressed arrays' makeSpace, docs/compression.md;
     * 0 for every uncompressed array).
     */
    std::uint32_t extraEvictions = 0;

    bool evictedValid() const { return evictedAddr != kInvalidAddr; }
};

class CacheArray
{
  public:
    /**
     * Called immediately before a *valid* block is evicted on a
     * replacement, with the victim's current position. Used by the
     * Section IV framework to compute eviction priorities. Invalidations
     * (coherence) do not trigger the observer: they are not replacement
     * decisions.
     */
    using EvictionObserver =
        std::function<void(const CacheArray&, BlockPos victim)>;

    CacheArray(std::uint32_t num_blocks,
               std::unique_ptr<ReplacementPolicy> policy)
        : numBlocks_(num_blocks), policy_(std::move(policy))
    {
        zc_assert(num_blocks > 0);
        zc_assert(policy_ != nullptr);
        zc_assert(policy_->numBlocks() == num_blocks);
    }

    virtual ~CacheArray() = default;

    CacheArray(const CacheArray&) = delete;
    CacheArray& operator=(const CacheArray&) = delete;

    std::uint32_t numBlocks() const { return numBlocks_; }

    /**
     * Look up @p lineAddr; on a hit, touch the replacement policy and
     * return the block's position; on a miss return kInvalidPos.
     */
    virtual BlockPos access(Addr lineAddr, const AccessContext& ctx) = 0;

    /**
     * Probe without updating replacement state (e.g. coherence probes,
     * tests). Returns position or kInvalidPos. Does not count traffic.
     */
    virtual BlockPos probe(Addr lineAddr) const = 0;

    /**
     * Enumerate every position @p lineAddr could legally occupy — the W
     * first-level way positions in a zcache/skew array, the indexed
     * set's W slots in a set-associative one. Writes at most @p cap
     * positions to @p out and returns the count, or 0 if the array kind
     * does not support candidate-position enumeration (the default).
     *
     * The contract that makes this usable from a lock-free reader: the
     * result depends only on @p lineAddr and construction-time state
     * (hash matrices, geometry), never on the array's mutable contents,
     * and the call touches no mutable state and counts no traffic. A
     * resident block always sits in one of these positions — zcache
     * relocations only ever move a block between its own candidate
     * positions (Section III-A).
     */
    virtual std::uint32_t
    lookupWays(Addr lineAddr, BlockPos* out, std::uint32_t cap) const
    {
        (void)lineAddr;
        (void)out;
        (void)cap;
        return 0;
    }

    /**
     * Miss path: select a victim among this array's replacement
     * candidates, evict it, make room (relocations in a zcache) and
     * install @p lineAddr. @p lineAddr must not be resident.
     */
    virtual Replacement insert(Addr lineAddr, const AccessContext& ctx) = 0;

    /**
     * Remove @p lineAddr if present (coherence invalidation / back-
     * invalidation). Returns true iff the block was resident.
     */
    virtual bool invalidate(Addr lineAddr) = 0;

    /** Address resident at @p pos, or kInvalidAddr. */
    virtual Addr addrAt(BlockPos pos) const = 0;

    /** Enumerate all valid blocks. */
    virtual void
    forEachValid(const std::function<void(BlockPos, Addr)>& fn) const = 0;

    /** Number of currently valid blocks. */
    virtual std::uint32_t validCount() const = 0;

    /** Human-readable configuration string. */
    virtual std::string name() const = 0;

    ReplacementPolicy& policy() { return *policy_; }
    const ReplacementPolicy& policy() const { return *policy_; }

    const ArrayStats& stats() const { return *stats_; }
    virtual void resetStats() { stats_->reset(); }

    /**
     * Keep this array's ArrayStats at @p slot from now on instead of
     * inside the object; the counts so far move with them. The store
     * puts them on its shard's hot cache line (docs/store.md, "Shard
     * layout"). @p slot must outlive the array.
     */
    void
    placeStats(ArrayStats* slot)
    {
        *slot = *stats_;
        stats_ = slot;
    }

    /**
     * Register this array's stats into @p g (zsim's initStats idiom).
     * The base registers the common tag/data traffic counters and
     * occupancy; subclasses extend with design-specific stats (walk
     * statistics, victim-buffer hits, ...). Call at most once per array
     * per group — names are unique and re-registration throws. The
     * array must outlive the group.
     */
    virtual void
    registerStats(StatGroup& g)
    {
        g.addString("name", "array configuration", [this] {
            return name();
        });
        g.addCounter("blocks", "total block capacity",
                     [this] { return std::uint64_t{numBlocks_}; });
        g.addCounter("valid_blocks", "currently valid blocks", [this] {
            return std::uint64_t{validCount()};
        });
        g.addCounter("tag_reads", "tag-array read operations",
                     [this] { return stats_->tagReads; });
        g.addCounter("tag_writes", "tag-array write operations",
                     [this] { return stats_->tagWrites; });
        g.addCounter("data_reads", "data-array read operations",
                     [this] { return stats_->dataReads; });
        g.addCounter("data_writes", "data-array write operations",
                     [this] { return stats_->dataWrites; });
        g.addResetHook([this] { resetStats(); });
    }

    void
    setEvictionObserver(EvictionObserver obs)
    {
        observer_ = std::move(obs);
    }

  protected:
    void
    notifyEviction(BlockPos victim) const
    {
        if (observer_) observer_(*this, victim);
    }

    std::uint32_t numBlocks_;
    std::unique_ptr<ReplacementPolicy> policy_;
    ArrayStats* stats_ = &ownStats_; ///< see placeStats()
    EvictionObserver observer_;

  private:
    ArrayStats ownStats_;
};

} // namespace zc
