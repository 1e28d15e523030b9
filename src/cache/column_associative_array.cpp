#include "cache/column_associative_array.hpp"

#include <vector>

#include "common/log.hpp"

namespace zc {

ColumnAssociativeArray::ColumnAssociativeArray(
    std::uint32_t num_blocks, std::unique_ptr<ReplacementPolicy> policy)
    : CacheArray(num_blocks, std::move(policy)),
      tags_(num_blocks, kInvalidAddr),
      rehash_(num_blocks, 0)
{
    zc_assert(num_blocks >= 2);
    zc_assert(isPow2(num_blocks));
}

BlockPos
ColumnAssociativeArray::primary(Addr lineAddr) const
{
    return static_cast<BlockPos>(lineAddr & (numBlocks_ - 1));
}

void
ColumnAssociativeArray::swap(BlockPos a, BlockPos b)
{
    std::swap(tags_[a], tags_[b]);
    std::swap(rehash_[a], rehash_[b]);
    policy_->onSwap(a, b);
    stats_->tagReads += 2;
    stats_->tagWrites += 2;
    stats_->dataReads += 2;
    stats_->dataWrites += 2;
}

BlockPos
ColumnAssociativeArray::access(Addr lineAddr, const AccessContext& ctx)
{
    BlockPos p1 = primary(lineAddr);
    stats_->tagReads++;
    if (tags_[p1] == lineAddr) {
        stats_->dataReads++;
        policy_->onHit(p1, ctx);
        return p1;
    }

    // Second probe (variable hit latency — the design's cost).
    BlockPos p2 = secondary(lineAddr);
    stats_->tagReads++;
    if (tags_[p2] != lineAddr) return kInvalidPos;

    secondaryHits_++;
    if (tags_[p1] != kInvalidAddr) {
        // Swap so the hot block is found on the first probe next time.
        swap(p1, p2);
        rehash_[p1] = 0;
        rehash_[p2] = 1;
    } else {
        tags_[p1] = lineAddr;
        tags_[p2] = kInvalidAddr;
        rehash_[p1] = 0;
        policy_->onMove(p2, p1);
        stats_->tagWrites += 2;
        stats_->dataReads++;
        stats_->dataWrites++;
    }
    stats_->dataReads++;
    policy_->onHit(p1, ctx);
    return p1;
}

BlockPos
ColumnAssociativeArray::probe(Addr lineAddr) const
{
    BlockPos p1 = primary(lineAddr);
    if (tags_[p1] == lineAddr) return p1;
    BlockPos p2 = secondary(lineAddr);
    if (tags_[p2] == lineAddr) return p2;
    return kInvalidPos;
}

Replacement
ColumnAssociativeArray::insert(Addr lineAddr, const AccessContext& ctx)
{
    zc_assert(lineAddr != kInvalidAddr);
    zc_assert(probe(lineAddr) == kInvalidPos);

    BlockPos p1 = primary(lineAddr);
    BlockPos p2 = secondary(lineAddr);

    Replacement r;
    r.candidates = 2;

    BlockPos slot;
    if (tags_[p1] == kInvalidAddr) {
        slot = p1;
        r.candidates = 1;
    } else if (tags_[p2] == kInvalidAddr) {
        slot = p2;
    } else {
        std::vector<BlockPos> cands{p1, p2};
        slot = policy_->select(cands);
        notifyEviction(slot);
        r.evictedAddr = tags_[slot];
        policy_->onEvict(slot);
        valid_--;
    }

    r.victimPos = slot;
    tags_[slot] = lineAddr;
    rehash_[slot] = (slot == p2) ? 1 : 0;
    stats_->tagWrites++;
    stats_->dataWrites++;
    valid_++;
    policy_->onInsert(slot, ctx);
    return r;
}

bool
ColumnAssociativeArray::invalidate(Addr lineAddr)
{
    BlockPos pos = probe(lineAddr);
    if (pos == kInvalidPos) return false;
    tags_[pos] = kInvalidAddr;
    rehash_[pos] = 0;
    stats_->tagWrites++;
    policy_->onEvict(pos);
    valid_--;
    return true;
}

Addr
ColumnAssociativeArray::addrAt(BlockPos pos) const
{
    zc_assert(pos < numBlocks_);
    return tags_[pos];
}

void
ColumnAssociativeArray::forEachValid(
    const std::function<void(BlockPos, Addr)>& fn) const
{
    for (BlockPos p = 0; p < numBlocks_; p++) {
        if (tags_[p] != kInvalidAddr) fn(p, tags_[p]);
    }
}

std::uint32_t
ColumnAssociativeArray::validCount() const
{
    return valid_;
}

std::string
ColumnAssociativeArray::name() const
{
    return "ColumnAssoc(blocks=" + std::to_string(numBlocks_) +
           ", repl=" + policy_->name() + ")";
}

} // namespace zc
