#include "cache/set_associative_array.hpp"

#include <vector>

#include "common/log.hpp"

namespace zc {

SetAssociativeArray::SetAssociativeArray(
    std::uint32_t num_blocks, std::uint32_t ways,
    std::unique_ptr<ReplacementPolicy> policy, HashPtr index_hash)
    : CacheArray(num_blocks, std::move(policy)),
      ways_(ways),
      sets_(num_blocks / ways),
      indexHash_(std::move(index_hash)),
      tags_(num_blocks, kInvalidAddr)
{
    zc_assert(ways > 0);
    zc_assert(num_blocks % ways == 0);
    zc_assert(indexHash_ != nullptr);
    zc_assert(indexHash_->buckets() == sets_);
}

std::uint64_t
SetAssociativeArray::setOf(Addr lineAddr) const
{
    std::uint64_t set = indexHash_->hash(lineAddr);
    zc_assert(set < sets_);
    return set;
}

BlockPos
SetAssociativeArray::access(Addr lineAddr, const AccessContext& ctx)
{
    std::uint64_t set = setOf(lineAddr);
    // One associative tag lookup reads all W tags of the set.
    stats_->tagReads += ways_;
    BlockPos base = static_cast<BlockPos>(set * ways_);
    for (std::uint32_t w = 0; w < ways_; w++) {
        if (tags_[base + w] == lineAddr) {
            stats_->dataReads++;
            policy_->onHit(base + w, ctx);
            return base + w;
        }
    }
    return kInvalidPos;
}

BlockPos
SetAssociativeArray::probe(Addr lineAddr) const
{
    std::uint64_t set = setOf(lineAddr);
    BlockPos base = static_cast<BlockPos>(set * ways_);
    for (std::uint32_t w = 0; w < ways_; w++) {
        if (tags_[base + w] == lineAddr) return base + w;
    }
    return kInvalidPos;
}

std::uint32_t
SetAssociativeArray::lookupWays(Addr lineAddr, BlockPos* out,
                                std::uint32_t cap) const
{
    if (cap < ways_) return 0;
    BlockPos base = static_cast<BlockPos>(setOf(lineAddr) * ways_);
    for (std::uint32_t w = 0; w < ways_; w++) out[w] = base + w;
    return ways_;
}

Replacement
SetAssociativeArray::insert(Addr lineAddr, const AccessContext& ctx)
{
    zc_assert(lineAddr != kInvalidAddr);
    zc_assert(probe(lineAddr) == kInvalidPos);

    std::uint64_t set = setOf(lineAddr);
    BlockPos base = static_cast<BlockPos>(set * ways_);

    Replacement r;
    r.candidates = ways_;

    // Prefer an empty way; otherwise ask the policy to rank the set.
    BlockPos victim = kInvalidPos;
    for (std::uint32_t w = 0; w < ways_; w++) {
        if (tags_[base + w] == kInvalidAddr) {
            victim = base + w;
            break;
        }
    }
    if (victim == kInvalidPos) {
        std::vector<BlockPos> cands;
        cands.reserve(ways_);
        for (std::uint32_t w = 0; w < ways_; w++) cands.push_back(base + w);
        victim = policy_->select(cands);
        notifyEviction(victim);
        r.evictedAddr = tags_[victim];
        policy_->onEvict(victim);
        valid_--;
    }

    r.victimPos = victim;
    tags_[victim] = lineAddr;
    stats_->tagWrites++;
    stats_->dataWrites++;
    valid_++;
    policy_->onInsert(victim, ctx);
    return r;
}

bool
SetAssociativeArray::invalidate(Addr lineAddr)
{
    BlockPos pos = probe(lineAddr);
    if (pos == kInvalidPos) return false;
    tags_[pos] = kInvalidAddr;
    stats_->tagWrites++;
    policy_->onEvict(pos);
    valid_--;
    return true;
}

Addr
SetAssociativeArray::addrAt(BlockPos pos) const
{
    zc_assert(pos < numBlocks_);
    return tags_[pos];
}

void
SetAssociativeArray::forEachValid(
    const std::function<void(BlockPos, Addr)>& fn) const
{
    for (BlockPos p = 0; p < numBlocks_; p++) {
        if (tags_[p] != kInvalidAddr) fn(p, tags_[p]);
    }
}

std::uint32_t
SetAssociativeArray::validCount() const
{
    return valid_;
}

std::string
SetAssociativeArray::name() const
{
    return "SetAssoc(ways=" + std::to_string(ways_) +
           ", sets=" + std::to_string(sets_) +
           ", index=" + indexHash_->name() +
           ", repl=" + policy_->name() + ")";
}

} // namespace zc
