#include "cache/fully_associative_array.hpp"

#include <vector>

#include "common/log.hpp"

namespace zc {

FullyAssociativeArray::FullyAssociativeArray(
    std::uint32_t num_blocks, std::unique_ptr<ReplacementPolicy> policy)
    : CacheArray(num_blocks, std::move(policy)),
      tags_(num_blocks, kInvalidAddr)
{
    index_.reserve(num_blocks);
    freeList_.reserve(num_blocks);
    // Fill the free list so that positions are handed out low-first.
    for (std::uint32_t p = num_blocks; p > 0; p--) {
        freeList_.push_back(p - 1);
    }
}

BlockPos
FullyAssociativeArray::access(Addr lineAddr, const AccessContext& ctx)
{
    stats_->tagReads++; // one CAM search
    auto it = index_.find(lineAddr);
    if (it == index_.end()) return kInvalidPos;
    stats_->dataReads++;
    policy_->onHit(it->second, ctx);
    return it->second;
}

BlockPos
FullyAssociativeArray::probe(Addr lineAddr) const
{
    auto it = index_.find(lineAddr);
    return it == index_.end() ? kInvalidPos : it->second;
}

BlockPos
FullyAssociativeArray::pickVictim()
{
    std::vector<BlockPos> cands;
    cands.reserve(index_.size());
    for (const auto& [addr, pos] : index_) cands.push_back(pos);
    return policy_->select(cands);
}

Replacement
FullyAssociativeArray::insert(Addr lineAddr, const AccessContext& ctx)
{
    zc_assert(lineAddr != kInvalidAddr);
    zc_assert(probe(lineAddr) == kInvalidPos);

    Replacement r;
    BlockPos pos;
    if (!freeList_.empty()) {
        pos = freeList_.back();
        freeList_.pop_back();
        r.candidates = 1;
    } else {
        pos = pickVictim();
        r.candidates = static_cast<std::uint32_t>(index_.size());
        notifyEviction(pos);
        r.evictedAddr = tags_[pos];
        policy_->onEvict(pos);
        index_.erase(tags_[pos]);
    }

    r.victimPos = pos;
    tags_[pos] = lineAddr;
    index_.emplace(lineAddr, pos);
    stats_->tagWrites++;
    stats_->dataWrites++;
    policy_->onInsert(pos, ctx);
    return r;
}

bool
FullyAssociativeArray::invalidate(Addr lineAddr)
{
    auto it = index_.find(lineAddr);
    if (it == index_.end()) return false;
    BlockPos pos = it->second;
    index_.erase(it);
    tags_[pos] = kInvalidAddr;
    freeList_.push_back(pos);
    stats_->tagWrites++;
    policy_->onEvict(pos);
    return true;
}

Addr
FullyAssociativeArray::addrAt(BlockPos pos) const
{
    zc_assert(pos < numBlocks_);
    return tags_[pos];
}

void
FullyAssociativeArray::forEachValid(
    const std::function<void(BlockPos, Addr)>& fn) const
{
    for (const auto& [addr, pos] : index_) fn(pos, addr);
}

std::uint32_t
FullyAssociativeArray::validCount() const
{
    return static_cast<std::uint32_t>(index_.size());
}

std::string
FullyAssociativeArray::name() const
{
    return "FullyAssoc(blocks=" + std::to_string(numBlocks_) +
           ", repl=" + policy_->name() + ")";
}

} // namespace zc
