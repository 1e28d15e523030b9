#include "cache/victim_cache_array.hpp"

#include <vector>

#include "common/log.hpp"

namespace zc {

VictimCacheArray::VictimCacheArray(std::uint32_t main_blocks,
                                   std::uint32_t ways,
                                   std::uint32_t victim_blocks,
                                   std::unique_ptr<ReplacementPolicy> policy,
                                   HashPtr index_hash)
    : CacheArray(main_blocks + victim_blocks, std::move(policy)),
      mainBlocks_(main_blocks),
      ways_(ways),
      sets_(main_blocks / ways),
      victimBlocks_(victim_blocks),
      indexHash_(std::move(index_hash)),
      tags_(main_blocks + victim_blocks, kInvalidAddr)
{
    zc_assert(ways >= 1);
    zc_assert(main_blocks % ways == 0);
    zc_assert(victim_blocks >= 1);
    zc_assert(indexHash_ != nullptr);
    zc_assert(indexHash_->buckets() == sets_);
    victimIndex_.reserve(victim_blocks);
}

std::uint64_t
VictimCacheArray::setOf(Addr lineAddr) const
{
    std::uint64_t set = indexHash_->hash(lineAddr);
    zc_assert(set < sets_);
    return set;
}

BlockPos
VictimCacheArray::probeMain(Addr lineAddr) const
{
    BlockPos base = static_cast<BlockPos>(setOf(lineAddr) * ways_);
    for (std::uint32_t w = 0; w < ways_; w++) {
        if (tags_[base + w] == lineAddr) return base + w;
    }
    return kInvalidPos;
}

BlockPos
VictimCacheArray::probeVictim(Addr lineAddr) const
{
    auto it = victimIndex_.find(lineAddr);
    return it == victimIndex_.end() ? kInvalidPos : it->second;
}

BlockPos
VictimCacheArray::probe(Addr lineAddr) const
{
    BlockPos p = probeMain(lineAddr);
    return p != kInvalidPos ? p : probeVictim(lineAddr);
}

BlockPos
VictimCacheArray::access(Addr lineAddr, const AccessContext& ctx)
{
    stats_->tagReads += ways_;
    BlockPos pos = probeMain(lineAddr);
    if (pos != kInvalidPos) {
        stats_->dataReads++;
        policy_->onHit(pos, ctx);
        return pos;
    }

    // Main miss: probe the victim buffer (one CAM search).
    stats_->tagReads++;
    BlockPos vpos = probeVictim(lineAddr);
    if (vpos == kInvalidPos) return kInvalidPos;

    // Victim hit: promote into the main set; the displaced main block
    // (if the set is full) parks in the freed buffer slot — the classic
    // swap, expressed as evict-from-buffer + move + re-insert.
    victimHits_++;
    victimIndex_.erase(lineAddr);
    tags_[vpos] = kInvalidAddr;
    policy_->onEvict(vpos);
    valid_--;

    BlockPos base = static_cast<BlockPos>(setOf(lineAddr) * ways_);
    BlockPos mpos = kInvalidPos;
    for (std::uint32_t w = 0; w < ways_; w++) {
        if (tags_[base + w] == kInvalidAddr) {
            mpos = base + w;
            break;
        }
    }
    if (mpos == kInvalidPos) {
        std::vector<BlockPos> cands;
        cands.reserve(ways_);
        for (std::uint32_t w = 0; w < ways_; w++) cands.push_back(base + w);
        mpos = policy_->select(cands);
        Addr displaced = tags_[mpos];
        tags_[vpos] = displaced;
        victimIndex_.emplace(displaced, vpos);
        policy_->onMove(mpos, vpos);
        tags_[mpos] = kInvalidAddr;
        stats_->tagWrites++;
        stats_->dataReads++;
        stats_->dataWrites++;
    }

    tags_[mpos] = lineAddr;
    stats_->tagWrites++;
    stats_->dataReads++; // serve the hit from the promoted block
    stats_->dataWrites++;
    valid_++;
    policy_->onInsert(mpos, ctx);
    return mpos;
}

void
VictimCacheArray::parkInVictim(Addr addr, BlockPos from_main,
                               Replacement* r)
{
    // Find a free buffer slot, or evict the buffer's worst block.
    BlockPos slot = kInvalidPos;
    for (BlockPos p = mainBlocks_; p < numBlocks_; p++) {
        if (tags_[p] == kInvalidAddr) {
            slot = p;
            break;
        }
    }
    if (slot == kInvalidPos) {
        std::vector<BlockPos> cands;
        cands.reserve(victimBlocks_);
        for (BlockPos p = mainBlocks_; p < numBlocks_; p++) {
            cands.push_back(p);
        }
        slot = policy_->select(cands);
        r->candidates += victimBlocks_;
        notifyEviction(slot);
        r->evictedAddr = tags_[slot];
        r->victimPos = slot;
        victimIndex_.erase(tags_[slot]);
        policy_->onEvict(slot);
        valid_--;
    }

    tags_[slot] = addr;
    victimIndex_.emplace(addr, slot);
    policy_->onMove(from_main, slot);
    tags_[from_main] = kInvalidAddr;
    stats_->tagWrites++;
    stats_->dataReads++;
    stats_->dataWrites++;
    r->relocations++;
}

Replacement
VictimCacheArray::insert(Addr lineAddr, const AccessContext& ctx)
{
    zc_assert(lineAddr != kInvalidAddr);
    zc_assert(probe(lineAddr) == kInvalidPos);

    Replacement r;
    r.candidates = ways_;

    BlockPos base = static_cast<BlockPos>(setOf(lineAddr) * ways_);
    BlockPos mpos = kInvalidPos;
    for (std::uint32_t w = 0; w < ways_; w++) {
        if (tags_[base + w] == kInvalidAddr) {
            mpos = base + w;
            break;
        }
    }
    if (mpos == kInvalidPos) {
        std::vector<BlockPos> cands;
        cands.reserve(ways_);
        for (std::uint32_t w = 0; w < ways_; w++) cands.push_back(base + w);
        mpos = policy_->select(cands);
        parkInVictim(tags_[mpos], mpos, &r);
    }
    if (r.victimPos == kInvalidPos) r.victimPos = mpos;

    tags_[mpos] = lineAddr;
    stats_->tagWrites++;
    stats_->dataWrites++;
    valid_++;
    policy_->onInsert(mpos, ctx);
    return r;
}

bool
VictimCacheArray::invalidate(Addr lineAddr)
{
    BlockPos pos = probeMain(lineAddr);
    if (pos == kInvalidPos) {
        pos = probeVictim(lineAddr);
        if (pos == kInvalidPos) return false;
        victimIndex_.erase(lineAddr);
    }
    tags_[pos] = kInvalidAddr;
    stats_->tagWrites++;
    policy_->onEvict(pos);
    valid_--;
    return true;
}

Addr
VictimCacheArray::addrAt(BlockPos pos) const
{
    zc_assert(pos < numBlocks_);
    return tags_[pos];
}

void
VictimCacheArray::forEachValid(
    const std::function<void(BlockPos, Addr)>& fn) const
{
    for (BlockPos p = 0; p < numBlocks_; p++) {
        if (tags_[p] != kInvalidAddr) fn(p, tags_[p]);
    }
}

std::uint32_t
VictimCacheArray::validCount() const
{
    return valid_;
}

std::string
VictimCacheArray::name() const
{
    return "VictimCache(main=" + std::to_string(mainBlocks_) + "x" +
           std::to_string(ways_) + "w, victims=" +
           std::to_string(victimBlocks_) + ", index=" + indexHash_->name() +
           ", repl=" + policy_->name() + ")";
}

} // namespace zc
