#include "cache/vway_array.hpp"

#include <vector>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace zc {

VWayArray::VWayArray(std::uint32_t data_blocks, std::uint32_t tag_ratio,
                     std::uint32_t tag_ways,
                     std::uint32_t global_candidates,
                     std::unique_ptr<ReplacementPolicy> policy,
                     HashPtr index_hash, std::uint64_t seed)
    : CacheArray(data_blocks, std::move(policy)),
      tagWays_(tag_ways),
      tagSets_(data_blocks * tag_ratio / tag_ways),
      globalCandidates_(global_candidates),
      indexHash_(std::move(index_hash)),
      tags_(static_cast<std::size_t>(data_blocks) * tag_ratio),
      dataOwner_(data_blocks, kNoTag),
      rng_(seed, /*stream=*/0x632be59bd9b4e019ULL)
{
    zc_assert(tag_ratio >= 1);
    zc_assert(tag_ways >= 1);
    zc_assert((static_cast<std::uint64_t>(data_blocks) * tag_ratio) %
                  tag_ways ==
              0);
    zc_assert(global_candidates >= 1);
    zc_assert(indexHash_ != nullptr);
    zc_assert(indexHash_->buckets() == tagSets_);
    freeData_.reserve(data_blocks);
    for (std::uint32_t p = data_blocks; p > 0; p--) {
        freeData_.push_back(p - 1);
    }
}

std::uint32_t
VWayArray::setBase(Addr lineAddr) const
{
    std::uint64_t set = indexHash_->hash(lineAddr);
    zc_assert(set < tagSets_);
    return static_cast<std::uint32_t>(set * tagWays_);
}

std::uint32_t
VWayArray::findTag(Addr lineAddr) const
{
    std::uint32_t base = setBase(lineAddr);
    for (std::uint32_t w = 0; w < tagWays_; w++) {
        if (tags_[base + w].addr == lineAddr) return base + w;
    }
    return kNoTag;
}

BlockPos
VWayArray::access(Addr lineAddr, const AccessContext& ctx)
{
    stats_->tagReads += tagWays_;
    std::uint32_t t = findTag(lineAddr);
    if (t == kNoTag) return kInvalidPos;
    BlockPos data = tags_[t].dataIdx;
    stats_->dataReads++;
    policy_->onHit(data, ctx);
    return data;
}

BlockPos
VWayArray::probe(Addr lineAddr) const
{
    std::uint32_t t = findTag(lineAddr);
    return t == kNoTag ? kInvalidPos : tags_[t].dataIdx;
}

void
VWayArray::freeDataOfTag(std::uint32_t tag_idx)
{
    TagEntry& e = tags_[tag_idx];
    zc_assert(e.valid());
    dataOwner_[e.dataIdx] = kNoTag;
    freeData_.push_back(e.dataIdx);
    e = TagEntry{};
    stats_->tagWrites++;
}

Replacement
VWayArray::insert(Addr lineAddr, const AccessContext& ctx)
{
    zc_assert(lineAddr != kInvalidAddr);
    zc_assert(probe(lineAddr) == kInvalidPos);

    Replacement r;
    std::uint32_t base = setBase(lineAddr);

    // Find a free tag in the set.
    std::uint32_t tag_idx = kNoTag;
    for (std::uint32_t w = 0; w < tagWays_; w++) {
        if (!tags_[base + w].valid()) {
            tag_idx = base + w;
            break;
        }
    }

    if (tag_idx == kNoTag) {
        // Tag conflict (rare with tag_ratio >= 2): evict the set's
        // least valuable entry and reuse its data block directly.
        tagConflicts_++;
        r.candidates = tagWays_;
        std::vector<BlockPos> cands;
        cands.reserve(tagWays_);
        for (std::uint32_t w = 0; w < tagWays_; w++) {
            cands.push_back(tags_[base + w].dataIdx);
        }
        BlockPos victim_data = policy_->select(cands);
        std::uint32_t victim_tag = dataOwner_[victim_data];
        notifyEviction(victim_data);
        r.evictedAddr = tags_[victim_tag].addr;
        r.victimPos = victim_data;
        policy_->onEvict(victim_data);
        freeDataOfTag(victim_tag);
        tag_idx = victim_tag;
    }

    // Obtain a data block: free one, or global replacement.
    BlockPos data;
    if (!freeData_.empty()) {
        data = freeData_.back();
        freeData_.pop_back();
        if (r.candidates == 0) r.candidates = 1;
    } else {
        // Sample the data store (stand-in for the reuse-counter scan).
        std::vector<BlockPos> cands;
        cands.reserve(globalCandidates_);
        for (std::uint32_t i = 0; i < globalCandidates_; i++) {
            cands.push_back(rng_.below(numBlocks_));
        }
        r.candidates += globalCandidates_;
        data = policy_->select(cands);
        std::uint32_t victim_tag = dataOwner_[data];
        zc_assert(victim_tag != kNoTag);
        notifyEviction(data);
        r.evictedAddr = tags_[victim_tag].addr;
        r.victimPos = data;
        policy_->onEvict(data);
        freeDataOfTag(victim_tag);
        data = freeData_.back();
        freeData_.pop_back();
        stats_->tagReads++; // victim tag access via back-pointer
    }

    tags_[tag_idx] = TagEntry{lineAddr, data};
    dataOwner_[data] = tag_idx;
    stats_->tagWrites++;
    stats_->dataWrites++;
    policy_->onInsert(data, ctx);
    return r;
}

bool
VWayArray::invalidate(Addr lineAddr)
{
    std::uint32_t t = findTag(lineAddr);
    if (t == kNoTag) return false;
    policy_->onEvict(tags_[t].dataIdx);
    freeDataOfTag(t);
    return true;
}

Addr
VWayArray::addrAt(BlockPos pos) const
{
    zc_assert(pos < numBlocks_);
    std::uint32_t owner = dataOwner_[pos];
    return owner == kNoTag ? kInvalidAddr : tags_[owner].addr;
}

void
VWayArray::forEachValid(
    const std::function<void(BlockPos, Addr)>& fn) const
{
    for (BlockPos p = 0; p < numBlocks_; p++) {
        if (dataOwner_[p] != kNoTag) fn(p, tags_[dataOwner_[p]].addr);
    }
}

std::uint32_t
VWayArray::validCount() const
{
    return numBlocks_ - static_cast<std::uint32_t>(freeData_.size());
}

std::string
VWayArray::name() const
{
    return "VWay(data=" + std::to_string(numBlocks_) + ", tags=" +
           std::to_string(tags_.size()) + "x" + std::to_string(tagWays_) +
           "w, sample=" + std::to_string(globalCandidates_) +
           ", repl=" + policy_->name() + ")";
}

} // namespace zc
