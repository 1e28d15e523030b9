/**
 * @file
 * Full LRU via global timestamps (paper Section III-E, "Full LRU").
 *
 * A global access counter is incremented on every touch and stored in the
 * touched block's timestamp field. The replacement candidate with the
 * lowest timestamp is evicted. With 64-bit timestamps wrap-around never
 * happens in practice; comparisons are still done as ages relative to the
 * current counter so the policy is also correct under forced small widths
 * (see BucketedLruPolicy, which reuses this machinery).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "replacement/policy.hpp"

namespace zc {

class LruPolicy : public ReplacementPolicy
{
  public:
    explicit LruPolicy(std::uint32_t num_blocks)
        : ReplacementPolicy(num_blocks), timestamps_(num_blocks, 0)
    {
    }

    void
    onInsert(BlockPos pos, const AccessContext&) override
    {
        touch(pos);
    }

    void
    onHit(BlockPos pos, const AccessContext&) override
    {
        touch(pos);
    }

    void
    onMove(BlockPos from, BlockPos to) override
    {
        timestamps_[to] = timestamps_[from];
    }

    void
    onEvict(BlockPos pos) override
    {
        timestamps_[pos] = 0;
    }

    void
    onSwap(BlockPos a, BlockPos b) override
    {
        std::swap(timestamps_[a], timestamps_[b]);
    }

    /**
     * Keep-value: negative age. The oldest block has the most negative
     * score and is evicted first.
     */
    double
    score(BlockPos pos) const override
    {
        return -static_cast<double>(*clock_ - timestamps_[pos]);
    }

    std::string name() const override { return "lru"; }

    std::uint64_t timestampOf(BlockPos pos) const { return timestamps_[pos]; }
    std::uint64_t counter() const { return *clock_; }

    /**
     * Keep the global access counter at @p slot from now on instead of
     * inside the policy; its count moves with it. Every touch writes
     * the counter, so the store puts it on its shard's hot cache line
     * (docs/store.md, "Shard layout"). @p slot must outlive the policy.
     */
    void
    placeClock(std::uint64_t* slot)
    {
        *slot = *clock_;
        clock_ = slot;
    }

  protected:
    void
    touch(BlockPos pos)
    {
        timestamps_[pos] = ++*clock_;
    }

    std::uint64_t* clock_ = &ownClock_; ///< see placeClock()
    std::vector<std::uint64_t> timestamps_;

  private:
    std::uint64_t ownClock_ = 0;
};

} // namespace zc
