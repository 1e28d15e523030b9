/**
 * @file
 * Bucketed LRU (paper Section III-E, the policy used in the evaluation).
 *
 * Space-efficient LRU approximation: timestamps are n bits wide and the
 * global counter only increments once every k accesses (the paper uses
 * k = 5% of the cache size and n = 8). Ages are computed in mod-2^n
 * arithmetic so a block that survives a wrap-around simply looks young
 * again — rare by construction.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "replacement/policy.hpp"

namespace zc {

class BucketedLruPolicy : public ReplacementPolicy
{
  public:
    /**
     * @param num_blocks Blocks tracked.
     * @param timestamp_bits Width n of the per-block timestamp (1..32).
     * @param accesses_per_tick k: counter increments every k accesses.
     *        0 selects the paper default of 5% of the cache size.
     */
    BucketedLruPolicy(std::uint32_t num_blocks,
                      std::uint32_t timestamp_bits = 8,
                      std::uint64_t accesses_per_tick = 0)
        : ReplacementPolicy(num_blocks),
          tsBits_(timestamp_bits),
          tsMask_((timestamp_bits >= 32)
                      ? 0xffffffffu
                      : ((1u << timestamp_bits) - 1)),
          accessesPerTick_(accesses_per_tick
                               ? accesses_per_tick
                               : std::max<std::uint64_t>(1, num_blocks / 20)),
          timestamps_(num_blocks, 0),
          seq_(num_blocks, 0)
    {
        zc_assert(timestamp_bits >= 1 && timestamp_bits <= 32);
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
        seq_[to] = seq_[from];
    }

    void
    onEvict(BlockPos pos) override
    {
        timestamps_[pos] = counter_ & tsMask_;
        seq_[pos] = 0;
    }

    void
    onSwap(BlockPos a, BlockPos b) override
    {
        std::swap(timestamps_[a], timestamps_[b]);
        std::swap(seq_[a], seq_[b]);
    }

    /** Keep-value: negative mod-2^n age relative to the current counter. */
    double
    score(BlockPos pos) const override
    {
        return -static_cast<double>(age(pos));
    }

    /**
     * Victim selection sees only the coarse buckets, with position as
     * the arbitrary (hardware-like) tie-break — narrow timestamps must
     * genuinely cost accuracy, or the Section III-E design-space claim
     * would hold vacuously.
     */
    BlockPos
    select(std::span<const BlockPos> cands) override
    {
        zc_assert(!cands.empty());
        // The oldest bucket wins; the first candidate wins a tie.
        BlockPos best = cands[0];
        std::uint32_t bestAge = age(best);
        for (std::size_t i = 1; i < cands.size(); i++) {
            const std::uint32_t a = age(cands[i]);
            if (a > bestAge) {
                best = cands[i];
                bestAge = a;
            }
        }
        return best;
    }

    /**
     * Within a bucket (same coarse timestamp) ties are broken by a
     * fine-grained access sequence so the Section IV rank is still a
     * total order. This refinement is for measurement only; select()
     * above deliberately ignores it.
     */
    std::uint64_t tieBreaker(BlockPos pos) const override
    {
        return seq_[pos];
    }

    std::string name() const override { return "bucketed-lru"; }

    std::uint64_t accessesPerTick() const { return accessesPerTick_; }
    std::uint32_t timestampBits() const { return tsBits_; }

  private:
    /** Mod-2^n age of @p pos's bucket relative to the counter. */
    std::uint32_t
    age(BlockPos pos) const
    {
        return (static_cast<std::uint32_t>(counter_) - timestamps_[pos]) &
               tsMask_;
    }

    void
    touch(BlockPos pos)
    {
        accesses_++;
        // The counter ticks on every k-th access, k = accessesPerTick_.
        if (--untilTick_ == 0) {
            counter_++;
            untilTick_ = accessesPerTick_;
        }
        timestamps_[pos] = static_cast<std::uint32_t>(counter_) & tsMask_;
        seq_[pos] = accesses_;
    }

    std::uint32_t tsBits_;
    std::uint32_t tsMask_;
    std::uint64_t accessesPerTick_;
    std::uint64_t accesses_ = 0;
    std::uint64_t untilTick_ = accessesPerTick_; ///< accesses to the next tick
    std::uint64_t counter_ = 0;
    std::vector<std::uint32_t> timestamps_;
    std::vector<std::uint64_t> seq_;
};

} // namespace zc
