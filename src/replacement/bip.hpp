/**
 * @file
 * BIP — bimodal insertion (Qureshi et al.; the paper's related-work
 * line of better-than-LRU policies [14, 23, 24, 44]).
 *
 * LRU with a different *insertion* point: most fills enter at the LRU
 * end (old timestamp) and only an ε fraction at the MRU end, so a
 * thrashing working set cannot flush the cache — a block must prove
 * reuse (hit once) to gain recency. Needs no set ordering, which makes
 * it a natural zcache policy; `bench/ablation_replacement`-style
 * comparisons and the art-like thrash profiles exercise it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "replacement/lru.hpp"

namespace zc {

class BipPolicy final : public LruPolicy
{
  public:
    /**
     * @param epsilon Probability a fill is inserted with MRU recency
     *        (the classic value is 1/32).
     */
    explicit BipPolicy(std::uint32_t num_blocks, double epsilon = 1.0 / 32,
                       std::uint64_t seed = 0xb1b)
        : LruPolicy(num_blocks), epsilon_(epsilon), rng_(seed)
    {
    }

    void
    onInsert(BlockPos pos, const AccessContext& ctx) override
    {
        if (rng_.uniform() < epsilon_) {
            LruPolicy::onInsert(pos, ctx); // MRU insertion
            return;
        }
        // LRU-end insertion: the counter still advances (this was an
        // access) but the block gets the floor timestamp, making it
        // older than every normally-touched block — the next natural
        // victim unless it hits first. Ties among LRU-inserted blocks
        // break by position, as a per-set hardware BIP would.
        ++*clock_;
        timestamps_[pos] = 1;
    }

    std::string name() const override { return "bip"; }

  private:
    double epsilon_;
    Pcg32 rng_;
};

} // namespace zc
