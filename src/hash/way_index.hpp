/**
 * @file
 * Per-way index computation for skewed/zcache arrays.
 *
 * A W-way zcache lookup evaluates W hash functions per access, and every
 * walk level evaluates W-1 more per expanded node. WayIndexer has two
 * evaluations. A family whose ways are all H3 is tabulated (below) and
 * never calls a virtual function on the hot path; every other family
 * (folded-XOR, bit-select, the strong mixer, SHA-1, a mixed family)
 * calls the virtual HashFunction::hash() per position. The virtual
 * hierarchy stays the only definition of every function: the table is
 * built from hash() calls, and test_walk_equivalence.cpp compares the
 * table with hash() for every way the lanes can pack.
 *
 * H3 is tabulated. Each way's H3 function is linear over GF(2), so an
 * address's hash is the XOR of the hashes of its 16 nibbles in place:
 * h(a) = XOR_k h(nibble_k(a) << 4k). The indexer calls H3Hash::hash()
 * on all 16 x 16 nibble values once and stores the results as 16
 * tables of 16 words. Each word packs floor(64 / outBits) ways' hashes
 * side by side as outBits-wide lanes, so one pass of 16 loads and XORs
 * yields the positions of that many ways at once. A word costs 2 KB of
 * table; every array with at most 5 ways of up to 4096 lines needs just
 * one, and for those a Cursor unpacks all W positions of an address
 * from its one word, lane by lane, without a callback.
 *
 * Positions are returned in the array's flat BlockPos space:
 * way * linesPerWay + hash_way(addr).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "hash/h3_hash.hpp"
#include "hash/hash_function.hpp"

namespace zc {

class WayIndexer
{
  public:
    WayIndexer() = default;

    WayIndexer(const std::vector<HashPtr>& hashes,
               std::uint32_t lines_per_way)
    {
        build(hashes, lines_per_way);
    }

    /**
     * Snapshot the family. An H3 family is tabulated and need not
     * outlive the indexer; any other family is kept as raw pointers and
     * must.
     */
    void
    build(const std::vector<HashPtr>& hashes, std::uint32_t lines_per_way)
    {
        zc_assert(!hashes.empty());
        zc_assert(isPow2(lines_per_way));
        ways_ = static_cast<std::uint32_t>(hashes.size());
        linesPerWay_ = lines_per_way;
        mask_ = lines_per_way - 1;
        outBits_ = log2Floor(lines_per_way);
        h3Table_.clear();
        virtual_.clear();

        // Tabulate only when every way is H3; a mixed family stays on
        // hash().
        const bool all_h3 =
            std::all_of(hashes.begin(), hashes.end(), [](const HashPtr& h) {
                return dynamic_cast<const H3Hash*>(h.get()) != nullptr;
            });
        if (!all_h3) {
            for (const auto& h : hashes) virtual_.push_back(h.get());
            return;
        }
        // With 0-bit lanes (one line per way) every hash is 0 and all
        // ways share one word.
        lanes_ = outBits_ ? std::min(64 / outBits_, ways_) : ways_;
        const std::uint32_t words = (ways_ + lanes_ - 1) / lanes_;
        h3Table_.assign(std::size_t{words} * kWordTable, 0);
        for (std::uint32_t w = 0; w < ways_; w++) {
            std::uint64_t* t = &h3Table_[(w / lanes_) * kWordTable];
            const std::uint32_t shift = (w % lanes_) * outBits_;
            for (std::uint32_t k = 0; k < kNibbles; k++) {
                for (std::uint64_t v = 0; v < 16; v++) {
                    t[k * 16 + v] |= hashes[w]->hash(v << (4 * k)) << shift;
                }
            }
        }
    }

    std::uint32_t ways() const { return ways_; }

    /** Whether the family is H3 and evaluated from the table. */
    bool tabulated() const { return !h3Table_.empty(); }

    /** Position of @p lineAddr in @p way (flat BlockPos space). */
    BlockPos
    position(std::uint32_t way, Addr lineAddr) const
    {
        const std::uint64_t h =
            tabulated() ? (h3Word(way / lanes_, lineAddr) >>
                           ((way % lanes_) * outBits_)) &
                              mask_
                        : virtual_[way]->hash(lineAddr);
        return static_cast<BlockPos>(way * linesPerWay_ + h);
    }

    /**
     * Visit the W way positions of @p lineAddr in way order, calling
     * @p fn(way, pos) until it returns true. The table evaluates one
     * packed word per group of ways; hash() runs only for the ways
     * visited.
     */
    template <typename Fn>
    void
    forEachPosition(Addr lineAddr, Fn&& fn) const
    {
        if (!tabulated()) {
            for (std::uint32_t w = 0; w < ways_; w++) {
                if (fn(w, static_cast<BlockPos>(
                              w * linesPerWay_ +
                              virtual_[w]->hash(lineAddr)))) {
                    return;
                }
            }
            return;
        }
        for (std::uint32_t w = 0, word = 0; w < ways_; word++) {
            std::uint64_t lanes = h3Word(word, lineAddr);
            const std::uint32_t end = std::min(ways_, w + lanes_);
            for (; w < end; w++, lanes >>= outBits_) {
                if (fn(w, static_cast<BlockPos>(w * linesPerWay_ +
                                                (lanes & mask_)))) {
                    return;
                }
            }
        }
    }

    /**
     * A loop's view of addresses' W positions, taken in way order
     * without a callback (the replacement walk's loop): start(addr),
     * then next() returns way w's position on its (w+1)-th call. When
     * one packed H3 word holds every way, next() unpacks the positions
     * from that word; any other family computes them into the buffer
     * given to cursor() first. Make one per loop, not per address, so
     * that the family's geometry stays in registers.
     */
    class Cursor
    {
      public:
        void
        start(Addr lineAddr)
        {
            if (packed_) {
                lanes_ = ix_.h3Word(0, lineAddr);
                base_ = 0;
            } else {
                ix_.positionsAll(lineAddr, buf_);
                at_ = buf_;
            }
        }

        BlockPos
        next()
        {
            if (!packed_) return *at_++;
            const BlockPos pos = base_ + static_cast<BlockPos>(lanes_ & mask_);
            lanes_ >>= bits_;
            base_ += lines_;
            return pos;
        }

      private:
        friend class WayIndexer;
        Cursor(const WayIndexer& ix, BlockPos* buf)
            : ix_(ix),
              buf_(buf),
              packed_(ix.tabulated() && ix.lanes_ >= ix.ways_),
              mask_(ix.mask_),
              bits_(ix.outBits_),
              lines_(ix.linesPerWay_)
        {
        }

        const WayIndexer& ix_;
        BlockPos* const buf_;
        const bool packed_;
        const std::uint64_t mask_;
        const std::uint32_t bits_;
        const std::uint32_t lines_;
        std::uint64_t lanes_ = 0; ///< packed lanes of the ways not taken
        BlockPos base_ = 0;       ///< first line of the next way
        const BlockPos* at_ = nullptr;
    };

    /**
     * A cursor over this family's positions; @p buf (ways() entries)
     * holds them for families that are not unpacked from one word.
     */
    Cursor cursor(BlockPos* buf) const { return Cursor(*this, buf); }

    /**
     * Compute all W way positions of @p lineAddr in one batched call.
     * @p out must hold ways() entries.
     */
    void
    positionsAll(Addr lineAddr, BlockPos* out) const
    {
        forEachPosition(lineAddr, [out](std::uint32_t w, BlockPos pos) {
            out[w] = pos;
            return false;
        });
    }

  private:
    /// Nibbles in an address; each has 16 values, one table entry each.
    static constexpr std::uint32_t kNibbles = 16;
    static constexpr std::size_t kWordTable = kNibbles * 16;

    // The packed H3 lanes of word @p word: XOR of one table entry per
    // address nibble.
    std::uint64_t
    h3Word(std::uint32_t word, Addr lineAddr) const
    {
        const std::uint64_t* t = &h3Table_[word * kWordTable];
        std::uint64_t out = 0;
        for (std::uint32_t k = 0; k < kNibbles; k++, t += 16) {
            out ^= t[(lineAddr >> (4 * k)) & 15];
        }
        return out;
    }

    std::uint32_t ways_ = 0;
    std::uint32_t linesPerWay_ = 0;
    std::uint32_t outBits_ = 0;
    std::uint32_t lanes_ = 1; ///< H3 ways packed per table word
    std::uint64_t mask_ = 0;
    /// H3 nibble tables, word-major: word j's entry for nibble k, value
    /// v at j * kWordTable + k * 16 + v. Empty for a non-H3 family.
    std::vector<std::uint64_t> h3Table_;
    std::vector<const HashFunction*> virtual_; ///< non-H3 family (non-owning)
};

} // namespace zc
