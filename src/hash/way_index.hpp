/**
 * @file
 * Devirtualized per-way index computation for skewed/zcache arrays.
 *
 * A W-way zcache lookup evaluates W hash functions per access, and every
 * walk level evaluates W-1 more per expanded node — on the hot path this
 * made the virtual HashFunction::hash() call the single largest source
 * of call overhead in the simulator. WayIndexer inspects a hash family
 * once at construction: when every way is the same concrete type (H3,
 * folded-XOR, bit-select or the strong mixer) it evaluates the family
 * with direct, inlinable code; otherwise it falls back to the virtual
 * interface. The virtual HashFunction hierarchy stays the source of
 * truth for factories and tests — WayIndexer is a pure evaluation
 * cache, and test_walk_equivalence.cpp proves both paths bit-identical
 * for every hash kind.
 *
 * H3 is tabulated. Each way's H3 function is linear over GF(2), so an
 * address's hash is the XOR of the hashes of its 16 nibbles in place:
 * h(a) = XOR_k h(nibble_k(a) << 4k). The indexer calls H3Hash::hash()
 * on all 16 x 16 nibble values once and stores the results as 16
 * tables of 16 words. Each word packs floor(64 / outBits) ways' hashes
 * side by side as outBits-wide lanes, so one pass of 16 loads and XORs
 * yields the positions of that many ways at once. A word costs 2 KB of
 * table; every array with at most 5 ways of up to 4096 lines needs just
 * one.
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
#include "hash/bit_select_hash.hpp"
#include "hash/folded_xor_hash.hpp"
#include "hash/h3_hash.hpp"
#include "hash/hash_function.hpp"
#include "hash/strong_hash.hpp"

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
     * Snapshot the family's state. @p hashes must outlive this indexer
     * only in Generic mode (raw pointers are kept); the specialized
     * modes copy or tabulate everything they need.
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

        mode_ = detect(hashes);
        h3Table_.clear();
        salts_.clear();
        seeds_.clear();
        generic_.clear();
        switch (mode_) {
          case Mode::H3: {
            // With 0-bit lanes (one line per way) every hash is 0 and
            // all ways share one word.
            lanes_ = outBits_ ? std::min(64 / outBits_, ways_) : ways_;
            const std::uint32_t words = (ways_ + lanes_ - 1) / lanes_;
            h3Table_.assign(std::size_t{words} * kWordTable, 0);
            for (std::uint32_t w = 0; w < ways_; w++) {
                std::uint64_t* t = &h3Table_[(w / lanes_) * kWordTable];
                const std::uint32_t shift = (w % lanes_) * outBits_;
                for (std::uint32_t k = 0; k < kNibbles; k++) {
                    for (std::uint64_t v = 0; v < 16; v++) {
                        t[k * 16 + v] |= hashes[w]->hash(v << (4 * k))
                                         << shift;
                    }
                }
            }
            break;
          }
          case Mode::FoldedXor:
            for (const auto& h : hashes) {
                salts_.push_back(
                    static_cast<const FoldedXorHash&>(*h).saltConstant());
            }
            break;
          case Mode::Strong:
            for (const auto& h : hashes) {
                seeds_.push_back(
                    static_cast<const StrongHash&>(*h).seed());
            }
            break;
          case Mode::BitSelect:
            break; // the mask is the whole state
          case Mode::Generic:
            for (const auto& h : hashes) generic_.push_back(h.get());
            break;
        }
    }

    std::uint32_t ways() const { return ways_; }

    /** Position of @p lineAddr in @p way (flat BlockPos space). */
    BlockPos
    position(std::uint32_t way, Addr lineAddr) const
    {
        std::uint64_t h;
        switch (mode_) {
          case Mode::H3:
            h = (h3Word(way / lanes_, lineAddr) >>
                 ((way % lanes_) * outBits_)) &
                mask_;
            break;
          case Mode::FoldedXor:
            h = foldedOne(lineAddr + salts_[way]);
            break;
          case Mode::BitSelect:
            h = lineAddr & mask_;
            break;
          case Mode::Strong:
            h = strongOne(lineAddr, seeds_[way]);
            break;
          default:
            h = generic_[way]->hash(lineAddr);
            break;
        }
        return static_cast<BlockPos>(way * linesPerWay_ + h);
    }

    /**
     * Visit the W way positions of @p lineAddr in way order, calling
     * @p fn(way, pos) until it returns true. One mode dispatch for the
     * whole family; H3 evaluates one packed table word per group of
     * ways, and the other modes compute each position only when it is
     * visited.
     */
    template <typename Fn>
    void
    forEachPosition(Addr lineAddr, Fn&& fn) const
    {
        switch (mode_) {
          case Mode::H3:
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
            return;
          case Mode::FoldedXor:
            for (std::uint32_t w = 0; w < ways_; w++) {
                if (fn(w, static_cast<BlockPos>(
                              w * linesPerWay_ +
                              foldedOne(lineAddr + salts_[w])))) {
                    return;
                }
            }
            return;
          case Mode::BitSelect:
            for (std::uint32_t w = 0; w < ways_; w++) {
                if (fn(w, static_cast<BlockPos>(w * linesPerWay_ +
                                                (lineAddr & mask_)))) {
                    return;
                }
            }
            return;
          case Mode::Strong:
            for (std::uint32_t w = 0; w < ways_; w++) {
                if (fn(w, static_cast<BlockPos>(
                              w * linesPerWay_ +
                              strongOne(lineAddr, seeds_[w])))) {
                    return;
                }
            }
            return;
          default:
            for (std::uint32_t w = 0; w < ways_; w++) {
                if (fn(w, static_cast<BlockPos>(
                              w * linesPerWay_ +
                              generic_[w]->hash(lineAddr)))) {
                    return;
                }
            }
            return;
        }
    }

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

    /** Evaluation mode, for tests and telemetry. */
    const char*
    modeName() const
    {
        switch (mode_) {
          case Mode::H3: return "h3-table";
          case Mode::FoldedXor: return "fxor-batched";
          case Mode::BitSelect: return "bitsel-batched";
          case Mode::Strong: return "strong-batched";
          default: return "generic-virtual";
        }
    }

    bool devirtualized() const { return mode_ != Mode::Generic; }

  private:
    enum class Mode { Generic, H3, FoldedXor, BitSelect, Strong };

    /// Nibbles in an address; each has 16 values, one table entry each.
    static constexpr std::uint32_t kNibbles = 16;
    static constexpr std::size_t kWordTable = kNibbles * 16;

    static Mode
    detect(const std::vector<HashPtr>& hashes)
    {
        // Specialize only when every way is the same concrete type; a
        // mixed family (bespoke test fixtures) stays on the virtual path.
        if (allOf<H3Hash>(hashes)) return Mode::H3;
        if (allOf<FoldedXorHash>(hashes)) return Mode::FoldedXor;
        if (allOf<BitSelectHash>(hashes)) return Mode::BitSelect;
        if (allOf<StrongHash>(hashes)) return Mode::Strong;
        return Mode::Generic;
    }

    template <typename T>
    static bool
    allOf(const std::vector<HashPtr>& hashes)
    {
        for (const auto& h : hashes) {
            if (dynamic_cast<const T*>(h.get()) == nullptr) return false;
        }
        return true;
    }

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

    // Mirrors FoldedXorHash::hash() with the salt pre-added.
    std::uint64_t
    foldedOne(std::uint64_t v) const
    {
        std::uint64_t out = 0;
        while (v != 0) {
            out ^= v & mask_;
            v >>= outBits_;
        }
        return out;
    }

    // Mirrors StrongHash::hash().
    std::uint64_t
    strongOne(Addr lineAddr, std::uint64_t seed) const
    {
        std::uint64_t z = lineAddr + seed * 0x9e3779b97f4a7c15ULL +
                          0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z = z ^ (z >> 31);
        return z & mask_;
    }

    Mode mode_ = Mode::Generic;
    std::uint32_t ways_ = 0;
    std::uint32_t linesPerWay_ = 0;
    std::uint32_t outBits_ = 0;
    std::uint32_t lanes_ = 1; ///< H3 ways packed per table word
    std::uint64_t mask_ = 0;
    /// H3 nibble tables, word-major: word j's entry for nibble k, value
    /// v at j * kWordTable + k * 16 + v.
    std::vector<std::uint64_t> h3Table_;
    std::vector<std::uint64_t> salts_;  ///< folded-XOR additive constants
    std::vector<std::uint64_t> seeds_;  ///< strong-mixer seeds
    std::vector<const HashFunction*> generic_; ///< fallback (non-owning)
};

} // namespace zc
