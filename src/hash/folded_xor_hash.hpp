/**
 * @file
 * Folded-XOR index hash.
 *
 * Cheap alternative to H3: XOR together log2(buckets)-wide slices of the
 * address. Common in real designs (e.g. XOR-based bank interleaving).
 * Included as a mid-quality point between bit selection and H3 for the
 * hash-quality ablations. A zcache over this family evaluates it through
 * the virtual hash() (hash/way_index.hpp tabulates only H3).
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "hash/hash_function.hpp"

namespace zc {

class FoldedXorHash final : public HashFunction
{
  public:
    /**
     * @param buckets Power-of-two bucket count.
     * @param salt Optional constant *added* into the address first,
     *             letting different ways use distinct functions. (An
     *             XORed salt would merely XOR a constant into the
     *             output — the same function up to relabeling; addition
     *             propagates carries across fold boundaries.)
     */
    explicit FoldedXorHash(std::uint64_t buckets, std::uint64_t salt = 0)
        : buckets_(buckets), salt_(salt * 0x9e3779b97f4a7c15ULL)
    {
        zc_assert(isPow2(buckets));
        outBits_ = log2Floor(buckets);
        zc_assert(outBits_ > 0);
    }

    std::uint64_t
    hash(Addr lineAddr) const override
    {
        std::uint64_t v = lineAddr + salt_;
        std::uint64_t out = 0;
        while (v != 0) {
            out ^= v & (buckets_ - 1);
            v >>= outBits_;
        }
        return out;
    }

    std::uint64_t buckets() const override { return buckets_; }

    std::string name() const override { return "FoldedXor"; }

  private:
    std::uint64_t buckets_;
    std::uint64_t salt_;
    std::uint32_t outBits_;
};

} // namespace zc
