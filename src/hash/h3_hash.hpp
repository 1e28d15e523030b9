/**
 * @file
 * H3 universal hash family (Carter & Wegman, 1977).
 *
 * The paper (Section III-C) uses H3 functions to index each zcache way:
 * low-cost, pairwise-independent, a few XOR gates per output bit in
 * hardware. Software formulation: output bit i is the parity of
 * (addr & q_i) for a random 64-bit row q_i of a per-function matrix.
 *
 * Different ways get statistically independent functions by drawing each
 * matrix from a seeded Pcg32 stream.
 *
 * Matrix members are drawn with an identity component on the low
 * out_bits address bits (row i always includes bit i): addresses that
 * differ only in those bits can then never collide, and — decisive for
 * small arrays like TLBs — the matrix restricted to any input subspace
 * containing the low bits keeps full rank, so no way loses buckets to
 * an unlucky rank-deficient projection. This is still an H3 member
 * (a few XOR gates per output bit); it just excludes the degenerate
 * corner of the family.
 *
 * hash() is the only definition of the function. Because it is linear
 * over GF(2), WayIndexer (hash/way_index.hpp) tabulates it from hash()
 * calls on nibble-sized inputs instead of reading the matrix; H3 is the
 * one family it tabulates, and the tests compare the table with hash().
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "hash/hash_function.hpp"

namespace zc {

class H3Hash final : public HashFunction
{
  public:
    /**
     * @param buckets Number of buckets; must be a power of two.
     * @param seed Seed selecting the random matrix (each way uses a
     *             distinct seed).
     */
    H3Hash(std::uint64_t buckets, std::uint64_t seed)
        : buckets_(buckets), seed_(seed)
    {
        zc_assert(isPow2(buckets));
        std::uint32_t out_bits = log2Floor(buckets);
        Pcg32 rng(seed, /*stream=*/0x9e3779b97f4a7c15ULL);
        rows_.resize(out_bits);
        std::uint64_t low_mask =
            (out_bits >= 64) ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << out_bits) - 1);
        for (std::uint32_t i = 0; i < out_bits; i++) {
            // Random high part, identity on the low out_bits bits.
            rows_[i] = (rng.next64() & ~low_mask) | (std::uint64_t{1} << i);
        }
    }

    std::uint64_t
    hash(Addr lineAddr) const override
    {
        std::uint64_t out = 0;
        for (std::size_t i = 0; i < rows_.size(); i++) {
            out |= static_cast<std::uint64_t>(popcount(lineAddr & rows_[i]) &
                                              1u)
                   << i;
        }
        return out;
    }

    std::uint64_t buckets() const override { return buckets_; }

    std::string
    name() const override
    {
        return "H3(seed=" + std::to_string(seed_) + ")";
    }

  private:
    std::uint64_t buckets_;
    std::uint64_t seed_;
    std::vector<std::uint64_t> rows_;
};

} // namespace zc
