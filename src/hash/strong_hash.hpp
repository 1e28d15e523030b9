/**
 * @file
 * Strong 64-bit mixing hash (SplitMix64 finalizer).
 *
 * Section IV-C notes that replacing H3 with SHA-1 makes measured
 * associativity distributions indistinguishable from the uniformity
 * assumption. This full-avalanche 64-bit finalizer has the property the
 * experiment needs (every output bit depends on every input bit,
 * negligible correlation across seeds) at a tiny fraction of SHA-1's
 * cost; fig3's `--strong-hash` flag uses the real SHA-1 (hash/sha1.hpp).
 * A zcache over this family evaluates it through the virtual hash()
 * (hash/way_index.hpp tabulates only H3).
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "hash/hash_function.hpp"

namespace zc {

class StrongHash final : public HashFunction
{
  public:
    StrongHash(std::uint64_t buckets, std::uint64_t seed)
        : buckets_(buckets), seed_(seed)
    {
        zc_assert(isPow2(buckets));
    }

    std::uint64_t
    hash(Addr lineAddr) const override
    {
        std::uint64_t z = lineAddr + seed_ * 0x9e3779b97f4a7c15ULL +
                          0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z = z ^ (z >> 31);
        return z & (buckets_ - 1);
    }

    std::uint64_t buckets() const override { return buckets_; }

    std::string
    name() const override
    {
        return "Strong(seed=" + std::to_string(seed_) + ")";
    }

  private:
    std::uint64_t buckets_;
    std::uint64_t seed_;
};

} // namespace zc
