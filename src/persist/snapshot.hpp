/**
 * @file
 * Per-shard point-in-time snapshot blobs (docs/durability.md): the
 * compaction unit that lets the op log be truncated behind it.
 *
 * Layout (little-endian, CRC-framed like trace format v2):
 *
 *   Header  28 B  magic "ZKSS" | version u32 | shard u32
 *                 | watermark u64 | count u64
 *   Entries 16 B x count  (key u64, value u64)
 *   Footer   8 B  CRC-32 over header+entries | magic "ZKSE"
 *
 * `watermark` is the shard's last assigned seqno at capture time —
 * taken under the shard lock together with the key enumeration, so the
 * snapshot is exactly the state after applying every op with seqno <=
 * watermark. Recovery loads the snapshot, then replays only log
 * records with seqno > watermark.
 *
 * Snapshots are written whole through FileBackend::atomicWrite
 * (tmp + fsync + rename), so a crash mid-compaction leaves the
 * previous snapshot intact; decode rejects any torn or bit-flipped
 * blob with a structured Truncated/Corruption status and recovery
 * falls back to replaying the full log.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace zc::persist {

constexpr std::uint32_t kSnapMagic = 0x53534b5aU;    ///< "ZKSS"
constexpr std::uint32_t kSnapEndMagic = 0x45534b5aU; ///< "ZKSE"
constexpr std::uint32_t kSnapVersion = 1;

struct SnapshotData
{
    std::uint64_t watermark = 0; ///< last seqno applied to this state
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
};

/** Encode @p snap for shard @p shard as one durable blob. */
std::vector<std::uint8_t> encodeSnapshot(std::uint32_t shard,
                                         const SnapshotData& snap);

/**
 * Decode and verify a snapshot blob. @p expectShard guards against a
 * misplaced file; any size/magic/CRC disagreement is a structured
 * Truncated/Corruption status naming the exact byte offset, checked
 * before the entry vector is allocated (a corrupt count cannot
 * translate into a massive allocation).
 */
Expected<SnapshotData> decodeSnapshot(const std::uint8_t* data,
                                      std::size_t len,
                                      std::uint32_t expectShard);

} // namespace zc::persist
