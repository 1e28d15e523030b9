/**
 * @file
 * PersistTier: the per-shard write-behind durability tier for ZkvStore
 * (docs/durability.md).
 *
 * One writer thread per shard drains a bounded SPSC queue of OpRecords
 * (enqueued under the shard lock, so queue order == apply order ==
 * disk order) into an append-only CRC-framed log segment, fsyncing per
 * the configured policy. A full queue applies *explicit* backpressure:
 * `block` stalls the producer until space frees, `drop` counts the
 * record and leaves a seqno gap as on-disk evidence — never a silent
 * loss.
 *
 * Compaction runs on a dedicated snapshot thread: rotate the log
 * segment *first*, then capture the shard image (under the shard lock,
 * via the store's walk-free iteration API), then atomically publish
 * the snapshot and delete the old segments. Rotation-before-capture is
 * the correctness argument: every record in an old segment was
 * assigned its seqno before the capture, hence seqno <= watermark,
 * hence covered by the snapshot.
 *
 * The snapshot thread is deliberately NOT the writer thread: a
 * producer blocked on a full queue holds the shard lock that the
 * capture needs, and only the writer can drain that queue — capture on
 * the writer would deadlock. Lock order: producers take shard lock
 * then queue mutex; the writer takes queue mutex or sink mutex (never
 * a shard lock); the snapshot thread takes the sink mutex and the
 * shard lock strictly one at a time, never nested.
 *
 * Recovery (`recover`) replays snapshot-then-log per shard, salvages a
 * torn or corrupt tail with truncate+warn exactly like
 * runner/journal.cpp, reports seqno gaps with exact byte offsets, and
 * returns an Expected<RecoveryReport> the caller can dump as JSON.
 *
 * Fault sites (docs/robustness.md): persist.append, persist.fsync,
 * persist.snapshot, persist.recover.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/stats_registry.hpp"
#include "common/status.hpp"
#include "persist/oplog.hpp"
#include "persist/file_sink.hpp"
#include "persist/snapshot.hpp"

namespace zc::persist {

/** When does an appended record become durable? */
enum class FsyncPolicy {
    Always,   ///< group-commit fsync per drained batch; acks wait
    Interval, ///< fsync at most every fsyncIntervalMs; bounded loss
    Never,    ///< OS page cache decides; fastest, weakest
};

/** What happens when a shard's persist queue is full? */
enum class Backpressure {
    Block, ///< stall the producer (under the shard lock) until space
    Drop,  ///< count the drop; the seqno gap is the on-disk evidence
};

const char* fsyncPolicyName(FsyncPolicy p);
Expected<FsyncPolicy> parseFsyncPolicy(const std::string& s);
const char* backpressureName(Backpressure b);
Expected<Backpressure> parseBackpressure(const std::string& s);

struct PersistConfig
{
    /** Data directory; empty = persistence disabled (the default). */
    std::string dataDir;

    FsyncPolicy fsync = FsyncPolicy::Always;
    std::uint32_t fsyncIntervalMs = 50; ///< Interval policy only

    /** Snapshot+compact a shard after this many logged ops; 0 = off. */
    std::uint64_t snapshotEveryOps = 0;

    std::size_t queueCap = 4096; ///< per-shard op queue capacity
    Backpressure backpressure = Backpressure::Block;

    bool enabled() const { return !dataDir.empty(); }
    Status validate() const;
};

/** Point-in-time snapshot of one shard's persist counters. */
struct PersistShardCounters
{
    std::uint64_t enqueued = 0;  ///< records accepted into the queue
    std::uint64_t dropped = 0;   ///< records rejected (backpressure=drop)
    std::uint64_t blocked = 0;   ///< producer stalls (backpressure=block)
    std::uint64_t appended = 0;  ///< records written to the log
    std::uint64_t appendBytes = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t snapshotRecords = 0;
    std::uint64_t appendErrors = 0;
    std::uint64_t fsyncErrors = 0;
    std::uint64_t snapshotErrors = 0;
    std::uint64_t discardedAfterError = 0; ///< drained post-failure
    std::uint64_t appendNs = 0;   ///< writer phase: log append
    std::uint64_t fsyncNs = 0;    ///< writer phase: durability point
    std::uint64_t snapshotNs = 0; ///< writer phase: snapshot publish
    std::uint64_t lastSeqno = 0;
    std::uint64_t durableSeqno = 0;
    std::uint64_t queueDepth = 0;
};

/** PersistShardCounters' counters, in stats-tree order. */
inline constexpr CounterField<PersistShardCounters> kPersistCounters[] = {
    {"enqueued", "op records accepted into persist queues",
     &PersistShardCounters::enqueued},
    {"dropped", "op records dropped by backpressure=drop",
     &PersistShardCounters::dropped},
    {"blocked", "producer stalls under backpressure=block",
     &PersistShardCounters::blocked},
    {"appended", "op records written to shard logs",
     &PersistShardCounters::appended},
    {"append_bytes", "log bytes appended",
     &PersistShardCounters::appendBytes},
    {"fsyncs", "log durability points", &PersistShardCounters::fsyncs},
    {"snapshots", "compaction snapshots published",
     &PersistShardCounters::snapshots},
    {"snapshot_records", "entries captured across snapshots",
     &PersistShardCounters::snapshotRecords},
    {"append_errors", "failed log appends",
     &PersistShardCounters::appendErrors},
    {"fsync_errors", "failed log fsyncs", &PersistShardCounters::fsyncErrors},
    {"snapshot_errors", "failed snapshot publishes",
     &PersistShardCounters::snapshotErrors},
    {"discarded_after_error", "records drained after a sticky writer failure",
     &PersistShardCounters::discardedAfterError},
};

/** The writer-thread phase times, the stats tree's `phase` group. */
inline constexpr CounterField<PersistShardCounters> kPersistPhaseCounters[] = {
    {"append_ns", "time in log append", &PersistShardCounters::appendNs},
    {"fsync_ns", "time in fsync/fdatasync", &PersistShardCounters::fsyncNs},
    {"snapshot_ns", "time in snapshot capture+publish",
     &PersistShardCounters::snapshotNs},
};

/** One seqno discontinuity found at recovery (drop evidence). */
struct SeqnoGap
{
    std::uint64_t segment = 0;    ///< log segment number
    std::uint64_t byteOffset = 0; ///< offset of the record after the gap
    std::uint64_t prevSeqno = 0;
    std::uint64_t nextSeqno = 0;
};

struct ShardRecovery
{
    std::uint32_t shard = 0;
    bool snapshotLoaded = false;
    std::uint64_t snapshotRecords = 0;
    std::uint64_t snapshotWatermark = 0;
    std::uint64_t logSegments = 0;
    std::uint64_t logRecords = 0; ///< valid records decoded
    std::uint64_t replayed = 0;   ///< applied (seqno > watermark)
    std::uint64_t skipped = 0;    ///< covered by the snapshot
    std::uint64_t validBytes = 0;
    std::uint64_t salvagedBytes = 0; ///< truncated torn/corrupt tail
    std::uint64_t droppedRecords = 0; ///< total width of seqno gaps
    std::vector<SeqnoGap> gaps;
    std::vector<std::string> warnings;
    std::uint64_t highWater = 0; ///< max seqno seen (resume point)

    JsonValue toJson() const;
};

struct RecoveryReport
{
    std::vector<ShardRecovery> shards;

    std::uint64_t totalReplayed() const;
    std::uint64_t totalSkipped() const;
    std::uint64_t totalSalvagedBytes() const;
    std::uint64_t totalGaps() const;
    std::uint64_t totalDroppedRecords() const;
    JsonValue toJson() const;
};

/** Where recovery replays into (the store's replay-only mutators). */
struct ReplayTarget
{
    std::function<void(std::uint32_t shard, std::uint64_t key,
                       std::uint64_t value)>
        applyPut;
    std::function<void(std::uint32_t shard, std::uint64_t key)> applyErase;
};

class PersistTier
{
  public:
    /**
     * Open (or create) the data directory for a store with @p shards
     * shards and identity string @p identity. A MANIFEST written on
     * first open pins both; reopening with a different store shape is
     * an InvalidArgument refusal (mirroring the sweep journal's
     * fingerprint check), not a silent misreplay.
     */
    static Expected<std::unique_ptr<PersistTier>>
    open(const PersistConfig& cfg, std::uint32_t shards,
         const std::string& identity);

    ~PersistTier();
    PersistTier(const PersistTier&) = delete;
    PersistTier& operator=(const PersistTier&) = delete;

    /**
     * Provide the capture callback used by compaction. Must lock the
     * shard, read `lastSeqno(shard)` for the watermark, and enumerate
     * live entries — all under that one lock.
     */
    void setSnapshotSource(
        std::function<SnapshotData(std::uint32_t shard)> fn);

    /**
     * Replay snapshot-then-log into @p target. Must run before
     * start(); a fresh directory yields an all-zero report. Torn or
     * corrupt log tails are salvaged (truncate + stderr warning with
     * the byte offset); a corrupt *snapshot* is a hard structured
     * failure (snapshots are published atomically, so corruption there
     * is real loss, never a torn write).
     */
    Expected<RecoveryReport> recover(const ReplayTarget& target);

    /** Launch writer (and, if configured, snapshot) threads. */
    Status start();

    /**
     * Drain queues, final-sync every shard, join all threads. Returns
     * the first sticky writer error, if any. Idempotent; the dtor
     * calls it.
     */
    Status stop();

    /**
     * Log one mutation for @p shard. Must be called under that shard's
     * lock (that is what makes disk order == apply order). Returns the
     * assigned seqno, or 0 when the tier is not running. A seqno is
     * consumed even when the record is dropped — the gap is the
     * on-disk evidence.
     */
    std::uint64_t logPut(std::uint32_t shard, std::uint64_t key,
                         std::uint64_t value);
    std::uint64_t logErase(std::uint32_t shard, std::uint64_t key);
    std::uint64_t logEvict(std::uint32_t shard, std::uint64_t key);

    /**
     * Block until @p seqno is fsync-durable on @p shard. No-op unless
     * fsync=always (acks do not imply durability under the other
     * policies) or when @p seqno is 0. Returns the shard's sticky
     * writer error if durability can no longer be reached.
     */
    Status waitDurable(std::uint32_t shard, std::uint64_t seqno);

    /** True when acked writes are fsync-durable (fsync=always). */
    bool ackWaitsForDurability() const
    {
        return cfg_.fsync == FsyncPolicy::Always;
    }

    /** Last seqno assigned to @p shard; callers synchronize via the
     *  shard lock (the snapshot watermark read). */
    std::uint64_t lastSeqno(std::uint32_t shard) const;

    /**
     * Synchronously snapshot+compact every shard on the calling
     * thread (deterministic tests; the periodic thread uses the same
     * path). Requires a snapshot source and a started tier.
     */
    Status snapshotNow();

    PersistShardCounters counters(std::uint32_t shard) const;

    /** Every shard's table counters and queue depth, summed (the
     *  per-shard seqnos stay 0). */
    PersistShardCounters totals() const;

    std::uint32_t shardCount() const;
    const PersistConfig& config() const { return cfg_; }

    /** First sticky writer error across shards (Ok when healthy). */
    Status error() const;

    /** Mount persist counters under @p g (docs/durability.md). */
    void registerStats(StatGroup& g) const;

  private:
    struct ShardState;

    PersistTier(PersistConfig cfg, std::unique_ptr<FileBackend> backend,
                std::uint32_t shards);

    std::string segmentName(std::uint32_t shard,
                            std::uint64_t segment) const;
    std::string snapName(std::uint32_t shard) const;

    void writerLoop(std::uint32_t shard);
    Status syncShard(ShardState& st, bool* dirty);
    void setFailure(ShardState& st, Status s);
    void snapshotLoop();
    Status snapshotShard(std::uint32_t shard);
    std::uint64_t logOp(std::uint32_t shard, OpKind kind,
                        std::uint64_t key, std::uint64_t value);
    Expected<std::vector<std::pair<std::uint64_t, std::string>>>
    listSegments(std::uint32_t shard);

    PersistConfig cfg_;
    std::unique_ptr<FileBackend> backend_;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::function<SnapshotData(std::uint32_t)> snapshotFn_;
    bool recovered_ = false;
    std::atomic<bool> active_{false};
    std::atomic<bool> stopping_{false};
    bool joined_ = true; ///< threads not running (start flips to false)

    std::thread snapThread_;
    std::mutex smx_;
    std::condition_variable scv_;
};

} // namespace zc::persist
