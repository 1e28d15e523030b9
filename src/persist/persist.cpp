/**
 * @file
 * PersistTier implementation (persist/persist.hpp). The concurrency
 * contract — who takes which lock, and why the snapshot thread is not
 * the writer — is documented in the header; this file keeps the
 * invariants local: every sink touch is under sinkMx, every
 * durableSeqno advance is under dmx + notify, every failure is sticky
 * and releases all waiters.
 */

#include "persist/persist.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/fault_injection.hpp"
#include "obs/spsc_ring.hpp"

namespace zc::persist {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
elapsedNs(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** How many records one writer iteration drains at most. */
constexpr std::size_t kWriterBatch = 4096;

/** Idle wait for the writer / blocked producers / durability waiters —
 *  a backstop only; notifications are the fast path. */
constexpr std::chrono::milliseconds kPollTick{10};

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestTag = "ZKPM";

} // namespace

// ---- config ---------------------------------------------------------

const char*
fsyncPolicyName(FsyncPolicy p)
{
    switch (p) {
        case FsyncPolicy::Always: return "always";
        case FsyncPolicy::Interval: return "interval";
        case FsyncPolicy::Never: return "never";
    }
    return "?";
}

Expected<FsyncPolicy>
parseFsyncPolicy(const std::string& s)
{
    if (s == "always") return FsyncPolicy::Always;
    if (s == "interval") return FsyncPolicy::Interval;
    if (s == "never") return FsyncPolicy::Never;
    return Status::invalidArgument(
        "unknown fsync policy '" + s +
        "' (expected always|interval|never)");
}

const char*
backpressureName(Backpressure b)
{
    switch (b) {
        case Backpressure::Block: return "block";
        case Backpressure::Drop: return "drop";
    }
    return "?";
}

Expected<Backpressure>
parseBackpressure(const std::string& s)
{
    if (s == "block") return Backpressure::Block;
    if (s == "drop") return Backpressure::Drop;
    return Status::invalidArgument("unknown backpressure mode '" + s +
                                   "' (expected block|drop)");
}

Status
PersistConfig::validate() const
{
    if (!enabled()) return Status::ok();
    if (queueCap == 0) {
        return Status::invalidArgument(
            "persist: queue capacity must be positive");
    }
    if (fsync == FsyncPolicy::Interval && fsyncIntervalMs == 0) {
        return Status::invalidArgument(
            "persist: fsync=interval needs a positive interval");
    }
    if (fsync == FsyncPolicy::Always &&
        backpressure == Backpressure::Drop) {
        return Status::invalidArgument(
            "persist: fsync=always requires backpressure=block (a "
            "dropped record can never become durable, so an ack could "
            "wait forever)");
    }
    return Status::ok();
}

// ---- recovery report ------------------------------------------------

JsonValue
ShardRecovery::toJson() const
{
    JsonValue out = JsonValue::object();
    out.set("shard", JsonValue(std::uint64_t{shard}));
    out.set("snapshot_loaded", JsonValue(snapshotLoaded));
    out.set("snapshot_records", JsonValue(snapshotRecords));
    out.set("snapshot_watermark", JsonValue(snapshotWatermark));
    out.set("log_segments", JsonValue(logSegments));
    out.set("log_records", JsonValue(logRecords));
    out.set("replayed", JsonValue(replayed));
    out.set("skipped", JsonValue(skipped));
    out.set("valid_bytes", JsonValue(validBytes));
    out.set("salvaged_bytes", JsonValue(salvagedBytes));
    out.set("dropped_records", JsonValue(droppedRecords));
    out.set("high_water", JsonValue(highWater));
    JsonValue gapArr = JsonValue::array();
    for (const auto& g : gaps) {
        JsonValue j = JsonValue::object();
        j.set("segment", JsonValue(g.segment));
        j.set("byte_offset", JsonValue(g.byteOffset));
        j.set("prev_seqno", JsonValue(g.prevSeqno));
        j.set("next_seqno", JsonValue(g.nextSeqno));
        gapArr.push(std::move(j));
    }
    out.set("seqno_gaps", std::move(gapArr));
    JsonValue warnArr = JsonValue::array();
    for (const auto& w : warnings) warnArr.push(JsonValue(w));
    out.set("warnings", std::move(warnArr));
    return out;
}

std::uint64_t
RecoveryReport::totalReplayed() const
{
    std::uint64_t t = 0;
    for (const auto& s : shards) t += s.replayed;
    return t;
}

std::uint64_t
RecoveryReport::totalSkipped() const
{
    std::uint64_t t = 0;
    for (const auto& s : shards) t += s.skipped;
    return t;
}

std::uint64_t
RecoveryReport::totalSalvagedBytes() const
{
    std::uint64_t t = 0;
    for (const auto& s : shards) t += s.salvagedBytes;
    return t;
}

std::uint64_t
RecoveryReport::totalGaps() const
{
    std::uint64_t t = 0;
    for (const auto& s : shards) t += s.gaps.size();
    return t;
}

std::uint64_t
RecoveryReport::totalDroppedRecords() const
{
    std::uint64_t t = 0;
    for (const auto& s : shards) t += s.droppedRecords;
    return t;
}

JsonValue
RecoveryReport::toJson() const
{
    JsonValue out = JsonValue::object();
    out.set("shards", JsonValue(std::uint64_t{shards.size()}));
    out.set("replayed", JsonValue(totalReplayed()));
    out.set("skipped", JsonValue(totalSkipped()));
    out.set("salvaged_bytes", JsonValue(totalSalvagedBytes()));
    out.set("seqno_gaps", JsonValue(totalGaps()));
    out.set("dropped_records", JsonValue(totalDroppedRecords()));
    JsonValue arr = JsonValue::array();
    for (const auto& s : shards) arr.push(s.toJson());
    out.set("per_shard", std::move(arr));
    return out;
}

// ---- shard state ----------------------------------------------------

struct PersistTier::ShardState
{
    explicit ShardState(std::size_t queueCap) : queue(queueCap) {}

    // Producer side: filled under the owning zkv shard lock (which is
    // what makes this queue single-producer).
    SpscRing<OpRecord> queue;
    std::mutex qmx; ///< sleep/wake only; the ring itself is lock-free
    std::condition_variable qcvData;  ///< producer -> writer
    std::condition_variable qcvSpace; ///< writer -> blocked producer

    // Sink side: the writer appends, the snapshot thread rotates.
    std::mutex sinkMx;
    std::unique_ptr<FileSink> sink; ///< guarded by sinkMx once started
    std::uint64_t segment = 0;      ///< guarded by sinkMx once started

    // Durability side: group-commit waiters under fsync=always.
    std::mutex dmx;
    std::condition_variable dcv;
    Status error;                    ///< sticky first failure, under dmx
    std::atomic<bool> failed{false};
    std::atomic<bool> writerDone{false};

    std::atomic<std::uint64_t> lastSeqno{0};
    std::atomic<std::uint64_t> appendedSeqno{0};
    std::atomic<std::uint64_t> durableSeqno{0};
    std::atomic<std::uint64_t> opsSinceSnapshot{0};

    /** The table counters, bumped through bumpCounter() and read by
     *  counters(); the queue counts enqueued and dropped itself. */
    PersistShardCounters live;

    std::thread writer;
};

// ---- lifecycle ------------------------------------------------------

PersistTier::PersistTier(PersistConfig cfg,
                         std::unique_ptr<FileBackend> backend,
                         std::uint32_t shards)
    : cfg_(std::move(cfg)), backend_(std::move(backend))
{
    shards_.reserve(shards);
    for (std::uint32_t i = 0; i < shards; i++) {
        shards_.push_back(std::make_unique<ShardState>(cfg_.queueCap));
    }
}

PersistTier::~PersistTier()
{
    Status ignored = stop();
    (void)ignored;
}

Expected<std::unique_ptr<PersistTier>>
PersistTier::open(const PersistConfig& cfg, std::uint32_t shards,
                  const std::string& identity)
{
    if (!cfg.enabled()) {
        return Status::invalidArgument(
            "persist: open() needs a data directory");
    }
    if (Status s = cfg.validate(); !s.isOk()) return s;
    if (shards == 0) {
        return Status::invalidArgument(
            "persist: shard count must be positive");
    }
    auto backend_or = FileBackend::open(cfg.dataDir);
    if (!backend_or) return backend_or.status();
    std::unique_ptr<FileBackend> backend = std::move(*backend_or);

    // The MANIFEST pins the store shape. Replaying shard-partitioned
    // logs into a differently-sharded (or differently-configured)
    // store would scatter keys to the wrong shards — refuse, exactly
    // like the sweep journal's fingerprint check.
    const std::string payload = "zkv-persist v1 shards=" +
                                std::to_string(shards) +
                                " identity=" + identity;
    if (backend->exists(kManifestName)) {
        auto data_or = backend->readAll(kManifestName);
        if (!data_or) return data_or.status();
        std::string text(data_or->begin(), data_or->end());
        std::size_t nl = text.find('\n');
        std::string_view line(
            text.data(), nl == std::string::npos ? text.size() : nl);
        auto got_or = framed::unframeTextLine(line, kManifestTag);
        if (!got_or) {
            return Status::corruption("persist '" + cfg.dataDir +
                                      "' MANIFEST: " +
                                      got_or.status().message());
        }
        if (*got_or != payload) {
            return Status::invalidArgument(
                "persist '" + cfg.dataDir +
                "': MANIFEST belongs to a different store (found \"" +
                std::string(*got_or) + "\", this store is \"" + payload +
                "\"); refusing to recover — delete the directory or "
                "point --data-dir elsewhere");
        }
    } else {
        const std::string mpath = cfg.dataDir + "/" + kManifestName;
        std::FILE* f = std::fopen(mpath.c_str(), "wb");
        if (f == nullptr) {
            return Status::ioError("persist '" + mpath +
                                   "': cannot create: " +
                                   std::strerror(errno));
        }
        Status s = framed::writeTextLine(
            f, "manifest '" + mpath + "'", kManifestTag, payload);
        std::fclose(f);
        if (!s.isOk()) return s;
    }
    return std::unique_ptr<PersistTier>(
        new PersistTier(cfg, std::move(backend), shards));
}

void
PersistTier::setSnapshotSource(
    std::function<SnapshotData(std::uint32_t)> fn)
{
    snapshotFn_ = std::move(fn);
}

std::string
PersistTier::segmentName(std::uint32_t shard, std::uint64_t segment) const
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "shard%u-%06llu.log", shard,
                  static_cast<unsigned long long>(segment));
    return buf;
}

std::string
PersistTier::snapName(std::uint32_t shard) const
{
    return "shard" + std::to_string(shard) + ".snap";
}

Expected<std::vector<std::pair<std::uint64_t, std::string>>>
PersistTier::listSegments(std::uint32_t shard)
{
    const std::string prefix = "shard" + std::to_string(shard) + "-";
    auto names_or = backend_->list(prefix);
    if (!names_or) return names_or.status();
    std::vector<std::pair<std::uint64_t, std::string>> out;
    for (const auto& name : *names_or) {
        constexpr std::string_view suffix = ".log";
        if (name.size() < prefix.size() + suffix.size()) continue;
        if (name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue; // snapshots' ".tmp" leftovers etc.
        }
        std::string digits = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
            continue;
        }
        out.emplace_back(std::stoull(digits), name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

Status
PersistTier::start()
{
    if (!recovered_) {
        return Status::invalidArgument(
            "persist: start() requires recover() first (a fresh "
            "directory recovers trivially)");
    }
    if (!joined_) {
        return Status::invalidArgument("persist: already started");
    }
    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        ShardState& st = *shards_[i];
        auto sink_or = backend_->openAppend(segmentName(i, st.segment));
        if (!sink_or) return sink_or.status();
        st.sink = std::move(*sink_or);
        st.writerDone.store(false, std::memory_order_relaxed);
    }
    stopping_.store(false, std::memory_order_release);
    joined_ = false;
    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        shards_[i]->writer =
            std::thread(&PersistTier::writerLoop, this, i);
    }
    if (cfg_.snapshotEveryOps > 0) {
        snapThread_ = std::thread(&PersistTier::snapshotLoop, this);
    }
    active_.store(true, std::memory_order_release);
    return Status::ok();
}

Status
PersistTier::stop()
{
    if (joined_) return error();
    active_.store(false, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    for (auto& st : shards_) {
        std::lock_guard<std::mutex> lk(st->qmx);
        st->qcvData.notify_all();
        st->qcvSpace.notify_all();
    }
    scv_.notify_all();
    for (auto& st : shards_) {
        if (st->writer.joinable()) st->writer.join();
    }
    if (snapThread_.joinable()) snapThread_.join();
    joined_ = true;
    return error();
}

Status
PersistTier::error() const
{
    for (const auto& st : shards_) {
        if (st->failed.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lk(st->dmx);
            return st->error;
        }
    }
    return Status::ok();
}

// ---- producer side --------------------------------------------------

std::uint64_t
PersistTier::logOp(std::uint32_t shard, OpKind kind, std::uint64_t key,
                   std::uint64_t value)
{
    if (!active_.load(std::memory_order_acquire)) return 0;
    ShardState& st = *shards_[shard];
    // The seqno is consumed even when the record is then dropped: the
    // resulting gap in the on-disk sequence is the evidence recovery
    // reports (never a silent loss).
    const std::uint64_t seq =
        st.lastSeqno.fetch_add(1, std::memory_order_relaxed) + 1;
    const OpRecord r{seq, kind, key, value};
    if (!st.queue.tryPush(r)) {
        if (cfg_.backpressure == Backpressure::Drop) {
            st.queue.countDrop();
            st.qcvData.notify_one();
            return seq;
        }
        // Block: stall this producer (it holds the shard lock) until
        // the writer frees space. Timed waits are a backstop against a
        // lost notify, not the steady state.
        bumpCounter(st.live.blocked);
        std::unique_lock<std::mutex> lk(st.qmx);
        for (;;) {
            st.qcvData.notify_one();
            if (st.queue.tryPush(r)) break;
            if (stopping_.load(std::memory_order_acquire)) {
                st.queue.countDrop();
                return seq;
            }
            st.qcvSpace.wait_for(lk, kPollTick);
        }
    }
    st.queue.countPush();
    st.opsSinceSnapshot.fetch_add(1, std::memory_order_relaxed);
    st.qcvData.notify_one();
    return seq;
}

std::uint64_t
PersistTier::logPut(std::uint32_t shard, std::uint64_t key,
                    std::uint64_t value)
{
    return logOp(shard, OpKind::Put, key, value);
}

std::uint64_t
PersistTier::logErase(std::uint32_t shard, std::uint64_t key)
{
    return logOp(shard, OpKind::Erase, key, 0);
}

std::uint64_t
PersistTier::logEvict(std::uint32_t shard, std::uint64_t key)
{
    return logOp(shard, OpKind::Evict, key, 0);
}

Status
PersistTier::waitDurable(std::uint32_t shard, std::uint64_t seqno)
{
    if (seqno == 0 || cfg_.fsync != FsyncPolicy::Always) {
        return Status::ok();
    }
    ShardState& st = *shards_[shard];
    if (st.durableSeqno.load(std::memory_order_acquire) >= seqno) {
        return Status::ok();
    }
    st.qcvData.notify_one(); // nudge the writer to commit the group
    std::unique_lock<std::mutex> lk(st.dmx);
    for (;;) {
        if (st.durableSeqno.load(std::memory_order_acquire) >= seqno) {
            return Status::ok();
        }
        if (st.failed.load(std::memory_order_acquire)) return st.error;
        if (st.writerDone.load(std::memory_order_acquire)) {
            return Status::ioError(
                "persist: shut down before seqno " +
                std::to_string(seqno) + " on shard " +
                std::to_string(shard) + " became durable");
        }
        st.dcv.wait_for(lk, kPollTick);
    }
}

std::uint64_t
PersistTier::lastSeqno(std::uint32_t shard) const
{
    return shards_[shard]->lastSeqno.load(std::memory_order_relaxed);
}

// ---- writer ---------------------------------------------------------

void
PersistTier::setFailure(ShardState& st, Status s)
{
    {
        std::lock_guard<std::mutex> lk(st.dmx);
        if (st.error.isOk()) st.error = std::move(s);
        st.failed.store(true, std::memory_order_release);
    }
    st.dcv.notify_all();
}

Status
PersistTier::syncShard(ShardState& st, bool* dirty)
{
    *dirty = false;
    if (st.failed.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lk(st.dmx);
        return st.error;
    }
    Status s;
    const auto t0 = Clock::now();
    {
        std::lock_guard<std::mutex> lk(st.sinkMx);
        if (ZC_INJECT_FAULT("persist.fsync")) {
            s = Status::ioError(
                "fault injection: induced log fsync failure at site "
                "'persist.fsync'");
        } else {
            s = st.sink->sync(/*dataOnly=*/true);
        }
    }
    bumpCounter(st.live.fsyncNs, elapsedNs(t0));
    if (!s.isOk()) {
        bumpCounter(st.live.fsyncErrors);
        setFailure(st, s);
        return s;
    }
    bumpCounter(st.live.fsyncs);
    {
        std::lock_guard<std::mutex> lk(st.dmx);
        st.durableSeqno.store(
            st.appendedSeqno.load(std::memory_order_relaxed),
            std::memory_order_release);
    }
    st.dcv.notify_all();
    return Status::ok();
}

void
PersistTier::writerLoop(std::uint32_t shard)
{
    ShardState& st = *shards_[shard];
    std::vector<OpRecord> batch;
    std::vector<std::uint8_t> buf;
    bool dirty = false;
    auto lastSync = Clock::now();

    for (;;) {
        batch.clear();
        std::size_t n = st.queue.popBatch(batch, kWriterBatch);
        if (n > 0) st.qcvSpace.notify_all();

        if (!batch.empty()) {
            if (st.failed.load(std::memory_order_acquire)) {
                // Sticky failure: keep draining so blocked producers
                // are released, but nothing pretends to be logged.
                bumpCounter(st.live.discardedAfterError, batch.size());
            } else {
                buf.clear();
                for (const OpRecord& r : batch) encodeOpRecord(buf, r);
                Status s;
                const auto t0 = Clock::now();
                {
                    std::lock_guard<std::mutex> lk(st.sinkMx);
                    if (ZC_INJECT_FAULT("persist.append")) {
                        s = Status::ioError(
                            "fault injection: induced log append "
                            "failure at site 'persist.append'");
                    } else {
                        s = st.sink->append(buf.data(), buf.size());
                    }
                }
                bumpCounter(st.live.appendNs, elapsedNs(t0));
                if (!s.isOk()) {
                    bumpCounter(st.live.appendErrors);
                    setFailure(st, std::move(s));
                } else {
                    bumpCounter(st.live.appended, batch.size());
                    bumpCounter(st.live.appendBytes, buf.size());
                    // Queue order is seqno order, so the batch tail is
                    // the shard's append high-water mark.
                    st.appendedSeqno.store(batch.back().seqno,
                                           std::memory_order_release);
                    dirty = true;
                }
            }
        }

        const bool stopNow =
            stopping_.load(std::memory_order_acquire) &&
            st.queue.size() == 0;
        bool due = false;
        if (dirty) {
            switch (cfg_.fsync) {
                case FsyncPolicy::Always: due = true; break;
                case FsyncPolicy::Interval:
                    due = stopNow ||
                          Clock::now() - lastSync >=
                              std::chrono::milliseconds(
                                  cfg_.fsyncIntervalMs);
                    break;
                case FsyncPolicy::Never: due = stopNow; break;
            }
        }
        if (due) {
            // Failure is sticky (setFailure inside) — nothing to do
            // with the status here beyond what syncShard recorded.
            Status ignored = syncShard(st, &dirty);
            (void)ignored;
            lastSync = Clock::now();
        }
        if (stopNow) {
            st.writerDone.store(true, std::memory_order_release);
            st.dcv.notify_all();
            return;
        }
        if (batch.empty()) {
            std::unique_lock<std::mutex> lk(st.qmx);
            if (st.queue.size() == 0 &&
                !stopping_.load(std::memory_order_acquire)) {
                st.qcvData.wait_for(lk, kPollTick);
            }
        }
    }
}

// ---- compaction -----------------------------------------------------

void
PersistTier::snapshotLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(smx_);
            scv_.wait_for(lk, std::chrono::milliseconds(50));
        }
        if (stopping_.load(std::memory_order_acquire)) return;
        for (std::uint32_t i = 0; i < shards_.size(); i++) {
            if (shards_[i]->opsSinceSnapshot.load(
                    std::memory_order_relaxed) >= cfg_.snapshotEveryOps) {
                // Failures are counted in snapshotErrors, never fatal:
                // old segments stay and recovery remains correct.
                Status ignored = snapshotShard(i);
                (void)ignored;
            }
        }
    }
}

Status
PersistTier::snapshotShard(std::uint32_t shard)
{
    ShardState& st = *shards_[shard];
    if (!snapshotFn_) {
        return Status::internal("persist: no snapshot source set");
    }
    const auto t0 = Clock::now();

    // 1. Rotate first: seal the current segment (full fsync — every
    //    byte in it must be durable before the snapshot supersedes it)
    //    and swing the writer to a fresh one. Every record in the old
    //    segments was sequenced before the capture below, hence
    //    seqno <= watermark, hence covered by the snapshot — that is
    //    the whole compaction-safety argument.
    {
        std::lock_guard<std::mutex> lk(st.sinkMx);
        if (Status s = st.sink->sync(/*dataOnly=*/false); !s.isOk()) {
            bumpCounter(st.live.snapshotErrors);
            return s;
        }
        const std::uint64_t next = st.segment + 1;
        auto sink_or = backend_->openAppend(segmentName(shard, next));
        if (!sink_or) {
            bumpCounter(st.live.snapshotErrors);
            return sink_or.status();
        }
        st.sink = std::move(*sink_or);
        st.segment = next;
    }

    // 2. Capture: the callback takes the shard lock, reads the
    //    watermark, and enumerates live entries under that one lock.
    SnapshotData snap = snapshotFn_(shard);
    st.opsSinceSnapshot.store(0, std::memory_order_relaxed);

    // 3. Publish atomically (tmp + fsync + rename). On failure the old
    //    segments stay — recovery is still exactly correct, just
    //    slower.
    const std::vector<std::uint8_t> blob = encodeSnapshot(shard, snap);
    Status s;
    if (ZC_INJECT_FAULT("persist.snapshot")) {
        s = Status::ioError(
            "fault injection: induced snapshot publish failure at site "
            "'persist.snapshot'");
    } else {
        s = backend_->atomicWrite(snapName(shard), blob.data(),
                                  blob.size());
    }
    bumpCounter(st.live.snapshotNs, elapsedNs(t0));
    if (!s.isOk()) {
        bumpCounter(st.live.snapshotErrors);
        return s;
    }
    bumpCounter(st.live.snapshots);
    bumpCounter(st.live.snapshotRecords, snap.entries.size());

    // 4. Truncate the log behind: every older segment is covered.
    auto segs_or = listSegments(shard);
    if (!segs_or) return segs_or.status();
    std::uint64_t current;
    {
        std::lock_guard<std::mutex> lk(st.sinkMx);
        current = st.segment;
    }
    for (const auto& [num, name] : *segs_or) {
        if (num >= current) continue;
        if (Status rs = backend_->remove(name); !rs.isOk()) return rs;
    }
    return Status::ok();
}

Status
PersistTier::snapshotNow()
{
    if (joined_) {
        return Status::invalidArgument(
            "persist: snapshotNow() needs a started tier");
    }
    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        if (Status s = snapshotShard(i); !s.isOk()) return s;
    }
    return Status::ok();
}

// ---- recovery -------------------------------------------------------

Expected<RecoveryReport>
PersistTier::recover(const ReplayTarget& target)
{
    if (!joined_ || recovered_) {
        return Status::invalidArgument(
            "persist: recover() must run exactly once, before start()");
    }
    if (!target.applyPut || !target.applyErase) {
        return Status::invalidArgument(
            "persist: recover() needs both replay callbacks");
    }
    if (ZC_INJECT_FAULT("persist.recover")) {
        return Status::ioError(
            "fault injection: induced recovery failure at site "
            "'persist.recover'");
    }

    RecoveryReport report;
    for (std::uint32_t si = 0;
         si < static_cast<std::uint32_t>(shards_.size()); si++) {
        ShardState& st = *shards_[si];
        ShardRecovery sr;
        sr.shard = si;

        // Snapshot first. It was published atomically, so a snapshot
        // that fails to decode is real corruption (bit rot, truncated
        // copy), not a torn write — a hard failure, never a silent
        // partial restore.
        if (backend_->exists(snapName(si))) {
            auto data_or = backend_->readAll(snapName(si));
            if (!data_or) return data_or.status();
            auto snap_or = decodeSnapshot(data_or->data(),
                                          data_or->size(), si);
            if (!snap_or) {
                return Status::corruption(
                    "persist '" + backend_->root() + "/" + snapName(si) +
                    "': " + snap_or.status().message());
            }
            for (const auto& [key, value] : snap_or->entries) {
                target.applyPut(si, key, value);
            }
            sr.snapshotLoaded = true;
            sr.snapshotRecords = snap_or->entries.size();
            sr.snapshotWatermark = snap_or->watermark;
        }
        const std::uint64_t watermark = sr.snapshotWatermark;
        std::uint64_t highWater = watermark;

        auto segs_or = listSegments(si);
        if (!segs_or) return segs_or.status();
        const auto& segs = *segs_or;
        sr.logSegments = segs.size();

        std::uint64_t prev = 0;
        bool salvaged = false;
        std::uint64_t lastSegment = 0;
        for (std::size_t k = 0; k < segs.size(); k++) {
            const auto& [num, name] = segs[k];
            if (salvaged) {
                // Once a tail is cut, later segments would append
                // records out of order behind it — drop them so fresh
                // appends resume cleanly from the salvaged point.
                auto data_or = backend_->readAll(name);
                if (data_or) sr.salvagedBytes += data_or->size();
                if (Status s = backend_->remove(name); !s.isOk()) {
                    return s;
                }
                continue;
            }
            lastSegment = num;
            auto data_or = backend_->readAll(name);
            if (!data_or) return data_or.status();
            const std::vector<std::uint8_t>& data = *data_or;
            std::size_t off = 0;
            while (off < data.size()) {
                auto rec_or =
                    decodeOpRecord(data.data() + off, data.size() - off);
                Status bad;
                if (!rec_or) {
                    bad = rec_or.status();
                } else if (prev != 0 && rec_or->seqno <= prev) {
                    bad = Status::corruption(
                        "seqno " + std::to_string(rec_or->seqno) +
                        " not after " + std::to_string(prev));
                }
                if (!bad.isOk()) {
                    // Journal salvage rule: keep the clean prefix,
                    // truncate the damaged tail, warn with the offset.
                    std::string warn =
                        "persist '" + backend_->root() + "/" + name +
                        "': record at byte offset " +
                        std::to_string(off) + ": " + bad.message() +
                        "; salvaged " + std::to_string(sr.logRecords) +
                        " record(s), truncating to " +
                        std::to_string(off) + " bytes";
                    std::fprintf(stderr, "warning: %s\n", warn.c_str());
                    sr.warnings.push_back(std::move(warn));
                    if (Status s = backend_->truncateTo(name, off);
                        !s.isOk()) {
                        return s;
                    }
                    sr.salvagedBytes += data.size() - off;
                    salvaged = true;
                    break;
                }
                const OpRecord& r = *rec_or;
                if (prev != 0 && r.seqno > prev + 1) {
                    // Backpressure=drop evidence: a seqno was consumed
                    // but its record never reached the log.
                    sr.gaps.push_back(SeqnoGap{num, off, prev, r.seqno});
                    sr.droppedRecords += r.seqno - prev - 1;
                }
                prev = r.seqno;
                sr.logRecords++;
                sr.validBytes += kOpRecordSize;
                if (r.seqno > highWater) highWater = r.seqno;
                if (r.seqno <= watermark) {
                    sr.skipped++; // the snapshot already covers it
                } else if (r.kind == OpKind::Put) {
                    target.applyPut(si, r.key, r.value);
                    sr.replayed++;
                } else {
                    // Erase and Evict both replay as removals: an
                    // evicted key must not resurrect.
                    target.applyErase(si, r.key);
                    sr.replayed++;
                }
                off += kOpRecordSize;
            }
        }

        sr.highWater = highWater;
        st.lastSeqno.store(highWater, std::memory_order_relaxed);
        st.appendedSeqno.store(highWater, std::memory_order_relaxed);
        st.durableSeqno.store(highWater, std::memory_order_relaxed);
        st.segment = segs.empty() ? 0 : lastSegment;
        report.shards.push_back(std::move(sr));
    }
    recovered_ = true;
    return report;
}

// ---- introspection --------------------------------------------------

std::uint32_t
PersistTier::shardCount() const
{
    return static_cast<std::uint32_t>(shards_.size());
}

PersistShardCounters
PersistTier::counters(std::uint32_t shard) const
{
    const ShardState& st = *shards_[shard];
    PersistShardCounters c;
    loadCounters(c, kPersistCounters, st.live);
    loadCounters(c, kPersistPhaseCounters, st.live);
    c.enqueued = st.queue.pushed();
    c.dropped = st.queue.dropped();
    c.lastSeqno = st.lastSeqno.load(std::memory_order_relaxed);
    c.durableSeqno = st.durableSeqno.load(std::memory_order_relaxed);
    c.queueDepth = st.queue.size();
    return c;
}

PersistShardCounters
PersistTier::totals() const
{
    PersistShardCounters t;
    for (std::uint32_t i = 0; i < shardCount(); i++) {
        const PersistShardCounters c = counters(i);
        sumCounters(t, kPersistCounters, c);
        sumCounters(t, kPersistPhaseCounters, c);
        t.queueDepth += c.queueDepth;
    }
    return t;
}

void
PersistTier::registerStats(StatGroup& g) const
{
    g.addConst("data_dir", "durability tier data directory",
               JsonValue(backend_->root()));
    g.addConst("fsync", "fsync policy",
               JsonValue(std::string(fsyncPolicyName(cfg_.fsync))));
    g.addConst(
        "backpressure", "full-queue policy",
        JsonValue(std::string(backpressureName(cfg_.backpressure))));
    g.addConst("queue_cap", "per-shard op queue capacity",
               JsonValue(std::uint64_t{cfg_.queueCap}));
    g.addConst("snapshot_every_ops",
               "ops between compaction snapshots (0 = off)",
               JsonValue(cfg_.snapshotEveryOps));

    auto snap = [this] { return totals(); };
    registerCounters(g, kPersistCounters, snap);
    registerCounters(g.group("phase", "writer-thread phase time attribution"),
                     kPersistPhaseCounters, snap);
}

} // namespace zc::persist
