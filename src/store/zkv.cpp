/**
 * @file
 * ZkvStore implementation: the value-mirroring policy decorator and the
 * shard operations built on the simulator's CacheArray protocol.
 */

#include "store/zkv.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "obs/tracer.hpp"
#include "replacement/lru.hpp"

namespace zc {

namespace {

/** The spin-wait hint: `pause` on x86, `yield` on Arm. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex syscall takes the lock word's address");

void
futex(std::atomic<std::uint32_t>& word, int op, std::uint32_t val)
{
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), op, val,
            nullptr, nullptr, 0);
}

} // namespace

void
ShardLock::lockSlow(std::uint32_t& spins)
{
    if (kind_ == ShardLockKind::Spin) {
        do {
            while (word_.load(std::memory_order_relaxed) != 0) {
                cpuRelax();
                spins++;
            }
        } while (word_.exchange(1, std::memory_order_acquire) != 0);
        return;
    }
    for (std::uint32_t i = 0; i < kSpinBound; i++) {
        cpuRelax();
        spins++;
        if (word_.load(std::memory_order_relaxed) == 0 && tryLock()) return;
    }
    // Park. Storing 2 makes the holder's unlock() wake a waiter; an
    // exchange that finds the word free has taken the lock, leaving 2
    // behind, which at worst costs one spare wake.
    while (word_.exchange(2, std::memory_order_acquire) != 0) {
        futex(word_, FUTEX_WAIT_PRIVATE, 2);
    }
}

void
ShardLock::wake()
{
    futex(word_, FUTEX_WAKE_PRIVATE, 1);
}

namespace {

/**
 * A bytes-mode shard's payload memory: every stored payload lives in a
 * slot of this slab, whichever thread put or freed it. Slots come in
 * size classes kZkvSlabClassBytes apart, cut from kZkvSlabBytes slabs;
 * each class keeps one intrusive free list (a free slot holds the next
 * free slot's address). Touched only under the shard lock. Slabs go
 * back to the system only when the store is destroyed.
 *
 * Why not malloc: a payload put by one thread and freed by another
 * goes back to the first thread's arena, while its replacement comes
 * from the second's, so a store filled by one thread and served by
 * another keeps two arenas' worth of payloads resident
 * (docs/compression.md).
 */
class PayloadSlab
{
  public:
    /** Classes for stored payloads of 1 to @p maxBytes bytes. */
    explicit PayloadSlab(std::size_t maxBytes)
        : classes_((maxBytes + kZkvSlabClassBytes - 1) / kZkvSlabClassBytes)
    {
    }

    /** A slot for @p n stored bytes, 0 < n <= maxBytes. */
    std::uint8_t*
    alloc(std::size_t n)
    {
        Class& c = classes_[classOf(n)];
        std::uint8_t* slot = c.free;
        if (slot != nullptr) {
            std::memcpy(&c.free, slot, sizeof(slot));
            return slot;
        }
        const std::size_t bytes = (classOf(n) + 1) * kZkvSlabClassBytes;
        if (static_cast<std::size_t>(c.end - c.next) < bytes) {
            slabs_.push_back(
                std::make_unique_for_overwrite<std::uint8_t[]>(kZkvSlabBytes));
            c.next = slabs_.back().get();
            c.end = c.next + kZkvSlabBytes;
        }
        slot = c.next;
        c.next += bytes;
        return slot;
    }

    /** Return @p slot, which holds @p n stored bytes, to its class. */
    void
    free(std::uint8_t* slot, std::size_t n)
    {
        Class& c = classes_[classOf(n)];
        std::memcpy(slot, &c.free, sizeof(slot));
        c.free = slot;
    }

    /** Memory cut into slabs so far; it only grows. */
    std::uint64_t slabBytes() const { return slabs_.size() * kZkvSlabBytes; }

  private:
    struct Class
    {
        std::uint8_t* free = nullptr; ///< free-list head
        std::uint8_t* next = nullptr; ///< uncut rest of the last slab
        std::uint8_t* end = nullptr;
    };

    static std::size_t
    classOf(std::size_t n)
    {
        return (n - 1) / kZkvSlabClassBytes;
    }

    std::vector<Class> classes_;
    std::vector<std::unique_ptr<std::uint8_t[]>> slabs_;
};

/**
 * Decorates the shard's real replacement policy, forwarding every
 * notification and ranking call unchanged — the array's walk decisions
 * are bit-identical to a bare array with the same inner policy — while
 * mirroring the value payload through the same position-based protocol:
 *
 *  - onInsert installs the pending put value at the new block's slot;
 *  - onMove carries the value along a walk relocation (values travel
 *    with blocks exactly like replacement metadata, Section II);
 *  - onSwap exchanges the two values;
 *  - onEvict captures the dying block's value so put() can report the
 *    evicted key+value pair. ZArray::commit notifies onEvict before any
 *    relocation touches the victim's slot, so the capture reads the
 *    pre-walk value.
 *
 * The mirrors are relaxed std::atomic arrays, and a *key* mirror rides
 * alongside the value one, because the optimistic read path
 * (ReadPath::Optimistic, docs/store.md) scans them with no lock held:
 * the array's own tags_ are non-atomic and may be mid-relocation, so a
 * lock-free reader must never touch them. Relaxed is sufficient — the
 * per-shard ShardSeq's fences order these accesses against the version
 * word, and torn snapshots are discarded by seq validation. All
 * notifications still arrive under the shard lock, so the mirror
 * updates themselves are never concurrent with each other. The key
 * mirror is maintained entirely through the notification protocol:
 * onInsert records the incoming address, onMove/onSwap carry it with
 * relocations, and onEvict clears it (ZArray::invalidate also funnels
 * through onEvict, so erases clear it too).
 *
 * In bytes mode (ZkvValueConfig::bytesMode) a per-position handle on
 * a compressed payload rides alongside the u64 mirror, moved through
 * the same onMove/onSwap/onEvict protocol; the bytes live in the
 * shard's PayloadSlab. Byte payloads are only ever touched under the
 * shard lock — bytes mode rejects the optimistic read path at
 * validate() — so they are plain handles, not atomics. The mirror
 * also keeps the shard's compression accounting (resident raw vs
 * stored bytes, slab memory), since it is the one place that sees
 * every payload arrive and leave.
 */
class ValueMirror final : public ReplacementPolicy
{
  public:
    /** @p codec is the store's, null outside bytes mode. */
    ValueMirror(std::unique_ptr<ReplacementPolicy> inner,
                const Codec* codec)
        : ReplacementPolicy(inner->numBlocks()),
          inner_(std::move(inner)),
          keys_(numBlocks()),
          values_(numBlocks()),
          bytesMode_(codec != nullptr),
          slab_(codec ? codec->maxCompressedSize(kZkvMaxValueBytes) : 0)
    {
        for (std::uint32_t i = 0; i < numBlocks(); i++) {
            keys_[i].store(static_cast<std::uint64_t>(kInvalidAddr),
                           std::memory_order_relaxed);
            values_[i].store(0, std::memory_order_relaxed);
        }
        if (bytesMode_) payloads_.resize(numBlocks());
    }

    void
    onInsert(BlockPos pos, const AccessContext& ctx) override
    {
        keys_[pos].store(ctx.lineAddr, std::memory_order_relaxed);
        commit(pos);
        inner_->onInsert(pos, ctx);
    }

    void
    onHit(BlockPos pos, const AccessContext& ctx) override
    {
        inner_->onHit(pos, ctx);
    }

    void
    onMove(BlockPos from, BlockPos to) override
    {
        keys_[to].store(keys_[from].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
        values_[to].store(values_[from].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
        if (bytesMode_) {
            // Every relocation lands in a slot already emptied:
            // ZArray::commit evicts before it relocates.
            zc_assert(payloads_[to].size == 0);
            payloads_[to] = std::exchange(payloads_[from], {});
        }
        inner_->onMove(from, to);
    }

    void
    onSwap(BlockPos a, BlockPos b) override
    {
        std::uint64_t ka = keys_[a].load(std::memory_order_relaxed);
        std::uint64_t kb = keys_[b].load(std::memory_order_relaxed);
        keys_[a].store(kb, std::memory_order_relaxed);
        keys_[b].store(ka, std::memory_order_relaxed);
        std::uint64_t va = values_[a].load(std::memory_order_relaxed);
        std::uint64_t vb = values_[b].load(std::memory_order_relaxed);
        values_[a].store(vb, std::memory_order_relaxed);
        values_[b].store(va, std::memory_order_relaxed);
        if (bytesMode_) std::swap(payloads_[a], payloads_[b]);
        inner_->onSwap(a, b);
    }

    void
    onEvict(BlockPos pos) override
    {
        lastEvicted_ = values_[pos].load(std::memory_order_relaxed);
        keys_[pos].store(static_cast<std::uint64_t>(kInvalidAddr),
                         std::memory_order_relaxed);
        if (bytesMode_) {
            // PutResult reports only the evicted *key* in bytes mode —
            // the payload dies compressed, never decoded.
            install(pos, {}, 0);
        }
        inner_->onEvict(pos);
    }

    BlockPos
    select(std::span<const BlockPos> cands) override
    {
        return inner_->select(cands);
    }

    double score(BlockPos pos) const override { return inner_->score(pos); }

    std::uint64_t
    tieBreaker(BlockPos pos) const override
    {
        return inner_->tieBreaker(pos);
    }

    std::string name() const override { return inner_->name(); }

    std::uint64_t
    valueAt(BlockPos pos) const
    {
        return values_[pos].load(std::memory_order_relaxed);
    }

    /** Resident key at @p pos, kInvalidAddr if empty — the lock-free
     *  reader's tag check (safe: relaxed atomic, seq-validated). */
    std::uint64_t
    keyAt(BlockPos pos) const
    {
        return keys_[pos].load(std::memory_order_relaxed);
    }

    std::uint64_t lastEvicted() const { return lastEvicted_; }

    /**
     * Stage the value the next commit() or onInsert installs: the u64
     * word, or in bytes mode the compressed payload @p stored and its
     * raw length, with the u64 word left 0. @p stored must stay valid
     * until then; commit() copies it into the slab. Shard lock held,
     * like every bytes-mode call below.
     */
    void
    stage(std::uint64_t v, std::span<const std::uint8_t> stored,
          std::uint32_t rawLen)
    {
        pending_ = bytesMode_ ? 0 : v;
        pendingStored_ = stored;
        pendingRawLen_ = rawLen;
    }

    /** Install the staged value at @p pos — an update in place, or an
     *  insert via onInsert — counting a payload's compression in the
     *  shard's accounting. */
    void
    commit(BlockPos pos)
    {
        values_[pos].store(pending_, std::memory_order_relaxed);
        if (!bytesMode_) return;
        comp_.compressCalls++;
        comp_.rawBytesTotal += pendingRawLen_;
        comp_.storedBytesTotal += pendingStored_.size();
        install(pos, std::exchange(pendingStored_, {}), pendingRawLen_);
    }

    std::span<const std::uint8_t>
    bytesAt(BlockPos pos) const
    {
        return {payloads_[pos].data, payloads_[pos].size};
    }

    void noteDecompress() { comp_.decompressCalls++; }

    ZkvCompressionStats
    compressionStats() const
    {
        ZkvCompressionStats c = comp_;
        c.slabBytes = slab_.slabBytes();
        return c;
    }

  private:
    /** One position's stored payload (bytes mode): a handle on a slab
     *  slot, all zero when the position holds none. */
    struct Payload
    {
        std::uint8_t* data = nullptr; ///< as stored (post-codec)
        std::uint32_t size = 0;       ///< stored length
        std::uint32_t rawLen = 0;     ///< pre-codec length
    };
    static_assert(sizeof(Payload) == 16);

    /**
     * Replace @p pos's payload with a copy of @p stored (empty to
     * clear it), keeping the resident accounting. The old slot is
     * freed first, so an overwrite of one length reuses its own slot.
     */
    void
    install(BlockPos pos, std::span<const std::uint8_t> stored,
            std::uint32_t rawLen)
    {
        Payload& p = payloads_[pos];
        comp_.residentRawBytes += rawLen;
        comp_.residentRawBytes -= p.rawLen;
        comp_.residentStoredBytes += stored.size();
        comp_.residentStoredBytes -= p.size;
        if (p.size != 0) slab_.free(p.data, p.size);
        p = {nullptr, static_cast<std::uint32_t>(stored.size()), rawLen};
        if (stored.empty()) return;
        p.data = slab_.alloc(stored.size());
        std::memcpy(p.data, stored.data(), stored.size());
    }

    std::unique_ptr<ReplacementPolicy> inner_;
    std::vector<std::atomic<std::uint64_t>> keys_;
    std::vector<std::atomic<std::uint64_t>> values_;
    std::uint64_t pending_ = 0;
    std::uint64_t lastEvicted_ = 0;

    const bool bytesMode_;
    std::vector<Payload> payloads_; ///< per position
    PayloadSlab slab_;
    std::span<const std::uint8_t> pendingStored_;
    std::uint32_t pendingRawLen_ = 0;
    ZkvCompressionStats comp_;
};

} // namespace

/*
 * Shard layout (docs/store.md). Every worker that reaches a shard
 * writes its hot words, so they share one 64-byte line:
 *  - line 0, `hot`: the lock word and every word a locked get writes —
 *    the get counters, the array's ArrayStats and the LRU clock. A get
 *    hit writes this line and the hit entry's timestamp, nothing else;
 *  - line 1: the array and mirror pointers, read-only after create(),
 *    so no op's write evicts them from another core;
 *  - then the colder lines: the put/erase counters and the seqlock
 *    word (written by puts and erases), the traced-path sums (written
 *    only by SpanProbe) and the lock-free read counters.
 */
struct ZkvStore::Shard
{
    explicit Shard(ShardLockKind lock_kind) : hot(lock_kind) {}

    struct alignas(64) Hot
    {
        explicit Hot(ShardLockKind lock_kind) : lock(lock_kind) {}

        ShardLock lock;
        std::uint64_t gets = 0;     ///< locked gets
        std::uint64_t getHits = 0;  ///< ...that found the key
        ArrayStats arrayStats;      ///< CacheArray::placeStats target
        std::uint64_t lruClock = 0; ///< LruPolicy::placeClock target
    };
    static_assert(sizeof(Hot) == 64, "a locked get writes one shared line");

    Hot hot;

    alignas(64) std::unique_ptr<CacheArray> array;
    ValueMirror* mirror = nullptr; ///< owned by array's policy chain

    // The gets and getHits fields here stay 0: they count in `hot`.
    alignas(64) ZkvShardStats stats;
    ShardSeq seq;        ///< odd while a locked writer mutates the shard
    ZkvShardObs obs;     ///< written only by the SpanProbe op core
    ZkvSeqCounters seqc; ///< lock-free read-path counters (relaxed)

    /**
     * RAII seqlock write section. Every mutation that can move, change
     * or remove an entry — put update, walk insert (relocations +
     * eviction + fill), erase, recovery replay — runs inside one of
     * these, always while `lock` is held. Gets don't: in Locked mode
     * readers hold the lock, and optimistic-mode gets touch no shard
     * state a reader can see (policy metadata is never read
     * lock-free).
     */
    struct WriteSection
    {
        explicit WriteSection(Shard& s) : seq(s.seq) { seq.beginWrite(); }
        ~WriteSection() { seq.endWrite(); }
        WriteSection(const WriteSection&) = delete;
        WriteSection& operator=(const WriteSection&) = delete;
        ShardSeq& seq;
    };
};

ZkvStore::ZkvStore(ZkvConfig cfg) : cfg_(cfg) {}

ZkvStore::~ZkvStore()
{
    // Join the tier's threads while the shards (which its snapshot
    // callback locks) are still alive; member order alone also
    // guarantees this, but the intent deserves to be explicit.
    if (persist_ != nullptr) {
        Status ignored = persist_->stop();
        (void)ignored;
    }
}

Expected<std::unique_ptr<ZkvStore>>
ZkvStore::create(const ZkvConfig& cfg)
{
    if (Status s = cfg.validate(); !s.isOk()) return s;

    auto store = std::unique_ptr<ZkvStore>(new ZkvStore(cfg));
    if (cfg.value.bytesMode()) store->codec_ = makeCodec(cfg.value.codec);
    store->shards_.reserve(cfg.shards);
    for (std::uint32_t i = 0; i < cfg.shards; i++) {
        if (ZC_INJECT_FAULT("store.alloc")) {
            return Status::resourceExhausted(
                "zkv: injected shard allocation failure (site store.alloc, "
                "shard " +
                std::to_string(i) + ")");
        }
        ArraySpec spec = cfg.shardSpec(i);
        auto shard = std::make_unique<Shard>(cfg.lock);
        // Same inner-policy construction as the one-argument makeArray,
        // so a bare makeArray(shardSpec(i)) reproduces this shard's
        // walk decisions exactly (tests/test_store.cpp relies on it).
        // Only where the counters live differs: on the hot line.
        auto inner = makePolicy(spec.policy, policyBlocksFor(spec),
                                spec.seed ^ 0x9d2c);
        if (auto* lru = dynamic_cast<LruPolicy*>(inner.get())) {
            lru->placeClock(&shard->hot.lruClock);
        }
        auto mirror = std::make_unique<ValueMirror>(std::move(inner),
                                                    store->codec_.get());
        shard->mirror = mirror.get();
        shard->array = makeArray(spec, std::move(mirror));
        shard->array->placeStats(&shard->hot.arrayStats);
        if (i == 0 && cfg.readPath == ReadPath::Optimistic) {
            // The lock-free reader computes a key's candidate positions
            // itself; an array kind that cannot enumerate them (victim
            // caches, fully-associative, ...) cannot serve optimistic
            // gets. Reject up front rather than silently degrading.
            BlockPos probeBuf[kMaxLookupWays];
            if (shard->array->lookupWays(0, probeBuf, kMaxLookupWays) ==
                0) {
                return Status::invalidArgument(
                    "zkv: read path 'optimistic' requires candidate-"
                    "position enumeration (lookupWays), which array '" +
                    cfg.array.label() + "' does not support");
            }
        }
        store->shards_.push_back(std::move(shard));
    }
    if (cfg.persist.enabled()) {
        // The identity string pins the array shape + seed alongside
        // the shard count the tier's MANIFEST records: replaying logs
        // into a differently-shaped store would scatter keys.
        const std::string identity =
            cfg.array.label() + " blocks=" +
            std::to_string(cfg.array.blocks) +
            " seed=" + std::to_string(cfg.array.seed);
        auto tier_or =
            persist::PersistTier::open(cfg.persist, cfg.shards, identity);
        if (!tier_or) return tier_or.status();
        store->persist_ = std::move(*tier_or);
        ZkvStore* raw = store.get();
        store->persist_->setSnapshotSource(
            [raw](std::uint32_t shard) {
                return raw->captureShardSnapshot(shard);
            });
    }
    return store;
}

std::uint32_t
ZkvStore::numShards() const
{
    return cfg_.shards;
}

std::uint32_t
ZkvStore::shardOf(std::uint64_t key) const
{
    // splitmix64 over (key, store seed): independent of the H3 way
    // hashing inside the shard, so bank selection never correlates
    // with candidate placement.
    return static_cast<std::uint32_t>(zkvMix64(key ^ cfg_.array.seed) %
                                      cfg_.shards);
}

/*
 * ---- the op core ---------------------------------------------------
 *
 * Each op body is written once, as one locked step per op kind
 * covering u64 and bytes values, the store.walk fault site, the
 * reserved key and persist logging. One batch loop (runBatch) runs
 * the steps, and the public single ops are one-op batches. Steps and
 * loop are templated on a compile-time probe — the compile-away
 * hook pattern of uszram's LOG_READ / UPDATE_CACHE (SNIPPETS.md):
 * NoProbe's hooks are empty, SpanProbe stamps the phases, and traced
 * and plain runs are the same code.
 */

namespace {

/** Fail @p res with @p s, keeping the batch's first failure in @p why
 *  (null when nobody reads it). Steps build a Status only to fail. */
void
fail(StoreBatchResult& res, Status s, Status* why)
{
    res.code = s.code();
    if (why != nullptr && why->isOk()) *why = std::move(s);
}

/** One compressed put payload, packed before the shard lock. */
struct Packed
{
    std::uint32_t len = 0;
    std::array<std::uint8_t, kZkvMaxValueBytes + 32> bytes; // + header
};

/** @p n slots for a multi-op batch's packed payloads: a per-thread
 *  scratch that only grows, so a stream of batches allocates nothing. */
Packed*
packedScratch(std::size_t n)
{
    thread_local std::vector<Packed> scratch;
    if (scratch.size() < n) scratch.resize(n);
    return scratch.data();
}

/** A one-op put batch's outcome as put()/putBytes() report it. */
Expected<PutResult>
putResultOf(Status& why, const StoreBatchResult& r)
{
    if (r.code != ErrorCode::Ok) return std::move(why);
    return PutResult{r.inserted,     r.evicted,    r.evictedKey,
                     r.evictedValue, r.candidates, r.relocations};
}

/** The untraced probe: every hook but the plain lock compiles away. */
struct NoProbe
{
    NoProbe(std::size_t, std::uint32_t) {}
    void begin(std::size_t, const StoreBatchOp&) {}
    void lockFreeDone(bool, std::uint32_t) {}
    void lock(ShardLock& l) { l.lock(); }
    void flag(std::uint8_t) {}
    template <class Fn> Replacement walk(Fn insert) { return insert(); }
    void end(ZkvShardObs&) {}
    void publish(ObsTracer*) {}
};

/**
 * The tracing probe: one ObsOpRecord per op plus the shard's
 * ZkvShardObs sums. An op's span starts when its request finished
 * frame decode (when known), so queueing up to dispatch is the `net`
 * phase. The batch's one lock wait goes to its first locked op, and
 * each locked op's probe phase starts where the previous op ended; a
 * put that walks splits its locked time into probe and walk. Records
 * reach the tracer's per-thread ring only after the lock is released.
 */
class SpanProbe
{
  public:
    SpanProbe(std::size_t n, std::uint32_t shard)
        : many_(n > 1 ? n : 0), recs_(n > 1 ? many_.data() : &one_), n_(n),
          shard_(static_cast<std::uint16_t>(shard))
    {
    }
    SpanProbe(const SpanProbe&) = delete;
    SpanProbe& operator=(const SpanProbe&) = delete;

    void
    begin(std::size_t i, const StoreBatchOp& op)
    {
        rec_ = &recs_[i];
        if (rec_->tsBeginNs != 0) return; // a lock-free fallback resumes
        const std::uint64_t tDispatch =
            !locked_ ? obsNowNs() : firstLocked_ ? tBatch_ : opStart_;
        rec_->op = op.kind;
        rec_->key = op.key;
        rec_->shard = shard_;
        rec_->tsBeginNs = op.enqueueNs != 0 && op.enqueueNs < tDispatch
                              ? op.enqueueNs
                              : tDispatch;
        rec_->netNs = obsDurNs(rec_->tsBeginNs, tDispatch);
        if (!locked_) opStart_ = tDispatch;
    }

    void
    lockFreeDone(bool answered, std::uint32_t retries)
    {
        // Gets never walk, so `candidates` carries the seq retry count.
        rec_->flags |= kObsFlagOptimistic;
        rec_->candidates = retries;
        if (!answered) return; // the locked pass finishes the record
        const std::uint64_t tEnd = obsNowNs();
        rec_->probeNs = obsDurNs(opStart_, tEnd);
        rec_->durNs = obsDurNs(rec_->tsBeginNs, tEnd);
    }

    void
    lock(ShardLock& l)
    {
        tBatch_ = obsNowNs();
        acq_ = l.lockInstrumented();
        // Timestamp the acquire only when it contended: an uncontended
        // lock (~15 ns) is below the clock's resolution, so its cost
        // folds into the first op's probe phase instead.
        opStart_ = acq_.contended ? obsNowNs() : tBatch_;
        locked_ = true;
    }

    void flag(std::uint8_t f) { rec_->flags |= f; }

    template <class Fn>
    Replacement
    walk(Fn insert)
    {
        const std::uint64_t t0 = obsNowNs();
        Replacement r = insert();
        rec_->probeNs = obsDurNs(opStart_, t0);
        rec_->walkNs = obsDurNs(t0, obsNowNs());
        rec_->candidates = r.candidates;
        rec_->relocations = r.relocations;
        walked_ = true;
        return r;
    }

    void
    end(ZkvShardObs& o)
    {
        const std::uint64_t tEnd = obsNowNs();
        // An op that did not walk folds its whole locked time into probe.
        if (!walked_) rec_->probeNs = obsDurNs(opStart_, tEnd);
        rec_->durNs = obsDurNs(rec_->tsBeginNs, tEnd);
        if (firstLocked_) {
            rec_->lockWaitNs = obsDurNs(tBatch_, opStart_);
            o.lockAcquisitions++;
            o.lockContended += acq_.contended ? 1 : 0;
            o.lockSpinIters += acq_.spins;
        }
        o.lockWaitNs += rec_->lockWaitNs;
        o.netNs += rec_->netNs;
        o.probeNs += rec_->probeNs;
        o.walkNs += rec_->walkNs;
        o.opNs += rec_->durNs;
        opStart_ = tEnd;
        firstLocked_ = walked_ = false;
    }

    void
    publish(ObsTracer* tracer)
    {
        if (tracer == nullptr) return;
        ObsThreadChannel* ch = tracer->channel();
        for (std::size_t i = 0; i < n_; i++) ch->record(recs_[i]);
    }

  private:
    ObsOpRecord one_; ///< a single op's record: no allocation
    std::vector<ObsOpRecord> many_;
    ObsOpRecord* recs_;
    ObsOpRecord* rec_ = nullptr; ///< the op being stamped
    std::size_t n_;
    std::uint16_t shard_;
    ShardLock::Acquire acq_{};
    std::uint64_t tBatch_ = 0;  ///< when the lock was requested
    std::uint64_t opStart_ = 0; ///< where this op's probe phase starts
    bool locked_ = false;
    bool firstLocked_ = true;
    bool walked_ = false;
};

} // namespace

template <class Probe>
[[gnu::always_inline]] inline void
ZkvStore::getStep(Shard& sh, const StoreBatchOp& op, StoreBatchResult& res,
                  Probe& probe, Status* why)
{
    sh.hot.gets++;
    // An optimistic-mode get lands here as a lock-free fallback or as a
    // get in a batch with writes, and is answered by probe, not access:
    // optimistic gets never promote, so eviction stays a pure function
    // of the puts and erases whichever path answers.
    const bool optimistic = cfg_.readPath == ReadPath::Optimistic;
    AccessContext ctx{op.key, kNoNextUse};
    const BlockPos pos = optimistic ? sh.array->probe(op.key)
                                    : sh.array->access(op.key, ctx);
    if (optimistic) {
        sh.seqc.fallback.fetch_add(1, std::memory_order_relaxed);
        probe.flag(kObsFlagOptimistic | kObsFlagSeqFallback);
    }
    if (pos == kInvalidPos) return;
    sh.hot.getHits++;
    if (bytesMode()) {
        const std::span<const std::uint8_t> stored = sh.mirror->bytesAt(pos);
        res.valueBytes.resize(cfg_.value.maxBytes);
        sh.mirror->noteDecompress();
        auto len_or = codec_->decompress(stored.data(), stored.size(),
                                         res.valueBytes.data(),
                                         res.valueBytes.size());
        if (!len_or) {
            // A corrupt stream (or the compress.codec fault site) fails
            // the op with Corruption — never torn or partial bytes.
            res.valueBytes.clear();
            return fail(res, len_or.status(), why);
        }
        res.valueBytes.resize(*len_or);
    } else {
        res.value = sh.mirror->valueAt(pos);
    }
    res.hit = true;
    probe.flag(kObsFlagHit);
}

template <class Probe>
[[gnu::always_inline]] inline void
ZkvStore::putStep(Shard& sh, std::uint32_t shard, const StoreBatchOp& op,
                  std::span<const std::uint8_t> stored,
                  StoreBatchResult& res, Probe& probe, std::uint64_t& pseq,
                  Status* why)
{
    if (op.key == kReservedKey) {
        return fail(res,
                    Status::invalidArgument(
                        "zkv: key " + std::to_string(op.key) +
                        " is reserved (array invalid-address sentinel)"),
                    why);
    }
    if (bytesMode() && op.valueBytes.size() > cfg_.value.maxBytes) {
        return fail(res,
                    Status::invalidArgument(
                        "zkv: value length " +
                        std::to_string(op.valueBytes.size()) +
                        " exceeds value.maxBytes (" +
                        std::to_string(cfg_.value.maxBytes) + ")"),
                    why);
    }
    sh.stats.puts++;
    sh.mirror->stage(op.value, stored,
                     static_cast<std::uint32_t>(op.valueBytes.size()));
    AccessContext ctx{op.key, kNoNextUse};
    const BlockPos pos = sh.array->access(op.key, ctx);
    if (pos == kInvalidPos && ZC_INJECT_FAULT("store.walk")) {
        return fail(res,
                    Status::resourceExhausted(
                        "zkv: injected relocation-walk failure (site "
                        "store.walk, shard " +
                        std::to_string(shard) + ")"),
                    why);
    }
    if (pos != kInvalidPos) {
        {
            Shard::WriteSection ws(sh);
            sh.mirror->commit(pos);
        }
        sh.stats.putUpdates++;
        res.hit = true;
        probe.flag(kObsFlagHit);
    } else {
        Replacement r = probe.walk([&] {
            Shard::WriteSection ws(sh);
            return sh.array->insert(op.key, ctx);
        });
        probe.flag(kObsFlagInserted);
        res.inserted = true;
        res.candidates = r.candidates;
        res.relocations = r.relocations;
        sh.stats.putInserts++;
        sh.stats.walkCandidates += r.candidates;
        sh.stats.relocations += r.relocations;
        if (r.evictedValid()) {
            // Bytes mode reports only the key: the victim's payload
            // dies compressed, and the u64 word (evictedValue) stays 0.
            res.evicted = true;
            res.evictedKey = r.evictedAddr;
            res.evictedValue = sh.mirror->lastEvicted();
            sh.stats.evictions++;
            probe.flag(kObsFlagEvicted);
        }
    }
    if (persist_ != nullptr) {
        // Evict-then-put is the apply order: replaying the two records
        // leaves exactly this shard state.
        if (res.evicted) persist_->logEvict(shard, res.evictedKey);
        pseq = persist_->logPut(shard, op.key, op.value);
    }
}

template <class Probe>
[[gnu::always_inline]] inline void
ZkvStore::eraseStep(Shard& sh, std::uint32_t shard, const StoreBatchOp& op,
                    StoreBatchResult& res, Probe& probe, std::uint64_t& pseq)
{
    sh.stats.erases++;
    bool erased = false;
    {
        Shard::WriteSection ws(sh);
        erased = sh.array->invalidate(op.key);
    }
    if (!erased) return;
    sh.stats.eraseHits++;
    res.hit = true;
    probe.flag(kObsFlagHit);
    if (persist_ != nullptr) pseq = persist_->logErase(shard, op.key);
}

// runBatch, its steps and runOne are forced inline so each single-op
// wrapper sees its op kind and batch size as constants: the dispatch
// and the passes a one-op batch does not need fold away.
template <class Probe>
[[gnu::always_inline]] inline void
ZkvStore::runBatch(std::uint32_t shard, std::span<const StoreBatchOp> ops,
                   StoreBatchResult* out, Status* why)
{
    if (ops.empty()) return;
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    Probe probe(ops.size(), shard);

    // On the optimistic read path an all-gets batch answers every get
    // lock-free first, and only the validation failures go on to the
    // locked pass. A batch with a put or erase runs fully locked: a get
    // must see the writes before it in program order.
    const bool lockFree =
        cfg_.readPath == ReadPath::Optimistic &&
        std::all_of(ops.begin(), ops.end(), [](const StoreBatchOp& op) {
            return op.kind == ObsOp::Get;
        });
    std::vector<std::size_t> fell; // lock-free failures, in order
    if (lockFree) {
        std::uint64_t nHit = 0;
        std::uint64_t nRetried = 0;
        for (std::size_t i = 0; i < ops.size(); i++) {
            probe.begin(i, ops[i]);
            std::uint32_t retries = 0;
            const bool answered = tryOptimisticGet(
                sh, ops[i].key, retries, out[i].hit, out[i].value);
            probe.lockFreeDone(answered, retries);
            nRetried += retries;
            if (!answered) {
                fell.push_back(i);
            } else if (out[i].hit) {
                nHit++;
                probe.flag(kObsFlagHit);
            }
        }
        // One relaxed add per counter per batch, none when zero.
        auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t n) {
            if (n != 0) c.fetch_add(n, std::memory_order_relaxed);
        };
        bump(sh.seqc.optimistic, ops.size() - fell.size());
        bump(sh.seqc.getHits, nHit);
        bump(sh.seqc.retried, nRetried);
        if (fell.empty()) return probe.publish(tracer_);
    }

    // Bytes-mode put payloads are compressed before the lock (codecs are
    // stateless), one op per slot of one buffer: on the stack for a
    // one-op batch, the thread's scratch for a larger one. Under the
    // lock, commit() copies each into the shard's slab.
    Packed one;
    Packed* packed = nullptr; // per op, once the batch holds a put
    const auto stored = [&](std::size_t i) {
        return packed != nullptr ? std::span<const std::uint8_t>(
                                       packed[i].bytes.data(), packed[i].len)
                                 : std::span<const std::uint8_t>();
    };
    for (std::size_t i = 0; bytesMode() && i < ops.size(); i++) {
        const StoreBatchOp& op = ops[i];
        if (op.kind != ObsOp::Put) continue;
        if (packed == nullptr) {
            packed = ops.size() > 1 ? packedScratch(ops.size()) : &one;
        }
        // putStep fails oversize payloads, uncompressed.
        if (op.valueBytes.size() > cfg_.value.maxBytes) continue;
        auto n_or = codec_->compress(op.valueBytes.data(),
                                     op.valueBytes.size(),
                                     packed[i].bytes.data(),
                                     packed[i].bytes.size());
        zc_assert(n_or.hasValue()); // bytes >= maxCompressedSize
        packed[i].len = static_cast<std::uint32_t>(*n_or);
    }

    std::uint64_t pseq = 0; // the batch's highest op-log seqno
    probe.lock(sh.hot.lock);
    {
        std::lock_guard<ShardLock> g(sh.hot.lock, std::adopt_lock);
        const std::size_t n = lockFree ? fell.size() : ops.size();
        for (std::size_t k = 0; k < n; k++) {
            const std::size_t i = lockFree ? fell[k] : k;
            const StoreBatchOp& op = ops[i];
            probe.begin(i, op);
            switch (op.kind) {
              case ObsOp::Get:
                getStep(sh, op, out[i], probe, why);
                break;
              case ObsOp::Put:
                putStep(sh, shard, op, stored(i), out[i], probe, pseq, why);
                break;
              case ObsOp::Erase:
                eraseStep(sh, shard, op, out[i], probe, pseq);
                break;
            }
            if (out[i].code != ErrorCode::Ok) probe.flag(kObsFlagError);
            probe.end(sh.obs);
        }
    }
    // One group-commit wait on the batch's highest seqno covers every
    // mutation it logged, after the lock is released so the shard
    // stays available to other threads during the fsync.
    if (pseq != 0) {
        if (Status s = persist_->waitDurable(shard, pseq); !s.isOk()) {
            // The state changed but never became durable: fail every op
            // the batch logged (successful puts, erases that hit) rather
            // than ack writes a crash would lose.
            for (std::size_t i = 0; i < ops.size(); i++) {
                const bool logged =
                    ops[i].kind == ObsOp::Put
                        ? out[i].code == ErrorCode::Ok
                        : ops[i].kind == ObsOp::Erase && out[i].hit;
                if (logged) out[i].code = ErrorCode::IoError;
            }
            if (why != nullptr && why->isOk()) *why = std::move(s);
        }
    }
    probe.publish(tracer_);
}

void
ZkvStore::runShardBatch(std::uint32_t shard,
                        std::span<const StoreBatchOp> ops,
                        StoreBatchResult* out)
{
    // Callers may reuse result buffers; per-op codes say the rest. A
    // reset keeps the payload buffer, so a get hit fills it in place.
    for (std::size_t i = 0; i < ops.size(); i++) {
        std::vector<std::uint8_t> bytes = std::move(out[i].valueBytes);
        bytes.clear();
        out[i] = StoreBatchResult{};
        out[i].valueBytes = std::move(bytes);
    }
    obsEnabled_ ? runBatch<SpanProbe>(shard, ops, out, nullptr)
                : runBatch<NoProbe>(shard, ops, out, nullptr);
}

[[gnu::always_inline]] inline void
ZkvStore::runOne(ObsOp kind, std::uint64_t key, StoreBatchResult& res,
                 Status* why, std::uint64_t value,
                 std::span<const std::uint8_t> bytes)
{
    StoreBatchOp op;
    op.kind = kind;
    op.key = key;
    op.value = value;
    op.valueBytes = bytes;
    const std::uint32_t shard = shardOf(key);
    obsEnabled_ ? runBatch<SpanProbe>(shard, {&op, 1}, &res, why)
                : runBatch<NoProbe>(shard, {&op, 1}, &res, why);
}

std::optional<std::uint64_t>
ZkvStore::get(std::uint64_t key)
{
    zc_assert(!bytesMode()); // bytes-mode callers use getBytes()
    StoreBatchResult res;
    runOne(ObsOp::Get, key, res, nullptr); // a u64 get cannot fail
    return res.hit ? std::optional<std::uint64_t>(res.value) : std::nullopt;
}

Expected<PutResult>
ZkvStore::put(std::uint64_t key, std::uint64_t value)
{
    if (bytesMode()) {
        return Status::invalidArgument(
            "zkv: put(u64) on a bytes-mode store (use putBytes)");
    }
    StoreBatchResult res;
    Status why;
    runOne(ObsOp::Put, key, res, &why, value);
    return putResultOf(why, res);
}

bool
ZkvStore::erase(std::uint64_t key)
{
    StoreBatchResult res;
    // The bool API is kept: a durability failure here is sticky and
    // surfaces through the tier's counters and stopPersist().
    runOne(ObsOp::Erase, key, res, nullptr);
    return res.hit;
}

Expected<PutResult>
ZkvStore::putBytes(std::uint64_t key, std::span<const std::uint8_t> value)
{
    if (!bytesMode()) {
        return Status::invalidArgument(
            "zkv: putBytes on a fixed-u64 store (set value.maxBytes)");
    }
    StoreBatchResult res;
    Status why;
    runOne(ObsOp::Put, key, res, &why, 0, value);
    return putResultOf(why, res);
}

Expected<std::optional<std::vector<std::uint8_t>>>
ZkvStore::getBytes(std::uint64_t key)
{
    if (!bytesMode()) {
        return Status::invalidArgument(
            "zkv: getBytes on a fixed-u64 store (set value.maxBytes)");
    }
    StoreBatchResult res;
    Status why;
    runOne(ObsOp::Get, key, res, &why);
    if (!why.isOk()) return why;
    using Bytes = std::optional<std::vector<std::uint8_t>>;
    return res.hit ? Bytes(std::move(res.valueBytes)) : Bytes();
}

ZkvCompressionStats
ZkvStore::compressionTotals() const
{
    ZkvCompressionStats t;
    for (const auto& sh : shards_) {
        std::lock_guard<ShardLock> g(sh->hot.lock);
        const ZkvCompressionStats c = sh->mirror->compressionStats();
        sumCounters(t, kCompressionCounters, c);
        sumCounters(t, kCompressionLevels, c);
    }
    return t;
}

/*
 * ---- optimistic read path (ReadPath::Optimistic, docs/store.md) ----
 *
 * The reader computes the key's W candidate positions itself
 * (CacheArray::lookupWays is a pure function of the key and the hash
 * matrices — a resident block is always in one of them, Section III-A)
 * and scans the ValueMirror's relaxed atomic key/value mirrors between
 * a ShardSeq readBegin/readValidate pair. Any overlap with a writer's
 * odd window discards the snapshot and retries; after
 * kSeqGetMaxRetries the get is answered by the locked get step. Neither
 * path promotes the hit in the replacement policy — an optimistic-mode
 * shard's eviction order is a pure function of its put/erase sequence,
 * whichever path answers a get.
 */

bool
ZkvStore::tryOptimisticGet(Shard& sh, std::uint64_t key,
                           std::uint32_t& retries, bool& hit,
                           std::uint64_t& value)
{
    BlockPos pos[kMaxLookupWays];
    const std::uint32_t ways = sh.array->lookupWays(key, pos, kMaxLookupWays);
    for (std::uint32_t attempt = 0; attempt <= kSeqGetMaxRetries;
         attempt++) {
        const std::uint64_t begin = sh.seq.readBegin();
        if (begin & 1) {
            // Writer mid-section: probing now could only be wasted
            // work, so count the retry and re-snapshot immediately.
            retries++;
            continue;
        }
        bool h = false;
        std::uint64_t v = 0;
        for (std::uint32_t w = 0; w < ways; w++) {
            if (sh.mirror->keyAt(pos[w]) == key) {
                v = sh.mirror->valueAt(pos[w]);
                h = true;
                break;
            }
        }
        if (sh.seq.readValidate(begin)) {
            hit = h;
            value = v;
            return true;
        }
        retries++;
    }
    return false;
}

void
ZkvStore::enableObs(ObsTracer* tracer)
{
    tracer_ = tracer;
    obsEnabled_ = true;
}

void
ZkvStore::disableObs()
{
    obsEnabled_ = false;
    tracer_ = nullptr;
}

ZkvShardObs
ZkvStore::shardObs(std::uint32_t shard) const
{
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.hot.lock);
    ZkvShardObs o = sh.obs;
    // Fold the lock-free read-path counters into the snapshot; the
    // plain fields in sh.obs stay zero (no writer without the lock).
    o.getOptimistic += sh.seqc.optimistic.load(std::memory_order_relaxed);
    o.getRetried += sh.seqc.retried.load(std::memory_order_relaxed);
    o.getFallback += sh.seqc.fallback.load(std::memory_order_relaxed);
    return o;
}

ZkvShardObs
ZkvStore::obsTotals() const
{
    ZkvShardObs t;
    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        sumCounters(t, kShardObsCounters, shardObs(i));
    }
    return t;
}

MetricsSample
ZkvStore::metricsSample() const
{
    MetricsSample s;
    const ZkvShardStats t = totals();
    s.counters.emplace_back("ops", t.gets + t.puts + t.erases);
    appendCounters(s, kShardStatsCounters, t);
    appendCounters(s, kShardObsCounters, obsTotals());
    if (bytesMode()) {
        const ZkvCompressionStats cp = compressionTotals();
        appendCounters(s, kCompressionCounters, cp);
        appendGauges(s, kCompressionLevels, cp);
    }
    if (persist_ != nullptr) {
        const persist::PersistShardCounters pc = persist_->totals();
        appendCounters(s, persist::kPersistCounters, pc, "persist_");
        appendCounters(s, persist::kPersistPhaseCounters, pc, "persist_");
        s.gauges.emplace_back("persist_queue_depth",
                              static_cast<double>(pc.queueDepth));
    }
    return s;
}

// ---- durability tier -----------------------------------------------

void
ZkvStore::replayPut(std::uint32_t shard, std::uint64_t key,
                    std::uint64_t value)
{
    if (key == kReservedKey) return;
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.hot.lock);
    sh.mirror->stage(value, {}, 0);
    AccessContext ctx{key, kNoNextUse};
    BlockPos pos = sh.array->access(key, ctx);
    Shard::WriteSection ws(sh);
    if (pos != kInvalidPos) {
        sh.mirror->commit(pos);
    } else {
        // Replay inserts may themselves evict (capacity): misses after
        // recovery are acceptable, resurrections are not — and since
        // the tier is not active yet, nothing here is re-logged.
        (void)sh.array->insert(key, ctx);
    }
}

void
ZkvStore::replayErase(std::uint32_t shard, std::uint64_t key)
{
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.hot.lock);
    Shard::WriteSection ws(sh);
    (void)sh.array->invalidate(key);
}

Expected<persist::RecoveryReport>
ZkvStore::recover()
{
    if (persist_ == nullptr) {
        return Status::invalidArgument(
            "zkv: recover() needs persistence configured (set a data "
            "directory)");
    }
    persist::ReplayTarget target;
    target.applyPut = [this](std::uint32_t shard, std::uint64_t key,
                             std::uint64_t value) {
        replayPut(shard, key, value);
    };
    target.applyErase = [this](std::uint32_t shard, std::uint64_t key) {
        replayErase(shard, key);
    };
    auto report_or = persist_->recover(target);
    if (!report_or) return report_or.status();
    if (Status s = persist_->start(); !s.isOk()) return s;
    return report_or;
}

Status
ZkvStore::stopPersist()
{
    if (persist_ == nullptr) return Status::ok();
    return persist_->stop();
}

void
ZkvStore::forEachInShard(
    std::uint32_t shard,
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const
{
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.hot.lock);
    sh.array->forEachValid([&](BlockPos pos, Addr addr) {
        fn(addr, sh.mirror->valueAt(pos));
    });
}

persist::SnapshotData
ZkvStore::captureShardSnapshot(std::uint32_t shard) const
{
    zc_assert(persist_ != nullptr);
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.hot.lock);
    persist::SnapshotData snap;
    // Watermark and enumeration under the same lock acquisition: the
    // image is exactly the state after every op with seqno <= it.
    snap.watermark = persist_->lastSeqno(shard);
    snap.entries.reserve(sh.array->validCount());
    sh.array->forEachValid([&](BlockPos pos, Addr addr) {
        snap.entries.emplace_back(addr, sh.mirror->valueAt(pos));
    });
    return snap;
}

std::uint64_t
ZkvStore::size() const
{
    std::uint64_t n = 0;
    for (const auto& sh : shards_) {
        std::lock_guard<ShardLock> g(sh->hot.lock);
        n += sh->array->validCount();
    }
    return n;
}

ZkvShardStats
ZkvStore::shardStats(std::uint32_t shard) const
{
    zc_assert(shard < shards_.size());
    Shard& sh = *shards_[shard];
    std::lock_guard<ShardLock> g(sh.hot.lock);
    ZkvShardStats s = sh.stats;
    // Locked gets count on the hot line and lock-free ones in the
    // atomic seq counters; fold both in so gets/get_hits stay
    // whole-shard truths.
    s.gets = sh.hot.gets + sh.seqc.optimistic.load(std::memory_order_relaxed);
    s.getHits =
        sh.hot.getHits + sh.seqc.getHits.load(std::memory_order_relaxed);
    return s;
}

ZkvShardStats
ZkvStore::totals() const
{
    ZkvShardStats t;
    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        sumCounters(t, kShardStatsCounters, shardStats(i));
    }
    return t;
}

void
ZkvStore::registerStats(StatGroup& g)
{
    StatGroup& root = g.group("store", "zkv sharded key-value store");
    root.addConst("shards", "shard (bank) count",
                  JsonValue(std::uint64_t{cfg_.shards}));
    root.addConst("array", "per-shard array configuration",
                  JsonValue(cfg_.array.label()));
    root.addConst("lock", "shard lock kind",
                  JsonValue(std::string(shardLockKindName(cfg_.lock))));
    root.addConst("read_path", "get-path mode (docs/store.md)",
                  JsonValue(std::string(readPathName(cfg_.readPath))));
    root.addCounter("resident_keys", "valid keys across all shards",
                    [this] { return size(); });

    // Totals snapshot: one locked sweep per dumped counter keeps the
    // getters trivially consistent with the per-shard groups below.
    registerCounters(root.group("totals", "summed over all shards"),
                     kShardStatsCounters, [this] { return totals(); });

    // Latency attribution + lock contention (docs/telemetry.md). All
    // zeros while obs is disabled (the default), so the default stats
    // dump stays deterministic; with obs enabled the *_ns values are
    // wall-clock and belong in the nondeterministic class.
    StatGroup& obs = root.group(
        "obs", "latency attribution and lock contention (traced paths)");
    registerCounters(obs, kShardObsCounters, [this] { return obsTotals(); });

    // Compressed-payload counters exist only in bytes mode, so the
    // default (fixed-u64) stats dump stays byte-identical.
    if (cfg_.value.bytesMode()) {
        StatGroup& comp = root.group(
            "compression", "compressed byte payloads (docs/compression.md)");
        comp.addConst("codec", "value codec",
                      JsonValue(std::string(codecKindName(cfg_.value.codec))));
        comp.addConst("max_value_bytes", "value length cap",
                      JsonValue(std::uint64_t{cfg_.value.maxBytes}));
        auto snap = [this] { return compressionTotals(); };
        registerCounters(comp, kCompressionCounters, snap);
        registerCounters(comp, kCompressionLevels, snap);
        comp.addScalar("ratio", "raw/stored bytes over all puts",
                       [snap] { return snap().ratio(); });
    }

    // Durability tier counters exist only when persistence is on, so
    // the default (in-memory) stats dump stays byte-identical.
    if (persist_ != nullptr) {
        persist_->registerStats(
            root.group("persist", "durability tier (docs/durability.md)"));
    }

    // Per-shard snapshots fold in the lock-free read path's atomic
    // counters, the same arithmetic the totals apply.
    for (std::uint32_t i = 0; i < shards_.size(); i++) {
        StatGroup& sh = root.group("shard" + std::to_string(i));
        registerCounters(sh, kShardStatsCounters,
                         [this, i] { return shardStats(i); });
        registerCounters(sh.group("obs"), kShardObsCounters,
                         [this, i] { return shardObs(i); });
        shards_[i]->array->registerStats(sh.group("array"));
    }
}

} // namespace zc
