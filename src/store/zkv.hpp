/**
 * @file
 * zkv: a concurrent, sharded in-memory key-value cache backed by the
 * zcache array design.
 *
 * The paper argues that a zcache delivers high associativity with few
 * ways and serial-latency lookups — properties that matter most in a
 * real concurrent store, not just a trace simulator. zkv is that
 * store: N independent shards (bank-per-shard), each a lock-guarded
 * CacheArray built through the existing factory (ZCache by default;
 * set-associative or skew-associative shards as comparison baselines),
 * holding key->value payloads and evicting via the zcache relocation
 * walk. The array/policy split is reused untouched: a shard interposes
 * a *value-mirroring* decorator policy (defined in zkv.cpp) around the
 * configured replacement policy, so payloads travel with blocks through
 * walk relocations exactly as replacement metadata does — the walk
 * logic itself is the simulator's, byte for byte.
 *
 * Concurrency model (docs/store.md): shard-level mutual exclusion, no
 * shared mutable state across shards. Keys are distributed over shards
 * with a splitmix64 mix of the key, independent of the in-shard H3
 * hashing, so shard selection does not correlate with way indexing.
 * Each shard's array seed is derived from the store seed and the shard
 * index (ZkvConfig::shardSpec), making a shard's eviction sequence a
 * pure function of the key sequence it receives — the property the
 * determinism and walk-victim tests in tests/test_store.cpp pin down.
 *
 * Error model: structured Status/Expected (docs/robustness.md), with
 * fault-injection sites store.alloc (shard construction) and
 * store.walk (relocation-walk insert path).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <span>

#include "cache/array_factory.hpp"
#include "common/status.hpp"
#include "common/stats_registry.hpp"
#include "common/types.hpp"
#include "compress/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "persist/persist.hpp"

namespace zc {

class ObsTracer;

/** splitmix64 finalizer (Steele et al.) used for shard selection. */
inline std::uint64_t
zkvMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** How a shard serializes its operations (ShardLock). */
enum class ShardLockKind {
    Mutex, ///< spins briefly, then parks — friendly under oversubscription
    Spin,  ///< test-and-test-and-set, never parks — lowest latency
};

inline const char*
shardLockKindName(ShardLockKind k)
{
    return k == ShardLockKind::Mutex ? "mutex" : "spin";
}

/**
 * How get() reads a shard (docs/store.md, "Read path").
 *
 * Locked is the original semantics: every get takes the shard lock and
 * promotes the hit in the replacement policy (an LRU-style touch), so
 * the shard's eviction sequence is a function of gets *and* puts.
 *
 * Optimistic makes the common-case get lock-free via a per-shard
 * seqlock (ShardSeq below): the reader probes the W candidate
 * positions without the lock and retries only if a writer overlapped.
 * Lock-free reads cannot touch the (non-atomic) policy, so optimistic
 * gets — including their locked fallback — never promote recency:
 * eviction order becomes a pure function of the put/erase sequence.
 * That is a semantic switch, not just a performance one, which is why
 * it is opt-in and Locked stays the default.
 */
enum class ReadPath {
    Locked,     ///< every get under the shard lock, hits promote
    Optimistic, ///< seqlock-validated lock-free gets, no promotion
};

inline const char*
readPathName(ReadPath p)
{
    return p == ReadPath::Locked ? "locked" : "optimistic";
}

/**
 * Hard cap on a bytes-mode value. Aligned with the net protocol's
 * 256-byte frame-body budget: 256 minus the 12-byte header, 8-byte
 * key, 2-byte length prefix and 4-byte optional CRC leaves at least
 * this much for the payload (src/net/protocol.hpp pins the arithmetic
 * with static_asserts), so any storable value is also shippable.
 */
inline constexpr std::uint32_t kZkvMaxValueBytes = 224;

/**
 * A bytes-mode shard keeps its stored payloads in a slab
 * (docs/compression.md): slots in size classes kZkvSlabClassBytes
 * apart, cut from kZkvSlabBytes slabs.
 */
inline constexpr std::uint32_t kZkvSlabClassBytes = 16;
inline constexpr std::uint32_t kZkvSlabBytes = 16 * 1024;

/**
 * Value representation (docs/compression.md). Default is the original
 * fixed-u64 mode: put/get carry one machine word and every compressed
 * path below is compiled out of the hot loops by one branch.
 *
 * Setting maxBytes > 0 switches the store to variable-length byte
 * payloads: putBytes/getBytes replace put/get, each value is run
 * through `codec` on the way in and back out on the way out, and the
 * per-shard mirror accounts resident raw vs stored bytes so the
 * realized compression ratio is a first-class stat. Bytes mode is
 * incompatible with ReadPath::Optimistic (payloads are not atomic
 * words, so the seqlock read path cannot snapshot them) and with the
 * durability tier (the op log records u64 values); validate() rejects
 * both combinations up front.
 */
struct ZkvValueConfig
{
    /** Maximum value length in bytes; 0 = fixed u64 values. */
    std::uint32_t maxBytes = 0;

    /** Codec applied to stored payloads (bytes mode only). */
    CodecKind codec = CodecKind::None;

    bool bytesMode() const { return maxBytes != 0; }
};

/** Store-wide configuration. */
struct ZkvConfig
{
    /** Independent shards (banks); keys are split across them. */
    std::uint32_t shards = 4;

    /**
     * Per-shard array shape: kind (ZCache / SetAssoc / SkewAssoc / ...),
     * blocks = per-shard capacity, ways/levels, policy, hash. The seed
     * field is a base — each shard derives its own via shardSpec().
     */
    ArraySpec array;

    ShardLockKind lock = ShardLockKind::Mutex;

    /**
     * Get-path mode. Optimistic requires an array kind that supports
     * candidate-position enumeration (CacheArray::lookupWays — zcache,
     * skew-associative and set-associative shards do); create() rejects
     * the combination otherwise. See ReadPath for the semantic change.
     */
    ReadPath readPath = ReadPath::Locked;

    /**
     * Durability tier (docs/durability.md). Disabled by default
     * (empty data directory): the store is then a pure cache with
     * zero persistence overhead on the op paths. When enabled,
     * create() opens the tier and recover() must run before traffic.
     */
    persist::PersistConfig persist;

    /** Value representation: fixed u64 (default) or compressed byte
     *  payloads. See ZkvValueConfig for the mode rules. */
    ZkvValueConfig value;

    /**
     * The per-shard ArraySpec: identical to `array` except for a
     * splitmix64-derived seed unique to @p shard. Public so tests can
     * build a bare reference array with the exact seed a shard uses
     * (the eviction-matches-walk-victim test in tests/test_store.cpp).
     */
    ArraySpec
    shardSpec(std::uint32_t shard) const
    {
        ArraySpec s = array;
        s.seed = zkvMix64(array.seed + 0x736864ULL * (shard + 1));
        return s;
    }

    /** Field-level validation; create() runs this first. */
    Status
    validate() const
    {
        if (shards == 0) {
            return Status::invalidArgument("zkv: shards must be > 0");
        }
        if (array.kind == ArrayKind::CompressedZ ||
            array.kind == ArrayKind::CompressedSetAssoc) {
            // The byte-budget makeSpace loop can evict several victims
            // per insert, which the put contract (at most one evicted
            // key per PutResult) and the durability log's evict-then-
            // put replay order cannot represent. Compressed *values*
            // are the store-side story: set value.codec instead.
            return Status::invalidArgument(
                "zkv: compressed array kinds are simulator-only (a "
                "byte-budget insert can evict several keys); use "
                "value.maxBytes/value.codec for compressed payloads");
        }
        if (value.bytesMode()) {
            if (value.maxBytes > kZkvMaxValueBytes) {
                return Status::invalidArgument(
                    "zkv: value.maxBytes (" +
                    std::to_string(value.maxBytes) + ") exceeds the " +
                    std::to_string(kZkvMaxValueBytes) +
                    "-byte protocol cap (kZkvMaxValueBytes)");
            }
            if (readPath == ReadPath::Optimistic) {
                return Status::unsupported(
                    "zkv: byte-payload values are incompatible with the "
                    "optimistic read path (payloads are not atomic "
                    "words; the seqlock reader cannot snapshot them)");
            }
            if (persist.enabled()) {
                return Status::unsupported(
                    "zkv: byte-payload values are incompatible with the "
                    "durability tier (the op log records u64 values)");
            }
        }
        if (Status s = persist.validate(); !s.isOk()) return s;
        return validateSpec(array);
    }
};

/** Outcome of a put(). */
struct PutResult
{
    /** False when an existing key's value was updated in place. */
    bool inserted = false;

    /** True when installing the key evicted another resident key. */
    bool evicted = false;
    std::uint64_t evictedKey = 0;
    std::uint64_t evictedValue = 0;

    /** Walk cost of the insert (R and m of Section III-B); 0 on update. */
    std::uint32_t candidates = 0;
    std::uint32_t relocations = 0;
};

/**
 * One operation in a shard batch (the server's dispatch unit,
 * docs/server.md). The network layer groups decoded requests by
 * shardOf(key) and hands each shard's group to runShardBatch, which
 * executes all of them under ONE lock acquisition — the point of
 * batched dispatch: lock traffic amortizes over the batch.
 */
struct StoreBatchOp
{
    ObsOp kind = ObsOp::Get;
    std::uint64_t key = 0;
    std::uint64_t value = 0; ///< puts only (fixed-u64 stores)

    /**
     * Put payload on a bytes-mode store; `value` is ignored there. A
     * VIEW: the caller keeps the bytes alive until the batch returns.
     * A span binds to a temporary vector without a warning, so assign
     * it from an lvalue that outlives the batch.
     */
    std::span<const std::uint8_t> valueBytes;

    /**
     * When observability is enabled, the timestamp (obsNowNs) the
     * request finished frame-decode; the traced batch path attributes
     * decode->dispatch time to the `net` phase. 0 = not timed.
     */
    std::uint64_t enqueueNs = 0;
};

/** Outcome of one batched operation; `code` != Ok carries no payload. */
struct StoreBatchResult
{
    ErrorCode code = ErrorCode::Ok;
    bool hit = false;      ///< get/erase found the key
    bool inserted = false; ///< put installed a new key
    bool evicted = false;

    std::uint64_t value = 0; ///< get result (valid iff hit)

    /** Get result on a bytes-mode store (valid iff hit); decompressed
     *  before the batch returns, so a decode failure surfaces as
     *  code = Corruption with the payload cleared, never torn bytes.
     *  runShardBatch keeps its capacity, so a reused result
     *  decompresses into a buffer that already exists. */
    std::vector<std::uint8_t> valueBytes;

    std::uint64_t evictedKey = 0;
    std::uint64_t evictedValue = 0;
    std::uint32_t candidates = 0;
    std::uint32_t relocations = 0;
};

/**
 * Compressed-payload counters (bytes mode only; all zeros otherwise).
 * The *Total pairs accumulate over every put, the resident pairs track
 * live entries, so realized compression ratio is available both as a
 * workload property (totals) and an occupancy property (resident).
 * slabBytes is the memory the shards' payload slabs hold, which is
 * never returned while the store lives.
 */
struct ZkvCompressionStats
{
    std::uint64_t compressCalls = 0;
    std::uint64_t decompressCalls = 0;
    std::uint64_t rawBytesTotal = 0;      ///< pre-codec bytes, all puts
    std::uint64_t storedBytesTotal = 0;   ///< post-codec bytes, all puts
    std::uint64_t slabBytes = 0;          ///< payload slab memory, grows only
    std::uint64_t residentRawBytes = 0;   ///< live entries, pre-codec
    std::uint64_t residentStoredBytes = 0; ///< live entries, as stored

    /** Raw/stored over all puts; 1.0 before any traffic. */
    double
    ratio() const
    {
        return storedBytesTotal != 0
                   ? static_cast<double>(rawBytesTotal) /
                         static_cast<double>(storedBytesTotal)
                   : 1.0;
    }
};

/** ZkvCompressionStats' monotonic counters, in stats-tree order. */
inline constexpr CounterField<ZkvCompressionStats> kCompressionCounters[] = {
    {"compress_calls", "payloads compressed (puts)",
     &ZkvCompressionStats::compressCalls},
    {"decompress_calls", "payloads decoded (get hits)",
     &ZkvCompressionStats::decompressCalls},
    {"raw_bytes_total", "pre-codec bytes, all puts",
     &ZkvCompressionStats::rawBytesTotal},
    {"stored_bytes_total", "post-codec bytes, all puts",
     &ZkvCompressionStats::storedBytesTotal},
    {"slab_bytes", "payload slab memory (only grows)",
     &ZkvCompressionStats::slabBytes},
};

/** ZkvCompressionStats' resident levels, which fall on evictions and
 *  erases: registered after the counters, windowed as gauges. */
inline constexpr CounterField<ZkvCompressionStats> kCompressionLevels[] = {
    {"resident_raw_bytes", "live entries, pre-codec",
     &ZkvCompressionStats::residentRawBytes},
    {"resident_stored_bytes", "live entries, as stored",
     &ZkvCompressionStats::residentStoredBytes},
};

/** Per-shard operation counters (also used for store-wide totals). */
struct ZkvShardStats
{
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t puts = 0;
    std::uint64_t putInserts = 0;
    std::uint64_t putUpdates = 0;
    std::uint64_t erases = 0;
    std::uint64_t eraseHits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t walkCandidates = 0;
    std::uint64_t relocations = 0;
};

/** ZkvShardStats' counters, in stats-tree order. */
inline constexpr CounterField<ZkvShardStats> kShardStatsCounters[] = {
    {"gets", "get operations", &ZkvShardStats::gets},
    {"get_hits", "gets that found the key", &ZkvShardStats::getHits},
    {"puts", "put operations", &ZkvShardStats::puts},
    {"put_inserts", "puts that installed a new key",
     &ZkvShardStats::putInserts},
    {"put_updates", "puts that updated in place", &ZkvShardStats::putUpdates},
    {"erases", "erase operations", &ZkvShardStats::erases},
    {"erase_hits", "erases that removed a key", &ZkvShardStats::eraseHits},
    {"evictions", "resident keys displaced by inserts",
     &ZkvShardStats::evictions},
    {"walk_candidates", "replacement candidates examined",
     &ZkvShardStats::walkCandidates},
    {"relocations", "walk relocations performed",
     &ZkvShardStats::relocations},
};

/**
 * Per-shard latency attribution and lock-contention counters
 * (docs/telemetry.md). Written only by the op core's SpanProbe —
 * all zeros while observability is disabled (the default), which
 * keeps stats dumps deterministic; with obs enabled the *_ns fields
 * are wall-clock and belong in the nondeterministic class.
 */
struct ZkvShardObs
{
    std::uint64_t lockAcquisitions = 0; ///< instrumented lock takes
    std::uint64_t lockContended = 0;    ///< takes that had to wait
    std::uint64_t lockSpinIters = 0;    ///< pauses spent spinning
    std::uint64_t lockWaitNs = 0;       ///< summed acquisition wait
    std::uint64_t netNs = 0;            ///< summed decode->dispatch queue
    std::uint64_t probeNs = 0;          ///< summed hash+tag probe time
    std::uint64_t walkNs = 0;           ///< summed relocation-walk time
    std::uint64_t opNs = 0;             ///< summed whole-op time

    /**
     * Seqlock read-path counters (ReadPath::Optimistic only; all zeros
     * under ReadPath::Locked). Unlike the *_ns fields these are
     * maintained whether or not observability is enabled — they cost
     * one relaxed per-shard fetch_add per get and the scaling study
     * needs them without the tracer. Single-threaded they are exactly
     * deterministic (every optimistic read validates on the first try),
     * so default stats dumps stay byte-stable.
     */
    std::uint64_t getOptimistic = 0; ///< gets answered without the lock
    std::uint64_t getRetried = 0;    ///< seq-validation retry attempts
    std::uint64_t getFallback = 0;   ///< gets that fell back to the lock
};

/** ZkvShardObs' counters, in stats-tree order. */
inline constexpr CounterField<ZkvShardObs> kShardObsCounters[] = {
    {"get_optimistic", "gets answered without the lock",
     &ZkvShardObs::getOptimistic},
    {"get_retried", "seqlock validation retries", &ZkvShardObs::getRetried},
    {"get_fallback", "optimistic gets that took the lock",
     &ZkvShardObs::getFallback},
    {"lock_acquisitions", "instrumented shard-lock takes",
     &ZkvShardObs::lockAcquisitions},
    {"lock_contended", "lock takes that had to wait",
     &ZkvShardObs::lockContended},
    {"lock_spin_iters", "pauses spent spinning for the lock",
     &ZkvShardObs::lockSpinIters},
    {"lock_wait_ns", "summed lock-acquisition wait", &ZkvShardObs::lockWaitNs},
    {"net_ns", "summed decode->dispatch queue time (server)",
     &ZkvShardObs::netNs},
    {"probe_ns", "summed hash+tag probe time", &ZkvShardObs::probeNs},
    {"walk_ns", "summed relocation-walk time", &ZkvShardObs::walkNs},
    {"op_ns", "summed whole-op time", &ZkvShardObs::opNs},
};

/**
 * The shard lock: one 32-bit word for both kinds, so it fits on the
 * shard's hot cache line beside the counters a get writes
 * (docs/store.md, "Shard layout"). A free word is taken with one CAS.
 *
 * Mutex is the three-state futex mutex of Drepper, "Futexes Are
 * Tricky": 0 free, 1 held, 2 held with waiters. A waiter spins on
 * relaxed loads for kSpinBound pauses, since shard critical sections
 * last a few hundred nanoseconds; only then does it mark the word 2
 * and park in FUTEX_WAIT. unlock() makes the wake syscall only when
 * the word was 2. Spin is test-and-test-and-set on the same word and
 * never enters the kernel. The slow paths live in zkv.cpp.
 */
class ShardLock
{
  public:
    explicit ShardLock(ShardLockKind kind) : kind_(kind) {}

    void
    lock()
    {
        if (tryLock()) return;
        std::uint32_t spins = 0;
        lockSlow(spins);
    }

    /** What an instrumented acquisition observed. */
    struct Acquire
    {
        bool contended = false;  ///< the uncontended fast path failed
        std::uint32_t spins = 0; ///< pauses spent spinning (both kinds)
    };

    /**
     * lock() that reports whether it had to wait. The traced op paths
     * use this; plain lock() stays the zero-overhead default.
     */
    Acquire
    lockInstrumented()
    {
        if (tryLock()) return {};
        Acquire a{true, 0};
        lockSlow(a.spins);
        return a;
    }

    void
    unlock()
    {
        if (kind_ == ShardLockKind::Spin) {
            word_.store(0, std::memory_order_release);
        } else if (word_.exchange(0, std::memory_order_release) == 2) {
            wake();
        }
    }

  private:
    /** Pauses a Mutex waiter spins before it parks. A pause takes
     *  ~25 ns on a recent Xeon, so that is ~3 us: several get
     *  critical sections, well short of a context switch. */
    static constexpr std::uint32_t kSpinBound = 128;

    bool
    tryLock()
    {
        std::uint32_t free = 0;
        return word_.compare_exchange_strong(free, 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed);
    }

    /** Wait for the word, counting pauses into @p spins. */
    void lockSlow(std::uint32_t& spins);

    /** FUTEX_WAKE one parked waiter. */
    void wake();

    std::atomic<std::uint32_t> word_{0};
    ShardLockKind kind_;
};

/**
 * Per-shard seqlock version word (docs/store.md, "Read path").
 *
 * Writers — put/erase and the relocation walk, which stay serialized
 * under the shard's ShardLock — bump the word to odd before any
 * mutation that can move or change an entry and back to even after.
 * Readers snapshot the word, probe without the lock, and accept the
 * result only if the word was even and unchanged across the probe.
 *
 * Memory-order argument (Boehm, "Can seqlocks get along with
 * programming language memory models?", MSPC 2012): the writer's
 * release *fence* after the odd store pairs with the reader's acquire
 * *fence* before the confirming load. If a reader observes any data
 * store from the write section, the fence-to-fence synchronization
 * rule ([atomics.fences]) forces its confirming seq load to observe
 * the odd value, so the read is discarded. Data accesses themselves
 * are relaxed atomics (the ValueMirror's key/value mirrors), which is
 * what keeps the protocol TSan-clean and free of C++ data-race UB.
 * Writers are already mutually excluded by the ShardLock, so the seq
 * updates are plain stores, not RMWs.
 */
class ShardSeq
{
  public:
    /** Writer: enter the odd (write-in-progress) state. Caller must
     *  hold the shard lock. */
    void
    beginWrite()
    {
        seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
    }

    /** Writer: back to even; releases the data stores to validators. */
    void
    endWrite()
    {
        seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    }

    /**
     * Reader: snapshot the version. An odd result means a writer is in
     * its critical section — don't bother probing, retry.
     */
    std::uint64_t
    readBegin() const
    {
        return seq_.load(std::memory_order_acquire);
    }

    /** Reader: true iff no writer overlapped since readBegin(). */
    bool
    readValidate(std::uint64_t begin) const
    {
        std::atomic_thread_fence(std::memory_order_acquire);
        return seq_.load(std::memory_order_relaxed) == begin;
    }

  private:
    std::atomic<std::uint64_t> seq_{0};
};

/**
 * Per-shard counters for the lock-free read path, updated with relaxed
 * fetch_adds by readers that by design hold no lock (the shard's plain
 * ZkvShardStats would be a data race). Cache-line aligned so reader
 * counter traffic never false-shares with the shard lock or seq word.
 * Snapshots fold these into ZkvShardStats/ZkvShardObs (shardStats /
 * shardObs), so consumers see one coherent counter set: every get
 * answered without the lock counts once in `optimistic`, which
 * shardStats() adds into `gets`.
 */
struct alignas(64) ZkvSeqCounters
{
    std::atomic<std::uint64_t> getHits{0};    ///< lock-free gets that hit
    std::atomic<std::uint64_t> optimistic{0}; ///< answered without lock
    std::atomic<std::uint64_t> retried{0};    ///< validation retries
    std::atomic<std::uint64_t> fallback{0};   ///< fell back to the lock
};

/**
 * The store. Operations are linearizable per key (each key lives in
 * exactly one shard and every shard operation runs under that shard's
 * lock). Construction is via create() so an impossible configuration
 * or an injected allocation fault surfaces as a structured Status.
 */
class ZkvStore
{
  public:
    static Expected<std::unique_ptr<ZkvStore>> create(const ZkvConfig& cfg);

    ~ZkvStore();

    ZkvStore(const ZkvStore&) = delete;
    ZkvStore& operator=(const ZkvStore&) = delete;

    /** Value for @p key, or nullopt on miss. Hits touch the policy on
     *  the locked read path (never on the optimistic one). Fixed-u64
     *  stores only — bytes-mode callers use getBytes(). */
    std::optional<std::uint64_t> get(std::uint64_t key);

    /**
     * Insert or update @p key. Inserting into a full shard evicts the
     * relocation walk's victim (reported in PutResult). Fails with
     * InvalidArgument for the reserved key, on a bytes-mode store
     * (use putBytes), and ResourceExhausted when the store.walk fault
     * site fires.
     */
    Expected<PutResult> put(std::uint64_t key, std::uint64_t value);

    /** Remove @p key; true iff it was resident. */
    bool erase(std::uint64_t key);

    // ---- byte-payload values (value.maxBytes > 0) ------------------

    /** True when the store holds variable-length byte payloads. */
    bool bytesMode() const { return cfg_.value.bytesMode(); }

    /**
     * Bytes-mode put: compress @p value with the configured codec and
     * insert/update exactly like put(). Fails with InvalidArgument on
     * a fixed-u64 store, for the reserved key, and when the payload
     * exceeds value.maxBytes. In bytes mode an eviction reports only
     * the evicted key — the payload is dropped, not decompressed.
     */
    Expected<PutResult> putBytes(std::uint64_t key,
                                 std::span<const std::uint8_t> value);

    /**
     * Bytes-mode get: nullopt on miss, the decompressed payload on a
     * hit. A decode failure (a corrupt stored stream, or the
     * compress.codec fault site) returns Corruption — never a torn or
     * partial value. Fails with InvalidArgument on a fixed-u64 store.
     * Hits touch the policy, exactly like get().
     */
    Expected<std::optional<std::vector<std::uint8_t>>>
    getBytes(std::uint64_t key);

    /** Store-wide compressed-payload counters (zeros outside bytes
     *  mode); locks each shard in turn like totals(). */
    ZkvCompressionStats compressionTotals() const;

    /**
     * Execute @p ops — all of which must map to @p shard (the caller
     * groups by shardOf) — in order, under a single acquisition of the
     * shard's lock, writing ops[i]'s outcome to out[i]. Each out[i] is
     * reset first but keeps its valueBytes capacity, and the payloads
     * the ops view must live until the call returns. Semantically
     * identical to issuing the ops one by one (same stats, same fault
     * sites, same walk decisions: the per-shard eviction sequence is a
     * pure function of the key order either way); per-op failures
     * (reserved key -> InvalidArgument, store.walk fault ->
     * ResourceExhausted) land in out[i].code and never abort the rest
     * of the batch. On the optimistic read path an all-gets batch is
     * first answered lock-free; a batch with writes runs fully locked,
     * in order, and its gets still never promote. The single-op calls
     * above are one-op batches through the same loop. With
     * observability enabled, each op still emits its own ObsOpRecord;
     * lock wait is attributed to the batch's first locked record and
     * decode->dispatch queueing to the `net` phase.
     */
    void runShardBatch(std::uint32_t shard,
                       std::span<const StoreBatchOp> ops,
                       StoreBatchResult* out);

    std::uint32_t numShards() const;

    /** Shard index for @p key (splitmix64 over key and store seed). */
    std::uint32_t shardOf(std::uint64_t key) const;

    /** Resident keys across all shards (locks each shard in turn). */
    std::uint64_t size() const;

    /** Snapshot of one shard's counters (locks that shard). */
    ZkvShardStats shardStats(std::uint32_t shard) const;

    /** Sum of all shards' counters. */
    ZkvShardStats totals() const;

    /**
     * Run every op — single or batched, u64 or bytes — through the
     * op core's SpanProbe instantiation: latency attribution
     * (lock-wait / probe / walk split) and lock-contention counters
     * always, plus one ObsOpRecord per op into @p tracer's per-thread
     * ring when non-null (attribution-only mode otherwise). The steps
     * are the same code as the untraced NoProbe instantiation, so
     * results and stats cannot diverge. Not thread-safe against
     * in-flight ops — call before workers start, as the load generator
     * does. The tracer must outlive the store or a disableObs() call.
     * Disabled (the default) costs one predicted branch per op.
     */
    void enableObs(ObsTracer* tracer);

    /** Back to the NoProbe instantiation (same thread-safety caveat). */
    void disableObs();

    bool obsEnabled() const { return obsEnabled_; }

    /** Snapshot of one shard's attribution counters (locks it). */
    ZkvShardObs shardObs(std::uint32_t shard) const;

    /** Sum of all shards' attribution counters. */
    ZkvShardObs obsTotals() const;

    /**
     * The store's part of one metrics window (obs/metrics.hpp), the
     * same for every producer: `ops` and every counter of the stats
     * tree's totals, obs and compression groups under its stats-tree
     * name, and the persist group's as `persist_<name>`, each from its
     * counter table. Levels that can fall (resident bytes, persist
     * queue depth) are gauges, so every counter's window deltas sum to
     * its final value. Producers append their own series: the server
     * its net_* counters, the load generator its latency bins.
     */
    MetricsSample metricsSample() const;

    // ---- durability tier (docs/durability.md) ----------------------

    /** True when a data directory was configured at create(). */
    bool persistEnabled() const { return persist_ != nullptr; }

    /**
     * Replay the data directory (snapshot, then log) into the shards
     * and start the writer threads. Required before traffic whenever
     * persistence is configured — a fresh directory recovers trivially
     * to an empty report. Runs exactly once per store.
     */
    Expected<persist::RecoveryReport> recover();

    /**
     * Drain and join the durability tier, surfacing the first sticky
     * writer error (the dtor also stops it, but silently). Safe to
     * call with persistence off (returns Ok).
     */
    Status stopPersist();

    /** The tier itself (counters, waitDurable); null when disabled. */
    persist::PersistTier* persistTier() { return persist_.get(); }

    /**
     * Walk-free iteration over one shard's live (key, value) pairs,
     * under that shard's lock. This is the enumeration primitive the
     * compaction snapshot uses; tests use it to diff store contents
     * against a shadow map without a key probe per entry.
     */
    void forEachInShard(
        std::uint32_t shard,
        const std::function<void(std::uint64_t key, std::uint64_t value)>&
            fn) const;

    /**
     * Point-in-time image of one shard plus the seqno watermark, both
     * read under the shard lock (so the snapshot is exactly the state
     * after every op with seqno <= watermark). Requires persistence.
     */
    persist::SnapshotData
    captureShardSnapshot(std::uint32_t shard) const;

    /**
     * Register the store's stats tree under @p g: config strings, a
     * totals group, and per-shard groups each containing the shard's
     * operation counters plus the underlying array's own stats (tag
     * traffic, walk statistics for zcache shards). Stats are pulled at
     * dump time from live counters; quiesce worker threads before
     * dumping (the load generator dumps after joining its workers).
     */
    void registerStats(StatGroup& g);

    const ZkvConfig& config() const { return cfg_; }

    /** Keys never storable: the array's invalid-address sentinel. */
    static constexpr std::uint64_t kReservedKey =
        static_cast<std::uint64_t>(kInvalidAddr);

    /**
     * Optimistic read attempts before falling back to the shard lock.
     * Retries are cheap (a W-position probe over two cache lines), so
     * a handful rides out a whole relocation walk; the locked fallback
     * bounds the tail so readers cannot starve under a put storm.
     */
    static constexpr std::uint32_t kSeqGetMaxRetries = 4;

    /** Upper bound on lookupWays() fan-out an optimistic reader
     *  stack-allocates for. validateSpec caps ways well below this. */
    static constexpr std::uint32_t kMaxLookupWays = 64;

  private:
    struct Shard;

    explicit ZkvStore(ZkvConfig cfg);

    /**
     * The op core (zkv.cpp): one batch loop over one locked step per
     * op kind, templated on a compile-time probe (NoProbe compiles
     * away, SpanProbe traces). Each op's outcome lands in out[i], which
     * must start default-constructed; @p why, when non-null, receives
     * the first failing op's full Status.
     */
    template <class Probe>
    inline void runBatch(std::uint32_t shard,
                         std::span<const StoreBatchOp> ops,
                         StoreBatchResult* out, Status* why);

    template <class Probe>
    inline void getStep(Shard& sh, const StoreBatchOp& op,
                        StoreBatchResult& res, Probe& probe, Status* why);

    template <class Probe>
    inline void putStep(Shard& sh, std::uint32_t shard,
                        const StoreBatchOp& op,
                        std::span<const std::uint8_t> stored,
                        StoreBatchResult& res, Probe& probe,
                        std::uint64_t& pseq, Status* why);

    template <class Probe>
    inline void eraseStep(Shard& sh, std::uint32_t shard,
                          const StoreBatchOp& op, StoreBatchResult& res,
                          Probe& probe, std::uint64_t& pseq);

    /** One op as a one-op batch on @p key's shard (the single-op API).
     *  Inline, like the core above: defined and used only in zkv.cpp. */
    inline void runOne(ObsOp kind, std::uint64_t key, StoreBatchResult& res,
                       Status* why, std::uint64_t value = 0,
                       std::span<const std::uint8_t> bytes = {});

    /**
     * The lock-free read attempt: up to kSeqGetMaxRetries seqlock-
     * validated probes of @p key's candidate positions. On success
     * returns true with hit/value filled and the per-shard optimistic
     * counters updated; on false the caller must take the locked
     * fallback. @p retries reports validation failures either way.
     */
    bool tryOptimisticGet(Shard& sh, std::uint64_t key,
                          std::uint32_t& retries, bool& hit,
                          std::uint64_t& value);

    /** Recovery-only mutators: apply state without counting stats or
     *  re-logging (the tier is not active during replay). */
    void replayPut(std::uint32_t shard, std::uint64_t key,
                   std::uint64_t value);
    void replayErase(std::uint32_t shard, std::uint64_t key);

    ZkvConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Bytes-mode payload codec (null outside bytes mode). Codecs are
     *  stateless, so one instance serves every shard concurrently;
     *  scratch buffers are per-call. */
    std::unique_ptr<Codec> codec_;

    // Declared after shards_ so it is destroyed (writer + snapshot
    // threads joined) before the shards its callbacks reference.
    std::unique_ptr<persist::PersistTier> persist_;

    bool obsEnabled_ = false;
    ObsTracer* tracer_ = nullptr;
};

} // namespace zc
