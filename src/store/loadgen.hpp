/**
 * @file
 * Closed-loop multithreaded load generator for ZkvStore.
 *
 * Each worker thread draws keys from its own deterministic synthetic
 * workload stream (src/trace generators via WorkloadRegistry — the same
 * profiles the simulator benches replay) and issues a seeded get/put/
 * erase mix against the shared store, timing every operation. Workers
 * start together behind a std::barrier and run a fixed operation count
 * (closed loop: the next request issues as soon as the previous one
 * returns).
 *
 * Results split along the repo's determinism contract
 * (docs/observability.md): LoadGenResult::storeStats — the store's
 * stats tree plus per-thread operation counters — is a pure function of
 * (config, seed) for a single-thread run, while wall-clock derived
 * numbers (throughput, latency histogram/moments) live in timing().
 * Put values encode (key, thread): value = zkvMix64(key) + tid, so
 * every get hit is integrity-checked by decoding the writer thread; a
 * mismatch counts in verifyFailures (always 0 unless the store loses
 * or cross-wires a payload).
 *
 * Bytes mode (cfg.store.value.maxBytes > 0, docs/compression.md) keeps
 * the same contract with variable-length payloads: each key's payload
 * length and content are deterministic functions of the key alone
 * (zkvPayloadLen / zkvFillPayload below), except the first four bytes,
 * which carry the writer tid — so any reader can regenerate the
 * expected bytes from (key, decoded tid) and compare byte-exactly.
 * The content generator mixes BDI-friendly patterns (zeros, repeats,
 * small-delta runs) with incompressible streams per key, giving the
 * codec a realistic ratio distribution.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "obs/latency_scale.hpp"
#include "obs/metrics.hpp"
#include "store/zkv.hpp"

namespace zc {

/**
 * Deterministic payload length for @p key, uniform over
 * [lenMin, lenMax] (inclusive). Pure function of (key, lenMin, lenMax)
 * so every loadgen worker — local or across the wire — agrees on it.
 */
inline std::uint32_t
zkvPayloadLen(std::uint64_t key, std::uint32_t lenMin,
              std::uint32_t lenMax)
{
    if (lenMax <= lenMin) return lenMin;
    std::uint64_t span = lenMax - lenMin + 1;
    return lenMin +
           static_cast<std::uint32_t>(zkvMix64(key ^ 0x6c656eULL) % span);
}

/**
 * Fill @p out with the deterministic payload for (@p key, @p tid):
 * bytes [0,4) are the writer tid (LE), the rest is one of four
 * patterns selected by the key — zeros, a repeated byte, a small-delta
 * byte ramp (BDI-friendly), or an incompressible mix64 stream.
 */
inline void
zkvFillPayload(std::uint64_t key, std::uint32_t tid, std::uint32_t len,
               std::vector<std::uint8_t>& out)
{
    out.resize(len);
    std::uint64_t h = zkvMix64(key ^ 0x706179ULL);
    switch (h & 3) {
      case 0: // zeros
        std::fill(out.begin(), out.end(), std::uint8_t{0});
        break;
      case 1: { // repeated byte
        std::fill(out.begin(), out.end(),
                  static_cast<std::uint8_t>(h >> 8));
        break;
      }
      case 2: { // small-delta ramp: base + i*delta (mod 256)
        auto base = static_cast<std::uint8_t>(h >> 8);
        auto delta = static_cast<std::uint8_t>(((h >> 16) & 3) + 1);
        for (std::uint32_t i = 0; i < len; i++) {
            out[i] = static_cast<std::uint8_t>(base + i * delta);
        }
        break;
      }
      default: { // incompressible: chained mix64 stream
        std::uint64_t s = h;
        for (std::uint32_t i = 0; i < len; i++) {
            if ((i & 7) == 0) s = zkvMix64(s);
            out[i] = static_cast<std::uint8_t>(s >> ((i & 7) * 8));
        }
        break;
      }
    }
    for (std::uint32_t i = 0; i < 4 && i < len; i++) {
        out[i] = static_cast<std::uint8_t>(tid >> (i * 8));
    }
}

/**
 * Byte-exact payload check: decode the writer tid from the first four
 * bytes, regenerate the expected payload for (key, tid), and compare.
 * Returns false on any mismatch (wrong length, tid out of range, or
 * content drift) — the bytes-mode analogue of the u64 value check.
 */
inline bool
zkvVerifyPayload(std::uint64_t key, std::uint32_t threads,
                 std::uint32_t lenMin, std::uint32_t lenMax,
                 const std::vector<std::uint8_t>& got,
                 std::vector<std::uint8_t>& scratch)
{
    std::uint32_t len = zkvPayloadLen(key, lenMin, lenMax);
    if (got.size() != len || len < 4) return false;
    std::uint32_t tid = static_cast<std::uint32_t>(got[0]) |
                        (static_cast<std::uint32_t>(got[1]) << 8) |
                        (static_cast<std::uint32_t>(got[2]) << 16) |
                        (static_cast<std::uint32_t>(got[3]) << 24);
    if (tid >= threads) return false;
    zkvFillPayload(key, tid, len, scratch);
    return got == scratch;
}

/** One load-generation run's shape. */
struct LoadGenConfig
{
    ZkvConfig store;

    std::uint32_t threads = 1;
    std::uint64_t opsPerThread = 100000;

    /** Operation mix; the remainder after gets and erases is puts. */
    double getFrac = 0.70;
    double eraseFrac = 0.05;

    /** Workload profile name (WorkloadRegistry) used as key stream. */
    std::string workload = "canneal";

    std::uint64_t seed = 1;

    /**
     * Bytes-mode payload length range (inclusive), used iff
     * store.value.bytesMode(). Each key's length is zkvPayloadLen(key)
     * over this range; the minimum is 4 (the tid prefix) and the
     * maximum is capped by store.value.maxBytes at validate().
     */
    std::uint32_t valueBytesMin = 16;
    std::uint32_t valueBytesMax = 64;

    /** Live telemetry (docs/telemetry.md). Off by default: the store
     *  keeps its uninstrumented op paths and the run is bit-identical
     *  to one without telemetry. */
    ObsConfig obs;

    Status validate() const;
};

/** One worker's counters; latency fields are wall-clock derived. */
struct ThreadStats
{
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t puts = 0;
    std::uint64_t putErrors = 0; ///< puts rejected with a Status
    std::uint64_t getErrors = 0; ///< gets failed with a Status (bytes
                                 ///< mode: decompress Corruption)
    std::uint64_t erases = 0;
    std::uint64_t eraseHits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t verifyFailures = 0;

    /** Nondeterministic (timing) fields. */
    double seconds = 0.0;
    UnitHistogram latency{kLatencyBins};
    RunningStat latencyNs;
};

/** ThreadStats' counters, in the order of each `workers` record. */
inline constexpr CounterField<ThreadStats> kThreadCounters[] = {
    {"ops", "operations issued", &ThreadStats::ops},
    {"gets", "get operations", &ThreadStats::gets},
    {"get_hits", "gets that found the key", &ThreadStats::getHits},
    {"puts", "put operations", &ThreadStats::puts},
    {"put_errors", "puts rejected with a Status", &ThreadStats::putErrors},
    {"get_errors", "gets failed with a Status", &ThreadStats::getErrors},
    {"erases", "erase operations", &ThreadStats::erases},
    {"erase_hits", "erases that removed a key", &ThreadStats::eraseHits},
    {"evictions", "puts that evicted a key", &ThreadStats::evictions},
    {"verify_failures", "get hits whose payload failed its check",
     &ThreadStats::verifyFailures},
};

struct LoadGenResult
{
    std::vector<ThreadStats> perThread;

    /** Wall time from the earliest worker start to the latest worker
     *  end, each stamped by the worker itself. */
    double seconds = 0.0;

    /** Aggregate ops (all threads) / seconds. */
    double opsPerSec = 0.0;

    /**
     * Deterministic block: store stats tree + per-thread operation
     * counters. Byte-identical across runs for threads == 1 and a
     * fixed seed (the test_store determinism test).
     */
    JsonValue storeStats;

    /** Merged per-thread counters (deterministic for 1 thread). */
    ThreadStats aggregate() const;

    /**
     * Nondeterministic block: wall seconds, aggregate and per-thread
     * throughput, latency histogram and moments. The store-report
     * analogue of the bench reports' "perf" block.
     */
    JsonValue timing() const;

    /**
     * Telemetry accounting when LoadGenConfig::obs was enabled (all
     * zeros otherwise). obsRecorded + obsDropped == total ops whenever
     * a tracer ran — the reconciliation invariant trace_report.py and
     * tests/test_obs.cpp check against the trace file.
     */
    std::uint64_t obsRecorded = 0;
    std::uint64_t obsDropped = 0;
    std::uint64_t obsThreads = 0;
    std::uint64_t obsWindows = 0; ///< metrics windows emitted

    /** End-of-run codec totals (bytes mode only; zeros otherwise). */
    ZkvCompressionStats compression;

    /** Resident keys at end of run (bytes mode only; for the
     *  resident-bytes-per-key report in store_loadgen --json). */
    std::uint64_t residentKeys = 0;
};

/**
 * Run one closed-loop load generation. Fails with a structured Status
 * for an unknown workload name, an invalid config, or a store-creation
 * fault; per-operation store.walk faults are counted per thread (the
 * run completes) rather than aborting the run.
 */
Expected<LoadGenResult> runLoadGen(const LoadGenConfig& cfg);

} // namespace zc
