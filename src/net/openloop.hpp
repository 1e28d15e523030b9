/**
 * @file
 * Open-loop arrival schedules for load generation (docs/server.md).
 *
 * A closed-loop generator issues the next request when the previous one
 * returns, so a slow server silently throttles its own measurement —
 * the coordinated-omission trap: stall-time latency never gets sampled
 * because no requests were scheduled during the stall. An open-loop
 * generator instead fixes the arrival times up front from a target
 * rate and measures every operation's latency from its *intended*
 * arrival, whether or not the generator (or server) was keeping up.
 * Queueing delay during a stall then lands in the histogram where it
 * belongs, which is what makes throughput-vs-p99 curves honest.
 *
 * ArrivalSchedule produces the intended arrival offsets, in
 * nanoseconds from the run start, as a deterministic function of
 * (kind, rate, seed):
 *
 *  - Fixed:   arrival i at round(i * 1e9 / rate) — a metronome;
 *             computed multiplicatively so no drift accumulates.
 *  - Poisson: exponential inter-arrival gaps with mean 1e9 / rate
 *             (a memoryless open-loop client population, the standard
 *             model for independent users).
 *
 * Used by the over-the-wire generator (bench/net_loadgen.cpp). The
 * in-process store loadgen has no open-loop mode: a wait for each
 * arrival wakes tens of µs late, far longer than a store op.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace zc {

enum class ArrivalKind {
    Fixed,   ///< evenly spaced arrivals at exactly the target rate
    Poisson, ///< exponential gaps, mean 1/rate (memoryless clients)
};

inline const char*
arrivalKindName(ArrivalKind k)
{
    return k == ArrivalKind::Fixed ? "fixed" : "poisson";
}

inline Expected<ArrivalKind>
parseArrivalKind(const std::string& name)
{
    if (name == "fixed") return ArrivalKind::Fixed;
    if (name == "poisson") return ArrivalKind::Poisson;
    return Status::invalidArgument("openloop: unknown arrival kind '" +
                                   name + "' (valid: fixed, poisson)");
}

/**
 * Deterministic intended-arrival generator. nextOffsetNs() returns the
 * next arrival's offset from the run start; offsets are nondecreasing.
 */
class ArrivalSchedule
{
  public:
    ArrivalSchedule(ArrivalKind kind, double ops_per_sec,
                    std::uint64_t seed)
        : kind_(kind),
          gapNs_(1e9 / ops_per_sec),
          rng_(seed, /*stream=*/0x6f70656eULL)
    {
        zc_assert(ops_per_sec > 0.0);
    }

    std::uint64_t
    nextOffsetNs()
    {
        if (kind_ == ArrivalKind::Fixed) {
            double t = static_cast<double>(n_++) * gapNs_;
            return static_cast<std::uint64_t>(std::llround(t));
        }
        // Exponential inter-arrival: -ln(1-u) * mean. uniform() is in
        // [0, 1), so 1-u is in (0, 1] and the log is finite.
        double gap = -std::log(1.0 - rng_.uniform()) * gapNs_;
        accumNs_ += gap;
        n_++;
        return static_cast<std::uint64_t>(std::llround(accumNs_));
    }

    std::uint64_t issued() const { return n_; }
    ArrivalKind kind() const { return kind_; }

  private:
    ArrivalKind kind_;
    double gapNs_;
    Pcg32 rng_;
    std::uint64_t n_ = 0;
    double accumNs_ = 0.0;
};

} // namespace zc
