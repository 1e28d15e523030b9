/**
 * @file
 * The benchmark's workloads. Each builds its inputs from the seed,
 * times its set-ups, measures a closed loop over equal windows, checks
 * the program's outputs, and — when traced — fills the per-layer
 * metrics of the layers it exercises. perfbench/README.md says why each
 * workload exists and which layers it bypasses.
 */

#pragma once

#include <vector>

#include "bench.hpp"

namespace zc::bench {

RunResult runSimWalk(const RunSpec& spec);
RunResult runKvMixed(const RunSpec& spec);
RunResult runKvDurable(const RunSpec& spec);
RunResult runNetBytes(const RunSpec& spec);

/**
 * Pre-generate @p count keys per thread from the canneal per-core
 * streams of a @p threads-core CMP (the key streams of the kv and net
 * workloads). Returns the streams and the mean ns per
 * AccessGenerator::next call.
 */
std::vector<std::vector<std::uint64_t>>
cannealStreams(std::uint32_t threads, std::size_t count, std::uint64_t seed,
               double* nextNs);

} // namespace zc::bench
