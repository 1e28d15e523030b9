/**
 * @file
 * The robustness matrix (docs/robustness.md): structured errors from
 * every recoverable failure path, trace-file corruption and truncation
 * detection, deterministic fault injection, the per-job watchdog, and
 * crash-resumable sweep journals — including resume byte-identity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/status.hpp"
#include "common/watchdog.hpp"
#include "runner/journal.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "trace/future_use.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"

namespace zc {
namespace {

// ---------------------------------------------------------------------
// Shared helpers.

class FaultsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjection::resetAll();
        path_ = ::testing::TempDir() + "zc_faults_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this));
    }

    void
    TearDown() override
    {
        FaultInjection::resetAll();
        std::remove(path_.c_str());
    }

    /** Read the file at path_ into a byte string. */
    std::string
    slurp() const
    {
        std::FILE* f = std::fopen(path_.c_str(), "rb");
        if (!f) {
            ADD_FAILURE() << "cannot open " << path_;
            return "";
        }
        std::string out;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
            out.append(buf, n);
        }
        std::fclose(f);
        return out;
    }

    void
    spit(const std::string& bytes) const
    {
        std::FILE* f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

    std::string path_;
};

std::vector<MemRecord>
sampleTrace(std::size_t n)
{
    StridedGenerator gen(0x1000, 512, 3);
    return recordTrace(gen, n);
}

/** A quick experiment: 2 cores, 64 KB single-bank L2, tiny budgets. */
RunParams
quickParams()
{
    RunParams p;
    p.workload = "gcc";
    p.warmupInstr = 500;
    p.measureInstr = 1000;
    p.base.numCores = 2;
    p.base.l2Banks = 1;
    p.base.l2SizeBytes = 64 * 1024;
    return p;
}

SweepSpec
quickSpec(std::size_t points = 3)
{
    SweepSpec spec;
    spec.name = "faults-sweep";
    spec.baseSeed = 7;
    for (std::size_t i = 0; i < points; i++) {
        RunParams p = quickParams();
        p.l2Spec.ways = i % 2 ? 8 : 4;
        spec.add(p, {{"point", JsonValue(static_cast<std::uint64_t>(i))}});
    }
    return spec;
}

SweepOptions
quietOpts()
{
    SweepOptions o;
    o.jobs = 2;
    o.progress = false;
    return o;
}

// ---------------------------------------------------------------------
// Trace integrity: corruption, truncation, version compat.

TEST_F(FaultsTest, TraceBitFlipFailsTheCrc)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(500)).isOk());
    std::string bytes = slurp();
    bytes[bytes.size() / 2] ^= 0x40; // one bit, mid-payload
    spit(bytes);

    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Corruption);
    EXPECT_NE(back.status().message().find("CRC-32"), std::string::npos);
}

TEST_F(FaultsTest, TraceTruncationNamesTheByteOffset)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(100)).isOk());
    std::string bytes = slurp();
    spit(bytes.substr(0, bytes.size() - 40));

    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Truncated);
    EXPECT_NE(back.status().message().find("byte offset"),
              std::string::npos);
    EXPECT_NE(back.status().message().find(path_), std::string::npos);
}

TEST_F(FaultsTest, TraceBogusCountRejectedBeforeAllocation)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(10)).isOk());
    std::string bytes = slurp();
    // Patch the u64 count at offset 8 to an absurd value. If the reader
    // allocated before the size check, this test would OOM instead of
    // getting a structured error.
    std::uint64_t huge = std::uint64_t{1} << 60;
    std::memcpy(bytes.data() + 8, &huge, sizeof huge);
    spit(bytes);

    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Truncated);
    EXPECT_NE(back.status().message().find("declares"), std::string::npos);
}

TEST_F(FaultsTest, TracePayloadLongerThanCountIsCorruption)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(10)).isOk());
    std::string bytes = slurp();
    bytes += "trailing garbage";
    spit(bytes);

    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Corruption);
    EXPECT_NE(back.status().message().find(
                  "payload length disagrees with the record count"),
              std::string::npos);
}

TEST_F(FaultsTest, TraceV1WithoutFooterStillReadable)
{
    // Craft a v1 file by hand: same header layout, version 1, packed
    // 24-byte records, no footer.
    auto records = sampleTrace(7);
    std::string bytes;
    std::uint32_t magic = TraceIo::kMagic, version = 1;
    std::uint64_t count = records.size();
    bytes.append(reinterpret_cast<char*>(&magic), 4);
    bytes.append(reinterpret_cast<char*>(&version), 4);
    bytes.append(reinterpret_cast<char*>(&count), 8);
    for (const MemRecord& r : records) {
        struct
        {
            std::uint64_t lineAddr, nextUse;
            std::uint32_t instGap;
            std::uint8_t type, pad[3];
        } d{r.lineAddr, r.nextUse, r.instGap,
            static_cast<std::uint8_t>(r.type), {}};
        bytes.append(reinterpret_cast<char*>(&d), 24);
    }
    spit(bytes);

    auto back = TraceIo::read(path_);
    ASSERT_TRUE(back.hasValue()) << back.status().str();
    ASSERT_EQ(back->size(), records.size());
    EXPECT_EQ(back->front().lineAddr, records.front().lineAddr);
    EXPECT_EQ(back->back().nextUse, records.back().nextUse);
}

TEST_F(FaultsTest, TraceUnknownVersionIsUnsupported)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(5)).isOk());
    std::string bytes = slurp();
    std::uint32_t v9 = 9;
    std::memcpy(bytes.data() + 4, &v9, sizeof v9);
    spit(bytes);

    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Unsupported);
}

// ---------------------------------------------------------------------
// Injected I/O and allocation faults.

TEST_F(FaultsTest, InjectedShortReadSurfacesAsTruncation)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(200)).isOk());
    // Hit 0 is the header read; fail the record-region read.
    ScopedFault fault("trace.read.short_read", {.afterHits = 1});
    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Truncated);
    EXPECT_NE(back.status().message().find("short read"),
              std::string::npos);
}

TEST_F(FaultsTest, InjectedOpenFailureSurfacesAsIoError)
{
    ScopedFault fault("trace.write.open");
    Status s = TraceIo::write(path_, sampleTrace(5));
    EXPECT_EQ(s.code(), ErrorCode::IoError);
}

TEST_F(FaultsTest, InjectedShortWriteSurfacesAsIoError)
{
    ScopedFault fault("trace.write.short_write", {.afterHits = 1});
    Status s = TraceIo::write(path_, sampleTrace(200));
    EXPECT_EQ(s.code(), ErrorCode::IoError);
    EXPECT_NE(s.message().find("write failed"), std::string::npos);
}

TEST_F(FaultsTest, InjectedAllocFailureSurfacesAsResourceExhausted)
{
    ASSERT_TRUE(TraceIo::write(path_, sampleTrace(5)).isOk());
    ScopedFault fault("trace.read.alloc");
    auto back = TraceIo::read(path_);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::ResourceExhausted);
}

// ---------------------------------------------------------------------
// Fault-injection registry semantics.

TEST_F(FaultsTest, RegistryDisarmedCostsNothingAndNeverFires)
{
    EXPECT_FALSE(FaultInjection::armed());
    EXPECT_FALSE(ZC_INJECT_FAULT("some.site"));
    EXPECT_EQ(FaultInjection::hitCount("some.site"), 0u);
}

TEST_F(FaultsTest, RegistryAfterHitsAndFailCountWindow)
{
    ScopedFault fault("t.win", {.afterHits = 2, .failCount = 2});
    std::vector<bool> fired;
    for (int i = 0; i < 6; i++) fired.push_back(ZC_INJECT_FAULT("t.win"));
    EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false,
                                        false}));
    EXPECT_EQ(FaultInjection::hitCount("t.win"), 6u);
}

TEST_F(FaultsTest, RegistryProbabilisticFiringIsSeededAndDeterministic)
{
    FaultSpec spec{.afterHits = 0, .failCount = 0, .probability = 0.5,
                   .seed = 42};
    auto sample = [&] {
        ScopedFault fault("t.prob", spec);
        std::vector<bool> fired;
        for (int i = 0; i < 64; i++) {
            fired.push_back(ZC_INJECT_FAULT("t.prob"));
        }
        return fired;
    };
    auto a = sample();
    auto b = sample();
    EXPECT_EQ(a, b);
    std::size_t fires = std::count(a.begin(), a.end(), true);
    EXPECT_GT(fires, 0u);
    EXPECT_LT(fires, 64u);

    spec.seed = 43; // a different seed gives a different pattern
    ScopedFault fault("t.prob", spec);
    std::vector<bool> c;
    for (int i = 0; i < 64; i++) c.push_back(ZC_INJECT_FAULT("t.prob"));
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// RunParams validation and factory diagnostics.

TEST_F(FaultsTest, ValidateUnknownWorkloadNamesTheField)
{
    RunParams p = quickParams();
    p.workload = "definitely-not-a-workload";
    Status s = p.validate();
    EXPECT_EQ(s.code(), ErrorCode::NotFound);
    EXPECT_NE(s.message().find("RunParams.workload"), std::string::npos);
    EXPECT_NE(s.message().find("definitely-not-a-workload"),
              std::string::npos);
}

TEST_F(FaultsTest, ValidateRejectsZeroMeasureBudget)
{
    RunParams p = quickParams();
    p.measureInstr = 0;
    Status s = p.validate();
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("measureInstr"), std::string::npos);
}

TEST_F(FaultsTest, ValidateRejectsImpossibleSystemConfig)
{
    RunParams p = quickParams();
    p.base.numCores = 65;
    Status s = p.validate();
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("numCores"), std::string::npos);
    EXPECT_NE(s.message().find("65"), std::string::npos);

    p = quickParams();
    p.base.l2Banks = 3;
    s = p.validate();
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("l2Banks"), std::string::npos);
}

TEST_F(FaultsTest, ValidateChecksTheDerivedArraySpec)
{
    RunParams p = quickParams();
    p.l2Spec.kind = ArrayKind::ZCache;
    p.l2Spec.ways = 3; // does not divide the derived 1024 blocks/bank
    Status s = p.validate();
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("RunParams.l2Spec"), std::string::npos);
    EXPECT_NE(s.message().find("derived"), std::string::npos);
    EXPECT_NE(s.message().find("divisible by ways"), std::string::npos);
}

TEST_F(FaultsTest, RunExperimentThrowsStructuredError)
{
    RunParams p = quickParams();
    p.workload = "nope";
    try {
        runExperiment(p);
        FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
        EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    }
}

TEST_F(FaultsTest, FactoryParsersListValidNames)
{
    auto pol = parsePolicyKind("least-recently");
    ASSERT_FALSE(pol.hasValue());
    EXPECT_EQ(pol.status().code(), ErrorCode::NotFound);
    EXPECT_NE(pol.status().message().find("lru"), std::string::npos);
    EXPECT_NE(pol.status().message().find("srrip"), std::string::npos);

    auto arr = parseArrayKind("zcash");
    ASSERT_FALSE(arr.hasValue());
    EXPECT_NE(arr.status().message().find("zcache"), std::string::npos);

    auto hash = parseHashKind("md5");
    ASSERT_FALSE(hash.hasValue());
    EXPECT_NE(hash.status().message().find("h3"), std::string::npos);

    EXPECT_EQ(parsePolicyKind("lru").value(), PolicyKind::Lru);
    EXPECT_EQ(parseArrayKind("zcache").value(), ArrayKind::ZCache);
    EXPECT_EQ(parseHashKind("sha1").value(), HashKind::Sha1);
}

TEST_F(FaultsTest, WorkloadLookupThrowsNotFound)
{
    EXPECT_EQ(WorkloadRegistry::find("gcc") != nullptr, true);
    EXPECT_EQ(WorkloadRegistry::find("nope"), nullptr);
    try {
        WorkloadRegistry::byName("nope");
        FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), ErrorCode::NotFound);
    }
}

TEST_F(FaultsTest, ArraySpecValidationNamesFieldAndValue)
{
    ArraySpec spec;
    spec.kind = ArrayKind::ZCache;
    spec.blocks = 1000; // 1000/4 = 250: not a power of two
    Status s = validateSpec(spec);
    EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(s.message().find("zcache"), std::string::npos);
    EXPECT_NE(s.message().find("250"), std::string::npos);
    EXPECT_THROW(makeArray(spec), StatusError);
}

// ---------------------------------------------------------------------
// Watchdog.

TEST_F(FaultsTest, WatchdogCheckpointThrowsPastDeadline)
{
    ScopedWatchdog wd(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    try {
        for (int i = 0; i < 100000; i++) JobWatchdog::checkpoint();
        FAIL() << "expected StatusError(Timeout)";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Timeout);
        EXPECT_NE(std::string(e.what()).find("watchdog"),
                  std::string::npos);
    }
}

TEST_F(FaultsTest, WatchdogDisarmedIsANoOp)
{
    EXPECT_FALSE(JobWatchdog::armed());
    for (int i = 0; i < 100000; i++) JobWatchdog::checkpoint();
    ScopedWatchdog off(0); // 0 = no deadline
    EXPECT_FALSE(JobWatchdog::armed());
}

// ---------------------------------------------------------------------
// Grid engine retry policy.

TEST_F(FaultsTest, GridPermanentErrorsFailWithoutRetry)
{
    SweepOptions opts = quietOpts();
    opts.maxAttempts = 3;
    auto out = runGrid<int>(
        2,
        [](std::size_t) -> int {
            throw StatusError(Status::invalidArgument("impossible config"));
        },
        opts);
    for (const auto& o : out) {
        EXPECT_FALSE(o.ok);
        EXPECT_EQ(o.attempts, 1u) << "permanent errors must not retry";
        EXPECT_NE(o.error.find("impossible config"), std::string::npos);
    }
}

TEST_F(FaultsTest, GridTransientErrorsAreRetried)
{
    std::vector<std::atomic<int>> calls(3);
    SweepOptions opts = quietOpts();
    opts.maxAttempts = 2;
    opts.retryBackoffMs = 1;
    auto out = runGrid<int>(
        3,
        [&](std::size_t i) -> int {
            if (calls[i]++ == 0) throw std::runtime_error("transient");
            return static_cast<int>(i);
        },
        opts);
    for (const auto& o : out) {
        EXPECT_TRUE(o.ok) << o.error;
        EXPECT_EQ(o.attempts, 2u);
        EXPECT_EQ(o.result, static_cast<int>(o.index));
        EXPECT_NE(o.error.find("attempt 1: transient"), std::string::npos);
    }
}

TEST_F(FaultsTest, GridTimeoutMarksOutcomeAndSkipsRetry)
{
    SweepOptions opts = quietOpts();
    opts.maxAttempts = 3;
    auto out = runGrid<int>(
        1,
        [](std::size_t) -> int {
            throw StatusError(Status::timeout("too slow"));
        },
        opts);
    EXPECT_FALSE(out[0].ok);
    EXPECT_TRUE(out[0].timedOut);
    EXPECT_EQ(out[0].attempts, 1u);
}

// ---------------------------------------------------------------------
// Journal format and salvage.

TEST_F(FaultsTest, JournalFingerprintTracksEveryParameter)
{
    SweepSpec a = quickSpec(), b = quickSpec();
    EXPECT_EQ(SweepJournal::fingerprint(a), SweepJournal::fingerprint(b));
    b.points[1].params.measureInstr++;
    EXPECT_NE(SweepJournal::fingerprint(a), SweepJournal::fingerprint(b));
}

TEST_F(FaultsTest, JournalCorruptionMidRecordSalvagesThePrefix)
{
    SweepSpec spec = quickSpec(3);
    {
        auto j = SweepJournal::create(path_, spec);
        ASSERT_TRUE(j.hasValue()) << j.status().str();
        for (std::size_t i = 0; i < 3; i++) {
            RunOutcome e;
            e.ok = false; // error-only entries keep the test light
            e.attempts = 1;
            e.error = "synthetic";
            ASSERT_TRUE(j->append(i, e).isOk());
        }
    }
    std::string bytes = slurp();
    // Corrupt the payload of the middle record (line 3 of 4).
    std::size_t line3 = bytes.find('\n', bytes.find('\n') + 1) + 1;
    bytes[line3 + 20] ^= 0x01;
    spit(bytes);

    ::testing::internal::CaptureStderr();
    auto resumed = SweepJournal::resume(path_, spec);
    std::string warning = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.hasValue()) << resumed.status().str();
    // Record 0 survives; the corrupt record 1 and everything after it
    // (even the intact record 2) are dropped and re-run.
    ASSERT_EQ(resumed->entries.size(), 1u);
    EXPECT_EQ(resumed->entries[0].index, 0u);
    EXPECT_NE(warning.find("CRC mismatch"), std::string::npos);
    EXPECT_NE(warning.find("byte offset"), std::string::npos);

    // The journal stays appendable after salvage.
    RunOutcome e;
    e.ok = false;
    e.attempts = 1;
    e.error = "after salvage";
    EXPECT_TRUE(resumed->journal.append(2, e).isOk());
}

TEST_F(FaultsTest, JournalRefusesAForeignGrid)
{
    SweepSpec spec = quickSpec(3);
    {
        auto j = SweepJournal::create(path_, spec);
        ASSERT_TRUE(j.hasValue()) << j.status().str();
    }
    SweepSpec other = quickSpec(3);
    other.points[0].params.seed ^= 1;
    auto resumed = SweepJournal::resume(path_, other);
    ASSERT_FALSE(resumed.hasValue());
    EXPECT_EQ(resumed.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(resumed.status().message().find("fingerprint"),
              std::string::npos);
}

TEST_F(FaultsTest, JournalMissingFileIsIoError)
{
    auto resumed = SweepJournal::resume(path_ + ".nope", quickSpec());
    ASSERT_FALSE(resumed.hasValue());
    EXPECT_EQ(resumed.status().code(), ErrorCode::IoError);
}

TEST_F(FaultsTest, JournalInjectedWriteFaultIsStructured)
{
    SweepSpec spec = quickSpec(1);
    auto j = SweepJournal::create(path_, spec);
    ASSERT_TRUE(j.hasValue()) << j.status().str();
    ScopedFault fault("journal.write");
    RunOutcome e;
    e.ok = false;
    e.attempts = 1;
    Status s = j->append(0, e);
    EXPECT_EQ(s.code(), ErrorCode::IoError);
    EXPECT_NE(s.message().find("journal.write"), std::string::npos);
}

// ---------------------------------------------------------------------
// RunResult JSON round-trip (what makes resume byte-identical).

TEST_F(FaultsTest, RunResultJsonRoundTripsExactly)
{
    RunResult r = runExperiment(quickParams());
    JsonValue j = runResultToJson(r);
    std::string first = j.str();
    auto reparsed = JsonValue::parse(first);
    ASSERT_TRUE(reparsed.has_value());
    auto back = runResultFromJson(*reparsed);
    ASSERT_TRUE(back.hasValue()) << back.status().str();
    // The serialized forms must match byte-for-byte — doubles included.
    EXPECT_EQ(runResultToJson(*back).str(), first);
    EXPECT_EQ(back->ipc, r.ipc);
    EXPECT_EQ(back->mpki, r.mpki);
    EXPECT_EQ(back->cycles, r.cycles);
    EXPECT_EQ(back->epochs.size(), r.epochs.size());
    EXPECT_EQ(back->stats.str(), r.stats.str());
}

TEST_F(FaultsTest, RunResultJsonRejectsMissingFields)
{
    RunResult r;
    JsonValue j = runResultToJson(r);
    std::string text = j.str();
    auto v = JsonValue::parse(text);
    ASSERT_TRUE(v.has_value());
    JsonValue broken = *v;
    broken.set("cycles", JsonValue("not-a-number"));
    auto back = runResultFromJson(broken);
    ASSERT_FALSE(back.hasValue());
    EXPECT_EQ(back.status().code(), ErrorCode::Corruption);
    EXPECT_NE(back.status().message().find("cycles"), std::string::npos);
}

// ---------------------------------------------------------------------
// SweepRunner end-to-end: resume identity, watchdog, induced faults.

TEST_F(FaultsTest, SweepResumeReproducesOutcomesByteIdentically)
{
    SweepSpec spec = quickSpec(3);

    SweepOptions full_opts = quietOpts();
    full_opts.journalPath = path_;
    auto full = SweepRunner(full_opts).run(spec);
    ASSERT_EQ(gridFailures(full), 0u);

    // Simulate a crash after the first completed point: keep the header
    // plus one record, exactly what a SIGKILL mid-sweep leaves behind.
    std::string bytes = slurp();
    std::size_t second_line = bytes.find('\n') + 1;
    std::size_t third_line = bytes.find('\n', second_line) + 1;
    spit(bytes.substr(0, third_line));

    SweepOptions resume_opts = quietOpts();
    resume_opts.resumePath = path_;
    // A site that never fires counts every runExperiment call.
    ScopedFault count_runs("job.exception", {.afterHits = ~0ULL});
    auto resumed = SweepRunner(resume_opts).run(spec);
    EXPECT_EQ(FaultInjection::hitCount("job.exception"), full.size() - 1)
        << "resume must run only the points its journal lacks";

    // Every run appends one record, so each grid index appears exactly
    // once in the resumed journal: the salvaged point was not re-run.
    std::vector<int> records(spec.size(), 0);
    std::istringstream lines(slurp());
    std::string line;
    std::getline(lines, line); // the header
    while (std::getline(lines, line)) {
        // ZCJR <crc32hex> <outcome-json>
        auto rec = JsonValue::parse(line.substr(line.find(' ', 5) + 1));
        ASSERT_TRUE(rec.has_value()) << line;
        std::uint64_t index = rec->find("index")->asU64();
        ASSERT_LT(index, records.size());
        records[index]++;
    }
    for (std::size_t i = 0; i < records.size(); i++) {
        EXPECT_EQ(records[i], 1) << "point " << i;
    }

    ASSERT_EQ(resumed.size(), full.size());
    for (std::size_t i = 0; i < full.size(); i++) {
        EXPECT_EQ(resumed[i].ok, full[i].ok) << i;
        EXPECT_EQ(resumed[i].attempts, full[i].attempts) << i;
        EXPECT_EQ(resumed[i].timedOut, full[i].timedOut) << i;
        EXPECT_EQ(resumed[i].error, full[i].error) << i;
        EXPECT_EQ(runResultToJson(resumed[i].result).str(),
                  runResultToJson(full[i].result).str())
            << "point " << i << " must be byte-identical after resume";
    }
}

TEST_F(FaultsTest, SweepResumeStartsFreshWhenJournalAbsent)
{
    SweepOptions opts = quietOpts();
    opts.resumePath = path_; // does not exist yet
    auto out = SweepRunner(opts).run(quickSpec(1));
    EXPECT_EQ(gridFailures(out), 0u);
    EXPECT_NE(slurp().find("ZCJH"), std::string::npos);
}

TEST_F(FaultsTest, SweepWatchdogCancelsAHungJob)
{
    // The job.timeout site stalls runExperiment until the armed
    // watchdog's deadline passes — a deterministic stand-in for a hung
    // simulation.
    ScopedFault fault("job.timeout");
    SweepOptions opts = quietOpts();
    opts.jobs = 1;
    opts.jobTimeoutMs = 50;
    opts.maxAttempts = 3;
    auto out = SweepRunner(opts).run(quickSpec(1));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].ok);
    EXPECT_TRUE(out[0].timedOut);
    EXPECT_EQ(out[0].attempts, 1u) << "timeouts must not retry";
    EXPECT_EQ(gridFailures(out), 1u);
}

TEST_F(FaultsTest, SweepInducedExceptionIsRetriedOnce)
{
    ScopedFault fault("job.exception"); // fails the first hit only
    SweepOptions opts = quietOpts();
    opts.jobs = 1;
    opts.maxAttempts = 2;
    auto out = SweepRunner(opts).run(quickSpec(1));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].ok) << out[0].error;
    EXPECT_EQ(out[0].attempts, 2u);
    EXPECT_NE(out[0].error.find("job.exception"), std::string::npos);
}

TEST_F(FaultsTest, SweepSurvivesJournalWriteFailures)
{
    ScopedFault fault("journal.write", {.failCount = 0}); // every append
    SweepOptions opts = quietOpts();
    opts.journalPath = path_;
    ::testing::internal::CaptureStderr();
    auto out = SweepRunner(opts).run(quickSpec(2));
    std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(gridFailures(out), 0u)
        << "a dead journal must not kill the sweep";
    EXPECT_NE(warning.find("journaling"), std::string::npos);
}

} // namespace
} // namespace zc
