/**
 * @file
 * Crash-resumable sweep journal (docs/robustness.md).
 *
 * An append-only, CRC-framed, fsync'd record of completed grid points.
 * The runner appends one line per finished point as it completes, so a
 * sweep killed at any instant — SIGKILL included — loses at most the
 * points still in flight. Re-running with --resume=<journal> loads the
 * completed outcomes, verifies that the journal belongs to *this* grid
 * (a fingerprint over every point's full parameters), executes only the
 * missing points, and produces byte-identical stdout and --json output
 * to an uninterrupted run.
 *
 * On-disk format, one line per record, text so it greps and diffs:
 *
 *   ZCJH <crc32hex> <header-json>\n     (exactly once, first line)
 *   ZCJR <crc32hex> <outcome-json>\n    (zero or more)
 *
 * The CRC covers the JSON payload bytes exactly. A torn or corrupt
 * line invalidates itself and everything after it: resume salvages the
 * longest valid prefix, warns on stderr, truncates the tail, and
 * re-runs the lost points. A header that does not match the current
 * spec (different grid, edited parameters) is a structured refusal —
 * resuming someone else's journal would silently mix results.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "runner/sweep.hpp"

namespace zc {

class SweepJournal
{
  public:
    /** A resumed journal: the reopened file plus the salvaged outcomes,
     *  each carrying its grid index. */
    struct Resumed;

    SweepJournal() = default;
    ~SweepJournal() { close(); }

    SweepJournal(SweepJournal&& other) noexcept
        : f_(other.f_), path_(std::move(other.path_))
    {
        other.f_ = nullptr;
    }

    SweepJournal&
    operator=(SweepJournal&& other) noexcept
    {
        if (this != &other) {
            close();
            f_ = other.f_;
            path_ = std::move(other.path_);
            other.f_ = nullptr;
        }
        return *this;
    }

    SweepJournal(const SweepJournal&) = delete;
    SweepJournal& operator=(const SweepJournal&) = delete;

    /** Start a fresh journal at @p path (truncates), writing the header. */
    static Expected<SweepJournal> create(const std::string& path,
                                         const SweepSpec& spec);

    /**
     * Reopen @p path for resume: verify the header belongs to @p spec,
     * load every valid entry (salvaging the longest clean prefix when a
     * record is torn or corrupt, with a stderr warning naming the byte
     * offset), truncate the invalid tail, and leave the file open for
     * appends.
     */
    static Expected<Resumed> resume(const std::string& path,
                                    const SweepSpec& spec);

    /**
     * Append grid point @p index's outcome @p o (whose own index may
     * count within a sub-grid of the pending points): CRC-framed line,
     * flushed and fsync'd before returning, so a crash after append()
     * never loses it.
     */
    Status append(std::size_t index, const RunOutcome& o);

    bool isOpen() const { return f_ != nullptr; }
    const std::string& path() const { return path_; }

    /**
     * Grid identity: CRC-32 over the spec name, base seed, and every
     * point's complete parameters and tags. Any edit to the grid — one
     * field of one point — changes it, which is what makes resuming
     * against the wrong journal detectable.
     */
    static std::uint32_t fingerprint(const SweepSpec& spec);

  private:
    void
    close()
    {
        if (f_) {
            std::fclose(f_);
            f_ = nullptr;
        }
    }

    std::FILE* f_ = nullptr;
    std::string path_;
};

struct SweepJournal::Resumed
{
    SweepJournal journal;
    std::vector<RunOutcome> entries;
};

} // namespace zc
