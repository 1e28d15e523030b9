/**
 * @file
 * The files behind the zkv durability tier (docs/durability.md).
 *
 *  - `FileSink`: one append-only byte stream (a shard's op-log segment)
 *    with an explicit durability point (`sync`).
 *  - `FileBackend`: the data directory as a namespace of named files —
 *    open-for-append, read, atomic whole-file replace (snapshots),
 *    list, remove.
 *
 * Log appends are made durable with `fdatasync`; snapshots are written
 * as `<name>.tmp` + fsync + rename + parent directory fsync, so a
 * crash never leaves a half-written snapshot under the live name.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace zc::persist {

/** One append-only file with an explicit durability point. */
class FileSink
{
  public:
    ~FileSink();
    FileSink(const FileSink&) = delete;
    FileSink& operator=(const FileSink&) = delete;

    static Expected<std::unique_ptr<FileSink>>
    open(const std::string& path);

    /** Append @p len bytes; buffered until sync(). */
    Status append(const void* data, std::size_t len);

    /**
     * Make every appended byte durable: fdatasync when @p dataOnly
     * (skip the inode mtime update), fsync otherwise.
     */
    Status sync(bool dataOnly);

  private:
    FileSink(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

    int fd_ = -1;
    std::string path_; ///< for error messages
};

/** The named files of one zkv data directory. */
class FileBackend
{
  public:
    /** Open (creating directories as needed) the data dir @p root. */
    static Expected<std::unique_ptr<FileBackend>>
    open(const std::string& root);

    /** Open @p name for appending, creating it if absent. */
    Expected<std::unique_ptr<FileSink>> openAppend(const std::string& name);

    /** Whole contents of @p name; NotFound when absent. */
    Expected<std::vector<std::uint8_t>> readAll(const std::string& name);

    bool exists(const std::string& name);

    /**
     * Replace @p name with @p len bytes atomically: readers see either
     * the old file or the complete new one, never a torn middle, even
     * across a crash. Durable on return.
     */
    Status atomicWrite(const std::string& name, const void* data,
                       std::size_t len);

    /** Cut @p name down to @p size bytes (torn-tail salvage). */
    Status truncateTo(const std::string& name, std::uint64_t size);

    Status remove(const std::string& name);

    /** Names starting with @p prefix, lexicographically sorted. */
    Expected<std::vector<std::string>> list(const std::string& prefix);

    /** The data directory path. */
    const std::string& root() const { return root_; }

  private:
    explicit FileBackend(std::string root) : root_(std::move(root)) {}

    std::string path(const std::string& name) const;

    std::string root_;
};

} // namespace zc::persist
