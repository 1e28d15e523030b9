/**
 * @file
 * FileSink/FileBackend (persist/file_sink.hpp). All failure paths
 * return structured Status with errno text; atomicWrite is tmp + fsync
 * + rename + parent directory fsync, the same recipe every journaling
 * store uses so a crash can never leave a torn file under the live
 * name.
 */

#include "persist/file_sink.hpp"

#include <cerrno>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>

namespace zc::persist {

namespace {

std::string
errnoMessage()
{
    return std::strerror(errno);
}

Status
ioFail(const std::string& path, const char* what)
{
    return Status::ioError("persist '" + path + "': " + what + ": " +
                           errnoMessage());
}

/** mkdir -p: create @p dir and any missing parents. */
Status
makeDirs(const std::string& dir)
{
    std::string partial;
    std::size_t pos = 0;
    while (pos <= dir.size()) {
        std::size_t slash = dir.find('/', pos);
        if (slash == std::string::npos) slash = dir.size();
        partial = dir.substr(0, slash);
        pos = slash + 1;
        if (partial.empty()) continue; // leading '/'
        if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
            return ioFail(partial, "cannot create directory");
        }
    }
    return Status::ok();
}

/** fsync a directory so a rename/create inside it is itself durable. */
Status
syncDir(const std::string& dir)
{
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) return ioFail(dir, "cannot open directory for fsync");
    int rc = ::fsync(dfd);
    int saved = errno;
    ::close(dfd);
    if (rc != 0) {
        errno = saved;
        return ioFail(dir, "directory fsync failed");
    }
    return Status::ok();
}

} // namespace

// ---- FileSink -------------------------------------------------------

FileSink::~FileSink()
{
    if (fd_ >= 0) ::close(fd_);
}

Expected<std::unique_ptr<FileSink>>
FileSink::open(const std::string& path)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0666);
    if (fd < 0) {
        return ioFail(path, "cannot open for append");
    }
    return std::unique_ptr<FileSink>(new FileSink(fd, path));
}

Status
FileSink::append(const void* data, std::size_t len)
{
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd_, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return ioFail(path_, "append failed");
        }
        off += static_cast<std::size_t>(n);
    }
    return Status::ok();
}

Status
FileSink::sync(bool dataOnly)
{
    int rc = dataOnly ? ::fdatasync(fd_) : ::fsync(fd_);
    if (rc != 0) {
        return ioFail(path_, dataOnly ? "fdatasync failed"
                                      : "fsync failed");
    }
    return Status::ok();
}

// ---- FileBackend ----------------------------------------------------

Expected<std::unique_ptr<FileBackend>>
FileBackend::open(const std::string& root)
{
    if (root.empty()) {
        return Status::invalidArgument(
            "persist: data directory path is empty");
    }
    if (Status s = makeDirs(root); !s.isOk()) return s;
    return std::unique_ptr<FileBackend>(new FileBackend(root));
}

std::string
FileBackend::path(const std::string& name) const
{
    return root_ + "/" + name;
}

Expected<std::unique_ptr<FileSink>>
FileBackend::openAppend(const std::string& name)
{
    return FileSink::open(path(name));
}

Expected<std::vector<std::uint8_t>>
FileBackend::readAll(const std::string& name)
{
    std::string p = path(name);
    int fd = ::open(p.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT) {
            return Status::notFound("persist '" + p + "': no such object");
        }
        return ioFail(p, "cannot open for read");
    }
    std::vector<std::uint8_t> out;
    std::uint8_t buf[65536];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR) continue;
            int saved = errno;
            ::close(fd);
            errno = saved;
            return ioFail(p, "read failed");
        }
        if (n == 0) break;
        out.insert(out.end(), buf, buf + n);
    }
    ::close(fd);
    return out;
}

bool
FileBackend::exists(const std::string& name)
{
    struct stat st{};
    return ::stat(path(name).c_str(), &st) == 0;
}

Status
FileBackend::atomicWrite(const std::string& name, const void* data,
                         std::size_t len)
{
    std::string tmp = path(name) + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0) return ioFail(tmp, "cannot create");
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t off = 0;
    while (off < len) {
        ssize_t n = ::write(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            int saved = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            errno = saved;
            return ioFail(tmp, "write failed");
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        int saved = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        errno = saved;
        return ioFail(tmp, "fsync failed");
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        return ioFail(tmp, "close failed");
    }
    if (::rename(tmp.c_str(), path(name).c_str()) != 0) {
        int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
        return ioFail(path(name), "rename failed");
    }
    return syncDir(root_);
}

Status
FileBackend::truncateTo(const std::string& name, std::uint64_t size)
{
    std::string p = path(name);
    if (::truncate(p.c_str(), static_cast<off_t>(size)) != 0) {
        return ioFail(p, "truncate failed");
    }
    return Status::ok();
}

Status
FileBackend::remove(const std::string& name)
{
    std::string p = path(name);
    if (::unlink(p.c_str()) != 0 && errno != ENOENT) {
        return ioFail(p, "unlink failed");
    }
    return Status::ok();
}

Expected<std::vector<std::string>>
FileBackend::list(const std::string& prefix)
{
    DIR* d = ::opendir(root_.c_str());
    if (d == nullptr) return ioFail(root_, "cannot list directory");
    std::vector<std::string> out;
    while (dirent* e = ::readdir(d)) {
        std::string n = e->d_name;
        if (n == "." || n == "..") continue;
        if (n.compare(0, prefix.size(), prefix) == 0) out.push_back(n);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace zc::persist
