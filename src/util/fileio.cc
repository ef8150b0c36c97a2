#include "fileio.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "logging.hh"

namespace dopp
{

namespace
{

/** write(2) all of @p data to @p fd, retrying on EINTR/partial
 * writes. Fatal with @p path and errno on any unrecoverable error. */
void
writeAll(int fd, const std::string &path, const char *data, size_t n)
{
    size_t done = 0;
    while (done < n) {
        const ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            fatal("'%s': short write (%zu of %zu bytes): %s",
                  path.c_str(), done, n, std::strerror(errno));
        }
        done += static_cast<size_t>(w);
    }
}

void
fsyncOrDie(int fd, const std::string &path)
{
    if (::fsync(fd) != 0)
        fatal("'%s': fsync failed: %s", path.c_str(),
              std::strerror(errno));
}

/** flock(2) @p op on @p fd, retrying on EINTR. @return false only for
 * a non-blocking attempt that lost the race (EWOULDBLOCK); fatal on
 * any other failure. */
bool
flockOrDie(int fd, const std::string &path, int op)
{
    for (;;) {
        if (::flock(fd, op) == 0)
            return true;
        if (errno == EINTR)
            continue;
        if (errno == EWOULDBLOCK && (op & LOCK_NB))
            return false;
        fatal("'%s': flock failed: %s", path.c_str(),
              std::strerror(errno));
    }
}

} // namespace

void
atomicWriteFile(const std::string &path, const std::string &contents)
{
    // Same-directory temp so the final rename cannot cross devices.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0)
        fatal("cannot open '%s' for writing: %s", tmp.c_str(),
              std::strerror(errno));
    writeAll(fd, tmp, contents.data(), contents.size());
    fsyncOrDie(fd, tmp);
    if (::close(fd) != 0)
        fatal("'%s': close failed: %s", tmp.c_str(),
              std::strerror(errno));
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        fatal("cannot rename '%s' to '%s': %s", tmp.c_str(),
              path.c_str(), std::strerror(errno));
}

AppendLog::AppendLog(const std::string &path) : filePath(path)
{
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        fatal("cannot open '%s' for appending: %s", path.c_str(),
              std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) == 0)
        openedAt = static_cast<u64>(st.st_size);
}

AppendLog::AppendLog(AppendLog &&other) noexcept
    : filePath(std::move(other.filePath)), fd(other.fd),
      appended(other.appended), openedAt(other.openedAt)
{
    other.fd = -1;
}

AppendLog::~AppendLog()
{
    if (fd >= 0)
        ::close(fd);
}

u64
AppendLog::append(const std::string &record)
{
    flockOrDie(fd, filePath, LOCK_EX);
    writeAll(fd, filePath, record.data(), record.size());
    fsyncOrDie(fd, filePath);
    flockOrDie(fd, filePath, LOCK_UN);
    appended += record.size();
    return record.size();
}

FileLock
FileLock::acquire(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        fatal("cannot open lock file '%s': %s", path.c_str(),
              std::strerror(errno));
    flockOrDie(fd, path, LOCK_EX);
    return FileLock(path, fd);
}

std::optional<FileLock>
FileLock::tryAcquire(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        fatal("cannot open lock file '%s': %s", path.c_str(),
              std::strerror(errno));
    if (!flockOrDie(fd, path, LOCK_EX | LOCK_NB)) {
        ::close(fd);
        return std::nullopt;
    }
    return FileLock(path, fd);
}

FileLock::~FileLock()
{
    if (fd >= 0)
        ::close(fd); // closing the descriptor releases the flock
}

FileLock::FileLock(FileLock &&other) noexcept
    : filePath(std::move(other.filePath)), fd(other.fd)
{
    other.fd = -1;
}

std::string
FileLock::read() const
{
    std::string out;
    char buf[4096];
    u64 off = 0;
    for (;;) {
        const ssize_t n =
            ::pread(fd, buf, sizeof(buf), static_cast<off_t>(off));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("'%s': read failed: %s", filePath.c_str(),
                  std::strerror(errno));
        }
        if (n == 0)
            return out;
        out.append(buf, static_cast<size_t>(n));
        off += static_cast<u64>(n);
    }
}

void
FileLock::replace(const std::string &contents)
{
    if (::ftruncate(fd, 0) != 0)
        fatal("'%s': ftruncate failed: %s", filePath.c_str(),
              std::strerror(errno));
    if (::lseek(fd, 0, SEEK_SET) < 0)
        fatal("'%s': lseek failed: %s", filePath.c_str(),
              std::strerror(errno));
    writeAll(fd, filePath, contents.data(), contents.size());
    fsyncOrDie(fd, filePath);
}

void
FileLock::removeAndRelease()
{
    removeFile(filePath);
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

ScratchDir::ScratchDir(const std::string &prefix)
{
    std::string tmpl = "/tmp/" + prefix + "-XXXXXX";
    if (!::mkdtemp(tmpl.data()))
        fatal("cannot make a directory '%s': %s", tmpl.c_str(),
              std::strerror(errno));
    dirPath = tmpl;
}

ScratchDir::~ScratchDir()
{
    std::error_code ec; // best effort: nothing to report it to
    std::filesystem::remove_all(dirPath, ec);
}

u64
fileSizeBytes(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<u64>(st.st_size);
}

bool
pathExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
makeDirs(const std::string &path)
{
    if (path.empty())
        fatal("makeDirs: empty path");
    // mkdir every prefix ending at a '/' (or the whole path); EEXIST
    // is fine, anything else is fatal.
    for (size_t i = 1; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/')
            continue;
        const std::string prefix = path.substr(0, i);
        if (prefix == "/" || prefix.back() == '/')
            continue; // root or an empty "//" segment
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            fatal("cannot create directory '%s': %s", prefix.c_str(),
                  std::strerror(errno));
    }
}

std::vector<std::string>
listDir(const std::string &path)
{
    std::vector<std::string> names;
    DIR *dir = ::opendir(path.c_str());
    if (!dir)
        return names; // missing directory: empty listing
    while (struct dirent *e = ::readdir(dir)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
            names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
}

bool
readFileIfExists(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT)
            return false;
        fatal("cannot open '%s' for reading: %s", path.c_str(),
              std::strerror(errno));
    }
    std::string data;
    char buf[16384];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            fatal("'%s': read failed: %s", path.c_str(),
                  std::strerror(err));
        }
        if (n == 0)
            break;
        data.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    out = std::move(data);
    return true;
}

bool
removeFile(const std::string &path)
{
    if (::unlink(path.c_str()) == 0)
        return true;
    if (errno == ENOENT)
        return false;
    fatal("cannot remove '%s': %s", path.c_str(),
          std::strerror(errno));
}

} // namespace dopp
