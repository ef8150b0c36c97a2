/**
 * @file
 * Crash-safe file primitives for result persistence.
 *
 * Two patterns cover every writer in the tree:
 *
 *  - atomicWriteFile(): whole-file exports (CSV/JSON results) are
 *    written to a temporary sibling, fsync'd and renamed into place,
 *    so a reader never observes a half-written file — after a crash
 *    the path holds either the old contents or the new, never a
 *    truncated mix.
 *
 *  - AppendLog: record-at-a-time streams (the run journal, the
 *    DOPP_STATS_JSON dump) append each record with a single O_APPEND
 *    write(2) followed by fsync(2) under flock(2), so a crash can lose
 *    at most the one record being written — and leaves at worst one
 *    truncated final line, never interleaved or missing earlier
 *    records, even with several processes appending.
 *
 * Every failure mode (open, short write, fsync, rename) is fatal with
 * the path and errno: silently dropping campaign results is worse
 * than dying loudly.
 */

#ifndef DOPP_UTIL_FILEIO_HH
#define DOPP_UTIL_FILEIO_HH

#include <optional>
#include <string>
#include <vector>

#include "types.hh"

namespace dopp
{

/**
 * Atomically replace @p path with @p contents: write to a temporary
 * file in the same directory, fsync it, and rename(2) it over
 * @p path. Fatal with the path and errno on any failure, including a
 * short write.
 */
void atomicWriteFile(const std::string &path,
                     const std::string &contents);

/**
 * An append-only record log (O_APPEND | O_CREAT). Each append() is a
 * single write(2) of the whole record followed by fsync(2), both under
 * flock(LOCK_EX) on the file, so independent processes appending to
 * the same file never interleave or tear each other's records — the
 * guarantee the multi-process campaign service leans on
 * (harness/campaign_service.hh), beyond what O_APPEND alone promises.
 * A short write is fatal with the path, the byte counts and errno.
 * Threads within one process must still serialize their appends
 * through one handle themselves (flock locks are per open file
 * description, and a handle is one).
 */
class AppendLog
{
  public:
    /** Open @p path for appending, creating it if needed. Fatal with
     * errno if the file cannot be opened. */
    explicit AppendLog(const std::string &path);
    ~AppendLog();

    AppendLog(const AppendLog &) = delete;
    AppendLog &operator=(const AppendLog &) = delete;

    /** Transfer the open descriptor; @p other is left closed. */
    AppendLog(AppendLog &&other) noexcept;

    /**
     * Append @p record verbatim (callers include the trailing
     * newline) with one write(2) + fsync(2) under flock.
     * @return bytes written (record.size()).
     */
    u64 append(const std::string &record);

    /** Bytes appended through this handle so far. */
    u64 bytesAppended() const { return appended; }

    /** File size at open time (resume: what a prior campaign left). */
    u64 openedAtBytes() const { return openedAt; }

    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
    int fd = -1;
    u64 appended = 0;
    u64 openedAt = 0;
};

/**
 * RAII flock(LOCK_EX) on a small coordination file (claim/lease
 * records, harness/campaign_service.hh). The file is created if
 * missing; the lock is released (and the descriptor closed) on
 * destruction — including by the kernel if the holder is SIGKILLed,
 * which is exactly why claims use flock rather than lock *files*.
 * Contents are read/replaced through the locked descriptor so a
 * reader holding the lock always sees a complete record.
 */
class FileLock
{
  public:
    /** Blocking acquire (creates @p path if needed). Fatal with errno
     * on open/flock failure. */
    static FileLock acquire(const std::string &path);

    /** Non-blocking acquire: std::nullopt if another holder has the
     * lock right now. Fatal on any error other than contention. */
    static std::optional<FileLock> tryAcquire(const std::string &path);

    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;
    FileLock(FileLock &&other) noexcept;

    /** Whole current contents of the locked file. */
    std::string read() const;

    /** Replace the contents with @p contents (ftruncate + write +
     * fsync through the locked descriptor). */
    void replace(const std::string &contents);

    /** Unlink the file, then release the lock. Used when a record's
     * lifecycle ends (a claim completed). */
    void removeAndRelease();

    const std::string &path() const { return filePath; }

  private:
    FileLock(std::string path, int fd) : filePath(std::move(path)), fd(fd)
    {
    }

    std::string filePath;
    int fd = -1;
};

/**
 * A private directory, made with mkdtemp(3) as /tmp/<prefix>-XXXXXX
 * and removed with everything in it on destruction. Processes that
 * each hold one never share a path. Give it static storage duration
 * to have fatal()'s exit(3) remove it as well.
 */
class ScratchDir
{
  public:
    /** Fatal with errno if the directory cannot be made. */
    explicit ScratchDir(const std::string &prefix);
    ~ScratchDir();

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dirPath; }

  private:
    std::string dirPath;
};

/** Size of the file at @p path in bytes; 0 if it does not exist. */
u64 fileSizeBytes(const std::string &path);

/** Whether @p path exists (any file type). */
bool pathExists(const std::string &path);

/** mkdir -p: create @p path and any missing parents (0755). Fatal
 * with errno on failure; an existing directory is fine. */
void makeDirs(const std::string &path);

/** Sorted names (not paths) of the entries in directory @p path,
 * excluding "." and "..". A missing directory is an empty list. */
std::vector<std::string> listDir(const std::string &path);

/** Read the whole file at @p path into @p out. @return false (out
 * untouched) if the file does not exist; fatal on a read error. */
bool readFileIfExists(const std::string &path, std::string &out);

/** Remove @p path. @return whether it existed; fatal on any error
 * other than ENOENT. */
bool removeFile(const std::string &path);

} // namespace dopp

#endif // DOPP_UTIL_FILEIO_HH
