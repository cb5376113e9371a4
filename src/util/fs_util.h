// Filesystem helpers shared by the CLI, the benches, and the durable write
// path: size reporting (e.g. the on-disk bytes a compaction reclaimed) and
// the fsync plumbing the write-ahead log and checkpointing need to make
// "acknowledged" mean "survives a crash".
#ifndef PIS_UTIL_FS_UTIL_H_
#define PIS_UTIL_FS_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/status.h"

namespace pis {

/// Total bytes of the regular files directly inside `dir` (the layout
/// SaveDir writes: a manifest plus per-shard files, no subdirectories).
/// 0 when the directory is missing or unreadable.
uintmax_t DirectoryBytes(const std::string& dir);

/// DirectoryBytes for a directory, the file size otherwise; 0 on error.
uintmax_t PathBytes(const std::string& path);

/// Reads the whole file at `path` into `*bytes` in one block. IOError
/// "cannot open <path>" when it cannot be opened, or a read fails.
Status ReadFileBytes(const std::string& path, std::string* bytes);

/// Replaces `target` (a file, a directory, or nothing) without ever
/// exposing a half-written one: `write` fills the staging path
/// `<target>.tmp` (cleared first), then renames swap it in — the old entry
/// moves aside to `<target>.old`, the staged one takes its name, and the
/// old one is deleted. A failure before the second rename leaves the old
/// entry in place or at `<target>.old`.
Status StageAndReplace(const std::string& target,
                       const std::function<Status(const std::string&)>& write);

/// fsync(2)s a regular file by path (open / fsync / close). Buffered data
/// an ofstream already flushed can still sit in the page cache; this forces
/// it to stable storage.
Status SyncFile(const std::string& path);

/// fsync(2)s a directory so a rename/create inside it is itself durable
/// (the file's bytes being on disk does not make its directory entry so).
Status SyncDir(const std::string& dir);

/// SyncFile over every regular file directly inside `dir`, then SyncDir on
/// the directory — what a freshly written snapshot directory needs before
/// the WAL that covered it may be truncated.
Status SyncTree(const std::string& dir);

}  // namespace pis

#endif  // PIS_UTIL_FS_UTIL_H_
