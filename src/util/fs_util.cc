#include "util/fs_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

namespace pis {

namespace {

Status SyncFd(const std::string& path, int open_flags) {
  const int fd = ::open(path.c_str(), open_flags);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + " for fsync: " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " +
                           std::strerror(saved_errno));
  }
  return Status::OK();
}

}  // namespace

Status ReadFileBytes(const std::string& path, std::string* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  bytes->resize(::fstat(fd, &st) == 0 && st.st_size > 0
                    ? static_cast<size_t>(st.st_size)
                    : 0);
  size_t done = 0;
  while (done < bytes->size()) {
    const ssize_t n = ::read(fd, bytes->data() + done, bytes->size() - done);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved_errno = errno;
      ::close(fd);
      return Status::IOError("cannot open " + path + ": " +
                             std::strerror(saved_errno));
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes->resize(done);
  return Status::OK();
}

uintmax_t DirectoryBytes(const std::string& dir) {
  uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uintmax_t PathBytes(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return DirectoryBytes(path);
  uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

Status StageAndReplace(const std::string& target,
                       const std::function<Status(const std::string&)>& write) {
  const std::string staged = target + ".tmp";
  const std::string retired = target + ".old";
  std::error_code ec;
  std::filesystem::remove_all(staged, ec);
  PIS_RETURN_NOT_OK(write(staged));
  std::filesystem::remove_all(retired, ec);
  if (std::filesystem::exists(target, ec)) {
    std::filesystem::rename(target, retired, ec);
  }
  if (!ec) std::filesystem::rename(staged, target, ec);
  if (ec) {
    return Status::IOError("cannot swap " + staged + " into " + target + ": " +
                           ec.message());
  }
  std::filesystem::remove_all(retired, ec);
  return Status::OK();
}

Status SyncFile(const std::string& path) { return SyncFd(path, O_RDONLY); }

Status SyncDir(const std::string& dir) {
  return SyncFd(dir, O_RDONLY | O_DIRECTORY);
}

Status SyncTree(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    PIS_RETURN_NOT_OK(SyncFile(entry.path().string()));
  }
  if (ec) {
    return Status::IOError("cannot iterate " + dir + ": " + ec.message());
  }
  return SyncDir(dir);
}

}  // namespace pis
