// Small filesystem I/O helpers shared by the on-disk backends
// (gear/object_store, gear/fs_store, gear/persistence, vfs/fs_io).
#pragma once

#include <filesystem>
#include <string>
#include <utility>

#include "util/bytes.hpp"

namespace gear {

/// Owns one open file descriptor and closes it on destruction. Move-only;
/// -1 is "none".
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    reset(other.release());
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { reset(); }

  int get() const noexcept { return fd_; }
  explicit operator bool() const noexcept { return fd_ >= 0; }
  /// Gives up ownership without closing (for a checked close).
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Throws Error(kInternal) "<what> <path>: <strerror(errno)>".
[[noreturn]] void throw_errno(const std::string& what,
                              const std::filesystem::path& path);

/// Opens `path` as a directory (O_DIRECTORY, close-on-exec) for the *at()
/// calls. Throws Error(kInternal) when it cannot.
UniqueFd open_directory(const std::filesystem::path& path);

/// Writes all of `content` to `fd`, retrying short writes and EINTR. Throws
/// Error(kInternal) naming `path` on failure; the caller still owns `fd`.
void write_all(int fd, BytesView content, const std::filesystem::path& path);

/// Reads `fd` to EOF into one buffer of `size_hint` bytes (an fstat
/// size), grown or shrunk to what the reads return. Throws Error(kInternal)
/// naming `path` on a read error; the caller still owns `fd`.
Bytes read_all(int fd, std::size_t size_hint,
               const std::filesystem::path& path);

/// Reads a whole file. Throws Error(kInternal) when unreadable.
Bytes read_file_bytes(const std::filesystem::path& path);

/// Creates/truncates `path` and writes `content`. Throws Error(kInternal)
/// on failure (including short writes).
void write_file_bytes(const std::filesystem::path& path, BytesView content);

}  // namespace gear
