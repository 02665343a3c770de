#include "util/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace gear {

void throw_errno(const std::string& what, const std::filesystem::path& path) {
  throw_error(ErrorCode::kInternal,
              what + " " + path.string() + ": " + std::strerror(errno));
}

void UniqueFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

UniqueFd open_directory(const std::filesystem::path& path) {
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (!fd) throw_errno("cannot open directory", path);
  return fd;
}

void write_all(int fd, BytesView content, const std::filesystem::path& path) {
  std::size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed to", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

Bytes read_all(int fd, std::size_t size_hint,
               const std::filesystem::path& path) {
  // One buffer of the hinted size, filled by read(). The hint is only a
  // hint (0 for procfs files, stale for a file still growing), so reading
  // goes on to EOF: once the buffer is full, further bytes arrive through a
  // probe buffer and are appended.
  Bytes out(size_hint);
  std::size_t got = 0;
  std::uint8_t probe[4096];
  for (;;) {
    const bool full = got == out.size();
    ssize_t n = full ? ::read(fd, probe, sizeof probe)
                     : ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read failed for", path);
    }
    if (n == 0) break;
    if (full) out.insert(out.end(), probe, probe + n);
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);  // the file shrank since it was sized
  return out;
}

Bytes read_file_bytes(const std::filesystem::path& path) {
  UniqueFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) {
    throw_error(ErrorCode::kInternal, "cannot open " + path.string());
  }
  struct stat st {};
  const bool sized = ::fstat(fd.get(), &st) == 0 && st.st_size > 0;
  return read_all(fd.get(), sized ? static_cast<std::size_t>(st.st_size) : 0,
                  path);
}

void write_file_bytes(const std::filesystem::path& path, BytesView content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw_error(ErrorCode::kInternal, "cannot create " + path.string());
  }
  out.write(reinterpret_cast<const char*>(content.data()),
            static_cast<std::streamsize>(content.size()));
  if (!out) {
    throw_error(ErrorCode::kInternal, "short write to " + path.string());
  }
}

}  // namespace gear
