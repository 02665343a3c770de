// Bridging file trees to the real filesystem.
//
// Lets the tooling (gearctl) import an actual directory as an image root
// and export a materialized image back to disk — the equivalent of
// `docker import` / `docker export` for the Gear pipeline.
#pragma once

#include <filesystem>

#include "vfs/file_tree.hpp"

namespace gear::util {
class ThreadPool;
}

namespace gear::vfs {

struct LoadOptions {
  /// Skip entries that are neither regular files, directories, nor
  /// symlinks (sockets, fifos, devices) instead of failing.
  bool skip_special = true;
  /// Upper bound on total bytes loaded; guards against importing huge
  /// trees by accident. 0 = unlimited.
  std::uint64_t max_total_bytes = 0;
};

/// Reads the directory at `root` into a FileTree. Symbolic links are kept
/// as links (not followed); permission bits and mtimes (whole seconds,
/// pre-1970 clamped to 0) come from one lstat per entry, a link's from the
/// link itself. The walk is serial; the regular files' contents are then
/// read as one task per file on `pool` when given (inline otherwise), with
/// the same result at any width. Throws Error(kInvalidArgument) when `root`
/// is not a directory, Error(kOutOfSpace) naming the path where the byte
/// budget is breached, Error(kUnsupported) for a special file when
/// `skip_special` is false, and Error(kInternal) naming any path it cannot
/// read.
FileTree load_tree(const std::filesystem::path& root,
                   const LoadOptions& options = {},
                   util::ThreadPool* pool = nullptr);

/// Writes `tree` under the directory `root` (created if needed). Existing
/// contents are left in place; colliding paths are overwritten. Whiteouts
/// and fingerprint stubs are rejected — export materialized trees only.
void write_tree(const FileTree& tree, const std::filesystem::path& root);

}  // namespace gear::vfs
