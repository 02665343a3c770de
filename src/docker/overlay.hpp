// Overlay2-style union mount over file trees.
//
// Implements the merge semantics of the kernel's overlayfs as Docker's
// Overlay2 graph driver uses them (paper §II-C):
//  * layers are stacked bottom-to-top with one writable upper layer;
//  * lookups scan top-down; the first non-directory entry masks everything
//    below; whiteouts mask and report "absent"; directory entries from
//    several layers merge unless an upper one is opaque;
//  * writes copy up into the upper layer; deletes create whiteouts;
//  * readdir presents the merged, masked union of all layers.
//
// Lookups are lazy — nothing is flattened at mount time — mirroring the real
// driver. `merged()` materializes the full view for verification; the
// property suite checks lazy lookups against vfs::flatten_layers. Docker
// containers mount it over their image layers, and the Gear File Viewer
// (gear/viewer) over an image's index, as both run on the one overlayfs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "vfs/file_tree.hpp"

namespace gear::docker {

/// Result of resolving a path through the union.
struct OverlayEntry {
  const vfs::FileNode* node = nullptr;
  /// True when the entry lives in the writable upper layer.
  bool in_upper = false;
};

class OverlayMount {
 public:
  /// `lowers`: read-only layer *diff* trees, bottom first (as Overlay2's
  /// lowerdir list). The caller keeps them alive for the mount's lifetime.
  /// The mount owns a fresh, empty upper layer.
  explicit OverlayMount(std::vector<const vfs::FileTree*> lowers);

  /// Mounts over a writable layer the caller owns, as a container's diff
  /// outlives any one mount of it. `upper` must outlive the mount.
  OverlayMount(std::vector<const vfs::FileTree*> lowers,
               vfs::FileTree& upper);

  /// Resolves `path` through the union. Returns nullopt-like entry with
  /// node == nullptr when absent (or masked by a whiteout).
  OverlayEntry lookup(std::string_view path) const;

  bool exists(std::string_view path) const { return lookup(path).node != nullptr; }

  /// Reads a regular file's content through the union.
  StatusOr<Bytes> read_file(std::string_view path) const;

  /// Reads a symlink target (paper §III-D2: irregular files are answered
  /// directly from the index/union without materialization).
  StatusOr<std::string> read_symlink(std::string_view path) const;

  /// Merged, masked directory listing (names only, sorted).
  std::vector<std::string> list_dir(std::string_view path) const;

  /// Creates/overwrites a regular file in the upper layer, creating parent
  /// directories as needed (copy-up of directory structure). Throws
  /// kInvalidArgument when a parent component is not a directory, or when
  /// the union holds a directory at `path` ("is a directory", overlayfs's
  /// EISDIR).
  void write_file(std::string_view path, Bytes content,
                  const vfs::Metadata& meta = {});

  /// Creates a directory in the upper layer, or sets the metadata of one
  /// already there. If the path was deleted earlier (whiteout present), the
  /// new directory is opaque so lower contents stay hidden. Throws
  /// kInvalidArgument when a parent component is not a directory, and
  /// kAlreadyExists when any layer of the union holds a non-directory at
  /// `path` (overlayfs's EEXIST).
  void make_dir(std::string_view path, const vfs::Metadata& meta = {});

  /// Removes `path` from the union view: erases any upper entry and places
  /// a whiteout if the path still resolves through the union. Returns false
  /// if the path did not exist in the union.
  bool remove(std::string_view path);

  /// The writable layer as a diff tree — exactly what `docker commit` turns
  /// into a new image layer.
  const vfs::FileTree& upper_diff() const noexcept { return *upper_; }

  /// Materializes the full merged view (for tests and commit verification).
  vfs::FileTree merged() const;

 private:
  // Directories from different layers that merge at one path, top-first.
  using DirStack = std::vector<const vfs::FileNode*>;

  /// Resolves one name within a merged directory stack. Appends merged
  /// sub-directories to `next_stack` when the result is a directory.
  const vfs::FileNode* resolve_child(const DirStack& stack,
                                     const std::string& name,
                                     DirStack* next_stack) const;

  /// Walks `segments` and returns the stack of merged directories at that
  /// path, or an empty stack when the path is not a directory in the union.
  DirStack dir_stack_at(const std::vector<std::string>& segments) const;

  /// The upper-layer directory that holds the last of `segments`, walked
  /// through the union. Each existing component must be a directory in the
  /// union (kInvalidArgument otherwise); a missing one is created in the
  /// upper layer with the union's metadata (copy-up); one deleted earlier
  /// comes back as an opaque directory.
  vfs::FileNode& upper_parent(const std::vector<std::string>& segments);

  std::vector<const vfs::FileTree*> lowers_;  // bottom first
  // Set only when the mount owns its upper layer. It lives on the heap so
  // that moving the mount keeps `upper_` valid.
  std::unique_ptr<vfs::FileTree> owned_upper_;
  vfs::FileTree* upper_;  // writable layer (diff tree)
};

}  // namespace gear::docker
