// In-memory filesystem tree.
//
// Models the root filesystem carried by container images: directories,
// regular files, symbolic links, whiteouts (layer-diff deletion markers, as
// in Overlay2), and — specific to Gear — fingerprint stubs, i.e. regular-file
// entries whose content has been replaced by the file's MD5 fingerprint
// (paper §III-B). Everything the Docker and Gear substrates store, diff,
// union-mount, or convert is one of these trees.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/fingerprint.hpp"

namespace gear::vfs {

enum class NodeType : std::uint8_t {
  kDirectory = 0,
  kRegular = 1,
  kSymlink = 2,
  kWhiteout = 3,     // deletion marker inside a layer diff
  kFingerprint = 4,  // Gear index stub: fingerprint + size in place of content
};

/// POSIX-ish metadata kept per node. Enough to make layer diffs and index
/// round-trips faithful; ownership/time fields participate in change
/// detection exactly as Overlay2's copy-up would see them.
struct Metadata {
  std::uint32_t mode = 0644;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t mtime = 0;

  friend bool operator==(const Metadata&, const Metadata&) = default;
};

/// A single tree node. Directory children are name-ordered for deterministic
/// traversal, serialization, and digests.
class FileNode {
 public:
  using ChildMap = std::map<std::string, std::unique_ptr<FileNode>>;

  explicit FileNode(NodeType type) : type_(type) {}

  NodeType type() const noexcept { return type_; }
  bool is_directory() const noexcept { return type_ == NodeType::kDirectory; }
  bool is_regular() const noexcept { return type_ == NodeType::kRegular; }
  bool is_symlink() const noexcept { return type_ == NodeType::kSymlink; }
  bool is_whiteout() const noexcept { return type_ == NodeType::kWhiteout; }
  bool is_fingerprint() const noexcept {
    return type_ == NodeType::kFingerprint;
  }

  Metadata& metadata() noexcept { return meta_; }
  const Metadata& metadata() const noexcept { return meta_; }

  /// Regular-file content. Valid only for kRegular.
  const Bytes& content() const { return content_; }
  Bytes& content() { return content_; }
  void set_content(Bytes content);

  /// Symlink target. Valid only for kSymlink.
  const std::string& link_target() const { return link_target_; }
  void set_link_target(std::string target);

  /// Fingerprint stub payload. Valid only for kFingerprint.
  const Fingerprint& fingerprint() const { return fingerprint_; }
  std::uint64_t stub_size() const { return stub_size_; }
  void set_fingerprint(const Fingerprint& fp, std::uint64_t original_size);

  /// Opaque flag (directories in layer-diff trees only): an opaque directory
  /// replaces the lower directory entirely instead of merging with it,
  /// exactly as Overlay2's "trusted.overlay.opaque" xattr.
  bool opaque() const noexcept { return opaque_; }
  void set_opaque(bool opaque) noexcept { opaque_ = opaque; }

  /// Children. Valid only for kDirectory.
  const ChildMap& children() const { return children_; }
  FileNode* child(std::string_view name);
  const FileNode* child(std::string_view name) const;
  FileNode& add_child(std::string name, std::unique_ptr<FileNode> node);
  bool remove_child(std::string_view name);

  /// Deep copy.
  std::unique_ptr<FileNode> clone() const;

  /// Deep structural equality (type, metadata, payload, children).
  bool equals(const FileNode& other) const;

 private:
  NodeType type_;
  Metadata meta_;
  Bytes content_;                    // kRegular
  std::string link_target_;          // kSymlink
  Fingerprint fingerprint_;          // kFingerprint
  std::uint64_t stub_size_ = 0;      // kFingerprint: original file size
  bool opaque_ = false;              // kDirectory, layer diffs only
  ChildMap children_;                // kDirectory
};

/// Aggregate statistics over a tree (directories excluded from byte counts).
struct TreeStats {
  std::uint64_t regular_files = 0;
  std::uint64_t directories = 0;  // excluding the root
  std::uint64_t symlinks = 0;
  std::uint64_t whiteouts = 0;
  std::uint64_t fingerprint_stubs = 0;
  std::uint64_t total_file_bytes = 0;  // regular content + stub sizes
};

/// A rooted filesystem tree with path-based operations.
///
/// Paths use '/' separators; leading slash optional; "." and empty segments
/// are ignored; ".." is rejected (images never legitimately contain it and
/// accepting it would let a crafted index escape the root).
class FileTree {
 public:
  FileTree() : root_(std::make_unique<FileNode>(NodeType::kDirectory)) {}
  FileTree(const FileTree& other) : root_(other.root_->clone()) {}
  FileTree& operator=(const FileTree& other);
  FileTree(FileTree&&) noexcept = default;
  FileTree& operator=(FileTree&&) noexcept = default;

  FileNode& root() noexcept { return *root_; }
  const FileNode& root() const noexcept { return *root_; }

  /// Splits and validates a path into segments.
  static std::vector<std::string> split_path(std::string_view path);

  /// Adds a regular file, creating parent directories as needed.
  /// Throws if a non-directory blocks the path.
  FileNode& add_file(std::string_view path, Bytes content,
                     const Metadata& meta = {});

  /// Adds (or returns an existing) directory.
  FileNode& add_directory(std::string_view path, const Metadata& meta = {});

  /// Adds a symbolic link.
  FileNode& add_symlink(std::string_view path, std::string target,
                        const Metadata& meta = {});

  /// Adds a whiteout (deletion marker) — only meaningful in layer-diff trees.
  FileNode& add_whiteout(std::string_view path);

  /// Adds a Gear fingerprint stub.
  FileNode& add_fingerprint_stub(std::string_view path, const Fingerprint& fp,
                                 std::uint64_t original_size,
                                 const Metadata& meta = {});

  /// Looks up a node; nullptr when absent.
  const FileNode* lookup(std::string_view path) const;
  FileNode* lookup(std::string_view path);

  bool exists(std::string_view path) const { return lookup(path) != nullptr; }

  /// Removes the node (and any subtree) at `path`. Returns false if absent.
  bool remove(std::string_view path);

  /// Pre-order traversal. The visitor receives the '/'-joined path (no
  /// leading slash) and the node; the root itself is not visited.
  void walk(const std::function<void(const std::string&, const FileNode&)>&
                visitor) const;

  /// Aggregate statistics.
  TreeStats stats() const;

  /// Deep equality.
  bool equals(const FileTree& other) const { return root_->equals(*other.root_); }

 private:
  FileNode& ensure_parent(const std::vector<std::string>& segments);

  std::unique_ptr<FileNode> root_;
};

}  // namespace gear::vfs
