// POSIX ustar archive writer/reader.
//
// Docker stores every image layer as a (compressed) tarball (paper §II-B).
// This module serializes a layer's diff tree into a ustar archive and back:
//  * regular files, directories, and symlinks map to their tar entry types;
//  * whiteouts use Docker's on-the-wire convention — a zero-length file named
//    ".wh.<name>" in the parent directory;
//  * opaque directories carry a ".wh..wh..opq" marker entry inside them.
#pragma once

#include <string>
#include <string_view>

#include "util/bytes.hpp"
#include "vfs/file_tree.hpp"

namespace gear::tar {

/// A header, and the unit a payload is padded to.
inline constexpr std::size_t kBlockSize = 512;

/// Appends ustar entries to an archive: the writing counterpart of
/// EntryWalker. Every header goes through it, so it holds the format's
/// limits: a path that does not split into a name of at most 100 bytes and
/// a prefix of at most 155 throws Error(kInvalidArgument) "tar: path too
/// long: <path>", as do a link target over 100 bytes and a number that
/// overflows its octal field.
class EntryWriter {
 public:
  /// Appends to `out`, which must outlive the writer.
  explicit EntryWriter(Bytes& out) : out_(out) {}

  /// A directory entry, stored as "<path>/".
  void directory(std::string_view path, const vfs::Metadata& meta);
  /// A regular file: its header, then `content` padded to whole blocks.
  void file(std::string_view path, const vfs::Metadata& meta,
            BytesView content);
  void symlink(std::string_view path, const vfs::Metadata& meta,
               std::string_view target);
  /// The two zero blocks that end an archive.
  void finish();

 private:
  void entry(std::string_view path, char typeflag, const vfs::Metadata& meta,
             BytesView content, std::string_view linkname);

  Bytes& out_;
};

/// Serializes a layer tree into a ustar archive. Whiteout/opaque markers are
/// encoded with the Docker naming convention. Entry order is deterministic
/// (depth-first, name-ordered), so equal trees produce byte-equal archives —
/// the property layer digests rely on.
Bytes archive_tree(const vfs::FileTree& tree);

/// What an archive entry adds to a layer tree, with the Docker naming
/// conventions already decoded.
enum class EntryType {
  kFile,       // typeflag '0' or NUL
  kDirectory,  // '5'
  kSymlink,    // '2'
  kWhiteout,   // ".wh.<name>": `path` is the deleted path
  kOpaque,     // ".wh..wh..opq": `path` is the opaque directory
};

/// One decoded entry. The views point into the archive or into the walker
/// and stay valid until the walker's next call.
struct Entry {
  EntryType type = EntryType::kFile;
  /// Prefix and name joined by '/', trailing '/' removed. Segments are as
  /// stored: "", "." and ".." reach the tree's path rules unchanged.
  std::string_view path;
  vfs::Metadata metadata;
  BytesView content;             // kFile only
  std::string_view link_target;  // kSymlink only
};

/// Walks a ustar archive entry by entry, without building a tree. It checks
/// block alignment, magic, header checksum, octal fields and truncated
/// payloads, and throws Error(kCorruptData) on the first violation, or
/// Error(kUnsupported) on an entry type other than file, directory and
/// symlink. The walk ends at the first all-zero block or at the end of the
/// bytes.
class EntryWalker {
 public:
  explicit EntryWalker(BytesView archive);

  /// Decodes the next entry into `entry`; false at the end of the archive.
  bool next(Entry& entry);

 private:
  BytesView archive_;
  std::size_t pos_ = 0;
  std::string path_;
};

/// Parses a ustar archive produced by archive_tree (or any compatible ustar
/// stream limited to files/dirs/symlinks) back into a layer tree.
/// Throws Error(kCorruptData) on malformed archives.
vfs::FileTree extract_tree(BytesView archive);

/// Number of 512-byte blocks (headers + padded payloads + trailer) the
/// archive of `tree` will occupy; exposed for capacity planning in tests.
std::uint64_t archive_block_count(const vfs::FileTree& tree);

}  // namespace gear::tar
