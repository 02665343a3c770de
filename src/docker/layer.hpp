// Docker image layers.
//
// A layer is the unit of storage and distribution in the classic Docker
// format (paper §II-A): the diff of one filesystem snapshot against its
// parent, shipped as a compressed tarball and identified by the SHA-256
// digest of that tarball's bytes.
#pragma once

#include <compare>
#include <string>

#include "util/bytes.hpp"
#include "util/sha256.hpp"
#include "vfs/file_tree.hpp"

namespace gear::docker {

/// Content digest of a layer blob ("sha256:<hex>" in Docker parlance).
class Digest {
 public:
  Digest() = default;
  explicit Digest(const Sha256Digest& raw) : raw_(raw) {}

  /// Digest of arbitrary blob bytes.
  static Digest of(BytesView blob);

  /// Parses "sha256:<64 hex chars>" or bare hex.
  static Digest from_string(std::string_view s);

  const Sha256Digest& raw() const noexcept { return raw_; }
  std::string hex() const;
  /// Canonical "sha256:<hex>" form used in manifests.
  std::string to_string() const;

  auto operator<=>(const Digest&) const = default;

 private:
  Sha256Digest raw_{};
};

struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      h = (h << 8) | d.raw()[i];
    }
    return h;
  }
};

/// A materialized layer: the compressed tarball plus derived identity/sizes.
class Layer {
 public:
  /// Builds a layer from a diff tree: tar -> compress -> digest.
  static Layer from_tree(const vfs::FileTree& diff_tree);

  /// Builds a layer from an uncompressed tar archive: compress -> digest.
  static Layer from_archive(BytesView archive);

  /// Wraps an existing blob (e.g. fetched from a registry). Verifies the
  /// expected digest when provided; throws kCorruptData on mismatch.
  static Layer from_blob(Bytes compressed_blob);
  static Layer from_blob(Bytes compressed_blob, const Digest& expected);

  /// Decompresses and un-tars back into the diff tree.
  vfs::FileTree to_tree() const;

  const Digest& digest() const noexcept { return digest_; }
  const Bytes& blob() const noexcept { return blob_; }
  std::uint64_t compressed_size() const noexcept { return blob_.size(); }
  std::uint64_t uncompressed_size() const noexcept { return uncompressed_size_; }

 private:
  Layer(Bytes blob, Digest digest, std::uint64_t uncompressed_size)
      : blob_(std::move(blob)),
        digest_(digest),
        uncompressed_size_(uncompressed_size) {}

  Bytes blob_;  // compressed tarball
  Digest digest_;
  std::uint64_t uncompressed_size_;
};

}  // namespace gear::docker
