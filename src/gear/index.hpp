// The Gear index: structure of an image's file system with fingerprint stubs.
//
// A Gear image = Gear index + Gear files (paper §III-B). The index keeps the
// whole directory tree — directories, symlinks, metadata — but every regular
// file is replaced by a stub carrying the file's MD5 fingerprint and size.
//
// Compatibility (paper §III-C): the index ships inside a *single-layer
// Docker image*. In that on-the-wire form each stub is an ordinary small
// regular file whose content is "GEARFP1:<fingerprint-hex>:<size>", so the
// index image round-trips through the unmodified Docker registry, layer
// tarball, digest and manifest machinery. This module converts between the
// semantic form (vfs kFingerprint nodes) and the wire form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "docker/image.hpp"
#include "docker/layer.hpp"
#include "util/fingerprint.hpp"
#include "vfs/file_tree.hpp"

namespace gear {

/// Semantic form of a Gear index.
class GearIndex {
 public:
  GearIndex() = default;
  explicit GearIndex(vfs::FileTree tree);

  /// Builds the index of a root filesystem: every regular file becomes a
  /// fingerprint stub; everything else is kept as-is. `fingerprint_of`
  /// supplies the fingerprint for each file — the converter routes this
  /// through its collision-detecting resolver (converter.hpp).
  static GearIndex from_root_fs(
      const vfs::FileTree& root,
      const std::function<Fingerprint(const std::string& path,
                                      const Bytes& content)>& fingerprint_of);

  const vfs::FileTree& tree() const noexcept { return tree_; }
  vfs::FileTree& tree() noexcept { return tree_; }

  /// All stubs in the index, path-ordered.
  struct StubRef {
    std::string path;
    Fingerprint fingerprint;
    std::uint64_t size = 0;
  };
  std::vector<StubRef> stubs() const;

  /// Distinct fingerprints referenced by the index.
  std::vector<Fingerprint> distinct_fingerprints() const;

  /// Total bytes of the files the index points to (the image's logical size).
  std::uint64_t referenced_bytes() const;

  /// Wire form: a plain file tree where stubs are small regular files with
  /// "GEARFP1:..." content, suitable for tar/Layer/Docker-registry transport.
  vfs::FileTree to_wire_tree() const;

  /// Decodes an index layer (inverse of Layer::from_tree(to_wire_tree())):
  /// decompresses the blob and turns each stub file of the tar straight
  /// into a fingerprint node, building no intermediate tree. Accepts exactly
  /// the layers whose extracted tree holds only directories, symlinks and
  /// stub files; throws Error otherwise. The layer's digest is not
  /// re-checked: Layer::from_blob(blob, digest) does that.
  static GearIndex from_layer(const docker::Layer& layer);

  /// Serialized stub-file content for one fingerprint (exposed for tests and
  /// for the viewer's stub detection).
  static std::string encode_stub(const Fingerprint& fp, std::uint64_t size);

  /// Decodes stub-file content; returns false if `content` is not a stub.
  static bool decode_stub(BytesView content, Fingerprint* fp,
                          std::uint64_t* size);

 private:
  vfs::FileTree tree_;
};

/// A Gear image ready for distribution: the index packaged as a single-layer
/// Docker image plus the unique Gear files it references.
struct GearImage {
  docker::Image index_image;  // single-layer Docker image (wire form)
  GearIndex index;            // semantic form
  /// Unique files introduced by this image (fingerprint -> raw content).
  std::vector<std::pair<Fingerprint, Bytes>> files;
};

}  // namespace gear
