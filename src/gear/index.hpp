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
// tarball, digest and manifest machinery. This module writes the semantic
// form (vfs kFingerprint nodes) straight into that layer and reads it back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "docker/image.hpp"
#include "docker/layer.hpp"
#include "util/fingerprint.hpp"
#include "vfs/file_tree.hpp"

namespace gear::docker {
class DockerRegistry;
}  // namespace gear::docker

namespace gear {

/// Semantic form of a Gear index.
class GearIndex {
 public:
  GearIndex() = default;
  explicit GearIndex(vfs::FileTree tree);

  /// Builds the index of a root filesystem: every regular file becomes a
  /// fingerprint stub; everything else is kept as-is. `fingerprint_of`
  /// supplies the fingerprint for each file, in walk order — the converter
  /// routes this through its collision-detecting resolver (converter.hpp).
  /// `root` is consumed: the callback may move a file's content out (the
  /// stub's size is taken before it runs), so pass a copy to keep a tree.
  using FingerprintOf =
      std::function<Fingerprint(const std::string& path, Bytes& content)>;
  static GearIndex from_root_fs(vfs::FileTree root,
                                const FingerprintOf& fingerprint_of);

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

  /// The index layer: one tar entry per node, in walk order, with each stub
  /// written as a small regular file holding encode_stub(), into a buffer
  /// sized up front; then compressed and digested. It equals the layer of
  /// the index tree's wire form (stubs as files) diffed against an empty
  /// tree, without building either tree. An empty index is the tar trailer
  /// alone. Throws Error(kInternal) naming the path of a node an index may
  /// not hold, and tar's errors (such as "tar: path too long") unchanged.
  docker::Layer to_layer() const;

  /// The index packaged as a single-layer Docker image "<name>:<tag>"
  /// (paper §III-C): to_layer(), and `config` (env/entrypoint, so the
  /// application still runs) with kGearIndexLabel set.
  docker::Image to_image(std::string name, std::string tag,
                         docker::ImageConfig config) const;

  /// Decodes an index layer (inverse of to_layer()): decompresses the blob
  /// and turns each stub file of the tar straight into a fingerprint node,
  /// building no intermediate tree. Accepts exactly the layers whose
  /// extracted tree holds only directories, symlinks and stub files; throws
  /// Error otherwise. The layer's digest is not re-checked:
  /// Layer::from_blob(blob, digest) does that.
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

/// Marker label an index image's manifest carries.
inline constexpr const char* kGearIndexLabel = "gear.index";

/// A Gear image ready for distribution: the index packaged as a single-layer
/// Docker image plus the unique Gear files it references.
struct GearImage {
  docker::Image index_image;  // single-layer Docker image (wire form)
  GearIndex index;            // semantic form
  /// Unique files introduced by this image (fingerprint -> raw content).
  std::vector<std::pair<Fingerprint, Bytes>> files;
};

/// The manifest of the Gear index image `reference`. Throws the registry's
/// code, naming `reference`, when there is no such manifest, and
/// kInvalidArgument "<reference> is not a Gear index image" when it lacks
/// kGearIndexLabel or holds other than one layer.
docker::Manifest gear_index_manifest(const docker::DockerRegistry& registry,
                                     const std::string& reference);

/// Fetches the one layer of `manifest`, which gear_index_manifest() has
/// checked. Throws the registry's code, naming `reference` and the digest,
/// when the blob is missing, and kCorruptData when its digest does not
/// match.
docker::Layer gear_index_layer(const docker::DockerRegistry& registry,
                               const docker::Manifest& manifest,
                               const std::string& reference);

}  // namespace gear
