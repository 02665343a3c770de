// The Gear index codec that GearIndex::to_layer and GearIndex::from_layer
// replaced, kept verbatim as their oracle.
//  * Encode: rebuild the index as a wire tree (each stub a small regular
//    file), diff it against an empty tree as ImageBuilder's first snapshot
//    did, then tar, compress and digest it. to_layer must write the same
//    blob and digest for every non-empty index.
//  * Decode: extract the whole layer into a wire tree (decompress, then
//    tar::extract_tree), then rebuild that tree with each stub file turned
//    into a fingerprint node. from_layer must accept exactly the layers
//    this accepts and build an equal tree.
#pragma once

#include <optional>

#include "docker/layer.hpp"
#include "gear/index.hpp"
#include "util/error.hpp"
#include "vfs/file_tree.hpp"
#include "vfs/tree_diff.hpp"

namespace gear::testing {

/// GearIndex::to_wire_tree as it was.
inline vfs::FileTree reference_to_wire_tree(const GearIndex& index) {
  vfs::FileTree wire;
  wire.root().metadata() = index.tree().root().metadata();
  index.tree().walk([&](const std::string& path, const vfs::FileNode& node) {
    switch (node.type()) {
      case vfs::NodeType::kDirectory:
        wire.add_directory(path, node.metadata());
        break;
      case vfs::NodeType::kSymlink:
        wire.add_symlink(path, node.link_target(), node.metadata());
        break;
      case vfs::NodeType::kFingerprint:
        wire.add_file(path,
                      to_bytes(GearIndex::encode_stub(node.fingerprint(),
                                                      node.stub_size())),
                      node.metadata());
        break;
      default:
        throw_error(ErrorCode::kInternal, "invalid node in gear index: " + path);
    }
  });
  return wire;
}

/// The old encode of an index layer: the reference composition, which
/// rejects an empty index as ImageBuilder's empty commit.
inline docker::Layer reference_index_layer(const GearIndex& index) {
  vfs::FileTree diff =
      vfs::diff_trees(vfs::FileTree(), reference_to_wire_tree(index));
  if (diff.root().children().empty()) {
    throw_error(ErrorCode::kInvalidArgument,
                "add_snapshot: snapshot is identical to current state");
  }
  return docker::Layer::from_tree(diff);
}

/// GearIndex::from_wire_tree as it was, returning the index tree.
inline vfs::FileTree reference_from_wire_tree(const vfs::FileTree& wire) {
  vfs::FileTree out;
  out.root().metadata() = wire.root().metadata();
  wire.walk([&](const std::string& path, const vfs::FileNode& node) {
    switch (node.type()) {
      case vfs::NodeType::kDirectory:
        out.add_directory(path, node.metadata());
        break;
      case vfs::NodeType::kSymlink:
        out.add_symlink(path, node.link_target(), node.metadata());
        break;
      case vfs::NodeType::kRegular: {
        Fingerprint fp;
        std::uint64_t size = 0;
        if (!GearIndex::decode_stub(node.content(), &fp, &size)) {
          throw_error(ErrorCode::kCorruptData,
                      "index wire tree has a non-stub regular file: " + path);
        }
        out.add_fingerprint_stub(path, fp, size, node.metadata());
        break;
      }
      default:
        throw_error(ErrorCode::kCorruptData,
                    "unexpected node in index wire tree: " + path);
    }
  });
  return out;
}

/// The old decode of an index layer: the reference composition.
inline vfs::FileTree reference_index_tree(const docker::Layer& layer) {
  return reference_from_wire_tree(layer.to_tree());
}

/// `layer` decoded by GearIndex::from_layer and by the reference.
struct IndexDecodes {
  bool reference_accepted = false;
  bool accepted = false;
  bool equal_trees = true;  // when both accepted
};

inline IndexDecodes decode_index_both_ways(const docker::Layer& layer) {
  IndexDecodes out;
  std::optional<vfs::FileTree> want;
  try {
    want = reference_index_tree(layer);
  } catch (const Error&) {
  }
  std::optional<GearIndex> got;
  try {
    got = GearIndex::from_layer(layer);
  } catch (const Error&) {
  }
  out.reference_accepted = want.has_value();
  out.accepted = got.has_value();
  if (got && want) out.equal_trees = got->tree().equals(*want);
  return out;
}

}  // namespace gear::testing
