// The Gear index decoder that GearIndex::from_layer replaced, kept verbatim
// as the oracle for it: extract the whole layer into a wire tree
// (decompress, then tar::extract_tree), then rebuild that tree with each
// stub file turned into a fingerprint node. from_layer must accept exactly
// the layers this accepts and build an equal tree.
#pragma once

#include <optional>

#include "docker/layer.hpp"
#include "gear/index.hpp"
#include "util/error.hpp"
#include "vfs/file_tree.hpp"

namespace gear::testing {

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
