#include "gear/committer.hpp"

#include "gear/index.hpp"
#include "vfs/tree_diff.hpp"

namespace gear {
namespace {

/// Rebuilds `tree` with every regular file replaced by its stub, collecting
/// (fingerprint, content) pairs for newly extracted files. Whiteouts and
/// opaque markers are preserved (diff trees carry them).
vfs::FileTree stubify(const vfs::FileTree& tree,
                      const FingerprintHasher& hasher,
                      std::vector<std::pair<Fingerprint, Bytes>>* extracted,
                      std::size_t* file_count) {
  vfs::FileTree out;
  out.root().metadata() = tree.root().metadata();
  tree.walk([&](const std::string& path, const vfs::FileNode& node) {
    switch (node.type()) {
      case vfs::NodeType::kDirectory: {
        vfs::FileNode& dir = out.add_directory(path, node.metadata());
        dir.set_opaque(node.opaque());
        break;
      }
      case vfs::NodeType::kSymlink:
        out.add_symlink(path, node.link_target(), node.metadata());
        break;
      case vfs::NodeType::kWhiteout:
        out.add_whiteout(path);
        break;
      case vfs::NodeType::kFingerprint:
        out.add_fingerprint_stub(path, node.fingerprint(), node.stub_size(),
                                 node.metadata());
        break;
      case vfs::NodeType::kRegular: {
        Fingerprint fp = hasher.fingerprint(node.content());
        if (extracted != nullptr) {
          extracted->emplace_back(fp, node.content());
        }
        if (file_count != nullptr) ++*file_count;
        out.add_fingerprint_stub(path, fp, node.content().size(),
                                 node.metadata());
        break;
      }
    }
  });
  return out;
}

}  // namespace

GearCommitter::GearCommitter(const FingerprintHasher& hasher)
    : hasher_(hasher) {}

CommitResult GearCommitter::commit(const vfs::FileTree& index_tree,
                                   const vfs::FileTree& diff,
                                   const docker::ImageConfig& config,
                                   std::string name, std::string tag) const {
  CommitResult result;

  // Normalize the (possibly partially materialized) index back to stubs;
  // those files are already in the registries, so they are not re-extracted.
  vfs::FileTree base = stubify(index_tree, hasher_, nullptr, nullptr);

  // Extract new files from the writable layer and stub them.
  std::vector<std::pair<Fingerprint, Bytes>> extracted;
  vfs::FileTree diff_stubs =
      stubify(diff, hasher_, &extracted, &result.files_extracted);

  // Merge: the new index is the union of the old index and the stubbed diff.
  vfs::FileTree merged = vfs::apply_layer(base, diff_stubs);
  GearIndex new_index{std::move(merged)};

  // Package as a single-layer Docker image (same as the converter).
  result.image.index_image =
      new_index.to_image(std::move(name), std::move(tag), config);
  result.image.index = std::move(new_index);

  // Deduplicate extracted contents by fingerprint.
  std::sort(extracted.begin(), extracted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  extracted.erase(std::unique(extracted.begin(), extracted.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  extracted.end());
  result.image.files = std::move(extracted);
  return result;
}

}  // namespace gear
