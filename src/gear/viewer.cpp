#include "gear/viewer.hpp"

#include "util/error.hpp"

namespace gear {

GearFileViewer::GearFileViewer(vfs::FileTree& index, vfs::FileTree& diff,
                               Materializer materializer,
                               std::mutex* tree_lock)
    : index_(index),
      mount_({&index}, diff),
      materializer_(std::move(materializer)),
      tree_lock_(tree_lock) {
  if (!materializer_) {
    throw_error(ErrorCode::kInvalidArgument, "viewer: null materializer");
  }
}

namespace {
/// Optionally-engaged lock: engaged when the viewer has a tree lock,
/// default-constructed (no-op) otherwise.
std::unique_lock<std::mutex> maybe_lock(std::mutex* m) {
  return m != nullptr ? std::unique_lock<std::mutex>(*m)
                      : std::unique_lock<std::mutex>();
}
}  // namespace

StatusOr<Bytes> GearFileViewer::read_file(std::string_view path) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  Fingerprint fp;
  std::uint64_t size = 0;
  {
    // Resolution (and, for materialized files, the content copy) happens
    // under the tree lock; a concurrent fault may replace sibling stubs —
    // or this very node — while we look.
    std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
    docker::OverlayEntry entry = mount_.lookup(path);
    const vfs::FileNode* node = entry.node;
    if (node == nullptr) {
      return {ErrorCode::kNotFound, "no such file: " + std::string(path)};
    }
    if (node->is_regular()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return node->content();
    }
    if (!node->is_fingerprint()) {
      return {ErrorCode::kInvalidArgument,
              "not a regular file: " + std::string(path)};
    }
    if (entry.in_upper) {
      return {ErrorCode::kCorruptData,
              "stub in writable layer: " + std::string(path)};
    }
    fp = node->fingerprint();
    size = node->stub_size();
  }

  // ovl_lookup_single() hit a fingerprint file: pause, make the target file
  // readable (cache hard-link or registry download), then resume. The tree
  // lock is NOT held here — concurrent faults of different files download
  // in parallel; same-fingerprint races coalesce in the materializer's
  // singleflight layer.
  faults_.fetch_add(1, std::memory_order_relaxed);
  if (fault_hook_) fault_hook_(std::string(path), fp, size);
  Bytes content = materializer_(std::string(path), fp, size);
  if (content.size() != size) {
    throw_error(ErrorCode::kCorruptData,
                "materialized size mismatch for " + std::string(path));
  }

  // Replace the stub in the index with the materialized file (the model of
  // hard-linking the Gear file into the index directory). Later lookups —
  // from any container of this image — see a plain regular file. Another
  // reader may have replaced it while we fetched; its content is ours
  // (same fingerprint), so losing that race just skips the swap.
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  vfs::FileNode* index_node = index_.lookup(path);
  if (index_node == nullptr) {
    throw_error(ErrorCode::kInternal,
                "index stub vanished during materialization: " +
                    std::string(path));
  }
  if (index_node->is_fingerprint()) {
    auto segments = vfs::FileTree::split_path(path);
    vfs::FileNode* parent = &index_.root();
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      parent = parent->child(segments[i]);
    }
    auto regular = std::make_unique<vfs::FileNode>(vfs::NodeType::kRegular);
    regular->metadata() = index_node->metadata();
    regular->set_content(content);
    parent->add_child(segments.back(), std::move(regular));
    materialized_.fetch_add(1, std::memory_order_relaxed);
  }
  return content;
}

StatusOr<std::string> GearFileViewer::read_symlink(
    std::string_view path) const {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  return mount_.read_symlink(path);
}

bool GearFileViewer::exists(std::string_view path) const {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  return mount_.exists(path);
}

StatusOr<std::uint64_t> GearFileViewer::stat_size(
    std::string_view path) const {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  const vfs::FileNode* node = mount_.lookup(path).node;
  if (node == nullptr) {
    return {ErrorCode::kNotFound, "no such file: " + std::string(path)};
  }
  if (node->is_regular()) return node->content().size();
  if (node->is_fingerprint()) return node->stub_size();
  return {ErrorCode::kInvalidArgument,
          "not a regular file: " + std::string(path)};
}

std::vector<std::string> GearFileViewer::list_dir(
    std::string_view path) const {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  return mount_.list_dir(path);
}

void GearFileViewer::write_file(std::string_view path, Bytes content,
                                const vfs::Metadata& meta) {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  mount_.write_file(path, std::move(content), meta);
}

void GearFileViewer::make_dir(std::string_view path,
                              const vfs::Metadata& meta) {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  mount_.make_dir(path, meta);
}

bool GearFileViewer::remove(std::string_view path) {
  std::unique_lock<std::mutex> lock = maybe_lock(tree_lock_);
  return mount_.remove(path);
}

}  // namespace gear
