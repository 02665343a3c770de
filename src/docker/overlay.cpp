#include "docker/overlay.hpp"

#include <algorithm>
#include <set>

#include "vfs/tree_diff.hpp"

namespace gear::docker {

namespace {

std::vector<const vfs::FileTree*> non_null(
    std::vector<const vfs::FileTree*> lowers) {
  for (const auto* tree : lowers) {
    if (tree == nullptr) {
      throw_error(ErrorCode::kInvalidArgument, "overlay: null lower tree");
    }
  }
  return lowers;
}

}  // namespace

OverlayMount::OverlayMount(std::vector<const vfs::FileTree*> lowers)
    : lowers_(non_null(std::move(lowers))),
      owned_upper_(std::make_unique<vfs::FileTree>()),
      upper_(owned_upper_.get()) {}

OverlayMount::OverlayMount(std::vector<const vfs::FileTree*> lowers,
                           vfs::FileTree& upper)
    : lowers_(non_null(std::move(lowers))), upper_(&upper) {}

const vfs::FileNode* OverlayMount::resolve_child(const DirStack& stack,
                                                 const std::string& name,
                                                 DirStack* next_stack) const {
  for (std::size_t i = 0; i < stack.size(); ++i) {
    const vfs::FileNode* child = stack[i]->child(name);
    if (child == nullptr) continue;
    if (child->is_whiteout()) return nullptr;  // deleted: masks lower layers
    if (!child->is_directory()) return child;  // non-dir masks lower layers

    // Directory: merge with same-named directories in lower layers until an
    // opaque marker, a whiteout, or a non-directory stops the merge.
    if (next_stack != nullptr) next_stack->push_back(child);
    if (!child->opaque()) {
      for (std::size_t j = i + 1; j < stack.size(); ++j) {
        const vfs::FileNode* lower = stack[j]->child(name);
        if (lower == nullptr) continue;
        if (!lower->is_directory()) break;  // masks everything below
        if (next_stack != nullptr) next_stack->push_back(lower);
        if (lower->opaque()) break;
      }
    }
    return child;
  }
  return nullptr;
}

OverlayMount::DirStack OverlayMount::dir_stack_at(
    const std::vector<std::string>& segments) const {
  DirStack stack;
  stack.push_back(&upper_->root());
  for (auto it = lowers_.rbegin(); it != lowers_.rend(); ++it) {
    stack.push_back(&(*it)->root());
  }
  for (const std::string& seg : segments) {
    DirStack next;
    const vfs::FileNode* node = resolve_child(stack, seg, &next);
    if (node == nullptr || !node->is_directory()) return {};
    stack = std::move(next);
  }
  return stack;
}

OverlayEntry OverlayMount::lookup(std::string_view path) const {
  auto segments = vfs::FileTree::split_path(path);
  std::vector<std::string> parent(segments.begin(), segments.end() - 1);
  DirStack stack = dir_stack_at(parent);
  if (stack.empty()) return {};
  const vfs::FileNode* node = resolve_child(stack, segments.back(), nullptr);
  if (node == nullptr) return {};
  // The node is in the upper layer iff the resolved pointer lives inside
  // upper_'s node graph; the cheap equivalent: re-resolve against upper only.
  const vfs::FileNode* upper_node = upper_->lookup(path);
  return {node, upper_node == node};
}

StatusOr<Bytes> OverlayMount::read_file(std::string_view path) const {
  OverlayEntry e = lookup(path);
  if (e.node == nullptr) {
    return {ErrorCode::kNotFound, "no such file: " + std::string(path)};
  }
  if (!e.node->is_regular()) {
    return {ErrorCode::kInvalidArgument,
            "not a regular file: " + std::string(path)};
  }
  return e.node->content();
}

StatusOr<std::string> OverlayMount::read_symlink(std::string_view path) const {
  OverlayEntry e = lookup(path);
  if (e.node == nullptr) {
    return {ErrorCode::kNotFound, "no such link: " + std::string(path)};
  }
  if (!e.node->is_symlink()) {
    return {ErrorCode::kInvalidArgument, "not a symlink: " + std::string(path)};
  }
  return e.node->link_target();
}

std::vector<std::string> OverlayMount::list_dir(std::string_view path) const {
  DirStack stack;
  if (path.empty() || path == "/" || path == ".") {
    stack = dir_stack_at({});
  } else {
    stack = dir_stack_at(vfs::FileTree::split_path(path));
  }
  if (stack.empty()) {
    throw_error(ErrorCode::kNotFound,
                "not a directory in union: " + std::string(path));
  }
  std::set<std::string> visible;
  std::set<std::string> hidden;
  for (const vfs::FileNode* dir : stack) {
    for (const auto& [name, child] : dir->children()) {
      if (hidden.count(name) != 0 || visible.count(name) != 0) continue;
      if (child->is_whiteout()) {
        hidden.insert(name);
      } else {
        visible.insert(name);
      }
    }
  }
  return {visible.begin(), visible.end()};
}

vfs::FileNode& OverlayMount::upper_parent(
    const std::vector<std::string>& segments) {
  vfs::FileNode* node = &upper_->root();
  DirStack stack = dir_stack_at({});
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // `node` heads `stack` until the walk creates a directory, which has no
    // children, so this also rejects a non-directory in the upper layer.
    DirStack next;
    const vfs::FileNode* merged = resolve_child(stack, segments[i], &next);
    if (merged != nullptr && !merged->is_directory()) {
      throw_error(ErrorCode::kInvalidArgument,
                  "overlay: path component is not a directory: " + segments[i]);
    }
    stack = std::move(next);

    vfs::FileNode* child = node->child(segments[i]);
    if (child == nullptr) {
      auto dir = std::make_unique<vfs::FileNode>(vfs::NodeType::kDirectory);
      if (merged != nullptr) dir->metadata() = merged->metadata();
      child = &node->add_child(segments[i], std::move(dir));
    } else if (child->is_whiteout()) {
      // A directory re-created under a delete hides the lower contents.
      auto dir = std::make_unique<vfs::FileNode>(vfs::NodeType::kDirectory);
      dir->set_opaque(true);
      child = &node->add_child(segments[i], std::move(dir));
    }
    node = child;
  }
  return *node;
}

void OverlayMount::write_file(std::string_view path, Bytes content,
                              const vfs::Metadata& meta) {
  // A directory in any layer stays one: overlayfs answers EISDIR.
  if (const vfs::FileNode* node = lookup(path).node;
      node != nullptr && node->is_directory()) {
    throw_error(ErrorCode::kInvalidArgument,
                "overlay: is a directory: " + std::string(path));
  }
  auto segments = vfs::FileTree::split_path(path);
  vfs::FileNode& parent = upper_parent(segments);
  auto file = std::make_unique<vfs::FileNode>(vfs::NodeType::kRegular);
  file->metadata() = meta;
  file->set_content(std::move(content));
  parent.add_child(segments.back(), std::move(file));
}

void OverlayMount::make_dir(std::string_view path, const vfs::Metadata& meta) {
  // A file in any layer stays one: overlayfs answers EEXIST.
  if (const vfs::FileNode* node = lookup(path).node;
      node != nullptr && !node->is_directory()) {
    throw_error(ErrorCode::kAlreadyExists,
                "overlay: non-directory exists at " + std::string(path));
  }
  auto segments = vfs::FileTree::split_path(path);
  vfs::FileNode& parent = upper_parent(segments);
  vfs::FileNode* existing = parent.child(segments.back());
  if (existing != nullptr && existing->is_directory()) {
    existing->metadata() = meta;
    return;
  }
  auto dir = std::make_unique<vfs::FileNode>(vfs::NodeType::kDirectory);
  dir->set_opaque(existing != nullptr);  // re-created after a delete
  dir->metadata() = meta;
  parent.add_child(segments.back(), std::move(dir));
}

bool OverlayMount::remove(std::string_view path) {
  if (!exists(path)) return false;
  upper_->remove(path);
  // If the path still resolves through the union, mask it with a whiteout.
  if (exists(path)) {
    auto segments = vfs::FileTree::split_path(path);
    upper_parent(segments).add_child(
        segments.back(),
        std::make_unique<vfs::FileNode>(vfs::NodeType::kWhiteout));
  }
  return true;
}

vfs::FileTree OverlayMount::merged() const {
  vfs::FileTree m;
  for (const auto* lower : lowers_) {
    m = vfs::apply_layer(m, *lower);
  }
  return vfs::apply_layer(m, *upper_);
}

}  // namespace gear::docker
