#include "vfs/tree_serialize.hpp"

#include <cstring>

#include "compress/codec.hpp"
#include "util/error.hpp"

namespace gear::vfs {
namespace {

constexpr char kMagic[4] = {'G', 'T', 'R', '1'};
constexpr std::uint8_t kMaxNodeType =
    static_cast<std::uint8_t>(NodeType::kFingerprint);

void put_string(Bytes& out, std::string_view s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_string(BytesView data, std::size_t& pos) {
  std::uint64_t len = get_varint(data, pos);
  if (pos + len > data.size()) {
    throw_error(ErrorCode::kCorruptData, "tree: truncated string");
  }
  std::string s(reinterpret_cast<const char*>(data.data() + pos), len);
  pos += len;
  return s;
}

void encode_node(Bytes& out, const FileNode& node) {
  out.push_back(static_cast<std::uint8_t>(node.type()));
  out.push_back(node.opaque() ? 1 : 0);
  put_varint(out, node.metadata().mode);
  put_varint(out, node.metadata().uid);
  put_varint(out, node.metadata().gid);
  put_varint(out, node.metadata().mtime);
  switch (node.type()) {
    case NodeType::kRegular:
      put_varint(out, node.content().size());
      append(out, node.content());
      break;
    case NodeType::kSymlink:
      put_string(out, node.link_target());
      break;
    case NodeType::kFingerprint:
      out.insert(out.end(), node.fingerprint().raw().begin(),
                 node.fingerprint().raw().end());
      put_varint(out, node.stub_size());
      break;
    case NodeType::kDirectory:
    case NodeType::kWhiteout:
      break;
  }
  if (node.is_directory()) {
    put_varint(out, node.children().size());
    for (const auto& [name, child] : node.children()) {
      put_string(out, name);
      encode_node(out, *child);
    }
  }
}

std::unique_ptr<FileNode> decode_node(BytesView data, std::size_t& pos,
                                      int depth) {
  // Depth guard: a crafted input must not blow the stack.
  if (depth > 512) {
    throw_error(ErrorCode::kCorruptData, "tree: nesting too deep");
  }
  if (pos + 2 > data.size()) {
    throw_error(ErrorCode::kCorruptData, "tree: truncated node header");
  }
  std::uint8_t type_byte = data[pos++];
  if (type_byte > kMaxNodeType) {
    throw_error(ErrorCode::kCorruptData, "tree: unknown node type");
  }
  auto node = std::make_unique<FileNode>(static_cast<NodeType>(type_byte));
  node->set_opaque(data[pos++] != 0);
  node->metadata().mode = static_cast<std::uint32_t>(get_varint(data, pos));
  node->metadata().uid = static_cast<std::uint32_t>(get_varint(data, pos));
  node->metadata().gid = static_cast<std::uint32_t>(get_varint(data, pos));
  node->metadata().mtime = get_varint(data, pos);

  switch (node->type()) {
    case NodeType::kRegular: {
      std::uint64_t len = get_varint(data, pos);
      if (pos + len > data.size()) {
        throw_error(ErrorCode::kCorruptData, "tree: truncated file content");
      }
      node->set_content(Bytes(data.begin() + pos, data.begin() + pos + len));
      pos += len;
      break;
    }
    case NodeType::kSymlink:
      node->set_link_target(get_string(data, pos));
      break;
    case NodeType::kFingerprint: {
      if (pos + Fingerprint::kSize > data.size()) {
        throw_error(ErrorCode::kCorruptData, "tree: truncated fingerprint");
      }
      std::array<std::uint8_t, Fingerprint::kSize> raw{};
      std::memcpy(raw.data(), data.data() + pos, raw.size());
      pos += raw.size();
      std::uint64_t size = get_varint(data, pos);
      node->set_fingerprint(Fingerprint(raw), size);
      break;
    }
    case NodeType::kDirectory:
    case NodeType::kWhiteout:
      break;
  }

  if (node->is_directory()) {
    std::uint64_t count = get_varint(data, pos);
    std::string prev_name;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::string name = get_string(data, pos);
      if (name.empty() || name.find('/') != std::string::npos) {
        throw_error(ErrorCode::kCorruptData, "tree: invalid child name");
      }
      if (i > 0 && !(prev_name < name)) {
        throw_error(ErrorCode::kCorruptData, "tree: children out of order");
      }
      prev_name = name;
      node->add_child(std::move(name), decode_node(data, pos, depth + 1));
    }
  }
  return node;
}

}  // namespace

Bytes serialize_tree(const FileTree& tree) {
  Bytes out(std::begin(kMagic), std::end(kMagic));
  encode_node(out, tree.root());
  return out;
}

FileTree deserialize_tree(BytesView data) {
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    throw_error(ErrorCode::kCorruptData, "tree: bad magic");
  }
  std::size_t pos = 4;
  auto root = decode_node(data, pos, 0);
  if (!root->is_directory()) {
    throw_error(ErrorCode::kCorruptData, "tree: root is not a directory");
  }
  if (pos != data.size()) {
    throw_error(ErrorCode::kCorruptData, "tree: trailing bytes");
  }
  FileTree tree;
  tree.root().metadata() = root->metadata();
  // Move the children into the tree's root.
  for (auto& [name, child] : const_cast<FileNode::ChildMap&>(root->children())) {
    tree.root().add_child(name, std::move(child));
  }
  return tree;
}

}  // namespace gear::vfs
