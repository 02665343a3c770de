#include "gear/index.hpp"

#include <charconv>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "compress/codec.hpp"
#include "docker/registry.hpp"
#include "tar/tar.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace gear {
namespace {

constexpr std::string_view kStubPrefix = "GEARFP1:";

void check_index_tree(const vfs::FileTree& tree, ErrorCode code) {
  tree.walk([code](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() || node.is_whiteout()) {
      throw_error(code,
                  "gear index may not contain regular files or whiteouts: " +
                      path);
    }
  });
}

// Adds the index of each entry below `src` to `dst`, in FileTree::walk's
// order (pre-order, by name); `path` is src's path and is restored on return.
void index_entries(vfs::FileNode& src, vfs::FileNode& dst, std::string& path,
                   const GearIndex::FingerprintOf& fingerprint_of) {
  for (const auto& [name, child] : src.children()) {
    const std::size_t parent = path.size();
    if (parent != 0) path += '/';
    path += name;
    std::unique_ptr<vfs::FileNode> node;
    switch (child->type()) {
      case vfs::NodeType::kDirectory:
        node = std::make_unique<vfs::FileNode>(vfs::NodeType::kDirectory);
        index_entries(*child, *node, path, fingerprint_of);
        break;
      case vfs::NodeType::kSymlink:
        node = std::make_unique<vfs::FileNode>(vfs::NodeType::kSymlink);
        node->set_link_target(child->link_target());
        break;
      case vfs::NodeType::kRegular: {
        // Sized before the callback, which may take the content.
        const std::uint64_t size = child->content().size();
        node = std::make_unique<vfs::FileNode>(vfs::NodeType::kFingerprint);
        node->set_fingerprint(fingerprint_of(path, child->content()), size);
        break;
      }
      case vfs::NodeType::kWhiteout:
        throw_error(ErrorCode::kInvalidArgument,
                    "root filesystem contains a whiteout: " + path);
      case vfs::NodeType::kFingerprint:
        // Already a stub (re-indexing an index is the identity).
        node = std::make_unique<vfs::FileNode>(vfs::NodeType::kFingerprint);
        node->set_fingerprint(child->fingerprint(), child->stub_size());
        break;
    }
    node->metadata() = child->metadata();
    dst.add_child(name, std::move(node));
    path.resize(parent);
  }
}

// The index layer's tar blocks, trailer excluded: a header per node and
// one payload block per stub (a stub file is under 64 bytes).
std::size_t archive_blocks(const vfs::FileNode& dir) {
  std::size_t blocks = 0;
  for (const auto& [name, child] : dir.children()) {
    blocks += child->is_fingerprint() ? 2 : 1;
    if (child->is_directory()) blocks += archive_blocks(*child);
  }
  return blocks;
}

// Writes the entries below `dir` in FileTree::walk's order (pre-order, by
// name); `path` is dir's path and is restored on return.
void write_entries(tar::EntryWriter& writer, std::string& path,
                   const vfs::FileNode& dir) {
  for (const auto& [name, child] : dir.children()) {
    const std::size_t parent = path.size();
    if (parent != 0) path += '/';
    path += name;
    switch (child->type()) {
      case vfs::NodeType::kDirectory:
        writer.directory(path, child->metadata());
        write_entries(writer, path, *child);
        break;
      case vfs::NodeType::kSymlink:
        writer.symlink(path, child->metadata(), child->link_target());
        break;
      case vfs::NodeType::kFingerprint: {
        const std::string stub =
            GearIndex::encode_stub(child->fingerprint(), child->stub_size());
        writer.file(path, child->metadata(),
                    BytesView(reinterpret_cast<const std::uint8_t*>(stub.data()),
                              stub.size()));
        break;
      }
      default:
        throw_error(ErrorCode::kInternal, "invalid node in gear index: " + path);
    }
    path.resize(parent);
  }
}

struct PathHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view path) const noexcept {
    return std::hash<std::string_view>{}(path);
  }
};

}  // namespace

GearIndex::GearIndex(vfs::FileTree tree) : tree_(std::move(tree)) {
  check_index_tree(tree_, ErrorCode::kInvalidArgument);
}

GearIndex GearIndex::from_root_fs(vfs::FileTree root,
                                  const FingerprintOf& fingerprint_of) {
  GearIndex index;
  index.tree_.root().metadata() = root.root().metadata();
  std::string path;
  index_entries(root.root(), index.tree_.root(), path, fingerprint_of);
  return index;
}

std::vector<GearIndex::StubRef> GearIndex::stubs() const {
  std::vector<StubRef> out;
  tree_.walk([&out](const std::string& path, const vfs::FileNode& node) {
    if (node.is_fingerprint()) {
      out.push_back({path, node.fingerprint(), node.stub_size()});
    }
  });
  return out;
}

std::vector<Fingerprint> GearIndex::distinct_fingerprints() const {
  std::vector<Fingerprint> fps;
  for (const StubRef& s : stubs()) fps.push_back(s.fingerprint);
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  return fps;
}

std::uint64_t GearIndex::referenced_bytes() const {
  std::uint64_t total = 0;
  for (const StubRef& s : stubs()) total += s.size;
  return total;
}

std::string GearIndex::encode_stub(const Fingerprint& fp, std::uint64_t size) {
  return std::string(kStubPrefix) + fp.hex() + ":" + std::to_string(size) +
         "\n";
}

bool GearIndex::decode_stub(BytesView content, Fingerprint* fp,
                            std::uint64_t* size) {
  std::string_view text(reinterpret_cast<const char*>(content.data()),
                        content.size());
  if (text.rfind(kStubPrefix, 0) != 0) return false;
  text.remove_prefix(kStubPrefix.size());
  if (text.size() < 34 || text[32] != ':') return false;
  std::string_view hex = text.substr(0, 32);
  std::string_view size_str = text.substr(33);
  if (!size_str.empty() && size_str.back() == '\n') {
    size_str.remove_suffix(1);
  }
  std::uint64_t parsed_size = 0;
  auto [p, ec] = std::from_chars(size_str.data(),
                                 size_str.data() + size_str.size(),
                                 parsed_size);
  if (ec != std::errc() || p != size_str.data() + size_str.size()) {
    return false;
  }
  try {
    *fp = Fingerprint::from_hex(hex);
  } catch (const Error&) {
    return false;
  }
  *size = parsed_size;
  return true;
}

docker::Layer GearIndex::to_layer() const {
  Bytes archive;
  archive.reserve(tar::kBlockSize * (archive_blocks(tree_.root()) + 2));
  tar::EntryWriter writer(archive);
  std::string path;
  write_entries(writer, path, tree_.root());
  writer.finish();
  return docker::Layer::from_archive(archive);
}

docker::Image GearIndex::to_image(std::string name, std::string tag,
                                  docker::ImageConfig config) const {
  // Assigned as a std::string: GCC 12 misreads a literal's assign here as
  // an overlapping copy (-Wrestrict).
  config.labels[kGearIndexLabel] = std::string("1");
  docker::Image image;
  image.manifest.name = std::move(name);
  image.manifest.tag = std::move(tag);
  image.manifest.config = std::move(config);
  image.layers.push_back(to_layer());
  const docker::Layer& layer = image.layers.back();
  image.manifest.layers.push_back({layer.digest(), layer.compressed_size()});
  return image;
}

GearIndex GearIndex::from_layer(const docker::Layer& layer) {
  const Bytes archive = decompress(layer.blob());
  vfs::FileTree out;
  // The directories this decoder added, keyed by their path as the archive
  // spells it ("" is the root). A stub whose parent path is here and whose
  // name is a plain segment is added to that directory directly; every
  // other entry goes through the generic FileTree::add_*. Replacing a node
  // frees a directory with its subtree, so a replacement that may have
  // freed one clears the map (DESIGN §6o).
  std::unordered_map<std::string, vfs::FileNode*, PathHash, std::equal_to<>>
      dirs;
  auto reset_dirs = [&] {
    dirs.clear();
    dirs.emplace("", &out.root());
  };
  reset_dirs();
  // A generic add of a non-directory replaces whatever is at `path`.
  auto before_generic_add = [&](std::string_view path) {
    if (dirs.size() == 1) return;  // the root cannot be replaced
    const vfs::FileNode* existing = out.lookup(path);
    if (existing != nullptr && existing->is_directory()) reset_dirs();
  };
  // The mapped parent of `path`, or nullptr; sets `name` to its last
  // segment. A mapped key names the directory that FileTree's path rules
  // resolve it to, so `name` in it is where the generic add would put it
  // whenever `name` is a segment those rules keep as it is.
  auto mapped_parent = [&](std::string_view path,
                           std::string_view* name) -> vfs::FileNode* {
    const std::size_t slash = path.rfind('/');
    *name = slash == std::string_view::npos ? path : path.substr(slash + 1);
    if (name->empty() || *name == "." || *name == "..") return nullptr;
    auto it = dirs.find(slash == std::string_view::npos
                            ? std::string_view()
                            : path.substr(0, slash));
    return it == dirs.end() ? nullptr : it->second;
  };

  // A regular file that is not a stub, or a whiteout, fails the index
  // unless a later entry replaces it, as extracting the whole tree first
  // would.
  bool has_non_stub = false;
  tar::EntryWalker walker(archive);
  tar::Entry entry;
  while (walker.next(entry)) {
    std::string_view name;
    switch (entry.type) {
      case tar::EntryType::kFile: {
        Fingerprint fp;
        std::uint64_t size = 0;
        if (!decode_stub(entry.content, &fp, &size)) {
          before_generic_add(entry.path);
          out.add_file(entry.path,
                       Bytes(entry.content.begin(), entry.content.end()),
                       entry.metadata);
          has_non_stub = true;
        } else if (vfs::FileNode* parent = mapped_parent(entry.path, &name)) {
          auto node = std::make_unique<vfs::FileNode>(
              vfs::NodeType::kFingerprint);
          node->metadata() = entry.metadata;
          node->set_fingerprint(fp, size);
          const std::size_t children = parent->children().size();
          parent->add_child(std::string(name), std::move(node));
          if (parent->children().size() == children) reset_dirs();  // replaced
        } else {
          before_generic_add(entry.path);
          out.add_fingerprint_stub(entry.path, fp, size, entry.metadata);
        }
        break;
      }
      case tar::EntryType::kSymlink:
        before_generic_add(entry.path);
        out.add_symlink(entry.path, std::string(entry.link_target),
                        entry.metadata);
        break;
      case tar::EntryType::kDirectory:
        dirs.insert_or_assign(std::string(entry.path),
                              &out.add_directory(entry.path, entry.metadata));
        break;
      case tar::EntryType::kWhiteout:
        before_generic_add(entry.path);
        out.add_whiteout(entry.path);
        has_non_stub = true;
        break;
      case tar::EntryType::kOpaque: {
        // Checked as extraction checks it; the index keeps no opaque flag.
        const vfs::FileNode* dir = out.lookup(entry.path);
        if (dir == nullptr || !dir->is_directory()) {
          throw_error(ErrorCode::kCorruptData,
                      "index layer: opaque marker without directory");
        }
        break;
      }
    }
  }
  if (has_non_stub) check_index_tree(out, ErrorCode::kCorruptData);
  GearIndex index;
  index.tree_ = std::move(out);
  return index;
}

docker::Manifest gear_index_manifest(const docker::DockerRegistry& registry,
                                     const std::string& reference) {
  docker::Manifest manifest =
      unwrap(registry.get_manifest(reference), "manifest of " + reference);
  if (manifest.config.labels.count(kGearIndexLabel) == 0 ||
      manifest.layers.size() != 1) {
    throw_error(ErrorCode::kInvalidArgument,
                reference + " is not a Gear index image");
  }
  return manifest;
}

docker::Layer gear_index_layer(const docker::DockerRegistry& registry,
                               const docker::Manifest& manifest,
                               const std::string& reference) {
  const docker::Digest& digest = manifest.layers[0].digest;
  return docker::Layer::from_blob(
      unwrap(registry.get_blob(digest),
             "index layer " + digest.to_string() + " of " + reference),
      digest);
}

}  // namespace gear
