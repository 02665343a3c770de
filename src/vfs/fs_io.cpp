#include "vfs/fs_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/thread_pool.hpp"

namespace gear::vfs {
namespace fs = std::filesystem;

namespace {

/// A regular file the walk found, whose content is read after the walk.
struct PendingRead {
  FileNode* node;
  std::string path;  // relative to the root
  std::size_t size;  // the walk's st_size, the read's buffer size
};

struct Walk {
  const fs::path& root;
  const LoadOptions& options;
  std::uint64_t loaded_bytes = 0;
  std::vector<PendingRead> reads;
};

/// A node of `type` with the permission bits and mtime of one lstat. tar
/// stores unsigned seconds, so a pre-1970 stamp is clamped to 0.
std::unique_ptr<FileNode> node_of(NodeType type, const struct stat& st) {
  auto node = std::make_unique<FileNode>(type);
  node->metadata().mode = static_cast<std::uint32_t>(st.st_mode) & 07777;
  node->metadata().mtime =
      st.st_mtim.tv_sec > 0 ? static_cast<std::uint64_t>(st.st_mtim.tv_sec) : 0;
  return node;
}

std::string read_link(int dir_fd, const char* name, std::size_t size_hint,
                      const fs::path& path) {
  // One byte more than the hint, so a target that fits reads short.
  std::string target(size_hint + 1, '\0');
  for (;;) {
    ssize_t n = ::readlinkat(dir_fd, name, target.data(), target.size());
    if (n < 0) throw_errno("cannot read link", path);
    if (static_cast<std::size_t>(n) < target.size()) {
      target.resize(static_cast<std::size_t>(n));
      return target;
    }
    target.resize(target.size() * 2);
  }
}

/// Adds the entries of the directory open at `dir_fd` (which this call
/// takes over) under `dir`, one fstatat each, recursing into
/// subdirectories in the order readdir returns them.
void load_dir(Walk& walk, UniqueFd dir_fd, const std::string& prefix,
              FileNode& dir) {
  struct CloseDir {
    void operator()(DIR* d) const { ::closedir(d); }
  };
  std::unique_ptr<DIR, CloseDir> stream(::fdopendir(dir_fd.get()));
  if (!stream) throw_errno("cannot read directory", walk.root / prefix);
  const int fd = dir_fd.release();  // the stream closes it
  for (;;) {
    errno = 0;
    const dirent* entry = ::readdir(stream.get());
    if (entry == nullptr) {
      if (errno != 0) throw_errno("cannot read directory", walk.root / prefix);
      return;
    }
    const char* name = entry->d_name;
    if (std::strcmp(name, ".") == 0 || std::strcmp(name, "..") == 0) continue;
    std::string path = prefix.empty() ? name : prefix + "/" + name;
    struct stat st {};
    if (::fstatat(fd, name, &st, AT_SYMLINK_NOFOLLOW) != 0) {
      throw_errno("cannot stat", walk.root / path);
    }
    if (S_ISLNK(st.st_mode)) {
      auto link = node_of(NodeType::kSymlink, st);
      link->set_link_target(read_link(fd, name,
                                      static_cast<std::size_t>(st.st_size),
                                      walk.root / path));
      dir.add_child(name, std::move(link));
    } else if (S_ISDIR(st.st_mode)) {
      FileNode& sub = dir.add_child(name, node_of(NodeType::kDirectory, st));
      UniqueFd sub_fd(::openat(fd, name,
                               O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC));
      if (!sub_fd) throw_errno("cannot open directory", walk.root / path);
      load_dir(walk, std::move(sub_fd), path, sub);
    } else if (S_ISREG(st.st_mode)) {
      const auto size = static_cast<std::size_t>(st.st_size);
      walk.loaded_bytes += size;
      if (walk.options.max_total_bytes != 0 &&
          walk.loaded_bytes > walk.options.max_total_bytes) {
        throw_error(ErrorCode::kOutOfSpace,
                    "import exceeds byte budget at " + path);
      }
      FileNode& file = dir.add_child(name, node_of(NodeType::kRegular, st));
      walk.reads.push_back({&file, std::move(path), size});
    } else if (!walk.options.skip_special) {
      throw_error(ErrorCode::kUnsupported,
                  "unsupported file type at " + path);
    }
  }
}

}  // namespace

FileTree load_tree(const fs::path& root, const LoadOptions& options,
                   util::ThreadPool* pool) {
  UniqueFd root_fd(::open(root.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (!root_fd) {
    if (errno == ENOENT || errno == ENOTDIR || errno == ELOOP) {
      throw_error(ErrorCode::kInvalidArgument,
                  "not a directory: " + root.string());
    }
    throw_errno("cannot open directory", root);
  }
  UniqueFd walk_fd(::fcntl(root_fd.get(), F_DUPFD_CLOEXEC, 0));
  if (!walk_fd) throw_errno("cannot open directory", root);

  FileTree tree;
  Walk walk{root, options, 0, {}};
  load_dir(walk, std::move(walk_fd), "", tree.root());

  // Each file opens relative to the root, never through a final symlink,
  // and reads into a buffer of the walk's size.
  auto read_one = [&](std::size_t i) {
    const PendingRead& file = walk.reads[i];
    UniqueFd fd(::openat(root_fd.get(), file.path.c_str(),
                         O_RDONLY | O_NOFOLLOW | O_CLOEXEC));
    if (!fd) throw_errno("cannot open", root / file.path);
    file.node->set_content(read_all(fd.get(), file.size, root / file.path));
  };
  if (pool != nullptr) {
    pool->parallel_for_each(walk.reads.size(), read_one);
  } else {
    for (std::size_t i = 0; i < walk.reads.size(); ++i) read_one(i);
  }
  return tree;
}

void write_tree(const FileTree& tree, const fs::path& root) {
  fs::create_directories(root);
  tree.walk([&root](const std::string& path, const FileNode& node) {
    fs::path target = root;
    for (const std::string& seg : FileTree::split_path(path)) target /= seg;
    switch (node.type()) {
      case NodeType::kDirectory:
        fs::create_directories(target);
        break;
      case NodeType::kRegular: {
        fs::create_directories(target.parent_path());
        std::ofstream out(target, std::ios::binary | std::ios::trunc);
        if (!out) {
          throw_error(ErrorCode::kInternal, "cannot write " + target.string());
        }
        out.write(reinterpret_cast<const char*>(node.content().data()),
                  static_cast<std::streamsize>(node.content().size()));
        break;
      }
      case NodeType::kSymlink: {
        fs::create_directories(target.parent_path());
        std::error_code ec;
        fs::remove(target, ec);
        fs::create_symlink(node.link_target(), target);
        break;
      }
      case NodeType::kWhiteout:
      case NodeType::kFingerprint:
        throw_error(ErrorCode::kInvalidArgument,
                    "cannot export unmaterialized node at " + path);
    }
  });
}

}  // namespace gear::vfs
