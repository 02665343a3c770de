#include "gear/fs_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "vfs/tree_serialize.hpp"

namespace gear {
namespace fs = std::filesystem;

namespace {

/// `path` checked by the tree's path rules (index paths come from the
/// registry: no "..", not empty), in the relative form the *at() calls
/// take: "a//./b" -> "a/b".
std::string relative_path(const std::string& path) {
  std::string rel;
  for (const std::string& segment : vfs::FileTree::split_path(path)) {
    if (!rel.empty()) rel.push_back('/');
    rel += segment;
  }
  return rel;
}

enum class LinkOutcome { kLinked, kAlreadyLinked, kNotCached };

/// Hard-links cache entry `name` (in the directory `cache_fd`) to `dst`,
/// which is relative to `dir_fd`, the directory at `dir` (or absolute, with
/// AT_FDCWD and an empty `dir`). One linkat, decided by its errno: EEXIST
/// is a path already materialized; ENOENT is either an absent entry (one
/// faccessat tells), which creates nothing, or a missing parent of `dst`,
/// created before the one retry.
LinkOutcome link_entry(int cache_fd, const std::string& name, int dir_fd,
                       const fs::path& dir, const std::string& dst) {
  for (bool made_parents = false;; made_parents = true) {
    if (::linkat(cache_fd, name.c_str(), dir_fd, dst.c_str(), 0) == 0) {
      return LinkOutcome::kLinked;
    }
    if (errno == EEXIST) return LinkOutcome::kAlreadyLinked;
    if (errno != ENOENT || made_parents) throw_errno("cannot link", dir / dst);
    if (::faccessat(cache_fd, name.c_str(), F_OK, 0) != 0) {
      if (errno == ENOENT) return LinkOutcome::kNotCached;
      throw_errno("cannot probe cache entry", name);
    }
    fs::create_directories((dir / dst).parent_path());
  }
}

}  // namespace

std::string sanitize_reference(const std::string& reference) {
  if (reference.empty()) {
    throw_error(ErrorCode::kInvalidArgument, "empty image reference");
  }
  std::string out;
  out.reserve(reference.size());
  for (char c : reference) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '.' || c == '-') {
      out.push_back(c);
    } else if (c == ':' || c == '/' || c == '@') {
      out.push_back('_');
    } else {
      throw_error(ErrorCode::kInvalidArgument,
                  "unsupported character in reference: " + reference);
    }
  }
  if (out[0] == '.') {
    throw_error(ErrorCode::kInvalidArgument,
                "reference must not start with '.'");
  }
  return out;
}

FsStore::FsStore(fs::path root) : root_(std::move(root)) {
  fs::create_directories(root_ / "cache");
  fs::create_directories(root_ / "images");
  fs::create_directories(root_ / "containers");
  cache_fd_ = open_directory(root_ / "cache");
  // Recover containers created by earlier processes: each container dir
  // carries a "ref" file naming its image.
  for (const auto& entry : fs::directory_iterator(root_ / "containers")) {
    if (!entry.is_directory()) continue;
    fs::path ref_file = entry.path() / "ref";
    if (!fs::exists(ref_file)) continue;
    container_refs_[entry.path().filename().string()] =
        to_string(read_file_bytes(ref_file));
  }
}

fs::path FsStore::cache_path(const std::string& name) const {
  return root_ / "cache" / name;
}

fs::path FsStore::image_dir(const std::string& reference) const {
  return root_ / "images" / sanitize_reference(reference);
}

fs::path FsStore::container_dir(const std::string& id) const {
  return root_ / "containers" / id;
}

bool FsStore::cache_contains(const Fingerprint& fp) const {
  return ::faccessat(cache_fd_.get(), fp.hex().c_str(), F_OK, 0) == 0;
}

void FsStore::cache_put(const Fingerprint& fp, BytesView content) {
  const std::string name = fp.hex();
  // O_EXCL decides dedup and creation in one call; mode 0666 (less the
  // umask) is what std::ofstream creates files with.
  UniqueFd file(::openat(cache_fd_.get(), name.c_str(),
                         O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666));
  if (!file) {
    if (errno != EEXIST) throw_errno("cannot create", cache_path(name));
    // Deduplicated insert: under LRU this still counts as a touch.
    if (cache_policy_ == EvictionPolicy::kLru) {
      cache_ticks_[name] = ++cache_tick_;
    }
    return;
  }
  try {
    if (cache_capacity_ != 0 && !make_cache_room(content.size(), name)) {
      // Every evictable file is gone and linked bytes still overflow the
      // envelope. The file lands anyway — the caller is about to hard-link
      // it into an index — but the overshoot is recorded.
      ++cache_stats_.rejected;
    }
    write_all(file.get(), content, cache_path(name));
    if (::close(file.release()) != 0) {
      throw_errno("close failed for", cache_path(name));
    }
  } catch (...) {
    // A partial entry would pass for the file: remove it.
    ::unlinkat(cache_fd_.get(), name.c_str(), 0);
    throw;
  }
  if (cache_used_) *cache_used_ += content.size();
  ++cache_stats_.insertions;
  cache_ticks_[name] = ++cache_tick_;
}

StatusOr<Bytes> FsStore::cache_get(const Fingerprint& fp) const {
  const std::string name = fp.hex();
  if (::faccessat(cache_fd_.get(), name.c_str(), F_OK, 0) != 0) {
    ++cache_stats_.misses;
    return {ErrorCode::kNotFound, "not cached: " + name};
  }
  ++cache_stats_.hits;
  if (cache_policy_ == EvictionPolicy::kLru) {
    cache_ticks_[name] = ++cache_tick_;
  }
  return read_file_bytes(cache_path(name));
}

void FsStore::set_cache_capacity(std::uint64_t capacity_bytes,
                                 EvictionPolicy policy) {
  cache_capacity_ = capacity_bytes;
  cache_policy_ = policy;
  // Shrinking below current use evicts immediately (disk-pressure response).
  if (cache_capacity_ != 0) make_cache_room(0);
}

bool FsStore::make_cache_room(std::uint64_t needed, const std::string& keep) {
  if (cache_bytes() + needed <= cache_capacity_) return true;
  std::uint64_t& used = *cache_used_;
  // Victim scan: unlinked entries (st_nlink == 1) in policy-tick order;
  // untracked files from earlier processes rank oldest, name-ordered for
  // determinism.
  struct Victim {
    std::uint64_t tick;
    std::string name;
    std::uint64_t size;
  };
  std::vector<Victim> victims;
  for (const auto& entry : fs::directory_iterator(root_ / "cache")) {
    if (!entry.is_regular_file()) continue;
    if (fs::hard_link_count(entry.path()) != 1) continue;
    std::string name = entry.path().filename().string();
    if (name == keep) continue;
    auto it = cache_ticks_.find(name);
    victims.push_back({it == cache_ticks_.end() ? 0 : it->second, name,
                       entry.file_size()});
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              return a.tick != b.tick ? a.tick < b.tick : a.name < b.name;
            });
  for (const Victim& v : victims) {
    if (used + needed <= cache_capacity_) break;
    fs::remove(root_ / "cache" / v.name);
    cache_ticks_.erase(v.name);
    used -= v.size;
    ++cache_stats_.evictions;
  }
  return used + needed <= cache_capacity_;
}

std::size_t FsStore::cache_entries() const {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(root_ / "cache")) {
    (void)entry;
    ++n;
  }
  return n;
}

std::uint64_t FsStore::cache_bytes() const {
  if (!cache_used_) {
    std::uint64_t total = 0;
    for (const auto& entry : fs::directory_iterator(root_ / "cache")) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    cache_used_ = total;
  }
  return *cache_used_;
}

std::uint64_t FsStore::link_count(const Fingerprint& fp) const {
  struct stat st {};
  if (::fstatat(cache_fd_.get(), fp.hex().c_str(), &st, 0) != 0) return 0;
  return st.st_nlink;
}

std::size_t FsStore::evict_unlinked() {
  std::size_t removed = 0;
  for (const auto& entry : fs::directory_iterator(root_ / "cache")) {
    if (entry.is_regular_file() && fs::hard_link_count(entry.path()) == 1) {
      const std::uint64_t size = entry.file_size();
      fs::remove(entry.path());
      if (cache_used_) *cache_used_ -= size;
      ++removed;
    }
  }
  return removed;
}

void FsStore::install_index(const std::string& reference,
                            const GearIndex& index) {
  fs::path dir = image_dir(reference);
  fs::create_directories(dir / "files");
  write_file_bytes(dir / "index.gtree", vfs::serialize_tree(index.tree()));
  // The original reference: directory names are sanitized (":" -> "_"), but
  // series grouping for delta prefetch needs the real "name:tag".
  write_file_bytes(dir / "ref", to_bytes(reference));
}

std::vector<std::string> FsStore::references() const {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(root_ / "images")) {
    if (!entry.is_directory()) continue;
    fs::path ref_file = entry.path() / "ref";
    out.push_back(fs::exists(ref_file)
                      ? to_string(read_file_bytes(ref_file))
                      : entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FsStore::save_access_profile(const std::string& reference,
                                  const std::string& serialized) {
  fs::path dir = image_dir(reference);
  if (!fs::exists(dir / "index.gtree")) {
    throw_error(ErrorCode::kNotFound, "no index installed: " + reference);
  }
  write_file_bytes(dir / "profile.gprf", to_bytes(serialized));
}

StatusOr<std::string> FsStore::load_access_profile(
    const std::string& reference) const {
  fs::path p = image_dir(reference) / "profile.gprf";
  if (!fs::exists(p)) {
    return {ErrorCode::kNotFound, "no access profile for " + reference};
  }
  return to_string(read_file_bytes(p));
}

bool FsStore::has_index(const std::string& reference) const {
  return fs::exists(image_dir(reference) / "index.gtree");
}

GearIndex FsStore::load_index(const std::string& reference) const {
  fs::path p = image_dir(reference) / "index.gtree";
  if (!fs::exists(p)) {
    throw_error(ErrorCode::kNotFound, "no index installed: " + reference);
  }
  return GearIndex{vfs::deserialize_tree(read_file_bytes(p))};
}

std::vector<std::string> FsStore::images() const {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(root_ / "images")) {
    if (entry.is_directory()) out.push_back(entry.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FsStore::link_file(const std::string& reference, const std::string& path,
                        const Fingerprint& fp) {
  const std::string name = fp.hex();
  const std::string dst =
      (image_dir(reference) / "files").string() + "/" + relative_path(path);
  if (link_entry(cache_fd_.get(), name, AT_FDCWD, {}, dst) ==
      LinkOutcome::kNotCached) {
    throw_error(ErrorCode::kNotFound, "link_file: not cached: " + name);
  }
}

std::size_t FsStore::link_stubs(const std::string& reference,
                                const vfs::FileTree& index) {
  const fs::path files = image_dir(reference) / "files";
  const UniqueFd files_fd = open_directory(files);
  std::size_t linked = 0;
  index.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_fingerprint()) return;
    if (link_entry(cache_fd_.get(), node.fingerprint().hex(), files_fd.get(),
                   files, relative_path(path)) == LinkOutcome::kLinked) {
      ++linked;
    }
  });
  return linked;
}

StatusOr<Bytes> FsStore::read_materialized(const std::string& reference,
                                           const std::string& path) const {
  const fs::path p = image_dir(reference) / "files" / relative_path(path);
  if (!fs::exists(p)) {
    return {ErrorCode::kNotFound, "not materialized: " + path};
  }
  return read_file_bytes(p);
}

void FsStore::remove_image(const std::string& reference) {
  fs::path dir = image_dir(reference);
  if (!fs::exists(dir)) {
    throw_error(ErrorCode::kNotFound, "no such image: " + reference);
  }
  fs::remove_all(dir);
}

std::string FsStore::create_container(const std::string& reference) {
  if (!has_index(reference)) {
    throw_error(ErrorCode::kNotFound, "no index installed: " + reference);
  }
  // Skip ids already on disk (containers created by earlier processes).
  std::string id;
  do {
    id = sanitize_reference(reference) + "-c" +
         std::to_string(next_container_++);
  } while (fs::exists(container_dir(id)));
  fs::create_directories(container_dir(id));
  write_file_bytes(container_dir(id) / "ref", to_bytes(reference));
  save_diff(id, vfs::FileTree{});
  container_refs_[id] = reference;
  return id;
}

bool FsStore::has_container(const std::string& container_id) const {
  return container_refs_.count(container_id) != 0;
}

void FsStore::save_diff(const std::string& container_id,
                        const vfs::FileTree& diff) {
  write_file_bytes(container_dir(container_id) / "diff.gtree",
                   vfs::serialize_tree(diff));
}

vfs::FileTree FsStore::load_diff(const std::string& container_id) const {
  fs::path p = container_dir(container_id) / "diff.gtree";
  if (!fs::exists(p)) {
    throw_error(ErrorCode::kNotFound, "no container: " + container_id);
  }
  return vfs::deserialize_tree(read_file_bytes(p));
}

const std::string& FsStore::container_image(
    const std::string& container_id) const {
  auto it = container_refs_.find(container_id);
  if (it == container_refs_.end()) {
    throw_error(ErrorCode::kNotFound, "no container: " + container_id);
  }
  return it->second;
}

void FsStore::remove_container(const std::string& container_id) {
  if (container_refs_.erase(container_id) == 0) {
    throw_error(ErrorCode::kNotFound, "no container: " + container_id);
  }
  fs::remove_all(container_dir(container_id));
}

}  // namespace gear
