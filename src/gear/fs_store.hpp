// On-disk three-level storage (paper Fig. 5) backed by a real filesystem.
//
// The in-memory ThreeLevelStore drives the simulations; this backend
// persists the same structure to disk with the paper's actual mechanism —
// POSIX hard links:
//
//   <root>/cache/<fp-hex>                    level 1: shared Gear files
//   <root>/images/<ref>/index.gtree          level 2: serialized index
//   <root>/images/<ref>/files/<path...>      materialized files, hard-linked
//                                            from the cache (st_nlink > 1)
//   <root>/containers/<id>/diff.gtree        level 3: writable-layer state
//
// Deleting an image removes its directory; its files survive in the cache
// because the link count only drops to 1. evict_unlinked() is the cache
// replacement candidate scan: exactly the files with st_nlink == 1 ("files
// that are not linked to Gear indexes", §III-D1).
//
// The per-file calls of a deploy are one system call each, decided by errno
// rather than by existence checks: the store holds <root>/cache open as a
// directory fd, and probes (faccessat), inserts (openat O_EXCL) and links
// (linkat) name each entry by its fingerprint's hex, encoded once per call.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gear/cache.hpp"
#include "gear/index.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/fingerprint.hpp"

namespace gear {

/// Move-only: it owns the cache directory's fd.
class FsStore {
 public:
  /// Opens (creating if needed) a store rooted at `root`.
  explicit FsStore(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }

  // ---- Level 1: shared cache ------------------------------------

  bool cache_contains(const Fingerprint& fp) const;

  /// Stores content under its fingerprint. Idempotent: an existing entry
  /// keeps its bytes (and counts as a touch under LRU). A write that fails
  /// removes the partial entry.
  void cache_put(const Fingerprint& fp, BytesView content);

  StatusOr<Bytes> cache_get(const Fingerprint& fp) const;

  std::size_t cache_entries() const;

  /// Bytes the cache entries hold. A running total: the first call (or
  /// set_cache_capacity) scans the directory once; this store's inserts and
  /// evictions keep it current after that.
  std::uint64_t cache_bytes() const;

  /// Hard-link count of a cached file: 1 = cache only (evictable),
  /// 1 + N = linked into N image directories.
  std::uint64_t link_count(const Fingerprint& fp) const;

  /// Removes every cache entry no image links to. Returns count removed.
  std::size_t evict_unlinked();

  /// Bounds the on-disk cache — disk-pressure governance for gearctl's
  /// `--cache-capacity-bytes`/`--eviction`. When an insert would push the
  /// cache past `capacity_bytes`, unlinked entries (st_nlink == 1) are
  /// evicted in policy order first — FIFO by insertion, LRU by last
  /// cache_get (files from earlier processes rank oldest). Linked entries
  /// are never removed, so pinned bytes may exceed the envelope; such
  /// inserts still land (the file is about to be hard-linked into an index)
  /// but count as `rejected`. 0 = unbounded (the default).
  void set_cache_capacity(std::uint64_t capacity_bytes, EvictionPolicy policy);
  std::uint64_t cache_capacity() const noexcept { return cache_capacity_; }
  EvictionPolicy eviction_policy() const noexcept { return cache_policy_; }

  /// This process's cache traffic (hits/misses/insertions/evictions/
  /// rejected) since the store was opened — `gearctl stats` telemetry.
  const CacheStats& session_stats() const noexcept { return cache_stats_; }

  // ---- Level 2: image index directories --------------------------

  /// Persists an image's index. The reference ("name:tag") is sanitized
  /// into a directory name.
  void install_index(const std::string& reference, const GearIndex& index);

  bool has_index(const std::string& reference) const;
  GearIndex load_index(const std::string& reference) const;
  std::vector<std::string> images() const;

  /// Original (unsanitized) references of the installed images. Image dirs
  /// written before reference tracking fall back to their directory name.
  std::vector<std::string> references() const;

  /// Persists an access profile next to the image's index
  /// (<root>/images/<ref>/profile.gprf, "GPRF1" text). Overwrites; removed
  /// together with the image directory.
  void save_access_profile(const std::string& reference,
                           const std::string& serialized);

  /// Loads the saved profile text; kNotFound when none was recorded.
  StatusOr<std::string> load_access_profile(const std::string& reference) const;

  /// Materializes one stub: hard-links the cached file into the image's
  /// files/ directory at the stub's path, creating missing parents. A path
  /// already materialized is left as it is. Throws kNotFound when the cache
  /// entry is absent.
  void link_file(const std::string& reference, const std::string& path,
                 const Fingerprint& fp);

  /// Materializes every stub of `index`, the installed image's tree, whose
  /// cache entry exists: one linkat per stub, in walk order. A stub whose
  /// entry is absent (evicted under a capacity envelope) stays a stub, and
  /// no directory is created for it. Returns the number of files linked now.
  std::size_t link_stubs(const std::string& reference,
                         const vfs::FileTree& index);

  StatusOr<Bytes> read_materialized(const std::string& reference,
                                    const std::string& path) const;

  /// Deletes the image directory. Hard-linked files stay alive in the cache.
  void remove_image(const std::string& reference);

  // ---- Level 3: container diff directories -----------------------

  std::string create_container(const std::string& reference);
  bool has_container(const std::string& container_id) const;
  void save_diff(const std::string& container_id, const vfs::FileTree& diff);
  vfs::FileTree load_diff(const std::string& container_id) const;
  const std::string& container_image(const std::string& container_id) const;
  void remove_container(const std::string& container_id);

 private:
  std::filesystem::path cache_path(const std::string& name) const;
  std::filesystem::path image_dir(const std::string& reference) const;
  std::filesystem::path container_dir(const std::string& id) const;

  /// Evicts unlinked entries in policy order until `needed` more bytes fit
  /// the envelope, never the entry named `keep` (the one being written).
  /// Returns false when pinned bytes still overflow it.
  bool make_cache_room(std::uint64_t needed, const std::string& keep = {});

  std::filesystem::path root_;
  UniqueFd cache_fd_;  // <root>/cache
  /// cache_bytes()'s running total; empty until the first scan.
  mutable std::optional<std::uint64_t> cache_used_;
  std::map<std::string, std::string> container_refs_;  // id -> reference
  std::uint64_t next_container_ = 1;
  std::uint64_t cache_capacity_ = 0;  // 0 = unbounded
  EvictionPolicy cache_policy_ = EvictionPolicy::kLru;
  /// Eviction order: fp-hex -> monotonic tick of insertion (FIFO) or last
  /// access (LRU). Files written by earlier processes have no tick and rank
  /// oldest. Mutable: cache_get is logically const but records hotness.
  mutable std::map<std::string, std::uint64_t> cache_ticks_;
  mutable std::uint64_t cache_tick_ = 0;
  mutable CacheStats cache_stats_;
};

/// Turns an image reference into a safe single directory name
/// ("nginx:1.17" -> "nginx_1.17"). Rejects references that would escape.
std::string sanitize_reference(const std::string& reference);

}  // namespace gear
