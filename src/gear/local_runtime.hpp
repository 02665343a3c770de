// Disk-backed Gear runtime.
//
// The simulation-facing GearClient measures costs; this runtime performs the
// same deployment semantics on a real filesystem (FsStore, paper Fig. 5) so
// tooling like gearctl can actually host containers:
//
//   pull     — install the image's index into <root>/images/<ref>/;
//   launch   — create a container with a persisted diff tree;
//   read     — union lookup (diff over index); the first touch of a stub
//              materializes it: shared cache -> Gear Registry, then a hard
//              link into the image's files/ directory;
//   write /  — copy-up into the container's diff with whiteouts, persisted
//   remove     across process restarts;
//   commit   — extract the diff into new Gear files + a merged index and
//              push the result as a new image.
//
// All state lives under one directory; reopening the runtime on the same
// root resumes exactly where the previous process stopped.
#pragma once

#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "docker/registry.hpp"
#include "gear/admission.hpp"
#include "gear/committer.hpp"
#include "gear/fs_store.hpp"
#include "gear/prefetch.hpp"
#include "gear/registry_api.hpp"

namespace gear {

/// One file of a multi-file fetch: a distinct fingerprint, its raw (stub)
/// size, which its slice is bounded by, and the first path naming it, which
/// errors name.
struct FetchItem {
  Fingerprint fp;
  std::uint64_t size = 0;
  std::string path;
};

/// The real path's multi-file download (export, and prefetch = the lazy
/// backfill): fetches `items` through download_batch, one batch_slices
/// slice at a time, decompressing on `pool` (null = inline). Slices are
/// bounded by kMaxBatchBytes and, under a nonzero `budget`, by its budget
/// too; each holds one background-lane lease on `budget` (null =
/// ungoverned) from before its download until its files are handed on.
/// `take(i, content)` receives item i's content, in item order. A failed
/// slice is refetched one file at a time; the first file that fails on its
/// own throws "<what> of <path> (<fp>): <registry error>".
void fetch_in_slices(const FileRegistryApi& registry,
                     const std::vector<FetchItem>& items,
                     util::ThreadPool* pool, HostBudget* budget,
                     std::string_view what,
                     const std::function<void(std::size_t, Bytes)>& take);

class LocalRuntime {
 public:
  /// Any FileRegistryApi works — a single GearRegistry or a FleetRegistry
  /// router — so gearctl's container commands run against --shards N too.
  LocalRuntime(docker::DockerRegistry& index_registry,
               FileRegistryApi& file_registry, std::filesystem::path root);

  /// Installs `reference`'s index from the Docker registry (no-op when
  /// already installed). Throws for classic (non-Gear) references.
  void pull(const std::string& reference);

  bool has_image(const std::string& reference) const;

  /// Creates a container from an installed image; returns its id.
  std::string launch(const std::string& reference);

  /// Reads a file through the container's union view, materializing stubs
  /// on demand (cache -> registry -> hard link).
  StatusOr<Bytes> read(const std::string& container_id,
                       std::string_view path);

  /// Reads several files through one union view of the container, so the
  /// index and the diff load once: out[i] is paths[i]'s content or error.
  std::vector<StatusOr<Bytes>> read(const std::string& container_id,
                                    const std::vector<std::string>& paths);

  /// Resolves a symlink target from the union view.
  StatusOr<std::string> read_symlink(const std::string& container_id,
                                     std::string_view path);

  /// Writes a file into the container's diff (persisted immediately).
  void write(const std::string& container_id, std::string_view path,
             BytesView content);

  /// Removes a path from the container's view (whiteout when the image
  /// still provides it). Returns false when absent.
  bool remove_path(const std::string& container_id, std::string_view path);

  /// Commits the container as a new image and pushes it to the registries.
  /// Returns the new reference.
  std::string commit(const std::string& container_id, const std::string& name,
                     const std::string& tag);

  /// Deletes the container (its diff only; the image stays launchable).
  void destroy(const std::string& container_id);

  /// Warms every still-unmaterialized file of an installed image into the
  /// on-disk cache in priority order (gear/prefetch): delta vs the newest
  /// other installed version of the series, then the persisted access
  /// profiles of the whole series, then fan-in/size tie-breakers. The files
  /// not yet cached move in fetch_in_slices batches, decompressed on `pool`
  /// (null = inline; what is cached and linked is the same at any width)
  /// and cached in plan order; they are hard-linked into the image
  /// directory afterwards. Returns (files fetched from the registry, bytes
  /// moved).
  std::pair<std::size_t, std::uint64_t> prefetch(
      const std::string& reference,
      PrefetchOrder order = PrefetchOrder::kDelta,
      util::ThreadPool* pool = nullptr);

  /// Attaches a host-wide admission budget (gearctl --host-budget-bytes):
  /// prefetch's downloads stage their bytes on the background lane,
  /// demand-fault materializations on the strict-priority demand lane. The
  /// budget must outlive the runtime; null = ungoverned (the default).
  void set_host_budget(HostBudget* budget) { host_budget_ = budget; }
  HostBudget* host_budget() const noexcept { return host_budget_; }

  FsStore& store() noexcept { return store_; }

 private:
  /// Loads the semantic index of a container's image with already
  /// materialized files reported through the FsStore.
  vfs::FileTree load_index_tree(const std::string& reference) const;

  /// Materializer callback bound to (reference); fetches through
  /// FsStore-materialized -> cache -> registry, hard-linking on success.
  /// `size` is the stub's raw size — the demand lane's admission charge. A
  /// first touch (not yet materialized) appends `path` to `first_touches`.
  Bytes materialize(const std::string& reference, const std::string& path,
                    const Fingerprint& fp, std::uint64_t size,
                    std::vector<std::string>& first_touches);

  /// Records `paths`' first touches in the image's persisted access
  /// profile: one load, merge and save.
  void record_first_touches(const std::string& reference,
                            const std::vector<std::string>& paths);

  docker::DockerRegistry& index_registry_;
  FileRegistryApi& file_registry_;
  FsStore store_;
  HostBudget* host_budget_ = nullptr;  // not owned
};

}  // namespace gear
