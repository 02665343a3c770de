#include "gear/local_runtime.hpp"

#include "docker/overlay.hpp"
#include "gear/index.hpp"
#include "gear/client.hpp"     // push_gear_image
#include "gear/viewer.hpp"

namespace gear {

void fetch_in_slices(const FileRegistryApi& registry,
                     const std::vector<FetchItem>& items,
                     util::ThreadPool* pool, HostBudget* budget,
                     std::string_view what,
                     const std::function<void(std::size_t, Bytes)>& take) {
  std::vector<std::uint64_t> sizes;
  sizes.reserve(items.size());
  // Smallest-remaining-first key for host-wide admission: the bytes this
  // fetch still has to move.
  std::uint64_t remaining = 0;
  for (const FetchItem& item : items) {
    sizes.push_back(item.size);
    remaining += item.size;
  }
  const std::uint64_t max_bytes =
      budget != nullptr ? budget->budget_bytes() : 0;
  for (const BatchSlice& slice : batch_slices(sizes, max_bytes)) {
    BudgetLease lease(budget, slice.bytes, AdmissionLane::kBackground,
                      remaining);
    remaining -= slice.bytes;
    std::vector<Fingerprint> fps;
    fps.reserve(slice.end - slice.begin);
    for (std::size_t i = slice.begin; i < slice.end; ++i) {
      fps.push_back(items[i].fp);
    }
    StatusOr<std::vector<Bytes>> got = registry.download_batch(fps, pool);
    for (std::size_t i = slice.begin; i < slice.end; ++i) {
      if (got.ok()) {
        take(i, std::move((*got)[i - slice.begin]));
        continue;
      }
      // A failed slice is refetched one file at a time, so the error names
      // the first file that fails on its own.
      StatusOr<Bytes> one = registry.download(items[i].fp);
      if (!one.ok()) {
        throw_error(one.code(), std::string(what) + " of " + items[i].path +
                                    " (" + items[i].fp.hex() +
                                    "): " + one.message());
      }
      take(i, std::move(one).value());
    }
  }
}

LocalRuntime::LocalRuntime(docker::DockerRegistry& index_registry,
                           FileRegistryApi& file_registry,
                           std::filesystem::path root)
    : index_registry_(index_registry),
      file_registry_(file_registry),
      store_(std::move(root)) {}

void LocalRuntime::pull(const std::string& reference) {
  if (store_.has_index(reference)) return;
  docker::Manifest manifest = gear_index_manifest(index_registry_, reference);
  store_.install_index(reference,
                       GearIndex::from_layer(gear_index_layer(
                           index_registry_, manifest, reference)));
}

bool LocalRuntime::has_image(const std::string& reference) const {
  return store_.has_index(reference);
}

std::string LocalRuntime::launch(const std::string& reference) {
  return store_.create_container(reference);
}

vfs::FileTree LocalRuntime::load_index_tree(
    const std::string& reference) const {
  return vfs::FileTree(store_.load_index(reference).tree());
}

void LocalRuntime::record_first_touches(const std::string& reference,
                                        const std::vector<std::string>& paths) {
  if (paths.empty()) return;
  ImageAccessProfile profile;
  if (StatusOr<std::string> text = store_.load_access_profile(reference);
      text.ok()) {
    if (StatusOr<ImageAccessProfile> parsed = ImageAccessProfile::parse(*text);
        parsed.ok()) {
      profile = std::move(parsed).value();
    }
  }
  for (const std::string& path : paths) profile.record(path);
  store_.save_access_profile(reference, profile.serialize());
}

Bytes LocalRuntime::materialize(const std::string& reference,
                                const std::string& path, const Fingerprint& fp,
                                std::uint64_t size,
                                std::vector<std::string>& first_touches) {
  // Already hard-linked into the image directory by an earlier access?
  if (StatusOr<Bytes> local = store_.read_materialized(reference, path);
      local.ok()) {
    return std::move(local).value();
  }
  // A true first touch: it feeds the persisted access profile, so later
  // prefetches of this series can schedule hot files first.
  first_touches.push_back(path);

  // Shared cache, then the registry.
  Bytes content;
  if (StatusOr<Bytes> cached = store_.cache_get(fp); cached.ok()) {
    content = std::move(cached).value();
  } else {
    // A demand fault: its staging bytes take the strict-priority lane of
    // the host budget, ahead of any queued prefetch batch.
    BudgetLease lease(host_budget_, size, AdmissionLane::kDemand, size);
    StatusOr<Bytes> fetched = file_registry_.download(fp);
    if (!fetched.ok()) {
      throw_error(fetched.code(), "materialize of " + path + " (" + fp.hex() +
                                      "): " + fetched.message());
    }
    content = std::move(fetched).value();
    store_.cache_put(fp, content);
  }
  store_.link_file(reference, path, fp);
  return content;
}

std::pair<std::size_t, std::uint64_t> LocalRuntime::prefetch(
    const std::string& reference, PrefetchOrder order,
    util::ThreadPool* pool) {
  if (!store_.has_index(reference)) {
    throw_error(ErrorCode::kNotFound, "no index installed: " + reference);
  }
  vfs::FileTree index = load_index_tree(reference);

  // Delta baseline + merged profile history of the whole series.
  const std::vector<std::string> installed = store_.references();
  vfs::FileTree previous_tree;
  const vfs::FileTree* previous = nullptr;
  ImageAccessProfile profile;
  const ImageAccessProfile* profile_ptr = nullptr;
  if (order != PrefetchOrder::kPath) {
    std::string prev = newest_other_version(installed, reference);
    if (!prev.empty()) {
      previous_tree = load_index_tree(prev);
      previous = &previous_tree;
    }
    if (order == PrefetchOrder::kProfile) {
      const std::string series = series_of(reference);
      for (const std::string& ref : installed) {
        if (series_of(ref) != series) continue;
        if (StatusOr<std::string> text = store_.load_access_profile(ref);
            text.ok()) {
          if (StatusOr<ImageAccessProfile> parsed =
                  ImageAccessProfile::parse(*text);
              parsed.ok()) {
            profile.merge(*parsed);
          }
        }
      }
      if (!profile.empty()) profile_ptr = &profile;
    }
  }

  PrefetchPlan plan = build_prefetch_plan(index, order, previous, profile_ptr);
  std::vector<FetchItem> missing;
  for (const PrefetchItem& item : plan.items) {
    if (!store_.cache_contains(item.fingerprint)) {
      missing.push_back({item.fingerprint, item.size, item.path});
    }
  }
  std::uint64_t bytes = 0;
  fetch_in_slices(file_registry_, missing, pool, host_budget_, "prefetch",
                  [&](std::size_t i, Bytes content) {
                    bytes += content.size();
                    store_.cache_put(missing[i].fp, std::move(content));
                  });
  // Link every still-unmaterialized stub path from the now-warm cache, one
  // linkat each. Links follow the whole fetch: linking as files land would
  // pin entries sooner and change what a capacity envelope evicts. Under
  // such an envelope, an entry this pass cached may already have been
  // evicted again; its stub stays, and a later read demand-faults it in.
  store_.link_stubs(reference, index);
  return {missing.size(), bytes};
}

StatusOr<Bytes> LocalRuntime::read(const std::string& container_id,
                                   std::string_view path) {
  return std::move(
      read(container_id, std::vector<std::string>{std::string(path)})[0]);
}

std::vector<StatusOr<Bytes>> LocalRuntime::read(
    const std::string& container_id, const std::vector<std::string>& paths) {
  if (!store_.has_container(container_id)) {
    return std::vector<StatusOr<Bytes>>(
        paths.size(), {ErrorCode::kNotFound, "no container: " + container_id});
  }
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  std::vector<std::string> first_touches;
  GearFileViewer viewer(
      index, diff,
      [&](const std::string& union_path, const Fingerprint& fp,
          std::uint64_t size) {
        return materialize(reference, union_path, fp, size, first_touches);
      });
  // The profile is loaded and saved once per call, also when a fetch throws.
  std::vector<StatusOr<Bytes>> out;
  out.reserve(paths.size());
  try {
    for (const std::string& path : paths) out.push_back(viewer.read_file(path));
  } catch (...) {
    record_first_touches(reference, first_touches);
    throw;
  }
  record_first_touches(reference, first_touches);
  return out;
}

StatusOr<std::string> LocalRuntime::read_symlink(
    const std::string& container_id, std::string_view path) {
  if (!store_.has_container(container_id)) {
    return {ErrorCode::kNotFound, "no container: " + container_id};
  }
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  return docker::OverlayMount({&index}, diff).read_symlink(path);
}

void LocalRuntime::write(const std::string& container_id,
                         std::string_view path, BytesView content) {
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  docker::OverlayMount({&index}, diff)
      .write_file(path, Bytes(content.begin(), content.end()));
  store_.save_diff(container_id, diff);
}

bool LocalRuntime::remove_path(const std::string& container_id,
                               std::string_view path) {
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  bool removed = docker::OverlayMount({&index}, diff).remove(path);
  if (removed) store_.save_diff(container_id, diff);
  return removed;
}

std::string LocalRuntime::commit(const std::string& container_id,
                                 const std::string& name,
                                 const std::string& tag) {
  const std::string reference = store_.container_image(container_id);
  vfs::FileTree index = load_index_tree(reference);
  vfs::FileTree diff = store_.load_diff(container_id);
  StatusOr<docker::Manifest> manifest = index_registry_.get_manifest(reference);
  if (!manifest.ok()) {
    throw_error(manifest.code(), "commit: manifest of " + reference + ": " +
                                     manifest.message());
  }
  docker::ImageConfig config = std::move(manifest->config);

  CommitResult result =
      GearCommitter().commit(index, diff, config, name, tag);
  push_gear_image(result.image, index_registry_, file_registry_);
  return name + ":" + tag;
}

void LocalRuntime::destroy(const std::string& container_id) {
  store_.remove_container(container_id);
}

}  // namespace gear
