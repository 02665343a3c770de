// gearctl — command-line front end for the Gear pipeline on real
// directories and on-disk registries.
//
//   gearctl <store-dir> init
//   gearctl <store-dir> import <directory> <name:tag> [chunk-threshold-bytes]
//   gearctl <store-dir> images
//   gearctl <store-dir> inspect <name:tag>
//   gearctl <store-dir> cat <name:tag> <path> [offset length]
//   gearctl <store-dir> export <name:tag> <directory>
//   gearctl <store-dir> rm <name:tag>
//   gearctl <store-dir> gc
//   gearctl <store-dir> stats
//   gearctl serve --addr HOST:PORT --store-dir DIR [--workers N]
//                 [--shards N --replicas R]
//
// The store directory holds the catalog (manifests and index layers) under
// docker/ (gear/persistence.hpp), the Gear files in a durable
// DiskObjectStore (pack/ segments; --store-dir moves it), and the local
// runtime's cache and containers under local/. Only the commands that
// change the catalog (init, import, commit, rm, gc) write it back. `import`
// turns a real directory into a Gear image; `export` reconstructs an
// image's root filesystem back onto disk.
//
// `serve` runs the gear-file registry as a TCP daemon over the wire
// protocol; client invocations in other processes reach it with
// --remote HOST:PORT (the catalog stays under the client's store dir).
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gear/converter.hpp"
#include "gear/client.hpp"
#include "gear/fleet.hpp"
#include "gear/gc.hpp"
#include "gear/local_runtime.hpp"
#include "gear/fs_store.hpp"
#include "gear/object_store.hpp"
#include "gear/persistence.hpp"
#include "net/remote_registry.hpp"
#include "net/tcp.hpp"
#include "p2p/topology.hpp"
#include "util/file_io.hpp"
#include "util/format.hpp"
#include "vfs/fs_io.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace fs = std::filesystem;
using namespace gear;

namespace {

/// Worker budget for import's fingerprinting/compression and serve's
/// collision verdicts (--workers N; 0 = one thread per hardware core).
util::Concurrency g_concurrency;

/// --range-batch N: chunk indices per download_chunks batch in ranged cat.
/// 1 = the serial per-chunk protocol (output is identical either way).
std::size_t g_range_batch = 64;

/// --prefetch-order {path,delta,profile}: queue discipline of the prefetch
/// command (gear/prefetch.hpp). Delta-first is the paper's redeploy case.
PrefetchOrder g_prefetch_order = PrefetchOrder::kDelta;

/// --store-dir PATH: where the Gear files' DiskObjectStore lives. Empty =
/// the store root itself. `serve` requires it.
fs::path g_object_store_dir;

/// --shards N / --replicas R: run the gear-file side as a FleetRegistry of
/// N disk-backed instances (consistent-hash routed, R-way replicated) under
/// <store-dir-path>/shard-<i>. Requires --store-dir; placement is stable
/// across invocations because the ring depends only on shard ids.
std::size_t g_shards = 1;
std::size_t g_replicas = 1;

/// --lazy: start-before-warm launch — report the container id the moment
/// the index is installed, then backfill the remaining files behind it.
/// Only valid with the launch command.
bool g_lazy = false;

/// --host-budget-bytes N: process-wide admission budget (gear/admission).
/// Every download this invocation stages — prefetch batches on the
/// background lane, demand-fault materializations on the strict-priority
/// lane — acquires its bytes here first. 0 = ungoverned.
std::uint64_t g_host_budget_bytes = 0;
std::unique_ptr<HostBudget> g_host_budget;

/// --cache-capacity-bytes N / --eviction {fifo,lru}: disk envelope of the
/// local runtime's shared file cache. Inserts that would exceed it evict
/// unlinked (st_nlink == 1) entries in policy order first. 0 = unbounded.
std::uint64_t g_cache_capacity_bytes = 0;
EvictionPolicy g_eviction = EvictionPolicy::kLru;

/// --remote HOST:PORT: dial a `gearctl serve` daemon for the gear files
/// instead of opening a local store. Empty = local mode.
net::HostPort g_remote;
bool g_remote_set = false;

/// --addr HOST:PORT: the endpoint `serve` binds. Only valid with serve.
net::HostPort g_addr;
bool g_addr_set = false;

/// cluster-sim knobs: replay an in-process multi-site edge deploy storm
/// over the hierarchical P2P topology (p2p/topology.hpp) and report the
/// WAN/LAN split. Only valid with the cluster-sim command.
std::size_t g_sites = 2;
bool g_sites_set = false;
std::size_t g_nodes_per_site = 3;
bool g_nodes_per_site_set = false;
double g_wan_mbps = 50.0;
bool g_wan_mbps_set = false;
double g_lan_mbps = 1000.0;
bool g_lan_mbps_set = false;
/// --mode eager|lazy: eager deploys warm the access set up front; lazy
/// starts before warm and backfills behind the container.
bool g_sim_lazy = false;
bool g_mode_set = false;
/// --churn: crash the first site's seed node mid-storm (stale adverts left
/// behind) and rejoin it before the last wave.
bool g_churn = false;

/// Set by SIGTERM/SIGINT while `serve` runs; the main loop notices and
/// shuts the daemon down cleanly (exit 0).
volatile std::sig_atomic_t g_serve_stop = 0;

void handle_serve_signal(int) { g_serve_stop = 1; }

/// The gear-file side of a local store or of `serve`: one DiskObjectStore
/// at `dir`, or with --shards > 1 a FleetRegistry over one per
/// <dir>/shard-<i>.
struct FileBackend {
  std::vector<std::unique_ptr<GearRegistry>> shards;
  std::vector<DiskObjectStore*> stores;  // shards[i]'s store
  std::unique_ptr<FleetRegistry> fleet;  // set only with --shards > 1

  explicit FileBackend(const fs::path& dir) {
    auto add_shard = [&](const fs::path& shard_dir) {
      auto store = std::make_unique<DiskObjectStore>(shard_dir);
      stores.push_back(store.get());
      shards.push_back(std::make_unique<GearRegistry>(std::move(store)));
    };
    if (g_shards == 1) {
      add_shard(dir);
      return;
    }
    std::vector<FileRegistryApi*> backends;
    for (std::size_t i = 0; i < g_shards; ++i) {
      add_shard(dir / ("shard-" + std::to_string(i)));
      backends.push_back(shards.back().get());
    }
    FleetRegistry::Options opts;
    opts.replicas = g_replicas;
    fleet = std::make_unique<FleetRegistry>(std::move(backends), opts);
  }

  FileRegistryApi& files() {
    return fleet ? static_cast<FileRegistryApi&>(*fleet) : *shards[0];
  }
};

struct Store {
  fs::path root;
  docker::DockerRegistry docker;
  // Local mode: the gear files at --store-dir, or under the store root.
  std::unique_ptr<FileBackend> backend;
  // Remote mode (--remote): the gear files live behind a `gearctl serve`
  // daemon; the stub frames every call through one TCP connection.
  std::unique_ptr<net::TcpTransport> remote_transport;
  std::unique_ptr<net::RemoteGearRegistry> remote;

  explicit Store(fs::path r, bool must_exist) : root(std::move(r)) {
    if (!g_remote_set && fs::is_directory(root / "gear")) {
      throw Error(ErrorCode::kUnsupported,
                  (root / "gear").string() +
                      " holds gear files in the retired snapshot layout; "
                      "re-import the images into a new store");
    }
    // Checked before any backend opens, so a typo'd path creates nothing.
    if (fs::is_directory(root / "docker")) {
      load_docker_registry(root, &docker);
    } else if (must_exist) {
      throw Error(ErrorCode::kNotFound,
                  "no gear store at " + root.string() + " (run init first)");
    }
    if (!g_remote_set) {
      backend = std::make_unique<FileBackend>(
          g_object_store_dir.empty() ? root : g_object_store_dir);
      return;
    }
    remote_transport =
        std::make_unique<net::TcpTransport>(g_remote.host, g_remote.port);
    // The daemon may hold collision-salted unique ids whose names
    // intentionally differ from their content hash, so skip the client's
    // re-hash check (the frame CRC still covers transit integrity).
    remote = std::make_unique<net::RemoteGearRegistry>(
        *remote_transport, /*max_attempts=*/4, /*verify_content=*/false);
  }

  /// The registry the data path talks to: the remote stub with --remote,
  /// the fleet router with --shards > 1, the lone backend otherwise.
  FileRegistryApi& files() {
    if (remote) return *remote;
    return backend->files();
  }

  /// The single backend registry, or null in fleet/remote mode. Commands
  /// that need registry internals (gc, scrub) only work against a local
  /// single instance.
  GearRegistry* single() {
    return backend && !backend->fleet ? backend->shards[0].get() : nullptr;
  }

  /// Writes the catalog back. Only the commands that change it call this.
  void save() { save_docker_registry(docker, root); }
};

/// The single backend, or a "unsupported with --shards/--remote" error.
GearRegistry* require_single(Store& store, const char* cmd) {
  GearRegistry* single = store.single();
  if (single == nullptr) {
    std::fprintf(stderr,
                 "gearctl: %s is unsupported with --shards > 1 or --remote\n",
                 cmd);
  }
  return single;
}

GearIndex load_index_of(Store& store, const std::string& ref) {
  docker::Manifest manifest = gear_index_manifest(store.docker, ref);
  return GearIndex::from_layer(gear_index_layer(store.docker, manifest, ref));
}

/// A pool of --workers threads for batch compression, decompression and
/// serve's collision verdicts; null when that is one worker.
std::unique_ptr<util::ThreadPool> make_pool() {
  if (g_concurrency.resolved_workers() <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(g_concurrency.resolved_workers());
}

/// One file's content for cat, with an error naming the path and file.
Bytes fetch_file(Store& store, const std::string& path, const Fingerprint& fp) {
  return unwrap(store.files().download(fp),
                "cat of " + path + " (" + fp.hex() + ")");
}

int cmd_init(Store& store) {
  store.save();
  std::printf("initialized gear store at %s\n", store.root.string().c_str());
  return 0;
}

int cmd_import(Store& store, const std::string& dir, const std::string& ref,
               std::uint64_t chunk_threshold) {
  std::size_t colon = ref.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == ref.size()) {
    std::fprintf(stderr, "reference must be name:tag\n");
    return 2;
  }

  // One --workers pool reads the tree's files and compresses for push.
  std::unique_ptr<util::ThreadPool> pool = make_pool();
  vfs::FileTree root = vfs::load_tree(dir, {}, pool.get());
  vfs::TreeStats stats = root.stats();
  std::printf("imported %s: %llu files, %llu dirs, %llu symlinks, %s\n",
              dir.c_str(),
              static_cast<unsigned long long>(stats.regular_files),
              static_cast<unsigned long long>(stats.directories),
              static_cast<unsigned long long>(stats.symlinks),
              format_size(stats.total_file_bytes).c_str());

  // Convert the loaded tree directly, with collision detection against what
  // the store already holds. The tree moves in: its unique files' bytes
  // become the image's without a copy.
  docker::ImageConfig config;
  config.labels["gearctl.import.source"] = dir;
  GearConverter converter(default_hasher(), &store.files());
  converter.set_concurrency(g_concurrency);
  ConversionResult conv = converter.convert(std::move(root),
                                            ref.substr(0, colon),
                                            ref.substr(colon + 1),
                                            std::move(config));
  ChunkPolicy policy;
  if (chunk_threshold > 0) {
    policy.threshold_bytes = chunk_threshold;
  }
  std::size_t uploaded =
      push_gear_image(conv.image, store.docker, store.files(), policy,
                      pool.get(), g_concurrency.max_inflight_bytes);
  store.save();

  std::printf("converted: %zu unique gear files (%zu uploaded, rest "
              "deduplicated), index layer %s\n",
              conv.stats.files_unique, uploaded,
              format_size(conv.stats.index_wire_bytes).c_str());
  if (conv.stats.collisions > 0) {
    std::printf("note: %zu fingerprint collisions detected and uniquified\n",
                conv.stats.collisions);
  }
  std::printf("pushed %s\n", ref.c_str());
  return 0;
}

int cmd_images(Store& store) {
  for (const std::string& ref : store.docker.list_manifests()) {
    docker::Manifest m = store.docker.get_manifest(ref).value();
    bool is_gear = m.config.labels.count(kGearIndexLabel) != 0;
    std::printf("%-32s %8s  %s\n", ref.c_str(),
                format_size(m.total_layer_bytes()).c_str(),
                is_gear ? "gear" : "classic");
  }
  return 0;
}

int cmd_inspect(Store& store, const std::string& ref) {
  GearIndex index = load_index_of(store, ref);
  vfs::TreeStats stats = index.tree().stats();
  std::printf("%s\n", ref.c_str());
  std::printf("  files:       %llu (%zu distinct fingerprints)\n",
              static_cast<unsigned long long>(stats.fingerprint_stubs),
              index.distinct_fingerprints().size());
  std::printf("  directories: %llu, symlinks: %llu\n",
              static_cast<unsigned long long>(stats.directories),
              static_cast<unsigned long long>(stats.symlinks));
  std::printf("  logical size: %s\n",
              format_size(index.referenced_bytes()).c_str());
  std::size_t chunked = 0;
  for (const Fingerprint& fp : index.distinct_fingerprints()) {
    chunked += store.files().is_chunked(fp) ? 1 : 0;
  }
  std::printf("  chunked files: %zu\n", chunked);
  return 0;
}

int cmd_cat(Store& store, const std::string& ref, const std::string& path) {
  GearIndex index = load_index_of(store, ref);
  const vfs::FileNode* node = index.tree().lookup(path);
  if (node == nullptr) {
    std::fprintf(stderr, "no such file: %s\n", path.c_str());
    return 1;
  }
  if (node->is_symlink()) {
    std::printf("%s -> %s\n", path.c_str(), node->link_target().c_str());
    return 0;
  }
  if (!node->is_fingerprint()) {
    std::fprintf(stderr, "not a regular file: %s\n", path.c_str());
    return 1;
  }
  Bytes content = fetch_file(store, path, node->fingerprint());
  std::fwrite(content.data(), 1, content.size(), stdout);
  return 0;
}

int cmd_cat_range(Store& store, const std::string& ref, const std::string& path,
                  std::uint64_t offset, std::uint64_t length) {
  GearIndex index = load_index_of(store, ref);
  const vfs::FileNode* node = index.tree().lookup(path);
  if (node == nullptr) {
    std::fprintf(stderr, "no such file: %s\n", path.c_str());
    return 1;
  }
  if (!node->is_fingerprint()) {
    std::fprintf(stderr, "not a regular file: %s\n", path.c_str());
    return 1;
  }
  Fingerprint fp = node->fingerprint();
  if (!store.files().is_chunked(fp)) {
    Bytes content = fetch_file(store, path, fp);
    if (offset + length > content.size()) {
      std::fprintf(stderr, "range out of bounds for %s\n", path.c_str());
      return 1;
    }
    std::fwrite(content.data() + offset, 1, length, stdout);
    return 0;
  }

  // Chunked: move only the covering chunks, --range-batch indices per
  // download_chunks call.
  StatusOr<ChunkManifest> manifest = store.files().chunk_manifest(fp);
  if (!manifest.ok()) {
    std::fprintf(stderr, "manifest of %s: %s\n", path.c_str(),
                 manifest.message().c_str());
    return 1;
  }
  if (offset + length > manifest->file_size) {
    std::fprintf(stderr, "range out of bounds for %s\n", path.c_str());
    return 1;
  }
  auto [first, last] = manifest->chunk_range(offset, length);
  std::vector<std::uint32_t> indices;
  for (std::size_t c = first; c <= last; ++c) {
    indices.push_back(static_cast<std::uint32_t>(c));
  }
  Bytes assembled;
  for (std::size_t b = 0; b < indices.size(); b += g_range_batch) {
    std::vector<std::uint32_t> batch(
        indices.begin() + static_cast<std::ptrdiff_t>(b),
        indices.begin() + static_cast<std::ptrdiff_t>(
                              std::min(b + g_range_batch, indices.size())));
    StatusOr<std::vector<Bytes>> chunks =
        store.files().download_chunks(fp, *manifest, batch);
    if (!chunks.ok()) {
      std::fprintf(stderr, "range read of %s: %s\n", path.c_str(),
                   chunks.message().c_str());
      return 1;
    }
    for (const Bytes& chunk : *chunks) append(assembled, chunk);
  }
  std::uint64_t skip =
      offset - static_cast<std::uint64_t>(first) * manifest->chunk_bytes;
  std::fwrite(assembled.data() + skip, 1, length, stdout);
  return 0;
}

int cmd_export(Store& store, const std::string& ref, const std::string& dir) {
  GearIndex index = load_index_of(store, ref);
  // Directories and symlinks first. Then the files: each distinct
  // fingerprint is fetched once, in batches, and written to every path
  // naming it as its batch lands, so at most one batch of content is held.
  // A failed fetch leaves the files written so far.
  vfs::FileTree skeleton;
  std::vector<FetchItem> items;
  std::vector<std::vector<std::string>> paths;
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> slot;
  index.tree().walk([&](const std::string& path, const vfs::FileNode& node) {
    switch (node.type()) {
      case vfs::NodeType::kDirectory:
        skeleton.add_directory(path, node.metadata());
        break;
      case vfs::NodeType::kSymlink:
        skeleton.add_symlink(path, node.link_target(), node.metadata());
        break;
      case vfs::NodeType::kFingerprint: {
        auto [it, fresh] = slot.emplace(node.fingerprint(), items.size());
        if (fresh) {
          items.push_back({node.fingerprint(), node.stub_size(), path});
          paths.emplace_back();
        }
        paths[it->second].push_back(path);
        break;
      }
      default:
        break;
    }
  });
  vfs::write_tree(skeleton, dir);
  std::unique_ptr<util::ThreadPool> pool = make_pool();
  fetch_in_slices(store.files(), items, pool.get(), g_host_budget.get(),
                  "export",
                  [&](std::size_t i, Bytes content) {
                    for (const std::string& path : paths[i]) {
                      write_file_bytes(fs::path(dir) / path, content);
                    }
                  });
  std::printf("exported %s to %s (%s)\n", ref.c_str(), dir.c_str(),
              format_size(index.tree().stats().total_file_bytes).c_str());
  return 0;
}

/// Builds the container runtime with this invocation's governance applied:
/// --cache-capacity-bytes/--eviction bound the on-disk cache,
/// --host-budget-bytes meters every download through the shared admission
/// budget.
LocalRuntime make_runtime(Store& store) {
  LocalRuntime runtime(store.docker, store.files(), store.root / "local");
  if (g_cache_capacity_bytes != 0) {
    runtime.store().set_cache_capacity(g_cache_capacity_bytes, g_eviction);
  }
  if (g_host_budget) runtime.set_host_budget(g_host_budget.get());
  return runtime;
}

/// After a governed command: one stderr line of admission + cache-pressure
/// telemetry, so runs under --host-budget-bytes/--cache-capacity-bytes show
/// what the envelopes did.
void report_governance(const FsStore& fs) {
  if (g_host_budget) {
    HostBudgetStats s = g_host_budget->stats();
    std::fprintf(stderr,
                 "admission: budget %s, %llu admitted, %llu waits, "
                 "%llu demand preemptions, peak in-flight %s\n",
                 format_size(g_host_budget->budget_bytes()).c_str(),
                 static_cast<unsigned long long>(s.admitted),
                 static_cast<unsigned long long>(s.waits),
                 static_cast<unsigned long long>(s.demand_preemptions),
                 format_size(s.peak_inflight_bytes).c_str());
  }
  if (fs.cache_capacity() != 0) {
    const CacheStats& c = fs.session_stats();
    std::fprintf(stderr,
                 "cache pressure: capacity %s, used %s, %llu evictions, "
                 "%llu rejected\n",
                 format_size(fs.cache_capacity()).c_str(),
                 format_size(fs.cache_bytes()).c_str(),
                 static_cast<unsigned long long>(c.evictions),
                 static_cast<unsigned long long>(c.rejected));
  }
}

/// run's reads through `container`, an instance of `ref`.
void read_for_run(LocalRuntime& runtime, const std::string& container,
                  const std::string& ref,
                  const std::vector<std::string>& paths) {
  // The regular files are read in one pass, through one union view; where
  // each comes from is decided first, in path order.
  const FsStore& local = runtime.store();
  GearIndex index = local.load_index(ref);
  std::vector<std::string> files;
  std::vector<const char*> sources;
  std::unordered_set<Fingerprint, FingerprintHash> fetched;
  for (const std::string& path : paths) {
    const vfs::FileNode* node = index.tree().lookup(path);
    if (node == nullptr || !node->is_fingerprint()) continue;
    files.push_back(path);
    bool cached = local.cache_contains(node->fingerprint()) ||
                  !fetched.insert(node->fingerprint()).second;
    sources.push_back(cached ? "cache" : "registry");
  }
  std::vector<StatusOr<Bytes>> contents = runtime.read(container, files);

  std::size_t next = 0;
  for (const std::string& path : paths) {
    const vfs::FileNode* node = index.tree().lookup(path);
    if (node == nullptr) {
      std::fprintf(stderr, "  %s: not in image\n", path.c_str());
      continue;
    }
    if (node->is_symlink()) {
      std::printf("  %s -> %s\n", path.c_str(), node->link_target().c_str());
      continue;
    }
    if (!node->is_fingerprint()) {
      std::printf("  %s: directory\n", path.c_str());
      continue;
    }
    const Fingerprint& fp = node->fingerprint();
    Bytes content = unwrap(std::move(contents[next]),
                           "run of " + path + " (" + fp.hex() + ")");
    std::printf("  %s: %s (%s, nlink=%llu, %s)\n", path.c_str(),
                format_size(content.size()).c_str(), sources[next],
                static_cast<unsigned long long>(local.link_count(fp)),
                fp.hex().substr(0, 12).c_str());
    ++next;
  }
  std::printf("local cache: %zu files, %s\n", local.cache_entries(),
              format_size(local.cache_bytes()).c_str());
  report_governance(local);
}

int cmd_run(Store& store, const std::string& ref,
            const std::vector<std::string>& paths) {
  // Launch = the client-side deployment path on the real filesystem:
  // install the index (level 2), create a container (level 3), then read
  // the requested files through it. The runtime materializes each stub from
  // the shared cache, or from the registry on the host budget's demand
  // lane, and hard-links it into the image's files/ directory.
  LocalRuntime runtime = make_runtime(store);
  runtime.pull(ref);
  std::string container = runtime.launch(ref);
  std::printf("launched %s from %s\n", container.c_str(), ref.c_str());
  // The container only serves these reads, so it is removed however they
  // end; `launch` keeps its container for read, write and commit.
  try {
    read_for_run(runtime, container, ref, paths);
  } catch (...) {
    runtime.destroy(container);
    throw;
  }
  runtime.destroy(container);
  return 0;
}

int cmd_launch(Store& store, const std::string& ref, bool lazy) {
  // The runtime talks to store.files(): the fleet router with --shards > 1,
  // the single backend otherwise — lazy fault-in works against both.
  LocalRuntime runtime = make_runtime(store);
  runtime.pull(ref);
  std::string container = runtime.launch(ref);
  std::printf("%s\n", container.c_str());
  if (lazy) {
    // Start-before-warm: the container id above is usable the moment the
    // index is local; the backfill below is the background half, warming
    // the remaining files in priority order after readiness is reported.
    std::fflush(stdout);
    std::unique_ptr<util::ThreadPool> pool = make_pool();
    auto [files, bytes] = runtime.prefetch(ref, g_prefetch_order, pool.get());
    std::fprintf(stderr, "backfilled %s (%s order): %zu files, %s\n",
                 ref.c_str(), prefetch_order_name(g_prefetch_order), files,
                 format_size(bytes).c_str());
  }
  report_governance(runtime.store());
  return 0;
}

int cmd_exec_read(Store& store, const std::string& container,
                  const std::string& path) {
  LocalRuntime runtime = make_runtime(store);
  StatusOr<Bytes> content = runtime.read(container, path);
  if (!content.ok()) {
    std::fprintf(stderr, "read failed: %s\n", path.c_str());
    return 1;
  }
  std::fwrite(content->data(), 1, content->size(), stdout);
  return 0;
}

int cmd_exec_write(Store& store, const std::string& container,
                   const std::string& path, const std::string& text) {
  LocalRuntime runtime = make_runtime(store);
  runtime.write(container, path, to_bytes(text));
  std::printf("wrote %zu bytes to %s:%s\n", text.size(), container.c_str(),
              path.c_str());
  return 0;
}

int cmd_prefetch(Store& store, const std::string& ref) {
  LocalRuntime runtime = make_runtime(store);
  if (!runtime.has_image(ref)) runtime.pull(ref);
  std::unique_ptr<util::ThreadPool> pool = make_pool();
  auto [files, bytes] = runtime.prefetch(ref, g_prefetch_order, pool.get());
  std::printf("prefetched %s (%s order): %zu files, %s\n", ref.c_str(),
              prefetch_order_name(g_prefetch_order), files,
              format_size(bytes).c_str());
  report_governance(runtime.store());
  return 0;
}

int cmd_commit(Store& store, const std::string& container,
               const std::string& ref) {
  std::size_t colon = ref.find(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "reference must be name:tag\n");
    return 2;
  }
  LocalRuntime runtime = make_runtime(store);
  std::string result = runtime.commit(container, ref.substr(0, colon),
                                      ref.substr(colon + 1));
  store.save();
  std::printf("committed %s as %s\n", container.c_str(), result.c_str());
  return 0;
}

int cmd_rm(Store& store, const std::string& ref) {
  if (!store.docker.delete_manifest(ref)) {
    std::fprintf(stderr, "no such image: %s\n", ref.c_str());
    return 1;
  }
  store.save();
  std::printf("removed %s (run gc to reclaim unreferenced files)\n",
              ref.c_str());
  return 0;
}

int cmd_gc(Store& store) {
  GearRegistry* single = require_single(store, "gc");
  if (single == nullptr) return 2;
  GearRegistryGc gc(store.docker, *single);
  GcReport report = gc.collect();
  // Then the catalog's own sweep: the index blobs of removed images.
  auto [blobs, blob_bytes] = store.docker.collect_garbage();
  store.save();
  std::printf("gc: scanned %zu indexes, %zu live objects, swept %zu "
              "(%s reclaimed, pack compacted by %s), swept %zu index blobs "
              "(%s)\n",
              report.indexes_scanned, report.live_objects,
              report.swept_objects,
              format_size(report.bytes_reclaimed).c_str(),
              format_size(report.bytes_compacted).c_str(), blobs,
              format_size(blob_bytes).c_str());
  return 0;
}

int cmd_scrub(Store& store) {
  GearRegistry* single = require_single(store, "scrub");
  if (single == nullptr) return 2;
  ScrubReport report = scrub_registry(*single);
  std::printf("scrub: %zu objects checked, %zu verified, %zu unverifiable "
              "(salted ids), %zu corrupt\n",
              report.objects_checked, report.verified, report.unverifiable,
              report.corrupt);
  for (const Fingerprint& fp : report.corrupt_fingerprints) {
    std::printf("  CORRUPT: %s\n", fp.hex().c_str());
  }
  return report.corrupt == 0 ? 0 : 1;
}

/// stats under --remote: reachability, how many of the locally referenced
/// gear files the daemon holds, and this session's wire accounting.
int cmd_stats_remote(Store& store) {
  // Reachability probe: a query for the zero fingerprint. Any decoded
  // answer — even "not found" — proves a live daemon; exhausted retries
  // throw kInternal.
  try {
    (void)store.files().query(Fingerprint{});
  } catch (const Error& e) {
    std::fprintf(stderr, "gearctl: remote %s:%u unreachable (%s)\n",
                 g_remote.host.c_str(), static_cast<unsigned>(g_remote.port),
                 e.what());
    return 1;
  }
  std::printf("remote registry: %s:%u reachable\n", g_remote.host.c_str(),
              static_cast<unsigned>(g_remote.port));
  std::printf("docker snapshot: %zu manifests, %zu blobs, %s\n",
              store.docker.manifest_count(), store.docker.blob_count(),
              format_size(store.docker.storage_bytes()).c_str());

  // Every distinct fingerprint referenced by the local gear images, probed
  // in batched queries (one round trip per 256 fingerprints).
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  std::vector<Fingerprint> referenced;
  for (const std::string& ref : store.docker.list_manifests()) {
    docker::Manifest m = store.docker.get_manifest(ref).value();
    if (m.config.labels.count(kGearIndexLabel) == 0) continue;
    GearIndex index = load_index_of(store, ref);
    for (const Fingerprint& fp : index.distinct_fingerprints()) {
      if (seen.insert(fp).second) referenced.push_back(fp);
    }
  }
  std::size_t present = 0;
  constexpr std::size_t kQueryBatch = 256;
  for (std::size_t b = 0; b < referenced.size(); b += kQueryBatch) {
    std::vector<Fingerprint> batch(
        referenced.begin() + static_cast<std::ptrdiff_t>(b),
        referenced.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(b + kQueryBatch, referenced.size())));
    std::vector<std::uint8_t> hits = store.files().query_many(batch);
    for (std::uint8_t hit : hits) present += hit ? 1 : 0;
  }
  std::printf("referenced gear files on remote: %zu / %zu present\n", present,
              referenced.size());

  const net::RemoteRegistryStats& s = store.remote->stats();
  std::printf("session wire stats: %llu round trips, %llu retries, "
              "%llu item refetches, %llu integrity failures\n",
              static_cast<unsigned long long>(s.requests.load()),
              static_cast<unsigned long long>(s.retries.load()),
              static_cast<unsigned long long>(s.item_refetches.load()),
              static_cast<unsigned long long>(s.integrity_failures.load()));
  return 0;
}

int cmd_stats(Store& store) {
  if (store.remote) return cmd_stats_remote(store);
  std::printf("docker registry: %zu manifests, %zu blobs, %s\n",
              store.docker.manifest_count(), store.docker.blob_count(),
              format_size(store.docker.storage_bytes()).c_str());
  if (const FleetRegistry* fleet = store.backend->fleet.get()) {
    const auto& shards = store.backend->shards;
    std::size_t objects = 0;
    std::uint64_t bytes = 0;
    for (const auto& shard : shards) {
      objects += shard->object_count();
      bytes += shard->storage_bytes();
    }
    std::printf("gear registry:   fleet of %zu shards (replicas %zu), "
                "%zu stored objects, %s\n",
                shards.size(), fleet->replication(), objects,
                format_size(bytes).c_str());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      std::printf("  shard %zu: %zu objects, %s\n", i,
                  shards[i]->object_count(),
                  format_size(shards[i]->storage_bytes()).c_str());
    }
  } else {
    std::printf("gear registry:   %zu objects, %s\n",
                store.single()->object_count(),
                format_size(store.single()->storage_bytes()).c_str());
  }

  // The local runtime's on-disk cache (level 1 of the three-level store)
  // under this invocation's governance flags, plus its session telemetry —
  // commands that ran in this process (launch/prefetch/read) land here.
  FsStore local(store.root / "local");
  const CacheStats& cache = local.session_stats();
  std::printf("local cache:     %zu files, %s used, capacity %s, "
              "eviction %s\n",
              local.cache_entries(), format_size(local.cache_bytes()).c_str(),
              g_cache_capacity_bytes == 0
                  ? "unbounded"
                  : format_size(g_cache_capacity_bytes).c_str(),
              g_eviction == EvictionPolicy::kFifo ? "fifo" : "lru");
  std::printf("  session: %llu hits, %llu misses, %llu insertions, "
              "%llu evictions, %llu rejected\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.insertions),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.rejected));
  if (g_host_budget) {
    HostBudgetStats s = g_host_budget->stats();
    std::printf("admission:       budget %s, %llu admitted, %llu waits, "
                "%llu demand preemptions, peak in-flight %s\n",
                format_size(g_host_budget->budget_bytes()).c_str(),
                static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(s.waits),
                static_cast<unsigned long long>(s.demand_preemptions),
                format_size(s.peak_inflight_bytes).c_str());
  } else {
    std::printf("admission:       ungoverned (no --host-budget-bytes)\n");
  }
  return 0;
}

/// `gearctl serve`: run the gear-file registry as a TCP daemon. Mounts a
/// DiskObjectStore at --store-dir (or a --shards fleet of them) behind a
/// FrameServer and serves wire frames until SIGTERM/SIGINT. Collision
/// verdicts (kDigestMany) read and hash their objects on a pool of
/// --workers threads. Prints "serving on HOST:PORT" once bound — with
/// --addr HOST:0 the kernel picks the port and this line is how callers
/// learn it.
int cmd_serve() {
  FileBackend backend(g_object_store_dir);
  std::unique_ptr<util::ThreadPool> pool = make_pool();
  net::FrameServer frames(backend.files(), pool.get());
  net::TcpServer server(frames);

  // Handlers go in before the socket opens: a supervisor that signals the
  // moment it reads "serving on" must never catch the default disposition.
  g_serve_stop = 0;
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  server.start(g_addr.host, g_addr.port);
  std::printf("serving on %s:%u\n", g_addr.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  std::uint64_t syncs = 0;
  for (const DiskObjectStore* store : backend.stores) syncs += store->syncs();
  std::fprintf(stderr,
               "gearctl serve: shut down (%llu connections, %llu frames "
               "served, %llu rejected, %llu store syncs)\n",
               static_cast<unsigned long long>(server.connections_accepted()),
               static_cast<unsigned long long>(server.frames_served()),
               static_cast<unsigned long long>(server.frames_rejected()),
               static_cast<unsigned long long>(syncs));
  return 0;
}

// cluster-sim: replay a jittered multi-site deploy storm over the
// hierarchical P2P topology, entirely in process (synthetic corpus +
// simulated links — no store dir, no daemon). Reports the per-site WAN
// split, the LAN traffic that replaced it, and the peer-hit ladder; with
// --churn the first site's seed crashes mid-storm and rejoins before the
// last wave. Exit 1 if cooperation moved nothing (no peer hits on a
// multi-node topology).
int cmd_cluster_sim() {
  const std::uint64_t kSeed = 42;
  const double kScale = 0.05;  // shrink the corpus: a CLI run, not a bench
  workload::CorpusGenerator gen(kSeed, kScale);
  workload::SeriesSpec spec;
  for (const auto& s : workload::table1_corpus()) {
    if (s.name == "node") spec = s;
  }
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  push_gear_image(GearConverter().convert(gen.generate_image(spec, 0)).image,
                  index_registry, file_registry);
  const std::string reference = "node:v0";
  workload::AccessSet access = gen.access_set(spec, 0);

  p2p::Topology::Params tp;
  tp.sites = g_sites;
  tp.nodes_per_site = g_nodes_per_site;
  tp.wan_link = sim::wan_profile(g_wan_mbps);
  tp.lan_link = sim::lan_profile(g_lan_mbps);
  tp.byte_scale = kScale;
  tp.prefetch_order = g_prefetch_order;
  p2p::Topology topo(index_registry, file_registry, tp);

  std::vector<workload::StormEvent> storm = workload::generate_deploy_storm(
      g_sites, g_nodes_per_site, /*mean_jitter_seconds=*/2.0, kSeed);
  std::printf("cluster-sim: %zu site%s x %zu nodes, wan %.0f Mbps, "
              "lan %.0f Mbps, %s deploys%s\n",
              g_sites, g_sites == 1 ? "" : "s", g_nodes_per_site, g_wan_mbps,
              g_lan_mbps, g_sim_lazy ? "lazy" : "eager",
              g_churn ? ", churn on" : "");

  // Crash the first site's seed once a third of the storm has landed, rejoin
  // it before the final event: fetchers must degrade past its stale adverts
  // and the rejoin must re-announce.
  const std::size_t crash_at = g_churn ? storm.size() / 3 + 1 : storm.size();
  const std::size_t rejoin_at = g_churn ? storm.size() - 1 : storm.size();
  std::size_t seed_site = 0;
  std::size_t seed_node = 0;
  for (const workload::StormEvent& ev : storm) {
    if (ev.site == 0 && ev.site_seed) {
      seed_site = ev.site;
      seed_node = ev.node;
      break;
    }
  }
  for (std::size_t i = 0; i < storm.size(); ++i) {
    if (i == crash_at) {
      topo.crash_node(seed_site, seed_node);
      std::printf("churn: crashed s%zu.n%zu mid-storm (adverts left stale)\n",
                  seed_site, seed_node);
    }
    if (i == rejoin_at) {
      topo.rejoin_node(seed_site, seed_node);
      std::printf("churn: rejoined s%zu.n%zu (cache re-announced)\n",
                  seed_site, seed_node);
    }
    const workload::StormEvent& ev = storm[i];
    if (g_churn && ev.site == seed_site && ev.node == seed_node &&
        i >= crash_at && i < rejoin_at) {
      continue;  // the crashed node deploys nothing while down
    }
    sim::SimClock& clock = topo.node_clock(ev.site, ev.node);
    if (clock.now() < ev.arrival_seconds) {
      clock.advance(ev.arrival_seconds - clock.now());
    }
    if (g_sim_lazy) {
      topo.deploy(ev.site, ev.node, reference, access, nullptr,
                  DeployMode::kLazy);
      topo.backfill(ev.site, ev.node, reference);
    } else {
      topo.deploy(ev.site, ev.node, reference, access);
      topo.prefetch(ev.site, ev.node, reference);
    }
  }

  for (std::size_t s = 0; s < g_sites; ++s) {
    std::printf("site %zu: wan %s, lan %s\n", s,
                format_size(topo.wan_bytes(s)).c_str(),
                format_size(topo.lan_bytes(s)).c_str());
  }
  double makespan = 0;
  for (std::size_t s = 0; s < g_sites; ++s) {
    for (std::size_t n = 0; n < g_nodes_per_site; ++n) {
      makespan = std::max(makespan, topo.node_clock(s, n).now());
    }
  }
  std::printf("totals: wan %s (cross-site peers %s), lan %s over %llu "
              "bursts, peer hits %llu (lan %llu, wan %llu), storm %s\n",
              format_size(topo.wan_bytes()).c_str(),
              format_size(topo.wan_peer_bytes()).c_str(),
              format_size(topo.lan_bytes()).c_str(),
              static_cast<unsigned long long>(topo.lan_bursts()),
              static_cast<unsigned long long>(topo.peer_hits()),
              static_cast<unsigned long long>(topo.lan_peer_hits()),
              static_cast<unsigned long long>(topo.wan_peer_hits()),
              format_duration(makespan).c_str());

  if (topo.size() > 1 && topo.peer_hits() == 0) {
    std::fprintf(stderr,
                 "gearctl: cluster-sim moved no bytes between peers on a "
                 "%zu-node topology\n",
                 topo.size());
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gearctl [--workers N] [--store-dir PATH] "
               "[--shards N] [--replicas R] "
               "[--range-batch N] [--prefetch-order ORDER] [--lazy] "
               "[--host-budget-bytes N] [--cache-capacity-bytes N] "
               "[--eviction fifo|lru] "
               "[--remote HOST:PORT] <store-dir> <command> [args]\n"
               "       gearctl serve --addr HOST:PORT --store-dir PATH "
               "[--workers N] [--shards N] [--replicas R]\n"
               "       gearctl cluster-sim [--sites N] [--nodes-per-site N] "
               "[--wan-mbps F] [--lan-mbps F] [--mode eager|lazy] [--churn]\n"
               "  --workers N      worker threads for import's fingerprinting/"
               "compression and serve's collision verdicts (default: one per "
               "core)\n"
               "  --store-dir PATH where the durable object store of the "
               "gear files lives (default: the store dir itself)\n"
               "  --shards N       route the gear files over a fleet of N "
               "disk-backed registry instances (consistent-hash ring; "
               "requires --store-dir)\n"
               "  --replicas R     store every gear file on R distinct "
               "shards (default 1; must not exceed --shards)\n"
               "  --range-batch N  chunk indices per batched range request in "
               "ranged cat (default 64; 1 = serial per-chunk)\n"
               "  --lazy           launch only: print the container id as soon "
               "as the index is installed, then backfill the remaining files "
               "in --prefetch-order behind it\n"
               "  --prefetch-order path|delta|profile  queue discipline of "
               "the prefetch command (default delta)\n"
               "  --host-budget-bytes N  host-wide in-flight byte budget: "
               "every download this invocation stages acquires admission "
               "first (demand faults above prefetch; default ungoverned)\n"
               "  --cache-capacity-bytes N  disk envelope of the local "
               "runtime cache; inserts evict unlinked entries in --eviction "
               "order when it would overflow (default unbounded)\n"
               "  --eviction fifo|lru  cache eviction policy under "
               "--cache-capacity-bytes (default lru)\n"
               "  --remote HOST:PORT dial a `gearctl serve` daemon for the "
               "gear files instead of opening a local store (the docker "
               "catalog stays under <store-dir>)\n"
               "  --addr HOST:PORT serve only: the endpoint to bind "
               "(HOST:0 = kernel-assigned port, printed on stdout)\n"
               "  --sites N / --nodes-per-site N  cluster-sim only: shape "
               "of the simulated edge topology (defaults 2 x 3)\n"
               "  --wan-mbps F / --lan-mbps F  cluster-sim only: inter-site "
               "and in-site link speeds (defaults 50 / 1000)\n"
               "  --mode eager|lazy  cluster-sim only: deploy mode of the "
               "storm (default eager)\n"
               "  --churn          cluster-sim only: crash the first site's "
               "seed mid-storm and rejoin it before the last wave\n"
               "commands: serve | cluster-sim | "
               "init | import <dir> <name:tag> [chunk-threshold] | "
               "images | inspect <ref> | cat <ref> <path> [offset length] | "
               "export <ref> <dir> | run <ref> <path...> | "
               "launch [--lazy] <ref> | "
               "read <container> <path> | write <container> <path> <text> | "
               "commit <container> <name:tag> | prefetch <ref> | rm <ref> | "
               "gc | scrub | stats\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> all(argv + 1, argv + argc);
  for (auto it = all.begin(); it != all.end();) {
    if (*it == "--workers") {
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: --workers requires a count\n");
        return 2;
      }
      const std::string& value = *std::next(it);
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0') {
        std::fprintf(stderr, "gearctl: --workers expects a number, got '%s'\n",
                     value.c_str());
        return 2;
      }
      g_concurrency.workers = static_cast<std::size_t>(parsed);
      it = all.erase(it, it + 2);
    } else if (*it == "--range-batch") {
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: --range-batch requires a count\n");
        return 2;
      }
      const std::string& value = *std::next(it);
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || parsed < 1) {
        std::fprintf(stderr,
                     "gearctl: --range-batch expects a number >= 1, got '%s'\n",
                     value.c_str());
        return 2;
      }
      g_range_batch = static_cast<std::size_t>(parsed);
      it = all.erase(it, it + 2);
    } else if (*it == "--prefetch-order") {
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: --prefetch-order requires a value\n");
        return 2;
      }
      const std::string& value = *std::next(it);
      std::optional<PrefetchOrder> order = parse_prefetch_order(value);
      if (!order.has_value()) {
        std::fprintf(stderr,
                     "gearctl: --prefetch-order expects path, delta or "
                     "profile, got '%s'\n",
                     value.c_str());
        return 2;
      }
      g_prefetch_order = *order;
      it = all.erase(it, it + 2);
    } else if (*it == "--store-dir") {
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: --store-dir requires a path\n");
        return 2;
      }
      const std::string& value = *std::next(it);
      if (value.empty()) {
        std::fprintf(stderr, "gearctl: --store-dir expects a non-empty path\n");
        return 2;
      }
      g_object_store_dir = value;
      it = all.erase(it, it + 2);
    } else if (*it == "--shards" || *it == "--replicas") {
      const bool is_shards = *it == "--shards";
      const char* flag = is_shards ? "--shards" : "--replicas";
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: %s requires a count\n", flag);
        return 2;
      }
      const std::string& value = *std::next(it);
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || parsed < 1) {
        std::fprintf(stderr, "gearctl: %s expects a number >= 1, got '%s'\n",
                     flag, value.c_str());
        return 2;
      }
      (is_shards ? g_shards : g_replicas) = static_cast<std::size_t>(parsed);
      it = all.erase(it, it + 2);
    } else if (*it == "--remote" || *it == "--addr") {
      const bool is_remote = *it == "--remote";
      const char* flag = is_remote ? "--remote" : "--addr";
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: %s requires HOST:PORT\n", flag);
        return usage();
      }
      StatusOr<net::HostPort> parsed = net::parse_host_port(*std::next(it));
      if (!parsed.ok()) {
        std::fprintf(stderr, "gearctl: %s: %s\n", flag,
                     parsed.message().c_str());
        return usage();
      }
      if (is_remote && parsed->port == 0) {
        std::fprintf(stderr, "gearctl: --remote cannot dial port 0\n");
        return usage();
      }
      (is_remote ? g_remote : g_addr) = *parsed;
      (is_remote ? g_remote_set : g_addr_set) = true;
      it = all.erase(it, it + 2);
    } else if (*it == "--host-budget-bytes" ||
               *it == "--cache-capacity-bytes") {
      const bool is_budget = *it == "--host-budget-bytes";
      const char* flag =
          is_budget ? "--host-budget-bytes" : "--cache-capacity-bytes";
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: %s requires a byte count\n", flag);
        return 2;
      }
      const std::string& value = *std::next(it);
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || parsed < 1) {
        std::fprintf(stderr,
                     "gearctl: %s expects a byte count >= 1, got '%s'\n",
                     flag, value.c_str());
        return 2;
      }
      (is_budget ? g_host_budget_bytes : g_cache_capacity_bytes) =
          static_cast<std::uint64_t>(parsed);
      it = all.erase(it, it + 2);
    } else if (*it == "--eviction") {
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: --eviction requires fifo or lru\n");
        return 2;
      }
      const std::string& value = *std::next(it);
      if (value == "fifo") {
        g_eviction = EvictionPolicy::kFifo;
      } else if (value == "lru") {
        g_eviction = EvictionPolicy::kLru;
      } else {
        std::fprintf(stderr,
                     "gearctl: --eviction expects fifo or lru, got '%s'\n",
                     value.c_str());
        return 2;
      }
      it = all.erase(it, it + 2);
    } else if (*it == "--sites" || *it == "--nodes-per-site") {
      const bool is_sites = *it == "--sites";
      const char* flag = is_sites ? "--sites" : "--nodes-per-site";
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: %s requires a count\n", flag);
        return 2;
      }
      const std::string& value = *std::next(it);
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
      if (value.empty() || end == nullptr || *end != '\0' || parsed < 1) {
        std::fprintf(stderr, "gearctl: %s expects a number >= 1, got '%s'\n",
                     flag, value.c_str());
        return 2;
      }
      (is_sites ? g_sites : g_nodes_per_site) =
          static_cast<std::size_t>(parsed);
      (is_sites ? g_sites_set : g_nodes_per_site_set) = true;
      it = all.erase(it, it + 2);
    } else if (*it == "--wan-mbps" || *it == "--lan-mbps") {
      const bool is_wan = *it == "--wan-mbps";
      const char* flag = is_wan ? "--wan-mbps" : "--lan-mbps";
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: %s requires a link speed\n", flag);
        return 2;
      }
      const std::string& value = *std::next(it);
      char* end = nullptr;
      double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || end == nullptr || *end != '\0' || parsed <= 0 ||
          !(parsed == parsed)) {
        std::fprintf(stderr,
                     "gearctl: %s expects megabits/second > 0, got '%s'\n",
                     flag, value.c_str());
        return 2;
      }
      (is_wan ? g_wan_mbps : g_lan_mbps) = parsed;
      (is_wan ? g_wan_mbps_set : g_lan_mbps_set) = true;
      it = all.erase(it, it + 2);
    } else if (*it == "--mode") {
      if (std::next(it) == all.end()) {
        std::fprintf(stderr, "gearctl: --mode requires eager or lazy\n");
        return 2;
      }
      const std::string& value = *std::next(it);
      if (value == "eager") {
        g_sim_lazy = false;
      } else if (value == "lazy") {
        g_sim_lazy = true;
      } else {
        std::fprintf(stderr,
                     "gearctl: --mode expects eager or lazy, got '%s'\n",
                     value.c_str());
        return 2;
      }
      g_mode_set = true;
      it = all.erase(it, it + 2);
    } else if (*it == "--churn") {
      g_churn = true;
      it = all.erase(it);
    } else if (*it == "--lazy") {
      g_lazy = true;
      it = all.erase(it);
    } else {
      ++it;
    }
  }
  if (g_host_budget_bytes != 0) {
    g_host_budget = std::make_unique<HostBudget>(
        g_host_budget_bytes, AdmissionOrder::kSmallestFirst);
  }
  if (g_replicas > g_shards) {
    std::fprintf(stderr, "gearctl: --replicas %zu exceeds --shards %zu\n",
                 g_replicas, g_shards);
    return 2;
  }
  if (g_shards > 1 && g_object_store_dir.empty()) {
    std::fprintf(stderr,
                 "gearctl: --shards > 1 requires --store-dir (each shard "
                 "keeps its objects under <store-dir>/shard-<i>)\n");
    return 2;
  }

  // `cluster-sim` is a self-contained simulation: no store-dir positional,
  // no daemon — just the edge-topology knobs.
  const bool cluster_sim_cmd = !all.empty() && all[0] == "cluster-sim";
  if (!cluster_sim_cmd &&
      (g_sites_set || g_nodes_per_site_set || g_wan_mbps_set ||
       g_lan_mbps_set || g_mode_set || g_churn)) {
    std::fprintf(stderr,
                 "gearctl: --sites/--nodes-per-site/--wan-mbps/--lan-mbps/"
                 "--mode/--churn are only valid with cluster-sim\n");
    return usage();
  }
  if (cluster_sim_cmd) {
    if (all.size() != 1) {
      std::fprintf(stderr,
                   "gearctl: cluster-sim takes no positional arguments\n");
      return usage();
    }
    if (g_remote_set || g_addr_set || g_lazy || !g_object_store_dir.empty() ||
        g_shards > 1) {
      std::fprintf(stderr,
                   "gearctl: cluster-sim is incompatible with "
                   "--remote/--addr/--lazy/--store-dir/--shards\n");
      return usage();
    }
    try {
      return cmd_cluster_sim();
    } catch (const Error& e) {
      std::fprintf(stderr, "gearctl: %s\n", e.what());
      return 1;
    }
  }

  // `serve` takes no store-dir positional: the daemon owns no docker half,
  // only the object store named by --store-dir.
  if (!all.empty() && all[0] == "serve") {
    if (all.size() != 1) {
      std::fprintf(stderr, "gearctl: serve takes no positional arguments\n");
      return usage();
    }
    if (!g_addr_set) {
      std::fprintf(stderr, "gearctl: serve requires --addr HOST:PORT\n");
      return usage();
    }
    if (g_object_store_dir.empty()) {
      std::fprintf(stderr,
                   "gearctl: serve requires --store-dir (the daemon's "
                   "durable object store)\n");
      return usage();
    }
    if (g_remote_set || g_lazy) {
      std::fprintf(stderr,
                   "gearctl: serve is incompatible with --remote/--lazy\n");
      return usage();
    }
    try {
      return cmd_serve();
    } catch (const Error& e) {
      std::fprintf(stderr, "gearctl: %s\n", e.what());
      return 1;
    }
  }
  if (g_addr_set) {
    std::fprintf(stderr, "gearctl: --addr is only valid with serve\n");
    return usage();
  }
  if (g_remote_set && (!g_object_store_dir.empty() || g_shards > 1)) {
    std::fprintf(stderr,
                 "gearctl: --remote is incompatible with --store-dir/--shards "
                 "(the daemon owns the object store)\n");
    return usage();
  }

  if (all.size() < 2) return usage();
  std::string store_dir = all[0];
  std::string cmd = all[1];
  std::vector<std::string> args(all.begin() + 2, all.end());
  if (g_lazy && cmd != "launch") {
    std::fprintf(stderr, "gearctl: --lazy is only valid with launch\n");
    return 2;
  }

  // A decimal count: digits only (no sign, space or suffix) and no overflow.
  auto parse_u64 = [](const std::string& value, std::uint64_t* out) {
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    errno = 0;
    *out = std::strtoull(value.c_str(), nullptr, 10);
    return errno == 0;
  };

  try {
    Store store(store_dir, /*must_exist=*/cmd != "init");
    if (cmd == "init" && args.empty()) return cmd_init(store);
    if (cmd == "import" && (args.size() == 2 || args.size() == 3)) {
      std::uint64_t threshold = 0;
      if (args.size() == 3 && !parse_u64(args[2], &threshold)) {
        std::fprintf(stderr,
                     "gearctl: import chunk threshold expects a byte count, "
                     "got '%s'\n",
                     args[2].c_str());
        return 2;
      }
      return cmd_import(store, args[0], args[1], threshold);
    }
    if (cmd == "images" && args.empty()) return cmd_images(store);
    if (cmd == "inspect" && args.size() == 1) return cmd_inspect(store, args[0]);
    if (cmd == "cat" && args.size() == 2) {
      return cmd_cat(store, args[0], args[1]);
    }
    if (cmd == "cat" && args.size() == 4) {
      std::uint64_t offset = 0;
      std::uint64_t length = 0;
      if (!parse_u64(args[2], &offset) || !parse_u64(args[3], &length) ||
          length == 0) {
        std::fprintf(stderr,
                     "gearctl: cat range expects numeric offset and a length "
                     ">= 1\n");
        return 2;
      }
      return cmd_cat_range(store, args[0], args[1], offset, length);
    }
    if (cmd == "export" && args.size() == 2) {
      return cmd_export(store, args[0], args[1]);
    }
    if (cmd == "launch" && args.size() == 1) {
      return cmd_launch(store, args[0], g_lazy);
    }
    if (cmd == "read" && args.size() == 2) {
      return cmd_exec_read(store, args[0], args[1]);
    }
    if (cmd == "write" && args.size() == 3) {
      return cmd_exec_write(store, args[0], args[1], args[2]);
    }
    if (cmd == "commit" && args.size() == 2) {
      return cmd_commit(store, args[0], args[1]);
    }
    if (cmd == "prefetch" && args.size() == 1) {
      return cmd_prefetch(store, args[0]);
    }
    if (cmd == "run" && args.size() >= 2) {
      return cmd_run(store, args[0],
                     std::vector<std::string>(args.begin() + 1, args.end()));
    }
    if (cmd == "rm" && args.size() == 1) return cmd_rm(store, args[0]);
    if (cmd == "gc" && args.empty()) return cmd_gc(store);
    if (cmd == "scrub" && args.empty()) return cmd_scrub(store);
    if (cmd == "stats" && args.empty()) return cmd_stats(store);
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "gearctl: %s\n", e.what());
    return 1;
  }
}
