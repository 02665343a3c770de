#include "gear/client.hpp"

#include <condition_variable>
#include <future>

#include "compress/codec.hpp"
#include "gear/converter.hpp"

namespace gear {

/// One in-flight registry download, shared by every concurrent
/// materialization of the same fingerprint.
struct GearClient::Inflight {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Bytes content;
  std::exception_ptr error;
};

std::size_t push_gear_image(const GearImage& image,
                            docker::DockerRegistry& index_registry,
                            FileRegistryApi& file_registry,
                            const ChunkPolicy& chunk_policy,
                            util::ThreadPool* pool,
                            std::uint64_t max_inflight_bytes) {
  // Upload only the Gear files whose fingerprints the registry lacks
  // (paper §III-C: compare fingerprints, upload the absent ones).
  // Presence check: one query_many in file order — a single wire round-trip
  // against a remote registry, the exact per-file query loop in-process.
  std::vector<Fingerprint> all_fps;
  all_fps.reserve(image.files.size());
  for (const auto& [fp, content] : image.files) all_fps.push_back(fp);
  std::vector<std::uint8_t> present = file_registry.query_many(all_fps);

  std::vector<const Bytes*> plain;  // absent plain files, in file order
  for (std::size_t i = 0; i < image.files.size(); ++i) {
    const Bytes& content = image.files[i].second;
    if (!present[i] && !chunk_policy.applies_to(content.size())) {
      plain.push_back(&content);
    }
  }

  // Compression overlaps the uploads: with workers, one task per plain file
  // is submitted in file order, while at most `max_inflight_bytes` of
  // source (an oversized file alone) is compressed or compressing ahead of
  // the uploader. Without workers, each frame is compressed when its burst
  // needs it. compress() is deterministic, so the frames, and the bursts
  // cut from them, are the same either way.
  const bool ahead = pool != nullptr && pool->worker_count() > 1;
  std::vector<std::future<Bytes>> pending(ahead ? plain.size() : 0);
  // Every exit, an exception included, first waits out the submitted
  // tasks: they read `image`, which the caller may free once this throws.
  struct WaitForTasks {
    explicit WaitForTasks(std::vector<std::future<Bytes>>& t) : tasks(t) {}
    WaitForTasks(const WaitForTasks&) = delete;
    WaitForTasks& operator=(const WaitForTasks&) = delete;
    ~WaitForTasks() {
      for (std::future<Bytes>& task : tasks) {
        if (task.valid()) task.wait();
      }
    }
    std::vector<std::future<Bytes>>& tasks;
  } wait_for_tasks(pending);
  std::size_t submitted = 0;
  std::uint64_t ahead_bytes = 0;  // source bytes submitted, not yet taken
  auto submit_ahead = [&] {
    for (; submitted < plain.size(); ++submitted) {
      const Bytes& content = *plain[submitted];
      if (max_inflight_bytes != 0 && ahead_bytes != 0 &&
          ahead_bytes + content.size() > max_inflight_bytes) {
        return;
      }
      ahead_bytes += content.size();
      pending[submitted] =
          pool->submit([&content] { return compress(content); });
    }
  };
  std::size_t taken = 0;
  auto take_frame = [&] {
    const Bytes& content = *plain[taken];
    if (!ahead) {
      ++taken;
      return compress(content);
    }
    // Frame `taken` is submitted: the call before this one refilled the
    // budget it freed, and a budget holding nothing admits the next file.
    Bytes frame = pending[taken++].get();
    ahead_bytes -= content.size();
    submit_ahead();
    return frame;
  };
  if (ahead) submit_ahead();

  // Insertion round: serial and ordered. Each run of plain files between
  // chunked uploads goes out in the bursts batch_slices would cut from its
  // frame sizes (one upload_precompressed_batch round-trip each when
  // remote), and a burst leaves as soon as it is full, so the uploader
  // waits only for the frames the current burst needs. The registry sees
  // every insert in file order, so stats and storage accounting match the
  // serial run exactly. The count is what the registry stored, not what was
  // sent: a file that another client stored after the query is not ours.
  std::size_t uploaded = 0;
  std::vector<std::pair<Fingerprint, Bytes>> burst;
  BatchSlice extent;  // the burst's frame count and bytes
  auto flush = [&] {
    if (burst.empty()) return;
    uploaded += file_registry.upload_precompressed_batch(std::move(burst));
    burst.clear();
    extent = {};
  };
  for (std::size_t i = 0; i < image.files.size(); ++i) {
    if (present[i]) continue;
    const auto& [fp, content] = image.files[i];
    if (chunk_policy.applies_to(content.size())) {
      flush();
      if (file_registry.upload_chunked(fp, content, chunk_policy)) ++uploaded;
      continue;
    }
    Bytes frame = take_frame();
    if (!burst.empty() && !batch_slice_has_room(extent, frame.size(), 0)) {
      flush();
    }
    ++extent.end;
    extent.bytes += frame.size();
    burst.emplace_back(fp, std::move(frame));
    if (!batch_slice_has_room(extent, 0, 0)) flush();
  }
  flush();
  index_registry.push_image(image.index_image);
  return uploaded;
}

GearClient::GearClient(docker::DockerRegistry& index_registry,
                       FileRegistryApi& file_registry, sim::NetworkLink& link,
                       sim::DiskModel& disk, docker::RuntimeParams params,
                       std::uint64_t cache_capacity_bytes,
                       EvictionPolicy policy)
    : index_registry_(index_registry),
      file_registry_(file_registry),
      link_(link),
      disk_(disk),
      params_(params),
      store_(cache_capacity_bytes, policy) {}

docker::PullStats GearClient::pull(const std::string& reference) {
  docker::PullStats stats;
  sim::SimTimer timer(link_.clock());

  StatusOr<docker::Manifest> manifest_or =
      index_registry_.get_manifest(reference);
  if (!manifest_or.ok()) {
    throw_error(manifest_or.code(),
                "pull: manifest of " + reference + ": " +
                    manifest_or.message());
  }
  docker::Manifest manifest = std::move(manifest_or).value();
  link_.request(manifest.wire_size());
  stats.bytes_downloaded += manifest.wire_size();

  if (store_.has_index(reference)) {
    stats.layers_local = manifest.layers.size();
    stats.seconds = timer.elapsed();
    return stats;
  }

  if (manifest.config.labels.count(kGearIndexLabel) == 0) {
    throw_error(ErrorCode::kInvalidArgument,
                reference + " is not a Gear index image");
  }
  if (manifest.layers.size() != 1) {
    throw_error(ErrorCode::kCorruptData,
                "Gear index image must have exactly one layer");
  }

  const docker::LayerDescriptor& desc = manifest.layers.front();
  StatusOr<Bytes> blob_or = index_registry_.get_blob(desc.digest);
  if (!blob_or.ok()) {
    throw_error(blob_or.code(), "pull: index layer " + desc.digest.to_string() +
                                    " of " + reference + ": " +
                                    blob_or.message());
  }
  Bytes blob = std::move(blob_or).value();
  link_.request(blob.size());
  stats.bytes_downloaded += blob.size();
  ++stats.layers_fetched;
  disk_.write(blob.size());

  docker::Layer layer = docker::Layer::from_blob(std::move(blob), desc.digest);
  GearIndex index = GearIndex::from_wire_tree(layer.to_tree());
  disk_.write(layer.uncompressed_size());  // set up the level-2 index dir
  store_.add_index(reference, std::move(index));

  stats.seconds = timer.elapsed();
  return stats;
}

Bytes GearClient::fetch_from_registry(const std::string& reference,
                                      const Fingerprint& fp,
                                      std::uint64_t size,
                                      std::uint64_t* downloaded) {
  // Concurrent callers for the same fingerprint never get here twice — the
  // singleflight layer above admits one leader per flight. The registry is
  // not thread-safe, so leaders of *different* flights serialize their
  // downloads on download_mutex_; it is separate from state_mutex_ so a
  // joiner's cache probe never queues behind a download in progress.
  //
  // Register on the demand lane for the duration of the fetch: a running
  // backfill drain launches no new batch until this fault completes, and
  // the fault's bytes count against the shared in-flight budget.
  DemandScope demand(&demand_lane_, size);
  // Host-wide admission: a demand fault takes the strict-priority lane of
  // the shared budget — admitted ahead of every queued background batch.
  BudgetLease budget(host_budget_, size, AdmissionLane::kDemand, size);
  std::uint64_t wire = 0;
  std::unique_lock<std::mutex> download_lock(download_mutex_);
  StatusOr<std::vector<Bytes>> got =
      file_registry_.download_batch({fp}, nullptr, &wire);
  download_lock.unlock();
  if (!got.ok()) {
    throw_error(got.code(), "materialize " + fp.hex() + ": " + got.message());
  }
  Bytes content = std::move((*got)[0]);
  if (content.size() != size) {
    throw_error(ErrorCode::kCorruptData,
                "gear file size mismatch: " + fp.hex());
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!file_registry_.transport_accounted()) {
    // Chunked files move as one pipelined burst of manifest + chunks.
    if (file_registry_.is_chunked(fp)) {
      StatusOr<ChunkManifest> manifest = file_registry_.chunk_manifest(fp);
      if (!manifest.ok()) {
        throw_error(manifest.code(), "materialize " + fp.hex() +
                                         ": manifest: " + manifest.message());
      }
      link_.pipelined(wire, manifest->chunks.size() + 1);
    } else {
      link_.request(wire);
    }
  }
  *downloaded += wire;
  disk_.write(content.size());
  // A bounded cache may refuse the insert (everything else pinned). The
  // container still gets the file — it lives only in this image's index
  // directory then, unavailable for cross-image sharing.
  if (store_.cache().put(fp, content)) {
    store_.record_link(reference, fp);
  }
  return content;
}

void GearClient::record_access(const std::string& reference,
                               const std::string& path) {
  std::lock_guard<std::mutex> lock(profiles_mutex_);
  profiles_[series_of(reference)].record(path);
}

ImageAccessProfile GearClient::access_profile(const std::string& series) const {
  std::lock_guard<std::mutex> lock(profiles_mutex_);
  auto it = profiles_.find(series);
  return it == profiles_.end() ? ImageAccessProfile{} : it->second;
}

void GearClient::merge_access_profile(const std::string& series,
                                      const ImageAccessProfile& profile) {
  std::lock_guard<std::mutex> lock(profiles_mutex_);
  profiles_[series].merge(profile);
}

Bytes GearClient::materialize(const std::string& reference,
                              const std::string& path, const Fingerprint& fp,
                              std::uint64_t size, std::uint64_t* downloaded,
                              bool record_access_flag) {
  // A materializer call means the index node was still a stub — a genuine
  // first touch of this file, the signal the prefetch scheduler ranks by.
  if (record_access_flag) record_access(reference, path);
  // Level 1 first: the shared cache.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (StatusOr<Bytes> cached = store_.cache().get(fp); cached.ok()) {
      disk_.touch();  // hard-link the cached file into the index
      store_.record_link(reference, fp);
      return std::move(cached).value();
    }
  }
  // Cooperative tiers next (cluster peers, §VI-B) — cheaper than the WAN.
  // Invoked outside the locks: the callbacks may reach into other clients.
  if (has_peer_source()) {
    if (std::optional<Bytes> peer = consult_peer_tiers(fp, size)) {
      if (peer->size() != size) {
        throw_error(ErrorCode::kCorruptData,
                    "peer served wrong size for " + fp.hex());
      }
      std::lock_guard<std::mutex> lock(state_mutex_);
      disk_.write(peer->size());
      if (store_.cache().put(fp, *peer)) {
        store_.record_link(reference, fp);
      }
      return std::move(*peer);
    }
  }

  // Miss: fetch from the Gear Registry on demand — but only once per
  // fingerprint at a time. The first caller becomes the flight's leader and
  // downloads; concurrent callers join the flight and share its content.
  std::shared_ptr<Inflight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = inflight_.find(fp);
    if (it == inflight_.end()) {
      flight = std::make_shared<Inflight>();
      inflight_.emplace(fp, flight);
      leader = true;
    } else {
      flight = it->second;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> flight_lock(flight->m);
    flight->cv.wait(flight_lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    coalesced_hits_.fetch_add(1, std::memory_order_relaxed);
    // The leader paid the download, disk write, and cache insert; a joiner
    // only hard-links the now-cached file into its own image.
    std::lock_guard<std::mutex> lock(state_mutex_);
    disk_.touch();
    store_.record_link(reference, fp);
    return flight->content;
  }

  try {
    Bytes content = fetch_from_registry(reference, fp, size, downloaded);
    {
      std::lock_guard<std::mutex> flight_lock(flight->m);
      flight->content = content;
      flight->done = true;
    }
    flight->cv.notify_all();
    std::lock_guard<std::mutex> lock(flights_mutex_);
    inflight_.erase(fp);
    return content;
  } catch (...) {
    {
      std::lock_guard<std::mutex> flight_lock(flight->m);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->cv.notify_all();
    std::lock_guard<std::mutex> lock(flights_mutex_);
    inflight_.erase(fp);
    throw;
  }
}

docker::DeployStats GearClient::deploy(const std::string& reference,
                                       const workload::AccessSet& access,
                                       std::string* container_id_out,
                                       DeployMode mode) {
  docker::DeployStats stats;
  stats.pull = pull(reference);

  sim::SimTimer timer(link_.clock());
  link_.clock().advance(params_.mount_seconds + params_.startup_seconds);

  std::string container_id = store_.create_container(reference);
  if (container_id_out != nullptr) *container_id_out = container_id;

  {
    std::lock_guard<std::mutex> lock(profiles_mutex_);
    profiles_[series_of(reference)].bump_run();
  }

  if (mode == DeployMode::kLazy) {
    // Start-before-warm: the container is ready the moment the (tiny) index
    // is local — nothing is materialized, no access is replayed here. The
    // workload reads through open_viewer()/read_range() and faults files in
    // on demand; backfill_remaining() runs behind those faults.
    container_touched_[container_id] = 0;
    stats.run_seconds = timer.elapsed();
    stats.ready_seconds = stats.pull.seconds + stats.run_seconds;
    return stats;
  }

  std::uint64_t downloaded = 0;
  if (bulk_warm_deploy_) {
    // Bulk portion of deployment: batch-fetch the access set's still-stubbed
    // files into the cache before the replay, so the loop below mostly
    // hard-links instead of paying one round-trip per miss.
    auto [warm_files, warm_bytes] = warm_access(reference, access);
    downloaded += warm_bytes;
    stats.prefetched_files += warm_files;
    stats.prefetched_bytes += warm_bytes;
  }
  stats.ready_seconds = stats.pull.seconds + timer.elapsed();
  GearFileViewer viewer(
      store_.index_tree(reference), store_.container_diff(container_id),
      [&](const std::string& path, const Fingerprint& fp, std::uint64_t size) {
        return materialize(reference, path, fp, size, &downloaded,
                           /*record_access_flag=*/true);
      },
      tree_lock(reference));

  for (const workload::FileAccess& fa : access.files) {
    link_.clock().advance(params_.per_file_open_seconds);
    StatusOr<Bytes> content_or = viewer.read_file(fa.path);
    if (!content_or.ok()) {
      throw_error(content_or.code(), "deploy: read of " + fa.path + " in " +
                                         reference + ": " +
                                         content_or.message());
    }
    Bytes content = std::move(content_or).value();
    if (content.size() != fa.size) {
      throw_error(ErrorCode::kInternal,
                  "access set size mismatch at " + fa.path);
    }
    disk_.read(content.size());
  }

  if (prefetch_after_deploy_) {
    // Background prefetch folded into the deployment window: the priority
    // pipeline closes the lazy-pull availability gap right after startup.
    auto [pre_files, pre_bytes] = prefetch_remaining(reference);
    downloaded += pre_bytes;
    stats.prefetched_files += pre_files;
    stats.prefetched_bytes += pre_bytes;
  }

  container_touched_[container_id] = access.files.size();
  stats.run_bytes_downloaded = downloaded;
  stats.run_seconds = timer.elapsed();
  return stats;
}

GearFileViewer GearClient::open_viewer(const std::string& container_id) {
  const std::string reference = store_.container_image(container_id);
  return GearFileViewer(
      store_.index_tree(reference), store_.container_diff(container_id),
      [this, reference](const std::string& path, const Fingerprint& fp,
                        std::uint64_t size) {
        return materialize(reference, path, fp, size, &untracked_downloaded_,
                           /*record_access_flag=*/true);
      },
      tree_lock(reference));
}

std::mutex* GearClient::tree_lock(const std::string& reference) {
  std::lock_guard<std::mutex> lock(tree_locks_mutex_);
  std::unique_ptr<std::mutex>& slot = tree_locks_[reference];
  if (!slot) slot = std::make_unique<std::mutex>();
  return slot.get();
}

void GearClient::add_peer_source(PeerSource source) {
  if (!source) return;
  if (peer_tiers_.size() >= kMaxPeerTiers) {
    throw_error(ErrorCode::kInvalidArgument,
                "add_peer_source: tier ladder full");
  }
  peer_tiers_.push_back(std::move(source));
}

void GearClient::add_batch_peer_source(BatchPeerSource source) {
  if (!source) return;
  if (batch_peer_tiers_.size() >= kMaxPeerTiers) {
    throw_error(ErrorCode::kInvalidArgument,
                "add_batch_peer_source: tier ladder full");
  }
  batch_peer_tiers_.push_back(std::move(source));
}

std::vector<std::uint64_t> GearClient::peer_tier_hits() const {
  std::vector<std::uint64_t> out(kMaxPeerTiers, 0);
  for (std::size_t t = 0; t < kMaxPeerTiers; ++t) {
    out[t] = peer_tier_hits_[t].load(std::memory_order_relaxed);
  }
  return out;
}

std::optional<Bytes> GearClient::consult_peer_tiers(const Fingerprint& fp,
                                                    std::uint64_t size) {
  for (std::size_t t = 0; t < peer_tiers_.size(); ++t) {
    if (std::optional<Bytes> hit = peer_tiers_[t](fp, size)) {
      peer_hits_.fetch_add(1, std::memory_order_relaxed);
      peer_tier_hits_[t].fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }
  return std::nullopt;
}

std::vector<std::optional<Bytes>> GearClient::consult_batch_peer_tiers(
    const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted) {
  std::vector<std::optional<Bytes>> out(wanted.size());
  // Slots every earlier tier missed, as indices into `wanted`.
  std::vector<std::size_t> open(wanted.size());
  for (std::size_t i = 0; i < wanted.size(); ++i) open[i] = i;
  for (std::size_t t = 0; t < batch_peer_tiers_.size() && !open.empty(); ++t) {
    std::vector<std::pair<Fingerprint, std::uint64_t>> ask;
    ask.reserve(open.size());
    for (std::size_t i : open) ask.push_back(wanted[i]);
    std::vector<std::optional<Bytes>> answers = batch_peer_tiers_[t](ask);
    if (answers.size() != ask.size()) {
      throw_error(ErrorCode::kInternal,
                  "batch peer source answered the wrong number of slots");
    }
    std::vector<std::size_t> still;
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (answers[i].has_value()) {
        peer_hits_.fetch_add(1, std::memory_order_relaxed);
        peer_tier_hits_[t].fetch_add(1, std::memory_order_relaxed);
        out[open[i]] = std::move(answers[i]);
      } else {
        still.push_back(open[i]);
      }
    }
    open = std::move(still);
  }
  return out;
}

util::ThreadPool* GearClient::pool() {
  std::size_t width = concurrency_.resolved_workers();
  if (width <= 1) return nullptr;
  if (!pool_ || pool_->worker_count() != width) {
    pool_ = std::make_unique<util::ThreadPool>(width);
  }
  return pool_.get();
}

std::pair<std::size_t, std::uint64_t> GearClient::warm_access(
    const std::string& reference, const workload::AccessSet& access) {
  vfs::FileTree& index = store_.index_tree(reference);
  std::vector<std::pair<Fingerprint, std::uint64_t>> wanted;
  std::unordered_set<Fingerprint, FingerprintHash> seen;
  for (const workload::FileAccess& fa : access.files) {
    const vfs::FileNode* node = index.lookup(fa.path);
    if (node != nullptr && node->is_fingerprint() &&
        seen.insert(node->fingerprint()).second) {
      wanted.emplace_back(node->fingerprint(), node->stub_size());
    }
  }
  return warm_batch(wanted);
}

std::pair<std::size_t, std::uint64_t> GearClient::warm_batch(
    const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted,
    bool backfill) {
  std::size_t fetched = 0;
  std::uint64_t bytes = 0;
  // Transport-backed registries charge the link per frame themselves, and
  // asking them for per-file stored sizes or chunk shapes would cost the
  // very round-trips batching is here to remove — budget batches by the
  // stub sizes the index already knows instead.
  const bool remote = file_registry_.transport_accounted();

  // Drop what the cache already holds, then let the batched cooperative
  // source answer the rest in one burst before anything reaches the wire.
  std::vector<std::pair<Fingerprint, std::uint64_t>> misses;
  for (const auto& [fp, size] : wanted) {
    if (!store_.cache().contains(fp)) misses.emplace_back(fp, size);
  }
  if (has_batch_peer_source() && !misses.empty()) {
    std::vector<std::optional<Bytes>> from_peers =
        consult_batch_peer_tiers(misses);
    std::vector<std::pair<Fingerprint, std::uint64_t>> still;
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (std::size_t i = 0; i < misses.size(); ++i) {
      if (!from_peers[i].has_value()) {
        still.push_back(misses[i]);
        continue;
      }
      if (from_peers[i]->size() != misses[i].second) {
        throw_error(ErrorCode::kCorruptData,
                    "peer served wrong size for " + misses[i].first.hex());
      }
      disk_.write(from_peers[i]->size());
      store_.cache().put(misses[i].first, std::move(*from_peers[i]));
    }
    misses = std::move(still);
  }

  // Batch formation: the exact historical boundaries — download_batch_files
  // per round-trip, cut early when the estimated wire bytes reach the
  // in-flight budget. Only formation happens here; fetching moves to the
  // drain pipeline below.
  std::vector<PrefetchBatch> batches;
  PrefetchBatch batch;
  auto cut = [&]() {
    if (batch.fps.empty()) return;
    batches.push_back(std::move(batch));
    batch = PrefetchBatch{};
  };
  for (const auto& [fp, size] : misses) {
    // Per-file cooperative tiers next, as in the on-demand path (§VI-B).
    if (has_peer_source()) {
      if (std::optional<Bytes> peer = consult_peer_tiers(fp, size)) {
        if (peer->size() != size) {
          throw_error(ErrorCode::kCorruptData,
                      "peer served wrong size for " + fp.hex());
        }
        std::lock_guard<std::mutex> lock(state_mutex_);
        disk_.write(peer->size());
        store_.cache().put(fp, std::move(*peer));
        continue;
      }
    }
    std::uint64_t wire;
    std::uint64_t requests;
    if (remote) {
      wire = size;  // budget by stub size; compressed payload is smaller
      requests = 1;
    } else {
      StatusOr<std::uint64_t> stored = file_registry_.stored_size(fp);
      if (!stored.ok()) {
        throw_error(stored.code(),
                    "bulk fetch of " + fp.hex() + ": " + stored.message());
      }
      wire = *stored;
      // A chunked file still moves as manifest + chunk requests inside the
      // shared pipeline (same request count the on-demand path charges).
      requests = 1;
      if (file_registry_.is_chunked(fp)) {
        StatusOr<ChunkManifest> manifest = file_registry_.chunk_manifest(fp);
        if (!manifest.ok()) {
          throw_error(manifest.code(), "bulk fetch of " + fp.hex() +
                                           ": manifest: " + manifest.message());
        }
        requests = manifest->chunks.size() + 1;
      }
    }
    // Under a host budget, cut BEFORE a batch would outgrow the whole
    // budget: an admission request larger than the budget only starts on an
    // idle host, which would let the peak exceed the envelope. (The
    // per-client cap below keeps its historical cut-after-overflow
    // boundaries, byte-identical when no budget is attached.)
    if (host_budget_ != nullptr && host_budget_->budget_bytes() != 0 &&
        !batch.fps.empty() &&
        batch.wire_estimate + wire > host_budget_->budget_bytes()) {
      cut();
    }
    batch.fps.push_back(fp);
    batch.sizes.push_back(size);
    batch.wire_estimate += wire;
    batch.requests += requests;
    if (batch.fps.size() >= batch_files_ ||
        (concurrency_.max_inflight_bytes != 0 &&
         batch.wire_estimate >= concurrency_.max_inflight_bytes)) {
      cut();
    }
  }
  cut();

  // Smallest-remaining-first key for host-wide admission: this drain's
  // not-yet-accounted wire bytes. Fetch stages read it when requesting
  // admission; accounting decrements it, so a deploy nearing completion
  // ranks ahead of one just starting.
  std::atomic<std::uint64_t> remaining_wire{0};
  for (const auto& b : batches) {
    remaining_wire.fetch_add(b.wire_estimate, std::memory_order_relaxed);
  }

  // Backfill coordination state: fingerprints this drain has claimed as
  // singleflight flights (fetch stage claims, accounting publishes).
  // Guarded by its own mutex — fetch stages run on pool workers.
  std::mutex claimed_mutex;
  std::unordered_map<Fingerprint, std::shared_ptr<Inflight>, FingerprintHash>
      claimed;
  auto publish_flight = [&](const Fingerprint& fp, const Bytes* content,
                            std::exception_ptr error) {
    std::shared_ptr<Inflight> flight;
    {
      std::lock_guard<std::mutex> lock(claimed_mutex);
      auto it = claimed.find(fp);
      if (it == claimed.end()) return;
      flight = std::move(it->second);
      claimed.erase(it);
    }
    {
      std::lock_guard<std::mutex> flight_lock(flight->m);
      if (content != nullptr) flight->content = *content;
      flight->error = error;
      flight->done = true;
    }
    flight->cv.notify_all();
    std::lock_guard<std::mutex> lock(flights_mutex_);
    inflight_.erase(fp);
  };

  // Two-stage drain: wire round-trips (+ decompression) overlapped across
  // the pool, accounting serialized in batch order. Accounting takes
  // state_mutex_ — prefetch may run concurrently with on-demand viewer
  // faults, and the sim models/store are not thread-safe.
  auto fetch_stage = [&, this](const PrefetchBatch& b,
                               util::ThreadPool* p) -> FetchedBatch {
    std::vector<Fingerprint> to_fetch = b.fps;
    std::vector<std::uint8_t> mask;
    if (backfill) {
      // Claim each member as a singleflight flight. A member a demand
      // fault (or another drain) is already fetching — or one the fault
      // already landed in the cache — is dropped from this wire request:
      // the fault's copy serves everyone, no file moves twice.
      mask.assign(b.fps.size(), 0);
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        for (std::size_t i = 0; i < b.fps.size(); ++i) {
          mask[i] = store_.cache().contains(b.fps[i]) ? 0 : 1;
        }
      }
      {
        std::lock_guard<std::mutex> lock(flights_mutex_);
        for (std::size_t i = 0; i < b.fps.size(); ++i) {
          if (!mask[i]) continue;
          auto [it, inserted] =
              inflight_.emplace(b.fps[i], std::shared_ptr<Inflight>());
          if (!inserted) {
            mask[i] = 0;  // a demand fault owns this fingerprint
            continue;
          }
          it->second = std::make_shared<Inflight>();
          std::lock_guard<std::mutex> claim_lock(claimed_mutex);
          claimed.emplace(b.fps[i], it->second);
        }
      }
      to_fetch.clear();
      for (std::size_t i = 0; i < b.fps.size(); ++i) {
        if (mask[i]) to_fetch.push_back(b.fps[i]);
      }
      if (to_fetch.empty()) {
        FetchedBatch empty;
        empty.contents.resize(b.fps.size());
        empty.fetched = std::move(mask);
        return empty;
      }
    }
    // Host-wide admission: stage this batch's download+decompression bytes
    // under the shared budget (background lane, keyed by the deploy's
    // remaining bytes). The lease rides inside the FetchedBatch so it is
    // returned only after accounting — and on any error/drop path via its
    // destructor.
    std::shared_ptr<void> lease = make_budget_lease(
        host_budget_, b.wire_estimate, AdmissionLane::kBackground,
        remaining_wire.load(std::memory_order_relaxed));
    std::uint64_t wire = 0;
    StatusOr<std::vector<Bytes>> got =
        file_registry_.download_batch(to_fetch, p, &wire);
    if (!got.ok()) {
      if (backfill) {
        // Release this batch's claims so a waiting demand fault retries
        // as its own leader instead of hanging.
        std::exception_ptr error = std::make_exception_ptr(
            Error(got.code(), "bulk fetch failed: " + got.message()));
        for (std::size_t i = 0; i < b.fps.size(); ++i) {
          if (mask[i]) publish_flight(b.fps[i], nullptr, error);
        }
      }
      throw_error(got.code(),
                  "bulk fetch of " + std::to_string(to_fetch.size()) +
                      " gear files failed: " + got.message());
    }
    FetchedBatch landed;
    landed.budget_lease = std::move(lease);
    landed.wire_bytes = wire;
    if (!backfill) {
      landed.contents = std::move(got).value();
    } else {
      landed.contents.resize(b.fps.size());
      std::size_t j = 0;
      for (std::size_t i = 0; i < b.fps.size(); ++i) {
        if (mask[i]) landed.contents[i] = std::move((*got)[j++]);
      }
      landed.fetched = std::move(mask);
    }
    return landed;
  };
  auto account_stage = [&](const PrefetchBatch& b, FetchedBatch landed) {
    remaining_wire.fetch_sub(b.wire_estimate, std::memory_order_relaxed);
    const bool all = landed.fetched.empty();
    std::size_t members = 0;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      for (std::size_t i = 0; i < b.fps.size(); ++i) {
        if (!all && !landed.fetched[i]) continue;
        ++members;
      }
      // One pipelined burst on the link, then per-file disk writes and
      // cache inserts, in batch order. When the backfill dropped members a
      // demand fault owned, charge one request per file actually moved
      // (the per-member chunk-burst split is no longer recoverable).
      if (!remote && members > 0) {
        link_.pipelined(landed.wire_bytes, all ? b.requests : members);
      }
      bytes += landed.wire_bytes;
      fetched += members;
      for (std::size_t i = 0; i < b.fps.size(); ++i) {
        if (!all && !landed.fetched[i]) continue;
        if (landed.contents[i].size() != b.sizes[i]) {
          throw_error(ErrorCode::kCorruptData,
                      "gear file size mismatch: " + b.fps[i].hex());
        }
        disk_.write(landed.contents[i].size());
        store_.cache().put(b.fps[i], landed.contents[i]);
        if (prefetch_observer_) {
          prefetch_observer_(b.fps[i], b.sizes[i], link_.clock().now());
        }
      }
    }
    if (backfill) {
      // Publish outside state_mutex_: joiners immediately re-take it for
      // their hard-link accounting.
      for (std::size_t i = 0; i < b.fps.size(); ++i) {
        if (all || landed.fetched[i]) {
          publish_flight(b.fps[i], &landed.contents[i], nullptr);
        }
      }
    }
  };
  try {
    drain_batches(batches, pool(), concurrency_.max_inflight_bytes,
                  fetch_stage, account_stage,
                  backfill ? &demand_lane_ : nullptr);
  } catch (...) {
    // Batches fetched but never accounted (an earlier batch failed) still
    // hold claimed flights; fail them so no joiner waits forever.
    std::vector<Fingerprint> leftover;
    {
      std::lock_guard<std::mutex> lock(claimed_mutex);
      for (const auto& [fp, flight] : claimed) leftover.push_back(fp);
    }
    std::exception_ptr error = std::current_exception();
    for (const Fingerprint& fp : leftover) {
      publish_flight(fp, nullptr, error);
    }
    throw;
  }
  return {fetched, bytes};
}

PrefetchPlan GearClient::plan_prefetch(const std::string& reference) {
  const vfs::FileTree& index = store_.index_tree(reference);
  const vfs::FileTree* previous = nullptr;
  ImageAccessProfile profile_copy;
  const ImageAccessProfile* profile = nullptr;
  if (prefetch_order_ != PrefetchOrder::kPath) {
    // The delta baseline: the newest *other* locally-installed version of
    // this series — the image a rolling update is most likely moving from.
    std::string prev = newest_other_version(store_.images(), reference);
    if (!prev.empty()) previous = &store_.index_tree(prev);
    if (prefetch_order_ == PrefetchOrder::kProfile) {
      profile_copy = access_profile(series_of(reference));
      if (!profile_copy.empty()) profile = &profile_copy;
    }
  }
  return build_prefetch_plan(index, prefetch_order_, previous, profile);
}

std::pair<std::size_t, std::uint64_t> GearClient::prefetch_remaining(
    const std::string& reference) {
  return prefetch_impl(reference, /*backfill=*/false);
}

std::pair<std::size_t, std::uint64_t> GearClient::backfill_remaining(
    const std::string& reference) {
  return prefetch_impl(reference, /*backfill=*/true);
}

std::pair<std::size_t, std::uint64_t> GearClient::prefetch_impl(
    const std::string& reference, bool backfill) {
  vfs::FileTree& index = store_.index_tree(reference);

  // Cheap membership pass first: collect the still-stubbed paths
  // (materialization mutates the tree) and whether any is missing from the
  // cache. A fully-local image returns immediately; a fully-cached one
  // skips plan building and the wire phase and goes straight to linking.
  // Backfill walks under the tree lock — concurrent demand faults swap
  // stubs for regular files while this runs.
  std::vector<std::string> pending;
  bool any_uncached = false;
  {
    std::unique_lock<std::mutex> tlock;
    if (backfill) tlock = std::unique_lock<std::mutex>(*tree_lock(reference));
    index.walk([&](const std::string& path, const vfs::FileNode& node) {
      if (!node.is_fingerprint()) return;
      pending.push_back(path);
      if (!any_uncached && !store_.cache().contains(node.fingerprint())) {
        any_uncached = true;
      }
    });
  }
  if (pending.empty()) return {0, 0};

  // Bulk fetch into the shared cache in priority order: pipelined batches,
  // overlapped decompression, serialized accounting. A backfill drain runs
  // at strictly lower priority: demand faults preempt it for the link and
  // the in-flight byte budget, and its batch members are claimed as
  // singleflight flights so no file is fetched by both paths.
  std::size_t fetched = 0;
  std::uint64_t bytes = 0;
  if (any_uncached) {
    PrefetchPlan plan;
    {
      std::unique_lock<std::mutex> tlock;
      if (backfill) tlock = std::unique_lock<std::mutex>(*tree_lock(reference));
      plan = plan_prefetch(reference);
    }
    std::vector<std::pair<Fingerprint, std::uint64_t>> wanted;
    wanted.reserve(plan.items.size());
    for (const PrefetchItem& item : plan.items) {
      wanted.emplace_back(item.fingerprint, item.size);
    }
    std::tie(fetched, bytes) = warm_batch(wanted, backfill);
  }

  // Hard-link every pending path from the now-warm cache. If a bounded
  // cache rejected a warm insert, the per-file on-demand path takes over
  // for that file (and its cost is charged as such). This sweep is not a
  // workload signal — it must not feed the access profile. Paths a demand
  // fault already materialized resolve as plain hits and are skipped.
  std::uint64_t extra = 0;
  vfs::FileTree scratch_diff;  // viewer needs an upper layer; stays empty
  GearFileViewer viewer(
      index, scratch_diff,
      [&](const std::string& path, const Fingerprint& fp, std::uint64_t size) {
        return materialize(reference, path, fp, size, &extra,
                           /*record_access_flag=*/false);
      },
      backfill ? tree_lock(reference) : nullptr);
  for (const std::string& path : pending) {
    std::uint64_t before = extra;
    StatusOr<Bytes> content = viewer.read_file(path);
    if (!content.ok()) {
      throw_error(content.code(),
                  "prefetch of " + path + " failed: " + content.message());
    }
    if (extra != before) ++fetched;
  }
  return {fetched, bytes + extra};
}

StatusOr<Bytes> GearClient::read_range(const std::string& container_id,
                                       std::string_view path,
                                       std::uint64_t offset,
                                       std::uint64_t length) {
  if (length == 0) {
    return {ErrorCode::kInvalidArgument, "read_range: zero length"};
  }
  const std::string reference = store_.container_image(container_id);

  // Writable layer first (a modified file's new content wins).
  auto slice_of = [&](const Bytes& content) -> StatusOr<Bytes> {
    if (offset + length > content.size()) {
      return {ErrorCode::kInvalidArgument, "read_range: out of bounds"};
    }
    disk_.read(length);
    return Bytes(content.begin() + static_cast<std::ptrdiff_t>(offset),
                 content.begin() + static_cast<std::ptrdiff_t>(offset + length));
  };

  if (const vfs::FileNode* d = store_.container_diff(container_id).lookup(path)) {
    if (d->is_whiteout()) {
      return {ErrorCode::kNotFound, "no such file: " + std::string(path)};
    }
    if (!d->is_regular()) {
      return {ErrorCode::kInvalidArgument,
              "not a regular file: " + std::string(path)};
    }
    link_.clock().advance(params_.per_file_open_seconds);
    return slice_of(d->content());
  }

  // Capture everything needed from the index node under the tree lock and
  // never touch the node again — a concurrent backfill sweep may swap the
  // stub for a regular file the moment the lock drops.
  Fingerprint fp;
  std::uint64_t stub_size = 0;
  {
    std::lock_guard<std::mutex> tlock(*tree_lock(reference));
    const vfs::FileNode* node = store_.index_tree(reference).lookup(path);
    if (node == nullptr) {
      return {ErrorCode::kNotFound, "no such file: " + std::string(path)};
    }
    link_.clock().advance(params_.per_file_open_seconds);
    if (node->is_regular()) {
      return slice_of(node->content());  // already materialized
    }
    if (!node->is_fingerprint()) {
      return {ErrorCode::kInvalidArgument,
              "not a regular file: " + std::string(path)};
    }
    fp = node->fingerprint();
    stub_size = node->stub_size();
  }
  if (offset + length > stub_size) {
    return {ErrorCode::kInvalidArgument, "read_range: out of bounds"};
  }

  // Whole file already in the shared cache?
  if (StatusOr<Bytes> cached = store_.cache().get(fp); cached.ok()) {
    return slice_of(*cached);
  }

  if (!file_registry_.is_chunked(fp)) {
    // Plain object: materialize fully (the classic path), then slice.
    Bytes whole = materialize(reference, std::string(path), fp, stub_size,
                              &range_downloaded_,
                              /*record_access_flag=*/true);
    return slice_of(whole);
  }

  // Chunked: fetch the manifest once per client, then only covering chunks.
  const bool remote = file_registry_.transport_accounted();
  auto mit = manifest_cache_.find(fp);
  if (mit == manifest_cache_.end()) {
    StatusOr<ChunkManifest> got = file_registry_.chunk_manifest(fp);
    if (!got.ok()) {
      return {got.code(),
              "read_range: manifest of " + fp.hex() + ": " + got.message()};
    }
    ChunkManifest manifest = std::move(got).value();
    std::uint64_t manifest_wire = manifest.serialize().size();
    if (!remote) link_.request(manifest_wire);
    range_downloaded_ += manifest_wire;
    mit = manifest_cache_.emplace(fp, std::move(manifest)).first;
  }
  const ChunkManifest& manifest = mit->second;
  auto [first, last] = manifest.chunk_range(offset, length);

  // Gather pass 1 — the shared cache.
  std::vector<Bytes> pieces(last - first + 1);
  std::vector<std::uint32_t> missing;  // chunk indices still to fetch
  for (std::size_t c = first; c <= last; ++c) {
    if (StatusOr<Bytes> cached = store_.cache().get(manifest.chunks[c]);
        cached.ok()) {
      disk_.touch();
      pieces[c - first] = std::move(cached).value();
    } else {
      missing.push_back(static_cast<std::uint32_t>(c));
    }
  }

  // Gather pass 2 — one batched peer probe for every missing chunk. Peers
  // serve chunk fingerprints from their shared caches exactly like whole
  // files; a miss falls through to the registry.
  if (has_batch_peer_source() && !missing.empty()) {
    std::vector<std::pair<Fingerprint, std::uint64_t>> ask;
    ask.reserve(missing.size());
    for (std::uint32_t c : missing) {
      std::uint64_t chunk_off =
          static_cast<std::uint64_t>(c) * manifest.chunk_bytes;
      ask.emplace_back(manifest.chunks[c],
                       std::min<std::uint64_t>(manifest.chunk_bytes,
                                               manifest.file_size - chunk_off));
    }
    std::vector<std::optional<Bytes>> from_peers =
        consult_batch_peer_tiers(ask);
    std::vector<std::uint32_t> still;
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (!from_peers[i].has_value()) {
        still.push_back(missing[i]);
        continue;
      }
      if (from_peers[i]->size() != ask[i].second) {
        return {ErrorCode::kCorruptData,
                "peer served wrong size for " + ask[i].first.hex()};
      }
      disk_.write(from_peers[i]->size());
      store_.cache().put(ask[i].first, *from_peers[i]);
      pieces[missing[i] - first] = std::move(*from_peers[i]);
    }
    missing = std::move(still);
  }

  // Gather pass 3 — the registry, ⌈missing/batch⌉ download_chunks calls: one
  // kDownloadChunks frame each against a remote registry, an ordered
  // per-chunk loop in-process (byte- and stats-identical to serial fetches).
  // A range demand preempts any backfill drain for its whole fetch window.
  std::uint64_t missing_bytes = 0;
  for (std::uint32_t c : missing) {
    std::uint64_t chunk_off =
        static_cast<std::uint64_t>(c) * manifest.chunk_bytes;
    missing_bytes += std::min<std::uint64_t>(manifest.chunk_bytes,
                                             manifest.file_size - chunk_off);
  }
  DemandScope demand(missing.empty() ? nullptr : &demand_lane_, missing_bytes);
  // Range faults are demand traffic: stage the missing chunk bytes on the
  // host budget's strict-priority lane for the whole gathering window.
  BudgetLease range_budget(missing.empty() ? nullptr : host_budget_,
                           missing_bytes, AdmissionLane::kDemand,
                           missing_bytes);
  for (std::size_t b = 0; b < missing.size(); b += range_batch_chunks_) {
    std::vector<std::uint32_t> batch(
        missing.begin() + static_cast<std::ptrdiff_t>(b),
        missing.begin() + static_cast<std::ptrdiff_t>(
                              std::min(b + range_batch_chunks_, missing.size())));
    std::uint64_t wire = 0;
    StatusOr<std::vector<Bytes>> got =
        file_registry_.download_chunks(fp, manifest, batch, &wire);
    if (!got.ok()) {
      return {got.code(), "read_range: " + got.message()};
    }
    if (!remote) {
      if (batch.size() > 1) {
        link_.pipelined(wire, batch.size());
      } else {
        link_.request(wire);
      }
    }
    range_downloaded_ += wire;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Bytes& chunk = (*got)[i];
      disk_.write(chunk.size());
      store_.cache().put(manifest.chunks[batch[i]], chunk);
      pieces[batch[i] - first] = std::move(chunk);
    }
  }

  Bytes assembled;
  for (const Bytes& piece : pieces) append(assembled, piece);
  std::uint64_t skip = offset - static_cast<std::uint64_t>(first) * manifest.chunk_bytes;
  disk_.read(length);
  return Bytes(assembled.begin() + static_cast<std::ptrdiff_t>(skip),
               assembled.begin() + static_cast<std::ptrdiff_t>(skip + length));
}

double GearClient::destroy(const std::string& container_id) {
  auto it = container_touched_.find(container_id);
  std::size_t touched = it == container_touched_.end() ? 0 : it->second;
  double seconds =
      params_.teardown_fixed_seconds +
      static_cast<double>(touched) * params_.per_inode_teardown_seconds;
  link_.clock().advance(seconds);
  store_.remove_container(container_id);
  container_touched_.erase(container_id);
  return seconds;
}

void GearClient::remove_image(const std::string& reference) {
  store_.remove_image(reference);
}

void GearClient::clear_all_local_state() {
  for (const std::string& ref : store_.images()) {
    store_.remove_image(ref);
  }
  store_.cache().clear_unpinned();
  container_touched_.clear();
}

}  // namespace gear
