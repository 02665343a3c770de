// Gear deployment client (paper §III-D).
//
// Deploying a Gear container:
//   pull — fetch the manifest and the tiny single-layer index image from the
//          Docker registry (everything else stays remote), install the index
//          into the three-level store;
//   run  — create a container (level-3 diff), mount the Gear File Viewer,
//          and serve the task's file accesses: irregular entries answered
//          from the index, regular files materialized from the shared cache
//          (hard link) or the Gear Registry (on-demand download).
//
// The client programs against FileRegistryApi, so the registry can be the
// in-process GearRegistry or a RemoteGearRegistry stub speaking the wire
// protocol over a Transport — deployment code is identical either way. When
// the registry is transport-backed, the transport charges the simulated link
// per frame and the client skips its own link model (no double billing).
//
// Every byte and request is charged to the simulated link/disk, making this
// client directly comparable with DockerClient under identical conditions.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "docker/client.hpp"
#include "docker/registry.hpp"
#include "gear/admission.hpp"
#include "gear/index.hpp"
#include "gear/prefetch.hpp"
#include "gear/registry.hpp"
#include "gear/registry_api.hpp"
#include "gear/store.hpp"
#include "gear/viewer.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "workload/access.hpp"

namespace gear {

/// Stores a converted Gear image: index image into the Docker registry
/// (layer-deduplicated like any image), Gear files into the Gear registry
/// (fingerprint-deduplicated). Returns the number of files the registry
/// reports it stored (a file stored by another client after the presence
/// check is not counted). With a chunking policy, files above the threshold
/// are stored as chunk objects + a manifest (paper §VII future work).
///
/// The presence check is one query_many and plain absent files move in
/// upload_precompressed_batch bursts (batch_slices of their compressed
/// frames), so pushing to a remote registry costs 1 + ⌈missing/batch⌉
/// round-trips instead of one per file, and no burst outgrows a wire frame.
/// In-process the batched entry points are ordered loops: registry contents
/// and stats are byte-identical to the serial per-file protocol.
///
/// When `pool` has more than one worker, the absent files are compressed on
/// it while earlier bursts upload, at most `max_inflight_bytes` of raw
/// content (0 = unbounded) ahead of the uploader; the query round and the
/// registry insertions stay serial and ordered, so registry contents,
/// stats and the bursts themselves are identical at any width. No
/// compression task outlives the call, also when it throws.
std::size_t push_gear_image(const GearImage& image,
                            docker::DockerRegistry& index_registry,
                            FileRegistryApi& file_registry,
                            const ChunkPolicy& chunk_policy = {},
                            util::ThreadPool* pool = nullptr,
                            std::uint64_t max_inflight_bytes = 0);

/// How GearClient::deploy materializes image content.
enum class DeployMode {
  /// Legacy: the access set is replayed inside the deployment window (plus
  /// optional bulk-warm / post-replay prefetch).
  kEager,
  /// Start-before-warm (the paper's on-demand story at its limit): deploy
  /// returns as soon as the index is pulled and the container is created —
  /// nothing is materialized. Reads issued afterwards (open_viewer,
  /// read_range) fault files/chunks in on demand; backfill_remaining()
  /// closes the availability window behind the workload.
  kLazy,
};

class GearClient {
 public:
  GearClient(docker::DockerRegistry& index_registry,
             FileRegistryApi& file_registry, sim::NetworkLink& link,
             sim::DiskModel& disk, docker::RuntimeParams params = {},
             std::uint64_t cache_capacity_bytes = 0,
             EvictionPolicy policy = EvictionPolicy::kLru);

  /// Pull phase: manifest + (if not yet installed) the index layer.
  docker::PullStats pull(const std::string& reference);

  /// Full deployment: pull, launch a container, replay `access` through the
  /// Gear File Viewer. Returns timing/bytes; the launched container id is
  /// written to `container_id_out` when non-null.
  ///
  /// Under DeployMode::kLazy the access set is ignored: deploy returns at
  /// readiness (index pulled, container created, stats.ready_seconds ==
  /// run window) and the workload reads against the still-cold container
  /// through open_viewer()/read_range(), while backfill_remaining() warms
  /// the rest strictly behind those demand faults.
  docker::DeployStats deploy(const std::string& reference,
                             const workload::AccessSet& access,
                             std::string* container_id_out = nullptr,
                             DeployMode mode = DeployMode::kEager);

  /// Opens a viewer for an existing container (for direct file-system use
  /// by examples/tests; costs are still charged to the models).
  GearFileViewer open_viewer(const std::string& container_id);

  /// Range read (paper §VII future work): reads [offset, offset+length) of
  /// a file. For files stored chunked in the Gear Registry, only the
  /// covering chunks are fetched — the stub is NOT fully materialized, so a
  /// container peeking at a multi-gigabyte model's header moves kilobytes.
  /// Chunks land in the shared cache and are reused by later reads.
  /// Plain-stored files fall back to whole-file materialization + slice.
  StatusOr<Bytes> read_range(const std::string& container_id,
                             std::string_view path, std::uint64_t offset,
                             std::uint64_t length);

  /// Bytes fetched over the link by read_range calls (telemetry).
  std::uint64_t range_bytes_downloaded() const noexcept {
    return range_downloaded_;
  }

  /// Bytes fetched over the link by viewer faults through open_viewer()
  /// (the lazy demand path's wire traffic; telemetry).
  std::uint64_t viewer_bytes_downloaded() const noexcept {
    return untracked_downloaded_;
  }

  /// Cooperative source consulted on a cache miss BEFORE the Gear Registry
  /// (paper §VI-B: P2P/cooperative caches are orthogonal accelerators for
  /// Gear file distribution). One callback answers a whole list of wanted
  /// (fingerprint, expected size) pairs, so peers serve it in bursts: a
  /// demand fault asks for a list of one, a bulk warm or backfill for its
  /// whole miss list, a range read for its missing chunks. out[i] is the
  /// content of wanted[i] or nullopt (miss: falls through to the next tier
  /// / the registry). Chunk fingerprints are asked exactly like whole files
  /// — peers serve both from the same shared cache. The callback itself
  /// must account its transfer costs (e.g. against a site-local link).
  using PeerSource = std::function<std::vector<std::optional<Bytes>>(
      const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted)>;
  /// Appends one tier to the cooperative lookup ladder. Tiers are consulted
  /// in add order and each only sees the slots every earlier tier missed —
  /// a multi-site edge node adds its site-local (LAN) source first and the
  /// cross-site (WAN) source second, with the registry always last.
  void add_peer_source(PeerSource source);

  /// Cooperative tiers a client may register (site-local + cross-site).
  static constexpr std::size_t kMaxPeerTiers = 4;

  /// Count of objects satisfied by any peer tier (telemetry).
  std::uint64_t peer_hits() const noexcept {
    return peer_hits_.load(std::memory_order_relaxed);
  }
  /// Per-tier peer hits, indexed by add order (tier 0 first). Slots past
  /// the registered tier count read zero.
  std::vector<std::uint64_t> peer_tier_hits() const;

  /// Background prefetch: materializes every still-stubbed file of an
  /// installed image (pipelined bulk fetch). Lazy pulling leaves a running
  /// container dependent on registry availability for files it has not
  /// touched yet; prefetching after startup closes that window at the cost
  /// of the bandwidth Gear initially saved. Returns (files fetched, bytes
  /// moved); both zero when the image is already fully local.
  ///
  /// Downloads move in batches — one download_batch (one wire round-trip
  /// against a remote registry) per batch, batch size bounded by
  /// download_batch_files() and `Concurrency.max_inflight_bytes` of wire
  /// data — with decompression fanned out across the worker pool. All
  /// link/disk/cache accounting happens at a single serialized point, so
  /// the simulated timings are identical at any worker count.
  std::pair<std::size_t, std::uint64_t> prefetch_remaining(
      const std::string& reference);

  /// The background lane of a lazy deployment: prefetch_remaining's
  /// priority pipeline (delta → profile → fan-in) running strictly below
  /// the demand-fault lane. While any demand fault is fetching, the drain
  /// launches no new wire batch and the fault's in-flight bytes consume the
  /// shared byte budget (gear/prefetch DemandLane). Fingerprints the
  /// backfill puts on the wire are registered as singleflight flights, so a
  /// concurrent demand fault for the same file joins the in-flight batch,
  /// and fingerprints a fault is already fetching are skipped by the
  /// backfill — no file moves twice whichever lane sees it first. Safe to
  /// run on a background thread while viewer readers fault concurrently.
  std::pair<std::size_t, std::uint64_t> backfill_remaining(
      const std::string& reference);

  /// Bulk-warms an access set's still-stubbed files into the shared cache
  /// (the deploy-time warm phase, callable standalone — e.g. warming a
  /// predicted hot set after a pull without replaying it). Returns (files
  /// fetched, bytes moved).
  std::pair<std::size_t, std::uint64_t> warm_access(
      const std::string& reference, const workload::AccessSet& access);

  /// Times a backfill drain paused because a demand fault held the link
  /// (telemetry for the preemption rule).
  std::uint64_t backfill_yields() const {
    return demand_lane_.backfill_yields();
  }
  /// Demand-lane registry fetches: faults that reached the wire.
  std::uint64_t demand_fetches() const {
    return demand_lane_.demand_fetches();
  }

  /// Queue discipline of prefetch_remaining's wire phase (gear/prefetch):
  /// kPath is the legacy index-walk order (byte-, wire-, and stats-identical
  /// to the historical prefetch); kDelta fetches the version delta against
  /// the newest other locally-installed version of the same series first;
  /// kProfile additionally ranks by the recorded access profile. Ordering
  /// only permutes the fetch schedule — total bytes, requests, cache
  /// contents, and registry stats are identical across orders.
  void set_prefetch_order(PrefetchOrder order) { prefetch_order_ = order; }
  PrefetchOrder prefetch_order() const noexcept { return prefetch_order_; }

  /// When enabled, deploy() runs prefetch_remaining after the access replay
  /// (time-to-warm deployments: the container starts lazily, then the
  /// background prefetch closes the registry-dependence window). Its
  /// (files, bytes) land in DeployStats::prefetched_*. Off by default.
  void set_prefetch_after_deploy(bool enabled) {
    prefetch_after_deploy_ = enabled;
  }

  /// Telemetry hook for the batched prefetch paths: invoked at the single
  /// serialized accounting point, once per file fetched from the registry,
  /// with the simulated time the file became cache-resident. Benches and
  /// tests use it to measure time-to-first-useful-byte and to prove
  /// delta-before-unchanged scheduling.
  using PrefetchObserver = std::function<void(
      const Fingerprint& fp, std::uint64_t size, double sim_seconds)>;
  void set_prefetch_observer(PrefetchObserver observer) {
    prefetch_observer_ = std::move(observer);
  }

  /// Copy of the recorded first-materialization profile of `series`
  /// ("name" of "name:tag"); empty profile when nothing was recorded.
  ImageAccessProfile access_profile(const std::string& series) const;

  /// Merges a persisted/remote profile into the series' in-memory one
  /// (redeploy on a node with saved history).
  void merge_access_profile(const std::string& series,
                            const ImageAccessProfile& profile);

  /// Sets the worker budget and in-flight byte bound for the batched fetch
  /// paths (prefetch_remaining, bulk-warm deploy). Defaults to the machine.
  void set_concurrency(const util::Concurrency& concurrency) {
    concurrency_ = concurrency;
    pool_.reset();
  }
  const util::Concurrency& concurrency() const noexcept {
    return concurrency_;
  }

  /// Attaches this client to a host-wide admission budget (gear/admission):
  /// every wire batch and demand fault acquires its bytes from `budget`
  /// before touching the wire, so N clients on one node never stage more
  /// than the budget in download+decompression buffers at once. Demand
  /// faults use the strict-priority lane; bulk batches carry the deploy's
  /// remaining-bytes hint for smallest-remaining-first admission. The
  /// budget must outlive the client. Null (default) restores per-client
  /// caps only.
  void set_host_budget(HostBudget* budget) { host_budget_ = budget; }
  HostBudget* host_budget() const noexcept { return host_budget_; }

  /// Cap on files per download_batch round-trip in the bulk-fetch paths.
  /// 1 reproduces the serial per-file protocol over the same wire messages
  /// (the per-file baseline of the batching experiments).
  void set_download_batch_files(std::size_t n) {
    batch_files_ = n < 1 ? 1 : n;
  }
  std::size_t download_batch_files() const noexcept { return batch_files_; }

  /// Cap on chunk indices per kDownloadChunks round-trip in read_range's
  /// gathering loop. 1 reproduces the serial per-chunk protocol (the
  /// baseline of the chunk-batching experiments); assembled bytes, cache
  /// contents, and registry stats are identical at any setting — only the
  /// round-trip count changes (⌈missing/batch⌉ frames).
  void set_range_batch_chunks(std::size_t n) {
    range_batch_chunks_ = n < 1 ? 1 : n;
  }
  std::size_t range_batch_chunks() const noexcept {
    return range_batch_chunks_;
  }

  /// When enabled, deploy() bulk-warms the access set's still-stubbed files
  /// into the shared cache with batched pipelined downloads before replaying
  /// the accesses, instead of paying one round-trip per file miss. Off by
  /// default (the paper's on-demand deployment model).
  void set_bulk_warm_deploy(bool enabled) { bulk_warm_deploy_ = enabled; }

  /// Times a concurrent materialization of the same fingerprint joined an
  /// already in-flight download instead of issuing its own (telemetry for
  /// the singleflight path).
  std::uint64_t coalesced_hits() const noexcept {
    return coalesced_hits_.load(std::memory_order_relaxed);
  }

  /// Tears down a container. Gear only drops the inode cache entries of the
  /// files the container actually touched (paper §V-F), then deletes its
  /// level-3 diff.
  double destroy(const std::string& container_id);

  /// Deletes an image: level-2 index goes away, pinned files are released
  /// into the evictable pool but stay cached.
  void remove_image(const std::string& reference);

  ThreeLevelStore& store() noexcept { return store_; }
  const ThreeLevelStore& store() const noexcept { return store_; }

  /// Wipes the shared cache (cold-cache experiments; pinned entries of
  /// installed images are unpinned and dropped too).
  void clear_all_local_state();

  const docker::RuntimeParams& params() const noexcept { return params_; }

 private:
  struct Inflight;

  /// Serves one regular-file fault: shared cache, then peer source, then
  /// the registry. Concurrent calls for the same fingerprint coalesce into
  /// one registry download (singleflight): the first caller fetches, the
  /// rest wait on the flight and share its content, paying only the
  /// hard-link cost. Safe to call from several viewer threads; all model
  /// and store accounting is serialized under state_mutex_. `record_access`
  /// feeds the series' access profile (true for real workload faults, false
  /// for prefetch's own hard-link sweep, which would otherwise flatten the
  /// profile into uniformity).
  Bytes materialize(const std::string& reference, const std::string& path,
                    const Fingerprint& fp, std::uint64_t size,
                    std::uint64_t* downloaded, bool record_access);

  /// The registry leg of materialize (singleflight leaders only): one
  /// download_batch of one file, accounted under state_mutex_.
  Bytes fetch_from_registry(const std::string& reference,
                            const Fingerprint& fp, std::uint64_t size,
                            std::uint64_t* downloaded);

  /// Fetches `wanted` (unique fingerprints + expected sizes) into the shared
  /// cache in pipelined batches, skipping entries already cached and
  /// consulting the peer source first. Returns (files downloaded from the
  /// registry, wire bytes moved). The single serialized accounting point for
  /// the batched paths: workers only decompress.
  ///
  /// With `backfill` set, the drain runs below the demand lane (no new
  /// batch while a fault fetches) and coordinates with the singleflight
  /// map: batch members are claimed as flights at fetch time — members an
  /// in-flight demand fault already owns are dropped from the wire request
  /// — and published to joiners at the accounting point.
  std::pair<std::size_t, std::uint64_t> warm_batch(
      const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted,
      bool backfill = false);

  /// Shared body of prefetch_remaining / backfill_remaining.
  std::pair<std::size_t, std::uint64_t> prefetch_impl(
      const std::string& reference, bool backfill);

  /// Per-image index-tree lock, created on first use. Handed to every
  /// viewer of the image so concurrent readers and the backfill sweep
  /// serialize tree lookups/mutations (contents are fetched outside it).
  std::mutex* tree_lock(const std::string& reference);

  /// Builds the priority plan for `reference`'s still-stubbed files under
  /// the configured order (previous-version index + access profile looked
  /// up internally).
  PrefetchPlan plan_prefetch(const std::string& reference);

  /// Records one first-materialization into the series' profile.
  void record_access(const std::string& reference, const std::string& path);

  util::ThreadPool* pool();

  docker::DockerRegistry& index_registry_;
  FileRegistryApi& file_registry_;
  sim::NetworkLink& link_;
  sim::DiskModel& disk_;
  docker::RuntimeParams params_;
  ThreeLevelStore store_;
  std::map<std::string, std::size_t> container_touched_;  // id -> inode count
  std::uint64_t untracked_downloaded_ = 0;  // bytes fetched via open_viewer
  std::uint64_t range_downloaded_ = 0;      // bytes fetched via read_range
  /// Consults every peer tier in order; each tier only sees the slots all
  /// earlier tiers missed, and each hit is recorded for its tier. out[i]
  /// corresponds to wanted[i].
  std::vector<std::optional<Bytes>> consult_peer_tiers(
      const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted);
  bool has_peer_source() const noexcept { return !peer_tiers_.empty(); }

  std::vector<PeerSource> peer_tiers_;  // cooperative lookup ladder
  std::atomic<std::uint64_t> peer_hits_{0};
  /// Hits per tier (add order); atomic because read_range gather runs its
  /// peer consult outside state_mutex_.
  std::array<std::atomic<std::uint64_t>, kMaxPeerTiers> peer_tier_hits_{};
  /// Client-side cache of chunk manifests already transferred.
  std::unordered_map<Fingerprint, ChunkManifest, FingerprintHash>
      manifest_cache_;
  util::Concurrency concurrency_;            // batched-fetch worker budget
  std::unique_ptr<util::ThreadPool> pool_;   // lazily built
  bool bulk_warm_deploy_ = false;
  bool prefetch_after_deploy_ = false;
  std::size_t batch_files_ = 64;             // files per bulk round-trip
  std::size_t range_batch_chunks_ = 64;      // chunks per range round-trip
  PrefetchOrder prefetch_order_ = PrefetchOrder::kPath;
  PrefetchObserver prefetch_observer_;
  /// First-materialization profiles, keyed by image series. Guarded by its
  /// own mutex: recording happens inside viewer materializer callbacks,
  /// possibly on viewer threads, and must not entangle with state_mutex_.
  mutable std::mutex profiles_mutex_;
  std::map<std::string, ImageAccessProfile> profiles_;

  /// Serializes the sim models (link/disk) and the three-level store —
  /// none of them are thread-safe.
  std::mutex state_mutex_;
  /// Serializes registry downloads across flight leaders (the registry is
  /// not thread-safe either). Separate from state_mutex_ so cache probes
  /// and flight joins never queue behind a download in progress.
  std::mutex download_mutex_;
  std::mutex flights_mutex_;  // guards inflight_ (none held together)
  std::unordered_map<Fingerprint, std::shared_ptr<Inflight>, FingerprintHash>
      inflight_;
  std::atomic<std::uint64_t> coalesced_hits_{0};
  /// Demand/backfill link arbiter (lazy deployments). Faults register their
  /// registry fetches; the backfill drain yields while any is in flight.
  DemandLane demand_lane_;
  /// Optional host-wide admission budget shared across clients (null = per
  /// client caps only). Not owned.
  HostBudget* host_budget_ = nullptr;
  /// Per-image index-tree locks (see tree_lock()); guarded by their own
  /// mutex, held only during map lookup/insert.
  std::mutex tree_locks_mutex_;
  std::map<std::string, std::unique_ptr<std::mutex>> tree_locks_;
};

}  // namespace gear
