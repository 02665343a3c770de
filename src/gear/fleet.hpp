// Registry fleet: horizontal scale-out of the Gear file registry.
//
// A single registry process is the deployment throughput ceiling once many
// nodes deploy concurrently (the registry_concurrency leg of BENCH_fig8
// measures aggregate throughput *dropping* with 4 clients on one node, and
// EdgePier makes the same argument from the edge side). FleetRegistry
// presents the FileRegistryApi surface over N backend registry instances —
// in-process GearRegistry shards or RemoteGearRegistry stubs — so every
// existing caller (GearClient, push_gear_image, GearConverter,
// p2p::Topology) scales out without changing a deployed byte:
//
//  * Routing. Fingerprints map to shards through a consistent-hash ring
//    (HashRing): `vnodes_per_shard` virtual points per shard over the
//    deterministic FingerprintHash, so placement is stable across processes
//    and balanced across shards. Adding or removing a shard remaps only the
//    ring-delta fingerprints — everything else keeps its home.
//  * Replication. Uploads are written to the first R distinct shards on the
//    ring walk ("home" first, then backups). Reads try the replica list in
//    order and fall back to the next replica when a shard is unreachable
//    (a dead transport throws; the fleet absorbs it and counts a fallback).
//    Only when every replica fails does the caller see an error.
//  * Batch splitting. query_many / download_batch / upload_precompressed_
//    many split per home shard and issue the sub-batches concurrently on
//    the fleet's own thread pool, so a bulk call costs max-over-shards
//    instead of sum — the per-shard wire calls stay the existing batched
//    frames, and result placement stays byte-identical to the single-
//    registry path at any pool width.
//  * Rebalance. add_shard/remove_shard migrate only the objects whose
//    replica set actually changes, through the existing batched
//    download_batch / upload_precompressed_batch calls (chunked files are
//    re-chunked deterministically under their recorded policy). Objects
//    already resident on their home shard are never re-uploaded.
//
// Invariants are spelled out in DESIGN.md §6h.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gear/chunking.hpp"
#include "gear/registry_api.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace gear {

/// Consistent-hash ring over shard ids. Each shard contributes
/// `vnodes` points placed by a splitmix64 finalizer over (shard, vnode);
/// a fingerprint hashes to a point (via FingerprintHash) and is owned by
/// the next points clockwise. Deterministic: the same membership always
/// produces the same ring, whatever the insertion order.
class HashRing {
 public:
  /// Adds `vnodes` points for `shard`. No-op if the shard is present.
  void add_shard(std::size_t shard, std::size_t vnodes);

  /// Removes every point of `shard`.
  void remove_shard(std::size_t shard);

  bool contains(std::size_t shard) const;
  std::size_t shard_count() const { return shard_count_; }
  bool empty() const { return points_.empty(); }

  /// The first `count` distinct shards clockwise from fp's ring point —
  /// replica 0 is the home shard. Returns fewer when the ring holds fewer
  /// shards than `count`.
  std::vector<std::size_t> replicas(const Fingerprint& fp,
                                    std::size_t count) const;

  /// Ring point of a fingerprint (exposed for tests/balance inspection).
  static std::uint64_t point_of(const Fingerprint& fp);

 private:
  // (point, shard), sorted by point. Ties broken by shard id so equal
  // points (astronomically unlikely) stay deterministic.
  std::vector<std::pair<std::uint64_t, std::size_t>> points_;
  std::size_t shard_count_ = 0;
};

/// Per-shard fleet counters. Atomics: concurrent clients route through one
/// fleet instance; read the fields as plain numbers.
struct FleetShardStats {
  /// Items this shard served or stored as the chosen (home) replica.
  std::atomic<std::uint64_t> routed_items{0};
  /// Items written here as a backup replica (R-way replication tail).
  std::atomic<std::uint64_t> replica_items{0};
  /// Reads this shard answered after a preceding replica failed.
  std::atomic<std::uint64_t> fallback_reads{0};
  /// Objects/bytes migrated INTO this shard by rebalances.
  std::atomic<std::uint64_t> rebalanced_in_objects{0};
  std::atomic<std::uint64_t> rebalanced_in_bytes{0};
};

/// Fleet-wide counters (RemoteRegistryStats-style atomics).
struct FleetStats {
  /// Backend calls issued (per-shard sub-batches count once each).
  std::atomic<std::uint64_t> shard_calls{0};
  /// Reads answered by a non-first replica after a failure.
  std::atomic<std::uint64_t> replica_fallbacks{0};
  /// Backend calls that failed with a transport/internal error.
  std::atomic<std::uint64_t> failed_shard_calls{0};
  /// Objects/bytes moved by add_shard/remove_shard rebalances.
  std::atomic<std::uint64_t> rebalanced_objects{0};
  std::atomic<std::uint64_t> rebalanced_bytes{0};
};

/// What a rebalance did. `examined` counts every cataloged object;
/// `moved` only those whose replica set gained the affected shard —
/// the ring-delta. `unmoved` objects were never read or re-uploaded.
struct RebalanceReport {
  std::size_t examined = 0;
  std::size_t moved_objects = 0;
  std::uint64_t moved_bytes = 0;
  std::size_t unmoved_objects = 0;
};

class FleetRegistry final : public FileRegistryApi {
 public:
  struct Options {
    /// Copies of every object (1 = sharding only). Capped at the live
    /// shard count.
    std::size_t replicas = 1;
    /// Virtual ring points per shard; more points = better balance.
    std::size_t vnodes_per_shard = 64;
    /// Fan-out pool width; 0 = min(shard count, hardware concurrency).
    std::size_t workers = 0;
  };

  /// Non-owning: backends must outlive the fleet. Throws kInvalidArgument
  /// on an empty shard list or replicas == 0.
  FleetRegistry(std::vector<FileRegistryApi*> shards, Options options);
  explicit FleetRegistry(std::vector<FileRegistryApi*> shards)
      : FleetRegistry(std::move(shards), Options{}) {}

  // ---- FileRegistryApi ----------------------------------------------------
  // The single-item query / upload / download are the base class's
  // batch-of-one defaults over query_many / upload_precompressed /
  // download_batch.
  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override;
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override;
  /// One upload_precompressed_many per (replica level, shard), run
  /// concurrently; the answer per item is its home shard's.
  std::vector<std::uint8_t> upload_precompressed_many(
      std::vector<std::pair<Fingerprint, Bytes>> items) override;
  bool upload_chunked(
      const Fingerprint& fp, BytesView content, const ChunkPolicy& policy,
      const FingerprintHasher& hasher = default_hasher()) override;
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool = nullptr,
      std::uint64_t* wire_bytes_out = nullptr) const override;
  StatusOr<Bytes> download_range(
      const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
      std::uint64_t* wire_bytes_out = nullptr) const override;
  StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out = nullptr) const override;
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override;
  /// Stored-frame reads (the net::FrameServer surface): routed like every
  /// per-object read — replicas in ring order, home first, fall back on any
  /// failure — so a daemon can serve the batch wire protocol off a whole
  /// fleet of shards.
  StatusOr<Bytes> download_compressed(const Fingerprint& fp) const override;
  StatusOr<Bytes> download_chunk_compressed(
      const Fingerprint& chunk_fp) const override;
  bool is_chunked(const Fingerprint& fp) const override;
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override;
  bool transport_accounted() const override { return transport_accounted_; }

  // ---- fleet management ---------------------------------------------------

  /// Live shards (removed shards keep their id but leave the ring).
  std::size_t shard_count() const;

  /// Effective replication factor (min(Options.replicas, live shards)).
  std::size_t replication() const;

  /// The replica list (home first) the ring currently assigns to `fp`.
  std::vector<std::size_t> replicas_of(const Fingerprint& fp) const;

  /// Joins a new shard and migrates only the ring-delta objects onto it.
  /// Safe against concurrent readers/writers: the old ring keeps serving
  /// while the delta copies, a brief exclusive phase catches up on uploads
  /// that raced the copy, then the new ring is installed. Returns the new
  /// shard's id. Throws if the migration source replicas are all down —
  /// the fleet then keeps serving on the old ring.
  std::size_t add_shard(FileRegistryApi* shard,
                        RebalanceReport* report = nullptr);

  /// Graceful leave: copies the departing shard's ring-delta objects to
  /// their new owners (the shard must still be reachable), then drops it
  /// from the ring. Throws kInvalidArgument on the last live shard.
  RebalanceReport remove_shard(std::size_t shard_id);

  const FleetStats& stats() const noexcept { return stats_; }
  const FleetShardStats& shard_stats(std::size_t shard_id) const;

 private:
  /// What the fleet remembers about every object uploaded through it —
  /// enough to re-upload it elsewhere during a rebalance.
  struct CatalogEntry {
    bool chunked = false;
    ChunkPolicy policy;  // meaningful only when chunked
  };

  /// An immutable view of the routing state. Read paths copy one under a
  /// brief shared lock and release it BEFORE any backend call — a reader
  /// storm must never starve add_shard's exclusive ring swap. Safe because
  /// membership changes never delete anything a stale snapshot routes to:
  /// backends outlive the fleet, rebalances only add copies, and stats
  /// blocks live until the fleet dies. Write paths instead hold the shared
  /// lock across their backend calls, so the rebalance catch-up phase
  /// (which takes the lock exclusively) cannot miss an in-flight upload.
  struct Routing {
    HashRing ring;
    std::vector<FileRegistryApi*> shards;
    std::vector<FleetShardStats*> stats;
  };
  Routing routing_snapshot() const;

  /// The one per-object read path. Tries `read` on the first `fanout`
  /// shards of fp's ring walk (home first) over a routing snapshot. A shard
  /// that throws is down: counted in failed_shard_calls, and the walk moves
  /// on. A non-ok answer is kept and the walk moves on too, unless its code
  /// is `final_code` — an answer every replica would give. The first ok
  /// answer wins and, when `items` != 0, counts as `items` routed items on
  /// its shard, plus fallback reads when an earlier shard threw. With no
  /// ok answer the caller gets the last shard's error (kInternal for a
  /// dead one).
  template <typename T>
  StatusOr<T> read_replicas(
      const Fingerprint& fp, std::size_t fanout, std::uint64_t items,
      const std::function<StatusOr<T>(FileRegistryApi&)>& read,
      std::optional<ErrorCode> final_code = std::nullopt) const;

  /// The one per-object write path: catalogs `fp`, then calls `write` on
  /// every replica (home first) with ring_mutex_ held shared. `write`'s
  /// second argument is true for the last replica, which may consume the
  /// payload. The first shard to answer decides the result and counts a
  /// routed item; later ones count replica items. A shard that throws is
  /// skipped; throws kInternal when every replica fails.
  bool write_replicas(
      const Fingerprint& fp, bool chunked, const ChunkPolicy& policy,
      const std::function<bool(FileRegistryApi&, bool last)>& write);

  void catalog_put(const Fingerprint& fp, bool chunked,
                   const ChunkPolicy& policy);

  /// Copies `entries` from a surviving old-ring replica onto `target_id`
  /// when (and only when) `new_ring` assigns them there. Batched: plain
  /// objects move as download_batch + upload_precompressed_batch groups,
  /// chunked files are re-chunked under their recorded policy. Caller
  /// holds ring_mutex_ (shared or unique); `ring_` must still be the old
  /// ring.
  void migrate_delta_locked(
      const HashRing& new_ring, std::size_t target_id,
      const std::vector<std::pair<Fingerprint, CatalogEntry>>& entries,
      RebalanceReport& rep);

  /// Moves one source group; appends wire bytes/objects to `rep`.
  void copy_entries(FileRegistryApi& src, std::size_t target_id,
                    FileRegistryApi& dst,
                    const std::vector<std::pair<Fingerprint, CatalogEntry>>&
                        entries,
                    RebalanceReport& rep);

  // Serializes membership changes (add_shard/remove_shard) against each
  // other; the data path never takes it.
  std::mutex rebalance_mutex_;

  // Guards ring_ + shards_ + shard_stats_ membership. Shared for every
  // data-path call (so the ring cannot change mid-batch), unique for
  // membership changes. Always acquired before catalog_mutex_.
  mutable std::shared_mutex ring_mutex_;
  HashRing ring_;
  std::vector<FileRegistryApi*> shards_;  // removed shards become nullptr
  std::vector<std::unique_ptr<FleetShardStats>> shard_stats_;

  mutable std::mutex catalog_mutex_;
  std::unordered_map<Fingerprint, CatalogEntry, FingerprintHash> catalog_;

  std::size_t replicas_;
  std::size_t vnodes_;
  bool transport_accounted_;
  mutable util::ThreadPool pool_;
  mutable FleetStats stats_;
};

}  // namespace gear
