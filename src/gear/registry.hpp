// Gear Registry: the content-addressed Gear file store.
//
// Mirrors the paper's MinIO-backed file server (§IV) and its three HTTP
// interfaces — query, upload, download (§III-C). Objects are keyed by
// fingerprint; re-uploading an existing fingerprint is deduplicated, which
// is how file-level sharing removes duplicate data across all images in the
// registry. Objects are stored compressed.
//
// Storage engine: the registry is policy over a pluggable ObjectStore
// backend (gear/object_store.hpp) — MemoryObjectStore by default
// (byte- and stats-identical to the historical in-memory maps), or
// DiskObjectStore for a durable registry that reopens after a process
// restart with no re-push. Reads keep the store's error: only an absent
// object is kNotFound; any other failure (a record whose checksum no longer
// matches) keeps its code and names the fingerprint.
//
// Concurrency: the registry is safe for concurrent callers. A sharded
// reader-writer lock (kObjectStoreShards shards by fingerprint hash) lets
// one server process overlap independent batch downloads while uploads take
// only their own fingerprint's shard exclusively; dedup upserts are
// linearizable per fingerprint and stats are atomic counters. Results and
// stats totals are identical whether callers run serially or concurrently.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>

#include "gear/chunking.hpp"
#include "gear/object_store.hpp"
#include "gear/registry_api.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace gear {

/// Interface counters. Fields are atomics so concurrent registry callers
/// update them race-free; read them as plain numbers.
struct GearRegistryStats {
  std::atomic<std::uint64_t> uploads_accepted{0};
  std::atomic<std::uint64_t> uploads_deduplicated{0};
  std::atomic<std::uint64_t> downloads{0};
  std::atomic<std::uint64_t> queries{0};
};

class GearRegistry : public FileRegistryApi {
 public:
  /// Backed by `store`; a null/omitted store means a fresh MemoryObjectStore
  /// (the historical in-memory registry).
  explicit GearRegistry(std::unique_ptr<ObjectStore> store = nullptr);

  /// Batched "query" interface: out[i] != 0 iff fps[i] is stored. Each
  /// fingerprint is checked under its own shard lock and counts one query.
  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override;

  /// Stores an already-compressed frame under `fp`; returns true if stored,
  /// false if deduplicated (already present). The "upload" interface is
  /// this call after compress() — which lets uploaders (the parallel push
  /// path) compress in worker threads and keep the registry mutation itself
  /// per-fingerprint. compress() is deterministic, so stored bytes and stats
  /// match the serial path exactly.
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override;

  /// Batched upload_precompressed: every shard the batch touches is locked
  /// exclusively, in shard order, so each dedup check and its insert stay
  /// one step per fingerprint; the new frames then go to the store in one
  /// put_batch (one append and one sync on a DiskObjectStore). A repeat
  /// within the batch deduplicates like a repeat across batches.
  std::vector<std::uint8_t> upload_precompressed_many(
      std::vector<std::pair<Fingerprint, Bytes>> items) override;

  /// Chunked upload (future-work extension, paper §VII): stores the file as
  /// policy-sized chunk objects plus a chunk manifest under `fp`, in one
  /// store put_batch (its new chunks, then the manifest). Chunks shared with
  /// other files are deduplicated individually. Falls back to a plain
  /// upload when the policy does not apply to this file size.
  bool upload_chunked(
      const Fingerprint& fp, BytesView content, const ChunkPolicy& policy,
      const FingerprintHasher& hasher = default_hasher()) override;

  /// True when `fp` is stored in chunked form.
  bool is_chunked(const Fingerprint& fp) const override;

  /// The chunk manifest of a chunked file. kNotFound (naming the
  /// fingerprint hex) otherwise.
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override;

  /// The wire-transfer form of one object: the stored compressed (GZC1)
  /// frame for plain objects, a reassembled-and-recompressed frame for
  /// chunked files. What a batch download response carries per item — the
  /// server ships stored bytes verbatim instead of decompressing them.
  StatusOr<Bytes> download_compressed(const Fingerprint& fp) const override;

  /// Batched "download" interface: one call serves many fingerprints so a
  /// client can pay a single pipelined round-trip for a bulk fetch. Results
  /// line up with `fps` by index; chunked files are reassembled
  /// transparently. `wire_bytes_out` (optional) receives the summed
  /// compressed transfer size. When `pool` is non-null, per-object
  /// decompression fans out across it; lookups, stats, and result placement
  /// stay deterministic regardless of the pool width. Fails with kNotFound
  /// naming the offending fingerprint if any is absent (nothing about the
  /// batch is partial). Errors name the fingerprint hex, matching the remote
  /// stub's. Independent concurrent batch downloads overlap: readers take
  /// only shared shard locks.
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool = nullptr,
      std::uint64_t* wire_bytes_out = nullptr) const override;

  /// Collision verdicts where the bytes are: out[i] is the SHA-256 of the
  /// raw content stored under fps[i], computed here from the stored frame
  /// (or the reassembled chunks) without moving it. Each fingerprint is one
  /// task on `pool` when given: its frame is read under its shard lock
  /// (shared), then decompressed and hashed. kNotFound when absent;
  /// kCorruptData naming the object when its frame, or one of its chunks,
  /// no longer decodes. Counts no download: no content leaves.
  std::vector<StatusOr<Sha256Digest>> query_digests(
      const std::vector<Fingerprint>& fps,
      util::ThreadPool* pool = nullptr) const override;

  /// Partial download of a chunked file: only the chunks covering
  /// [offset, offset+length) move. `wire_bytes_out` (optional) receives the
  /// compressed bytes a client would transfer. Works on plain files too
  /// (whole object moves; the range is sliced client-side).
  StatusOr<Bytes> download_range(
      const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
      std::uint64_t* wire_bytes_out = nullptr) const override;

  /// Compressed (on-the-wire / on-disk) size of one object; what a client
  /// transfers when fetching this file whole (manifest + chunks when
  /// chunked). kNotFound when absent.
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override;

  /// Wire size of one stored chunk object. kNotFound when absent.
  StatusOr<std::uint64_t> chunk_stored_size(const Fingerprint& chunk_fp) const;

  /// The stored compressed frame of one chunk object — what a
  /// kDownloadChunks response item carries. Counts one download, exactly
  /// like the per-chunk download_range it replaces on the wire path.
  /// kNotFound when absent.
  StatusOr<Bytes> download_chunk_compressed(const Fingerprint& chunk_fp) const override;

  /// Enumerates plain/chunk object fingerprints (unordered).
  std::vector<Fingerprint> list_objects() const;

  /// Enumerates chunked-file (manifest) fingerprints (unordered).
  std::vector<Fingerprint> list_chunked() const;

  /// Deletes one object or chunk manifest (GC sweep). Returns bytes freed,
  /// 0 when absent. Removing a manifest does NOT remove its chunks — they
  /// are swept individually if unreferenced.
  std::uint64_t remove(const Fingerprint& fp);

  /// The storage engine beneath this registry. Reads through it bypass the
  /// interface above, so they carry no stats side effects.
  ObjectStore& store() noexcept { return *store_; }
  const ObjectStore& store() const noexcept { return *store_; }

  /// Storage accounting. Chunked files count one manifest object plus their
  /// (deduplicated) chunk objects.
  std::uint64_t storage_bytes() const noexcept { return store_->stored_bytes(); }
  std::size_t object_count() const {
    return store_->object_count() + store_->manifest_count();
  }
  const GearRegistryStats& stats() const noexcept { return stats_; }

 private:
  std::shared_mutex& shard_lock(const Fingerprint& fp) const {
    return shard_locks_[object_store_shard(fp)];
  }

  /// True when `fp` is stored plain or chunked; caller holds its shard lock.
  bool contains_locked(const Fingerprint& fp) const {
    return store_->contains(fp) || store_->contains_manifest(fp);
  }

  /// Reassembles the chunked file `fp`; caller holds its shard lock
  /// (shared). Chunk objects are read through the store's own (atomic)
  /// lookups, never through other registry shard locks.
  StatusOr<Bytes> reassemble_locked(const Fingerprint& fp) const;

  /// The SHA-256 of the raw content stored under `fp` (query_digests'
  /// per-item task); takes the shard lock itself.
  StatusOr<Sha256Digest> digest_of(const Fingerprint& fp) const;

  /// Dedup upsert core; caller holds the shard lock of `fp` exclusively.
  bool upload_compressed_locked(const Fingerprint& fp, Bytes compressed);

  /// Core of stored_size(); caller holds the shard lock of `fp` (shared).
  StatusOr<std::uint64_t> stored_size_locked(const Fingerprint& fp) const;

  std::unique_ptr<ObjectStore> store_;
  /// Per-fingerprint linearization of compound check-then-insert sequences;
  /// shard choice matches the store's (object_store_shard).
  mutable std::array<std::shared_mutex, kObjectStoreShards> shard_locks_;
  mutable GearRegistryStats stats_;
};

}  // namespace gear
