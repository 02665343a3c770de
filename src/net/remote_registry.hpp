// Client stub for a Gear Registry reached over a Transport.
//
// Presents the FileRegistryApi surface while framing every call through the
// wire protocol, so GearClient and push_gear_image deploy over a network
// boundary with the exact code they use in-process. Responses that fail
// integrity checking (bad CRC, truncation, drops) are retried up to a
// bounded number of attempts — transient transmission faults must not
// surface to the deployment path; persistent ones become errors.
//
// The stub implements only the batched core (query_many / download_batch /
// upload_precompressed_many / query_digests, plus the chunk and size
// calls); the single-item query / upload / download are FileRegistryApi's
// batch-of-one defaults, so every call moves one frame per batch. Retry granularity is
// two-level: a frame that fails decode is retransmitted whole (stats_
// .retries), while a per-item fingerprint mismatch inside an intact frame
// refetches only the damaged items in a follow-up batch (stats_
// .item_refetches — counted separately, per the wire format contract).
// Downloaded content is verified against the requested fingerprint
// (end-to-end check, independent of the frame CRC); an item that keeps
// failing — a damaged stored object included — surfaces as kCorruptData
// naming its fingerprint.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "gear/registry_api.hpp"
#include "net/transport.hpp"
#include "util/fingerprint.hpp"

namespace gear::net {

/// Atomics: one stub instance may be shared by concurrent client threads
/// (e.g. parallel batch downloaders); read the fields as plain numbers.
struct RemoteRegistryStats {
  std::atomic<std::uint64_t> requests{0};  // transport round trips issued
  std::atomic<std::uint64_t> retries{0};   // whole-frame retransmissions
  std::atomic<std::uint64_t> integrity_failures{0};  // bad frames + fp mismatch
  std::atomic<std::uint64_t> item_refetches{0};  // single items refetched
};

class RemoteGearRegistry final : public FileRegistryApi {
 public:
  /// `verify_content`: re-hash downloaded payloads and require a match
  /// with the requested fingerprint (end-to-end server check). Disable when
  /// the registry stores collision-salted unique IDs (paper §III-B), whose
  /// names intentionally differ from their content hash.
  explicit RemoteGearRegistry(Transport& transport, int max_attempts = 3,
                              bool verify_content = true,
                              const FingerprintHasher& hasher = default_hasher())
      : transport_(transport),
        max_attempts_(max_attempts),
        verify_content_(verify_content),
        hasher_(hasher) {}

  /// Batched query: one round trip for the whole fingerprint list. Throws
  /// kInternal after exhausting retries.
  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override;

  /// Stores a precompressed frame; one single-item batch round trip.
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override;

  /// Batched precompressed upload: one round trip per batch; out[i] != 0
  /// when the server newly stored items[i].
  std::vector<std::uint8_t> upload_precompressed_many(
      std::vector<std::pair<Fingerprint, Bytes>> items) override;

  /// Batched download: one round trip per batch; per-item payloads are the
  /// server's stored compressed frames, decompressed (optionally on `pool`)
  /// and fingerprint-verified here. kNotFound is NOT retried (it is an
  /// answer). Items that fail verification are refetched individually
  /// (partial retry); a frame damaged in transit is retried whole.
  /// `wire_bytes_out` receives the summed accepted payload sizes — the
  /// compressed transfer volume, matching in-process accounting.
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool = nullptr,
      std::uint64_t* wire_bytes_out = nullptr) const override;

  /// Collision verdicts over the wire: one kDigestMany frame per call,
  /// answered with one 32-byte SHA-256 per file, so no content moves. An
  /// item whose answer is kServerError, whose echo is wrong or whose
  /// payload is not 32 bytes is asked again in a follow-up frame of only
  /// such items (stats_.item_refetches), up to max_attempts; then it is
  /// kCorruptData naming its fingerprint. kNotFound is an answer. The
  /// server hashes on its own pool; `pool` is unused here.
  std::vector<StatusOr<Sha256Digest>> query_digests(
      const std::vector<Fingerprint>& fps,
      util::ThreadPool* pool = nullptr) const override;

  /// Served from the size the server advertises in query responses.
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override;

  /// Chunk support over the wire. The first call per fingerprint issues a
  /// manifest probe — a kDownloadChunks request with an empty index list,
  /// answered with the serialized manifest (or kNotFound for a file stored
  /// plain). Either answer is cached: a fingerprint's storage form is
  /// immutable once stored (dedup upserts never restructure an object), so
  /// repeat reads of the same file cost zero extra round trips.
  bool is_chunked(const Fingerprint& fp) const override;
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override;

  /// Batched chunk download: the whole index list in one kDownloadChunks
  /// frame. Retry granularity mirrors download_batch: a frame damaged in
  /// transit is retransmitted whole, while one corrupt item inside an
  /// intact frame refetches only that chunk (stats_.item_refetches). Items
  /// are verified end-to-end — the echoed fingerprint must match the
  /// manifest entry and the decompressed bytes must hash back to it.
  StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out = nullptr) const override;

  /// Frames through this stub are charged to the simulated link by the
  /// transport itself; clients must not charge their own link model.
  bool transport_accounted() const override { return true; }

  const RemoteRegistryStats& stats() const noexcept { return stats_; }

 private:
  /// Sends and decodes with retries; validates the response type and that
  /// the echoed top-level fingerprint matches.
  WireMessage call(const WireMessage& request, MessageType expected_type) const;

  /// Probes the server for `fp`'s manifest, serving repeats from the cache.
  /// nullopt = probed and stored plain (negative answers cache too).
  const std::optional<ChunkManifest>& probe_manifest(const Fingerprint& fp) const;

  Transport& transport_;
  int max_attempts_;
  bool verify_content_;
  const FingerprintHasher& hasher_;
  mutable RemoteRegistryStats stats_;
  mutable std::mutex manifest_mutex_;
  mutable std::unordered_map<Fingerprint, std::optional<ChunkManifest>,
                             FingerprintHash>
      manifest_cache_;
};

}  // namespace gear::net
