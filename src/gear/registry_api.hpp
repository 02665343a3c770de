// File-registry abstraction: the query/upload/download surface the Gear
// deployment path programs against (the paper's three HTTP interfaces,
// §III-C, plus the batched and chunked extensions).
//
// Three implementations exist:
//   * GearRegistry            — the in-process content-addressed store;
//   * FleetRegistry           — N registries behind a consistent-hash ring;
//   * net::RemoteGearRegistry — a client stub speaking the wire protocol
//     over a Transport (loopback, fault-injecting, a simulated link, TCP).
//
// GearClient and push_gear_image operate exclusively on this interface, so
// the exact same deployment code runs against a local store or across the
// network boundary.
//
// The batched calls are the core: query_many, upload_precompressed,
// download_batch and stored_size are pure, and they are all a backend must
// provide. The paper's single-item query / upload / download are defaults
// over them — a batch of one (upload compresses, then stores the frame) —
// so a remote backend moves the same frames either way and no backend keeps
// a second per-item path. Every method stays virtual all the same: wrappers
// (timing seams, test gates) intercept each call by overriding it, and the
// optional extensions below default to something sensible for backends
// without chunk or stored-frame support.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "gear/chunking.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace gear {

/// Files per batch call that a caller of this interface forms on its own:
/// push_gear_image's upload bursts and every multi-file download (see
/// batch_slices). Keeps one burst's memory and the registry's per-request
/// fan-in bounded.
inline constexpr std::size_t kMaxBatchFiles = 64;

/// Bytes per multi-file burst (see batch_slices), whatever larger bound the
/// caller passes: raw bytes per download, compressed frames per upload. A
/// wire frame carries its items' stored frames plus a few dozen bytes of
/// framing each, so this stays far below the transport's frame cap
/// (net::kDefaultMaxFrameBytes, 256 MiB) and bounds what one request holds
/// on either side; 64 of the ~100 KB files of a typical image still travel
/// together.
inline constexpr std::uint64_t kMaxBatchBytes = std::uint64_t{16} << 20;

/// Items [begin, end) of a fetch list, and the sum of their sizes.
struct BatchSlice {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t bytes = 0;
};

/// Cuts a list of items, in order, into consecutive slices of at most
/// kMaxBatchFiles items and at most min(`max_bytes`, kMaxBatchBytes) of
/// `sizes` (`max_bytes` 0 = kMaxBatchBytes alone); an item larger than the
/// bound travels alone. The one place every multi-file burst is formed: the
/// downloads of the converter's collision probe, export, and prefetch (the
/// lazy backfill), and push_gear_image's upload bursts.
std::vector<BatchSlice> batch_slices(const std::vector<std::uint64_t>& sizes,
                                     std::uint64_t max_bytes);

/// The rule batch_slices cuts by: true when an item of `size` bytes may
/// join the non-empty `slice` under the same `max_bytes`. For a caller that
/// learns the sizes one at a time, as push_gear_image does while its frames
/// are still being compressed.
bool batch_slice_has_room(const BatchSlice& slice, std::uint64_t size,
                          std::uint64_t max_bytes);

class FileRegistryApi {
 public:
  virtual ~FileRegistryApi() = default;

  /// "query" interface: does a Gear file with this fingerprint exist?
  /// Default: query_many of one.
  virtual bool query(const Fingerprint& fp) const;

  /// Batched query: out[i] != 0 iff fps[i] is stored. Remote
  /// implementations answer every fingerprint in a single round-trip.
  virtual std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const = 0;

  /// "upload" interface: stores `content` under `fp`. Returns true if
  /// stored, false if deduplicated (already present). Default: compress,
  /// then upload_precompressed.
  virtual bool upload(const Fingerprint& fp, BytesView content);

  /// Stores an already-compressed (GZC1) frame under `fp`; true if stored,
  /// false if deduplicated.
  virtual bool upload_precompressed(const Fingerprint& fp, Bytes compressed) = 0;

  /// Batched precompressed upload; returns the number actually stored (the
  /// rest were deduplicated). Default loops upload_precompressed() in item
  /// order; remote implementations move the whole batch in one round-trip.
  virtual std::size_t upload_precompressed_batch(
      std::vector<std::pair<Fingerprint, Bytes>> items);

  /// Chunked upload (paper §VII). Backends without chunk support store the
  /// file plain — readers are unaffected, they only lose range granularity.
  virtual bool upload_chunked(const Fingerprint& fp, BytesView content,
                              const ChunkPolicy& policy,
                              const FingerprintHasher& hasher = default_hasher());

  /// "download" interface: returns the decompressed file content.
  /// Default: download_batch of one.
  virtual StatusOr<Bytes> download(const Fingerprint& fp) const;

  /// Batched download: results line up with `fps` by index; fails with
  /// kNotFound naming the offending fingerprint if any is absent (nothing
  /// about the batch is partial). `wire_bytes_out` (optional) receives the
  /// summed compressed transfer size. `pool`, when non-null, may be used for
  /// per-object decompression; placement stays deterministic at any width.
  virtual StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool = nullptr,
      std::uint64_t* wire_bytes_out = nullptr) const = 0;

  /// Partial download of [offset, offset+length). Default fetches the whole
  /// object and slices client-side; chunk-aware backends move only the
  /// covering chunks.
  virtual StatusOr<Bytes> download_range(
      const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
      std::uint64_t* wire_bytes_out = nullptr) const;

  /// Batched chunk download of the chunked file `fp`: out[i] is the
  /// decompressed content of manifest.chunks[indices[i]]. `manifest` is the
  /// file's chunk manifest as the caller already holds it (read_range
  /// fetches it once per client), so implementations need no extra lookup
  /// round-trip. Default is an ordered per-chunk download_range loop —
  /// byte- and stats-identical to fetching each chunk individually — while
  /// remote implementations move the whole batch in one kDownloadChunks
  /// frame. `wire_bytes_out` (optional) receives the summed compressed
  /// transfer size.
  virtual StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out = nullptr) const;

  /// Compressed (on-the-wire / on-disk) size of one object.
  virtual StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const = 0;

  /// The wire-transfer form of one object: the stored compressed (GZC1)
  /// frame, shipped verbatim so the bytes on the wire equal the bytes
  /// stored. This is the server half of the batch download protocol — a
  /// net::FrameServer answers kDownloadMany items straight from it, which
  /// is what lets one daemon host a single registry or a whole fleet behind
  /// the same frames. Default: kUnsupported (only storage-backed registries
  /// can serve stored frames; client stubs need not).
  virtual StatusOr<Bytes> download_compressed(const Fingerprint& fp) const;

  /// The stored compressed frame of one chunk object — what a
  /// kDownloadChunks response item carries. Default: kUnsupported.
  virtual StatusOr<Bytes> download_chunk_compressed(
      const Fingerprint& chunk_fp) const;

  /// True when `fp` is stored in chunked form. Default: never.
  virtual bool is_chunked(const Fingerprint& fp) const;

  /// The chunk manifest of a chunked file; kNotFound otherwise.
  virtual StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const;

  /// True when transfers through this registry are already charged to a
  /// simulated link by the transport layer (per frame). The client must not
  /// then also charge its own link model — that would bill every byte twice.
  virtual bool transport_accounted() const;
};

}  // namespace gear
