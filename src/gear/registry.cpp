#include "gear/registry.hpp"

#include <mutex>
#include <string>
#include <unordered_set>

#include "compress/codec.hpp"

namespace gear {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Decompresses the stored frame of `fp`; a damaged frame is kCorruptData
/// naming the object rather than an exception out of the caller's phase.
StatusOr<Bytes> decompress_object(const Fingerprint& fp, BytesView frame) {
  try {
    return decompress(frame);
  } catch (const Error& e) {
    return {ErrorCode::kCorruptData,
            "corrupt object " + fp.hex() + ": " + e.message()};
  }
}

/// The error a failed store read of `fp` becomes: only an absent object is
/// kNotFound ("<what> not found: <fp>"); any other failure keeps its code
/// and names the fingerprint.
template <typename T, typename U>
StatusOr<T> read_failure(const Fingerprint& fp, const StatusOr<U>& failed,
                         const char* what) {
  if (failed.code() == ErrorCode::kNotFound) {
    return {ErrorCode::kNotFound, std::string(what) + " not found: " + fp.hex()};
  }
  return {failed.code(),
          std::string(what) + " " + fp.hex() + ": " + failed.message()};
}
}  // namespace

GearRegistry::GearRegistry(std::unique_ptr<ObjectStore> store)
    : store_(store != nullptr ? std::move(store)
                              : std::make_unique<MemoryObjectStore>()) {}

std::vector<std::uint8_t> GearRegistry::query_many(
    const std::vector<Fingerprint>& fps) const {
  std::vector<std::uint8_t> out(fps.size(), 0);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    stats_.queries.fetch_add(1, kRelaxed);
    std::shared_lock lock(shard_lock(fps[i]));
    out[i] = contains_locked(fps[i]) ? 1 : 0;
  }
  return out;
}

bool GearRegistry::upload_compressed_locked(const Fingerprint& fp,
                                            Bytes compressed) {
  store_->put_if_absent(fp, std::move(compressed));
  stats_.uploads_accepted.fetch_add(1, kRelaxed);
  return true;
}

bool GearRegistry::upload_precompressed(const Fingerprint& fp,
                                        Bytes compressed) {
  std::unique_lock lock(shard_lock(fp));
  if (contains_locked(fp)) {
    stats_.uploads_deduplicated.fetch_add(1, kRelaxed);
    return false;
  }
  return upload_compressed_locked(fp, std::move(compressed));
}

std::vector<std::uint8_t> GearRegistry::upload_precompressed_many(
    std::vector<std::pair<Fingerprint, Bytes>> items) {
  std::array<bool, kObjectStoreShards> touched{};
  for (const auto& item : items) touched[object_store_shard(item.first)] = true;
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  for (std::size_t s = 0; s < kObjectStoreShards; ++s) {
    if (touched[s]) locks.emplace_back(shard_locks_[s]);
  }
  std::vector<std::uint8_t> stored(items.size(), 0);
  std::vector<StorePut> puts;
  std::unordered_set<Fingerprint, FingerprintHash> batch;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto& [fp, frame] = items[i];
    if (contains_locked(fp) || !batch.insert(fp).second) continue;
    puts.push_back({fp, std::move(frame), std::nullopt});
    stored[i] = 1;
  }
  store_->put_batch(std::move(puts));
  stats_.uploads_accepted.fetch_add(batch.size(), kRelaxed);
  stats_.uploads_deduplicated.fetch_add(items.size() - batch.size(), kRelaxed);
  return stored;
}

bool GearRegistry::upload_chunked(const Fingerprint& fp, BytesView content,
                                  const ChunkPolicy& policy,
                                  const FingerprintHasher& hasher) {
  if (!policy.applies_to(content.size())) {
    return upload(fp, content);
  }
  std::unique_lock lock(shard_lock(fp));
  if (contains_locked(fp)) {
    stats_.uploads_deduplicated.fetch_add(1, kRelaxed);
    return false;
  }
  ChunkManifest manifest = build_chunk_manifest(content, policy, hasher);
  if (manifest.chunks.size() <= 1) {
    // A single-chunk manifest buys nothing and would alias the file's
    // fingerprint with its only chunk's (identical content): store plain.
    return upload_compressed_locked(fp, compress(content));
  }
  // The file's new chunks, then its manifest, in one batch. Chunk inserts
  // go straight to the (internally synchronized) store: a racing upload of
  // another file sharing a chunk stores identical bytes, and put_batch
  // accounts the winner exactly once.
  std::vector<StorePut> batch;
  std::unordered_set<Fingerprint, FingerprintHash> chunks;
  for (std::size_t i = 0; i < manifest.chunks.size(); ++i) {
    const Fingerprint& chunk_fp = manifest.chunks[i];
    if (store_->contains(chunk_fp) || !chunks.insert(chunk_fp).second) {
      continue;  // shared chunk: dedup
    }
    batch.push_back({chunk_fp, compress(chunk_view(content, manifest, i)),
                     std::nullopt});
  }
  batch.push_back({fp, {}, std::move(manifest)});
  store_->put_batch(std::move(batch));
  stats_.uploads_accepted.fetch_add(1, kRelaxed);
  return true;
}

bool GearRegistry::is_chunked(const Fingerprint& fp) const {
  return store_->contains_manifest(fp);
}

StatusOr<ChunkManifest> GearRegistry::chunk_manifest(
    const Fingerprint& fp) const {
  std::shared_lock lock(shard_lock(fp));
  StatusOr<ChunkManifest> manifest = store_->get_manifest(fp);
  if (manifest.ok()) return manifest;
  if (manifest.code() == ErrorCode::kNotFound) {
    return {ErrorCode::kNotFound, "no chunk manifest for " + fp.hex()};
  }
  return read_failure<ChunkManifest>(fp, manifest, "chunk manifest of");
}

StatusOr<Bytes> GearRegistry::reassemble_locked(const Fingerprint& fp) const {
  StatusOr<ChunkManifest> manifest = store_->get_manifest(fp);
  if (!manifest.ok()) return read_failure<Bytes>(fp, manifest, "gear file");
  const ChunkManifest& m = *manifest;
  Bytes out;
  out.reserve(m.file_size);
  for (const Fingerprint& chunk_fp : m.chunks) {
    StatusOr<Bytes> chunk = store_->get(chunk_fp);
    if (!chunk.ok()) {
      // A chunk that a stored manifest lists is missing: corrupt data.
      if (chunk.code() == ErrorCode::kNotFound) {
        return {ErrorCode::kCorruptData,
                "chunk missing for " + fp.hex() + ": " + chunk_fp.hex()};
      }
      return {chunk.code(), "chunk of " + fp.hex() + ": " + chunk.message()};
    }
    StatusOr<Bytes> content = decompress_object(chunk_fp, *chunk);
    if (!content.ok()) {
      return {content.code(),
              "chunk of " + fp.hex() + ": " + content.message()};
    }
    append(out, *content);
  }
  if (out.size() != m.file_size) {
    return {ErrorCode::kCorruptData, "chunked reassembly size mismatch"};
  }
  return out;
}

StatusOr<Bytes> GearRegistry::download_compressed(const Fingerprint& fp) const {
  std::shared_lock lock(shard_lock(fp));
  if (store_->contains_manifest(fp)) {
    // Chunked files have no single stored frame; reassemble (counts one
    // download, like any whole-file fetch) and re-frame for the wire.
    stats_.downloads.fetch_add(1, kRelaxed);
    StatusOr<Bytes> whole = reassemble_locked(fp);
    if (!whole.ok()) return whole;
    return compress(*whole);
  }
  StatusOr<Bytes> frame = store_->get(fp);
  if (!frame.ok()) return read_failure<Bytes>(fp, frame, "gear file");
  stats_.downloads.fetch_add(1, kRelaxed);
  return frame;
}

StatusOr<std::vector<Bytes>> GearRegistry::download_batch(
    const std::vector<Fingerprint>& fps, util::ThreadPool* pool,
    std::uint64_t* wire_bytes_out) const {
  std::vector<Bytes> out(fps.size());
  std::uint64_t wire = 0;

  // Resolve phase: per-item shared shard lock; account stats and wire size,
  // and serve the (rare, reassembly-heavy) chunked objects. Plain objects
  // are only copied out compressed here; their decompression is deferred.
  std::vector<Bytes> plain(fps.size());
  std::vector<std::uint8_t> deferred(fps.size(), 0);
  auto item_pos = [&](std::size_t i) {
    return " (item " + std::to_string(i + 1) + " of " +
           std::to_string(fps.size()) + ")";
  };
  for (std::size_t i = 0; i < fps.size(); ++i) {
    std::shared_lock lock(shard_lock(fps[i]));
    if (store_->contains_manifest(fps[i])) {
      stats_.downloads.fetch_add(1, kRelaxed);
      StatusOr<Bytes> whole = reassemble_locked(fps[i]);
      if (!whole.ok()) {
        return {whole.code(),
                "download_batch: " + whole.message() + item_pos(i)};
      }
      // The stored size re-reads the manifest and sizes every chunk; skip it
      // when the caller does not want the wire total.
      if (wire_bytes_out != nullptr) {
        StatusOr<std::uint64_t> size = stored_size_locked(fps[i]);
        if (!size.ok()) {
          return {size.code(), "download_batch: stored size of " +
                                   fps[i].hex() + ": " + size.message() +
                                   item_pos(i)};
        }
        wire += *size;
      }
      out[i] = std::move(whole).value();
      continue;
    }
    StatusOr<Bytes> frame = store_->get(fps[i]);
    if (!frame.ok()) {
      StatusOr<Bytes> failed = read_failure<Bytes>(fps[i], frame, "gear file");
      return {failed.code(),
              "download_batch: " + failed.message() + item_pos(i)};
    }
    stats_.downloads.fetch_add(1, kRelaxed);
    wire += frame->size();
    plain[i] = std::move(*frame);
    deferred[i] = 1;
  }

  // Parallel phase: pure decompression, results placed by index. A damaged
  // frame fails only its own slot; the lowest failed slot is reported, so
  // the error is the same at any pool width.
  std::vector<std::string> damaged(fps.size());
  auto decompress_one = [&](std::size_t i) {
    if (deferred[i] == 0) return;
    StatusOr<Bytes> content = decompress_object(fps[i], plain[i]);
    if (content.ok()) {
      out[i] = std::move(content).value();
    } else {
      damaged[i] = content.message();
    }
  };
  if (pool != nullptr) {
    pool->parallel_for_each(fps.size(), decompress_one);
  } else {
    for (std::size_t i = 0; i < fps.size(); ++i) decompress_one(i);
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (!damaged[i].empty()) {
      return {ErrorCode::kCorruptData,
              "download_batch: " + damaged[i] + item_pos(i)};
    }
  }

  if (wire_bytes_out != nullptr) *wire_bytes_out = wire;
  return out;
}

StatusOr<Sha256Digest> GearRegistry::digest_of(const Fingerprint& fp) const {
  StatusOr<Bytes> frame{ErrorCode::kNotFound, ""};
  {
    std::shared_lock lock(shard_lock(fp));
    if (store_->contains_manifest(fp)) {
      StatusOr<Bytes> whole = reassemble_locked(fp);
      if (!whole.ok()) return {whole.code(), whole.message()};
      return Sha256::hash(*whole);
    }
    frame = store_->get(fp);
  }
  // A plain frame is decoded and hashed after the lock is dropped: an
  // upload to this shard waits only for the read.
  if (!frame.ok()) return read_failure<Sha256Digest>(fp, frame, "gear file");
  StatusOr<Bytes> content = decompress_object(fp, *frame);
  if (!content.ok()) return {content.code(), content.message()};
  return Sha256::hash(*content);
}

std::vector<StatusOr<Sha256Digest>> GearRegistry::query_digests(
    const std::vector<Fingerprint>& fps, util::ThreadPool* pool) const {
  std::vector<StatusOr<Sha256Digest>> out(fps.size(), Sha256Digest{});
  auto digest_one = [&](std::size_t i) { out[i] = digest_of(fps[i]); };
  if (pool != nullptr) {
    pool->parallel_for_each(fps.size(), digest_one);
  } else {
    for (std::size_t i = 0; i < fps.size(); ++i) digest_one(i);
  }
  return out;
}

StatusOr<Bytes> GearRegistry::download_range(
    const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
    std::uint64_t* wire_bytes_out) const {
  std::shared_lock lock(shard_lock(fp));
  StatusOr<ChunkManifest> manifest = store_->get_manifest(fp);
  if (!manifest.ok() && manifest.code() != ErrorCode::kNotFound) {
    return read_failure<Bytes>(fp, manifest, "gear file");
  }
  if (manifest.ok()) {
    const ChunkManifest& m = *manifest;
    auto [first, last] = m.chunk_range(offset, length);
    stats_.downloads.fetch_add(1, kRelaxed);
    Bytes assembled;
    std::uint64_t wire = 0;
    for (std::size_t c = first; c <= last; ++c) {
      StatusOr<Bytes> chunk = store_->get(m.chunks[c]);
      if (!chunk.ok()) {
        if (chunk.code() == ErrorCode::kNotFound) {
          return {ErrorCode::kCorruptData,
                  "chunk missing: " + m.chunks[c].hex()};
        }
        return {chunk.code(), "chunk of " + fp.hex() + ": " + chunk.message()};
      }
      wire += chunk->size();
      StatusOr<Bytes> content = decompress_object(m.chunks[c], *chunk);
      if (!content.ok()) {
        return {content.code(),
                "chunk of " + fp.hex() + ": " + content.message()};
      }
      append(assembled, *content);
    }
    if (wire_bytes_out != nullptr) *wire_bytes_out = wire;
    std::uint64_t skip = offset - first * m.chunk_bytes;
    if (skip + length > assembled.size()) {
      return {ErrorCode::kCorruptData, "chunk range reassembly too short"};
    }
    return Bytes(assembled.begin() + static_cast<std::ptrdiff_t>(skip),
                 assembled.begin() + static_cast<std::ptrdiff_t>(skip + length));
  }

  // Plain object: the whole blob moves; slice client-side.
  StatusOr<Bytes> frame = store_->get(fp);
  if (!frame.ok()) return read_failure<Bytes>(fp, frame, "gear file");
  stats_.downloads.fetch_add(1, kRelaxed);
  if (wire_bytes_out != nullptr) *wire_bytes_out = frame->size();
  StatusOr<Bytes> whole = decompress_object(fp, *frame);
  if (!whole.ok()) return whole;
  if (offset + length > whole->size() || length == 0) {
    return {ErrorCode::kInvalidArgument, "range out of bounds"};
  }
  return Bytes(whole->begin() + static_cast<std::ptrdiff_t>(offset),
               whole->begin() + static_cast<std::ptrdiff_t>(offset + length));
}

StatusOr<std::uint64_t> GearRegistry::stored_size_locked(
    const Fingerprint& fp) const {
  StatusOr<ChunkManifest> manifest = store_->get_manifest(fp);
  if (!manifest.ok() && manifest.code() != ErrorCode::kNotFound) {
    return read_failure<std::uint64_t>(fp, manifest, "gear file");
  }
  if (manifest.ok()) {
    std::uint64_t total = manifest->serialize().size();
    for (const Fingerprint& chunk_fp : manifest->chunks) {
      StatusOr<std::uint64_t> size = store_->object_size(chunk_fp);
      if (size.ok()) total += *size;
    }
    return total;
  }
  StatusOr<std::uint64_t> size = store_->object_size(fp);
  if (!size.ok()) {
    return {ErrorCode::kNotFound, "gear file not found: " + fp.hex()};
  }
  return size;
}

StatusOr<std::uint64_t> GearRegistry::stored_size(const Fingerprint& fp) const {
  std::shared_lock lock(shard_lock(fp));
  return stored_size_locked(fp);
}

StatusOr<Bytes> GearRegistry::download_chunk_compressed(
    const Fingerprint& chunk_fp) const {
  std::shared_lock lock(shard_lock(chunk_fp));
  StatusOr<Bytes> frame = store_->get(chunk_fp);
  if (!frame.ok()) return read_failure<Bytes>(chunk_fp, frame, "chunk");
  stats_.downloads.fetch_add(1, kRelaxed);
  return frame;
}

StatusOr<std::uint64_t> GearRegistry::chunk_stored_size(
    const Fingerprint& chunk_fp) const {
  std::shared_lock lock(shard_lock(chunk_fp));
  StatusOr<std::uint64_t> size = store_->object_size(chunk_fp);
  if (!size.ok()) {
    return {ErrorCode::kNotFound, "chunk not found: " + chunk_fp.hex()};
  }
  return size;
}

std::vector<Fingerprint> GearRegistry::list_objects() const {
  return store_->list_objects();
}

std::vector<Fingerprint> GearRegistry::list_chunked() const {
  return store_->list_manifests();
}

std::uint64_t GearRegistry::remove(const Fingerprint& fp) {
  // An fp can name both a plain/chunk object and a chunk manifest when
  // contents coincide; an unreferenced fp releases every role it plays.
  std::unique_lock lock(shard_lock(fp));
  return store_->erase(fp) + store_->erase_manifest(fp);
}

}  // namespace gear
