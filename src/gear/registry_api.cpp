#include "gear/registry_api.hpp"

#include <algorithm>
#include <string>

#include "compress/codec.hpp"

namespace gear {

bool batch_slice_has_room(const BatchSlice& slice, std::uint64_t size,
                          std::uint64_t max_bytes) {
  const std::uint64_t bound =
      max_bytes == 0 ? kMaxBatchBytes : std::min(max_bytes, kMaxBatchBytes);
  return slice.end - slice.begin < kMaxBatchFiles &&
         slice.bytes + size <= bound;
}

std::vector<BatchSlice> batch_slices(const std::vector<std::uint64_t>& sizes,
                                     std::uint64_t max_bytes) {
  std::vector<BatchSlice> slices;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (slices.empty() ||
        !batch_slice_has_room(slices.back(), sizes[i], max_bytes)) {
      slices.push_back({i, i, 0});
    }
    slices.back().end = i + 1;
    slices.back().bytes += sizes[i];
  }
  return slices;
}

bool FileRegistryApi::query(const Fingerprint& fp) const {
  return query_many({fp})[0] != 0;
}

bool FileRegistryApi::upload(const Fingerprint& fp, BytesView content) {
  return upload_precompressed(fp, compress(content));
}

StatusOr<Bytes> FileRegistryApi::download(const Fingerprint& fp) const {
  StatusOr<std::vector<Bytes>> got = download_batch({fp});
  if (!got.ok()) return {got.code(), got.message()};
  return std::move(got->front());
}

std::size_t FileRegistryApi::upload_precompressed_batch(
    std::vector<std::pair<Fingerprint, Bytes>> items) {
  std::size_t stored = 0;
  for (auto& [fp, compressed] : items) {
    if (upload_precompressed(fp, std::move(compressed))) ++stored;
  }
  return stored;
}

StatusOr<Bytes> FileRegistryApi::download_compressed(
    const Fingerprint& fp) const {
  return {ErrorCode::kUnsupported,
          "download_compressed: backend does not expose stored frames for " +
              fp.hex()};
}

StatusOr<Bytes> FileRegistryApi::download_chunk_compressed(
    const Fingerprint& chunk_fp) const {
  return {ErrorCode::kUnsupported,
          "download_chunk_compressed: backend does not expose stored frames "
          "for " +
              chunk_fp.hex()};
}

bool FileRegistryApi::upload_chunked(const Fingerprint& fp, BytesView content,
                                     const ChunkPolicy& policy,
                                     const FingerprintHasher& hasher) {
  (void)policy;
  (void)hasher;
  return upload(fp, content);
}

StatusOr<Bytes> FileRegistryApi::download_range(
    const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
    std::uint64_t* wire_bytes_out) const {
  StatusOr<Bytes> whole = download(fp);
  if (!whole.ok()) return whole;
  if (length == 0 || offset + length > whole->size()) {
    return {ErrorCode::kInvalidArgument, "range out of bounds"};
  }
  if (wire_bytes_out != nullptr) {
    StatusOr<std::uint64_t> wire = stored_size(fp);
    *wire_bytes_out = wire.ok() ? *wire : whole->size();
  }
  return Bytes(whole->begin() + static_cast<std::ptrdiff_t>(offset),
               whole->begin() + static_cast<std::ptrdiff_t>(offset + length));
}

StatusOr<std::vector<Bytes>> FileRegistryApi::download_chunks(
    const Fingerprint& fp, const ChunkManifest& manifest,
    const std::vector<std::uint32_t>& indices,
    std::uint64_t* wire_bytes_out) const {
  std::vector<Bytes> out(indices.size());
  std::uint64_t wire = 0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::uint32_t index = indices[i];
    if (index >= manifest.chunks.size()) {
      return {ErrorCode::kInvalidArgument,
              "download_chunks: chunk index " + std::to_string(index) +
                  " out of range for " + fp.hex()};
    }
    std::uint64_t chunk_off =
        static_cast<std::uint64_t>(index) * manifest.chunk_bytes;
    std::uint64_t chunk_len =
        std::min<std::uint64_t>(manifest.chunk_bytes,
                                manifest.file_size - chunk_off);
    std::uint64_t chunk_wire = 0;
    StatusOr<Bytes> chunk = download_range(fp, chunk_off, chunk_len,
                                           &chunk_wire);
    if (!chunk.ok()) {
      return {chunk.code(),
              "download_chunks: chunk " + std::to_string(index) + " of " +
                  fp.hex() + ": " + chunk.message()};
    }
    wire += chunk_wire;
    out[i] = std::move(chunk).value();
  }
  if (wire_bytes_out != nullptr) *wire_bytes_out = wire;
  return out;
}

bool FileRegistryApi::is_chunked(const Fingerprint& fp) const {
  (void)fp;
  return false;
}

StatusOr<ChunkManifest> FileRegistryApi::chunk_manifest(
    const Fingerprint& fp) const {
  return {ErrorCode::kNotFound, "no chunk manifest for " + fp.hex()};
}

bool FileRegistryApi::transport_accounted() const { return false; }

}  // namespace gear
