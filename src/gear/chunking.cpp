#include "gear/chunking.hpp"

#include <cstring>

#include "compress/codec.hpp"

namespace gear {
namespace {

constexpr char kMagic[4] = {'G', 'C', 'M', '1'};

}  // namespace

std::pair<std::size_t, std::size_t> ChunkManifest::chunk_range(
    std::uint64_t offset, std::uint64_t length) const {
  if (length == 0 || offset + length > file_size) {
    throw_error(ErrorCode::kInvalidArgument, "chunk_range: out of bounds");
  }
  std::size_t first = static_cast<std::size_t>(offset / chunk_bytes);
  std::size_t last =
      static_cast<std::size_t>((offset + length - 1) / chunk_bytes);
  return {first, last};
}

Bytes ChunkManifest::serialize() const {
  Bytes out(std::begin(kMagic), std::end(kMagic));
  put_varint(out, file_size);
  put_varint(out, chunk_bytes);
  put_varint(out, chunks.size());
  for (const Fingerprint& fp : chunks) {
    out.insert(out.end(), fp.raw().begin(), fp.raw().end());
  }
  return out;
}

ChunkManifest ChunkManifest::parse(BytesView data) {
  if (data.size() < 4 || std::memcmp(data.data(), kMagic, 4) != 0) {
    throw_error(ErrorCode::kCorruptData, "chunk manifest: bad magic");
  }
  std::size_t pos = 4;
  ChunkManifest m;
  m.file_size = get_varint(data, pos);
  m.chunk_bytes = get_varint(data, pos);
  std::uint64_t count = get_varint(data, pos);
  if (m.chunk_bytes == 0 ||
      count != (m.file_size + m.chunk_bytes - 1) / m.chunk_bytes) {
    throw_error(ErrorCode::kCorruptData, "chunk manifest: bad geometry");
  }
  if (pos + count * Fingerprint::kSize != data.size()) {
    throw_error(ErrorCode::kCorruptData, "chunk manifest: bad length");
  }
  m.chunks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::array<std::uint8_t, Fingerprint::kSize> raw{};
    std::memcpy(raw.data(), data.data() + pos, raw.size());
    pos += raw.size();
    m.chunks.emplace_back(raw);
  }
  return m;
}

ChunkManifest build_chunk_manifest(BytesView content,
                                   const ChunkPolicy& policy,
                                   const FingerprintHasher& hasher) {
  if (policy.chunk_bytes == 0) {
    throw_error(ErrorCode::kInvalidArgument, "chunk size must be positive");
  }
  ChunkManifest m;
  m.file_size = content.size();
  m.chunk_bytes = policy.chunk_bytes;
  for (std::size_t off = 0; off < content.size(); off += policy.chunk_bytes) {
    std::size_t len =
        std::min<std::size_t>(policy.chunk_bytes, content.size() - off);
    m.chunks.push_back(hasher.fingerprint(content.subspan(off, len)));
  }
  return m;
}

BytesView chunk_view(BytesView content, const ChunkManifest& manifest,
                     std::size_t chunk_index) {
  if (chunk_index >= manifest.chunks.size()) {
    throw_error(ErrorCode::kInvalidArgument, "chunk index out of range");
  }
  std::size_t off = chunk_index * manifest.chunk_bytes;
  std::size_t len =
      std::min<std::size_t>(manifest.chunk_bytes, content.size() - off);
  return content.subspan(off, len);
}

}  // namespace gear
