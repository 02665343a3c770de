#include "docker/layer.hpp"

#include "compress/codec.hpp"
#include "tar/tar.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace gear::docker {

Digest Digest::of(BytesView blob) { return Digest(Sha256::hash(blob)); }

Digest Digest::from_string(std::string_view s) {
  constexpr std::string_view kPrefix = "sha256:";
  if (s.rfind(kPrefix, 0) == 0) s.remove_prefix(kPrefix.size());
  Bytes raw = hex_decode(s);
  if (raw.size() != 32) {
    throw_error(ErrorCode::kInvalidArgument, "digest must be 64 hex chars");
  }
  Sha256Digest d{};
  std::copy(raw.begin(), raw.end(), d.begin());
  return Digest(d);
}

std::string Digest::hex() const {
  return hex_encode(BytesView(raw_.data(), raw_.size()));
}

std::string Digest::to_string() const { return "sha256:" + hex(); }

Layer Layer::from_tree(const vfs::FileTree& diff_tree) {
  return from_archive(tar::archive_tree(diff_tree));
}

Layer Layer::from_archive(BytesView archive) {
  Bytes blob = compress(archive);
  Digest digest = Digest::of(blob);
  return Layer(std::move(blob), digest, archive.size());
}

Layer Layer::from_blob(Bytes compressed_blob) {
  Digest digest = Digest::of(compressed_blob);
  std::uint64_t uncompressed =
      compressed_frame_original_size(compressed_blob);
  return Layer(std::move(compressed_blob), digest, uncompressed);
}

Layer Layer::from_blob(Bytes compressed_blob, const Digest& expected) {
  Layer layer = from_blob(std::move(compressed_blob));
  if (layer.digest() != expected) {
    throw_error(ErrorCode::kCorruptData,
                "layer digest mismatch: got " + layer.digest().hex() +
                    ", want " + expected.hex());
  }
  return layer;
}

vfs::FileTree Layer::to_tree() const {
  return tar::extract_tree(decompress(blob_));
}

}  // namespace gear::docker
