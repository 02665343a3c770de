// LZSS compression codec, implemented from scratch.
//
// The registries compress stored objects: Docker layers are stored as
// compressed tarballs, Gear files "can be further compressed for higher
// space efficiency" (paper §III-C). Any LZ-family codec preserves the
// *relative* compressibility the experiments depend on; this one uses a
// hash-chain match finder over a 64 KiB window with flag-byte token framing.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.hpp"

namespace gear {

/// Raw LZSS encode. Output is token stream only (no header); callers that
/// need framing use the Codec wrapper in codec.hpp.
Bytes lzss_compress(BytesView input);

/// lzss_compress with an early exit: returns the same token stream when it
/// is shorter than `limit` bytes, and nullopt as soon as it reaches `limit`
/// (the stream only grows, so the rest of the input is not encoded). The
/// view points into a buffer of the calling thread, valid until the
/// thread's next call. Each compressing thread keeps its match tables
/// (384 KiB) between calls; the output depends on `input` alone.
std::optional<BytesView> lzss_compress_bounded(BytesView input,
                                               std::size_t limit);

/// Decodes a raw LZSS token stream produced by lzss_compress.
/// `decoded_size` must be the exact original size (carried by the framing).
/// Throws Error(kCorruptData) on malformed input, including a size larger
/// than the stream could encode, which is refused before any allocation.
Bytes lzss_decompress(BytesView input, std::size_t decoded_size);

}  // namespace gear
