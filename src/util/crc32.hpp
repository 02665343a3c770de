// CRC-32 (IEEE 802.3 polynomial), table-driven (slicing-by-8), from scratch.
//
// Used by the wire protocol to detect frames damaged in transit — cheaper
// than a cryptographic digest and exactly what integrity checking at this
// layer needs (content identity is separately verified by fingerprints).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace gear {

/// CRC-32 of `data` (reflected, init 0xFFFFFFFF, final xor 0xFFFFFFFF — the
/// zlib/PNG convention).
std::uint32_t crc32(BytesView data);

/// Incremental form: feed `crc` from a previous call (start with 0).
std::uint32_t crc32_update(std::uint32_t crc, BytesView data);

}  // namespace gear
