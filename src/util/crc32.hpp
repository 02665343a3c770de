// CRC-32 (IEEE 802.3 polynomial) and CRC-32C (Castagnoli), from scratch.
//
// CRC-32 is the wire protocol's check on frames damaged in transit.
// CRC-32C is the pack store's check on every stored record: the daemon pays
// it on each read, so it runs on the SSE4.2 crc32 instruction where the CPU
// has one (chosen once per process) and on a slicing-by-8 table elsewhere.
// Both are cheaper than a cryptographic digest and exactly what integrity
// checking at these layers needs (content identity is separately verified
// by fingerprints).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace gear {

/// CRC-32 of `data` (reflected, init 0xFFFFFFFF, final xor 0xFFFFFFFF — the
/// zlib/PNG convention).
std::uint32_t crc32(BytesView data);

/// Incremental form: feed `crc` from a previous call (start with 0).
std::uint32_t crc32_update(std::uint32_t crc, BytesView data);

/// CRC-32C of `data` (Castagnoli polynomial 0x1EDC6F41, reflected, same
/// init and final xor as crc32 — the iSCSI/ext4 convention).
std::uint32_t crc32c(BytesView data);

}  // namespace gear
