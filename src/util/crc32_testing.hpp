// Test-only access to both CRC-32C kernels. Only crc32.cpp, which defines
// these functions, and tests include this header; tests use it to compare
// the SSE4.2 path with the portable table, which is the only path on other
// CPUs.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace gear::crc32_testing {

/// True when this CPU reports SSE4.2, so crc32c runs on its crc32
/// instruction.
bool crc32c_native_available();

/// crc32c of `data` through the portable table.
std::uint32_t crc32c_portable(BytesView data);

/// crc32c of `data` through the SSE4.2 instruction. Throws
/// Error(kUnsupported) when crc32c_native_available() is false.
std::uint32_t crc32c_native(BytesView data);

}  // namespace gear::crc32_testing
