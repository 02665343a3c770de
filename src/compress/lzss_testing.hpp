// Test-only access to the LZSS encoder's per-thread table stamp. Only
// lzss.cpp, which defines these functions, and tests include this header;
// tests use it to reach the stamp reset, which otherwise needs 4 GiB of
// input on one thread.
#pragma once

#include <cstdint>

namespace gear::lzss_testing {

/// The calling thread's table base: every entry it holds is at or below it.
std::uint32_t table_base();

/// Raises the calling thread's table base to `base`, as if it had compressed
/// that many more bytes. Throws Error(kInvalidArgument) if `base` is below
/// the current base, which would revive stale entries.
void raise_table_base(std::uint32_t base);

}  // namespace gear::lzss_testing
