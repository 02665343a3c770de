// Test-only access to both SHA-256 block functions. Only sha256.cpp, which
// defines these functions, and tests include this header; tests use it to
// compare the SHA-extension path with the portable one, which is the only
// path on other CPUs.
#pragma once

#include "util/bytes.hpp"
#include "util/sha256.hpp"

namespace gear::sha256_testing {

/// True when this CPU reports SHA and SSE4.1, so Sha256 hashes on the SHA
/// extensions.
bool native_available();

/// Sha256::hash of `data` through the portable block function.
Sha256Digest portable_hash(BytesView data);

/// Sha256::hash of `data` through the SHA-extension block function. Throws
/// Error(kUnsupported) when native_available() is false.
Sha256Digest native_hash(BytesView data);

}  // namespace gear::sha256_testing
