// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Docker identifies image layers by the SHA-256 of their (compressed) tarball
// content (paper §II-A); the Docker substrate in this repo does the same.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace gear {

/// 256-bit SHA-256 digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

namespace sha256_testing {
struct Access;
}

/// Incremental SHA-256 hasher. Whole blocks go through the x86 SHA
/// extensions when the CPU has them (decided once per process), and
/// through the portable block function otherwise; both give the same
/// digest (DESIGN §6o).
class Sha256 {
 public:
  Sha256();

  void reset();
  void update(BytesView data);
  Sha256Digest finish();

  static Sha256Digest hash(BytesView data);
  static std::string hex(BytesView data);

 private:
  friend struct sha256_testing::Access;
  // Hashes `count` whole 64-byte blocks into `state`.
  using BlockFunction = void (*)(std::uint32_t* state,
                                 const std::uint8_t* blocks,
                                 std::size_t count);
  explicit Sha256(BlockFunction blocks) : blocks_(blocks) { reset(); }

  BlockFunction blocks_;
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
  bool finished_ = false;
};

}  // namespace gear
