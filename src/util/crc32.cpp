#include "util/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/crc32_testing.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

constexpr std::uint32_t kCrc32Polynomial = 0xEDB88320u;   // reflected 0x04C11DB7
constexpr std::uint32_t kCrc32cPolynomial = 0x82F63B78u;  // reflected 0x1EDC6F41

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the register over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables build_tables(std::uint32_t polynomial) {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (polynomial ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kCrc32Tables = build_tables(kCrc32Polynomial);
constexpr Tables kCrc32cTables = build_tables(kCrc32cPolynomial);

/// Advances the (pre-inverted) register `c` over `data` with `t`.
std::uint32_t slice_by_8(const Tables& t, std::uint32_t c, BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Eight bytes per step. The low word is assembled byte by byte, so the
  // kernel reads the same value on any host byte order.
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24));
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c;
}

std::uint32_t crc32c_portable_kernel(BytesView data) {
  return slice_by_8(kCrc32cTables, 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)

// The same CRC on SSE4.2's crc32 instruction, eight bytes per step.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_native_kernel(
    BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}

#endif

using Crc32cKernel = std::uint32_t (*)(BytesView);

// The SSE4.2 kernel when this CPU has it, else nullptr.
Crc32cKernel native_kernel() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (supported) return crc32c_native_kernel;
#endif
  return nullptr;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, BytesView data) {
  return slice_by_8(kCrc32Tables, crc ^ 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(BytesView data) { return crc32_update(0, data); }

std::uint32_t crc32c(BytesView data) {
  static const Crc32cKernel kernel = [] {
    const Crc32cKernel native = native_kernel();
    return native != nullptr ? native : crc32c_portable_kernel;
  }();
  return kernel(data);
}

namespace crc32_testing {

bool crc32c_native_available() { return native_kernel() != nullptr; }

std::uint32_t crc32c_portable(BytesView data) {
  return crc32c_portable_kernel(data);
}

std::uint32_t crc32c_native(BytesView data) {
  const Crc32cKernel native = native_kernel();
  if (native == nullptr) {
    throw_error(ErrorCode::kUnsupported, "crc32c: this CPU lacks SSE4.2");
  }
  return native(data);
}

}  // namespace crc32_testing

}  // namespace gear
