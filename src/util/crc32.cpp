#include "util/crc32.hpp"

#include <array>

namespace gear {
namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;  // reflected 0x04C11DB7

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the register over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables build_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
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

constexpr Tables kTables = build_tables();

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, BytesView data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Eight bytes per step. The low word is assembled byte by byte, so the
  // kernel reads the same value on any host byte order.
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                            (static_cast<std::uint32_t>(p[1]) << 8) |
                            (static_cast<std::uint32_t>(p[2]) << 16) |
                            (static_cast<std::uint32_t>(p[3]) << 24));
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
        kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(BytesView data) { return crc32_update(0, data); }

}  // namespace gear
