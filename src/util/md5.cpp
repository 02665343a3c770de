#include "util/md5.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/hex.hpp"

namespace gear {
namespace {

std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

// The four rounds' steps of RFC 1321 §3.4: a = b + ((a + f(b,c,d) + x + t)
// <<< s). F and G are written in their select form, z ^ (x & (y ^ z)),
// which equals RFC 1321's (x & y) | (~x & z) with one operation fewer.
inline void ff(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (d ^ (b & (c ^ d))) + x + t, s);
}
inline void gg(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (c ^ (d & (b ^ c))) + x + t, s);
}
inline void hh(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (b ^ c ^ d) + x + t, s);
}
inline void ii(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
               std::uint32_t d, std::uint32_t x, int s, std::uint32_t t) {
  a = b + rotl(a + (c ^ (b | ~d)) + x + t, s);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  total_len_ = 0;
  buffer_len_ = 0;
  finished_ = false;
}

// The 64 steps written out, with RFC 1321's constants
// (floor(2^32 * abs(sin(i)))) and shifts inline.
void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = load_le32(block + i * 4);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  ff(a, b, c, d, m[0], 7, 0xd76aa478);
  ff(d, a, b, c, m[1], 12, 0xe8c7b756);
  ff(c, d, a, b, m[2], 17, 0x242070db);
  ff(b, c, d, a, m[3], 22, 0xc1bdceee);
  ff(a, b, c, d, m[4], 7, 0xf57c0faf);
  ff(d, a, b, c, m[5], 12, 0x4787c62a);
  ff(c, d, a, b, m[6], 17, 0xa8304613);
  ff(b, c, d, a, m[7], 22, 0xfd469501);
  ff(a, b, c, d, m[8], 7, 0x698098d8);
  ff(d, a, b, c, m[9], 12, 0x8b44f7af);
  ff(c, d, a, b, m[10], 17, 0xffff5bb1);
  ff(b, c, d, a, m[11], 22, 0x895cd7be);
  ff(a, b, c, d, m[12], 7, 0x6b901122);
  ff(d, a, b, c, m[13], 12, 0xfd987193);
  ff(c, d, a, b, m[14], 17, 0xa679438e);
  ff(b, c, d, a, m[15], 22, 0x49b40821);

  gg(a, b, c, d, m[1], 5, 0xf61e2562);
  gg(d, a, b, c, m[6], 9, 0xc040b340);
  gg(c, d, a, b, m[11], 14, 0x265e5a51);
  gg(b, c, d, a, m[0], 20, 0xe9b6c7aa);
  gg(a, b, c, d, m[5], 5, 0xd62f105d);
  gg(d, a, b, c, m[10], 9, 0x02441453);
  gg(c, d, a, b, m[15], 14, 0xd8a1e681);
  gg(b, c, d, a, m[4], 20, 0xe7d3fbc8);
  gg(a, b, c, d, m[9], 5, 0x21e1cde6);
  gg(d, a, b, c, m[14], 9, 0xc33707d6);
  gg(c, d, a, b, m[3], 14, 0xf4d50d87);
  gg(b, c, d, a, m[8], 20, 0x455a14ed);
  gg(a, b, c, d, m[13], 5, 0xa9e3e905);
  gg(d, a, b, c, m[2], 9, 0xfcefa3f8);
  gg(c, d, a, b, m[7], 14, 0x676f02d9);
  gg(b, c, d, a, m[12], 20, 0x8d2a4c8a);

  hh(a, b, c, d, m[5], 4, 0xfffa3942);
  hh(d, a, b, c, m[8], 11, 0x8771f681);
  hh(c, d, a, b, m[11], 16, 0x6d9d6122);
  hh(b, c, d, a, m[14], 23, 0xfde5380c);
  hh(a, b, c, d, m[1], 4, 0xa4beea44);
  hh(d, a, b, c, m[4], 11, 0x4bdecfa9);
  hh(c, d, a, b, m[7], 16, 0xf6bb4b60);
  hh(b, c, d, a, m[10], 23, 0xbebfbc70);
  hh(a, b, c, d, m[13], 4, 0x289b7ec6);
  hh(d, a, b, c, m[0], 11, 0xeaa127fa);
  hh(c, d, a, b, m[3], 16, 0xd4ef3085);
  hh(b, c, d, a, m[6], 23, 0x04881d05);
  hh(a, b, c, d, m[9], 4, 0xd9d4d039);
  hh(d, a, b, c, m[12], 11, 0xe6db99e5);
  hh(c, d, a, b, m[15], 16, 0x1fa27cf8);
  hh(b, c, d, a, m[2], 23, 0xc4ac5665);

  ii(a, b, c, d, m[0], 6, 0xf4292244);
  ii(d, a, b, c, m[7], 10, 0x432aff97);
  ii(c, d, a, b, m[14], 15, 0xab9423a7);
  ii(b, c, d, a, m[5], 21, 0xfc93a039);
  ii(a, b, c, d, m[12], 6, 0x655b59c3);
  ii(d, a, b, c, m[3], 10, 0x8f0ccc92);
  ii(c, d, a, b, m[10], 15, 0xffeff47d);
  ii(b, c, d, a, m[1], 21, 0x85845dd1);
  ii(a, b, c, d, m[8], 6, 0x6fa87e4f);
  ii(d, a, b, c, m[15], 10, 0xfe2ce6e0);
  ii(c, d, a, b, m[6], 15, 0xa3014314);
  ii(b, c, d, a, m[13], 21, 0x4e0811a1);
  ii(a, b, c, d, m[4], 6, 0xf7537e82);
  ii(d, a, b, c, m[11], 10, 0xbd3af235);
  ii(c, d, a, b, m[2], 15, 0x2ad7d2bb);
  ii(b, c, d, a, m[9], 21, 0xeb86d391);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(BytesView data) {
  if (finished_) {
    throw_error(ErrorCode::kInvalidArgument, "Md5::update after finish");
  }
  total_len_ += data.size();
  std::size_t offset = 0;
  // Fill a partially-buffered block first.
  if (buffer_len_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Md5Digest Md5::finish() {
  if (finished_) {
    throw_error(ErrorCode::kInvalidArgument, "Md5::finish called twice");
  }
  finished_ = true;

  std::uint64_t bit_len = total_len_ * 8;
  // Padding: a 0x80 byte, zeros to 56 mod 64, then the 64-bit length.
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_)
                                           : (120 - buffer_len_);
  std::uint8_t len_bytes[8];
  store_le32(len_bytes, static_cast<std::uint32_t>(bit_len));
  store_le32(len_bytes + 4, static_cast<std::uint32_t>(bit_len >> 32));

  finished_ = false;  // allow the internal updates below
  update(BytesView(pad, pad_len));
  update(BytesView(len_bytes, 8));
  finished_ = true;

  Md5Digest digest;
  for (int i = 0; i < 4; ++i) store_le32(digest.data() + i * 4, state_[i]);
  return digest;
}

Md5Digest Md5::hash(BytesView data) {
  Md5 h;
  h.update(data);
  return h.finish();
}

std::string Md5::hex(BytesView data) {
  Md5Digest d = hash(data);
  return hex_encode(BytesView(d.data(), d.size()));
}

}  // namespace gear
