#include "util/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/error.hpp"
#include "util/sha256_testing.hpp"
#include "util/hex.hpp"

namespace gear {
namespace {

// Round constants: first 32 bits of the fractional parts of the cube roots of
// the first 64 primes (FIPS 180-4 §4.2.2).
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, std::uint32_t n) {
  return (x >> n) | (x << (32 - n));
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// FIPS 180-4 §6.2.2 on one block, word by word. The only path on CPUs
// without the SHA extensions, and the oracle for the one that uses them.
void process_block(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + i * 4);
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void portable_blocks(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) process_block(state, blocks + i * 64);
}

#if defined(__x86_64__)

// The same compression on the SHA extensions (Intel's SHA-NI layout): the
// state lives in two registers, ABEF and CDGH; each sha256rnds2 runs two
// rounds, and sha256msg1/sha256msg2 extend the message schedule four words
// at a time.
__attribute__((target("sha,sse4.1"))) void native_blocks(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // the last 16 schedule words, four per register
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      if (j < 4) {
        w[j] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * j)),
            kByteSwap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        const __m128i& w1 = w[(j + 3) & 3];  // words 4j-4 .. 4j-1
        const __m128i& w2 = w[(j + 2) & 3];  // words 4j-8 .. 4j-5
        __m128i next = _mm_sha256msg1_epu32(w[j & 3], w[(j + 1) & 3]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(w1, w2, 4));
        w[j & 3] = _mm_sha256msg2_epu32(next, w1);
      }
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j));
      __m128i wk = _mm_add_epi32(w[j & 3], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#endif

using BlockFunction = void (*)(std::uint32_t*, const std::uint8_t*,
                               std::size_t);

// The SHA-extension block function when this CPU has it, else nullptr.
BlockFunction native_block_function() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  if (supported) return native_blocks;
#endif
  return nullptr;
}

BlockFunction block_function() {
  const BlockFunction native = native_block_function();
  return native != nullptr ? native : portable_blocks;
}

}  // namespace

Sha256::Sha256() : Sha256(block_function()) {}

void Sha256::reset() {
  state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  total_len_ = 0;
  buffer_len_ = 0;
  finished_ = false;
}

void Sha256::update(BytesView data) {
  if (finished_) {
    throw_error(ErrorCode::kInvalidArgument, "Sha256::update after finish");
  }
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      blocks_(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    blocks_(state_.data(), data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finish() {
  if (finished_) {
    throw_error(ErrorCode::kInvalidArgument, "Sha256::finish called twice");
  }
  finished_ = true;

  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_)
                                           : (120 - buffer_len_);
  std::uint8_t len_bytes[8];
  store_be32(len_bytes, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(len_bytes + 4, static_cast<std::uint32_t>(bit_len));

  finished_ = false;
  update(BytesView(pad, pad_len));
  update(BytesView(len_bytes, 8));
  finished_ = true;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + i * 4, state_[i]);
  return digest;
}

Sha256Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string Sha256::hex(BytesView data) {
  Sha256Digest d = hash(data);
  return hex_encode(BytesView(d.data(), d.size()));
}

namespace sha256_testing {

struct Access {
  static Sha256Digest hash(Sha256::BlockFunction blocks, BytesView data) {
    Sha256 h(blocks);
    h.update(data);
    return h.finish();
  }
};

bool native_available() { return native_block_function() != nullptr; }

Sha256Digest portable_hash(BytesView data) {
  return Access::hash(portable_blocks, data);
}

Sha256Digest native_hash(BytesView data) {
  const BlockFunction native = native_block_function();
  if (native == nullptr) {
    throw_error(ErrorCode::kUnsupported,
                "sha256: this CPU lacks the SHA extensions");
  }
  return Access::hash(native, data);
}

}  // namespace sha256_testing

}  // namespace gear
