// Unit tests for util/: hex, MD5, SHA-256, RNG, fingerprints, formatting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>

#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/fingerprint.hpp"
#include "util/format.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/sha256_testing.hpp"

namespace gear {
namespace {

// ---------------------------------------------------------------- hex

TEST(Hex, EncodesLowercase) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(hex_encode(data), "0001abff");
}

TEST(Hex, EmptyRoundTrip) {
  EXPECT_EQ(hex_encode({}), "");
  EXPECT_TRUE(hex_decode("").empty());
}

TEST(Hex, DecodesMixedCase) {
  Bytes d = hex_decode("AbFf09");
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0], 0xab);
  EXPECT_EQ(d[1], 0xff);
  EXPECT_EQ(d[2], 0x09);
}

TEST(Hex, RoundTripRandom) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    Bytes data = rng.next_bytes(rng.next_range(0, 300));
    EXPECT_EQ(hex_decode(hex_encode(data)), data);
  }
}

TEST(Hex, RejectsOddLength) {
  EXPECT_THROW(hex_decode("abc"), Error);
}

TEST(Hex, RejectsNonHex) {
  EXPECT_THROW(hex_decode("zz"), Error);
  EXPECT_THROW(hex_decode("0g"), Error);
}

// ---------------------------------------------------------------- md5

// The MD5 block loop that Md5::process_block's written-out steps replaced,
// kept verbatim as their oracle, with RFC 1321's padding around it: a
// one-shot digest of `data`.
Md5Digest reference_md5(BytesView data) {
  // Per-round left-rotate amounts (RFC 1321 §3.4).
  constexpr std::uint32_t kShift[64] = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

  // K[i] = floor(2^32 * abs(sin(i + 1))).
  constexpr std::uint32_t kSine[64] = {
      0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
      0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
      0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
      0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
      0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
      0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
      0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
      0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
      0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
      0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
      0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

  auto rotl = [](std::uint32_t x, std::uint32_t n) {
    return (x << n) | (x >> (32 - n));
  };
  auto load_le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };

  std::uint32_t state[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                            0x10325476u};
  auto process_block = [&](const std::uint8_t* block) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) m[i] = load_le32(block + i * 4);

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    for (std::uint32_t i = 0; i < 64; ++i) {
      std::uint32_t f;
      std::uint32_t g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) & 15;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) & 15;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) & 15;
      }
      std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl(a + f + kSine[i] + m[g], kShift[i]);
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
  };

  // Padding: a 0x80 byte, zeros to 56 mod 64, then the 64-bit bit length.
  Bytes message(data.begin(), data.end());
  message.push_back(0x80);
  while (message.size() % 64 != 56) message.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    message.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  for (std::size_t off = 0; off < message.size(); off += 64) {
    process_block(message.data() + off);
  }
  Md5Digest digest;
  for (int i = 0; i < 16; ++i) {
    digest[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(state[i / 4] >> (8 * (i % 4)));
  }
  return digest;
}

std::string reference_md5_hex(std::string_view text) {
  const Md5Digest d = reference_md5(to_bytes(text));
  return hex_encode(BytesView(d.data(), d.size()));
}

TEST(Md5Reference, Rfc1321Vectors) {
  // The oracle itself answers RFC 1321's suite, as Md5 must below.
  EXPECT_EQ(reference_md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(reference_md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(reference_md5_hex("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(reference_md5_hex("1234567890123456789012345678901234567890123456"
                              "7890123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, MatchesTheReferenceAtEveryLengthUpTo1000) {
  Rng rng(1321);
  const Bytes data = rng.next_bytes(1000, 0.0);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView prefix(data.data(), len);
    ASSERT_EQ(Md5::hash(prefix), reference_md5(prefix)) << "len=" << len;
  }
}

TEST(Md5, MatchesTheReferenceOnOneMebibytePlusThree) {
  Rng rng(1322);
  const Bytes data = rng.next_bytes((1u << 20) + 3, 0.5);
  EXPECT_EQ(Md5::hash(data), reference_md5(data));
}

TEST(Md5, EverySplitPointMatchesTheReference) {
  Rng rng(1324);
  const Bytes data = rng.next_bytes(300, 0.0);
  const Md5Digest want = reference_md5(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Md5 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    ASSERT_EQ(h.finish(), want) << "split=" << split;
  }
}

TEST(Md5, RandomUpdateSplitsMatchTheReference) {
  Rng rng(1323);
  for (int round = 0; round < 200; ++round) {
    const Bytes data = rng.next_bytes(rng.next_range(0, 3000), 0.3);
    const Md5Digest want = reference_md5(data);
    Md5 h;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t take = std::min<std::size_t>(
          data.size() - pos, rng.next_range(0, 200));
      h.update(BytesView(data.data() + pos, take));
      pos += take;
    }
    ASSERT_EQ(h.finish(), want) << "round " << round;
  }
}

// RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(Md5::hex(to_bytes("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::hex(to_bytes("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::hex(to_bytes("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::hex(to_bytes("message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::hex(to_bytes("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(Md5::hex(to_bytes("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrst"
                              "uvwxyz0123456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(Md5::hex(to_bytes("1234567890123456789012345678901234567890123456"
                              "7890123456789012345678901234567890")),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  Rng rng(11);
  Bytes data = rng.next_bytes(10000, 0.3);
  for (std::size_t split : {0ul, 1ul, 63ul, 64ul, 65ul, 5000ul, 9999ul}) {
    Md5 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Md5::hash(data)) << "split=" << split;
  }
}

TEST(Md5, BlockBoundaryLengths) {
  // Lengths straddling the 64-byte block and the 56-byte padding cutoff.
  for (std::size_t len : {55ul, 56ul, 57ul, 63ul, 64ul, 65ul, 119ul, 120ul,
                          121ul, 128ul}) {
    Bytes data(len, 'q');
    Md5 h;
    for (std::size_t i = 0; i < len; ++i) {
      h.update(BytesView(data.data() + i, 1));
    }
    EXPECT_EQ(h.finish(), Md5::hash(data)) << "len=" << len;
  }
}

TEST(Md5, FinishTwiceThrows) {
  Md5 h;
  h.update(to_bytes("x"));
  h.finish();
  EXPECT_THROW(h.finish(), Error);
  EXPECT_THROW(h.update(to_bytes("y")), Error);
}

TEST(Md5, ResetAllowsReuse) {
  Md5 h;
  h.update(to_bytes("abc"));
  h.finish();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(hex_encode(h.finish()), "900150983cd24fb0d6963f7d28e17f72");
}

// ------------------------------------------------------------- sha256

// FIPS 180-4 / NIST CAVS known-answer vectors.
TEST(Sha256, NistVectors) {
  EXPECT_EQ(Sha256::hex(to_bytes("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::hex(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomn"
                           "opnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Bytes data(1000000, 'a');
  EXPECT_EQ(Sha256::hex(data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(13);
  Bytes data = rng.next_bytes(4096, 0.5);
  Sha256 h;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t chunk = std::min<std::size_t>(97, data.size() - pos);
    h.update(BytesView(data.data() + pos, chunk));
    pos += chunk;
  }
  EXPECT_EQ(h.finish(), Sha256::hash(data));
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(to_bytes("a")), Sha256::hash(to_bytes("b")));
}

// Both block functions: the SHA-extension one where this CPU has it, and
// the portable one, which is the oracle and the only path elsewhere.
TEST(Sha256, BothBlockFunctionsGiveTheSameDigests) {
  const bool native = sha256_testing::native_available();
  std::cout << "[ INFO     ] SHA-256 native path (SHA extensions): "
            << (native ? "yes" : "no, portable only") << "\n";
  if (!native) {
    EXPECT_THROW(sha256_testing::native_hash(to_bytes("abc")), Error);
  }
  auto check = [native](const Bytes& data, const Sha256Digest& want) {
    EXPECT_EQ(sha256_testing::portable_hash(data), want) << data.size();
    if (native) {
      EXPECT_EQ(sha256_testing::native_hash(data), want) << data.size();
    }
    EXPECT_EQ(Sha256::hash(data), want) << data.size();
  };
  // FIPS 180-4 vectors.
  auto digest = [](std::string_view hex) {
    Sha256Digest d{};
    const Bytes raw = hex_decode(hex);
    std::copy(raw.begin(), raw.end(), d.begin());
    return d;
  };
  check(to_bytes("abc"),
        digest("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"));
  check(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        digest("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"));
  check(Bytes(1000000, 'a'),
        digest("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"));
  // Every length 0..1000 (each padding case, one to sixteen blocks) and an
  // index blob's size, against the portable path.
  Rng rng(15);
  for (std::size_t n = 0; n <= 1000; ++n) {
    const Bytes data = rng.next_bytes(n, 0.5);
    check(data, sha256_testing::portable_hash(data));
  }
  const Bytes blob = rng.next_bytes(331143, 0.3);
  check(blob, sha256_testing::portable_hash(blob));
}

TEST(Sha256, IncrementalUpdatesOfEverySplitMatchThePortablePath) {
  // Buffered partial blocks and runs of whole blocks through the dispatched
  // block function, split at every offset of a 3-block message.
  const Bytes data = Rng(16).next_bytes(200, 0.0);
  const Sha256Digest want = sha256_testing::portable_hash(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data).first(split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finish(), want) << split;
  }
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(123), c2(124);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues appear over 1000 draws
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.next_range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, LogUniformWithinBounds) {
  Rng rng(10);
  for (int i = 0; i < 500; ++i) {
    std::uint64_t v = rng.next_log_uniform(16, 65536);
    EXPECT_GE(v, 16u);
    EXPECT_LE(v, 65536u);
  }
}

TEST(Rng, BytesCompressibilityMonotonic) {
  // Higher requested compressibility must produce more repetitive data;
  // proxy: count byte-pairs that repeat.
  auto repetition = [](const Bytes& b) {
    int rep = 0;
    for (std::size_t i = 1; i < b.size(); ++i) rep += b[i] == b[i - 1];
    return rep;
  };
  Rng rng(12);
  Bytes incompressible = rng.next_bytes(20000, 0.0);
  Bytes compressible = rng.next_bytes(20000, 0.8);
  EXPECT_GT(repetition(compressible), repetition(incompressible) * 5);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(14);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_zipf(1000, 1.1) < 10) ++low;
  }
  // Top-10 ranks of 1000 should attract far more than 1% of draws.
  EXPECT_GT(low, n / 20);
}

TEST(Rng, FromLabelIndependentStreams) {
  Rng a = Rng::from_label(1, "alpha");
  Rng b = Rng::from_label(1, "beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a2 = Rng::from_label(1, "alpha");
  Rng a3 = Rng::from_label(1, "alpha");
  EXPECT_EQ(a2.next_u64(), a3.next_u64());
}

// -------------------------------------------------------- fingerprint

TEST(Fingerprint, Md5HasherMatchesMd5) {
  Bytes data = to_bytes("gear file content");
  Fingerprint fp = default_hasher().fingerprint(data);
  EXPECT_EQ(fp.hex(), Md5::hex(data));
}

TEST(Fingerprint, HexRoundTrip) {
  Fingerprint fp = default_hasher().fingerprint(to_bytes("x"));
  EXPECT_EQ(Fingerprint::from_hex(fp.hex()), fp);
}

TEST(Fingerprint, FromHexRejectsBadLength) {
  EXPECT_THROW(Fingerprint::from_hex("abcd"), Error);
  EXPECT_THROW(Fingerprint::from_hex(std::string(33, 'a')), Error);
}

TEST(Fingerprint, TruncatedHasherCollides) {
  TruncatedFingerprintHasher weak(8);  // 8-bit space: collisions certain
  std::set<Fingerprint> fps;
  int collisions = 0;
  Rng rng(15);
  for (int i = 0; i < 600; ++i) {
    Fingerprint fp = weak.fingerprint(rng.next_bytes(32));
    if (!fps.insert(fp).second) ++collisions;
  }
  EXPECT_GT(collisions, 300);  // far beyond 256 distinct values
}

TEST(Fingerprint, TruncatedHasherRespectsBitMask) {
  TruncatedFingerprintHasher weak(12);
  Fingerprint fp = weak.fingerprint(to_bytes("abc"));
  // Bits below the 12th must be zero: byte 1 low nibble and bytes 2..15.
  EXPECT_EQ(fp.raw()[1] & 0x0f, 0);
  for (std::size_t i = 2; i < Fingerprint::kSize; ++i) {
    EXPECT_EQ(fp.raw()[i], 0) << i;
  }
}

TEST(Fingerprint, TruncatedHasherBadBitsThrow) {
  EXPECT_THROW(TruncatedFingerprintHasher(0), Error);
  EXPECT_THROW(TruncatedFingerprintHasher(129), Error);
}

TEST(Fingerprint, CollisionBoundMatchesPaperEq1) {
  // Paper §III-B: ~5e10 deduplicated files under 128-bit MD5 gives a
  // collision probability around 5e-18 — far below disk error rates.
  double p = collision_probability_bound(5e10, 128);
  EXPECT_LT(p, 1e-17);
  EXPECT_GT(p, 1e-19);
  // And it is far below the 1e-12..1e-15 disk error probability band.
  EXPECT_LT(p, 1e-15);
}

// ------------------------------------------------------------- format

TEST(Format, Sizes) {
  EXPECT_EQ(format_size(0), "0 B");
  EXPECT_EQ(format_size(823), "823 B");
  EXPECT_EQ(format_size(1500), "1.5 KB");
  EXPECT_EQ(format_size(370000000000ull), "370.0 GB");
}

TEST(Format, Durations) {
  EXPECT_EQ(format_duration(0.0000005), "0.5 us");
  EXPECT_EQ(format_duration(0.25), "250.0 ms");
  EXPECT_EQ(format_duration(46.0), "46.00 s");
  EXPECT_EQ(format_duration(300.0), "5.0 min");
}

TEST(Format, PercentAndSpeedup) {
  EXPECT_EQ(format_percent(0.537), "53.7 %");
  EXPECT_EQ(format_speedup(5.01), "5.01x");
}

TEST(Format, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

// --------------------------------------------------------------- error

TEST(Error, CarriesCodeAndMessage) {
  try {
    throw_error(ErrorCode::kNotFound, "thing");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
    EXPECT_NE(std::string(e.what()).find("not_found"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("thing"), std::string::npos);
  }
}

TEST(StatusOr, ValueAndError) {
  StatusOr<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> err(ErrorCode::kNotFound, "missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), ErrorCode::kNotFound);
  EXPECT_THROW(err.value(), Error);
}

TEST(StatusOr, MoveOut) {
  StatusOr<std::string> s(std::string("hello"));
  std::string v = std::move(s).value();
  EXPECT_EQ(v, "hello");
}

// -------------------------------------------------------------- file io

TEST(ReadFileBytes, ReadsWholeFilesOfEverySize) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("gear_file_io_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  Rng rng(16);
  for (std::size_t size : {std::size_t{0}, std::size_t{1},
                           std::size_t{(1u << 20) + 3}}) {
    const std::filesystem::path path = dir / ("f" + std::to_string(size));
    Bytes content = rng.next_bytes(size, 0.5);
    write_file_bytes(path, content);
    EXPECT_EQ(read_file_bytes(path), content) << size;
  }
  std::filesystem::remove_all(dir);
}

TEST(ReadFileBytes, ReadsPastAZeroStSize) {
  // procfs reports st_size 0 for files that do have content.
  ASSERT_EQ(std::filesystem::file_size("/proc/self/status"), 0u);
  std::string status = to_string(read_file_bytes("/proc/self/status"));
  EXPECT_NE(status.find("Name:"), std::string::npos);
  EXPECT_EQ(status.back(), '\n');
}

TEST(ReadFileBytes, MissingFileThrowsNamingIt) {
  const std::string path = ::testing::TempDir() + "/gear_no_such_file";
  try {
    read_file_bytes(path);
    FAIL() << "read of a missing file succeeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("cannot open " + path),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gear
