// Unit and property tests for the LZSS codec and frame format.
#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "compress/lzss.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace gear {
namespace {

TEST(Lzss, EmptyInput) {
  Bytes out = lzss_compress({});
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(lzss_decompress(out, 0).empty());
}

TEST(Lzss, ShortLiteralOnly) {
  Bytes data = to_bytes("abc");
  Bytes packed = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(packed, data.size()), data);
}

TEST(Lzss, RepetitiveDataShrinks) {
  Bytes data(100000, 'a');
  Bytes packed = lzss_compress(data);
  EXPECT_LT(packed.size(), data.size() / 20);
  EXPECT_EQ(lzss_decompress(packed, data.size()), data);
}

TEST(Lzss, OverlappingMatchRuns) {
  // "abcabcabc..." triggers matches with distance < length.
  Bytes data;
  for (int i = 0; i < 5000; ++i) data.push_back("abc"[i % 3]);
  Bytes packed = lzss_compress(data);
  EXPECT_LT(packed.size(), data.size() / 4);
  EXPECT_EQ(lzss_decompress(packed, data.size()), data);
}

TEST(Lzss, TextLikeContent) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "the quick brown fox jumps over the lazy dog #" +
            std::to_string(i % 37) + "\n";
  }
  Bytes data = to_bytes(text);
  Bytes packed = lzss_compress(data);
  EXPECT_LT(packed.size(), data.size() / 2);
  EXPECT_EQ(lzss_decompress(packed, data.size()), data);
}

TEST(Lzss, MatchesAcrossFullWindow) {
  // Two identical 4 KiB regions separated by ~60 KiB of random data: still
  // within the 64 KiB window, so the second copy must be found. (The random
  // filler itself expands by the 1/8 flag overhead, so compare against a
  // control where the trailing region is NOT a duplicate.)
  Rng rng(3);
  Bytes unique = rng.next_bytes(4096, 0.0);
  Bytes filler = rng.next_bytes(60000, 0.0);
  Bytes other = rng.next_bytes(4096, 0.0);

  Bytes dup, nodup;
  append(dup, unique);
  append(dup, filler);
  append(dup, unique);
  append(nodup, unique);
  append(nodup, filler);
  append(nodup, other);

  Bytes packed_dup = lzss_compress(dup);
  Bytes packed_nodup = lzss_compress(nodup);
  // The duplicated tail compresses to match tokens: >3.5 KB smaller.
  EXPECT_LT(packed_dup.size() + 3500, packed_nodup.size());
  EXPECT_EQ(lzss_decompress(packed_dup, dup.size()), dup);
}

TEST(Lzss, TruncatedStreamThrows) {
  Bytes data(1000, 'z');
  Bytes packed = lzss_compress(data);
  packed.resize(packed.size() / 2);
  EXPECT_THROW(lzss_decompress(packed, data.size()), Error);
}

TEST(Lzss, BadDistanceThrows) {
  // Flag byte declaring a match, distance pointing before stream start.
  Bytes bogus = {0x01, 0xff, 0xff, 0x10};
  EXPECT_THROW(lzss_decompress(bogus, 100), Error);
}

// Property sweep: round-trip across sizes and compressibilities.
class LzssRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(LzssRoundTrip, Lossless) {
  auto [size, compressibility] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) * 1000 +
          static_cast<std::uint64_t>(compressibility * 100));
  Bytes data = rng.next_bytes(size, compressibility);
  Bytes packed = lzss_compress(data);
  EXPECT_EQ(lzss_decompress(packed, data.size()), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LzssRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 7, 64, 255, 256, 257, 1000,
                                         65535, 65536, 70000, 200000),
                       ::testing::Values(0.0, 0.3, 0.7, 0.95)));

// ---------------------------------------------------------------- codec

TEST(Codec, FrameRoundTrip) {
  Bytes data = to_bytes("hello hello hello hello hello");
  Bytes frame = compress(data);
  EXPECT_EQ(decompress(frame), data);
  EXPECT_EQ(compressed_frame_original_size(frame), data.size());
}

TEST(Codec, EmptyFrame) {
  Bytes frame = compress({});
  EXPECT_TRUE(decompress(frame).empty());
  EXPECT_EQ(compressed_frame_original_size(frame), 0u);
}

TEST(Codec, IncompressibleFallsBackToStored) {
  Rng rng(21);
  Bytes data = rng.next_bytes(5000, 0.0);
  Bytes frame = compress(data);
  EXPECT_EQ(compressed_frame_method(frame), CompressionMethod::kStored);
  // Overhead bounded by the small header.
  EXPECT_LE(frame.size(), data.size() + 16);
  EXPECT_EQ(decompress(frame), data);
}

TEST(Codec, CompressibleUsesLzss) {
  Bytes data(10000, 'x');
  Bytes frame = compress(data);
  EXPECT_EQ(compressed_frame_method(frame), CompressionMethod::kLzss);
  EXPECT_LT(frame.size(), 600u);
}

TEST(Codec, BadMagicThrows) {
  Bytes frame = compress(to_bytes("data"));
  frame[0] = 'X';
  EXPECT_THROW(decompress(frame), Error);
}

TEST(Codec, UnknownMethodThrows) {
  Bytes frame = compress(to_bytes("data"));
  frame[4] = 9;
  EXPECT_THROW(decompress(frame), Error);
}

TEST(Codec, TruncatedFrameThrows) {
  Bytes frame = compress(Bytes(1000, 'y'));
  frame.resize(6);
  EXPECT_THROW(decompress(frame), Error);
}

TEST(Codec, StoredSizeMismatchThrows) {
  Bytes frame = compress(to_bytes("zzz"));  // tiny input -> stored
  ASSERT_EQ(compressed_frame_method(frame), CompressionMethod::kStored);
  frame.push_back('!');
  EXPECT_THROW(decompress(frame), Error);
}

TEST(Codec, SizeClaimBeyondThePayloadIsCorruptData) {
  // "GZC1", method lzss, and 2^50 (1 PiB) as an 8-byte varint, with no
  // payload: 13 bytes that must not reach the allocator.
  try {
    decompress(hex_decode("475a4331018080808080808002"));
    FAIL() << "a 1 PiB claim decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }
  // 25 payload bytes decode to at most 8 * 259: an 11-byte stream may claim
  // 2,072 bytes (and then fails as truncated), not one byte more.
  const Bytes packed = lzss_compress(Bytes(600, 0));
  ASSERT_EQ(packed.size(), 11u);
  EXPECT_EQ(lzss_decompress(packed, 600), Bytes(600, 0));
  for (std::size_t claim : {std::size_t{2072}, std::size_t{2073}}) {
    try {
      lzss_decompress(packed, claim);
      FAIL() << claim;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
      EXPECT_EQ(std::string(e.what()).find("claimed size") !=
                    std::string::npos,
                claim == 2073)
          << e.what();
    }
  }
}

TEST(Codec, GoldenFramesPinTheEncoder) {
  // compress() output for fixed inputs. Stored objects and wire frames are
  // compared byte for byte, so a compressor change must keep these bytes.
  struct Golden {
    std::string input;
    std::string frame_hex;
  };
  std::string gear6;
  for (int i = 0; i < 6; ++i) gear6 += "gear:";
  const Golden goldens[] = {
      // Empty, and too short to shrink: both stored.
      {"", "475a43310000"},
      {"abc", "475a43310003616263"},
      // Seven literals and a 7-byte match: eight tokens, so the stream ends
      // with an unused 0 flag byte.
      {"01234560123456", "475a4331010e803031323334353607000300"},
      // One overlapping match: distance 5, length 25.
      {gear6, "475a4331011e20676561723a050015"},
      // Longest matches (259 bytes) at distance 1.
      {std::string(600, '\0'), "475a433101d8040e000100ff0100ff01004d"},
      {"the quick brown fox jumps over the lazy dog; the quick brown fox "
       "naps",
       "475a43310145007468652071756963006b2062726f776e2000666f78206a756d7080"
       "73206f766572201f0000006c617a7920646f67063b0e00012d000c6e617073"},
  };
  for (const Golden& g : goldens) {
    const Bytes input = to_bytes(g.input);
    EXPECT_EQ(hex_encode(compress(input)), g.frame_hex) << g.input;
    EXPECT_EQ(decompress(hex_decode(g.frame_hex)), input) << g.input;
  }
}

// --------------------------------------------------------------- varint

TEST(Varint, RoundTripBoundaries) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xffffffffull, 0xffffffffffffffffull}) {
    Bytes buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedThrows) {
  Bytes buf;
  put_varint(buf, 1u << 20);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), Error);
}

TEST(Varint, OversizedThrows) {
  Bytes buf(11, 0xff);  // continuation forever
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), Error);
}

}  // namespace
}  // namespace gear
