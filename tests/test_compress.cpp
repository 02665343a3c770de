// Unit and property tests for the LZSS codec and frame format.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "compress/codec.hpp"
#include "compress/lzss.hpp"
#include "compress/lzss_testing.hpp"
#include "test_helpers.hpp"
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

// ----------------------------------------------------- reference encoder

// The encoder before it kept its tables per thread, verbatim: zeroed tables
// per call and a byte-by-byte compare of every chain candidate. Stored
// objects and wire frames are compared byte for byte, so the encoder in
// src/ must emit exactly these bytes.
Bytes reference_lzss_compress(BytesView input) {
  constexpr std::size_t kWindowSize = 1u << 16;
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kMaxMatch = kMinMatch + 255;
  constexpr std::size_t kHashBits = 15;
  constexpr std::size_t kHashSize = 1u << kHashBits;
  constexpr int kMaxChainProbes = 32;
  auto hash4 = [](const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };

  Bytes out;
  out.reserve(input.size() / 2 + 16);

  // head[h]: most recent position with hash h; prev[i & mask]: previous
  // position in the same chain. Positions are offset by 1 so 0 means "none".
  std::vector<std::uint32_t> head(kHashSize, 0);
  std::vector<std::uint32_t> prev(kWindowSize, 0);

  const std::uint8_t* data = input.data();
  const std::size_t n = input.size();

  std::size_t pos = 0;
  std::uint8_t flags = 0;
  int flag_count = 0;
  std::size_t flag_pos = 0;

  auto begin_group = [&] {
    flag_pos = out.size();
    out.push_back(0);
    flags = 0;
    flag_count = 0;
  };
  auto end_token = [&](bool is_match) {
    if (is_match) flags |= static_cast<std::uint8_t>(1u << flag_count);
    if (++flag_count == 8) {
      out[flag_pos] = flags;
      flag_count = 0;
      if (pos < n) begin_group();
    }
  };

  if (n > 0) begin_group();

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;

    if (pos + kMinMatch <= n) {
      std::uint32_t h = hash4(data + pos);
      std::uint32_t candidate = head[h];
      int probes = kMaxChainProbes;
      while (candidate != 0 && probes-- > 0) {
        std::size_t cand_pos = candidate - 1;
        if (pos - cand_pos > kWindowSize - 1) break;
        std::size_t len = 0;
        std::size_t max_len = std::min(kMaxMatch, n - pos);
        while (len < max_len && data[cand_pos + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - cand_pos;
          if (len == max_len) break;
        }
        candidate = prev[cand_pos & (kWindowSize - 1)];
      }
    }

    if (best_len >= kMinMatch) {
      // Match token: 2-byte distance (little endian), 1-byte (len - min).
      out.push_back(static_cast<std::uint8_t>(best_dist));
      out.push_back(static_cast<std::uint8_t>(best_dist >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      end_token(true);
      // Insert the covered positions into the hash chains.
      std::size_t end = pos + best_len;
      for (; pos < end && pos + kMinMatch <= n; ++pos) {
        std::uint32_t h = hash4(data + pos);
        prev[pos & (kWindowSize - 1)] = head[h];
        head[h] = static_cast<std::uint32_t>(pos + 1);
      }
      pos = end;
    } else {
      out.push_back(data[pos]);
      end_token(false);
      if (pos + kMinMatch <= n) {
        std::uint32_t h = hash4(data + pos);
        prev[pos & (kWindowSize - 1)] = head[h];
        head[h] = static_cast<std::uint32_t>(pos + 1);
      }
      ++pos;
    }
  }
  if (n > 0 && flag_count > 0) out[flag_pos] = flags;
  return out;
}

// The frame compress() built around the reference stream: LZSS when it is
// shorter than the input, stored otherwise.
Bytes reference_frame(BytesView input) {
  Bytes packed = reference_lzss_compress(input);
  CompressionMethod method = CompressionMethod::kLzss;
  if (packed.size() >= input.size()) {
    packed.assign(input.begin(), input.end());
    method = CompressionMethod::kStored;
  }
  Bytes frame = to_bytes("GZC1");
  frame.push_back(static_cast<std::uint8_t>(method));
  put_varint(frame, input.size());
  append(frame, packed);
  return frame;
}

// Text from a small vocabulary: many short matches and long hash chains.
Bytes text_input(std::size_t n, std::uint64_t seed) {
  static const char* const kWords[] = {
      "the ", "gear ", "image ", "layer ", "file ", "index ", "registry ",
      "container ", "fingerprint ", "compress ", "\n", "0x", "lib/", ".so ",
      "{\"name\": ", "}, ", "usr/share/", "-", "_", "="};
  Rng rng(seed);
  Bytes out;
  while (out.size() < n) {
    std::string word = kWords[rng.next_below(std::size(kWords))];
    if (rng.next_below(4) == 0) word += std::to_string(rng.next_below(1000));
    out.insert(out.end(), word.begin(), word.end());
  }
  out.resize(n);
  return out;
}

// A seeded corpus from 0 to 200 KiB, across the 64 KiB window: runs, short
// periods, random bytes, text, partly compressible data, near-copies (whose
// candidates differ late, past the cheap test), and a period beyond the
// window.
std::vector<Bytes> lzss_corpus() {
  const std::size_t sizes[] = {0,     1,     2,     3,     4,      5,
                               7,     8,     9,     16,    63,     64,
                               65,    255,   256,   257,   1000,   1024,
                               4095,  4096,  4097,  16384, 65535,  65536,
                               65537, 70000, 131075, 204800};
  std::vector<Bytes> corpus;
  std::uint64_t seed = 9700;
  for (std::size_t n : sizes) {
    ++seed;
    Rng rng(seed);
    corpus.push_back(Bytes(n, static_cast<std::uint8_t>(seed)));
    for (std::size_t period : {2, 3, 7}) {
      Bytes periodic(n);
      for (std::size_t i = 0; i < n; ++i) {
        periodic[i] = static_cast<std::uint8_t>("gear:z!"[i % period]);
      }
      corpus.push_back(std::move(periodic));
    }
    corpus.push_back(rng.next_bytes(n, 0.0));
    corpus.push_back(rng.next_bytes(n, 0.5));
    corpus.push_back(rng.next_bytes(n, 0.9));
    corpus.push_back(text_input(n, seed));
    Bytes near = rng.next_bytes(std::min<std::size_t>(n, 300), 0.0);
    while (near.size() < n) {
      Bytes copy(near.end() - std::min<std::size_t>(near.size(), 300),
                 near.end());
      copy[rng.next_below(copy.size())] ^= 0x5a;
      near.insert(near.end(), copy.begin(), copy.end());
    }
    near.resize(n);
    corpus.push_back(std::move(near));
    if (n > 70000) {
      Bytes block = rng.next_bytes(70000, 0.0);
      Bytes far(n);
      for (std::size_t i = 0; i < n; ++i) far[i] = block[i % block.size()];
      corpus.push_back(std::move(far));
    }
  }
  return corpus;
}

TEST(LzssReference, SeededCorpusMatchesByteForByte) {
  for (const Bytes& input : lzss_corpus()) {
    const Bytes expected = reference_lzss_compress(input);
    ASSERT_EQ(lzss_compress(input), expected) << input.size();
    ASSERT_EQ(compress(input), reference_frame(input)) << input.size();
    // The early exit: nothing once the stream reaches the limit, the full
    // stream while it stays below.
    for (std::size_t limit :
         {std::size_t{0}, std::size_t{1}, expected.size(), expected.size() + 1,
          input.size()}) {
      const std::optional<BytesView> bounded =
          lzss_compress_bounded(input, limit);
      ASSERT_EQ(bounded.has_value(), expected.size() < limit)
          << input.size() << " " << limit;
      if (bounded) {
        EXPECT_EQ(Bytes(bounded->begin(), bounded->end()), expected);
      }
    }
  }
}

TEST(LzssReference, AlternatingSizesOnOneThreadIgnoreStaleEntries) {
  // Each call leaves its entries in this thread's tables, and the inputs
  // share their 4-byte strings, so every call starts with heads that hold
  // the previous call's positions. Each input goes in twice: the second
  // time, the stale heads name the input's own positions, some of them the
  // very position being matched.
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::size_t n : {std::size_t{204800}, std::size_t{300},
                          std::size_t{70000}, std::size_t{5},
                          std::size_t{4096}}) {
      const Bytes input = text_input(n, 9800 + round * 7 + n);
      const Bytes expected = reference_lzss_compress(input);
      ASSERT_EQ(lzss_compress(input), expected) << round << " " << n;
      ASSERT_EQ(lzss_compress(input), expected) << round << " " << n;
    }
  }
}

TEST(LzssReference, TableBaseResetsBeforeTwoToThe32) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const Bytes first = text_input(100000, 9901);
  const Bytes second = text_input(100000, 9902);

  // Only 1 byte of room: this call restarts the stamps at 0.
  lzss_testing::raise_table_base(kMax);
  const Bytes one = to_bytes("x");
  EXPECT_EQ(lzss_compress(one), reference_lzss_compress(one));
  EXPECT_EQ(lzss_testing::table_base(), 1u);
  EXPECT_EQ(lzss_compress(first), reference_lzss_compress(first));
  EXPECT_EQ(lzss_testing::table_base(), 1u + first.size());

  // Exactly room for `second`: its stamps reach 2^32 - 1 with no reset.
  lzss_testing::raise_table_base(kMax - second.size());
  EXPECT_EQ(lzss_compress(second), reference_lzss_compress(second));
  EXPECT_EQ(lzss_testing::table_base(), kMax);

  // No room: the heads are cleared and the stamps restart at 0. The heads
  // `first` left name its positions shifted by one, which is where they
  // sit in `shifted`; read as live entries, they would change its tokens.
  Bytes shifted = one;
  append(shifted, first);
  EXPECT_EQ(lzss_compress(shifted), reference_lzss_compress(shifted));
  EXPECT_EQ(lzss_testing::table_base(), shifted.size());

  // A base may only rise: a lower one would revive stale entries.
  EXPECT_THROW(lzss_testing::raise_table_base(0), Error);
}

TEST(ConcurrentLzss, TwoThreadsMatchTheReference) {
  // Two threads compress at once, each through its own tables, alternating
  // large and small inputs; both must match the reference exactly.
  std::vector<Bytes> inputs;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t n = i % 2 == 0 ? 65537 + i * 4099 : 200 + i * 61;
    inputs.push_back(i % 3 == 0 ? Rng(9950 + i).next_bytes(n, 0.5)
                                : text_input(n, 9950 + i));
  }
  std::vector<Bytes> expected;
  for (const Bytes& input : inputs) {
    expected.push_back(reference_frame(input));
  }

  std::size_t mismatches[2] = {0, 0};
  auto worker = [&](std::size_t t) {
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        const std::size_t i = (k + t * 5) % inputs.size();
        if (compress(inputs[i]) != expected[i]) ++mismatches[t];
      }
    }
  };
  std::thread a(worker, 0);
  std::thread b(worker, 1);
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0u);
  EXPECT_EQ(mismatches[1], 0u);
}

// ----------------------------------------------------- reference decoder

// The decoder before its fast path, verbatim: one bounds check per token
// and a byte loop for every overlapping match. lzss_decompress must return
// the same bytes and throw exactly when this throws.
Bytes reference_lzss_decompress(BytesView input, std::size_t decoded_size) {
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kMaxMatch = kMinMatch + 255;
  // The densest stream is a flag byte and eight 3-byte match tokens: 25
  // payload bytes decode to at most 8 * kMaxMatch bytes. A larger claim is
  // corrupt, and is refused before the output buffer is allocated.
  constexpr std::size_t kGroupBytes = 1 + 8 * 3;
  const std::uint64_t max_decoded =
      (static_cast<std::uint64_t>(input.size()) + kGroupBytes - 1) /
      kGroupBytes * (8 * kMaxMatch);
  if (decoded_size > max_decoded) {
    throw_error(ErrorCode::kCorruptData,
                "lzss: claimed size exceeds what the stream can encode");
  }
  Bytes out(decoded_size);
  std::uint8_t* dst = out.data();
  std::size_t used = 0;

  std::size_t pos = 0;
  while (used < decoded_size) {
    if (pos >= input.size()) {
      throw_error(ErrorCode::kCorruptData, "lzss: truncated stream");
    }
    std::uint8_t flags = input[pos++];
    for (int bit = 0; bit < 8 && used < decoded_size; ++bit) {
      if (flags & (1u << bit)) {
        if (pos + 3 > input.size()) {
          throw_error(ErrorCode::kCorruptData, "lzss: truncated match token");
        }
        std::size_t dist = input[pos] | (static_cast<std::size_t>(input[pos + 1]) << 8);
        std::size_t len = kMinMatch + input[pos + 2];
        pos += 3;
        if (dist == 0 || dist > used) {
          throw_error(ErrorCode::kCorruptData, "lzss: bad match distance");
        }
        if (used + len > decoded_size) {
          throw_error(ErrorCode::kCorruptData, "lzss: match overruns output");
        }
        const std::uint8_t* src = dst + used - dist;
        if (dist >= len) {
          std::memcpy(dst + used, src, len);
        } else {
          // Overlapping match (dist < len): byte by byte replicates the run.
          for (std::size_t i = 0; i < len; ++i) dst[used + i] = src[i];
        }
        used += len;
      } else {
        if (pos >= input.size()) {
          throw_error(ErrorCode::kCorruptData, "lzss: truncated literal");
        }
        dst[used++] = input[pos++];
      }
    }
  }
  return out;
}

// Decodes `stream` with both decoders: the same bytes, or the same error.
void expect_same_decode(BytesView stream, std::size_t claimed) {
  std::optional<Bytes> want;
  std::optional<ErrorCode> want_error;
  try {
    want = reference_lzss_decompress(stream, claimed);
  } catch (const Error& e) {
    want_error = e.code();
  }
  std::optional<Bytes> got;
  std::optional<ErrorCode> got_error;
  try {
    got = lzss_decompress(stream, claimed);
  } catch (const Error& e) {
    got_error = e.code();
  }
  ASSERT_EQ(got_error, want_error) << stream.size() << " " << claimed;
  if (want) {
    ASSERT_EQ(*got, *want) << stream.size() << " " << claimed;
  }
}

// Writes raw token streams, one token at a time.
struct TokenWriter {
  Bytes stream;
  std::size_t decoded = 0;
  std::size_t flag_pos = 0;
  int tokens_in_group = 8;

  void open_token(bool match) {
    if (tokens_in_group == 8) {
      flag_pos = stream.size();
      stream.push_back(0);
      tokens_in_group = 0;
    }
    if (match) {
      stream[flag_pos] |= static_cast<std::uint8_t>(1u << tokens_in_group);
    }
    ++tokens_in_group;
  }
  void literal(std::uint8_t byte) {
    open_token(false);
    stream.push_back(byte);
    ++decoded;
  }
  void literals(BytesView bytes) {
    for (std::uint8_t b : bytes) literal(b);
  }
  void match(std::size_t dist, std::size_t len) {
    open_token(true);
    stream.push_back(static_cast<std::uint8_t>(dist));
    stream.push_back(static_cast<std::uint8_t>(dist >> 8));
    stream.push_back(static_cast<std::uint8_t>(len - 4));
    decoded += len;
  }
  bool at_group_boundary() const { return tokens_in_group == 8; }
};

TEST(LzssDecoder, EveryShortDistanceAndLengthMatchesTheReference) {
  // Each match is decoded at a group boundary and in mid-group with at
  // least a full group of output after it (the fast path), and as the last
  // token of the stream (the checked tail). The claims one byte short and
  // one byte long must fail as the reference fails.
  Rng rng(9990);
  const Bytes prefix = rng.next_bytes(24, 0.0);  // three literal groups
  const Bytes after = rng.next_bytes(2600, 0.5);
  for (std::size_t dist = 1; dist <= 20; ++dist) {
    for (std::size_t len : {4, 5, 15, 16, 17, 259}) {
      for (std::size_t lead : {0, 3}) {  // literals before the match
        TokenWriter body;
        body.literals(prefix);
        body.literals(BytesView(after).first(lead));
        ASSERT_EQ(body.at_group_boundary(), lead == 0);
        body.match(dist, len);
        TokenWriter tail = body;
        // A match reading the end of the first one: its bytes must be final.
        body.match(len, std::min<std::size_t>(len, 259));
        body.literals(after);
        for (const TokenWriter* w : {&body, &tail}) {
          expect_same_decode(w->stream, w->decoded);
          expect_same_decode(w->stream, w->decoded - 1);
          expect_same_decode(w->stream, w->decoded + 1);
        }
        // The same token sequence cut short by one byte.
        Bytes cut = tail.stream;
        cut.pop_back();
        expect_same_decode(cut, tail.decoded);
      }
    }
  }
}

TEST(LzssDecoder, BadDistancesInTheFastPathAreRejected) {
  // A distance of 0, or one reaching before the start, fails on the fast
  // path too, wherever it sits in its group.
  Rng rng(9991);
  const Bytes prefix = rng.next_bytes(40, 0.0);
  for (std::size_t dist : {0, 41, 42, 65535}) {
    for (std::size_t lead = 0; lead < 8; ++lead) {
      TokenWriter w;
      w.literals(BytesView(prefix).first(32 + lead));
      w.match(dist, 100);
      w.literals(rng.next_bytes(3000, 0.0));
      try {
        lzss_decompress(w.stream, w.decoded);
        FAIL() << dist << " " << lead;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
      }
      expect_same_decode(w.stream, w.decoded);
    }
  }
}

TEST(LzssDecoder, RandomInputsMatchTheReference) {
  Rng sizes(9992);
  std::vector<std::size_t> lengths = {0,    1,    3,    4,     7,     8,
                                      9,    24,   25,   26,    100,   2087,
                                      2088, 2089, 2104, 2105,  4096,  65536,
                                      70000};
  for (int i = 0; i < 24; ++i) lengths.push_back(sizes.next_range(0, 70000));
  std::uint64_t seed = 9993;
  for (std::size_t n : lengths) {
    for (double compressibility : {0.0, 0.5, 0.9}) {
      const Bytes input = Rng(++seed).next_bytes(n, compressibility);
      const Bytes packed = lzss_compress(input);
      ASSERT_EQ(lzss_decompress(packed, n), input) << n;
      expect_same_decode(packed, n);
    }
  }
  // Inputs heavy in overlapping matches: short periods and zero runs.
  for (std::size_t period : {1, 2, 3, 5, 7, 9, 15, 16, 17}) {
    Bytes input(30000);
    for (std::size_t i = 0; i < input.size(); ++i) {
      input[i] = i % 1024 < 700 ? static_cast<std::uint8_t>(i % period)
                                : static_cast<std::uint8_t>(i * 31);
    }
    const Bytes packed = lzss_compress(input);
    ASSERT_EQ(lzss_decompress(packed, input.size()), input) << period;
    expect_same_decode(packed, input.size());
  }
}

TEST(LzssDecoder, CompressedFrameMutationsMatchTheReference) {
  // The mutants of FuzzRobustness.CompressedFrame, decoded both ways.
  Rng rng(1102);
  gear::testing::fuzz_mutations(
      1103, compress(rng.next_bytes(1500, 0.5)), 400, [](const Bytes& frame) {
        if (frame.size() < 5 ||
            compressed_frame_method(frame) != CompressionMethod::kLzss) {
          return;
        }
        std::size_t pos = 5;
        const std::uint64_t claimed = get_varint(frame, pos);
        expect_same_decode(BytesView(frame).subspan(pos), claimed);
      });
}

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

// compress() output for fixed inputs. Stored objects and wire frames are
// compared byte for byte, so a compressor change must keep these bytes.
struct Golden {
  std::string input;
  std::string frame_hex;
};

std::vector<Golden> golden_frames() {
  std::string gear6;
  for (int i = 0; i < 6; ++i) gear6 += "gear:";
  return {
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
}

TEST(Codec, GoldenFramesPinTheEncoder) {
  for (const Golden& g : golden_frames()) {
    const Bytes input = to_bytes(g.input);
    EXPECT_EQ(hex_encode(compress(input)), g.frame_hex) << g.input;
    EXPECT_EQ(decompress(hex_decode(g.frame_hex)), input) << g.input;
  }
}

TEST(LzssDecoder, GoldenFramesMatchTheReference) {
  for (const Golden& g : golden_frames()) {
    const Bytes frame = hex_decode(g.frame_hex);
    std::size_t pos = 5;
    const std::uint64_t claimed = get_varint(frame, pos);
    if (compressed_frame_method(frame) != CompressionMethod::kLzss) continue;
    for (std::uint64_t claim : {claimed, claimed - 1, claimed + 1}) {
      expect_same_decode(BytesView(frame).subspan(pos), claim);
    }
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
