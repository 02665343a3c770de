#include "compress/lzss.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace gear {
namespace {

// Window and match parameters. Offsets are encoded in 16 bits and lengths in
// 8 bits (length - kMinMatch), giving matches of 4..259 bytes within the
// trailing 64 KiB.
constexpr std::size_t kWindowSize = 1u << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = kMinMatch + 255;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChainProbes = 32;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

Bytes lzss_compress(BytesView input) {
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

Bytes lzss_decompress(BytesView input, std::size_t decoded_size) {
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

}  // namespace gear
