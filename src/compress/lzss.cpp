#include "compress/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>

#include "compress/lzss_testing.hpp"
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
// The largest table entry (`base + pos + 1`, see EncoderState).
constexpr std::uint64_t kMaxStamp = std::numeric_limits<std::uint32_t>::max();

// A token buffer up to this size stays with its thread between calls; a
// larger one (a layer tarball, the index layer) is released by the next
// call that needs less.
constexpr std::size_t kRetainedTokenBytes = std::size_t{1} << 20;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of `a` and `b`, at most `max_len` bytes.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t max_len) {
  std::size_t len = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len + 8 <= max_len; len += 8) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, a + len, 8);
      std::memcpy(&y, b + len, 8);
      if (x != y) {
        return len + static_cast<std::size_t>(std::countr_zero(x ^ y)) / 8;
      }
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// The match tables and token buffer of one compressing thread (DESIGN §6n).
// A table entry holds `base + pos + 1` for position `pos` of the call that
// wrote it, and every call starts with `base` above all earlier entries, so
// an entry <= base reads as "none" and no call clears anything.
struct EncoderState {
  std::uint32_t head[kHashSize] = {};    // hash -> newest position
  std::uint32_t prev[kWindowSize] = {};  // pos & mask -> older, same hash
  std::uint32_t base = 0;
  std::unique_ptr<std::uint8_t[]> tokens;
  std::size_t tokens_size = 0;

  // Returns a token buffer of at least `n` bytes, uninitialized.
  std::uint8_t* token_buffer(std::size_t n) {
    if (tokens_size < n || tokens_size > std::max(n, kRetainedTokenBytes)) {
      tokens.reset();  // release before allocating the replacement
      tokens = std::make_unique_for_overwrite<std::uint8_t[]>(n);
      tokens_size = n;
    }
    return tokens.get();
  }
};

EncoderState& thread_state() {
  // Allocated on a thread's first call: the tables start all-zero, which
  // reads as "none" under base 0.
  thread_local const std::unique_ptr<EncoderState> state =
      std::make_unique<EncoderState>();
  return *state;
}

}  // namespace

std::optional<BytesView> lzss_compress_bounded(BytesView input,
                                               std::size_t limit) {
  const std::uint8_t* const data = input.data();
  const std::size_t n = input.size();
  if (n == 0) {
    if (limit == 0) return std::nullopt;
    return BytesView{};
  }

  EncoderState& state = thread_state();
  if (state.base + std::uint64_t{n} > kMaxStamp) {
    std::fill(std::begin(state.head), std::end(state.head), 0u);
    state.base = 0;
  }
  const std::uint32_t base = state.base;
  std::uint32_t* const head = state.head;
  std::uint32_t* const prev = state.prev;
  // An input above 4 GiB wraps its stamps, as the positions of a fresh
  // table would; saturating `base` leaves every such entry "none" after it.
  state.base = static_cast<std::uint32_t>(
      std::min(base + std::uint64_t{n}, kMaxStamp));
  auto insert = [&](std::size_t p, std::uint32_t h) {
    prev[p & (kWindowSize - 1)] = head[h];
    head[h] = static_cast<std::uint32_t>(base + p + 1);
  };

  // Every token costs at least one byte per input byte it covers plus its
  // flag bit, so a stream of literals (n + n/8 + 1 bytes, counting the
  // unused flag byte a full last group opens) is the longest. The loop
  // below stops once the stream reaches `limit`, which a token and the
  // flag byte it may open overshoot by at most 3 bytes.
  const std::size_t worst = n + n / 8 + 1;
  std::uint8_t* const begin =
      state.token_buffer(limit < worst ? std::min(worst, limit + 3) : worst);
  std::uint8_t* out = begin;

  std::uint8_t* flag_ptr = out;
  *out++ = 0;
  unsigned flags = 0;
  int flag_count = 0;
  // A full group always opens the next one, even after the last token:
  // that unused 0 byte is part of the format (Codec.GoldenFramesPinTheEncoder).
  auto end_token = [&](unsigned is_match) {
    flags |= is_match << flag_count;
    if (++flag_count == 8) {
      *flag_ptr = static_cast<std::uint8_t>(flags);
      flag_ptr = out;
      *out++ = 0;
      flags = 0;
      flag_count = 0;
    }
  };

  std::size_t pos = 0;
  while (pos < n) {
    if (static_cast<std::size_t>(out - begin) >= limit) return std::nullopt;

    // Only a match of kMinMatch or more becomes a token, so the search
    // starts from a best of kMinMatch - 1. A candidate whose byte at
    // best_len differs cannot beat the best, so only candidates that agree
    // there are compared in full; each still spends a probe, so the walk
    // covers the same chain as a full compare of every candidate.
    std::size_t best_len = kMinMatch - 1;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= n) {
      const std::uint8_t* const cur = data + pos;
      const std::uint32_t h = hash4(cur);
      const std::size_t max_len = std::min(kMaxMatch, n - pos);
      std::uint32_t candidate = head[h];
      for (int probes = kMaxChainProbes; candidate > base && probes > 0;
           --probes) {
        const std::size_t cand_pos = candidate - base - 1;
        if (pos - cand_pos > kWindowSize - 1) break;
        const std::uint8_t* const cand = data + cand_pos;
        if (cand[best_len] == cur[best_len]) {
          const std::size_t len = match_length(cand, cur, max_len);
          if (len > best_len) {
            best_len = len;
            best_dist = pos - cand_pos;
            if (len == max_len) break;
          }
        }
        // cand_pos is in this call's window, and this call wrote its slot.
        candidate = prev[cand_pos & (kWindowSize - 1)];
      }
      insert(pos, h);
    }

    if (best_dist != 0) {
      // Match token: 2-byte distance (little endian), 1-byte (len - min).
      out[0] = static_cast<std::uint8_t>(best_dist);
      out[1] = static_cast<std::uint8_t>(best_dist >> 8);
      out[2] = static_cast<std::uint8_t>(best_len - kMinMatch);
      out += 3;
      end_token(1);
      // Insert the rest of the covered positions into the hash chains.
      const std::size_t end = pos + best_len;
      for (++pos; pos < end && pos + kMinMatch <= n; ++pos) {
        insert(pos, hash4(data + pos));
      }
      pos = end;
    } else {
      *out++ = data[pos];
      end_token(0);
      ++pos;
    }
  }
  if (flag_count > 0) *flag_ptr = static_cast<std::uint8_t>(flags);
  const std::size_t size = static_cast<std::size_t>(out - begin);
  if (size >= limit) return std::nullopt;
  return BytesView(begin, size);
}

Bytes lzss_compress(BytesView input) {
  const BytesView packed =
      *lzss_compress_bounded(input, std::numeric_limits<std::size_t>::max());
  return Bytes(packed.begin(), packed.end());
}

namespace lzss_testing {

std::uint32_t table_base() { return thread_state().base; }

void raise_table_base(std::uint32_t base) {
  EncoderState& state = thread_state();
  if (base < state.base) {
    throw_error(ErrorCode::kInvalidArgument,
                "lzss: a table base may only be raised");
  }
  state.base = base;
}

}  // namespace lzss_testing

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
