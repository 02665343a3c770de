#include "compress/codec.hpp"

#include <cstring>
#include <iterator>
#include <optional>

#include "compress/lzss.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

constexpr char kMagic[4] = {'G', 'Z', 'C', '1'};
// Magic, method, and the varint of a 64-bit original size.
constexpr std::size_t kMaxHeaderBytes = sizeof(kMagic) + 1 + 10;

struct FrameHeader {
  CompressionMethod method;
  std::uint64_t orig_size;
  std::size_t payload_offset;
};

FrameHeader parse_header(BytesView frame) {
  if (frame.size() < 5 || std::memcmp(frame.data(), kMagic, 4) != 0) {
    throw_error(ErrorCode::kCorruptData, "compress: bad frame magic");
  }
  auto method = static_cast<CompressionMethod>(frame[4]);
  if (method != CompressionMethod::kStored &&
      method != CompressionMethod::kLzss) {
    throw_error(ErrorCode::kCorruptData, "compress: unknown method");
  }
  std::size_t pos = 5;
  std::uint64_t orig = get_varint(frame, pos);
  return {method, orig, pos};
}

}  // namespace

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(BytesView data, std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= data.size() || shift > 63) {
      throw_error(ErrorCode::kCorruptData, "varint: truncated or oversized");
    }
    std::uint8_t b = data[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

Bytes compress(BytesView input) {
  // LZSS is kept only when its stream is shorter than the input, so the
  // encoder gives up as soon as the stream reaches the input's size.
  const std::optional<BytesView> packed =
      lzss_compress_bounded(input, input.size());
  const BytesView payload = packed ? *packed : input;

  // The header, then the payload: one allocation and one copy of the
  // payload per frame.
  Bytes frame;
  frame.reserve(kMaxHeaderBytes + payload.size());
  frame.assign(std::begin(kMagic), std::end(kMagic));
  frame.push_back(static_cast<std::uint8_t>(
      packed ? CompressionMethod::kLzss : CompressionMethod::kStored));
  put_varint(frame, input.size());
  append(frame, payload);
  return frame;
}

Bytes decompress(BytesView frame) {
  FrameHeader h = parse_header(frame);
  BytesView payload = frame.subspan(h.payload_offset);
  if (h.method == CompressionMethod::kStored) {
    if (payload.size() != h.orig_size) {
      throw_error(ErrorCode::kCorruptData, "compress: stored size mismatch");
    }
    return Bytes(payload.begin(), payload.end());
  }
  return lzss_decompress(payload, h.orig_size);
}

std::uint64_t compressed_frame_original_size(BytesView frame) {
  return parse_header(frame).orig_size;
}

CompressionMethod compressed_frame_method(BytesView frame) {
  return parse_header(frame).method;
}

}  // namespace gear
