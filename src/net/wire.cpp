#include "net/wire.hpp"

#include <cstring>

#include "compress/codec.hpp"  // varint helpers
#include "util/crc32.hpp"

namespace gear::net {
namespace {

constexpr char kMagic[4] = {'G', 'W', 'P', '1'};

/// Smallest encoded item: fingerprint 16 + status 1 + varint 1 (empty
/// payload). Used to bound a decoded item count before allocating.
constexpr std::size_t kMinItemBytes = Fingerprint::kSize + 2;

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MessageType::kQueryManyRequest) &&
         t <= static_cast<std::uint8_t>(MessageType::kDigestManyResponse);
}

bool valid_status(std::uint8_t s) {
  return s <= static_cast<std::uint8_t>(Status::kServerError);
}

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32(BytesView data, std::size_t pos) {
  return static_cast<std::uint32_t>(data[pos]) |
         (static_cast<std::uint32_t>(data[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(data[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(data[pos + 3]) << 24);
}

}  // namespace

bool is_batch_type(MessageType type) {
  // The chunk *request* carries indices in its payload, not an item list.
  return type != MessageType::kDownloadChunksRequest;
}

Bytes encode_message(const WireMessage& message) {
  std::size_t item_bytes = 0;
  for (const WireItem& item : message.items) {
    item_bytes += kMinItemBytes + 9 + item.payload.size();
  }
  Bytes out;
  out.reserve(message.payload.size() + item_bytes + 32);
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  out.push_back(static_cast<std::uint8_t>(message.type));
  out.push_back(static_cast<std::uint8_t>(message.status));
  out.insert(out.end(), message.fp.raw().begin(), message.fp.raw().end());
  put_varint(out, message.payload.size());
  append(out, message.payload);
  if (is_batch_type(message.type)) {
    put_varint(out, message.items.size());
    for (const WireItem& item : message.items) {
      out.insert(out.end(), item.fp.raw().begin(), item.fp.raw().end());
      out.push_back(static_cast<std::uint8_t>(item.status));
      put_varint(out, item.payload.size());
      append(out, item.payload);
    }
  }
  put_u32(out, crc32(out));
  return out;
}

StatusOr<WireMessage> decode_message(BytesView frame) {
  // Minimum frame: magic 4 + type 1 + status 1 + fp 16 + varint 1 + crc 4.
  if (frame.size() < 27 || std::memcmp(frame.data(), kMagic, 4) != 0) {
    return {ErrorCode::kCorruptData, "wire: bad magic or truncated frame"};
  }
  std::uint32_t expected = get_u32(frame, frame.size() - 4);
  BytesView body = frame.subspan(0, frame.size() - 4);
  if (crc32(body) != expected) {
    return {ErrorCode::kCorruptData, "wire: checksum mismatch"};
  }

  WireMessage message;
  std::size_t pos = 4;
  std::uint8_t type_byte = frame[pos++];
  std::uint8_t status_byte = frame[pos++];
  if (!valid_type(type_byte) || !valid_status(status_byte)) {
    return {ErrorCode::kCorruptData, "wire: unknown type or status"};
  }
  message.type = static_cast<MessageType>(type_byte);
  message.status = static_cast<Status>(status_byte);

  std::array<std::uint8_t, Fingerprint::kSize> raw{};
  std::memcpy(raw.data(), frame.data() + pos, raw.size());
  pos += raw.size();
  message.fp = Fingerprint(raw);

  std::uint64_t payload_len;
  try {
    payload_len = get_varint(body, pos);
  } catch (const Error&) {
    return {ErrorCode::kCorruptData, "wire: bad payload length"};
  }
  if (payload_len > body.size() - pos) {
    return {ErrorCode::kCorruptData, "wire: payload length mismatch"};
  }
  if (!is_batch_type(message.type)) {
    if (pos + payload_len != body.size()) {
      return {ErrorCode::kCorruptData, "wire: payload length mismatch"};
    }
    message.payload.assign(body.begin() + static_cast<std::ptrdiff_t>(pos),
                           body.end());
    return message;
  }
  message.payload.assign(
      body.begin() + static_cast<std::ptrdiff_t>(pos),
      body.begin() + static_cast<std::ptrdiff_t>(pos + payload_len));
  pos += payload_len;

  std::uint64_t count;
  try {
    count = get_varint(body, pos);
  } catch (const Error&) {
    return {ErrorCode::kCorruptData, "wire: bad item count"};
  }
  if (count > (body.size() - pos) / kMinItemBytes) {
    return {ErrorCode::kCorruptData, "wire: item count exceeds frame"};
  }
  message.items.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (body.size() - pos < Fingerprint::kSize + 1) {
      return {ErrorCode::kCorruptData, "wire: truncated item"};
    }
    WireItem item;
    std::memcpy(raw.data(), body.data() + pos, raw.size());
    pos += raw.size();
    item.fp = Fingerprint(raw);
    std::uint8_t item_status = body[pos++];
    if (!valid_status(item_status)) {
      return {ErrorCode::kCorruptData, "wire: unknown item status"};
    }
    item.status = static_cast<Status>(item_status);
    std::uint64_t item_len;
    try {
      item_len = get_varint(body, pos);
    } catch (const Error&) {
      return {ErrorCode::kCorruptData, "wire: bad item payload length"};
    }
    if (item_len > body.size() - pos) {
      return {ErrorCode::kCorruptData, "wire: item payload length mismatch"};
    }
    item.payload.assign(
        body.begin() + static_cast<std::ptrdiff_t>(pos),
        body.begin() + static_cast<std::ptrdiff_t>(pos + item_len));
    pos += item_len;
    message.items.push_back(std::move(item));
  }
  if (pos != body.size()) {
    return {ErrorCode::kCorruptData, "wire: trailing garbage after items"};
  }
  return message;
}

void put_frame_length(std::uint8_t (&header)[kFrameHeaderBytes],
                      std::uint64_t frame_len) {
  header[0] = static_cast<std::uint8_t>(frame_len);
  header[1] = static_cast<std::uint8_t>(frame_len >> 8);
  header[2] = static_cast<std::uint8_t>(frame_len >> 16);
  header[3] = static_cast<std::uint8_t>(frame_len >> 24);
}

std::uint32_t get_frame_length(
    const std::uint8_t (&header)[kFrameHeaderBytes]) {
  return static_cast<std::uint32_t>(header[0]) |
         (static_cast<std::uint32_t>(header[1]) << 8) |
         (static_cast<std::uint32_t>(header[2]) << 16) |
         (static_cast<std::uint32_t>(header[3]) << 24);
}

Bytes encode_chunk_index_list(const std::vector<std::uint32_t>& indices) {
  Bytes out;
  put_varint(out, indices.size());
  for (std::uint32_t index : indices) put_varint(out, index);
  return out;
}

StatusOr<std::vector<std::uint32_t>> decode_chunk_index_list(
    BytesView payload) {
  std::size_t pos = 0;
  std::uint64_t count;
  try {
    count = get_varint(payload, pos);
  } catch (const Error&) {
    return {ErrorCode::kCorruptData, "wire: bad chunk index count"};
  }
  // Each index takes at least one byte; bound before allocating.
  if (count > payload.size() - pos) {
    return {ErrorCode::kCorruptData, "wire: chunk index count exceeds payload"};
  }
  std::vector<std::uint32_t> indices;
  indices.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t index;
    try {
      index = get_varint(payload, pos);
    } catch (const Error&) {
      return {ErrorCode::kCorruptData, "wire: bad chunk index"};
    }
    if (index > UINT32_MAX) {
      return {ErrorCode::kCorruptData, "wire: chunk index overflows 32 bits"};
    }
    indices.push_back(static_cast<std::uint32_t>(index));
  }
  if (pos != payload.size()) {
    return {ErrorCode::kCorruptData, "wire: trailing garbage after indices"};
  }
  return indices;
}

}  // namespace gear::net
