// Wire protocol for the Gear Registry's three interfaces.
//
// The paper's components "communicate with each other via HTTP" (§IV) with
// three operations against the file server: query, upload, download. This
// module defines the message framing those calls travel in. Every call is a
// batch: one frame carries a varint-counted item list, and a single-item
// call is simply a batch of one:
//
//   magic "GWP1" | type u8 | status u8 | fingerprint 16B |
//   payload varint-length + bytes | item-count varint |
//   item := fingerprint 16B | status u8 | payload varint-length + bytes |
//   ... | crc32 of everything before it
//
// Every type carries the item list except kDownloadChunksRequest, whose
// payload holds chunk indices instead (see below); its frame ends at the
// payload. Type bytes 1-6 once named per-file query/upload/download frames;
// they are retired and now decode as unknown types.
//
// One batch frame answers many fingerprints, so a bulk fetch pays one
// round-trip per batch instead of one per file (the deploy-time lever of
// §III-C / Fig. 9). The trailing CRC covers the whole frame: a frame
// damaged in transit is retransmitted whole, while per-item *content*
// integrity is verified end-to-end by fingerprints, letting the client
// refetch only the damaged items of an otherwise intact batch. decode
// rejects anything malformed with kCorruptData, which the client stub turns
// into retries.
//
// Chunk messages (kDownloadChunks) do for partial reads of one chunked file
// what kDownloadMany does for whole files. The request's top-level
// fingerprint names the chunked file and its payload is a varint-counted
// list of chunk indices (encode_chunk_index_list); an empty list is a
// manifest probe. The response answers index i with items[i]: the chunk's
// own fingerprint (from the server's manifest), a per-chunk status, and the
// stored compressed chunk frame; a manifest probe's response instead
// carries the serialized manifest as its top-level payload.
//
// Digest messages (kDigestMany) carry collision verdicts instead of
// content. Request items name fingerprints; each response item echoes its
// fingerprint with kOk and the 32-byte SHA-256 of the file's raw content,
// kNotFound when the file is not stored, or kServerError when it is stored
// but cannot be read back.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace gear::net {

/// Values 1-6 are retired (see the header comment); the rest keep their
/// numbers so every remaining frame encodes as it always has.
enum class MessageType : std::uint8_t {
  kQueryManyRequest = 7,
  kQueryManyResponse = 8,
  kUploadManyRequest = 9,
  kUploadManyResponse = 10,
  kDownloadManyRequest = 11,
  kDownloadManyResponse = 12,
  kDownloadChunksRequest = 13,
  kDownloadChunksResponse = 14,
  kDigestManyRequest = 15,
  kDigestManyResponse = 16,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kExists = 2,      // query hit / upload deduplicated
  kServerError = 3,
};

/// True for every type whose frame carries an item list: all but
/// kDownloadChunksRequest.
bool is_batch_type(MessageType type);

/// One entry of a batch message. In requests the status is ignored; in
/// responses it is the per-item outcome. Download-response payloads are the
/// stored compressed (GZC1) object; upload-request payloads likewise carry
/// precompressed frames, so the bytes on the wire equal the bytes stored.
struct WireItem {
  Fingerprint fp;
  Status status = Status::kOk;
  Bytes payload;

  friend bool operator==(const WireItem&, const WireItem&) = default;
};

struct WireMessage {
  MessageType type = MessageType::kQueryManyRequest;
  Status status = Status::kOk;
  Fingerprint fp;
  Bytes payload;  // chunk index list / serialized chunk manifest
  /// Batch entries; encoded only for is_batch_type(type) messages.
  std::vector<WireItem> items;

  friend bool operator==(const WireMessage&, const WireMessage&) = default;
};

/// Encodes a message into a checksummed frame.
Bytes encode_message(const WireMessage& message);

/// Decodes a frame; returns kCorruptData for bad magic, bad CRC, truncation,
/// unknown type/status, bad item list, or trailing garbage.
StatusOr<WireMessage> decode_message(BytesView frame);

/// Stream framing for socket transports. A GWP1 frame is not
/// self-delimiting on a byte stream, so TCP peers exchange every frame
/// behind a 4-byte little-endian length prefix. The prefix is transport
/// framing, not part of the wire format — in-process transports hand frames
/// over whole and never see it, which is why the TCP path stays
/// byte-identical at the frame level.
constexpr std::size_t kFrameHeaderBytes = 4;

/// Ceiling a peer enforces on the length prefix before allocating: a frame
/// longer than this is a protocol violation (or memory bomb) and the
/// connection is dropped.
constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{256} << 20;

/// Writes the length prefix for a `frame_len`-byte frame.
void put_frame_length(std::uint8_t (&header)[kFrameHeaderBytes],
                      std::uint64_t frame_len);

/// Reads a length prefix written by put_frame_length.
std::uint32_t get_frame_length(const std::uint8_t (&header)[kFrameHeaderBytes]);

/// Payload codec for kDownloadChunksRequest: varint count, then one varint
/// per chunk index.
Bytes encode_chunk_index_list(const std::vector<std::uint32_t>& indices);

/// Inverse of encode_chunk_index_list; kCorruptData on truncation, trailing
/// garbage, or an index that overflows 32 bits.
StatusOr<std::vector<std::uint32_t>> decode_chunk_index_list(BytesView payload);

}  // namespace gear::net
