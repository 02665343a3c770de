// Tests for the wire protocol, transports, fault injection, and the remote
// registry stub.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>

#include "compress/codec.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "util/crc32.hpp"
#include "util/crc32_testing.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace gear::net {
namespace {

Fingerprint fp_of(const std::string& s) {
  return default_hasher().fingerprint(to_bytes(s));
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownVectors) {
  // Classic check value for "123456789".
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(1);
  Bytes data = rng.next_bytes(10000, 0.3);
  std::uint32_t whole = crc32(data);
  std::uint32_t split = crc32_update(
      crc32(BytesView(data.data(), 3000)),
      BytesView(data.data() + 3000, data.size() - 3000));
  EXPECT_EQ(whole, split);
}

/// The bytewise table-driven CRC-32, kept here as the reference the
/// slicing-by-8 kernel must match.
std::uint32_t reference_crc32(BytesView data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(3);
  Bytes data = rng.next_bytes(8 + 80, 0.0);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 80; ++length) {
      BytesView view(data.data() + offset, length);
      ASSERT_EQ(crc32(view), reference_crc32(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, EverySplitPointMatchesOneShot) {
  Rng rng(4);
  Bytes data = rng.next_bytes(100, 0.0);
  const std::uint32_t whole = reference_crc32(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t head = crc32(BytesView(data.data(), split));
    EXPECT_EQ(crc32_update(head, BytesView(data.data() + split,
                                           data.size() - split)),
              whole)
        << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  Rng rng(2);
  Bytes data = rng.next_bytes(500);
  std::uint32_t original = crc32(data);
  data[250] ^= 0x01;
  EXPECT_NE(crc32(data), original);
}

// --------------------------------------------------------------- crc32c

TEST(Crc32c, KnownVectors) {
  // The Castagnoli check value for "123456789" (RFC 3720 appendix B.4).
  EXPECT_EQ(crc32c(to_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0x00000000u);
  EXPECT_EQ(crc32c(Bytes(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc32c(Bytes(32, 0xFF)), 0x62A8AB43u);
}

TEST(Crc32c, BothKernelsAgreeAtEveryLengthAndAlignment) {
  std::printf("[ INFO     ] CRC-32C SSE4.2 path: %s\n",
              crc32_testing::crc32c_native_available() ? "yes" : "no");
  Rng rng(5);
  Bytes data = rng.next_bytes(8 + 200, 0.0);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 200; ++length) {
      BytesView view(data.data() + offset, length);
      const std::uint32_t portable = crc32_testing::crc32c_portable(view);
      ASSERT_EQ(crc32c(view), portable)
          << "offset " << offset << " length " << length;
      if (crc32_testing::crc32c_native_available()) {
        ASSERT_EQ(crc32_testing::crc32c_native(view), portable)
            << "offset " << offset << " length " << length;
      }
    }
  }
}

// ----------------------------------------------------------------- wire

constexpr MessageType kAllTypes[] = {
    MessageType::kQueryManyRequest,      MessageType::kQueryManyResponse,
    MessageType::kUploadManyRequest,     MessageType::kUploadManyResponse,
    MessageType::kDownloadManyRequest,   MessageType::kDownloadManyResponse,
    MessageType::kDownloadChunksRequest, MessageType::kDownloadChunksResponse,
    MessageType::kDigestManyRequest,     MessageType::kDigestManyResponse,
};

/// A batch of one: what every single-item call puts on the wire.
WireMessage one_item(MessageType type, const std::string& name, Bytes payload) {
  WireMessage m;
  m.type = type;
  m.items.push_back({fp_of(name), Status::kOk, std::move(payload)});
  return m;
}

/// A fixed message of `type` whose encoding the golden test pins: a
/// top-level fingerprint, and either one item (batch types) or a chunk
/// index list (kDownloadChunksRequest).
WireMessage golden_message(MessageType type) {
  WireMessage m;
  m.type = type;
  m.status = Status::kExists;
  m.fp = Fingerprint::from_hex("00112233445566778899aabbccddeeff");
  if (is_batch_type(type)) {
    m.payload = to_bytes("gw");
    Fingerprint item_fp =
        Fingerprint::from_hex("ffeeddccbbaa99887766554433221100");
    m.items.push_back({item_fp, Status::kNotFound, to_bytes("item")});
  } else {
    m.payload = encode_chunk_index_list({0, 2});
  }
  return m;
}

TEST(Wire, RoundTripAllTypes) {
  for (MessageType type : kAllTypes) {
    WireMessage m = golden_message(type);
    StatusOr<WireMessage> back = decode_message(encode_message(m));
    ASSERT_TRUE(back.ok()) << static_cast<int>(type);
    EXPECT_EQ(*back, m);
  }
}

TEST(Wire, GoldenFramesMatchTheBatchEncoding) {
  // One frame of every type, pinned byte for byte: types 7-14 to the
  // encoding they had while the retired single-item types 1-6 still
  // existed, and the digest pair 15-16 to the same batch layout.
  const char* const golden[] = {
      "47575031070200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656d0bd1ae61",
      "47575031080200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656d74bd463d",
      "47575031090200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656d16856e17",
      "475750310a0200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656db0cd1669",
      "475750310b0200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656dd2f53e43",
      "475750310c0200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656dfc5ce695",
      "475750310d0200112233445566778899aabbccddeeff03020002e0948305",
      "475750310e0200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656d382cb6c1",
      "475750310f0200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656d5a149eeb",
      "47575031100200112233445566778899aabbccddeeff02677701ffeeddcc"
      "bbaa9988776655443322110001046974656dc6f46678",
  };
  for (std::size_t i = 0; i < std::size(kAllTypes); ++i) {
    EXPECT_EQ(hex_encode(encode_message(golden_message(kAllTypes[i]))),
              golden[i])
        << static_cast<int>(kAllTypes[i]);
  }
}

/// `frame` with its type byte set to `type` and its CRC recomputed, so only
/// the type can make it fail decode.
Bytes retyped(Bytes frame, std::uint8_t type) {
  frame[4] = type;  // the type byte follows the 4-byte magic
  std::uint32_t crc = crc32(BytesView(frame.data(), frame.size() - 4));
  for (std::size_t k = 0; k < 4; ++k) {
    frame[frame.size() - 4 + k] = static_cast<std::uint8_t>(crc >> (8 * k));
  }
  return frame;
}

TEST(Wire, RetiredSingleItemTypesDecodeAsCorrupt) {
  Bytes frame =
      encode_message(one_item(MessageType::kQueryManyRequest, "r", {}));
  for (std::uint8_t retired = 1; retired <= 6; ++retired) {
    StatusOr<WireMessage> decoded = decode_message(retyped(frame, retired));
    ASSERT_FALSE(decoded.ok()) << int{retired};
    EXPECT_EQ(decoded.code(), ErrorCode::kCorruptData);
    EXPECT_NE(decoded.message().find("unknown type"), std::string::npos);
  }
}

TEST(Wire, TypesAboveTheDigestPairDecodeAsCorrupt) {
  // The digest pair (15-16) is the last assigned: a CRC-valid frame typed
  // 17 or above, or 0, is corrupt, while every assigned type decodes.
  Bytes frame =
      encode_message(one_item(MessageType::kQueryManyRequest, "r", {}));
  for (std::uint8_t type : {0, 17, 18, 255}) {
    StatusOr<WireMessage> decoded = decode_message(retyped(frame, type));
    ASSERT_FALSE(decoded.ok()) << int{type};
    EXPECT_EQ(decoded.code(), ErrorCode::kCorruptData);
    EXPECT_NE(decoded.message().find("unknown type"), std::string::npos);
  }
  for (MessageType type : kAllTypes) {
    if (!is_batch_type(type)) continue;  // its payload is an index list
    const auto byte = static_cast<std::uint8_t>(type);
    EXPECT_TRUE(decode_message(retyped(frame, byte)).ok()) << int{byte};
  }
}

TEST(Wire, EmptyPayload) {
  WireMessage m = one_item(MessageType::kQueryManyRequest, "x", {});
  StatusOr<WireMessage> back = decode_message(encode_message(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->payload.empty());
  ASSERT_EQ(back->items.size(), 1u);
  EXPECT_TRUE(back->items[0].payload.empty());
}

TEST(Wire, EveryByteFlipDetected) {
  Bytes frame = encode_message(one_item(MessageType::kDownloadManyResponse, "y",
                                        to_bytes("some payload to protect")));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Bytes bad = frame;
    bad[i] ^= 0xFF;
    // Any single-byte flip must fail the CRC or the magic check.
    EXPECT_FALSE(decode_message(bad).ok()) << "flip at " << i;
  }
}

TEST(Wire, TruncationAndGarbageRejected) {
  Bytes frame = encode_message(
      one_item(MessageType::kUploadManyRequest, "z", Bytes(100, 7)));
  for (std::size_t len : {0ul, 4ul, 26ul, frame.size() - 1}) {
    EXPECT_FALSE(decode_message(BytesView(frame.data(), len)).ok()) << len;
  }
  Bytes padded = frame;
  padded.push_back(0);
  EXPECT_FALSE(decode_message(padded).ok());
}

// ------------------------------------------------------------ transports

struct NetFixture : ::testing::Test {
  GearRegistry registry;
  LoopbackTransport loopback{registry};
};

TEST_F(NetFixture, LoopbackServesAllThreeInterfaces) {
  RemoteGearRegistry remote(loopback);
  Fingerprint fp = fp_of("hello");

  EXPECT_FALSE(remote.query(fp));
  EXPECT_TRUE(remote.upload(fp, to_bytes("hello")));
  EXPECT_FALSE(remote.upload(fp, to_bytes("hello")));  // deduplicated
  EXPECT_TRUE(remote.query(fp));
  EXPECT_EQ(to_string(remote.download(fp).value()), "hello");
  EXPECT_FALSE(remote.download(fp_of("missing")).ok());
  EXPECT_EQ(remote.stats().retries, 0u);
}

TEST_F(NetFixture, LoopbackChargesLink) {
  sim::SimClock clock;
  sim::NetworkLink link(clock, 100.0, 0.0005, 0.0003);
  LoopbackTransport charged(registry, &link);
  RemoteGearRegistry remote(charged);
  // Incompressible, so the compressed upload frame outweighs the content.
  Bytes content = Rng(3).next_bytes(10000);
  remote.upload(default_hasher().fingerprint(content), content);
  EXPECT_GT(link.stats().bytes_transferred, content.size());
  EXPECT_EQ(link.stats().requests, 2u);  // request + response frames
}

TEST_F(NetFixture, GarbageRequestGetsServerError) {
  Bytes garbage = to_bytes("not a frame at all");
  Bytes response_frame = loopback.round_trip(garbage);
  StatusOr<WireMessage> response = decode_message(response_frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, Status::kServerError);
}

TEST_F(NetFixture, TransientCorruptionRetriedTransparently) {
  // Every 2nd response is bit-flipped: each logical call needs one retry.
  FaultyTransport flaky(loopback, {FaultPlan::Kind::kFlipByte, 2}, 7);
  RemoteGearRegistry remote(flaky, /*max_attempts=*/4);
  Fingerprint fp = fp_of("resilient");
  EXPECT_TRUE(remote.upload(fp, to_bytes("resilient")));
  EXPECT_EQ(to_string(remote.download(fp).value()), "resilient");
  EXPECT_GT(remote.stats().retries, 0u);
  EXPECT_GT(flaky.faults_injected(), 0u);
}

TEST_F(NetFixture, TruncationAndDropsRetried) {
  for (FaultPlan::Kind kind :
       {FaultPlan::Kind::kTruncate, FaultPlan::Kind::kDrop}) {
    FaultyTransport flaky(loopback, {kind, 2}, 8);
    RemoteGearRegistry remote(flaky, 4);
    Fingerprint fp = fp_of("payload" + std::to_string(static_cast<int>(kind)));
    remote.upload(fp, to_bytes("payload"));
    EXPECT_TRUE(remote.query(fp));
  }
}

TEST_F(NetFixture, PersistentFailureSurfaces) {
  FaultyTransport dead(loopback, {FaultPlan::Kind::kDrop, 1}, 9);
  RemoteGearRegistry remote(dead, 3);
  EXPECT_THROW(remote.query(fp_of("anything")), Error);
  EXPECT_EQ(remote.stats().requests, 3u);
  EXPECT_EQ(remote.stats().retries, 2u);
}

TEST_F(NetFixture, LyingServerCaughtByContentVerification) {
  // Server stores wrong bytes under a fingerprint (passes CRC — the frame
  // is intact — but fails the end-to-end hash check).
  Fingerprint fp = fp_of("the-truth");
  registry.upload(fp, to_bytes("a lie"));
  RemoteGearRegistry remote(loopback, 2, /*verify_content=*/true);
  StatusOr<Bytes> got = remote.download(fp);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.code(), ErrorCode::kCorruptData);
  EXPECT_GT(remote.stats().integrity_failures, 0u);

  // With verification off (collision-salted names), the payload passes.
  RemoteGearRegistry trusting(loopback, 2, /*verify_content=*/false);
  EXPECT_EQ(to_string(trusting.download(fp).value()), "a lie");
}

TEST_F(NetFixture, EndToEndThroughRemoteStub) {
  // A client-side flow: query-miss -> upload -> query-hit -> download, over
  // a flaky link, content verified.
  FaultyTransport flaky(loopback, {FaultPlan::Kind::kFlipByte, 3}, 10);
  RemoteGearRegistry remote(flaky, 5);
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    Bytes content = rng.next_bytes(rng.next_range(1, 2000), 0.4);
    Fingerprint fp = default_hasher().fingerprint(content);
    if (!remote.query(fp)) {
      remote.upload(fp, content);
    }
    EXPECT_EQ(remote.download(fp).value(), content);
  }
}

// ---------------------------------------------------------- batch wire

TEST(WireBatch, RoundTripAllBatchTypes) {
  for (MessageType type : kAllTypes) {
    if (!is_batch_type(type)) continue;
    WireMessage m;
    m.type = type;
    m.fp = fp_of("batch");
    m.items.resize(3);
    m.items[0] = {fp_of("a"), Status::kOk, to_bytes("payload-a")};
    m.items[1] = {fp_of("b"), Status::kNotFound, {}};
    m.items[2] = {fp_of("c"), Status::kExists, Bytes(300, 9)};
    StatusOr<WireMessage> back = decode_message(encode_message(m));
    ASSERT_TRUE(back.ok()) << static_cast<int>(type);
    EXPECT_EQ(*back, m);
  }
}

TEST(WireBatch, EmptyItemListRoundTrips) {
  WireMessage m;
  m.type = MessageType::kDownloadManyRequest;
  StatusOr<WireMessage> back = decode_message(encode_message(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->items.empty());
}

TEST(WireBatch, ItemsOnNonBatchTypeNotEncoded) {
  // kDownloadChunksRequest is the one type without an item list: it
  // ignores (and does not transmit) any stray items.
  EXPECT_FALSE(is_batch_type(MessageType::kDownloadChunksRequest));
  WireMessage with_items;
  with_items.type = MessageType::kDownloadChunksRequest;
  with_items.fp = fp_of("chunked");
  with_items.payload = encode_chunk_index_list({1, 3});
  with_items.items.resize(2);
  WireMessage plain = with_items;
  plain.items.clear();
  EXPECT_EQ(encode_message(with_items), encode_message(plain));
}

/// A two-item frame of `type` (a chunk index list for the one type without
/// items), the frame the damage tests below flip and cut.
Bytes two_item_frame(MessageType type) {
  WireMessage m;
  m.type = type;
  m.fp = fp_of("batch");
  if (is_batch_type(type)) {
    m.items.resize(2);
    m.items[0] = {fp_of("p"), Status::kOk, to_bytes("first item bytes")};
    m.items[1] = {fp_of("q"), Status::kOk, Bytes(70, 4)};
  } else {
    m.payload = encode_chunk_index_list({0, 2, 5});
  }
  return encode_message(m);
}

TEST(WireBatch, EveryByteFlipDetected) {
  for (MessageType type : kAllTypes) {
    Bytes frame = two_item_frame(type);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      Bytes bad = frame;
      bad[i] ^= 0xFF;
      EXPECT_FALSE(decode_message(bad).ok())
          << static_cast<int>(type) << " flip at " << i;
    }
  }
}

TEST(WireBatch, TruncationAndTrailingGarbageRejected) {
  for (MessageType type : kAllTypes) {
    Bytes frame = two_item_frame(type);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_FALSE(decode_message(BytesView(frame.data(), len)).ok())
          << static_cast<int>(type) << " cut at " << len;
    }
    Bytes padded = frame;
    padded.push_back(0);
    EXPECT_FALSE(decode_message(padded).ok()) << static_cast<int>(type);
  }
}

// ------------------------------------------------------- batch transport

TEST_F(NetFixture, QueryManyAnswersInOneRoundTrip) {
  RemoteGearRegistry remote(loopback);
  registry.upload(fp_of("in-a"), to_bytes("in-a"));
  registry.upload(fp_of("in-b"), to_bytes("in-b"));
  std::vector<Fingerprint> fps = {fp_of("in-a"), fp_of("gone"), fp_of("in-b")};

  std::vector<std::uint8_t> present = remote.query_many(fps);
  ASSERT_EQ(present.size(), 3u);
  EXPECT_EQ(present[0], 1);
  EXPECT_EQ(present[1], 0);
  EXPECT_EQ(present[2], 1);
  EXPECT_EQ(loopback.server_stats().query_round_trips, 1u);
  EXPECT_EQ(loopback.server_stats().query_items, 3u);
  EXPECT_EQ(remote.stats().requests, 1u);
}

TEST_F(NetFixture, UploadBatchStoresExactlyWhatSerialUploadsWould) {
  GearRegistry serial_registry;
  std::vector<std::pair<Fingerprint, Bytes>> items;
  Rng rng(21);
  for (int i = 0; i < 10; ++i) {
    Bytes content = rng.next_bytes(rng.next_range(1, 3000), 0.4);
    Fingerprint fp = default_hasher().fingerprint(content);
    serial_registry.upload(fp, content);
    items.emplace_back(fp, compress(content));
  }
  items.emplace_back(items.front());  // duplicate: server must dedup it

  RemoteGearRegistry remote(loopback);
  EXPECT_EQ(remote.upload_precompressed_batch(std::move(items)), 10u);
  EXPECT_EQ(loopback.server_stats().upload_round_trips, 1u);
  EXPECT_EQ(loopback.server_stats().upload_items, 11u);
  EXPECT_EQ(registry.storage_bytes(), serial_registry.storage_bytes());
  EXPECT_EQ(registry.object_count(), serial_registry.object_count());
  EXPECT_EQ(registry.stats().uploads_accepted, 10u);
  EXPECT_EQ(registry.stats().uploads_deduplicated, 1u);
}

TEST_F(NetFixture, DownloadBatchMovesStoredBytesInOneRoundTrip) {
  Rng rng(22);
  std::vector<Fingerprint> fps;
  std::vector<Bytes> originals;
  std::uint64_t stored_total = 0;
  for (int i = 0; i < 8; ++i) {
    Bytes content = rng.next_bytes(rng.next_range(1, 4000), 0.5);
    Fingerprint fp = default_hasher().fingerprint(content);
    registry.upload(fp, content);
    stored_total += registry.stored_size(fp).value();
    fps.push_back(fp);
    originals.push_back(std::move(content));
  }

  RemoteGearRegistry remote(loopback);
  std::uint64_t wire = 0;
  StatusOr<std::vector<Bytes>> got = remote.download_batch(fps, nullptr, &wire);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) EXPECT_EQ((*got)[i], originals[i]);
  // Wire accounting equals the in-process registry's: stored bytes move.
  EXPECT_EQ(wire, stored_total);
  EXPECT_EQ(loopback.server_stats().download_round_trips, 1u);
  EXPECT_EQ(loopback.server_stats().download_items, fps.size());
  EXPECT_EQ(remote.stats().requests, 1u);
  EXPECT_EQ(remote.stats().item_refetches, 0u);
}

TEST_F(NetFixture, DownloadBatchNotFoundNamesTheFingerprint) {
  registry.upload(fp_of("have"), to_bytes("have"));
  RemoteGearRegistry remote(loopback);
  Fingerprint absent = fp_of("absent-file");
  StatusOr<std::vector<Bytes>> got =
      remote.download_batch({fp_of("have"), absent});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), ErrorCode::kNotFound);
  EXPECT_NE(got.message().find(absent.hex()), std::string::npos)
      << got.message();
}

TEST_F(NetFixture, StoredSizeServedOverTheWire) {
  Bytes content(5000, 'q');
  Fingerprint fp = default_hasher().fingerprint(content);
  registry.upload(fp, content);
  RemoteGearRegistry remote(loopback);
  EXPECT_EQ(remote.stored_size(fp).value(), registry.stored_size(fp).value());
  EXPECT_EQ(remote.stored_size(fp_of("nope")).code(), ErrorCode::kNotFound);
}

TEST_F(NetFixture, DigestQueryMovesDigestsInOneRoundTrip) {
  // Verdicts, not content: one kDigestMany frame answers every file with
  // the SHA-256 of its stored content, or kNotFound.
  Bytes a = Rng(28).next_bytes(5000);
  Bytes b = to_bytes("second stored file");
  registry.upload(fp_of("a-name"), a);  // any name: the bytes are hashed
  registry.upload(fp_of("b-name"), b);
  RemoteGearRegistry remote(loopback);
  std::vector<StatusOr<Sha256Digest>> got =
      remote.query_digests({fp_of("a-name"), fp_of("absent"), fp_of("b-name")});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].value(), Sha256::hash(a));
  EXPECT_EQ(got[1].code(), ErrorCode::kNotFound);
  EXPECT_NE(got[1].message().find(fp_of("absent").hex()), std::string::npos);
  EXPECT_EQ(got[2].value(), Sha256::hash(b));
  EXPECT_EQ(loopback.server_stats().digest_round_trips, 1u);
  EXPECT_EQ(loopback.server_stats().digest_items, 3u);
  EXPECT_EQ(loopback.server_stats().download_items, 0u);
  EXPECT_LT(loopback.server_stats().bytes_out, 3u * 64);
  EXPECT_EQ(remote.stats().requests, 1u);
  EXPECT_TRUE(remote.query_digests({}).empty());
  EXPECT_EQ(remote.stats().requests, 1u);  // an empty query sends nothing
}

TEST_F(NetFixture, DamagedObjectDigestIsCorruptDataNamingIt) {
  // A stored frame that no longer decodes is answered kServerError; the
  // stub asks for it again, alone, and then reports kCorruptData naming
  // it, while the intact file in the same frame keeps its digest.
  Bytes intact = to_bytes("intact");
  Fingerprint damaged = fp_of("damaged");
  registry.upload(fp_of("intact"), intact);
  Bytes frame = compress(to_bytes("damaged"));
  frame[0] ^= 0xFF;  // GZC1 magic overwritten
  registry.upload_precompressed(damaged, std::move(frame));
  EXPECT_EQ(registry.query_digests({damaged})[0].code(),
            ErrorCode::kCorruptData);

  RemoteGearRegistry remote(loopback, /*max_attempts=*/3);
  std::vector<StatusOr<Sha256Digest>> got =
      remote.query_digests({fp_of("intact"), damaged});
  EXPECT_EQ(got[0].value(), Sha256::hash(intact));
  ASSERT_FALSE(got[1].ok());
  EXPECT_EQ(got[1].code(), ErrorCode::kCorruptData);
  EXPECT_NE(got[1].message().find(damaged.hex()), std::string::npos)
      << got[1].message();
  EXPECT_EQ(loopback.server_stats().digest_round_trips, 3u);
  EXPECT_EQ(loopback.server_stats().digest_items, 2u + 1u + 1u);
  EXPECT_EQ(remote.stats().item_refetches, 2u);
  EXPECT_EQ(remote.stats().retries, 0u);  // every frame decoded fine
}

/// Rewrites the first response's message through `edit` and re-frames it
/// with a valid CRC: a middlebox that damages items, not frames.
class EditingTransport final : public Transport {
 public:
  EditingTransport(Transport& inner, std::function<void(WireMessage&)> edit)
      : inner_(inner), edit_(std::move(edit)) {}

  Bytes round_trip(BytesView request_frame) override {
    Bytes response = inner_.round_trip(request_frame);
    if (++calls_ > 1) return response;
    WireMessage m = decode_message(response).value();
    edit_(m);
    return encode_message(m);
  }

 private:
  Transport& inner_;
  std::function<void(WireMessage&)> edit_;
  int calls_ = 0;
};

TEST_F(NetFixture, MalformedDigestItemsAreAskedAgain) {
  // A short digest, a wrong echo and a per-item server error each send
  // their item, and only it, into the follow-up frame.
  std::vector<Fingerprint> fps;
  std::vector<Bytes> contents;
  for (int i = 0; i < 5; ++i) {
    contents.push_back(to_bytes("digest item " + std::to_string(i)));
    fps.push_back(fp_of(to_string(contents.back())));
    registry.upload(fps.back(), contents.back());
  }
  EditingTransport edited(loopback, [](WireMessage& m) {
    m.items.at(1).payload.pop_back();
    m.items.at(2).fp = fp_of("someone else");
    m.items.at(4).status = Status::kServerError;
  });
  RemoteGearRegistry remote(edited, /*max_attempts=*/2);
  std::vector<StatusOr<Sha256Digest>> got = remote.query_digests(fps);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(got[i].value(), Sha256::hash(contents[i])) << i;
  }
  EXPECT_EQ(remote.stats().item_refetches, 3u);
  EXPECT_EQ(loopback.server_stats().digest_items, 5u + 3u);
}

TEST_F(NetFixture, DamagedBatchFrameRetriedWhole) {
  Rng rng(23);
  std::vector<Fingerprint> fps;
  std::vector<Bytes> originals;
  for (int i = 0; i < 6; ++i) {
    Bytes content = rng.next_bytes(2000, 0.4);
    Fingerprint fp = default_hasher().fingerprint(content);
    registry.upload(fp, content);
    fps.push_back(fp);
    originals.push_back(std::move(content));
  }
  for (FaultPlan::Kind kind :
       {FaultPlan::Kind::kFlipByte, FaultPlan::Kind::kTruncate,
        FaultPlan::Kind::kDrop}) {
    FaultyTransport flaky(loopback, {kind, 2}, 24);
    RemoteGearRegistry remote(flaky, /*max_attempts=*/4);
    // Two batch calls: the 2nd and 4th transport frames are damaged, so at
    // least one call pays a whole-frame retry.
    for (int call = 0; call < 2; ++call) {
      StatusOr<std::vector<Bytes>> got = remote.download_batch(fps);
      ASSERT_TRUE(got.ok()) << static_cast<int>(kind);
      for (std::size_t i = 0; i < fps.size(); ++i) {
        EXPECT_EQ((*got)[i], originals[i]);
      }
    }
    EXPECT_GT(remote.stats().retries, 0u) << static_cast<int>(kind);
    // Frame damage is whole-frame retry territory, never item refetch.
    EXPECT_EQ(remote.stats().item_refetches, 0u) << static_cast<int>(kind);
  }
}

/// A lying middlebox: corrupts one item's payload inside the response and
/// re-frames it, so the CRC is valid but the item fails its fingerprint
/// check — exactly the case per-item refetch exists for.
class TamperingTransport final : public Transport {
 public:
  TamperingTransport(Transport& inner, std::size_t tamper_item)
      : inner_(inner), tamper_item_(tamper_item) {}

  Bytes round_trip(BytesView request_frame) override {
    if (StatusOr<WireMessage> req = decode_message(request_frame); req.ok()) {
      request_item_counts_.push_back(req->items.size());
    }
    Bytes response = inner_.round_trip(request_frame);
    if (++calls_ == 1) {
      WireMessage m = decode_message(response).value();
      Bytes& payload = m.items.at(tamper_item_).payload;
      payload.at(payload.size() / 2) ^= 0x5A;
      response = encode_message(m);  // CRC recomputed: the frame is intact
    }
    return response;
  }

  const std::vector<std::size_t>& request_item_counts() const {
    return request_item_counts_;
  }

 private:
  Transport& inner_;
  std::size_t tamper_item_;
  std::uint64_t calls_ = 0;
  std::vector<std::size_t> request_item_counts_;
};

TEST_F(NetFixture, IntactFrameWithDamagedItemRefetchesOnlyThatItem) {
  Rng rng(25);
  std::vector<Fingerprint> fps;
  std::vector<Bytes> originals;
  for (int i = 0; i < 5; ++i) {
    Bytes content = rng.next_bytes(1500, 0.4);
    Fingerprint fp = default_hasher().fingerprint(content);
    registry.upload(fp, content);
    fps.push_back(fp);
    originals.push_back(std::move(content));
  }

  TamperingTransport tampered(loopback, /*tamper_item=*/2);
  RemoteGearRegistry remote(tampered, /*max_attempts=*/3);
  StatusOr<std::vector<Bytes>> got = remote.download_batch(fps);
  ASSERT_TRUE(got.ok());
  for (std::size_t i = 0; i < fps.size(); ++i) EXPECT_EQ((*got)[i], originals[i]);

  // The frame decoded fine, so no whole-frame retry happened; exactly one
  // item was refetched, and the follow-up request carried only that item.
  EXPECT_EQ(remote.stats().retries, 0u);
  EXPECT_EQ(remote.stats().item_refetches, 1u);
  EXPECT_EQ(remote.stats().integrity_failures, 1u);
  ASSERT_EQ(tampered.request_item_counts().size(), 2u);
  EXPECT_EQ(tampered.request_item_counts()[0], fps.size());
  EXPECT_EQ(tampered.request_item_counts()[1], 1u);
}

TEST_F(NetFixture, BatchRoundTripsThroughFlakyLinkEndToEnd) {
  FaultyTransport flaky(loopback, {FaultPlan::Kind::kFlipByte, 3}, 26);
  RemoteGearRegistry remote(flaky, 5);
  Rng rng(27);
  std::vector<std::pair<Fingerprint, Bytes>> items;
  std::vector<Fingerprint> fps;
  std::vector<Bytes> originals;
  for (int i = 0; i < 12; ++i) {
    Bytes content = rng.next_bytes(rng.next_range(1, 2500), 0.4);
    Fingerprint fp = default_hasher().fingerprint(content);
    items.emplace_back(fp, compress(content));
    fps.push_back(fp);
    originals.push_back(std::move(content));
  }
  remote.upload_precompressed_batch(std::move(items));
  StatusOr<std::vector<Bytes>> got = remote.download_batch(fps);
  ASSERT_TRUE(got.ok());
  for (std::size_t i = 0; i < fps.size(); ++i) EXPECT_EQ((*got)[i], originals[i]);
}

}  // namespace
}  // namespace gear::net
