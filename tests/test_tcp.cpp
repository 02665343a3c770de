// The real-socket transport: TcpServer/TcpTransport moving GWP1 frames
// between OS sockets. Proves the socket path is byte-identical to the
// loopback path (same frames, same server stats, same client state), and
// exercises the stream edge cases loopback can never hit: split writes and
// short reads, mid-frame peer disconnects, oversized-frame rejection,
// server restart with transparent client reconnect, concurrent
// multi-client deploys, collision verdicts racing uploads on a pooled
// daemon (the ConcurrentTcp* and ConcurrentDigest* tests also run under
// TSAN), and every damaged frame of every wire type replayed at a live
// server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/fleet.hpp"
#include "gear/local_runtime.hpp"
#include "gear/object_store.hpp"
#include "gear/registry.hpp"
#include "net/remote_registry.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

using net::FrameServer;
using net::HostPort;
using net::LoopbackTransport;
using net::RemoteGearRegistry;
using net::TcpServer;
using net::TcpTransport;

// Converter fingerprints may be collision-salted, so remote stubs skip the
// content-hash check; the frame CRC still guards every transfer.
constexpr bool kNoVerify = false;

fs::path fresh_dir(const std::string& tag) {
  fs::path p = fs::path(::testing::TempDir()) /
               ("gear_tcp_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

/// Dials 127.0.0.1:`port` with a plain blocking socket — the raw-bytes
/// client for the stream edge-case tests.
int raw_dial(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

Bytes framed(BytesView frame) {
  std::uint8_t header[net::kFrameHeaderBytes];
  net::put_frame_length(header, frame.size());
  Bytes out(header, header + sizeof header);
  append(out, frame);
  return out;
}

/// A single-fingerprint query: a kQueryMany batch of one.
Bytes query_frame(const Fingerprint& fp) {
  net::WireMessage req;
  req.type = net::MessageType::kQueryManyRequest;
  req.items.push_back({fp, net::Status::kOk, {}});
  return net::encode_message(req);
}

TEST(TcpHostPort, ParsesAndRejects) {
  StatusOr<HostPort> ok = net::parse_host_port("localhost:8080");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->host, "localhost");
  EXPECT_EQ(ok->port, 8080);

  // rfind(':') splits on the LAST colon, so a bracketless v6-ish host works.
  ok = net::parse_host_port("::1:443");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->host, "::1");
  EXPECT_EQ(ok->port, 443);

  ok = net::parse_host_port("127.0.0.1:0");  // ephemeral bind parses
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->port, 0);

  for (const char* bad : {"nohost", "host:", ":123", "host:abc", "host:12x",
                          "host:65536", "host:999999", ""}) {
    StatusOr<HostPort> got = net::parse_host_port(bad);
    EXPECT_FALSE(got.ok()) << bad;
    EXPECT_EQ(got.code(), ErrorCode::kInvalidArgument) << bad;
  }
}

struct TcpSocketFixture : ::testing::Test {
  GearRegistry registry;
  FrameServer frames{registry};
  TcpServer server{frames};

  void SetUp() override { server.start("127.0.0.1", 0); }
};

TEST_F(TcpSocketFixture, RegistryCallsWorkOverRealSockets) {
  TcpTransport transport("127.0.0.1", server.port());
  RemoteGearRegistry remote(transport, 3, kNoVerify);

  Bytes content = to_bytes("file body over a real socket");
  Fingerprint fp = default_hasher().fingerprint(content);
  EXPECT_FALSE(remote.query(fp));
  EXPECT_TRUE(remote.upload(fp, content));
  EXPECT_TRUE(remote.query(fp));
  EXPECT_EQ(remote.download(fp).value(), content);
  EXPECT_EQ(remote.stored_size(fp).value(), registry.stored_size(fp).value());

  // Server-side accounting matches a loopback-served session.
  EXPECT_EQ(frames.stats().round_trips, 5u);
  EXPECT_EQ(server.frames_served(), 5u);
  EXPECT_EQ(server.connections_accepted(), 1u);  // one persistent connection
  EXPECT_EQ(remote.stats().retries, 0u);
}

TEST_F(TcpSocketFixture, DownloadSliceAtTheByteCapFitsOneFrame) {
  // Two incompressible files whose sizes sum to kMaxBatchBytes share one
  // download frame, which the default frame cap on both ends accepts; a
  // third file opens the next frame.
  Rng rng(5150);
  const std::vector<Bytes> contents = {rng.next_bytes(kMaxBatchBytes / 2),
                                       rng.next_bytes(kMaxBatchBytes / 2),
                                       rng.next_bytes(1000)};
  std::vector<FetchItem> items;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    Fingerprint fp = default_hasher().fingerprint(contents[i]);
    registry.upload(fp, contents[i]);
    items.push_back({fp, contents[i].size(), "f" + std::to_string(i)});
  }
  TcpTransport transport("127.0.0.1", server.port());
  RemoteGearRegistry remote(transport, 3, kNoVerify);
  std::vector<Bytes> got(items.size());
  fetch_in_slices(remote, items, nullptr, nullptr, "export",
                  [&](std::size_t i, Bytes content) {
                    got[i] = std::move(content);
                  });
  EXPECT_TRUE(got == contents);
  EXPECT_EQ(frames.stats().download_round_trips, 2u);
  EXPECT_GT(frames.stats().bytes_out, kMaxBatchBytes);
  EXPECT_EQ(server.frames_rejected(), 0u);
  EXPECT_EQ(remote.stats().retries, 0u);
}

TEST(TcpUploadBursts, IncompressiblePushStaysUnderTheFrameCap) {
  // 64 incompressible 1 MiB files are ~64 MiB of stored frames, far over a
  // 24 MiB frame cap on both ends. push_gear_image must cut its upload
  // bursts by the bytes they carry, not by file count alone, or the
  // transport refuses the burst and the push fails as unreachable.
  constexpr std::size_t kFrameCap = std::size_t{24} << 20;
  GearRegistry registry;
  FrameServer frames(registry);
  TcpServer::Options server_options;
  server_options.max_frame_bytes = kFrameCap;
  TcpServer server(frames, server_options);
  server.start("127.0.0.1", 0);
  TcpTransport::Options transport_options;
  transport_options.max_frame_bytes = kFrameCap;
  TcpTransport transport("127.0.0.1", server.port(), transport_options);
  RemoteGearRegistry remote(transport, 3, kNoVerify);

  Rng rng(6464);
  vfs::FileTree tree;
  for (int i = 0; i < 64; ++i) {
    tree.add_file("f" + std::to_string(i), rng.next_bytes(1 << 20));
  }
  GearImage image = GearConverter().convert(tree, "big", "v1", {}).image;
  docker::DockerRegistry index_registry;
  EXPECT_EQ(push_gear_image(image, index_registry, remote), 64u);
  EXPECT_EQ(server.frames_rejected(), 0u);
  EXPECT_EQ(remote.stats().retries, 0u);
  EXPECT_EQ(registry.object_count(), 64u);
  for (const auto& [fp, content] : image.files) {
    EXPECT_EQ(remote.download(fp).value(), content) << fp.hex();
  }
}

TEST_F(TcpSocketFixture, SplitWritesAndShortReadsReassemble) {
  // A peer trickling one byte at a time is still one frame to the server,
  // and a client that drains the response one byte at a time still sees one
  // intact frame: framing survives arbitrary TCP segmentation.
  Bytes content = to_bytes("trickle");
  Fingerprint fp = default_hasher().fingerprint(content);
  registry.upload(fp, content);

  Bytes wire = framed(query_frame(fp));
  int fd = raw_dial(server.port());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(::send(fd, wire.data() + i, 1, 0), 1);
    if (i % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::uint8_t header[net::kFrameHeaderBytes];
  for (std::size_t i = 0; i < sizeof header; ++i) {
    ASSERT_EQ(::recv(fd, header + i, 1, 0), 1);
  }
  std::uint32_t len = net::get_frame_length(header);
  ASSERT_GT(len, 0u);
  Bytes response(len);
  for (std::size_t i = 0; i < len; ++i) {
    ASSERT_EQ(::recv(fd, response.data() + i, 1, 0), 1);
  }
  StatusOr<net::WireMessage> decoded = net::decode_message(response);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, net::MessageType::kQueryManyResponse);
  ASSERT_EQ(decoded->items.size(), 1u);
  EXPECT_EQ(decoded->items[0].status, net::Status::kExists);
  EXPECT_EQ(decoded->items[0].fp, fp);
  ::close(fd);
}

TEST_F(TcpSocketFixture, MidFrameDisconnectLeavesServerServing) {
  // A peer that dies mid-frame costs the server nothing but that
  // connection: the next client is served normally.
  int fd = raw_dial(server.port());
  std::uint8_t header[net::kFrameHeaderBytes];
  net::put_frame_length(header, 100);  // promise 100 bytes...
  ASSERT_EQ(::send(fd, header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));
  ASSERT_EQ(::send(fd, "partial", 7, 0), 7);  // ...deliver 7, hang up
  ::close(fd);

  TcpTransport transport("127.0.0.1", server.port());
  RemoteGearRegistry remote(transport, 3, kNoVerify);
  Bytes content = to_bytes("after the crash");
  Fingerprint fp = default_hasher().fingerprint(content);
  EXPECT_TRUE(remote.upload(fp, content));
  EXPECT_EQ(remote.download(fp).value(), content);
  EXPECT_EQ(server.frames_rejected(), 0u);  // disconnect, not a violation
}

TEST(TcpSocketLimits, OversizedAndEmptyFramesDropTheConnection) {
  GearRegistry registry;
  FrameServer frames(registry);
  TcpServer::Options options;
  options.max_frame_bytes = 1024;
  TcpServer server(frames, options);
  server.start("127.0.0.1", 0);

  // An honest frame under the limit is served...
  Bytes content = to_bytes("x");
  Fingerprint fp = default_hasher().fingerprint(content);
  registry.upload(fp, content);
  {
    TcpTransport transport("127.0.0.1", server.port());
    RemoteGearRegistry remote(transport, 3, kNoVerify);
    EXPECT_TRUE(remote.query(fp));
  }

  // ...a length prefix past the limit is not: the connection just dies
  // (EOF on our side), before the server allocates anything.
  for (std::uint32_t bad_len : {std::uint32_t{10} << 20, std::uint32_t{0}}) {
    int fd = raw_dial(server.port());
    std::uint8_t header[net::kFrameHeaderBytes];
    net::put_frame_length(header, bad_len);
    ASSERT_EQ(::send(fd, header, sizeof header, 0),
              static_cast<ssize_t>(sizeof header));
    std::uint8_t byte;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // clean EOF, no response frame
    ::close(fd);
  }
  EXPECT_EQ(server.frames_rejected(), 2u);
  server.stop();
}

TEST(TcpReconnect, ServerRestartHealsMidWorkload) {
  // Durable store + wire serving: push through a daemon, kill it, bring a
  // new one up on the same port over the same store — the same client
  // transport redials on its own and the downloads come back intact.
  fs::path dir = fresh_dir("restart");
  Bytes a = to_bytes("survives the restart");
  Bytes b = to_bytes("second file");
  Fingerprint fp_a = default_hasher().fingerprint(a);
  Fingerprint fp_b = default_hasher().fingerprint(b);

  std::uint16_t port = 0;
  std::unique_ptr<TcpTransport> client;  // dialed once the first bind lands
  {
    GearRegistry registry(std::make_unique<DiskObjectStore>(dir));
    FrameServer frames(registry);
    TcpServer server(frames);
    server.start("127.0.0.1", 0);
    port = server.port();
    client = std::make_unique<TcpTransport>("127.0.0.1", port);
    RemoteGearRegistry remote(*client, 3, kNoVerify);
    EXPECT_TRUE(remote.upload(fp_a, a));
    EXPECT_TRUE(remote.upload(fp_b, b));
    server.stop();
  }

  // Daemon gone: the stub burns its retries and reports unreachable.
  {
    TcpTransport::Options fast;
    fast.max_attempts = 2;
    fast.connect_timeout_ms = 200;
    fast.backoff_initial_ms = 1;
    TcpTransport dead("127.0.0.1", port, fast);
    RemoteGearRegistry remote(dead, 2, kNoVerify);
    EXPECT_THROW((void)remote.query(fp_a), Error);
  }

  // New process incarnation: same store dir, same port. The original
  // client transport notices the dead connection and redials.
  GearRegistry reopened(std::make_unique<DiskObjectStore>(dir));
  FrameServer frames(reopened);
  TcpServer server(frames);
  server.start("127.0.0.1", port);
  RemoteGearRegistry remote(*client, 3, kNoVerify);
  EXPECT_EQ(remote.download(fp_a).value(), a);
  EXPECT_EQ(remote.download(fp_b).value(), b);
  EXPECT_GE(client->reconnects(), 1u);
  // Nothing was re-uploaded: the disk store already held both objects.
  EXPECT_EQ(reopened.object_count(), 2u);
  EXPECT_EQ(frames.stats().upload_round_trips, 0u);
  server.stop();
  fs::remove_all(dir);
}

TEST(TcpDamagedObject, CorruptStoredFrameIsReportedNotAnOutage) {
  // A daemon whose disk store holds one object with an overwritten GZC1
  // magic. Its download is corrupt data naming the file — not an
  // unreachable registry — and the same connection keeps serving.
  fs::path dir = fresh_dir("damaged");
  GearRegistry registry(std::make_unique<DiskObjectStore>(dir));
  FrameServer frames(registry);
  TcpServer server(frames);
  server.start("127.0.0.1", 0);

  Bytes intact = to_bytes("an intact object");
  Bytes damaged = to_bytes("an object whose stored frame rots on disk");
  Fingerprint fp_intact = default_hasher().fingerprint(intact);
  Fingerprint fp_damaged = default_hasher().fingerprint(damaged);
  registry.upload(fp_intact, intact);
  registry.upload(fp_damaged, damaged);
  // The record is found through its header in the pack; its frame's GZC1
  // magic is overwritten.
  const auto record = gear::testing::find_pack_record(dir, fp_damaged);
  ASSERT_TRUE(record.has_value());
  gear::testing::overwrite_bytes(record->segment, record->offset + 32, "XXXX");

  TcpTransport transport("127.0.0.1", server.port());
  RemoteGearRegistry remote(transport, 4, kNoVerify);
  StatusOr<Bytes> got = remote.download(fp_damaged);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), ErrorCode::kCorruptData);
  EXPECT_NE(got.message().find(fp_damaged.hex()), std::string::npos)
      << got.message();
  EXPECT_EQ(remote.download(fp_intact).value(), intact);
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(remote.stats().retries, 0u);  // every frame decoded fine
  server.stop();
  fs::remove_all(dir);
}

// One byte flipped inside the LZSS literals of a stored frame: the frame
// still decodes, to content one byte wrong, so only the record's checksum
// can tell. Every read path of a daemon over a pack store answers it as
// corrupt data naming the fingerprint, and the connection keeps serving.
TEST(TcpDamagedObject, FlippedLiteralIsCorruptDataOnEveryReadPath) {
  fs::path dir = fresh_dir("flipped_literal");
  GearRegistry registry(std::make_unique<DiskObjectStore>(dir));
  util::ThreadPool pool(2);
  FrameServer frames(registry, &pool);
  TcpServer server(frames);
  server.start("127.0.0.1", 0);

  std::string line = "gear literal line\n";
  std::string text;
  while (text.size() < 3000) text += line;
  const Bytes plain = to_bytes(text);
  const Bytes intact = to_bytes("an intact neighbour");
  Bytes big;
  for (int i = 0; i < 3; ++i) append(big, to_bytes(text + std::to_string(i)));
  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 3000;
  const Fingerprint fp_plain = default_hasher().fingerprint(plain);
  const Fingerprint fp_intact = default_hasher().fingerprint(intact);
  const Fingerprint fp_big = default_hasher().fingerprint(big);
  registry.upload(fp_plain, plain);
  registry.upload(fp_intact, intact);
  registry.upload_chunked(fp_big, big, policy);
  const ChunkManifest manifest = registry.chunk_manifest(fp_big).value();
  const Fingerprint chunk = manifest.chunks[1];

  // GZC1, the LZSS method byte, a two-byte size, the first flag byte, then
  // literals: payload byte 10 is the third.
  for (const Fingerprint& fp : {fp_plain, chunk}) {
    const auto record = gear::testing::find_pack_record(dir, fp);
    ASSERT_TRUE(record.has_value());
    Bytes frame = registry.store().get(fp).value();
    ASSERT_EQ(compressed_frame_method(frame), CompressionMethod::kLzss);
    frame[10] ^= 0x20;
    EXPECT_NE(decompress(frame), decompress(registry.store().get(fp).value()));
    gear::testing::overwrite_bytes(record->segment, record->offset + 32 + 10,
                                   std::string(1, static_cast<char>(frame[10])));
  }

  TcpTransport transport("127.0.0.1", server.port());
  RemoteGearRegistry remote(transport, 2, kNoVerify);
  auto expect_corrupt = [](const auto& got, const Fingerprint& fp,
                           const char* path) {
    ASSERT_FALSE(got.ok()) << path;
    EXPECT_EQ(got.code(), ErrorCode::kCorruptData) << path;
    EXPECT_NE(got.message().find(fp.hex()), std::string::npos)
        << path << ": " << got.message();
  };
  expect_corrupt(remote.download(fp_plain), fp_plain, "download");
  expect_corrupt(remote.download_batch({fp_intact, fp_plain}), fp_plain,
                 "download_batch");
  expect_corrupt(remote.download_range(fp_plain, 10, 20), fp_plain,
                 "download_range");
  expect_corrupt(remote.download(fp_big), fp_big, "download of a chunked file");
  expect_corrupt(remote.download_chunks(fp_big, manifest, {0, 1}), chunk,
                 "download_chunks");
  std::vector<StatusOr<Sha256Digest>> digests =
      remote.query_digests({fp_plain, fp_big, fp_intact});
  expect_corrupt(digests[0], fp_plain, "query_digests");
  expect_corrupt(digests[1], fp_big, "query_digests of a chunked file");
  EXPECT_TRUE(digests[2].ok());
  EXPECT_EQ(remote.download(fp_intact).value(), intact);
  EXPECT_EQ(remote.download_chunks(fp_big, manifest, {0, 2}).value().size(),
            2u);
  EXPECT_EQ(server.connections_accepted(), 1u);
  server.stop();
  fs::remove_all(dir);
}

// An import of 4,850 files through a daemon over a pack store: each upload
// frame is one append and one sync, so the store syncs at most once per
// 64-file burst plus a constant, and it creates no file per object.
TEST(TcpPackImport, SyncsOncePerUploadFrameAndNoFilePerObject) {
  fs::path dir = fresh_dir("pack_import");
  auto owned = std::make_unique<DiskObjectStore>(dir);
  DiskObjectStore& store = *owned;
  GearRegistry registry(std::move(owned));
  util::ThreadPool pool(2);
  FrameServer frames(registry, &pool);
  TcpServer server(frames);
  server.start("127.0.0.1", 0);

  vfs::FileTree tree;
  Rng rng(4850);
  for (int i = 0; i < 4850; ++i) {
    tree.add_file("d" + std::to_string(i % 50) + "/f" + std::to_string(i),
                  rng.next_bytes(rng.next_range(64, 512), 0.5));
  }
  GearConverter converter;
  ConversionResult conv =
      converter.convert(std::move(tree), "pack", "v1", docker::ImageConfig{});
  const std::size_t files = conv.image.files.size();
  ASSERT_EQ(files, 4850u);

  TcpTransport transport("127.0.0.1", server.port());
  RemoteGearRegistry remote(transport, 3, kNoVerify);
  docker::DockerRegistry catalog;
  EXPECT_EQ(push_gear_image(conv.image, catalog, remote), files);
  EXPECT_EQ(registry.object_count(), files);
  EXPECT_EQ(frames.stats().upload_round_trips, (files + 63) / 64);
  EXPECT_LE(store.syncs(), (files + 63) / 64 + 2);
  std::size_t entries = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);  // pack/ and its one segment
  server.stop();
  fs::remove_all(dir);
}

// A 200-item download frame holding one absent and one damaged item: a
// FrameServer that reads on its pool answers byte for byte what one that
// reads on the serving thread answers. Runs under TSAN (*ConcurrentPack*).
TEST(ConcurrentPackDownload, PooledAndUnpooledFrameServersAgree) {
  fs::path dir = fresh_dir("pooled_download");
  GearRegistry registry(std::make_unique<DiskObjectStore>(dir));
  Rng rng(200);
  net::WireMessage request;
  request.type = net::MessageType::kDownloadManyRequest;
  for (int i = 0; i < 200; ++i) {
    Bytes content = rng.next_bytes(rng.next_range(1, 3000), 0.5);
    net::WireItem item;
    item.fp = default_hasher().fingerprint(content);
    if (i != 77) registry.upload(item.fp, content);  // 77 stays absent
    request.items.push_back(std::move(item));
  }
  const Fingerprint damaged = request.items[150].fp;
  const auto record = gear::testing::find_pack_record(dir, damaged);
  ASSERT_TRUE(record.has_value());
  gear::testing::overwrite_bytes(record->segment,
                                 record->offset + 32 + record->length - 1,
                                 "\x7f\x7f");
  const Bytes frame = net::encode_message(request);

  util::ThreadPool pool(4);
  FrameServer pooled(registry, &pool);
  FrameServer serial(registry);
  const Bytes expected = serial.serve(frame);
  std::vector<Bytes> answers(4);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < answers.size(); ++c) {
    clients.emplace_back([&, c] { answers[c] = pooled.serve(frame); });
  }
  for (std::thread& t : clients) t.join();
  for (const Bytes& answer : answers) EXPECT_EQ(answer, expected);

  net::WireMessage response = net::decode_message(expected).value();
  ASSERT_EQ(response.items.size(), 200u);
  for (std::size_t i = 0; i < response.items.size(); ++i) {
    const net::Status want = i == 77    ? net::Status::kNotFound
                        : i == 150 ? net::Status::kServerError
                                   : net::Status::kOk;
    EXPECT_EQ(response.items[i].status, want) << i;
    EXPECT_EQ(response.items[i].fp, request.items[i].fp) << i;
  }
  EXPECT_EQ(pooled.stats().download_items, 4u * 200u);
  fs::remove_all(dir);
}

struct TcpDeployFixture : ::testing::Test {
  sim::SimClock clock;
  sim::NetworkLink link{clock, 904.0, 0.0005, 0.0003};
  sim::DiskModel disk{clock, 0.0001, 500.0, 480.0};

  docker::Image original;
  GearImage gear_image;

  void SetUp() override {
    vfs::FileTree s0 = gear::testing::random_tree(311, 120, 3000);
    docker::ImageBuilder b;
    b.add_snapshot(s0);
    original = b.build("app", "v1", docker::ImageConfig{});
    gear_image = GearConverter().convert(original).image;
  }
};

TEST_F(TcpDeployFixture, TcpDeployIsByteIdenticalToLoopback) {
  // The acceptance claim of the socket transport: a full push + prefetch
  // over TCP produces the same server contents, the same wire traffic
  // (frames in/out, round trips per kind, items per kind), the same client
  // cache, and the same stub accounting as the in-process loopback path.
  GearRegistry loop_server;
  docker::DockerRegistry loop_docker;
  LoopbackTransport loop_transport(loop_server);
  RemoteGearRegistry loop_remote(loop_transport, 3, kNoVerify);

  GearRegistry tcp_registry;
  docker::DockerRegistry tcp_docker;
  FrameServer tcp_frames(tcp_registry);
  TcpServer tcp_server(tcp_frames);
  tcp_server.start("127.0.0.1", 0);
  TcpTransport tcp_transport("127.0.0.1", tcp_server.port());
  RemoteGearRegistry tcp_remote(tcp_transport, 3, kNoVerify);

  EXPECT_EQ(push_gear_image(gear_image, loop_docker, loop_remote),
            push_gear_image(gear_image, tcp_docker, tcp_remote));
  EXPECT_EQ(tcp_registry.storage_bytes(), loop_server.storage_bytes());
  EXPECT_EQ(tcp_registry.object_count(), loop_server.object_count());

  GearClient loop_client(loop_docker, loop_remote, link, disk);
  loop_client.set_download_batch_files(16);
  sim::SimClock clock2;
  sim::NetworkLink link2{clock2, 904.0, 0.0005, 0.0003};
  sim::DiskModel disk2{clock2, 0.0001, 500.0, 480.0};
  GearClient tcp_client(tcp_docker, tcp_remote, link2, disk2);
  tcp_client.set_download_batch_files(16);

  loop_client.pull("app:v1");
  tcp_client.pull("app:v1");
  auto [loop_files, loop_bytes] = loop_client.prefetch_remaining("app:v1");
  auto [tcp_files, tcp_bytes] = tcp_client.prefetch_remaining("app:v1");
  EXPECT_EQ(tcp_files, loop_files);
  EXPECT_EQ(tcp_bytes, loop_bytes);

  // Wire-level identity, interface by interface.
  const net::LoopbackServerStats& ls = loop_transport.server_stats();
  const net::LoopbackServerStats& ts = tcp_frames.stats();
  EXPECT_EQ(ts.round_trips, ls.round_trips);
  EXPECT_EQ(ts.query_round_trips, ls.query_round_trips);
  EXPECT_EQ(ts.query_items, ls.query_items);
  EXPECT_EQ(ts.upload_round_trips, ls.upload_round_trips);
  EXPECT_EQ(ts.upload_items, ls.upload_items);
  EXPECT_EQ(ts.download_round_trips, ls.download_round_trips);
  EXPECT_EQ(ts.download_items, ls.download_items);
  EXPECT_EQ(ts.bytes_in, ls.bytes_in);
  EXPECT_EQ(ts.bytes_out, ls.bytes_out);
  EXPECT_EQ(tcp_remote.stats().requests, loop_remote.stats().requests);
  EXPECT_EQ(tcp_remote.stats().retries, 0u);
  EXPECT_EQ(tcp_remote.stats().item_refetches, 0u);

  // Client-side identity: every gear file cached with the same bytes.
  for (const auto& [fp, content] : gear_image.files) {
    EXPECT_EQ(loop_client.store().cache().get(fp).value(), content);
    EXPECT_EQ(tcp_client.store().cache().get(fp).value(), content);
  }
  tcp_server.stop();
}

TEST_F(TcpDeployFixture, ConcurrentTcpClientsDeployAgainstOneDaemon) {
  // Several client processes' worth of traffic at once: each thread owns a
  // private transport+stub (its own connection) and fetches the full image.
  GearRegistry registry;
  docker::DockerRegistry docker_registry;
  FrameServer frames(registry);
  TcpServer server(frames);
  server.start("127.0.0.1", 0);
  {
    TcpTransport seed_transport("127.0.0.1", server.port());
    RemoteGearRegistry seeder(seed_transport, 3, kNoVerify);
    push_gear_image(gear_image, docker_registry, seeder);
  }

  constexpr int kClients = 4;
  std::vector<std::size_t> fetched(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpTransport transport("127.0.0.1", server.port());
      RemoteGearRegistry remote(transport, 3, kNoVerify);
      std::vector<Fingerprint> fps;
      for (const auto& [fp, content] : gear_image.files) fps.push_back(fp);
      StatusOr<std::vector<Bytes>> got = remote.download_batch(fps);
      ASSERT_TRUE(got.ok());
      for (std::size_t i = 0; i < fps.size(); ++i) {
        ASSERT_EQ((*got)[i], gear_image.files[i].second);
      }
      fetched[static_cast<std::size_t>(c)] = got->size();
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(fetched[static_cast<std::size_t>(c)], gear_image.files.size());
  }
  EXPECT_EQ(frames.stats().download_items,
            kClients * gear_image.files.size());
  EXPECT_GE(server.connections_accepted(),
            static_cast<std::uint64_t>(kClients));
  server.stop();
}

// ---- Collision verdicts on a pooled daemon ---------------------------------

/// An in-process transport over a shared FrameServer: the loopback twin of
/// a TcpServer, so many clients can share one pooled server without
/// sockets (LoopbackTransport owns a pool-less FrameServer of its own).
class SharedServerTransport final : public net::Transport {
 public:
  explicit SharedServerTransport(FrameServer& frames) : frames_(frames) {}
  Bytes round_trip(BytesView request_frame) override {
    return frames_.serve(request_frame);
  }

 private:
  FrameServer& frames_;
};

using Digests = std::vector<StatusOr<Sha256Digest>>;

/// Four clients race collision verdicts against uploads on one FrameServer
/// with a 4-wide pool: each asks for the digests of every stored file (and
/// of absent ones between them) three times, uploading its share of other
/// files between rounds. A serial in-process registry holding the same
/// files is the reference for every answer.
struct ConcurrentDigestProbe : ::testing::Test {
  static constexpr int kClients = 4;
  static constexpr int kRounds = 3;

  util::ThreadPool pool{4};
  const ChunkPolicy policy{16384, 4096};
  std::vector<Bytes> stored;  // in the registry before the race; [0] chunked
  std::vector<Bytes> racing;  // uploaded by the clients during it
  std::vector<Fingerprint> queried;  // stored files, an absent one every 8th
  std::vector<Fingerprint> racing_fps;
  std::set<Fingerprint> absent;
  GearRegistry serial;

  void SetUp() override {
    Rng rng(7001);
    stored.push_back(rng.next_bytes(40000, 0.4));
    for (int i = 0; i < 95; ++i) {
      stored.push_back(rng.next_bytes(rng.next_range(100, 20000), 0.4));
    }
    for (int i = 0; i < 4 * kClients * kRounds; ++i) {
      racing.push_back(rng.next_bytes(rng.next_range(100, 8000), 0.4));
      racing_fps.push_back(default_hasher().fingerprint(racing.back()));
    }
    serial.upload_chunked(default_hasher().fingerprint(stored[0]), stored[0],
                          policy);
    for (std::size_t i = 0; i < stored.size(); ++i) {
      queried.push_back(default_hasher().fingerprint(stored[i]));
      serial.upload(queried.back(), stored[i]);
      if (i % 8 == 7) {
        queried.push_back(default_hasher().fingerprint(
            to_bytes("never stored " + std::to_string(i))));
        absent.insert(queried.back());
      }
    }
    for (std::size_t i = 0; i < racing.size(); ++i) {
      serial.upload(racing_fps[i], racing[i]);
    }
  }

  /// Stores the pre-race files in `served` the way a push would.
  void store(FileRegistryApi& served) const {
    served.upload_chunked(default_hasher().fingerprint(stored[0]), stored[0],
                          policy);
    for (const Bytes& content : stored) {
      served.upload(default_hasher().fingerprint(content), content);
    }
  }

  /// Runs the race through transports from `dial`; returns each client's
  /// answers, round by round, then one final answer over the racing files.
  std::vector<std::vector<Digests>> race(
      const std::function<std::unique_ptr<net::Transport>()>& dial) const {
    std::vector<std::vector<Digests>> answers(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::unique_ptr<net::Transport> transport = dial();
        RemoteGearRegistry remote(*transport, 3, kNoVerify);
        for (int r = 0; r < kRounds; ++r) {
          answers[c].push_back(remote.query_digests(queried));
          std::vector<std::pair<Fingerprint, Bytes>> batch;
          for (std::size_t i = 0; i < racing.size(); ++i) {
            if (static_cast<int>(i) % (kClients * kRounds) ==
                c * kRounds + r) {
              batch.emplace_back(racing_fps[i], compress(racing[i]));
            }
          }
          remote.upload_precompressed_batch(std::move(batch));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    // Every racing upload has landed: all of them answer now.
    std::unique_ptr<net::Transport> transport = dial();
    RemoteGearRegistry remote(*transport, 3, kNoVerify);
    answers[0].push_back(remote.query_digests(racing_fps));
    return answers;
  }

  /// Checks `got` against the serial registry's answers for `fps`: the same
  /// digest, or kNotFound where it has none — except the files in
  /// `unreadable`, which must fail otherwise, naming the file.
  void expect_serial_answers(const Digests& got,
                             const std::vector<Fingerprint>& fps,
                             const std::set<Fingerprint>& unreadable) const {
    const Digests want = serial.query_digests(fps);
    ASSERT_EQ(got.size(), fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      SCOPED_TRACE(fps[i].hex());
      if (unreadable.count(fps[i]) != 0) {
        ASSERT_FALSE(got[i].ok());
        EXPECT_NE(got[i].code(), ErrorCode::kNotFound);
        EXPECT_NE(got[i].message().find(fps[i].hex()), std::string::npos)
            << got[i].message();
      } else if (want[i].ok()) {
        ASSERT_TRUE(got[i].ok()) << got[i].message();
        EXPECT_EQ(*got[i], *want[i]);
      } else {
        EXPECT_EQ(want[i].code(), ErrorCode::kNotFound);
        EXPECT_EQ(got[i].code(), ErrorCode::kNotFound) << got[i].message();
      }
    }
  }

  void expect_race_matches_serial(
      const std::vector<std::vector<Digests>>& answers,
      const std::set<Fingerprint>& unreadable = {}) const {
    for (int c = 0; c < kClients; ++c) {
      for (int r = 0; r < kRounds; ++r) {
        SCOPED_TRACE("client " + std::to_string(c) + " round " +
                     std::to_string(r));
        expect_serial_answers(answers[c][r], queried, unreadable);
      }
    }
    expect_serial_answers(answers[0].back(), racing_fps, {});
  }
};

TEST_F(ConcurrentDigestProbe, SerialReferenceHashesTheStoredContent) {
  const Digests want = serial.query_digests(queried);
  std::size_t next = 0;
  for (std::size_t i = 0; i < queried.size(); ++i) {
    if (absent.count(queried[i]) != 0) {
      EXPECT_EQ(want[i].code(), ErrorCode::kNotFound);
      continue;
    }
    EXPECT_EQ(want[i].value(), Sha256::hash(stored[next++]));
  }
  EXPECT_EQ(next, stored.size());
  EXPECT_TRUE(serial.is_chunked(queried[0]));
}

TEST_F(ConcurrentDigestProbe, LoopbackClientsMatchSerial) {
  GearRegistry served;
  store(served);
  FrameServer frames(served, &pool);
  auto answers = race([&] {
    return std::make_unique<SharedServerTransport>(frames);
  });
  expect_race_matches_serial(answers);
  EXPECT_EQ(frames.stats().digest_items,
            kClients * kRounds * queried.size() + racing.size());
  EXPECT_EQ(frames.stats().download_items, 0u);
}

TEST_F(ConcurrentDigestProbe, TcpClientsMatchSerial) {
  GearRegistry served;
  store(served);
  FrameServer frames(served, &pool);
  TcpServer server(frames);
  server.start("127.0.0.1", 0);
  auto answers = race([&] {
    return std::make_unique<TcpTransport>("127.0.0.1", server.port());
  });
  server.stop();
  expect_race_matches_serial(answers);
  EXPECT_EQ(frames.stats().digest_round_trips,
            static_cast<std::uint64_t>(kClients * kRounds + 1));
  EXPECT_EQ(server.frames_rejected(), 0u);
}

TEST_F(ConcurrentDigestProbe, FleetWithAShardDownMatchesSerial) {
  // Three wire-fronted shards, two replicas each, behind one pooled
  // server; one shard goes down before the race. The fleet answers
  // through the interface's default: a download_batch that fails on the
  // absent files, then one download per file. Stored files come from
  // their live replica. An absent file whose home is the dead shard cannot
  // be ruled out, so it fails as unreadable rather than reading absent.
  constexpr std::size_t kShards = 3;
  std::vector<std::unique_ptr<GearRegistry>> shards;
  std::vector<std::unique_ptr<LoopbackTransport>> loopbacks;
  std::vector<std::unique_ptr<net::DownTransport>> switches;
  std::vector<std::unique_ptr<RemoteGearRegistry>> stubs;
  std::vector<FileRegistryApi*> apis;
  for (std::size_t i = 0; i < kShards; ++i) {
    shards.push_back(std::make_unique<GearRegistry>());
    loopbacks.push_back(std::make_unique<LoopbackTransport>(*shards.back()));
    switches.push_back(
        std::make_unique<net::DownTransport>(*loopbacks.back()));
    stubs.push_back(std::make_unique<RemoteGearRegistry>(*switches.back(), 3,
                                                         kNoVerify));
    apis.push_back(stubs.back().get());
  }
  FleetRegistry fleet(apis, FleetRegistry::Options{/*replicas=*/2, 64, 2});
  store(fleet);
  const std::size_t dead = 1;
  switches[dead]->set_down(true);
  std::set<Fingerprint> unreadable;
  for (const Fingerprint& fp : absent) {
    if (fleet.replicas_of(fp)[0] == dead) unreadable.insert(fp);
  }

  FrameServer frames(fleet, &pool);
  auto answers = race([&] {
    return std::make_unique<SharedServerTransport>(frames);
  });
  expect_race_matches_serial(answers, unreadable);
  EXPECT_GT(fleet.stats().replica_fallbacks.load(), 0u);
}

// ---- Damaged frames at a live server ---------------------------------------

/// Reads one length-prefixed frame off `fd`; nullopt when the server
/// closed the connection instead.
std::optional<Bytes> read_frame(int fd) {
  std::uint8_t header[net::kFrameHeaderBytes];
  if (::recv(fd, header, sizeof header, MSG_WAITALL) !=
      static_cast<ssize_t>(sizeof header)) {
    return std::nullopt;
  }
  Bytes frame(net::get_frame_length(header));
  if (::recv(fd, frame.data(), frame.size(), MSG_WAITALL) !=
      static_cast<ssize_t>(frame.size())) {
    return std::nullopt;
  }
  return frame;
}

TEST(TcpWireFuzz, EveryDamagedFrameIsAnsweredOrDroppedWhileAnotherClientIsServed) {
  // The WireBatch damage corpus — a two-item frame of every wire type with
  // each byte flipped in turn, then cut at every shorter length — sent
  // down one connection of a pooled daemon. Each damaged frame is answered
  // with kServerError, or (the empty cut) drops its connection, counted as
  // rejected; a well-formed client on another connection is served
  // correctly throughout.
  GearRegistry registry;
  util::ThreadPool pool(4);
  FrameServer frames(registry, &pool);
  TcpServer server(frames);
  server.start("127.0.0.1", 0);
  const Bytes content = Rng(808).next_bytes(3000, 0.4);
  const Fingerprint fp = default_hasher().fingerprint(content);
  registry.upload(fp, content);
  const Fingerprint missing = default_hasher().fingerprint(to_bytes("none"));

  std::vector<Bytes> corpus;
  for (std::uint8_t t = 7; t <= 16; ++t) {  // every type the wire carries
    net::WireMessage m;
    m.type = static_cast<net::MessageType>(t);
    m.fp = fp;
    if (net::is_batch_type(m.type)) {
      m.items.push_back({fp, net::Status::kOk, to_bytes("first item bytes")});
      m.items.push_back({missing, net::Status::kExists, Bytes(70, 4)});
    } else {
      m.payload = net::encode_chunk_index_list({0, 2, 5});
    }
    const Bytes frame = net::encode_message(m);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      corpus.push_back(frame);
      corpus.back()[i] ^= 0xFF;
    }
    for (std::size_t len = 0; len < frame.size(); ++len) {
      corpus.emplace_back(frame.begin(),
                          frame.begin() + static_cast<std::ptrdiff_t>(len));
    }
  }

  TcpTransport good_transport("127.0.0.1", server.port());
  RemoteGearRegistry good(good_transport, 3, kNoVerify);
  const Sha256Digest want = Sha256::hash(content);
  std::uint64_t answered = 0;
  std::uint64_t dropped = 0;
  int fd = raw_dial(server.port());
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    // One gathered send per frame, so header and body leave together.
    std::uint8_t header[net::kFrameHeaderBytes];
    net::put_frame_length(header, corpus[k].size());
    iovec parts[2] = {{header, sizeof header},
                      {corpus[k].data(), corpus[k].size()}};
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = 2;
    ASSERT_EQ(::sendmsg(fd, &message, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof header + corpus[k].size()));
    if (std::optional<Bytes> response = read_frame(fd)) {
      StatusOr<net::WireMessage> decoded = net::decode_message(*response);
      ASSERT_TRUE(decoded.ok()) << k;
      EXPECT_EQ(decoded->status, net::Status::kServerError) << k;
      ++answered;
    } else {
      ++dropped;
      ::close(fd);
      fd = raw_dial(server.port());
    }
    if (k % 64 == 0) {
      Digests got = good.query_digests({fp, missing});
      ASSERT_EQ(got[0].value(), want) << k;
      ASSERT_EQ(got[1].code(), ErrorCode::kNotFound) << k;
      ASSERT_EQ(good.download(fp).value(), content) << k;
    }
  }
  ::close(fd);
  EXPECT_EQ(answered + dropped, corpus.size());
  EXPECT_EQ(dropped, 10u);  // one empty cut per type
  EXPECT_EQ(server.frames_rejected(), dropped);
  EXPECT_EQ(frames.stats().bad_requests, answered);
  EXPECT_EQ(good.stats().retries, 0u);
  EXPECT_EQ(good_transport.reconnects(), 0u);
  server.stop();
}

}  // namespace
}  // namespace gear
