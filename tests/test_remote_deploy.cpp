// Deployment over the wire protocol: GearClient + push_gear_image running
// against a RemoteGearRegistry stub and a LoopbackTransport. Proves the
// round-trip arithmetic of the batch protocol (⌈N/batch⌉ download round
// trips for an N-file fetch), byte-identity between per-file and batched
// modes, and singleflight coalescing of concurrent same-file faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

using net::LoopbackTransport;
using net::RemoteGearRegistry;

struct RemoteDeployFixture : ::testing::Test {
  sim::SimClock clock;
  sim::NetworkLink link{clock, 904.0, 0.0005, 0.0003};
  sim::DiskModel disk{clock, 0.0001, 500.0, 480.0};
  docker::DockerRegistry docker_registry;

  docker::Image original;
  GearImage gear_image;
  workload::AccessSet access;

  void SetUp() override {
    vfs::FileTree s0 = gear::testing::random_tree(700, 30, 6000);
    vfs::FileTree s1 = gear::testing::mutate_tree(s0, 701, 10);
    docker::ImageBuilder b;
    b.add_snapshot(s0).add_snapshot(s1);
    original = b.build("app", "v1", docker::ImageConfig{});
    gear_image = GearConverter().convert(original).image;
    access = workload::derive_access_set(
        original.flatten(), workload::AccessProfile{0.3, 0.8, 7, 1});
    ASSERT_FALSE(access.files.empty());
  }
};

// Converter fingerprints may be collision-salted (paper §III-B), so remote
// stubs in these tests skip the content-hash check; the frame CRC still
// guards every transfer.
constexpr bool kNoVerify = false;

TEST_F(RemoteDeployFixture, PrefetchIssuesOneDownloadRoundTripPerBatch) {
  GearRegistry server;
  push_gear_image(gear_image, docker_registry, server);
  LoopbackTransport transport(server);
  RemoteGearRegistry remote(transport, 3, kNoVerify);
  GearClient client(docker_registry, remote, link, disk);
  client.set_download_batch_files(8);

  client.pull("app:v1");
  auto [fetched, bytes] = client.prefetch_remaining("app:v1");
  ASSERT_GT(fetched, 8u);  // several batches, or the test proves nothing
  EXPECT_GT(bytes, 0u);

  // The deployment-path claim: N files moved in ⌈N/8⌉ round trips, not N.
  const net::LoopbackServerStats& stats = transport.server_stats();
  EXPECT_EQ(stats.download_items, fetched);
  EXPECT_EQ(stats.download_round_trips, (fetched + 7) / 8);
  EXPECT_EQ(remote.stats().retries, 0u);
  EXPECT_EQ(remote.stats().item_refetches, 0u);

  // Fully local afterwards: a second prefetch moves nothing.
  auto [again_files, again_bytes] = client.prefetch_remaining("app:v1");
  EXPECT_EQ(again_files, 0u);
  EXPECT_EQ(again_bytes, 0u);
  EXPECT_EQ(transport.server_stats().download_items, fetched);
}

TEST_F(RemoteDeployFixture, BulkWarmDeployOverTransportServesCorrectContent) {
  GearRegistry server;
  push_gear_image(gear_image, docker_registry, server);
  LoopbackTransport transport(server);
  RemoteGearRegistry remote(transport, 3, kNoVerify);
  GearClient client(docker_registry, remote, link, disk);
  client.set_download_batch_files(16);
  client.set_bulk_warm_deploy(true);

  std::string container;
  docker::DeployStats stats = client.deploy("app:v1", access, &container);
  EXPECT_GT(stats.run_bytes_downloaded, 0u);

  const net::LoopbackServerStats& server_stats = transport.server_stats();
  EXPECT_GT(server_stats.download_items, 0u);
  EXPECT_LE(server_stats.download_items, access.files.size());
  EXPECT_EQ(server_stats.download_round_trips,
            (server_stats.download_items + 15) / 16);

  GearFileViewer v = client.open_viewer(container);
  vfs::FileTree flat = original.flatten();
  for (const auto& fa : access.files) {
    EXPECT_EQ(v.read_file(fa.path).value(), flat.lookup(fa.path)->content());
  }
}

TEST_F(RemoteDeployFixture, BatchedModeByteIdenticalToPerFileMode) {
  // Two independent full stacks, same seeded server content; one fetches
  // per-file (batch = 1 — the serial protocol over the same messages), the
  // other in batches of 64. Everything except the round-trip count must
  // come out identical.
  struct Stack {
    sim::SimClock clock;
    sim::NetworkLink link{clock, 904.0, 0.0005, 0.0003};
    sim::DiskModel disk{clock, 0.0001, 500.0, 480.0};
    docker::DockerRegistry docker_registry;
    GearRegistry server;
    LoopbackTransport transport{server};
    RemoteGearRegistry remote{transport, 3, kNoVerify};
  };
  Stack per_file;
  Stack batched;
  push_gear_image(gear_image, per_file.docker_registry, per_file.server);
  push_gear_image(gear_image, batched.docker_registry, batched.server);

  GearClient client_a(per_file.docker_registry, per_file.remote, per_file.link,
                      per_file.disk);
  client_a.set_download_batch_files(1);
  GearClient client_b(batched.docker_registry, batched.remote, batched.link,
                      batched.disk);
  client_b.set_download_batch_files(64);

  client_a.pull("app:v1");
  client_b.pull("app:v1");
  auto [fetched_a, bytes_a] = client_a.prefetch_remaining("app:v1");
  auto [fetched_b, bytes_b] = client_b.prefetch_remaining("app:v1");

  // Identical transfer results...
  EXPECT_EQ(fetched_a, fetched_b);
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(per_file.server.stats().downloads,
            batched.server.stats().downloads);
  EXPECT_EQ(per_file.transport.server_stats().download_items,
            batched.transport.server_stats().download_items);
  // ... and identical local state: every gear file cached with the original
  // bytes on both sides.
  for (const auto& [fp, content] : gear_image.files) {
    StatusOr<Bytes> got_a = client_a.store().cache().get(fp);
    StatusOr<Bytes> got_b = client_b.store().cache().get(fp);
    ASSERT_TRUE(got_a.ok());
    ASSERT_TRUE(got_b.ok());
    EXPECT_EQ(*got_a, content);
    EXPECT_EQ(*got_b, content);
  }
  // Only the round-trip count differs: N versus ⌈N/64⌉.
  EXPECT_EQ(per_file.transport.server_stats().download_round_trips, fetched_a);
  EXPECT_EQ(batched.transport.server_stats().download_round_trips,
            (fetched_b + 63) / 64);
  EXPECT_LT(batched.transport.server_stats().download_round_trips,
            per_file.transport.server_stats().download_round_trips);
}

TEST_F(RemoteDeployFixture, PushOverRemoteMatchesInProcessPush) {
  GearRegistry in_process;
  docker::DockerRegistry docker_a;
  std::size_t uploaded_local = push_gear_image(gear_image, docker_a, in_process);

  GearRegistry server;
  docker::DockerRegistry docker_b;
  LoopbackTransport transport(server);
  RemoteGearRegistry remote(transport, 3, kNoVerify);
  std::size_t uploaded_remote = push_gear_image(gear_image, docker_b, remote);

  // The wire push leaves the server byte-identical to an in-process push.
  EXPECT_EQ(uploaded_remote, uploaded_local);
  EXPECT_EQ(server.storage_bytes(), in_process.storage_bytes());
  EXPECT_EQ(server.object_count(), in_process.object_count());
  EXPECT_EQ(server.stats().queries, in_process.stats().queries);
  EXPECT_EQ(server.stats().uploads_accepted,
            in_process.stats().uploads_accepted);
  EXPECT_EQ(server.stats().uploads_deduplicated,
            in_process.stats().uploads_deduplicated);

  // Round-trip arithmetic: one query batch + ⌈uploaded/64⌉ upload batches.
  EXPECT_EQ(transport.server_stats().query_round_trips, 1u);
  EXPECT_EQ(transport.server_stats().query_items, gear_image.files.size());
  EXPECT_EQ(transport.server_stats().upload_round_trips,
            (uploaded_remote + 63) / 64);
  EXPECT_EQ(transport.server_stats().upload_items, uploaded_remote);

  // Re-push: everything deduplicates via one query round trip, no uploads.
  EXPECT_EQ(push_gear_image(gear_image, docker_b, remote), 0u);
  EXPECT_EQ(transport.server_stats().query_round_trips, 2u);
  EXPECT_EQ(transport.server_stats().upload_items, uploaded_remote);

  // And the pushed image deploys correctly end to end over the wire.
  GearClient client(docker_b, remote, link, disk);
  std::string container;
  client.deploy("app:v1", access, &container);
  GearFileViewer v = client.open_viewer(container);
  vfs::FileTree flat = original.flatten();
  for (const auto& fa : access.files) {
    EXPECT_EQ(v.read_file(fa.path).value(), flat.lookup(fa.path)->content());
  }
}

/// Wraps the in-process registry and holds every download until the test
/// opens the gate — freezes a flight leader mid-download so a concurrent
/// reader of the same fingerprint demonstrably joins the flight instead of
/// fetching on its own.
class GatedRegistry final : public FileRegistryApi {
 public:
  explicit GatedRegistry(GearRegistry& inner) : inner_(inner) {}

  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override {
    return inner_.query_many(fps);
  }
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override {
    return inner_.upload_precompressed(fp, std::move(compressed));
  }
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool,
      std::uint64_t* wire_bytes_out) const override {
    download_calls_.fetch_add(1);
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return open_; });
    return inner_.download_batch(fps, pool, wire_bytes_out);
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    return inner_.stored_size(fp);
  }

  void open_gate() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  int download_calls() const { return download_calls_.load(); }

 private:
  GearRegistry& inner_;
  mutable std::atomic<int> download_calls_{0};
  mutable std::mutex m_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

TEST(ParallelMaterialize, SingleflightCoalescesConcurrentSameFileFaults) {
  // Two images sharing one file fingerprint (distinct images, because a
  // viewer materialization mutates its own image's index tree): two
  // containers fault the shared file at the same time; exactly one registry
  // download must happen, with the second reader joining the flight.
  Rng rng(42);
  Bytes shared_content = rng.next_bytes(4000, 0.4);
  vfs::FileTree t1;
  t1.add_directory("data");
  t1.add_file("data/shared.bin", shared_content);
  t1.add_file("data/only-one.txt", to_bytes("image one"));
  vfs::FileTree t2;
  t2.add_directory("data");
  t2.add_file("data/shared.bin", shared_content);
  t2.add_file("data/only-two.txt", to_bytes("image two"));

  docker::ImageBuilder b1;
  b1.add_snapshot(t1);
  docker::Image image1 = b1.build("one", "v1", docker::ImageConfig{});
  docker::ImageBuilder b2;
  b2.add_snapshot(t2);
  docker::Image image2 = b2.build("two", "v1", docker::ImageConfig{});

  docker::DockerRegistry docker_registry;
  GearRegistry inner;
  push_gear_image(GearConverter().convert(image1).image, docker_registry,
                  inner);
  push_gear_image(GearConverter().convert(image2).image, docker_registry,
                  inner);
  GatedRegistry gated(inner);

  sim::SimClock clock;
  sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
  sim::DiskModel disk(clock, 0.0001, 500.0, 480.0);
  GearClient client(docker_registry, gated, link, disk);
  client.pull("one:v1");
  client.pull("two:v1");
  std::string c1 = client.store().create_container("one:v1");
  std::string c2 = client.store().create_container("two:v1");
  GearFileViewer v1 = client.open_viewer(c1);
  GearFileViewer v2 = client.open_viewer(c2);

  Bytes got1, got2;
  std::atomic<bool> second_started{false};
  std::thread leader([&] { got1 = v1.read_file("data/shared.bin").value(); });
  std::thread joiner([&] {
    // Start only once the leader is pinned inside the gated download, so
    // this read is guaranteed to find the flight in progress.
    while (gated.download_calls() == 0) std::this_thread::yield();
    second_started.store(true);
    got2 = v2.read_file("data/shared.bin").value();
  });

  while (!second_started.load()) std::this_thread::yield();
  // Give the joiner time to travel through the cache miss into the flight
  // wait before the leader is released.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated.open_gate();
  leader.join();
  joiner.join();

  EXPECT_EQ(got1, shared_content);
  EXPECT_EQ(got2, shared_content);
  EXPECT_EQ(gated.download_calls(), 1);
  EXPECT_EQ(client.coalesced_hits(), 1u);
  EXPECT_EQ(inner.stats().downloads, 1u);
}

}  // namespace
}  // namespace gear
