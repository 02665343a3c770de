// Tests for cooperative (P2P) Gear-file distribution inside one site: a flat
// cluster of nodes behind one tracker and one LAN.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "gear/chunking.hpp"
#include "gear/converter.hpp"
#include "p2p/topology.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear::p2p {
namespace {

/// A one-site topology of `nodes` nodes on the flat-LAN experiments' links.
Topology make_site(docker::DockerRegistry& index_registry,
                   FileRegistryApi& file_registry, std::size_t nodes) {
  Topology::Params params;
  params.sites = 1;
  params.nodes_per_site = nodes;
  params.wan_link = {100.0, /*rtt_seconds=*/0.0005,
                     /*request_overhead_seconds=*/0.0003};
  params.lan_link = sim::lan_profile(1000.0);
  return Topology(index_registry, file_registry, params);
}

struct ClusterFixture : ::testing::Test {
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  docker::Image image;
  workload::AccessSet access;

  void SetUp() override {
    vfs::FileTree root = gear::testing::random_tree(7000, 30, 8192);
    docker::ImageBuilder b;
    b.add_snapshot(root);
    image = b.build("svc", "v1", {});
    push_gear_image(GearConverter().convert(image).image, index_registry,
                    file_registry);
    access = workload::derive_access_set(
        image.flatten(), workload::AccessProfile{0.4, 0.8, 9, 1});
    ASSERT_FALSE(access.files.empty());
  }

  Topology make_cluster(std::size_t nodes) {
    return make_site(index_registry, file_registry, nodes);
  }
};

TEST(PeerTracker, AnnounceLocateRetract) {
  PeerTracker tracker;
  Fingerprint fp = default_hasher().fingerprint(to_bytes("x"));
  auto holders = [&](const std::string& requester) {
    return tracker.locate_ranked_many({fp}, requester).at(0);
  };
  EXPECT_TRUE(holders("a").empty());

  tracker.announce_all("a", {fp});
  EXPECT_TRUE(holders("a").empty());  // only the requester holds it
  EXPECT_EQ(holders("b"), std::vector<std::string>{"a"});

  tracker.announce_all("b", {fp});
  EXPECT_EQ(holders("a"), std::vector<std::string>{"b"});

  tracker.retract_node("a");
  tracker.retract_node("b");
  EXPECT_TRUE(holders("c").empty());
  EXPECT_EQ(tracker.announced_objects(), 0u);
}

TEST_F(ClusterFixture, SecondNodeFetchesFromPeer) {
  Topology cluster = make_cluster(3);
  docker::DeployStats first = cluster.deploy(0, 0, "svc:v1", access);
  EXPECT_GT(first.run_bytes_downloaded, 0u);  // cold: WAN
  std::uint64_t wan_after_first = cluster.wan_bytes();

  docker::DeployStats second = cluster.deploy(0, 1, "svc:v1", access);
  EXPECT_EQ(second.run_bytes_downloaded, 0u);  // all files came from node0
  EXPECT_GT(cluster.peer_hits(), 0u);
  EXPECT_GT(cluster.lan_bytes(), 0u);
  // WAN grew only by the manifest + index image for node1.
  EXPECT_LT(cluster.wan_bytes() - wan_after_first, wan_after_first / 2);
}

TEST_F(ClusterFixture, PeerContentByteExact) {
  Topology cluster = make_cluster(2);
  cluster.deploy(0, 0, "svc:v1", access);
  cluster.deploy(0, 1, "svc:v1", access);
  vfs::FileTree flat = image.flatten();
  std::string c = cluster.node(0, 1).store().create_container("svc:v1");
  GearFileViewer viewer = cluster.node(0, 1).open_viewer(c);
  for (const auto& fa : access.files) {
    EXPECT_EQ(viewer.read_file(fa.path).value(),
              flat.lookup(fa.path)->content())
        << fa.path;
  }
}

TEST_F(ClusterFixture, RetiredNodeFallsBackToRegistry) {
  Topology cluster = make_cluster(2);
  cluster.deploy(0, 0, "svc:v1", access);
  cluster.retire_node(0, 0);

  std::uint64_t lan_before = cluster.lan_bytes();
  docker::DeployStats second = cluster.deploy(0, 1, "svc:v1", access);
  EXPECT_EQ(cluster.lan_bytes(), lan_before);   // no peer traffic
  EXPECT_GT(second.run_bytes_downloaded, 0u);   // WAN fallback
}

TEST_F(ClusterFixture, ColdStartScalesRegistryEgressSublinearly) {
  const std::size_t kNodes = 6;
  // Without cooperation: every node pulls everything over the WAN.
  std::uint64_t solo_wan = 0;
  {
    for (std::size_t i = 0; i < kNodes; ++i) {
      sim::SimClock c;
      sim::NetworkLink l(c, 100.0, 0.0005, 0.0003);
      sim::DiskModel d = sim::DiskModel::ssd(c);
      GearClient client(index_registry, file_registry, l, d);
      client.deploy("svc:v1", access);
      solo_wan += l.stats().bytes_transferred;
    }
  }
  // With cooperation: one WAN copy + N-1 LAN copies.
  Topology cluster = make_cluster(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    cluster.deploy(0, i, "svc:v1", access);
  }
  EXPECT_LT(cluster.wan_bytes() * (kNodes / 2), solo_wan);
  EXPECT_GT(cluster.peer_hits(), 0u);
}

// ------------------------------------------------ batched chunk fan-out

struct ChunkedClusterFixture : ::testing::Test {
  static constexpr std::uint64_t kChunk = 4096;
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  Bytes model;
  workload::AccessSet no_access;  // deploy only pulls; reads come via ranges

  void SetUp() override {
    Rng rng(123);
    model = rng.next_bytes(24 * kChunk, 0.3);
    vfs::FileTree root;
    root.add_file("models/weights.bin", model);
    root.add_file("etc/config.json", to_bytes("{\"layers\":128}"));
    docker::ImageBuilder b;
    b.add_snapshot(root);
    push_gear_image(GearConverter().convert(b.build("ai", "v1", {})).image,
                    index_registry, file_registry,
                    ChunkPolicy{/*threshold_bytes=*/16 * 1024, kChunk});
  }

  Topology make_cluster(std::size_t nodes) {
    return make_site(index_registry, file_registry, nodes);
  }
};

TEST_F(ChunkedClusterFixture, RangeChunksFanOutFromPeerInOneBurst) {
  Topology cluster = make_cluster(2);
  std::string c0;
  cluster.deploy(0, 0, "ai:v1", no_access, &c0);
  ASSERT_EQ(cluster.read_range(0, 0, c0, "models/weights.bin", 0, model.size())
                .value(),
            model);

  // Node0's chunk objects are announced; node1's identical read pulls every
  // chunk from node0's cache as ONE pipelined LAN burst, and the WAN moves
  // only the manifest.
  std::string c1;
  cluster.deploy(0, 1, "ai:v1", no_access, &c1);
  std::uint64_t hits_before = cluster.peer_hits();
  std::uint64_t bursts_before = cluster.lan_bursts();
  std::uint64_t wan_before = cluster.wan_bytes();
  EXPECT_EQ(cluster.read_range(0, 1, c1, "models/weights.bin", 0, model.size())
                .value(),
            model);
  EXPECT_EQ(cluster.peer_hits() - hits_before, 24u);
  EXPECT_EQ(cluster.lan_bursts() - bursts_before, 1u);
  EXPECT_LT(cluster.wan_bytes() - wan_before, kChunk);  // manifest only
}

TEST_F(ChunkedClusterFixture, StaleChunkAdvertsFallThroughToRegistry) {
  Topology cluster = make_cluster(2);
  std::string c0;
  cluster.deploy(0, 0, "ai:v1", no_access, &c0);
  ASSERT_EQ(cluster.read_range(0, 0, c0, "models/weights.bin", 0, model.size())
                .value(),
            model);
  std::string c1;
  cluster.deploy(0, 1, "ai:v1", no_access, &c1);
  cluster.retire_node(0, 0);

  // The holder left: the batched probe finds nothing and every chunk falls
  // through to the registry. The read is still byte-exact.
  std::uint64_t bursts_before = cluster.lan_bursts();
  std::uint64_t wan_before = cluster.wan_bytes();
  EXPECT_EQ(cluster.read_range(0, 1, c1, "models/weights.bin", 0, model.size())
                .value(),
            model);
  EXPECT_EQ(cluster.lan_bursts(), bursts_before);
  EXPECT_GT(cluster.wan_bytes() - wan_before, kChunk);
}

// -------------------------------------------------- concurrent tracker

TEST(ConcurrentPeerBatch, TrackerSurvivesParallelAnnounceLocateRetract) {
  PeerTracker tracker;
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 64; ++i) {
    fps.push_back(default_hasher().fingerprint(to_bytes("obj" +
                                                        std::to_string(i))));
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::string id = "node" + std::to_string(t);
      for (int round = 0; round < 50; ++round) {
        tracker.announce_all(id, fps);
        // Between our announce and this locate, other threads only retract
        // their own ids — every slot must still name some holder.
        std::vector<std::vector<std::string>> found =
            tracker.locate_ranked_many(fps, "reader");
        if (found.size() != fps.size()) ++errors;
        for (const auto& holders : found) {
          if (holders.empty()) ++errors;
        }
        tracker.retract_node(id);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(tracker.announced_objects(), 0u);
}

TEST_F(ClusterFixture, ClusterValidation) {
  EXPECT_THROW(make_cluster(0), Error);
  Topology cluster = make_cluster(1);
  EXPECT_THROW(cluster.deploy(0, 5, "svc:v1", access), Error);
  EXPECT_THROW(cluster.retire_node(0, 5), Error);
  EXPECT_THROW(cluster.node(0, 5), Error);
}

}  // namespace
}  // namespace gear::p2p
