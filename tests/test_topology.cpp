// Tests for the multi-site edge topology: hierarchical P2P with
// site-local trackers, cross-site gossip, WAN-aware routing, and churn.
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

struct TopologyFixture : ::testing::Test {
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  docker::Image image;
  workload::AccessSet access;

  void SetUp() override {
    vfs::FileTree root = gear::testing::random_tree(7100, 30, 8192);
    docker::ImageBuilder b;
    b.add_snapshot(root);
    image = b.build("svc", "v1", {});
    push_gear_image(GearConverter().convert(image).image, index_registry,
                    file_registry);
    access = workload::derive_access_set(
        image.flatten(), workload::AccessProfile{0.4, 0.8, 9, 1});
    ASSERT_FALSE(access.files.empty());
  }

  static Topology::Params make_params(std::size_t sites,
                                      std::size_t nodes_per_site) {
    Topology::Params p;
    p.sites = sites;
    p.nodes_per_site = nodes_per_site;
    return p;
  }

  Topology make_topology(std::size_t sites, std::size_t nodes_per_site) {
    return Topology(index_registry, file_registry,
                    make_params(sites, nodes_per_site));
  }

  /// Every access file on (site, node) byte-equals the source image.
  void expect_byte_exact(Topology& topo, std::size_t site, std::size_t node) {
    vfs::FileTree flat = image.flatten();
    std::string c = topo.node(site, node).store().create_container("svc:v1");
    GearFileViewer viewer = topo.node(site, node).open_viewer(c);
    for (const auto& fa : access.files) {
      ASSERT_EQ(viewer.read_file(fa.path).value(),
                flat.lookup(fa.path)->content())
          << "s" << site << ".n" << node << " " << fa.path;
    }
  }
};

// ------------------------------------------------------- two-tier ladder

TEST_F(TopologyFixture, LanTierBeforeWanTierBeforeRegistry) {
  Topology topo = make_topology(2, 2);

  // Cold topology: the first deploy anywhere is all registry.
  docker::DeployStats seed = topo.deploy(0, 0, "svc:v1", access);
  EXPECT_GT(seed.run_bytes_downloaded, 0u);
  EXPECT_EQ(topo.peer_hits(), 0u);

  // A node in the *other* site has no local peers: the cross-site (WAN)
  // tier serves it, the registry moves no content.
  docker::DeployStats cross = topo.deploy(1, 0, "svc:v1", access);
  EXPECT_EQ(cross.run_bytes_downloaded, 0u);
  EXPECT_GT(topo.wan_peer_hits(), 0u);
  EXPECT_EQ(topo.lan_peer_hits(), 0u);
  EXPECT_GT(topo.wan_peer_bytes(), 0u);

  // Its site neighbor now has a warm local peer: the LAN tier is preferred
  // and the WAN tier is never consulted again.
  std::uint64_t wan_hits_before = topo.wan_peer_hits();
  std::uint64_t wan_peer_bytes_before = topo.wan_peer_bytes();
  docker::DeployStats local = topo.deploy(1, 1, "svc:v1", access);
  EXPECT_EQ(local.run_bytes_downloaded, 0u);
  EXPECT_GT(topo.lan_peer_hits(), 0u);
  EXPECT_GT(topo.lan_bytes(), 0u);
  EXPECT_EQ(topo.wan_peer_hits(), wan_hits_before);
  EXPECT_EQ(topo.wan_peer_bytes(), wan_peer_bytes_before);
}

TEST_F(TopologyFixture, CrossSiteFetchOffMakesSitesIslands) {
  Topology::Params p = make_params(2, 1);
  p.cross_site_fetch = false;
  Topology topo(index_registry, file_registry, p);

  topo.deploy(0, 0, "svc:v1", access);
  docker::DeployStats second = topo.deploy(1, 0, "svc:v1", access);
  EXPECT_GT(second.run_bytes_downloaded, 0u);  // registry, not site 0
  EXPECT_EQ(topo.peer_hits(), 0u);
  EXPECT_EQ(topo.lan_bytes(), 0u);
}

TEST_F(TopologyFixture, PeerContentByteExactAcrossSites) {
  Topology topo = make_topology(2, 2);
  topo.deploy(0, 0, "svc:v1", access);
  topo.deploy(1, 0, "svc:v1", access);  // via the WAN tier
  topo.deploy(1, 1, "svc:v1", access);  // via the LAN tier
  expect_byte_exact(topo, 1, 0);
  expect_byte_exact(topo, 1, 1);
}

TEST_F(TopologyFixture, StormPullsRegistryContentOnce) {
  const std::size_t kSites = 4;
  const std::size_t kNodes = 3;
  Topology topo = make_topology(kSites, kNodes);

  std::uint64_t registry_content = 0;
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      registry_content += topo.deploy(s, n, "svc:v1", access)
                              .run_bytes_downloaded;
    }
  }
  // Only the very first node touched the registry for content; every site
  // seed rode the WAN peer tier and everyone else the site LAN.
  Topology solo = make_topology(1, 1);
  std::uint64_t one_copy = solo.deploy(0, 0, "svc:v1", access)
                               .run_bytes_downloaded;
  EXPECT_EQ(registry_content, one_copy);
  EXPECT_GT(topo.lan_peer_hits(), 0u);
  EXPECT_GT(topo.wan_peer_hits(), 0u);
}

TEST_F(TopologyFixture, BatchedPrefetchFansOutInBursts) {
  Topology topo = make_topology(1, 2);
  topo.deploy(0, 0, "svc:v1", access);
  topo.deploy(0, 1, "svc:v1", access);
  topo.prefetch(0, 0, "svc:v1");  // warms the whole image from the registry

  // The neighbor's prefetch batch-pulls every remaining file from node 0:
  // pipelined LAN bursts, no new registry content. (The returned pair
  // counts registry downloads only, so it reads {0,0} here — the peer
  // traffic shows up on the LAN accounting.)
  std::uint64_t wan_before = topo.wan_bytes();
  std::uint64_t lan_before = topo.lan_bytes();
  std::uint64_t bursts_before = topo.lan_bursts();
  topo.prefetch(0, 1, "svc:v1");
  EXPECT_GT(topo.lan_bursts(), bursts_before);
  EXPECT_GT(topo.lan_bytes(), lan_before);
  EXPECT_EQ(topo.wan_bytes(), wan_before);

  // And the neighbor really is fully warm: no stub is left in its index.
  bool complete = true;
  topo.node(0, 1).store().index_tree("svc:v1").walk(
      [&](const std::string&, const vfs::FileNode& node) {
        if (node.is_fingerprint()) complete = false;
      });
  EXPECT_TRUE(complete);
}

TEST_F(TopologyFixture, PeerServedFaultIsALanBurstOfOne) {
  Topology topo = make_topology(1, 2);
  topo.deploy(0, 0, "svc:v1", access);

  // The neighbor's access set is one file node 0 holds: its fault asks the
  // ladder for a list of one and moves exactly that file in one LAN burst.
  workload::AccessSet one;
  for (const workload::FileAccess& fa : access.files) {
    if (fa.size > 0) {
      one.files.push_back(fa);
      break;
    }
  }
  ASSERT_EQ(one.files.size(), 1u);
  std::uint64_t lan_before = topo.lan_bytes();
  std::uint64_t bursts_before = topo.lan_bursts();
  docker::DeployStats stats = topo.deploy(0, 1, "svc:v1", one);
  EXPECT_EQ(stats.run_bytes_downloaded, 0u);
  EXPECT_EQ(topo.lan_bytes() - lan_before, one.files[0].size);
  EXPECT_EQ(topo.lan_bursts() - bursts_before, 1u);
}

// ------------------------------------------------------------- gossip

TEST_F(TopologyFixture, LazyGossipServesCrossSiteOnlyAfterRound) {
  Topology::Params p = make_params(3, 1);
  p.eager_gossip = false;
  Topology topo(index_registry, file_registry, p);

  topo.deploy(0, 0, "svc:v1", access);
  // No gossip ran: site 1 has no digest and must use the registry.
  docker::DeployStats before = topo.deploy(1, 0, "svc:v1", access);
  EXPECT_GT(before.run_bytes_downloaded, 0u);
  EXPECT_EQ(topo.wan_peer_hits(), 0u);

  topo.gossip();
  docker::DeployStats after = topo.deploy(2, 0, "svc:v1", access);
  EXPECT_EQ(after.run_bytes_downloaded, 0u);
  EXPECT_GT(topo.wan_peer_hits(), 0u);
}

TEST_F(TopologyFixture, StaleCrossSiteDigestFallsThroughToRegistry) {
  Topology::Params p = make_params(2, 1);
  p.eager_gossip = false;
  Topology topo(index_registry, file_registry, p);

  topo.deploy(0, 0, "svc:v1", access);
  topo.gossip();
  topo.crash_node(0, 0);

  // Site 1's digest still names site 0; the lone advertised holder is down,
  // so the fetch degrades through the stale advert to the registry — and
  // the deploy still lands byte-exact.
  docker::DeployStats stats = topo.deploy(1, 0, "svc:v1", access);
  EXPECT_GT(stats.run_bytes_downloaded, 0u);
  EXPECT_EQ(topo.wan_peer_hits(), 0u);
  expect_byte_exact(topo, 1, 0);
}

TEST_F(TopologyFixture, RetireRetractsAdvertsEverywhere) {
  Topology topo = make_topology(2, 1);  // eager gossip on by default
  topo.deploy(0, 0, "svc:v1", access);
  topo.retire_node(0, 0);

  // The retraction gossiped out: site 1 never chases the gone holder.
  docker::DeployStats stats = topo.deploy(1, 0, "svc:v1", access);
  EXPECT_GT(stats.run_bytes_downloaded, 0u);
  EXPECT_EQ(topo.peer_hits(), 0u);
}

// ------------------------------------------------------------- churn

TEST_F(TopologyFixture, CrashDegradesToNextRankedHolder) {
  Topology topo = make_topology(1, 3);
  topo.deploy(0, 0, "svc:v1", access);
  docker::DeployStats second = topo.deploy(0, 1, "svc:v1", access);
  EXPECT_EQ(second.run_bytes_downloaded, 0u);

  // Node 0 ranks first in the tracker and its adverts stay after the
  // crash; the next deployer must skip past it to node 1, all on the LAN.
  topo.crash_node(0, 0);
  std::uint64_t wan_before = topo.wan_bytes();
  docker::DeployStats third = topo.deploy(0, 2, "svc:v1", access);
  EXPECT_EQ(third.run_bytes_downloaded, 0u);
  // WAN grew only by node 2's own index pull, not by content.
  EXPECT_EQ(topo.wan_bytes() - wan_before, third.pull.bytes_downloaded);
}

TEST_F(TopologyFixture, CrossSitePrefetchWalksPastCrashedHolder) {
  Topology topo = make_topology(2, 2);
  for (std::size_t n = 0; n < 2; ++n) {
    topo.deploy(0, n, "svc:v1", access);
    topo.prefetch(0, n, "svc:v1");
  }
  // Node 0 ranks first in site 0's tracker and its adverts stay after the
  // crash; site 1's prefetch must walk past it to node 1 inside site 0,
  // not fall through to the registry or to one request per file.
  topo.crash_node(0, 0);
  topo.deploy(1, 0, "svc:v1", access);
  std::uint64_t bursts_before = topo.wan_peer_bursts();
  std::uint64_t hits_before = topo.wan_peer_hits();
  std::uint64_t wan_before = topo.wan_bytes();
  std::uint64_t peer_bytes_before = topo.wan_peer_bytes();
  topo.prefetch(1, 0, "svc:v1");
  EXPECT_EQ(topo.wan_peer_bursts() - bursts_before, 1u);
  EXPECT_GT(topo.wan_peer_hits(), hits_before);
  // Every WAN byte of the prefetch is the peer burst: no registry content.
  EXPECT_EQ(topo.wan_bytes() - wan_before,
            topo.wan_peer_bytes() - peer_bytes_before);
  expect_byte_exact(topo, 1, 0);
}

TEST_F(TopologyFixture, CrashedSoleHolderFallsThroughToRegistry) {
  Topology topo = make_topology(1, 2);
  topo.deploy(0, 0, "svc:v1", access);
  topo.crash_node(0, 0);

  docker::DeployStats second = topo.deploy(0, 1, "svc:v1", access);
  EXPECT_GT(second.run_bytes_downloaded, 0u);
  EXPECT_EQ(topo.lan_bytes(), 0u);
  expect_byte_exact(topo, 0, 1);
}

TEST_F(TopologyFixture, RejoinReAnnouncesWholeCache) {
  Topology topo = make_topology(1, 3);
  topo.deploy(0, 0, "svc:v1", access);
  topo.crash_node(0, 0);
  docker::DeployStats while_down = topo.deploy(0, 1, "svc:v1", access);
  EXPECT_GT(while_down.run_bytes_downloaded, 0u);  // sole holder was down

  topo.rejoin_node(0, 0);
  docker::DeployStats after = topo.deploy(0, 2, "svc:v1", access);
  EXPECT_EQ(after.run_bytes_downloaded, 0u);  // a rejoined holder serves
  EXPECT_GT(topo.lan_peer_hits(), 0u);
}

// -------------------------------------------- batched cross-site chunks

struct ChunkedTopologyFixture : ::testing::Test {
  static constexpr std::uint64_t kChunk = 4096;
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  Bytes model;
  workload::AccessSet no_access;

  void SetUp() override {
    Rng rng(321);
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
};

TEST_F(ChunkedTopologyFixture, CrossSiteChunksFanOutInOneWanBurst) {
  Topology::Params p;
  p.sites = 2;
  p.nodes_per_site = 1;
  Topology topo(index_registry, file_registry, p);

  std::string c0;
  topo.deploy(0, 0, "ai:v1", no_access, &c0);
  ASSERT_EQ(
      topo.read_range(0, 0, c0, "models/weights.bin", 0, model.size()).value(),
      model);

  // The remote node's identical read batch-pulls every chunk from site 0's
  // holder as ONE pipelined WAN burst; nothing moves on any LAN.
  std::string c1;
  topo.deploy(1, 0, "ai:v1", no_access, &c1);
  std::uint64_t hits_before = topo.peer_hits();
  ASSERT_EQ(
      topo.read_range(1, 0, c1, "models/weights.bin", 0, model.size()).value(),
      model);
  EXPECT_EQ(topo.peer_hits() - hits_before, 24u);
  EXPECT_EQ(topo.wan_peer_bursts(), 1u);
  EXPECT_EQ(topo.lan_bursts(), 0u);
  EXPECT_EQ(topo.lan_bytes(), 0u);
}

TEST_F(ChunkedTopologyFixture, CrossSiteRangeReadWalksPastCrashedHolder) {
  Topology::Params p;
  p.sites = 2;
  p.nodes_per_site = 2;
  Topology topo(index_registry, file_registry, p);

  // Both site-0 nodes hold every chunk; then s0.n0, first in its tracker's
  // ranking, crashes with its adverts left behind.
  for (std::size_t n = 0; n < 2; ++n) {
    std::string c;
    topo.deploy(0, n, "ai:v1", no_access, &c);
    ASSERT_EQ(topo.read_range(0, n, c, "models/weights.bin", 0, model.size())
                  .value(),
              model);
  }
  topo.crash_node(0, 0);

  // s1.n0's read walks past the crashed holder to s0.n1: all 24 chunks in
  // one WAN burst, and besides the manifest nothing from the registry.
  std::string c1;
  topo.deploy(1, 0, "ai:v1", no_access, &c1);
  std::uint64_t hits_before = topo.peer_hits();
  std::uint64_t bursts_before = topo.wan_peer_bursts();
  std::uint64_t wan_before = topo.wan_bytes();
  std::uint64_t peer_bytes_before = topo.wan_peer_bytes();
  ASSERT_EQ(
      topo.read_range(1, 0, c1, "models/weights.bin", 0, model.size()).value(),
      model);
  EXPECT_EQ(topo.peer_hits() - hits_before, 24u);
  EXPECT_EQ(topo.wan_peer_bursts() - bursts_before, 1u);
  std::uint64_t registry_bytes = (topo.wan_bytes() - wan_before) -
                                 (topo.wan_peer_bytes() - peer_bytes_before);
  EXPECT_LT(registry_bytes, kChunk);  // the manifest only
}

// -------------------------------------------------------- validation

TEST_F(TopologyFixture, TopologyValidation) {
  Topology::Params bad;
  bad.sites = 0;
  EXPECT_THROW(Topology(index_registry, file_registry, bad), Error);
  bad.sites = 1;
  bad.nodes_per_site = 0;
  EXPECT_THROW(Topology(index_registry, file_registry, bad), Error);

  Topology topo = make_topology(2, 2);
  EXPECT_THROW(topo.deploy(2, 0, "svc:v1", access), Error);
  EXPECT_THROW(topo.deploy(0, 2, "svc:v1", access), Error);
  EXPECT_THROW(topo.crash_node(5, 0), Error);
  EXPECT_THROW(topo.wan_bytes(2), Error);
  EXPECT_THROW(topo.lan_bytes(2), Error);
  EXPECT_THROW(topo.node(0, 9), Error);
}

// ---------------------------------------------------- concurrent storms
// The ConcurrentEdge* suites run under TSAN in CI: deploys on distinct
// nodes race tracker announcements, gossip writes, and churn flips.

using ConcurrentEdgeStorm = TopologyFixture;

TEST_F(ConcurrentEdgeStorm, DistinctNodeDeploysAreRaceFree) {
  const std::size_t kSites = 2;
  const std::size_t kNodes = 3;
  Topology topo = make_topology(kSites, kNodes);

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      threads.emplace_back([&, s, n] {
        topo.deploy(s, n, "svc:v1", access);
        topo.prefetch(s, n, "svc:v1");
      });
    }
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t s = 0; s < kSites; ++s) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      // Fully warmed: a second prefetch moves nothing.
      auto [files, bytes] = topo.prefetch(s, n, "svc:v1");
      EXPECT_EQ(files, 0u);
      EXPECT_EQ(bytes, 0u);
      expect_byte_exact(topo, s, n);
    }
  }
}

TEST_F(ConcurrentEdgeStorm, ChurnFlipsRaceDeployingNodes) {
  Topology topo = make_topology(2, 2);
  topo.deploy(0, 0, "svc:v1", access);
  topo.prefetch(0, 0, "svc:v1");

  // Three nodes deploy while the warmed holder flaps: fetchers see stale
  // adverts, degrade, and every deploy still lands byte-exact.
  std::vector<std::thread> threads;
  for (auto [s, n] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {1, 0},
                      {1, 1}}) {
    threads.emplace_back([&, s = s, n = n] {
      topo.deploy(s, n, "svc:v1", access);
      topo.prefetch(s, n, "svc:v1");
    });
  }
  std::thread churn([&] {
    for (int i = 0; i < 50; ++i) {
      topo.crash_node(0, 0);
      topo.rejoin_node(0, 0);
    }
  });
  for (std::thread& th : threads) th.join();
  churn.join();

  for (auto [s, n] : {std::pair<std::size_t, std::size_t>{0, 1},
                      {1, 0},
                      {1, 1}}) {
    expect_byte_exact(topo, s, n);
  }
}

TEST(ConcurrentEdgeTracker, RetractRacesRankedLocates) {
  PeerTracker tracker;
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 64; ++i) {
    fps.push_back(
        default_hasher().fingerprint(to_bytes("edge" + std::to_string(i))));
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::string id = "node" + std::to_string(t);
      for (int round = 0; round < 50; ++round) {
        tracker.announce_all(id, fps);
        tracker.retract_node(id);
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::string self = "reader" + std::to_string(t);
      for (int round = 0; round < 50; ++round) {
        std::vector<std::vector<std::string>> ranked =
            tracker.locate_ranked_many(fps, self);
        if (ranked.size() != fps.size()) ++errors;
        for (const auto& holders : ranked) {
          for (const std::string& h : holders) {
            if (h == self) ++errors;  // requester must be excluded
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors, 0);
  tracker.retract_node("node0");
  tracker.retract_node("node1");
  tracker.retract_node("node2");
  tracker.retract_node("node3");
  EXPECT_EQ(tracker.announced_objects(), 0u);
}

}  // namespace
}  // namespace gear::p2p
