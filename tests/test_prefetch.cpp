// Delta-first, priority-ordered prefetch (gear/prefetch): plan ordering,
// access-profile persistence format, the overlapped drain pipeline, and the
// client-level guarantees — path order stays byte-/wire-/stats-identical to
// the legacy walk, delta files land before unchanged ones, and delta-first
// strictly reduces time-to-first-useful-byte on a two-version redeploy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "docker/client.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/prefetch.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "workload/trace.hpp"

namespace gear {
namespace {

Fingerprint fp_of(const std::string& label) {
  return default_hasher().fingerprint(to_bytes(label));
}

// ------------------------------------------------------------ order parse

TEST(PrefetchOrderParse, StrictValues) {
  EXPECT_EQ(parse_prefetch_order("path"), PrefetchOrder::kPath);
  EXPECT_EQ(parse_prefetch_order("delta"), PrefetchOrder::kDelta);
  EXPECT_EQ(parse_prefetch_order("profile"), PrefetchOrder::kProfile);
  EXPECT_FALSE(parse_prefetch_order("").has_value());
  EXPECT_FALSE(parse_prefetch_order("Path").has_value());
  EXPECT_FALSE(parse_prefetch_order("delta ").has_value());
  EXPECT_FALSE(parse_prefetch_order("sideways").has_value());
  EXPECT_STREQ(prefetch_order_name(PrefetchOrder::kPath), "path");
  EXPECT_STREQ(prefetch_order_name(PrefetchOrder::kDelta), "delta");
  EXPECT_STREQ(prefetch_order_name(PrefetchOrder::kProfile), "profile");
}

// ------------------------------------------------------------ profiles

TEST(ImageAccessProfile, RecordSerializeParseRoundTrip) {
  ImageAccessProfile p;
  p.bump_run();
  p.record("usr/bin/app");
  p.record("usr/bin/app");
  p.record("etc/config with spaces.ini");
  std::string text = p.serialize();
  ASSERT_TRUE(text.rfind("GPRF1 ", 0) == 0);

  StatusOr<ImageAccessProfile> parsed = ImageAccessProfile::parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->runs(), 1u);
  EXPECT_EQ(parsed->distinct_paths(), 2u);
  EXPECT_EQ(parsed->touches("usr/bin/app"), 2u);
  EXPECT_EQ(parsed->touches("etc/config with spaces.ini"), 1u);
  EXPECT_EQ(parsed->touches("never"), 0u);
  // Deterministic: a round-tripped profile reserializes bit-for-bit.
  EXPECT_EQ(parsed->serialize(), text);
}

TEST(ImageAccessProfile, MergeAddsCountsAndRuns) {
  ImageAccessProfile a;
  a.bump_run();
  a.record("x");
  a.record("y");
  ImageAccessProfile b;
  b.bump_run();
  b.bump_run();
  b.record("y");
  b.record("z");
  a.merge(b);
  EXPECT_EQ(a.runs(), 3u);
  EXPECT_EQ(a.touches("x"), 1u);
  EXPECT_EQ(a.touches("y"), 2u);
  EXPECT_EQ(a.touches("z"), 1u);
}

TEST(ImageAccessProfile, ParseRejectsMalformed) {
  EXPECT_FALSE(ImageAccessProfile::parse("").ok());
  EXPECT_FALSE(ImageAccessProfile::parse("GPRF9 1 0\n").ok());
  EXPECT_FALSE(ImageAccessProfile::parse("GPRF1 x 0\n").ok());
  // Truncated: promises two entries, carries one.
  EXPECT_FALSE(ImageAccessProfile::parse("GPRF1 1 2\n3 usr/bin/app\n").ok());
  // Non-numeric count line.
  EXPECT_FALSE(ImageAccessProfile::parse("GPRF1 1 1\nnope path\n").ok());
  // Empty profile is valid.
  StatusOr<ImageAccessProfile> empty = ImageAccessProfile::parse("GPRF1 0 0\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

// ------------------------------------------------------------ series helpers

TEST(SeriesHelpers, SeriesOfAndNewestOtherVersion) {
  EXPECT_EQ(series_of("app:v1"), "app");
  EXPECT_EQ(series_of("repo/app:1.2.3"), "repo/app");
  EXPECT_EQ(series_of("plain"), "plain");

  std::vector<std::string> installed = {"app:v2", "app:v10", "app:v9",
                                        "other:v99", "app:v1"};
  // Numeric-aware: v10 is the newest other version, not v9.
  EXPECT_EQ(newest_other_version(installed, "app:v1"), "app:v10");
  // The reference itself never wins.
  EXPECT_EQ(newest_other_version(installed, "app:v10"), "app:v9");
  EXPECT_EQ(newest_other_version(installed, "solo:v1"), "");
  EXPECT_EQ(newest_other_version({}, "app:v1"), "");
}

// ------------------------------------------------------------ plan building

TEST(PrefetchPlan, PathOrderMatchesWalkExactly) {
  vfs::FileTree index;
  index.add_fingerprint_stub("b/late", fp_of("late"), 10);
  index.add_fingerprint_stub("a/early", fp_of("early"), 10);
  index.add_fingerprint_stub("c/last", fp_of("last"), 10);

  std::vector<std::string> walk_order;
  index.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_fingerprint()) walk_order.push_back(path);
  });

  PrefetchPlan plan =
      build_prefetch_plan(index, PrefetchOrder::kPath, nullptr, nullptr);
  ASSERT_EQ(plan.items.size(), walk_order.size());
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    EXPECT_EQ(plan.items[i].path, walk_order[i]);
  }
  EXPECT_EQ(plan.delta_files, 0u);
}

TEST(PrefetchPlan, DeltaMembersComeFirst) {
  // The changed files sort late in path order ("z_..."), so a delta-first
  // plan must be a genuine reordering, not an accident of the walk.
  vfs::FileTree previous;
  previous.add_fingerprint_stub("a/unchanged0", fp_of("u0"), 10);
  previous.add_fingerprint_stub("a/unchanged1", fp_of("u1"), 10);
  previous.add_fingerprint_stub("z_changed/old", fp_of("old"), 10);

  vfs::FileTree index;
  index.add_fingerprint_stub("a/unchanged0", fp_of("u0"), 10);
  index.add_fingerprint_stub("a/unchanged1", fp_of("u1"), 10);
  index.add_fingerprint_stub("z_changed/old", fp_of("new"), 10);  // modified
  index.add_fingerprint_stub("z_changed/added", fp_of("add"), 10);

  PrefetchPlan plan =
      build_prefetch_plan(index, PrefetchOrder::kDelta, &previous, nullptr);
  ASSERT_EQ(plan.items.size(), 4u);
  EXPECT_EQ(plan.delta_files, 2u);
  EXPECT_TRUE(plan.items[0].in_delta);
  EXPECT_TRUE(plan.items[1].in_delta);
  EXPECT_FALSE(plan.items[2].in_delta);
  EXPECT_FALSE(plan.items[3].in_delta);
  // Without a previous index the delta signal is off and ties keep walk
  // order — the plan degrades gracefully, it never throws.
  PrefetchPlan cold =
      build_prefetch_plan(index, PrefetchOrder::kDelta, nullptr, nullptr);
  EXPECT_EQ(cold.delta_files, 0u);
  EXPECT_EQ(cold.items.size(), 4u);
}

TEST(PrefetchPlan, ProfileRanksByTouchesWithinDelta) {
  vfs::FileTree index;
  index.add_fingerprint_stub("a/cold", fp_of("cold"), 10);
  index.add_fingerprint_stub("b/warm", fp_of("warm"), 10);
  index.add_fingerprint_stub("c/hot", fp_of("hot"), 10);

  ImageAccessProfile profile;
  profile.record("b/warm");
  for (int i = 0; i < 5; ++i) profile.record("c/hot");

  PrefetchPlan plan =
      build_prefetch_plan(index, PrefetchOrder::kProfile, nullptr, &profile);
  ASSERT_EQ(plan.items.size(), 3u);
  EXPECT_EQ(plan.items[0].path, "c/hot");
  EXPECT_EQ(plan.items[1].path, "b/warm");
  EXPECT_EQ(plan.items[2].path, "a/cold");
  EXPECT_EQ(plan.profiled_files, 2u);
}

TEST(PrefetchPlan, FaninThenSizeTieBreakers) {
  vfs::FileTree index;
  // fp "shared" referenced twice (fan-in 2); singles tie-break by size asc.
  index.add_fingerprint_stub("a/big", fp_of("big"), 900);
  index.add_fingerprint_stub("b/small", fp_of("small"), 50);
  index.add_fingerprint_stub("c/shared0", fp_of("shared"), 400);
  index.add_fingerprint_stub("d/shared1", fp_of("shared"), 400);

  PrefetchPlan plan =
      build_prefetch_plan(index, PrefetchOrder::kDelta, nullptr, nullptr);
  // Deduplicated: one item per fingerprint, first referencing path wins.
  ASSERT_EQ(plan.items.size(), 3u);
  EXPECT_EQ(plan.items[0].path, "c/shared0");
  EXPECT_EQ(plan.items[0].fanin, 2u);
  EXPECT_EQ(plan.items[1].path, "b/small");
  EXPECT_EQ(plan.items[2].path, "a/big");
}

// ------------------------------------------------------------ drain pipeline

TEST(DrainBatches, AccountingOrderPreservedAtAnyWidth) {
  std::vector<PrefetchBatch> batches;
  for (int i = 0; i < 9; ++i) {
    PrefetchBatch b;
    b.fps.push_back(fp_of("batch" + std::to_string(i)));
    b.sizes.push_back(100);
    b.wire_estimate = 100;
    b.requests = 1;
    batches.push_back(std::move(b));
  }
  auto fetch = [](const PrefetchBatch& b, util::ThreadPool*) {
    FetchedBatch out;
    out.contents.emplace_back(b.sizes[0], std::uint8_t{0});
    out.wire_bytes = b.wire_estimate;
    return out;
  };

  std::vector<Fingerprint> serial_order;
  drain_batches(batches, nullptr, 0, fetch,
                [&](const PrefetchBatch& b, FetchedBatch) {
                  serial_order.push_back(b.fps[0]);
                });

  util::ThreadPool pool(4);
  std::vector<Fingerprint> overlapped_order;
  drain_batches(batches, &pool, 250, fetch,
                [&](const PrefetchBatch& b, FetchedBatch) {
                  overlapped_order.push_back(b.fps[0]);
                });
  EXPECT_EQ(overlapped_order, serial_order);
}

TEST(DrainBatches, FetchErrorRethrownOnCallerThread) {
  std::vector<PrefetchBatch> batches;
  for (int i = 0; i < 6; ++i) {
    PrefetchBatch b;
    b.fps.push_back(fp_of("err" + std::to_string(i)));
    b.sizes.push_back(10);
    b.wire_estimate = 10;
    batches.push_back(std::move(b));
  }
  util::ThreadPool pool(3);
  std::atomic<int> accounted{0};
  EXPECT_THROW(
      drain_batches(
          batches, &pool, 0,
          [](const PrefetchBatch& b, util::ThreadPool*) -> FetchedBatch {
            if (b.fps[0] == fp_of("err3")) {
              throw_error(ErrorCode::kInternal, "wire down");
            }
            FetchedBatch out;
            out.contents.emplace_back(b.sizes[0], std::uint8_t{0});
            return out;
          },
          [&](const PrefetchBatch&, FetchedBatch) { ++accounted; }),
      Error);
  EXPECT_LT(accounted.load(), 6);
}

// ------------------------------------------------------------ client level

/// Two handcrafted versions of one series: v2 keeps the "a/*" payload and
/// replaces/adds files under "z_delta/*" — names chosen so the delta sorts
/// LAST in path order and a delta-first schedule is unmistakable.
struct TwoVersionFixture : ::testing::Test {
  docker::DockerRegistry docker_registry;
  GearRegistry gear_registry;
  std::vector<Fingerprint> delta_fps;
  workload::AccessSet access_v1, access_v2;

  void SetUp() override {
    Rng rng(7);
    vfs::FileTree v1;
    v1.add_directory("a");
    for (int i = 0; i < 24; ++i) {
      v1.add_file("a/f" + std::to_string(i), rng.next_bytes(3000, 0.5));
    }
    vfs::FileTree v2 = v1;
    v2.add_directory("z_delta");
    for (int i = 0; i < 6; ++i) {
      v2.add_file("z_delta/g" + std::to_string(i), rng.next_bytes(3000, 0.5));
    }

    push(v1, "app", "v1");
    GearImage image2 = push(v2, "app", "v2");
    std::set<std::string> v1_paths;
    v1.walk([&](const std::string& p, const vfs::FileNode&) {
      v1_paths.insert(p);
    });
    image2.index.tree().walk(
        [&](const std::string& p, const vfs::FileNode& node) {
          if (node.is_fingerprint() && v1_paths.count(p) == 0) {
            delta_fps.push_back(node.fingerprint());
          }
        });
    ASSERT_EQ(delta_fps.size(), 6u);

    access_v1.files = {{"a/f0", 3000, {}}, {"a/f1", 3000, {}}};
    access_v2.files = {{"a/f0", 3000, {}}, {"z_delta/g0", 3000, {}}};
  }

  GearImage push(const vfs::FileTree& tree, const std::string& name,
                 const std::string& tag) {
    docker::ImageBuilder b;
    b.add_snapshot(tree);
    docker::Image image = b.build(name, tag, docker::ImageConfig{});
    GearImage gi = GearConverter().convert(image).image;
    push_gear_image(gi, docker_registry, gear_registry);
    return gi;
  }
};

struct ClientRig {
  sim::SimClock clock;
  sim::NetworkLink link;
  sim::DiskModel disk;
  GearClient client;

  ClientRig(docker::DockerRegistry& dr, FileRegistryApi& fr)
      : link(clock, 904.0, 0.0005, 0.0003),
        disk(clock, 0.0001, 500.0, 480.0),
        client(dr, fr, link, disk) {}
};

TEST_F(TwoVersionFixture, OrdersAreWireAndStatsIdentical) {
  // The scheduling order may only permute the fetch sequence: files,
  // bytes, link totals, elapsed sim time, and final cache contents must be
  // identical across path/delta/profile.
  struct Leg {
    std::size_t files;
    std::uint64_t bytes;
    sim::NetworkStats net;
    double elapsed;
    std::vector<Fingerprint> cached;
  };
  auto run = [&](PrefetchOrder order) {
    ClientRig rig(docker_registry, gear_registry);
    rig.client.set_prefetch_order(order);
    rig.client.set_download_batch_files(5);
    rig.client.deploy("app:v1", access_v1);  // seeds a profile + the series
    rig.client.pull("app:v2");
    auto [files, bytes] = rig.client.prefetch_remaining("app:v2");
    std::vector<Fingerprint> cached =
        rig.client.store().cache().fingerprints();
    std::sort(cached.begin(), cached.end());
    return Leg{files, bytes, rig.link.stats(), rig.clock.now(), cached};
  };

  Leg path = run(PrefetchOrder::kPath);
  Leg delta = run(PrefetchOrder::kDelta);
  Leg profile = run(PrefetchOrder::kProfile);

  for (const Leg* leg : {&delta, &profile}) {
    EXPECT_EQ(leg->files, path.files);
    EXPECT_EQ(leg->bytes, path.bytes);
    EXPECT_EQ(leg->net.bytes_transferred, path.net.bytes_transferred);
    EXPECT_EQ(leg->net.requests, path.net.requests);
    EXPECT_NEAR(leg->elapsed, path.elapsed, 1e-9);
    EXPECT_EQ(leg->cached, path.cached);
  }
}

TEST_F(TwoVersionFixture, DeltaFilesArriveBeforeAnyUnchangedFile) {
  ClientRig rig(docker_registry, gear_registry);
  rig.client.set_prefetch_order(PrefetchOrder::kDelta);
  rig.client.set_download_batch_files(4);
  rig.client.pull("app:v1");  // index only: nothing cached, delta is known
  rig.client.pull("app:v2");

  std::set<Fingerprint> delta(delta_fps.begin(), delta_fps.end());
  std::vector<bool> arrivals_in_delta;
  rig.client.set_prefetch_observer(
      [&](const Fingerprint& fp, std::uint64_t, double) {
        arrivals_in_delta.push_back(delta.count(fp) != 0);
      });
  rig.client.prefetch_remaining("app:v2");

  ASSERT_EQ(arrivals_in_delta.size(), 30u);  // 24 unchanged + 6 delta
  for (std::size_t i = 0; i < delta.size(); ++i) {
    EXPECT_TRUE(arrivals_in_delta[i]) << "non-delta file at position " << i;
  }
  for (std::size_t i = delta.size(); i < arrivals_in_delta.size(); ++i) {
    EXPECT_FALSE(arrivals_in_delta[i]);
  }
}

TEST_F(TwoVersionFixture, SecondPrefetchEarlyOutsWithoutTouchingTheWire) {
  ClientRig rig(docker_registry, gear_registry);
  rig.client.pull("app:v1");
  auto [files, bytes] = rig.client.prefetch_remaining("app:v1");
  EXPECT_GT(files, 0u);
  EXPECT_GT(bytes, 0u);

  sim::NetworkStats before = rig.link.stats();
  double now_before = rig.clock.now();
  auto [files2, bytes2] = rig.client.prefetch_remaining("app:v1");
  EXPECT_EQ(files2, 0u);
  EXPECT_EQ(bytes2, 0u);
  sim::NetworkStats after = rig.link.stats();
  EXPECT_EQ(after.bytes_transferred, before.bytes_transferred);
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_DOUBLE_EQ(rig.clock.now(), now_before);
}

TEST_F(TwoVersionFixture, DeployStatsLabelThePrefetchedSubset) {
  // Bulk-warm deploys report the warm leg; totals are unchanged (the
  // prefetched_* fields are a labeled subset of run_bytes_downloaded).
  ClientRig warm(docker_registry, gear_registry);
  warm.client.set_bulk_warm_deploy(true);
  docker::DeployStats warm_stats = warm.client.deploy("app:v1", access_v1);
  EXPECT_GT(warm_stats.prefetched_files, 0u);
  EXPECT_GT(warm_stats.prefetched_bytes, 0u);
  EXPECT_LE(warm_stats.prefetched_bytes, warm_stats.run_bytes_downloaded);

  // Lazy deploy alone prefetches nothing...
  ClientRig lazy(docker_registry, gear_registry);
  docker::DeployStats lazy_stats = lazy.client.deploy("app:v1", access_v1);
  EXPECT_EQ(lazy_stats.prefetched_files, 0u);
  EXPECT_EQ(lazy_stats.prefetched_bytes, 0u);

  // ...until prefetch-after-deploy closes the window in the same call.
  ClientRig bg(docker_registry, gear_registry);
  bg.client.set_prefetch_after_deploy(true);
  docker::DeployStats bg_stats = bg.client.deploy("app:v1", access_v1);
  EXPECT_GT(bg_stats.prefetched_files, 0u);
  EXPECT_GT(bg_stats.prefetched_bytes, 0u);
}

TEST_F(TwoVersionFixture, DeployRecordsAccessProfileButPrefetchDoesNot) {
  ClientRig rig(docker_registry, gear_registry);
  rig.client.deploy("app:v1", access_v1);
  ImageAccessProfile profile = rig.client.access_profile("app");
  EXPECT_EQ(profile.runs(), 1u);
  EXPECT_GT(profile.touches("a/f0"), 0u);
  EXPECT_GT(profile.touches("a/f1"), 0u);
  std::size_t recorded = profile.distinct_paths();

  // The prefetch link sweep materializes every remaining file; none of
  // that is workload signal — the profile must not flatten to uniform.
  rig.client.prefetch_remaining("app:v1");
  EXPECT_EQ(rig.client.access_profile("app").distinct_paths(), recorded);
}

// ------------------------------------------------ trace replay (TTFB)

TEST_F(TwoVersionFixture, DeltaFirstStrictlyReducesTimeToFirstUsefulByte) {
  // A two-deploy trace (v1 then v2) over the wire protocol: the post-deploy
  // prefetch of v2 must serve the first *delta* byte strictly earlier under
  // delta order than under path order, at identical total wire bytes.
  std::set<Fingerprint> delta(delta_fps.begin(), delta_fps.end());

  struct LegResult {
    double first_delta_arrival = -1;
    std::uint64_t wire_bytes = 0;
    std::uint64_t prefetched_files = 0;
  };
  auto run = [&](PrefetchOrder order) {
    GearRegistry& server = gear_registry;
    sim::SimClock clock;
    sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
    sim::DiskModel disk(clock, 0.0001, 500.0, 480.0);
    net::LoopbackTransport transport(server, &link);
    net::RemoteGearRegistry remote(transport, 3, false);
    GearClient client(docker_registry, remote, link, disk);
    client.set_prefetch_order(order);
    client.set_download_batch_files(4);

    LegResult leg;
    client.set_prefetch_observer(
        [&](const Fingerprint& fp, std::uint64_t, double sim_seconds) {
          if (leg.first_delta_arrival < 0 && delta.count(fp) != 0) {
            leg.first_delta_arrival = sim_seconds;
          }
        });

    std::vector<workload::TraceEvent> events = {{0.0, 0, 0}, {5.0, 0, 1}};
    workload::TraceSpec spec;
    spec.max_live_containers = 2;
    std::map<std::string, std::string> image_of;  // container -> reference
    workload::TraceResult replay = workload::replay_trace(
        clock, events, spec,
        [&](std::size_t, int version) {
          std::string ref = "app:v" + std::to_string(version + 1);
          std::string container;
          client.deploy(ref, version == 0 ? access_v1 : access_v2, &container);
          image_of[container] = ref;
          return container;
        },
        [&](const std::string&) {},
        [&](const std::string& container)
            -> std::pair<std::size_t, std::uint64_t> {
          // Only the v2 redeploy prefetches — the v1 cache must stay cold
          // so the unchanged files still compete with the delta on the wire.
          const std::string& ref = image_of.at(container);
          if (ref != "app:v2") return {0, 0};
          return client.prefetch_remaining(ref);
        });
    EXPECT_EQ(replay.deployments, 2u);
    leg.prefetched_files = replay.prefetched_files;
    leg.wire_bytes = transport.server_stats().bytes_out.load();
    return leg;
  };

  LegResult path = run(PrefetchOrder::kPath);
  LegResult delta_leg = run(PrefetchOrder::kDelta);

  ASSERT_GE(path.first_delta_arrival, 0.0);
  ASSERT_GE(delta_leg.first_delta_arrival, 0.0);
  EXPECT_LT(delta_leg.first_delta_arrival, path.first_delta_arrival);
  // Ordering is free: both legs moved the same bytes and file count.
  EXPECT_EQ(delta_leg.wire_bytes, path.wire_bytes);
  EXPECT_EQ(delta_leg.prefetched_files, path.prefetched_files);
  EXPECT_GT(delta_leg.prefetched_files, 0u);
}

// ------------------------------------------------ concurrency (TSAN)

TEST_F(TwoVersionFixture, ConcurrentPrefetchManyClientsOneRemote) {
  // One remote registry stub shared by several clients prefetching on their
  // own threads — the documented concurrent-batch-downloader contract.
  net::LoopbackTransport transport(gear_registry);  // no link: shared
  net::RemoteGearRegistry remote(transport, 3, false);

  constexpr int kClients = 4;
  std::vector<std::unique_ptr<ClientRig>> rigs;
  for (int i = 0; i < kClients; ++i) {
    rigs.push_back(std::make_unique<ClientRig>(docker_registry, remote));
    rigs.back()->client.set_download_batch_files(4);
    rigs.back()->client.set_prefetch_order(i % 2 == 0 ? PrefetchOrder::kDelta
                                                      : PrefetchOrder::kPath);
    rigs.back()->client.pull("app:v1");
    rigs.back()->client.pull("app:v2");
  }

  std::vector<std::thread> threads;
  std::vector<std::pair<std::size_t, std::uint64_t>> moved(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      moved[static_cast<std::size_t>(i)] =
          rigs[static_cast<std::size_t>(i)]->client.prefetch_remaining(
              "app:v2");
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& [files, bytes] : moved) {
    EXPECT_EQ(files, 30u);
    EXPECT_GT(bytes, 0u);
  }
}

TEST_F(TwoVersionFixture, ConcurrentPrefetchOverlapsViewerFaults) {
  // One client: a prefetch of app:v2 races on-demand viewer faults against
  // app:v1 — shared cache, link/disk accounting, and profile recording all
  // run concurrently behind the client's locks.
  ClientRig rig(docker_registry, gear_registry);
  rig.client.set_download_batch_files(4);
  rig.client.pull("app:v1");
  rig.client.pull("app:v2");
  std::string container = rig.client.store().create_container("app:v1");
  GearFileViewer viewer = rig.client.open_viewer(container);

  std::pair<std::size_t, std::uint64_t> moved;
  std::thread prefetcher(
      [&] { moved = rig.client.prefetch_remaining("app:v2"); });
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(viewer.read_file("a/f" + std::to_string(i)).value().size(),
              3000u);
  }
  prefetcher.join();
  EXPECT_GT(moved.first, 0u);
  // Everything v2 references is now cache-resident.
  std::size_t missing = 0;
  rig.client.store().index_tree("app:v2").walk(
      [&](const std::string&, const vfs::FileNode& node) {
        if (node.is_fingerprint() &&
            !rig.client.store().cache().contains(node.fingerprint())) {
          ++missing;
        }
      });
  EXPECT_EQ(missing, 0u);
}

}  // namespace
}  // namespace gear
