// Registry fleet: consistent-hash routing, R-way replication, dead-replica
// fallback, join/leave rebalance, and concurrent clients over one fleet.
// The load-bearing claims: fleet deploys are byte-identical to the single-
// registry path, a rebalance moves only the ring-delta objects (zero
// re-upload of anything already resident on its home shard), and shard
// failures degrade to replica fallbacks instead of crashes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/fleet.hpp"
#include "gear/registry.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gear {
namespace {

using net::DownTransport;
using net::LoopbackTransport;
using net::RemoteGearRegistry;

Fingerprint fp_of(const Bytes& content) {
  return default_hasher().fingerprint(content);
}

std::vector<Bytes> make_contents(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(rng.next_bytes(rng.next_range(16, 2048), 0.5));
  }
  return out;
}

// ---- HashRing -------------------------------------------------------------

TEST(HashRing, DeterministicBalancedAndDistinctReplicas) {
  HashRing a, b;
  for (std::size_t s = 0; s < 4; ++s) {
    a.add_shard(s, 64);
    b.add_shard(3 - s, 64);  // reverse insertion order: same ring
  }
  auto contents = make_contents(2000, 11);
  std::vector<std::size_t> primary_count(4, 0);
  for (const auto& c : contents) {
    Fingerprint fp = fp_of(c);
    auto ra = a.replicas(fp, 2);
    EXPECT_EQ(ra, b.replicas(fp, 2));
    ASSERT_EQ(ra.size(), 2u);
    EXPECT_NE(ra[0], ra[1]);
    ++primary_count[ra[0]];
  }
  // Virtual nodes keep the spread sane: no shard owns less than 10% or
  // more than half of the keyspace.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(primary_count[s], 200u) << "shard " << s;
    EXPECT_LT(primary_count[s], 1000u) << "shard " << s;
  }
}

TEST(HashRing, JoinRemapsOnlyToTheNewShard) {
  HashRing before;
  for (std::size_t s = 0; s < 3; ++s) before.add_shard(s, 64);
  HashRing after = before;
  after.add_shard(3, 64);

  std::size_t moved = 0;
  for (const auto& c : make_contents(600, 12)) {
    Fingerprint fp = fp_of(c);
    auto old_reps = before.replicas(fp, 2);
    auto new_reps = after.replicas(fp, 2);
    // Consistent hashing invariant: membership may only change by gaining
    // the new shard — no object moves between pre-existing shards.
    for (std::size_t r : new_reps) {
      bool was_replica =
          std::find(old_reps.begin(), old_reps.end(), r) != old_reps.end();
      EXPECT_TRUE(was_replica || r == 3);
    }
    if (std::find(new_reps.begin(), new_reps.end(), 3) != new_reps.end()) {
      ++moved;
    }
  }
  // The new shard takes roughly 1/4 of the (2-replica) keyspace; all that
  // matters here is that the delta is a strict, non-empty subset.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, 600u);
}

// ---- fixture --------------------------------------------------------------

struct FleetFixture : ::testing::Test {
  sim::SimClock clock;
  sim::NetworkLink link{clock, 904.0, 0.0005, 0.0003};
  sim::DiskModel disk{clock, 0.0001, 500.0, 480.0};
  docker::DockerRegistry docker_registry;

  docker::Image original;
  GearImage gear_image;
  workload::AccessSet access;

  void SetUp() override {
    vfs::FileTree s0 = gear::testing::random_tree(900, 30, 6000);
    vfs::FileTree s1 = gear::testing::mutate_tree(s0, 901, 10);
    docker::ImageBuilder b;
    b.add_snapshot(s0).add_snapshot(s1);
    original = b.build("app", "v1", docker::ImageConfig{});
    gear_image = GearConverter().convert(original).image;
    access = workload::derive_access_set(
        original.flatten(), workload::AccessProfile{0.3, 0.8, 7, 1});
    ASSERT_FALSE(access.files.empty());
  }

  /// Deploys `reference` through `registry` on a fresh client stack and
  /// returns every accessed file's bytes in access order.
  std::vector<Bytes> deploy_and_read(FileRegistryApi& registry,
                                     const std::string& reference) {
    sim::SimClock c2;
    sim::NetworkLink l2{c2, 904.0, 0.0005, 0.0003};
    sim::DiskModel d2{c2, 0.0001, 500.0, 480.0};
    GearClient client(docker_registry, registry, l2, d2);
    std::string container;
    client.deploy(reference, access, &container);
    client.prefetch_remaining(reference);
    GearFileViewer v = client.open_viewer(container);
    std::vector<Bytes> out;
    for (const auto& fa : access.files) {
      out.push_back(v.read_file(fa.path).value());
    }
    return out;
  }
};

// ---- parity ---------------------------------------------------------------

TEST_F(FleetFixture, FleetDeployByteIdenticalToSingleRegistry) {
  GearRegistry single;
  push_gear_image(gear_image, docker_registry, single);
  std::vector<Bytes> want = deploy_and_read(single, "app:v1");

  for (std::size_t shard_count : {1u, 4u}) {
    for (std::size_t replicas : {1u, 2u}) {
      std::vector<std::unique_ptr<GearRegistry>> shards;
      std::vector<FileRegistryApi*> apis;
      for (std::size_t i = 0; i < shard_count; ++i) {
        shards.push_back(std::make_unique<GearRegistry>());
        apis.push_back(shards.back().get());
      }
      FleetRegistry fleet(apis, FleetRegistry::Options{replicas, 64, 2});
      push_gear_image(gear_image, docker_registry, fleet);
      EXPECT_EQ(deploy_and_read(fleet, "app:v1"), want)
          << shard_count << " shards, R=" << replicas;

      // Dedup parity: summed home-shard accepts equal the single registry's
      // (replication tails land as replica_items, not extra home stores).
      std::uint64_t accepted = 0;
      for (const auto& s : shards) accepted += s->stats().uploads_accepted;
      std::uint64_t extra = 0;
      for (std::size_t i = 0; i < shard_count; ++i) {
        extra += fleet.shard_stats(i).replica_items;
      }
      EXPECT_GE(accepted, single.stats().uploads_accepted.load());
      if (replicas == 1) {
        EXPECT_EQ(accepted, single.stats().uploads_accepted.load());
        EXPECT_EQ(extra, 0u);
      }
    }
  }
}

TEST_F(FleetFixture, BatchCallsSplitPerShardInOneRoundTripEach) {
  constexpr std::size_t kShards = 4;
  std::vector<std::unique_ptr<GearRegistry>> regs;
  std::vector<std::unique_ptr<LoopbackTransport>> transports;
  std::vector<std::unique_ptr<RemoteGearRegistry>> stubs;
  std::vector<FileRegistryApi*> apis;
  for (std::size_t i = 0; i < kShards; ++i) {
    regs.push_back(std::make_unique<GearRegistry>());
    transports.push_back(std::make_unique<LoopbackTransport>(*regs.back()));
    stubs.push_back(std::make_unique<RemoteGearRegistry>(*transports.back()));
    apis.push_back(stubs.back().get());
  }
  FleetRegistry fleet(apis, FleetRegistry::Options{1, 64, 2});

  auto contents = make_contents(40, 21);
  std::vector<Fingerprint> fps;
  std::vector<std::pair<Fingerprint, Bytes>> items;
  for (const auto& c : contents) {
    fps.push_back(fp_of(c));
    items.emplace_back(fps.back(), compress(c));
  }
  EXPECT_EQ(fleet.upload_precompressed_batch(items), contents.size());

  // One upload round trip per shard touched, not one per item.
  std::size_t shards_touched = 0;
  std::uint64_t upload_items = 0;
  for (const auto& t : transports) {
    if (t->server_stats().upload_round_trips > 0) {
      ++shards_touched;
      EXPECT_EQ(t->server_stats().upload_round_trips, 1u);
    }
    upload_items += t->server_stats().upload_items;
  }
  EXPECT_GT(shards_touched, 1u);
  EXPECT_EQ(upload_items, contents.size());

  // Same split on the download side: max-over-shards, not sum.
  std::uint64_t wire = 0;
  auto got = fleet.download_batch(fps, nullptr, &wire);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(wire, 0u);
  std::uint64_t download_items = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    const auto& st = transports[i]->server_stats();
    EXPECT_LE(st.download_round_trips, 1u);
    download_items += st.download_items;
  }
  EXPECT_EQ(download_items, contents.size());
  for (std::size_t i = 0; i < contents.size(); ++i) {
    EXPECT_EQ(got.value()[i], contents[i]);
  }

  // Routing agrees with the published ring.
  for (std::size_t i = 0; i < fps.size(); ++i) {
    auto reps = fleet.replicas_of(fps[i]);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_TRUE(regs[reps[0]]->query(fps[i]));
  }
}

// ---- failure modes --------------------------------------------------------

/// An in-process shard with an off switch: while down, every per-object
/// read throws kInternal, the way a remote stub over a dead transport does.
/// (The stubs cannot serve stored frames, so the stored-frame reads need an
/// in-process backend.)
class SwitchedRegistry final : public GearRegistry {
 public:
  void set_down(bool down) { down_ = down; }

  StatusOr<Bytes> download_compressed(const Fingerprint& fp) const override {
    check_up();
    return GearRegistry::download_compressed(fp);
  }
  StatusOr<Bytes> download_chunk_compressed(
      const Fingerprint& chunk_fp) const override {
    check_up();
    return GearRegistry::download_chunk_compressed(chunk_fp);
  }
  StatusOr<Bytes> download_range(
      const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
      std::uint64_t* wire_bytes_out = nullptr) const override {
    check_up();
    return GearRegistry::download_range(fp, offset, length, wire_bytes_out);
  }
  StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out = nullptr) const override {
    check_up();
    return GearRegistry::download_chunks(fp, manifest, indices,
                                         wire_bytes_out);
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    check_up();
    return GearRegistry::stored_size(fp);
  }
  bool is_chunked(const Fingerprint& fp) const override {
    check_up();
    return GearRegistry::is_chunked(fp);
  }
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override {
    check_up();
    return GearRegistry::chunk_manifest(fp);
  }

 private:
  void check_up() const {
    if (down_) throw_error(ErrorCode::kInternal, "shard down");
  }

  std::atomic<bool> down_{false};
};

Bytes slice(const Bytes& b, std::size_t offset, std::size_t length) {
  return Bytes(b.begin() + static_cast<std::ptrdiff_t>(offset),
               b.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

struct FleetFailureFixture : ::testing::Test {
  static constexpr std::size_t kShards = 3;
  std::vector<std::unique_ptr<GearRegistry>> regs;
  std::vector<std::unique_ptr<LoopbackTransport>> loopbacks;
  std::vector<std::unique_ptr<DownTransport>> switches;
  std::vector<std::unique_ptr<RemoteGearRegistry>> stubs;
  std::vector<FileRegistryApi*> apis;
  std::unique_ptr<FleetRegistry> fleet;

  // The same topology over in-process shards, for the per-object reads.
  std::vector<std::unique_ptr<SwitchedRegistry>> local;
  std::unique_ptr<FleetRegistry> local_fleet;

  // One plain and one chunked file (5 chunks of 1 KiB), stored through
  // local_fleet by SetUp.
  const ChunkPolicy policy{4096, 1024};
  Bytes plain = make_contents(1, 34)[0];
  Bytes big = Rng(35).next_bytes(5000, 0.4);
  Fingerprint fp_plain = fp_of(plain);
  Fingerprint fp_big = fp_of(big);
  ChunkManifest manifest = build_chunk_manifest(big, policy, default_hasher());

  void SetUp() override {
    std::vector<FileRegistryApi*> local_apis;
    for (std::size_t i = 0; i < kShards; ++i) {
      regs.push_back(std::make_unique<GearRegistry>());
      loopbacks.push_back(std::make_unique<LoopbackTransport>(*regs.back()));
      switches.push_back(std::make_unique<DownTransport>(*loopbacks.back()));
      stubs.push_back(std::make_unique<RemoteGearRegistry>(*switches.back()));
      apis.push_back(stubs.back().get());
      local.push_back(std::make_unique<SwitchedRegistry>());
      local_apis.push_back(local.back().get());
    }
    fleet = std::make_unique<FleetRegistry>(
        apis, FleetRegistry::Options{/*replicas=*/2, 64, 2});
    local_fleet = std::make_unique<FleetRegistry>(
        local_apis, FleetRegistry::Options{/*replicas=*/2, 64, 2});
    local_fleet->upload(fp_plain, plain);
    local_fleet->upload_chunked(fp_big, big, policy);
  }

  /// Compressed size of chunks [first, last] of `big`: what a chunk read
  /// bills as wire bytes.
  std::uint64_t chunk_wire(std::size_t first, std::size_t last) const {
    std::uint64_t total = 0;
    for (std::size_t c = first; c <= last; ++c) {
      total += compress(chunk_view(big, manifest, c)).size();
    }
    return total;
  }

  std::uint64_t fallbacks() const {
    return local_fleet->stats().replica_fallbacks.load();
  }
};

TEST_F(FleetFailureFixture, DeadReplicaFallbackReturnsIdenticalBytes) {
  auto contents = make_contents(12, 31);
  std::vector<Fingerprint> fps;
  for (const auto& c : contents) {
    fps.push_back(fp_of(c));
    fleet->upload(fps.back(), c);
  }
  // Kill the home shard of fps[0]; its backup must answer, byte-identical.
  std::size_t home = fleet->replicas_of(fps[0])[0];
  switches[home]->set_down(true);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    auto got = fleet->download(fps[i]);
    ASSERT_TRUE(got.ok()) << got.message();
    EXPECT_EQ(got.value(), contents[i]);
  }
  // A single download is a batch of one: each file homed on the dead shard
  // is served by its backup and counts one fallback.
  std::uint64_t homed = 0;
  for (const auto& fp : fps) homed += fleet->replicas_of(fp)[0] == home;
  EXPECT_EQ(fleet->stats().replica_fallbacks.load(), homed);
  // The batched path survives the same outage.
  auto batch = fleet->download_batch(fps);
  ASSERT_TRUE(batch.ok()) << batch.message();
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(batch.value()[i], contents[i]);
  }
  // Existence checks OR over replicas and never count a fallback.
  EXPECT_TRUE(fleet->query(fps[0]));
  EXPECT_EQ(fleet->stats().replica_fallbacks.load(), 2 * homed);
}

TEST_F(FleetFailureFixture, AllReplicasDownSurfacesCleanError) {
  Bytes content = make_contents(1, 32)[0];
  Fingerprint fp = fp_of(content);
  fleet->upload(fp, content);
  for (auto& s : switches) s->set_down(true);

  auto got = fleet->download(fp);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), ErrorCode::kInternal);
  auto batch = fleet->download_batch({fp});
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.message().find("all replicas"), std::string::npos);
  EXPECT_THROW((void)fleet->query(fp), Error);
  EXPECT_THROW((void)fleet->upload(fp, content), Error);

  // Recovery: the fleet serves again as soon as one replica returns.
  switches[fleet->replicas_of(fp)[1]]->set_down(false);
  auto again = fleet->download(fp);
  ASSERT_TRUE(again.ok()) << again.message();
  EXPECT_EQ(again.value(), content);
}

TEST_F(FleetFailureFixture, UploadWithHomeShardDownFallsForward) {
  auto contents = make_contents(10, 33);
  std::vector<std::pair<Fingerprint, Bytes>> items;
  std::vector<Fingerprint> fps;
  for (const auto& c : contents) {
    fps.push_back(fp_of(c));
    items.emplace_back(fps.back(), compress(c));
  }
  // Down the home of the first item, then batch-upload everything: the
  // write lands on a backup instead of failing.
  std::size_t home = fleet->replicas_of(fps[0])[0];
  switches[home]->set_down(true);
  fleet->upload_precompressed_batch(items);
  switches[home]->set_down(false);
  std::uint64_t homed = 0;
  for (const auto& fp : fps) homed += fleet->replicas_of(fp)[0] == home;
  EXPECT_EQ(fleet->stats().replica_fallbacks.load(), homed);  // one per write

  // The revived home missed the upload; reads fall through to the replica
  // that accepted it and still return identical bytes. The home's miss is
  // not a throw, but the backup's answer still counts one fallback read.
  for (std::size_t i = 0; i < fps.size(); ++i) {
    auto got = fleet->download(fps[i]);
    ASSERT_TRUE(got.ok()) << got.message();
    EXPECT_EQ(got.value(), contents[i]);
  }
  EXPECT_TRUE(fleet->query(fps[0]));
  EXPECT_EQ(fleet->stats().replica_fallbacks.load(), 2 * homed);
}

TEST_F(FleetFailureFixture, PerObjectReadsFallBackPastADeadHome) {
  ASSERT_EQ(manifest.chunks.size(), 5u);
  const std::size_t home_plain = local_fleet->replicas_of(fp_plain)[0];
  local[home_plain]->set_down(true);
  std::uint64_t before = fallbacks();
  EXPECT_EQ(local_fleet->download_compressed(fp_plain).value(),
            compress(plain));
  EXPECT_EQ(fallbacks(), before + 1);
  // stored_size bills no routed items, so its fallback is not counted.
  EXPECT_EQ(local_fleet->stored_size(fp_plain).value(),
            compress(plain).size());
  EXPECT_EQ(fallbacks(), before + 1);
  local[home_plain]->set_down(false);

  const std::size_t home_big = local_fleet->replicas_of(fp_big)[0];
  local[home_big]->set_down(true);
  before = fallbacks();
  EXPECT_TRUE(local_fleet->is_chunked(fp_big));
  EXPECT_EQ(local_fleet->chunk_manifest(fp_big).value(), manifest);
  EXPECT_EQ(fallbacks(), before);
  std::uint64_t wire = 0;
  EXPECT_EQ(local_fleet->download_range(fp_big, 1500, 2000, &wire).value(),
            slice(big, 1500, 2000));
  EXPECT_EQ(wire, chunk_wire(1, 3));  // chunks 1..3 cover [1500, 3500)
  EXPECT_EQ(fallbacks(), before + 1);
  auto chunks = local_fleet->download_chunks(fp_big, manifest, {0, 4}, &wire);
  ASSERT_TRUE(chunks.ok()) << chunks.message();
  EXPECT_EQ(chunks.value()[0], slice(big, 0, 1024));
  EXPECT_EQ(chunks.value()[1], slice(big, 4096, 904));
  EXPECT_EQ(wire, chunk_wire(0, 0) + chunk_wire(4, 4));
  EXPECT_EQ(fallbacks(), before + 3);  // one per chunk served
  local[home_big]->set_down(false);

  // A chunk fingerprint names no home: the read walks every shard from
  // the chunk's own ring point. Down the first shard of that walk.
  HashRing ring;
  for (std::size_t s = 0; s < kShards; ++s) ring.add_shard(s, 64);
  const Fingerprint& chunk_fp = manifest.chunks[2];
  local[ring.replicas(chunk_fp, kShards)[0]]->set_down(true);
  before = fallbacks();
  EXPECT_EQ(local_fleet->download_chunk_compressed(chunk_fp).value(),
            compress(chunk_view(big, manifest, 2)));
  EXPECT_EQ(fallbacks(), before + 1);
}

TEST_F(FleetFailureFixture, PerObjectReadsWithEveryShardDownFailInternal) {
  for (auto& shard : local) shard->set_down(true);
  const FleetStats& st = local_fleet->stats();
  const std::uint64_t failed_before = st.failed_shard_calls.load();
  const std::uint64_t fallbacks_before = fallbacks();

  EXPECT_EQ(local_fleet->download_compressed(fp_plain).code(),
            ErrorCode::kInternal);
  EXPECT_EQ(local_fleet->download_chunk_compressed(manifest.chunks[0]).code(),
            ErrorCode::kInternal);
  EXPECT_EQ(local_fleet->download_range(fp_big, 0, 10).code(),
            ErrorCode::kInternal);
  EXPECT_EQ(local_fleet->download_chunks(fp_big, manifest, {0}).code(),
            ErrorCode::kInternal);
  EXPECT_EQ(local_fleet->stored_size(fp_plain).code(), ErrorCode::kInternal);
  EXPECT_EQ(local_fleet->chunk_manifest(fp_big).code(), ErrorCode::kInternal);
  try {
    (void)local_fleet->is_chunked(fp_big);
    ADD_FAILURE() << "is_chunked answered with every shard down";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
  // Every replica was tried once per read: 2 for each file read, all 3
  // shards for the chunk object. Nothing answered, so nothing fell back.
  EXPECT_EQ(st.failed_shard_calls.load(), failed_before + 6 * 2 + kShards);
  EXPECT_EQ(fallbacks(), fallbacks_before);
}

TEST_F(FleetFailureFixture, OutOfRangeReadIsAnAnswerNotAFallback) {
  const FleetStats& st = local_fleet->stats();
  // Home up: the home's kInvalidArgument ends the walk after one call.
  std::uint64_t calls = st.shard_calls.load();
  EXPECT_EQ(local_fleet->download_range(fp_plain, plain.size(), 1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(st.shard_calls.load(), calls + 1);

  // Home down: the first live replica answers; no fallback is billed.
  local[local_fleet->replicas_of(fp_plain)[0]]->set_down(true);
  calls = st.shard_calls.load();
  const std::uint64_t failed = st.failed_shard_calls.load();
  const std::uint64_t before = fallbacks();
  EXPECT_EQ(local_fleet->download_range(fp_plain, plain.size(), 1).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(st.shard_calls.load(), calls + 2);
  EXPECT_EQ(st.failed_shard_calls.load(), failed + 1);
  EXPECT_EQ(fallbacks(), before);
}

// ---- rebalance ------------------------------------------------------------

TEST(FleetRebalance, JoinMovesOnlyRingDeltaAndNeverReuploadsResident) {
  std::vector<std::unique_ptr<GearRegistry>> regs;
  std::vector<FileRegistryApi*> apis;
  for (std::size_t i = 0; i < 2; ++i) {
    regs.push_back(std::make_unique<GearRegistry>());
    apis.push_back(regs.back().get());
  }
  FleetRegistry fleet(apis, FleetRegistry::Options{1, 64, 2});

  auto contents = make_contents(120, 41);
  std::vector<Fingerprint> fps;
  for (const auto& c : contents) {
    fps.push_back(fp_of(c));
    fleet.upload(fps.back(), c);
  }
  // One chunked object rides along to exercise the chunked migration path.
  Rng rng(42);
  Bytes big = rng.next_bytes(512 * 1024, 0.4);
  Fingerprint big_fp = fp_of(big);
  ChunkPolicy policy{64 * 1024, 128 * 1024};
  fleet.upload_chunked(big_fp, big, policy);

  std::uint64_t accepted_before[2] = {regs[0]->stats().uploads_accepted,
                                      regs[1]->stats().uploads_accepted};

  auto joiner = std::make_unique<GearRegistry>();
  RebalanceReport rep;
  std::size_t id = fleet.add_shard(joiner.get(), &rep);
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(rep.examined, contents.size() + 1);
  EXPECT_EQ(rep.moved_objects + rep.unmoved_objects, rep.examined);
  EXPECT_GT(rep.moved_objects, 0u);
  EXPECT_LT(rep.moved_objects, rep.examined);
  EXPECT_GT(rep.moved_bytes, 0u);

  // Zero re-upload: the pre-existing shards accept nothing during the
  // rebalance; only the joiner stores objects, and exactly the delta.
  EXPECT_EQ(regs[0]->stats().uploads_accepted.load(), accepted_before[0]);
  EXPECT_EQ(regs[1]->stats().uploads_accepted.load(), accepted_before[1]);
  EXPECT_GT(joiner->stats().uploads_accepted.load(), 0u);

  // The moved set IS the ring delta: everything whose new home is the
  // joiner lives there; everything else was untouched.
  std::size_t delta = 0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    bool on_joiner = fleet.replicas_of(fps[i])[0] == id;
    delta += on_joiner ? 1 : 0;
    EXPECT_EQ(joiner->query(fps[i]), on_joiner);
    auto got = fleet.download(fps[i]);
    ASSERT_TRUE(got.ok()) << got.message();
    EXPECT_EQ(got.value(), contents[i]);
  }
  if (fleet.replicas_of(big_fp)[0] == id) ++delta;
  EXPECT_EQ(rep.moved_objects, delta);
  // The chunked file survives whichever side of the delta it landed on.
  auto whole = fleet.download(big_fp);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value(), big);
  EXPECT_TRUE(fleet.is_chunked(big_fp));
  auto range = fleet.download_range(big_fp, 130000, 40000);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), Bytes(big.begin() + 130000,
                                 big.begin() + 130000 + 40000));
}

TEST(FleetRebalance, GracefulLeaveKeepsEveryObjectReadable) {
  std::vector<std::unique_ptr<GearRegistry>> regs;
  std::vector<FileRegistryApi*> apis;
  for (std::size_t i = 0; i < 3; ++i) {
    regs.push_back(std::make_unique<GearRegistry>());
    apis.push_back(regs.back().get());
  }
  FleetRegistry fleet(apis, FleetRegistry::Options{1, 64, 2});
  auto contents = make_contents(90, 51);
  std::vector<Fingerprint> fps;
  for (const auto& c : contents) {
    fps.push_back(fp_of(c));
    fleet.upload(fps.back(), c);
  }
  RebalanceReport rep = fleet.remove_shard(1);
  EXPECT_EQ(fleet.shard_count(), 2u);
  EXPECT_EQ(rep.examined, contents.size());
  EXPECT_EQ(rep.moved_objects + rep.unmoved_objects, rep.examined);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    auto reps = fleet.replicas_of(fps[i]);
    ASSERT_EQ(reps.size(), 1u);
    EXPECT_NE(reps[0], 1u);  // nothing routes to the departed shard
    auto got = fleet.download(fps[i]);
    ASSERT_TRUE(got.ok()) << got.message();
    EXPECT_EQ(got.value(), contents[i]);
  }
  EXPECT_THROW((void)fleet.remove_shard(1), Error);  // already gone
}

// ---- concurrency (runs under TSAN in CI) ----------------------------------

TEST(ConcurrentFleet, ManyClientsShareOneFleet) {
  std::vector<std::unique_ptr<GearRegistry>> regs;
  std::vector<FileRegistryApi*> apis;
  for (std::size_t i = 0; i < 4; ++i) {
    regs.push_back(std::make_unique<GearRegistry>());
    apis.push_back(regs.back().get());
  }
  FleetRegistry fleet(apis, FleetRegistry::Options{2, 64, 2});

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kObjectsPerClient = 24;
  std::vector<std::vector<Bytes>> contents(kClients);
  std::vector<std::vector<Fingerprint>> fps(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    contents[c] = make_contents(kObjectsPerClient, 60 + c);
    for (const auto& b : contents[c]) fps[c].push_back(fp_of(b));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        std::vector<std::pair<Fingerprint, Bytes>> items;
        for (std::size_t i = 0; i < kObjectsPerClient; ++i) {
          items.emplace_back(fps[c][i], compress(contents[c][i]));
        }
        fleet.upload_precompressed_batch(std::move(items));
        for (int round = 0; round < 3; ++round) {
          auto got = fleet.download_batch(fps[c]);
          if (!got.ok()) {
            ++failures;
            return;
          }
          for (std::size_t i = 0; i < kObjectsPerClient; ++i) {
            if (got.value()[i] != contents[c][i]) ++failures;
          }
          auto q = fleet.query_many(fps[c]);
          for (std::uint8_t hit : q) {
            if (!hit) ++failures;
          }
        }
      } catch (const Error&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every object is on exactly its R ring replicas.
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < kObjectsPerClient; ++i) {
      auto reps = fleet.replicas_of(fps[c][i]);
      ASSERT_EQ(reps.size(), 2u);
      for (std::size_t r : reps) EXPECT_TRUE(regs[r]->query(fps[c][i]));
    }
  }
}

TEST(ConcurrentFleet, JoinMidWorkloadRebalancesOnlyDeltaUnderReads) {
  std::vector<std::unique_ptr<GearRegistry>> regs;
  std::vector<FileRegistryApi*> apis;
  for (std::size_t i = 0; i < 2; ++i) {
    regs.push_back(std::make_unique<GearRegistry>());
    apis.push_back(regs.back().get());
  }
  FleetRegistry fleet(apis, FleetRegistry::Options{1, 64, 2});
  auto contents = make_contents(80, 71);
  std::vector<Fingerprint> fps;
  for (const auto& c : contents) {
    fps.push_back(fp_of(c));
    fleet.upload(fps.back(), c);
  }
  std::uint64_t accepted_before[2] = {regs[0]->stats().uploads_accepted,
                                      regs[1]->stats().uploads_accepted};

  // Readers hammer the fleet while a shard joins; every read must return
  // correct bytes whether it raced the old or the new ring.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto got = fleet.download_batch(fps);
        if (!got.ok()) {
          ++failures;
          continue;
        }
        for (std::size_t i = 0; i < fps.size(); ++i) {
          if (got.value()[i] != contents[i]) ++failures;
        }
      }
    });
  }
  auto joiner = std::make_unique<GearRegistry>();
  RebalanceReport rep;
  std::size_t id = fleet.add_shard(joiner.get(), &rep);
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rep.moved_objects + rep.unmoved_objects, rep.examined);
  // Delta-only under load: pre-existing shards accepted nothing new.
  EXPECT_EQ(regs[0]->stats().uploads_accepted.load(), accepted_before[0]);
  EXPECT_EQ(regs[1]->stats().uploads_accepted.load(), accepted_before[1]);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(joiner->query(fps[i]), fleet.replicas_of(fps[i])[0] == id);
    auto got = fleet.download(fps[i]);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), contents[i]);
  }
}

}  // namespace
}  // namespace gear
