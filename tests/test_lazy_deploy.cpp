// Lazy deploy (DeployMode::kLazy): start-before-warm containers.
//
// Covers the client-level guarantees behind gear/client's lazy mode:
//  * deploy returns at readiness with zero file bytes moved; demand faults
//    through the viewer materialize correct content afterwards;
//  * backfill_remaining completes the image byte-identically to an eager
//    deploy, and demand + backfill together never fetch a fingerprint
//    twice (wire identity);
//  * a demand fault issued mid-backfill preempts the drain (the yield is
//    observable and no backfill batch hits the registry while the fault is
//    in flight);
//  * the reader storm: several threads faulting overlapping files while
//    the backfill drains on another thread — run under TSAN in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "docker/client.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

/// One pushed image ("app:v1", ~30 random files) plus the expected
/// path -> content map and a handful of demand paths with distinct,
/// non-empty fingerprints.
struct LazyFixture : ::testing::Test {
  docker::DockerRegistry docker_registry;
  GearRegistry gear_registry;
  std::map<std::string, Bytes> expected;   // regular files of the image
  std::vector<std::string> demand_paths;   // distinct-fingerprint subset

  void SetUp() override {
    vfs::FileTree tree = testing::random_tree(1234, 30);
    docker::ImageBuilder b;
    b.add_snapshot(tree);
    docker::Image image = b.build("app", "v1", docker::ImageConfig{});
    GearImage gi = GearConverter().convert(image).image;
    push_gear_image(gi, docker_registry, gear_registry);

    std::set<Fingerprint> seen;
    gi.index.tree().walk([&](const std::string& path,
                             const vfs::FileNode& node) {
      if (!node.is_fingerprint()) return;
      if (node.stub_size() > 0 && seen.insert(node.fingerprint()).second &&
          demand_paths.size() < 5) {
        demand_paths.push_back(path);
      }
    });
    tree.walk([&](const std::string& path, const vfs::FileNode& node) {
      if (node.is_regular()) expected[path] = node.content();
    });
    ASSERT_EQ(demand_paths.size(), 5u);
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

/// path -> content of the image index; counts leftover stubs.
std::map<std::string, Bytes> index_contents(GearClient& client,
                                            const std::string& reference,
                                            std::size_t* stubs) {
  std::map<std::string, Bytes> out;
  client.store().index_tree(reference).walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        if (node.is_fingerprint()) ++*stubs;
        if (node.is_regular()) out[path] = node.content();
      });
  return out;
}

TEST_F(LazyFixture, ReadyImmediatelyThenFaultsMaterialize) {
  ClientRig eager(docker_registry, gear_registry);
  workload::AccessSet all;
  for (const auto& [path, content] : expected) {
    all.files.push_back({path, content.size(), {}});
  }
  docker::DeployStats eager_stats = eager.client.deploy("app:v1", all);

  ClientRig lazy(docker_registry, gear_registry);
  std::string container;
  docker::DeployStats stats =
      lazy.client.deploy("app:v1", all, &container, DeployMode::kLazy);
  // Readiness is the index pull + mount + startup: no file content moved,
  // and the window is strictly shorter than the eager replay's.
  EXPECT_EQ(stats.run_bytes_downloaded, 0u);
  EXPECT_EQ(stats.prefetched_files, 0u);
  EXPECT_GT(stats.pull.bytes_downloaded, 0u);
  EXPECT_LT(stats.ready_seconds, eager_stats.run_seconds);
  EXPECT_DOUBLE_EQ(stats.ready_seconds, stats.pull.seconds + stats.run_seconds);

  GearFileViewer viewer = lazy.client.open_viewer(container);
  const std::string& path = demand_paths[0];
  EXPECT_EQ(viewer.read_file(path).value(), expected[path]);
  GearFileViewer::ReadStats rs = viewer.read_stats();
  EXPECT_EQ(rs.reads, 1u);
  EXPECT_EQ(rs.faults, 1u);
  EXPECT_GT(lazy.client.viewer_bytes_downloaded(), 0u);

  // Second read of the same file is a hit — the stub became regular.
  EXPECT_EQ(viewer.read_file(path).value(), expected[path]);
  EXPECT_EQ(viewer.read_stats().hits, 1u);
}

TEST_F(LazyFixture, BackfillCompletesTreeByteIdenticalToEager) {
  ClientRig eager(docker_registry, gear_registry);
  eager.client.pull("app:v1");
  auto [eager_files, eager_bytes] = eager.client.prefetch_remaining("app:v1");
  ASSERT_GT(eager_files, 0u);

  ClientRig lazy(docker_registry, gear_registry);
  std::string container;
  lazy.client.deploy("app:v1", {}, &container, DeployMode::kLazy);
  GearFileViewer viewer = lazy.client.open_viewer(container);
  for (const std::string& path : demand_paths) {
    EXPECT_EQ(viewer.read_file(path).value(), expected[path]);
  }
  auto [backfill_files, backfill_bytes] =
      lazy.client.backfill_remaining("app:v1");

  // Wire identity: the demand lane took the 5 probed fingerprints, the
  // backfill took exactly the rest — nothing moved twice by either lane.
  EXPECT_EQ(backfill_files + demand_paths.size(), eager_files);
  EXPECT_EQ(backfill_bytes + lazy.client.viewer_bytes_downloaded(),
            eager_bytes);

  // Byte identity: both images are fully materialized and equal.
  std::size_t eager_stubs = 0;
  std::size_t lazy_stubs = 0;
  auto a = index_contents(eager.client, "app:v1", &eager_stubs);
  auto b = index_contents(lazy.client, "app:v1", &lazy_stubs);
  EXPECT_EQ(eager_stubs, 0u);
  EXPECT_EQ(lazy_stubs, 0u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, expected);

  // A second backfill is a no-op.
  auto [again_files, again_bytes] = lazy.client.backfill_remaining("app:v1");
  EXPECT_EQ(again_files, 0u);
  EXPECT_EQ(again_bytes, 0u);
}

// Registry wrapper for the preemption probe: gates the demand fetch of one
// fingerprint until released and sequence-stamps demand enter/exit and the
// first backfill batch. The client's demand path fetches through a
// singleton download_batch; backfill batches are never a singleton of the
// probe (the demand flight owns it), so a singleton probe batch IS the
// demand fault.
class GatedRegistry final : public FileRegistryApi {
 public:
  explicit GatedRegistry(FileRegistryApi& inner) : inner_(inner) {}

  void arm(const Fingerprint& fp) { probe_ = fp; }
  void release_demand() {
    {
      std::lock_guard<std::mutex> lock(m_);
      released_ = true;
    }
    cv_.notify_all();
  }
  void wait_demand_started() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return demand_enter_seq_ >= 0; });
  }
  long demand_enter_seq() const { return demand_enter_seq_.load(); }
  long demand_exit_seq() const { return demand_exit_seq_.load(); }
  long first_batch_seq() const { return first_batch_seq_.load(); }

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
    auto* self = const_cast<GatedRegistry*>(this);
    const bool is_probe_fault = fps.size() == 1 && fps[0] == probe_;
    if (is_probe_fault) {
      std::unique_lock<std::mutex> lock(self->m_);
      self->demand_enter_seq_ = self->next_seq();
      self->cv_.notify_all();
      self->cv_.wait(lock, [&] { return self->released_; });
    } else {
      long seq = self->next_seq();
      long expected = -1;
      self->first_batch_seq_.compare_exchange_strong(expected, seq);
    }
    auto got = inner_.download_batch(fps, pool, wire_bytes_out);
    if (is_probe_fault) self->demand_exit_seq_ = self->next_seq();
    return got;
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    return inner_.stored_size(fp);
  }

 private:
  long next_seq() { return seq_.fetch_add(1); }

  FileRegistryApi& inner_;
  Fingerprint probe_;
  mutable std::mutex m_;
  mutable std::condition_variable cv_;
  bool released_ = false;
  std::atomic<long> seq_{0};
  std::atomic<long> demand_enter_seq_{-1};
  std::atomic<long> demand_exit_seq_{-1};
  std::atomic<long> first_batch_seq_{-1};
};

TEST_F(LazyFixture, DemandPreemptsBackfill) {
  GatedRegistry gated(gear_registry);
  ClientRig rig(docker_registry, gated);
  rig.client.set_concurrency(util::Concurrency::serial());
  rig.client.set_download_batch_files(4);

  std::string container;
  rig.client.deploy("app:v1", {}, &container, DeployMode::kLazy);

  Fingerprint probe_fp;
  rig.client.store().index_tree("app:v1").walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        if (path == demand_paths[0]) probe_fp = node.fingerprint();
      });
  gated.arm(probe_fp);

  GearFileViewer viewer = rig.client.open_viewer(container);
  std::thread demand([&] {
    EXPECT_EQ(viewer.read_file(demand_paths[0]).value(),
              expected[demand_paths[0]]);
  });
  gated.wait_demand_started();  // the fault holds the demand lane

  std::thread backfill([&] { rig.client.backfill_remaining("app:v1"); });
  // The drain must park in yield_to_demand before its first wire batch.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rig.client.backfill_yields() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rig.client.backfill_yields(), 1u);
  EXPECT_LT(gated.first_batch_seq(), 0);  // no batch while the fault is live
  gated.release_demand();
  demand.join();
  backfill.join();

  EXPECT_GE(rig.client.demand_fetches(), 1u);
  ASSERT_GE(gated.demand_enter_seq(), 0);
  EXPECT_GT(gated.demand_exit_seq(), gated.demand_enter_seq());
  EXPECT_GT(gated.first_batch_seq(), gated.demand_exit_seq());

  std::size_t stubs = 0;
  EXPECT_EQ(index_contents(rig.client, "app:v1", &stubs), expected);
  EXPECT_EQ(stubs, 0u);
}

TEST_F(LazyFixture, LazyStormConcurrentReadersByteIdenticalToEager) {
  // The full concurrency surface at once: four reader threads faulting
  // overlapping files through viewers of the same image while
  // backfill_remaining drains on a fifth thread. Every read must see the
  // eager bytes and the image must end fully materialized.
  ClientRig rig(docker_registry, gear_registry);
  rig.client.set_download_batch_files(4);
  std::string container;
  rig.client.deploy("app:v1", {}, &container, DeployMode::kLazy);

  std::vector<std::string> paths;
  for (const auto& [path, content] : expected) paths.push_back(path);

  constexpr int kReaders = 4;
  std::mutex open_mutex;  // viewer creation is not part of the race surface
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      GearFileViewer viewer = [&] {
        std::lock_guard<std::mutex> lock(open_mutex);
        return rig.client.open_viewer(container);
      }();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      // Each reader walks the whole file list from a different offset, so
      // every file is contended by all readers and the backfill.
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const std::string& path =
            paths[(i + static_cast<std::size_t>(r) * paths.size() / kReaders) %
                  paths.size()];
        StatusOr<Bytes> got = viewer.read_file(path);
        if (!got.ok() || *got != expected[path]) mismatches.fetch_add(1);
      }
      reads.fetch_add(viewer.read_stats().reads);
    });
  }
  while (ready.load() < kReaders) std::this_thread::yield();
  threads.emplace_back([&] { rig.client.backfill_remaining("app:v1"); });
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  std::size_t stubs = 0;
  EXPECT_EQ(index_contents(rig.client, "app:v1", &stubs), expected);
  EXPECT_EQ(stubs, 0u);
  // Readers raced the backfill, but every read was answered.
  EXPECT_EQ(reads.load(), static_cast<std::uint64_t>(kReaders) * paths.size());
}

}  // namespace
}  // namespace gear
