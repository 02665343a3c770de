// Tests for the disk-backed LocalRuntime: real-filesystem deployment
// semantics, persistence across reopen, and differential equivalence with
// the in-memory client path.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <tuple>

#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/local_runtime.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

struct LocalRuntimeFixture : ::testing::Test {
  fs::path root;
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  docker::Image image;
  vfs::FileTree flat;

  void SetUp() override {
    root = fs::path(::testing::TempDir()) /
           ("gear_runtime_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root);

    vfs::FileTree t = gear::testing::random_tree(6000, 20, 4096);
    docker::ImageBuilder b;
    b.add_snapshot(t);
    image = b.build("app", "v1", {});
    flat = image.flatten();
    push_gear_image(GearConverter().convert(image).image, index_registry,
                    file_registry);
  }

  void TearDown() override { fs::remove_all(root); }
};

TEST_F(LocalRuntimeFixture, PullLaunchReadRoundTrip) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  EXPECT_TRUE(runtime.has_image("app:v1"));
  std::string container = runtime.launch("app:v1");

  int checked = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular()) {
      EXPECT_EQ(runtime.read(container, path).value(), node.content()) << path;
      ++checked;
    } else if (node.is_symlink()) {
      EXPECT_EQ(runtime.read_symlink(container, path).value(),
                node.link_target());
    }
  });
  EXPECT_GT(checked, 0);
  // Files were hard-linked into the image directory: nlink 2.
  const vfs::FileNode* some = nullptr;
  std::string some_path;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && some == nullptr) {
      some = &node;
      some_path = path;
    }
  });
  Fingerprint fp = default_hasher().fingerprint(some->content());
  EXPECT_EQ(runtime.store().link_count(fp), 2u);
  EXPECT_TRUE(runtime.store().read_materialized("app:v1", some_path).ok());
}

TEST_F(LocalRuntimeFixture, WritesPersistAcrossReopen) {
  std::string container;
  {
    LocalRuntime runtime(index_registry, file_registry, root);
    runtime.pull("app:v1");
    container = runtime.launch("app:v1");
    runtime.write(container, "srv/state.db", to_bytes("dirty-state"));
  }
  {
    // A new process reopening the same root resumes the same container:
    // the ref file and diff tree are recovered from disk.
    LocalRuntime runtime(index_registry, file_registry, root);
    EXPECT_TRUE(runtime.has_image("app:v1"));
    EXPECT_EQ(to_string(runtime.read(container, "srv/state.db").value()),
              "dirty-state");
    // New launches never reuse on-disk ids.
    std::string c2 = runtime.launch("app:v1");
    EXPECT_NE(c2, container);
  }
}

TEST_F(LocalRuntimeFixture, WriteMasksAndRemoveWhiteouts) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");

  // Overwrite an image file: diff copy wins; a sibling container is clean.
  std::string victim;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && victim.empty()) victim = path;
  });
  runtime.write(container, victim, to_bytes("patched"));
  EXPECT_EQ(to_string(runtime.read(container, victim).value()), "patched");

  std::string sibling = runtime.launch("app:v1");
  EXPECT_EQ(runtime.read(sibling, victim).value(),
            flat.lookup(victim)->content());

  // Remove: masked for this container only.
  EXPECT_TRUE(runtime.remove_path(container, victim));
  EXPECT_FALSE(runtime.read(container, victim).ok());
  EXPECT_TRUE(runtime.read(sibling, victim).ok());
}

TEST_F(LocalRuntimeFixture, CommitProducesDeployableImage) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");
  runtime.write(container, "app/patch.txt", to_bytes("hotfix"));
  std::string ref = runtime.commit(container, "app", "v1-patched");
  EXPECT_EQ(ref, "app:v1-patched");

  runtime.pull(ref);
  std::string c2 = runtime.launch(ref);
  EXPECT_EQ(to_string(runtime.read(c2, "app/patch.txt").value()), "hotfix");
  // Original content still resolves through the new index.
  int checked = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && checked < 5) {
      EXPECT_EQ(runtime.read(c2, path).value(), node.content()) << path;
      ++checked;
    }
  });
}

TEST_F(LocalRuntimeFixture, ManyPathsReadThroughOneView) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");

  std::vector<std::string> paths;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular()) paths.push_back(path);
  });
  ASSERT_GT(paths.size(), 1u);
  paths.push_back("no/such/file");
  std::vector<StatusOr<Bytes>> got = runtime.read(container, paths);
  ASSERT_EQ(got.size(), paths.size());
  for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
    EXPECT_EQ(got[i].value(), flat.lookup(paths[i])->content()) << paths[i];
  }
  EXPECT_EQ(got.back().code(), ErrorCode::kNotFound);

  runtime.destroy(container);
  for (const StatusOr<Bytes>& r : runtime.read(container, paths)) {
    EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  }
}

TEST_F(LocalRuntimeFixture, FirstTouchesFeedThePersistedProfile) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");
  std::vector<std::string> paths;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular() && paths.size() < 3) paths.push_back(path);
  });
  ASSERT_EQ(paths.size(), 3u);

  // Two first touches in one call, one in another, then a re-read of an
  // already materialized file, which is no first touch.
  runtime.read(container, std::vector<std::string>{paths[0], paths[1]});
  ASSERT_TRUE(runtime.read(container, paths[2]).ok());
  ASSERT_TRUE(runtime.read(container, paths[0]).ok());
  ImageAccessProfile profile =
      ImageAccessProfile::parse(
          runtime.store().load_access_profile("app:v1").value())
          .value();
  EXPECT_EQ(profile.distinct_paths(), 3u);
  for (const std::string& path : paths) {
    EXPECT_EQ(profile.touches(path), 1u) << path;
  }
}

TEST_F(LocalRuntimeFixture, DestroyKeepsImageLaunchable) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string container = runtime.launch("app:v1");
  runtime.destroy(container);
  EXPECT_FALSE(runtime.read(container, "anything").ok());
  EXPECT_NO_THROW(runtime.launch("app:v1"));
}

TEST_F(LocalRuntimeFixture, PrefetchLinksEveryStubToItsCacheInode) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  runtime.prefetch("app:v1");
  // An entry carries one link per path naming it (empty files share one).
  std::map<Fingerprint, nlink_t> paths_of;
  flat.walk([&](const std::string&, const vfs::FileNode& node) {
    if (node.is_regular()) {
      ++paths_of[default_hasher().fingerprint(node.content())];
    }
  });
  int checked = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_regular()) return;
    const Fingerprint fp = default_hasher().fingerprint(node.content());
    struct stat linked {}, cached {};
    ASSERT_EQ(::stat((root / "images/app_v1/files" / path).c_str(), &linked),
              0)
        << path;
    ASSERT_EQ(::stat((root / "cache" / fp.hex()).c_str(), &cached), 0);
    EXPECT_EQ(linked.st_ino, cached.st_ino) << path;
    EXPECT_EQ(linked.st_nlink, 1 + paths_of[fp]) << path;
    ++checked;
  });
  EXPECT_EQ(checked, 20);
}

TEST_F(LocalRuntimeFixture, SecondPrefetchOfAMaterializedImageChangesNothing) {
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  runtime.prefetch("app:v1");
  // Every path under the store with its inode, link count and change time:
  // a link made or removed anywhere shows in one of them.
  auto snapshot = [&] {
    std::map<std::string, std::tuple<ino_t, nlink_t, long, long>> out;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      struct stat st {};
      EXPECT_EQ(::lstat(entry.path().c_str(), &st), 0);
      out[entry.path().string()] = {st.st_ino, st.st_nlink, st.st_ctim.tv_sec,
                                    st.st_ctim.tv_nsec};
    }
    return out;
  };
  const auto before = snapshot();
  EXPECT_EQ(runtime.prefetch("app:v1"),
            (std::pair<std::size_t, std::uint64_t>{0, 0}));
  EXPECT_EQ(runtime.store().link_stubs(
                "app:v1", runtime.store().load_index("app:v1").tree()),
            0u);
  EXPECT_EQ(snapshot(), before);
}

TEST_F(LocalRuntimeFixture, PullRejectsClassicImage) {
  index_registry.push_image(image);  // overwrite with classic manifest
  LocalRuntime runtime(index_registry, file_registry, root);
  EXPECT_THROW(runtime.pull("app:v1"), Error);
}

TEST_F(LocalRuntimeFixture, DifferentialWithSimClient) {
  // The same operation sequence through the disk runtime and the in-memory
  // client yields identical file views.
  LocalRuntime runtime(index_registry, file_registry, root);
  runtime.pull("app:v1");
  std::string disk_container = runtime.launch("app:v1");

  sim::SimClock clock;
  sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
  sim::DiskModel disk = sim::DiskModel::ssd(clock);
  GearClient client(index_registry, file_registry, link, disk);
  client.pull("app:v1");
  std::string mem_container = client.store().create_container("app:v1");
  GearFileViewer viewer = client.open_viewer(mem_container);

  Rng rng(6100);
  std::vector<std::string> paths;
  flat.walk([&paths](const std::string& p, const vfs::FileNode& n) {
    if (n.is_regular()) paths.push_back(p);
  });
  for (int op = 0; op < 40; ++op) {
    const std::string& target = paths[rng.next_below(paths.size())];
    double roll = rng.next_double();
    if (roll < 0.5) {
      StatusOr<Bytes> a = runtime.read(disk_container, target);
      StatusOr<Bytes> b = viewer.read_file(target);
      ASSERT_EQ(a.ok(), b.ok()) << target;
      if (a.ok()) {
        EXPECT_EQ(*a, *b) << target;
      }
    } else if (roll < 0.8) {
      Bytes content = rng.next_bytes(rng.next_range(1, 128), 0.4);
      runtime.write(disk_container, target, content);
      viewer.write_file(target, content);
    } else {
      EXPECT_EQ(runtime.remove_path(disk_container, target),
                viewer.remove(target))
          << target;
    }
  }
  for (const std::string& p : paths) {
    StatusOr<Bytes> a = runtime.read(disk_container, p);
    StatusOr<Bytes> b = viewer.read_file(p);
    ASSERT_EQ(a.ok(), b.ok()) << p;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << p;
    }
  }
}

// ------------------------------------------------- batched fetches

TEST(BatchSlices, CountLimitCutsEvery64Files) {
  std::vector<BatchSlice> slices =
      batch_slices(std::vector<std::uint64_t>(130, 1), 0);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].begin, 0u);
  EXPECT_EQ(slices[0].end, kMaxBatchFiles);
  EXPECT_EQ(slices[1].begin, 64u);
  EXPECT_EQ(slices[1].end, 128u);
  EXPECT_EQ(slices[2].begin, 128u);
  EXPECT_EQ(slices[2].end, 130u);
  EXPECT_EQ(slices[2].bytes, 2u);
  EXPECT_TRUE(batch_slices({}, 100).empty());
}

TEST(BatchSlices, ByteLimitIsInclusiveAndAnOversizedFileTravelsAlone) {
  // 40 + 30 + 30 fills the 100-byte bound exactly; 50 opens a new slice.
  std::vector<BatchSlice> slices = batch_slices({40, 30, 30, 50, 10}, 100);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].end, 3u);
  EXPECT_EQ(slices[0].bytes, 100u);
  EXPECT_EQ(slices[1].begin, 3u);
  EXPECT_EQ(slices[1].bytes, 60u);

  slices = batch_slices({10, 500, 20}, 100);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[1].begin, 1u);
  EXPECT_EQ(slices[1].end, 2u);
  EXPECT_EQ(slices[1].bytes, 500u);

  // Both bounds at once: 64 one-byte files end a slice before 100 bytes do.
  std::vector<std::uint64_t> sizes(70, 1);
  sizes.push_back(99);
  slices = batch_slices(sizes, 100);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].end, 64u);
  EXPECT_EQ(slices[1].end, 70u);
  EXPECT_EQ(slices[2].bytes, 99u);
}

TEST(BatchSlices, NoSliceOutgrowsTheBatchByteCap) {
  // kMaxBatchBytes bounds every slice, with no byte bound passed or a
  // larger one; a smaller one still wins.
  const std::uint64_t half = kMaxBatchBytes / 2;
  for (std::uint64_t max_bytes : {std::uint64_t{0}, std::uint64_t{1} << 40}) {
    std::vector<BatchSlice> slices = batch_slices({half, half, 1}, max_bytes);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0].end, 2u);
    EXPECT_EQ(slices[0].bytes, kMaxBatchBytes);
    EXPECT_EQ(slices[1].bytes, 1u);

    slices = batch_slices({1, kMaxBatchBytes + 1, 1}, max_bytes);
    ASSERT_EQ(slices.size(), 3u);
    EXPECT_EQ(slices[1].bytes, kMaxBatchBytes + 1);
  }
  EXPECT_EQ(batch_slices({half, half}, half).size(), 2u);
}

/// 150 distinct files plus 30 paths duplicating some of them, pushed to an
/// in-process registry that tests reach directly or over LoopbackTransport +
/// RemoteGearRegistry (the wire shape of gearctl --remote).
struct RuntimeBatchFixture : ::testing::Test {
  static constexpr std::size_t kDistinct = 150;
  fs::path root;
  docker::DockerRegistry index_registry;
  GearRegistry server;
  vfs::FileTree tree;

  void SetUp() override {
    root = fs::path(::testing::TempDir()) /
           ("gear_batch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root);
    Rng rng(6200);
    for (std::size_t i = 0; i < kDistinct; ++i) {
      tree.add_file("app/f" + std::to_string(i),
                    rng.next_bytes(rng.next_range(100, 6000), 0.5));
    }
    for (std::size_t i = 0; i < 30; ++i) {
      tree.add_file("dup/d" + std::to_string(i),
                    tree.lookup("app/f" + std::to_string(i * 5))->content());
    }
    push_gear_image(GearConverter().convert(tree, "app", "v1", {}).image,
                    index_registry, server);
  }

  void TearDown() override { fs::remove_all(root); }

  /// Every path of the image reads back byte-identical from the image
  /// directory (linked), or is still a stub when `allow_stubs`.
  void expect_linked(LocalRuntime& runtime, const std::string& ref,
                     bool allow_stubs = false) {
    tree.walk([&](const std::string& path, const vfs::FileNode& node) {
      if (!node.is_regular()) return;
      StatusOr<Bytes> linked = runtime.store().read_materialized(ref, path);
      if (allow_stubs && !linked.ok()) return;
      ASSERT_TRUE(linked.ok()) << path;
      EXPECT_EQ(*linked, node.content()) << path;
    });
  }

  /// The fetch order of a kPath prefetch: walk order of first references.
  std::vector<PrefetchItem> path_plan() {
    GearIndex index =
        GearConverter().convert(tree, "app", "v1", {}).image.index;
    return build_prefetch_plan(index.tree(), PrefetchOrder::kPath, nullptr,
                               nullptr)
        .items;
  }
};

TEST_F(RuntimeBatchFixture, PrefetchMovesDistinctFilesIn64FileFrames) {
  net::LoopbackTransport transport(server);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  LocalRuntime runtime(index_registry, remote, root);
  runtime.pull("app:v1");
  auto [files, bytes] = runtime.prefetch("app:v1");
  EXPECT_EQ(files, kDistinct);
  std::uint64_t distinct_bytes = 0;
  for (const PrefetchItem& item : path_plan()) distinct_bytes += item.size;
  EXPECT_EQ(bytes, distinct_bytes);
  // ⌈150/64⌉ download frames, each file once despite its duplicates.
  EXPECT_EQ(transport.server_stats().download_round_trips, 3u);
  EXPECT_EQ(transport.server_stats().download_items, kDistinct);
  expect_linked(runtime, "app:v1");

  auto [again_files, again_bytes] = runtime.prefetch("app:v1");
  EXPECT_EQ(again_files, 0u);
  EXPECT_EQ(again_bytes, 0u);
  EXPECT_EQ(transport.server_stats().round_trips, 3u);
}

TEST_F(RuntimeBatchFixture, BudgetSmallerThanASliceStillDeliversEveryFile) {
  constexpr std::uint64_t kBudget = 8000;
  net::LoopbackTransport transport(server);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  HostBudget budget(kBudget);
  LocalRuntime runtime(index_registry, remote, root);
  runtime.set_host_budget(&budget);
  runtime.pull("app:v1");
  auto [files, bytes] = runtime.prefetch("app:v1", PrefetchOrder::kPath);
  EXPECT_EQ(files, kDistinct);
  expect_linked(runtime, "app:v1");

  std::vector<std::uint64_t> sizes;
  std::uint64_t largest = 0;
  for (const PrefetchItem& item : path_plan()) {
    sizes.push_back(item.size);
    largest = std::max(largest, item.size);
  }
  const std::size_t slices = batch_slices(sizes, kBudget).size();
  EXPECT_GT(slices, 3u);  // the budget, not the file count, cut the slices
  EXPECT_EQ(transport.server_stats().download_round_trips, slices);
  HostBudgetStats stats = budget.stats();
  EXPECT_EQ(stats.admitted, slices);  // one lease per slice
  EXPECT_LE(stats.peak_inflight_bytes, std::max(kBudget, largest));
  EXPECT_EQ(stats.inflight_bytes, 0u);
}

TEST_F(RuntimeBatchFixture, DamagedObjectMidSliceNamesItsPathAndFingerprint) {
  // Item 100 of the fetch order sits in the middle of the second slice.
  const PrefetchItem victim = path_plan()[100];
  Bytes frame = server.store().get(victim.fingerprint).value();
  frame[0] ^= 0xFF;  // GZC1 magic overwritten, as by bit rot
  ASSERT_GT(server.remove(victim.fingerprint), 0u);
  server.upload_precompressed(victim.fingerprint, std::move(frame));

  net::LoopbackTransport transport(server);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  for (FileRegistryApi* files : {static_cast<FileRegistryApi*>(&server),
                                 static_cast<FileRegistryApi*>(&remote)}) {
    fs::remove_all(root);
    LocalRuntime runtime(index_registry, *files, root);
    runtime.pull("app:v1");
    try {
      runtime.prefetch("app:v1", PrefetchOrder::kPath);
      FAIL() << "a damaged object was prefetched";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
      const std::string what = e.what();
      EXPECT_NE(what.find("prefetch of " + victim.path + " (" +
                          victim.fingerprint.hex() + ")"),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(RuntimeBatchFixture, DamagedChunkOverTheWireIsCorruptDataNotAbsence) {
  // A chunked file whose second chunk no longer decodes. The server answers
  // its download with an item-level server error, not "not found", so over
  // the wire it is corrupt data naming the file: a re-import's collision
  // probe stops instead of taking the file for absent, and prefetch fails.
  vfs::FileTree big_tree;
  Rng rng(6201);
  big_tree.add_file("lib/big.so", rng.next_bytes(8192, 0.5));
  big_tree.add_file("lib/small.so", rng.next_bytes(500, 0.5));
  push_gear_image(GearConverter().convert(big_tree, "big", "v1", {}).image,
                  index_registry, server, ChunkPolicy{4096, 1024});
  const Fingerprint big =
      default_hasher().fingerprint(big_tree.lookup("lib/big.so")->content());
  ASSERT_TRUE(server.is_chunked(big));
  const Fingerprint chunk = server.chunk_manifest(big).value().chunks[1];
  Bytes frame = server.store().get(chunk).value();
  frame[0] ^= 0xFF;  // GZC1 magic overwritten, as by bit rot
  ASSERT_GT(server.remove(chunk), 0u);
  server.upload_precompressed(chunk, std::move(frame));

  net::LoopbackTransport transport(server);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  StatusOr<Bytes> got = remote.download(big);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), ErrorCode::kCorruptData);
  EXPECT_NE(got.message().find(big.hex()), std::string::npos)
      << got.message();

  try {
    GearConverter(default_hasher(), &remote)
        .convert(big_tree, "big", "v2", {});
    FAIL() << "a damaged chunk read as an absent file";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
    const std::string what = e.what();
    EXPECT_NE(what.find("collision probe of " + big.hex()), std::string::npos)
        << what;
  }

  LocalRuntime runtime(index_registry, remote, root);
  runtime.pull("big:v1");
  try {
    runtime.prefetch("big:v1", PrefetchOrder::kPath);
    FAIL() << "a damaged chunk was prefetched";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
    const std::string what = e.what();
    EXPECT_NE(what.find("prefetch of lib/big.so (" + big.hex() + ")"),
              std::string::npos)
        << what;
  }
}

TEST_F(RuntimeBatchFixture, CacheCapacityLeavesTheStubsPerFileCachingWould) {
  // The capacity envelope sees the same cache_put sequence as one download
  // per file: replaying it on a bare FsStore predicts which files stay
  // cached, and exactly those are linked.
  std::uint64_t total = 0;
  for (const PrefetchItem& item : path_plan()) total += item.size;
  const std::uint64_t capacity = total / 3;

  LocalRuntime runtime(index_registry, server, root / "runtime");
  runtime.store().set_cache_capacity(capacity, EvictionPolicy::kFifo);
  runtime.pull("app:v1");
  auto [files, bytes] = runtime.prefetch("app:v1", PrefetchOrder::kPath);
  EXPECT_EQ(files, kDistinct);

  FsStore replay(root / "replay");
  replay.set_cache_capacity(capacity, EvictionPolicy::kFifo);
  for (const PrefetchItem& item : path_plan()) {
    replay.cache_put(item.fingerprint,
                     server.download(item.fingerprint).value());
  }
  std::size_t linked = 0;
  std::size_t stubs = 0;
  GearIndex index = GearConverter().convert(tree, "app", "v1", {}).image.index;
  index.tree().walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_fingerprint()) return;
    const bool cached = replay.cache_contains(node.fingerprint());
    EXPECT_EQ(runtime.store().read_materialized("app:v1", path).ok(), cached)
        << path;
    ++(cached ? linked : stubs);
  });
  EXPECT_GT(linked, 0u);
  EXPECT_GT(stubs, 0u);
  expect_linked(runtime, "app:v1", /*allow_stubs=*/true);
}

using ConcurrentRuntimeBatch = RuntimeBatchFixture;

TEST_F(ConcurrentRuntimeBatch, FourWideAndSerialPrefetchAgree) {
  // Pool decompression (in process and over the wire) caches and links
  // exactly what the serial prefetch does.
  net::LoopbackTransport transport(server);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  for (FileRegistryApi* files : {static_cast<FileRegistryApi*>(&server),
                                 static_cast<FileRegistryApi*>(&remote)}) {
    fs::remove_all(root);
    LocalRuntime serial(index_registry, *files, root / "serial");
    LocalRuntime wide(index_registry, *files, root / "wide");
    serial.pull("app:v1");
    wide.pull("app:v1");
    util::ThreadPool pool(4);
    EXPECT_EQ(serial.prefetch("app:v1"),
              wide.prefetch("app:v1", PrefetchOrder::kDelta, &pool));
    EXPECT_EQ(serial.store().cache_entries(), wide.store().cache_entries());
    EXPECT_EQ(serial.store().cache_bytes(), wide.store().cache_bytes());
    expect_linked(serial, "app:v1");
    expect_linked(wide, "app:v1");
    tree.walk([&](const std::string& path, const vfs::FileNode& node) {
      if (!node.is_regular()) return;
      Fingerprint fp = default_hasher().fingerprint(node.content());
      EXPECT_EQ(serial.store().link_count(fp), wide.store().link_count(fp))
          << path;
    });
  }
}

}  // namespace
}  // namespace gear
