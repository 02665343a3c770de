// Tests for the on-disk three-level store: real files, real hard links.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>

#include "gear/converter.hpp"
#include "gear/fs_store.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

struct FsStoreFixture : ::testing::Test {
  fs::path root;
  std::unique_ptr<FsStore> store;

  void SetUp() override {
    root = fs::path(::testing::TempDir()) /
           ("gear_fs_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root);
    store = std::make_unique<FsStore>(root);
  }

  void TearDown() override {
    store.reset();
    fs::remove_all(root);
  }

  Fingerprint put(const std::string& content) {
    Bytes data = to_bytes(content);
    Fingerprint fp = default_hasher().fingerprint(data);
    store->cache_put(fp, data);
    return fp;
  }

  /// The cache directory's size as the filesystem reports it.
  std::uint64_t disk_bytes() const {
    std::uint64_t total = 0;
    for (const auto& entry : fs::directory_iterator(root / "cache")) {
      total += entry.file_size();
    }
    return total;
  }

  /// Installs a three-file image nested two directories deep and caches
  /// every file but "deep/er/uncached".
  GearIndex install_nested(const std::string& ref) {
    vfs::FileTree t;
    t.add_file("top.txt", to_bytes("top"));
    t.add_file("a/b/c/leaf.bin", to_bytes("leaf-content"));
    t.add_file("a/b/mid.bin", to_bytes("mid-content"));
    t.add_file("deep/er/uncached", to_bytes("never-cached"));
    GearIndex index = GearIndex::from_root_fs(
        t, [](const std::string&, const Bytes& c) {
          return default_hasher().fingerprint(c);
        });
    store->install_index(ref, index);
    for (const auto& stub : index.stubs()) {
      if (stub.path != "deep/er/uncached") {
        store->cache_put(stub.fingerprint, t.lookup(stub.path)->content());
      }
    }
    return index;
  }

  struct stat stat_of(const fs::path& p) const {
    struct stat st {};
    EXPECT_EQ(::stat(p.c_str(), &st), 0) << p;
    return st;
  }
};

TEST_F(FsStoreFixture, CreatesLayout) {
  EXPECT_TRUE(fs::is_directory(root / "cache"));
  EXPECT_TRUE(fs::is_directory(root / "images"));
  EXPECT_TRUE(fs::is_directory(root / "containers"));
}

TEST_F(FsStoreFixture, CachePutGetRoundTrip) {
  Fingerprint fp = put("cached-bytes");
  EXPECT_TRUE(store->cache_contains(fp));
  EXPECT_EQ(to_string(store->cache_get(fp).value()), "cached-bytes");
  EXPECT_EQ(store->cache_entries(), 1u);
  EXPECT_EQ(store->cache_bytes(), 12u);
  EXPECT_EQ(store->link_count(fp), 1u);
}

TEST_F(FsStoreFixture, CachePutIdempotent) {
  Fingerprint fp = put("same");
  store->cache_put(fp, to_bytes("same"));
  EXPECT_EQ(store->cache_entries(), 1u);
}

TEST_F(FsStoreFixture, CacheMiss) {
  EXPECT_FALSE(store->cache_get(default_hasher().fingerprint(to_bytes("x")))
                   .ok());
}

TEST_F(FsStoreFixture, IndexInstallLoadRoundTrip) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("web:1.17", index);
  EXPECT_TRUE(store->has_index("web:1.17"));
  GearIndex loaded = store->load_index("web:1.17");
  EXPECT_TRUE(loaded.tree().equals(index.tree()));
  EXPECT_EQ(store->images(), std::vector<std::string>{"web_1.17"});
}

TEST_F(FsStoreFixture, HardLinkMaterialization) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);

  const vfs::FileNode* file = rootfs.lookup("usr/bin/app");
  Fingerprint fp = default_hasher().fingerprint(file->content());
  store->cache_put(fp, file->content());

  EXPECT_FALSE(store->read_materialized("app:v1", "usr/bin/app").ok());
  store->link_file("app:v1", "usr/bin/app", fp);
  EXPECT_TRUE(store->read_materialized("app:v1", "usr/bin/app").ok());
  // The materialized file IS the cache file: st_nlink == 2, same bytes.
  EXPECT_EQ(store->link_count(fp), 2u);
  EXPECT_EQ(store->read_materialized("app:v1", "usr/bin/app").value(),
            file->content());
  // Idempotent.
  store->link_file("app:v1", "usr/bin/app", fp);
  EXPECT_EQ(store->link_count(fp), 2u);
}

TEST_F(FsStoreFixture, SharedFileLinkedIntoTwoImages) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("a:v1", index);
  store->install_index("b:v1", index);
  Fingerprint fp = put("shared-library-content");
  store->link_file("a:v1", "lib/shared.so", fp);
  store->link_file("b:v1", "lib/shared.so", fp);
  EXPECT_EQ(store->link_count(fp), 3u);  // cache + two images

  // Deleting one image drops one link; content stays shared.
  store->remove_image("a:v1");
  EXPECT_EQ(store->link_count(fp), 2u);
  EXPECT_EQ(store->read_materialized("b:v1", "lib/shared.so").value(),
            to_bytes("shared-library-content"));
}

TEST_F(FsStoreFixture, EvictUnlinkedKeepsLinkedFiles) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);
  Fingerprint linked = put("linked-content");
  Fingerprint loose = put("loose-content");
  store->link_file("app:v1", "opt/linked.bin", linked);

  EXPECT_EQ(store->evict_unlinked(), 1u);
  EXPECT_TRUE(store->cache_contains(linked));
  EXPECT_FALSE(store->cache_contains(loose));
}

TEST_F(FsStoreFixture, ImageDeletionThenEvictionReclaimsEverything) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);
  Fingerprint fp = put("doomed");
  store->link_file("app:v1", "bin/doomed", fp);
  EXPECT_EQ(store->evict_unlinked(), 0u);  // pinned by the image
  store->remove_image("app:v1");
  EXPECT_EQ(store->evict_unlinked(), 1u);  // now reclaimable
  EXPECT_EQ(store->cache_entries(), 0u);
}

TEST_F(FsStoreFixture, ContainerLifecycle) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);

  std::string c1 = store->create_container("app:v1");
  std::string c2 = store->create_container("app:v1");
  EXPECT_NE(c1, c2);
  EXPECT_EQ(store->container_image(c1), "app:v1");

  // Persist a modified diff and read it back.
  vfs::FileTree diff;
  diff.add_file("srv/state.db", to_bytes("dirty"));
  diff.add_whiteout("etc/hostname");
  store->save_diff(c1, diff);
  EXPECT_TRUE(store->load_diff(c1).equals(diff));
  // The other container's diff is untouched.
  EXPECT_TRUE(store->load_diff(c2).root().children().empty());

  store->remove_container(c1);
  EXPECT_FALSE(store->has_container(c1));
  EXPECT_THROW(store->load_diff(c1), Error);
  EXPECT_TRUE(store->has_container(c2));
}

TEST_F(FsStoreFixture, CreateContainerRequiresIndex) {
  EXPECT_THROW(store->create_container("ghost:v1"), Error);
}

TEST_F(FsStoreFixture, StateSurvivesReopen) {
  vfs::FileTree rootfs = gear::testing::sample_tree();
  GearIndex index = GearIndex::from_root_fs(
      rootfs, [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);
  Fingerprint fp = put("persistent");
  store->link_file("app:v1", "data/p.bin", fp);

  // Re-open the same root (daemon restart).
  store = std::make_unique<FsStore>(root);
  EXPECT_TRUE(store->has_index("app:v1"));
  EXPECT_TRUE(store->load_index("app:v1").tree().equals(index.tree()));
  EXPECT_TRUE(store->cache_contains(fp));
  EXPECT_EQ(store->link_count(fp), 2u);
  EXPECT_EQ(store->read_materialized("app:v1", "data/p.bin").value(),
            to_bytes("persistent"));
}

TEST_F(FsStoreFixture, EndToEndWithConverter) {
  // Convert an image, persist everything to disk, and reconstruct files
  // purely from the on-disk store.
  vfs::FileTree rootfs = gear::testing::random_tree(808, 25);
  docker::ImageBuilder b;
  b.add_snapshot(rootfs);
  docker::Image image = b.build("e2e", "v1", {});
  ConversionResult conv = GearConverter().convert(image);

  store->install_index("e2e:v1", conv.image.index);
  for (const auto& [fp, content] : conv.image.files) {
    store->cache_put(fp, content);
  }
  GearIndex loaded = store->load_index("e2e:v1");
  for (const auto& stub : loaded.stubs()) {
    store->link_file("e2e:v1", stub.path, stub.fingerprint);
    EXPECT_EQ(store->read_materialized("e2e:v1", stub.path).value(),
              rootfs.lookup(stub.path)->content())
        << stub.path;
  }
}

TEST_F(FsStoreFixture, CacheCapacityEvictsFifoByInsertion) {
  store->set_cache_capacity(25, EvictionPolicy::kFifo);
  Fingerprint a = put("aaaaaaaaaa");  // 10 bytes, oldest
  Fingerprint b = put("bbbbbbbbbb");
  // Touch the oldest — FIFO must ignore recency.
  store->cache_get(a).value();
  Fingerprint c = put("cccccccccc");  // needs room: evicts a
  EXPECT_FALSE(store->cache_contains(a));
  EXPECT_TRUE(store->cache_contains(b));
  EXPECT_TRUE(store->cache_contains(c));
  EXPECT_EQ(store->session_stats().evictions, 1u);
}

TEST_F(FsStoreFixture, CacheCapacityLruKeepsTouchedEntry) {
  store->set_cache_capacity(25, EvictionPolicy::kLru);
  Fingerprint a = put("aaaaaaaaaa");
  Fingerprint b = put("bbbbbbbbbb");
  store->cache_get(a).value();  // refresh a: b is now the LRU victim
  Fingerprint c = put("cccccccccc");
  EXPECT_TRUE(store->cache_contains(a));
  EXPECT_FALSE(store->cache_contains(b));
  EXPECT_TRUE(store->cache_contains(c));
}

TEST_F(FsStoreFixture, LinkedFilesSurvivePressureAndOvershootIsCounted) {
  Fingerprint fp = put("pinned-content");  // 14 bytes
  GearIndex index = GearIndex::from_root_fs(
      gear::testing::sample_tree(), [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);
  store->link_file("app:v1", "etc/pinned", fp);
  EXPECT_GT(store->link_count(fp), 1u);

  store->set_cache_capacity(10, EvictionPolicy::kLru);
  // The hard-linked file must not be evicted even though it alone
  // overflows the envelope...
  EXPECT_TRUE(store->cache_contains(fp));
  // ...and the next insert lands anyway (it is about to be linked) but is
  // recorded as an overshoot.
  Fingerprint extra = put("x");
  EXPECT_TRUE(store->cache_contains(extra));
  EXPECT_EQ(store->session_stats().rejected, 1u);
}

TEST_F(FsStoreFixture, ImageRemovalUnpinsForEviction) {
  Fingerprint fp = put("gc-me-please");
  GearIndex index = GearIndex::from_root_fs(
      gear::testing::sample_tree(), [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);
  store->link_file("app:v1", "etc/f", fp);

  store->set_cache_capacity(5, EvictionPolicy::kLru);
  EXPECT_TRUE(store->cache_contains(fp));  // pinned: survives the shrink
  store->remove_image("app:v1");           // st_nlink drops back to 1
  store->set_cache_capacity(5, EvictionPolicy::kLru);
  EXPECT_FALSE(store->cache_contains(fp));
  EXPECT_EQ(store->session_stats().evictions, 1u);
}

TEST_F(FsStoreFixture, PreexistingFilesRankOldestUnderCapacity) {
  // Files written by an earlier process carry no tick: they are evicted
  // before anything this process inserted.
  Fingerprint old_fp = put("from-before");
  store = std::make_unique<FsStore>(root);  // reopen: tick map is empty
  store->set_cache_capacity(30, EvictionPolicy::kLru);
  Fingerprint fresh = put("fresh-contentfresh");  // 18 bytes
  Fingerprint fresh2 = put("0123456789");         // 10 bytes: needs room
  EXPECT_FALSE(store->cache_contains(old_fp));
  EXPECT_TRUE(store->cache_contains(fresh));
  EXPECT_TRUE(store->cache_contains(fresh2));
}

TEST_F(FsStoreFixture, CacheBytesTracksTheDisk) {
  // Files from an earlier process are counted by the one scan.
  put("from-before");       // 11 bytes
  put("also-from-before");  // 16 bytes
  store = std::make_unique<FsStore>(root);
  store->set_cache_capacity(50, EvictionPolicy::kFifo);
  EXPECT_EQ(store->cache_bytes(), 27u);
  EXPECT_EQ(store->cache_bytes(), disk_bytes());

  Fingerprint a = put(std::string(20, 'a'));
  put(std::string(20, 'a'));  // deduplicated
  EXPECT_EQ(store->cache_bytes(), disk_bytes());
  Fingerprint b = put(std::string(20, 'b'));  // FIFO: evicts both old files
  EXPECT_EQ(store->session_stats().evictions, 2u);
  EXPECT_EQ(store->cache_bytes(), disk_bytes());

  store->set_cache_capacity(50, EvictionPolicy::kLru);
  store->cache_get(a).value();
  Fingerprint c = put(std::string(20, 'c'));  // LRU: evicts b, not a
  EXPECT_FALSE(store->cache_contains(b));
  EXPECT_EQ(store->session_stats().evictions, 3u);
  EXPECT_EQ(store->cache_bytes(), disk_bytes());

  // Linked entries survive a shrink; removing their image unpins them.
  GearIndex index = GearIndex::from_root_fs(
      gear::testing::sample_tree(), [](const std::string&, const Bytes& c) {
        return default_hasher().fingerprint(c);
      });
  store->install_index("app:v1", index);
  store->link_file("app:v1", "x/a.bin", a);
  store->link_file("app:v1", "x/c.bin", c);
  store->set_cache_capacity(20, EvictionPolicy::kLru);
  EXPECT_EQ(store->session_stats().evictions, 3u);
  EXPECT_EQ(store->cache_bytes(), disk_bytes());
  store->remove_image("app:v1");
  store->set_cache_capacity(20, EvictionPolicy::kLru);  // evicts a
  EXPECT_EQ(store->session_stats().evictions, 4u);
  EXPECT_EQ(store->cache_bytes(), disk_bytes());
  EXPECT_EQ(store->evict_unlinked(), 1u);
  EXPECT_EQ(store->cache_bytes(), 0u);
  EXPECT_EQ(disk_bytes(), 0u);
}

TEST_F(FsStoreFixture, LinkStubsSharesTheCacheInodeAtEveryDepth) {
  GearIndex index = install_nested("app:v1");
  EXPECT_EQ(store->link_stubs("app:v1", index.tree()), 3u);
  for (const auto& stub : index.stubs()) {
    if (stub.path == "deep/er/uncached") continue;
    struct stat linked = stat_of(root / "images/app_v1/files" / stub.path);
    struct stat cached = stat_of(root / "cache" / stub.fingerprint.hex());
    EXPECT_EQ(linked.st_ino, cached.st_ino) << stub.path;
    EXPECT_EQ(linked.st_nlink, 2u) << stub.path;
  }
}

TEST_F(FsStoreFixture, LinkStubsAgainLinksNothing) {
  GearIndex index = install_nested("app:v1");
  ASSERT_EQ(store->link_stubs("app:v1", index.tree()), 3u);
  const fs::path leaf = root / "images/app_v1/files/a/b/c/leaf.bin";
  struct stat before = stat_of(leaf);
  EXPECT_EQ(store->link_stubs("app:v1", index.tree()), 0u);
  struct stat after = stat_of(leaf);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(after.st_nlink, 2u);
  EXPECT_EQ(after.st_ctim.tv_sec, before.st_ctim.tv_sec);
  EXPECT_EQ(after.st_ctim.tv_nsec, before.st_ctim.tv_nsec);
}

TEST_F(FsStoreFixture, UncachedStubStaysAStubWithNoDirectory) {
  GearIndex index = install_nested("app:v1");
  store->link_stubs("app:v1", index.tree());
  EXPECT_FALSE(store->read_materialized("app:v1", "deep/er/uncached").ok());
  EXPECT_FALSE(fs::exists(root / "images/app_v1/files/deep"));
  EXPECT_TRUE(store->read_materialized("app:v1", "a/b/c/leaf.bin").ok());
}

TEST_F(FsStoreFixture, LinkFileOfUncachedFingerprintNamesIt) {
  install_nested("app:v1");
  const Fingerprint fp =
      default_hasher().fingerprint(to_bytes("never-cached"));
  try {
    store->link_file("app:v1", "deep/er/uncached", fp);
    FAIL() << "an uncached file was linked";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
    EXPECT_EQ(e.message(), "link_file: not cached: " + fp.hex());
  }
  EXPECT_FALSE(fs::exists(root / "images/app_v1/files/deep"));
}

TEST_F(FsStoreFixture, CachePutOverAnEntryKeepsItsBytesAndTouchesIt) {
  store->set_cache_capacity(25, EvictionPolicy::kLru);
  Fingerprint a = put("aaaaaaaaaa");
  Fingerprint b = put("bbbbbbbbbb");
  // A second put of a's fingerprint keeps the first bytes, and counts as a
  // touch: b becomes the LRU victim.
  store->cache_put(a, to_bytes("other-bytes"));
  EXPECT_EQ(store->session_stats().insertions, 2u);
  put("cccccccccc");
  EXPECT_TRUE(store->cache_contains(a));
  EXPECT_FALSE(store->cache_contains(b));
  EXPECT_EQ(to_string(store->cache_get(a).value()), "aaaaaaaaaa");
}

TEST(SanitizeReference, MapsAndRejects) {
  EXPECT_EQ(sanitize_reference("nginx:1.17"), "nginx_1.17");
  EXPECT_EQ(sanitize_reference("library/redis:7"), "library_redis_7");
  EXPECT_THROW(sanitize_reference(""), Error);
  EXPECT_THROW(sanitize_reference("../escape"), Error);
  EXPECT_THROW(sanitize_reference("a b"), Error);
}

}  // namespace
}  // namespace gear
