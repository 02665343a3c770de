// Unit tests for the three-level store, the Gear File Viewer, and commit.
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <mutex>

#include "docker/image.hpp"
#include "gear/committer.hpp"
#include "gear/converter.hpp"
#include "gear/store.hpp"
#include "gear/viewer.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

/// Test fixture: a converted image, a content pool, and a store.
struct ViewerFixture : ::testing::Test {
  vfs::FileTree root;
  GearIndex index;
  std::map<Fingerprint, Bytes> pool;
  ThreeLevelStore store;
  int fetches = 0;

  void SetUp() override {
    root = gear::testing::sample_tree();
    index = GearIndex::from_root_fs(
        root, [this](const std::string&, const Bytes& content) {
          Fingerprint fp = default_hasher().fingerprint(content);
          pool[fp] = content;
          return fp;
        });
    store.add_index("app:v1", GearIndex{vfs::FileTree(index.tree())});
  }

  GearFileViewer make_viewer(const std::string& container_id) {
    return GearFileViewer(store.index_tree("app:v1"),
                          store.container_diff(container_id),
                          [this](const std::string&, const Fingerprint& fp,
                                 std::uint64_t) {
                            ++fetches;
                            return pool.at(fp);
                          });
  }
};

// ----------------------------------------------------------- three-level

TEST_F(ViewerFixture, StoreLifecycle) {
  EXPECT_TRUE(store.has_index("app:v1"));
  std::string c1 = store.create_container("app:v1");
  std::string c2 = store.create_container("app:v1");
  EXPECT_NE(c1, c2);
  EXPECT_EQ(store.container_image(c1), "app:v1");
  EXPECT_EQ(store.container_count(), 2u);

  // Deleting a container keeps the image launchable.
  store.remove_container(c1);
  EXPECT_EQ(store.container_count(), 1u);
  EXPECT_NO_THROW(store.create_container("app:v1"));

  EXPECT_THROW(store.create_container("ghost:v9"), Error);
  EXPECT_THROW(store.remove_container("nope"), Error);
}

TEST_F(ViewerFixture, RemoveImageUnpinsFiles) {
  Fingerprint fp = index.stubs()[0].fingerprint;
  store.cache().put(fp, pool.at(fp));
  store.record_link("app:v1", fp);
  EXPECT_EQ(store.cache().link_count(fp), 1u);

  store.remove_image("app:v1");
  EXPECT_FALSE(store.has_index("app:v1"));
  // The Gear file stays cached, just unpinned (paper §III-D1).
  EXPECT_TRUE(store.cache().contains(fp));
  EXPECT_EQ(store.cache().link_count(fp), 0u);
}

TEST_F(ViewerFixture, RecordLinkIdempotentPerImage) {
  Fingerprint fp = index.stubs()[0].fingerprint;
  store.cache().put(fp, pool.at(fp));
  store.record_link("app:v1", fp);
  store.record_link("app:v1", fp);
  EXPECT_EQ(store.cache().link_count(fp), 1u);
}

// ----------------------------------------------------------------- viewer

TEST_F(ViewerFixture, ReadMaterializesStubOnce) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);

  EXPECT_EQ(to_string(v.read_file("etc/hostname").value()), "gear-test\n");
  EXPECT_EQ(fetches, 1);
  EXPECT_EQ(v.materialized_count(), 1u);

  // Second read: served from the materialized index node, no fetch.
  EXPECT_EQ(to_string(v.read_file("etc/hostname").value()), "gear-test\n");
  EXPECT_EQ(fetches, 1);
}

TEST_F(ViewerFixture, MaterializationSharedAcrossContainers) {
  std::string c1 = store.create_container("app:v1");
  std::string c2 = store.create_container("app:v1");
  GearFileViewer v1 = make_viewer(c1);
  v1.read_file("usr/bin/app").value();
  EXPECT_EQ(fetches, 1);

  // The second container's viewer sees the already-materialized file.
  GearFileViewer v2 = make_viewer(c2);
  v2.read_file("usr/bin/app").value();
  EXPECT_EQ(fetches, 1);
}

TEST_F(ViewerFixture, IrregularFilesAnsweredWithoutFetch) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  EXPECT_EQ(v.read_symlink("usr/bin/app-link").value(), "app");
  EXPECT_TRUE(v.exists("etc"));
  auto listing = v.list_dir("etc");
  EXPECT_EQ(listing.size(), 2u);
  EXPECT_EQ(fetches, 0);  // no regular file was touched
}

TEST_F(ViewerFixture, StatDoesNotMaterialize) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  EXPECT_EQ(v.stat_size("usr/bin/app").value(), 2000u);
  EXPECT_EQ(fetches, 0);
}

TEST_F(ViewerFixture, WritesGoToDiffLayer) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  v.write_file("etc/hostname", to_bytes("modified\n"));
  EXPECT_EQ(to_string(v.read_file("etc/hostname").value()), "modified\n");
  EXPECT_EQ(fetches, 0);  // masked stub never materialized

  // The index keeps the pristine stub; a sibling container sees original.
  std::string c2 = store.create_container("app:v1");
  GearFileViewer v2 = make_viewer(c2);
  EXPECT_EQ(to_string(v2.read_file("etc/hostname").value()), "gear-test\n");
}

TEST_F(ViewerFixture, RemoveCreatesWhiteout) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  EXPECT_TRUE(v.remove("etc/hostname"));
  EXPECT_FALSE(v.exists("etc/hostname"));
  ASSERT_NE(v.diff().lookup("etc/hostname"), nullptr);
  EXPECT_TRUE(v.diff().lookup("etc/hostname")->is_whiteout());
  // Gone from listings.
  auto listing = v.list_dir("etc");
  EXPECT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0], "os-release");
}

TEST_F(ViewerFixture, RemoveDiffOnlyFileLeavesNoWhiteout) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  v.write_file("tmp/x", to_bytes("t"));
  EXPECT_TRUE(v.remove("tmp/x"));
  EXPECT_EQ(v.diff().lookup("tmp/x"), nullptr);
}

TEST_F(ViewerFixture, DeleteThenRecreateDirHidesIndexContents) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  ASSERT_TRUE(v.remove("usr/bin"));
  v.make_dir("usr/bin");
  v.write_file("usr/bin/newapp", to_bytes("n"));
  EXPECT_FALSE(v.exists("usr/bin/app"));
  EXPECT_FALSE(v.exists("usr/bin/app-link"));
  EXPECT_TRUE(v.exists("usr/bin/newapp"));
}

TEST_F(ViewerFixture, SizeMismatchFromMaterializerThrows) {
  std::string c = store.create_container("app:v1");
  GearFileViewer bad(store.index_tree("app:v1"), store.container_diff(c),
                     [](const std::string&, const Fingerprint&,
                        std::uint64_t) {
                       return to_bytes("wrong-size");
                     });
  EXPECT_THROW(bad.read_file("usr/bin/app").value(), Error);
}

TEST_F(ViewerFixture, NullMaterializerRejected) {
  std::string c = store.create_container("app:v1");
  EXPECT_THROW(GearFileViewer(store.index_tree("app:v1"),
                              store.container_diff(c), nullptr),
               Error);
}

TEST_F(ViewerFixture, ListDirMergesDiffAndIndex) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  v.write_file("etc/added.conf", to_bytes("a"));
  auto listing = v.list_dir("etc");
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0], "added.conf");
  EXPECT_EQ(listing[1], "hostname");
  EXPECT_EQ(listing[2], "os-release");
}

// ----------------------------------------------------------------- commit

TEST_F(ViewerFixture, CommitProducesNewImage) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  v.read_file("etc/hostname").value();  // materialize one stub
  v.write_file("app/data.bin", to_bytes("NEWDATA"));
  v.write_file("etc/hostname", to_bytes("edited\n"));
  v.remove("var/log/boot.log");

  GearCommitter committer;
  CommitResult result = committer.commit(store.index_tree("app:v1"), v.diff(),
                                         docker::ImageConfig{}, "app", "v2");

  EXPECT_EQ(result.files_extracted, 2u);  // data.bin + edited hostname
  const GearIndex& new_index = result.image.index;
  // New files are stubs in the new index.
  const vfs::FileNode* data = new_index.tree().lookup("app/data.bin");
  ASSERT_NE(data, nullptr);
  EXPECT_TRUE(data->is_fingerprint());
  EXPECT_EQ(data->stub_size(), 7u);
  // Deleted file absent.
  EXPECT_EQ(new_index.tree().lookup("var/log/boot.log"), nullptr);
  // Unmodified file still referenced by its original fingerprint.
  const vfs::FileNode* os_release = new_index.tree().lookup("etc/os-release");
  ASSERT_NE(os_release, nullptr);
  EXPECT_TRUE(pool.count(os_release->fingerprint()) == 1);
  // The materialized-then-unmodified stub re-normalizes to its fingerprint,
  // and is NOT re-uploaded.
  for (const auto& [fp, content] : result.image.files) {
    (void)content;
    EXPECT_EQ(pool.count(fp), 0u) << "pre-existing file re-extracted";
  }
  // Index image is a valid single-layer Docker image tagged app:v2.
  EXPECT_EQ(result.image.index_image.manifest.reference(), "app:v2");
  EXPECT_EQ(result.image.index_image.layers.size(), 1u);
}

TEST_F(ViewerFixture, CommittedImageLaunchesCorrectly) {
  std::string c = store.create_container("app:v1");
  GearFileViewer v = make_viewer(c);
  v.write_file("app/data.bin", to_bytes("NEWDATA"));
  v.remove("etc/hostname");

  GearCommitter committer;
  CommitResult result = committer.commit(store.index_tree("app:v1"), v.diff(),
                                         docker::ImageConfig{}, "app", "v2");

  // Extend the pool with newly extracted files and launch from the new index.
  for (auto& [fp, content] : result.image.files) pool[fp] = content;
  store.add_index("app:v2", GearIndex{vfs::FileTree(result.image.index.tree())});
  std::string c2 = store.create_container("app:v2");
  GearFileViewer v2(store.index_tree("app:v2"), store.container_diff(c2),
                    [this](const std::string&, const Fingerprint& fp,
                                 std::uint64_t) {
                      return pool.at(fp);
                    });
  EXPECT_EQ(to_string(v2.read_file("app/data.bin").value()), "NEWDATA");
  EXPECT_FALSE(v2.exists("etc/hostname"));
  EXPECT_EQ(to_string(v2.read_file("etc/os-release").value()),
            "NAME=gearos\nVERSION=1\n");
}

// Two containers of one image share its index tree and tree lock. One
// faults the stubs under d/ in, which rewrites the index, while the other
// deletes the same files, which walks the index to place whiteouts. Under
// ThreadSanitizer, a union call that walks the index without the lock
// reports a data race here.
TEST(ConcurrentViewer, RemoveWhileAnotherContainerFaults) {
  constexpr int kFiles = 64;
  constexpr int kRounds = 300;
  auto path_of = [](int i) { return "d/f" + std::to_string(i); };
  auto content_of = [](int i) {
    return to_bytes("content " + std::to_string(i));
  };

  vfs::FileTree root;
  for (int i = 0; i < kFiles; ++i) root.add_file(path_of(i), content_of(i));
  std::map<Fingerprint, Bytes> pool;  // read-only once the threads start
  GearIndex stubs = GearIndex::from_root_fs(
      std::move(root), [&pool](const std::string&, const Bytes& content) {
        Fingerprint fp = default_hasher().fingerprint(content);
        pool[fp] = content;
        return fp;
      });
  auto materialize = [&pool](const std::string&, const Fingerprint& fp,
                             std::uint64_t) { return pool.at(fp); };

  for (int round = 0; round < kRounds; ++round) {
    vfs::FileTree index = stubs.tree();
    vfs::FileTree reader_diff;
    vfs::FileTree remover_diff;
    std::mutex tree_lock;
    GearFileViewer reader(index, reader_diff, materialize, &tree_lock);
    GearFileViewer remover(index, remover_diff, materialize, &tree_lock);

    std::future<std::vector<bool>> removing =
        std::async(std::launch::async, [&] {
          std::vector<bool> removed;
          for (int i = 0; i < kFiles; ++i) {
            removed.push_back(remover.remove(path_of(i)));
          }
          return removed;
        });
    std::vector<StatusOr<Bytes>> reads;
    for (int i = 0; i < kFiles; ++i) {
      reads.push_back(reader.read_file(path_of(i)));
    }
    std::vector<bool> removed = removing.get();

    for (int i = 0; i < kFiles; ++i) {
      ASSERT_TRUE(reads[i].ok()) << path_of(i) << ": " << reads[i].message();
      EXPECT_EQ(*reads[i], content_of(i)) << path_of(i);
      EXPECT_TRUE(removed[i]) << path_of(i);
      const vfs::FileNode* mark = remover.diff().lookup(path_of(i));
      ASSERT_NE(mark, nullptr) << path_of(i);
      EXPECT_TRUE(mark->is_whiteout()) << path_of(i);
      EXPECT_TRUE(reader.exists(path_of(i))) << path_of(i);
      EXPECT_FALSE(remover.exists(path_of(i))) << path_of(i);
    }
    EXPECT_EQ(remover.diff().lookup("d")->children().size(),
              static_cast<std::size_t>(kFiles));
  }
}

}  // namespace
}  // namespace gear
