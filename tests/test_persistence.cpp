// Tests for filesystem I/O (directory <-> tree) and catalog persistence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/persistence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "vfs/fs_io.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  fs::path p = fs::path(::testing::TempDir()) /
               ("gear_persist_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

// ------------------------------------------------------------------ fs_io

TEST(FsIo, DirectoryRoundTrip) {
  fs::path src = fresh_dir("roundtrip_src");
  fs::path dst = fresh_dir("roundtrip_dst");

  vfs::FileTree tree = gear::testing::random_tree(600, 20);
  vfs::write_tree(tree, src);
  vfs::FileTree loaded = vfs::load_tree(src);

  // Content and structure must match (metadata mode/mtime differ: the real
  // filesystem applies umask and write time).
  int files = 0;
  tree.walk([&](const std::string& path, const vfs::FileNode& node) {
    const vfs::FileNode* got = loaded.lookup(path);
    ASSERT_NE(got, nullptr) << path;
    EXPECT_EQ(got->type(), node.type()) << path;
    if (node.is_regular()) {
      EXPECT_EQ(got->content(), node.content()) << path;
      ++files;
    }
    if (node.is_symlink()) {
      EXPECT_EQ(got->link_target(), node.link_target()) << path;
    }
  });
  EXPECT_GT(files, 0);

  // And the loaded tree exports back identically (fixpoint).
  vfs::write_tree(loaded, dst);
  vfs::FileTree again = vfs::load_tree(dst);
  int files2 = 0;
  loaded.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_regular()) return;
    EXPECT_EQ(again.lookup(path)->content(), node.content()) << path;
    ++files2;
  });
  EXPECT_EQ(files, files2);

  fs::remove_all(src);
  fs::remove_all(dst);
}

TEST(FsIo, MtimeIsSaneUnixEpoch) {
  // Regression: fs::file_time_type has an implementation-defined epoch;
  // a naive cast produced mtimes that overflowed the tar octal field.
  fs::path src = fresh_dir("mtime");
  std::ofstream(src / "f.txt") << "x";
  vfs::FileTree tree = vfs::load_tree(src);
  std::uint64_t mtime = tree.lookup("f.txt")->metadata().mtime;
  EXPECT_GT(mtime, 1500000000u);  // after 2017
  EXPECT_LT(mtime, 4102444800u);  // before 2100
  // And it must survive tar's 11-digit octal field.
  docker::Layer layer = docker::Layer::from_tree(tree);
  EXPECT_TRUE(layer.to_tree().lookup("f.txt") != nullptr);
  fs::remove_all(src);
}

TEST(FsIo, ByteBudgetEnforced) {
  fs::path src = fresh_dir("budget");
  std::ofstream(src / "big.bin") << std::string(10000, 'b');
  vfs::LoadOptions options;
  options.max_total_bytes = 100;
  EXPECT_THROW(vfs::load_tree(src, options), Error);
  fs::remove_all(src);
}

TEST(FsIo, MissingDirectoryRejected) {
  EXPECT_THROW(vfs::load_tree("/no/such/dir/anywhere"), Error);
}

TEST(FsIo, ExportRejectsStubsAndWhiteouts) {
  fs::path dst = fresh_dir("reject");
  vfs::FileTree stubby;
  stubby.add_fingerprint_stub("s", default_hasher().fingerprint(to_bytes("x")),
                              1);
  EXPECT_THROW(vfs::write_tree(stubby, dst), Error);
  vfs::FileTree whiteouty;
  whiteouty.add_whiteout("w");
  EXPECT_THROW(vfs::write_tree(whiteouty, dst), Error);
  fs::remove_all(dst);
}

// ------------------------------------------------------------ persistence

struct PersistenceFixture : ::testing::Test {
  fs::path root;
  docker::DockerRegistry docker_registry;
  GearRegistry gear_registry;

  void SetUp() override { root = fresh_dir("registries"); }
  void TearDown() override { fs::remove_all(root); }

  docker::Image push_one(std::uint64_t seed, const std::string& name,
                         const ChunkPolicy& policy = {}) {
    vfs::FileTree t = gear::testing::random_tree(seed, 15);
    // One big file so chunking has something to bite on.
    Rng rng(seed + 1);
    t.add_file("big/model.bin", rng.next_bytes(48 * 1024, 0.3));
    docker::ImageBuilder b;
    b.add_snapshot(t);
    docker::Image image = b.build(name, "v1", {});
    push_gear_image(GearConverter().convert(image).image, docker_registry,
                    gear_registry, policy);
    return image;
  }
};

TEST_F(PersistenceFixture, SaveLoadRoundTrip) {
  push_one(700, "app");
  PersistReport saved = save_docker_registry(docker_registry, root);
  EXPECT_GT(saved.blobs, 0u);
  EXPECT_EQ(saved.manifests, 1u);

  docker::DockerRegistry docker2;
  PersistReport loaded = load_docker_registry(root, &docker2);
  EXPECT_EQ(loaded.blobs, saved.blobs);
  EXPECT_EQ(loaded.manifests, saved.manifests);

  // Identical logical state.
  EXPECT_EQ(docker2.get_manifest("app:v1").value(),
            docker_registry.get_manifest("app:v1").value());
  for (const docker::Digest& digest : docker_registry.list_blobs()) {
    EXPECT_EQ(docker2.get_blob(digest).value(),
              docker_registry.get_blob(digest).value());
  }
}

TEST_F(PersistenceFixture, SaveIsFullSnapshot) {
  // Regression: deleting a manifest then saving must not leave the old
  // manifest file behind to resurrect the image on load.
  push_one(720, "keep");
  push_one(721, "drop");
  save_docker_registry(docker_registry, root);

  docker_registry.delete_manifest("drop:v1");
  docker_registry.collect_garbage();
  save_docker_registry(docker_registry, root);

  docker::DockerRegistry docker2;
  load_docker_registry(root, &docker2);
  EXPECT_TRUE(docker2.has_manifest("keep:v1"));
  EXPECT_FALSE(docker2.has_manifest("drop:v1"));
  // The swept index blob is gone on disk too.
  EXPECT_EQ(docker2.blob_count(), docker_registry.blob_count());
}

TEST_F(PersistenceFixture, SingleChunkFilesStoredPlain) {
  // Regression: a policy whose chunk size exceeds the file size must not
  // create a manifest aliasing its only chunk's fingerprint.
  const ChunkPolicy policy{16 * 1024, 1024 * 1024};
  push_one(730, "single", policy);
  EXPECT_TRUE(gear_registry.list_chunked().empty());
}

TEST_F(PersistenceFixture, LoadMissingLayoutThrows) {
  docker::DockerRegistry d;
  EXPECT_THROW(load_docker_registry(root / "nothing_here", &d), Error);
}

TEST_F(PersistenceFixture, CorruptBlobDetectedOnLoad) {
  push_one(740, "app");
  save_docker_registry(docker_registry, root);
  // Flip a byte in some blob on disk.
  for (const auto& entry : fs::directory_iterator(root / "docker" / "blobs")) {
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.put('\xee');
    break;
  }
  docker::DockerRegistry d;
  EXPECT_THROW(load_docker_registry(root, &d), Error);  // digest mismatch
}

}  // namespace
}  // namespace gear
