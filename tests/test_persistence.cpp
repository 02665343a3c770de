// Tests for filesystem I/O (directory <-> tree) and catalog persistence.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/persistence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/thread_pool.hpp"
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

// Sets the mtime of `path` itself, a symlink included, to `secs`.
void set_mtime(const fs::path& path, std::int64_t secs) {
  const struct timespec times[2] = {{secs, 0}, {secs, 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, AT_SYMLINK_NOFOLLOW), 0)
      << path;
}

TEST(FsIo, SymlinkKeepsItsOwnMtime) {
  // A link's mtime is the link's, not its target's, and a dangling link has
  // one too.
  fs::path src = fresh_dir("link_mtime");
  std::ofstream(src / "target") << "t";
  set_mtime(src / "target", 1577836800);  // 2020-01-01
  fs::create_symlink("target", src / "live");
  set_mtime(src / "live", 1685577600);  // 2023-06-01
  fs::create_symlink("nowhere", src / "dangling");
  set_mtime(src / "dangling", 1640995200);  // 2022-01-01

  vfs::FileTree tree = vfs::load_tree(src);
  EXPECT_EQ(tree.lookup("target")->metadata().mtime, 1577836800u);
  EXPECT_EQ(tree.lookup("live")->metadata().mtime, 1685577600u);
  EXPECT_EQ(tree.lookup("dangling")->metadata().mtime, 1640995200u);
  EXPECT_EQ(tree.lookup("dangling")->link_target(), "nowhere");
  fs::remove_all(src);
}

// ---------------------------------------------------------------- loader

// A directory holding what the loader must tell apart: nested and empty
// directories, files of modes 0600/0755/04755 and many sizes (some past a
// 4 KiB read), live, dangling and directory symlinks, and a FIFO.
fs::path loader_fixture(const std::string& tag) {
  fs::path src = fresh_dir(tag);
  fs::create_directories(src / "a/b/c");
  fs::create_directories(src / "empty");
  fs::create_directories(src / "a/empty2");
  Rng rng(4242);
  for (int i = 0; i < 120; ++i) {
    const fs::path dir = i % 3 == 0 ? src : i % 3 == 1 ? src / "a" : src / "a/b/c";
    write_file_bytes(dir / ("f" + std::to_string(i)),
                     rng.next_bytes(rng.next_range(0, 12000), 0.4));
  }
  write_file_bytes(src / "private", to_bytes("secret"));
  fs::permissions(src / "private", fs::perms(0600));
  write_file_bytes(src / "a/tool", to_bytes("#!/bin/sh\n"));
  fs::permissions(src / "a/tool", fs::perms(0755));
  write_file_bytes(src / "a/setuid", to_bytes("suid"));
  EXPECT_EQ(::chmod((src / "a/setuid").c_str(), 04755), 0);
  fs::create_symlink("f0", src / "live");
  fs::create_symlink("missing/target", src / "a/dangling");
  fs::create_directory_symlink("a/b", src / "dirlink");
  EXPECT_EQ(::mkfifo((src / "a/fifo").c_str(), 0644), 0);
  std::int64_t stamp = 1600000000;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    set_mtime(entry.path(), stamp += 97);
  }
  return src;
}

TEST(LoadTree, FourWideEqualsSerial) {
  // Contents are read as one task per file on the pool: any width loads
  // the tree the serial loader loads.
  fs::path src = loader_fixture("loader_wide");
  util::ThreadPool pool(4);
  vfs::FileTree serial = vfs::load_tree(src);
  vfs::FileTree wide = vfs::load_tree(src, {}, &pool);
  EXPECT_TRUE(wide.equals(serial));
  EXPECT_EQ(wide.stats().regular_files, 123u);
  fs::remove_all(src);
}

TEST(LoadTree, MatchesTheDiskEntryByEntry) {
  fs::path src = loader_fixture("loader_disk");
  util::ThreadPool pool(4);
  vfs::FileTree tree = vfs::load_tree(src, {}, &pool);

  std::size_t nodes = 0;
  tree.walk([&](const std::string& path, const vfs::FileNode& node) {
    ++nodes;
    const fs::path on_disk = src / path;
    struct stat st {};
    ASSERT_EQ(::lstat(on_disk.c_str(), &st), 0) << path;
    EXPECT_EQ(node.metadata().mode, st.st_mode & 07777) << path;
    EXPECT_EQ(node.metadata().mtime,
              static_cast<std::uint64_t>(st.st_mtim.tv_sec))
        << path;
    EXPECT_EQ(node.metadata().uid, 0u) << path;
    if (S_ISREG(st.st_mode)) {
      ASSERT_TRUE(node.is_regular()) << path;
      EXPECT_EQ(node.content(), read_file_bytes(on_disk)) << path;
    } else if (S_ISLNK(st.st_mode)) {
      ASSERT_TRUE(node.is_symlink()) << path;
      EXPECT_EQ(node.link_target(), fs::read_symlink(on_disk).string());
    } else {
      EXPECT_TRUE(S_ISDIR(st.st_mode) && node.is_directory()) << path;
    }
  });
  // Every entry but the FIFO, and nothing through the directory link.
  std::size_t on_disk = 0;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    on_disk += entry.is_fifo() ? 0 : 1;
  }
  EXPECT_EQ(nodes, on_disk);
  EXPECT_TRUE(tree.lookup("dirlink")->is_symlink());
  EXPECT_EQ(tree.lookup("a/setuid")->metadata().mode, 04755u);
  EXPECT_EQ(tree.lookup("private")->metadata().mode, 0600u);
  EXPECT_EQ(tree.lookup("a/tool")->metadata().mode, 0755u);
  EXPECT_TRUE(tree.lookup("empty")->children().empty());
  EXPECT_EQ(tree.lookup("a/fifo"), nullptr);
  fs::remove_all(src);
}

TEST(LoadTree, ErrorsNameThePath) {
  fs::path src = loader_fixture("loader_errors");
  util::ThreadPool pool(2);

  vfs::LoadOptions strict;
  strict.skip_special = false;
  try {
    vfs::load_tree(src, strict, &pool);
    ADD_FAILURE() << "expected kUnsupported";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
    EXPECT_NE(std::string(e.what()).find("a/fifo"), std::string::npos)
        << e.what();
  }

  vfs::LoadOptions budget;
  budget.max_total_bytes = 20000;
  try {
    vfs::load_tree(src, budget, &pool);
    ADD_FAILURE() << "expected kOutOfSpace";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfSpace);
    EXPECT_NE(std::string(e.what()).find("import exceeds byte budget at "),
              std::string::npos)
        << e.what();
  }

  for (const fs::path& bad : {src / "f0", src / "live", src / "no-such"}) {
    try {
      vfs::load_tree(bad, {}, &pool);
      ADD_FAILURE() << "expected kInvalidArgument for " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << bad;
      EXPECT_NE(std::string(e.what()).find(bad.string()), std::string::npos);
    }
  }
  fs::remove_all(src);
}

TEST(LoadTree, ModeZeroFileIsNamedOrRead) {
  // A file the process may not read fails the load naming its path; root,
  // whose reads ignore the mode, loads its bytes.
  fs::path src = loader_fixture("loader_unreadable");
  const Bytes content = read_file_bytes(src / "a/b/c/f2");
  fs::permissions(src / "a/b/c/f2", fs::perms::none);
  util::ThreadPool pool(2);
  if (::geteuid() == 0) {
    vfs::FileTree tree = vfs::load_tree(src, {}, &pool);
    EXPECT_EQ(tree.lookup("a/b/c/f2")->content(), content);
    EXPECT_EQ(tree.lookup("a/b/c/f2")->metadata().mode, 0u);
  } else {
    try {
      vfs::load_tree(src, {}, &pool);
      ADD_FAILURE() << "expected an error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("a/b/c/f2"), std::string::npos)
          << e.what();
    }
  }
  fs::permissions(src / "a/b/c/f2", fs::perms::owner_all);
  fs::remove_all(src);
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
