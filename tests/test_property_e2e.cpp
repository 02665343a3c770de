// Randomized end-to-end property tests and failure injection.
//
// These sweep seeds through whole-pipeline invariants:
//  * conversion is lossless (index + files reproduce the exact root fs);
//  * the Gear viewer and an Overlay2 mount agree on every path after
//    arbitrary interleaved reads/writes/deletes/mkdirs;
//  * commit composes (deploy(commit(c)) sees exactly c's view);
//  * corrupted registry content is detected, never silently served.
#include <gtest/gtest.h>

#include <map>

#include "docker/client.hpp"
#include "gear/client.hpp"
#include "gear/committer.hpp"
#include "gear/converter.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

docker::Image random_image(std::uint64_t seed, int files, int layers) {
  vfs::FileTree snapshot = gear::testing::random_tree(seed, files);
  docker::ImageBuilder b;
  b.add_snapshot(snapshot);
  for (int i = 1; i < layers; ++i) {
    snapshot = gear::testing::mutate_tree(snapshot, seed + static_cast<std::uint64_t>(i), 10);
    b.add_snapshot(snapshot);
  }
  return b.build("rnd" + std::to_string(seed), "v1", {});
}

// ---------------------------------------------------------- conversion

class ConversionLossless : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConversionLossless, EveryFileRecoverable) {
  docker::Image image = random_image(GetParam(), 40, 3);
  ConversionResult conv = GearConverter().convert(image);

  std::map<Fingerprint, Bytes> pool;
  for (auto& [fp, content] : conv.image.files) pool[fp] = content;

  vfs::FileTree flat = image.flatten();
  std::size_t files_checked = 0;
  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (!node.is_regular()) return;
    const vfs::FileNode* stub = conv.image.index.tree().lookup(path);
    ASSERT_NE(stub, nullptr) << path;
    ASSERT_TRUE(stub->is_fingerprint()) << path;
    EXPECT_EQ(pool.at(stub->fingerprint()), node.content()) << path;
    ++files_checked;
  });
  EXPECT_EQ(files_checked, conv.stats.files_seen);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConversionLossless,
                         ::testing::Range<std::uint64_t>(2000, 2012));

// ------------------------------------------------- viewer/overlay fuzz

/// Applies the same random operation sequence to a Gear viewer (index +
/// diff) and to an Overlay2 mount over the equivalent plain tree, then
/// checks that both expose identical views.
class ViewerOverlayEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewerOverlayEquivalence, FuzzedOpsAgree) {
  std::uint64_t seed = GetParam();
  vfs::FileTree root = gear::testing::random_tree(seed, 30);

  // Gear side: index with stubs + pool.
  std::map<Fingerprint, Bytes> pool;
  GearIndex index = GearIndex::from_root_fs(
      root, [&pool](const std::string&, const Bytes& content) {
        Fingerprint fp = default_hasher().fingerprint(content);
        pool[fp] = content;
        return fp;
      });
  vfs::FileTree index_tree = std::move(index.tree());
  vfs::FileTree diff_tree;
  GearFileViewer viewer(index_tree, diff_tree,
                        [&pool](const std::string&, const Fingerprint& fp,
                                std::uint64_t) {
                          return pool.at(fp);
                        });

  // Reference side: overlay over the plain root.
  docker::OverlayMount overlay({&root});

  // Collect candidate paths, and the directories among them.
  std::vector<std::string> paths;
  std::vector<std::string> dirs;
  root.walk([&](const std::string& p, const vfs::FileNode& node) {
    paths.push_back(p);
    if (node.is_directory()) dirs.push_back(p);
  });
  ASSERT_FALSE(dirs.empty());

  Rng rng(seed * 31 + 5);
  for (int op = 0; op < 120; ++op) {
    double roll = rng.next_double();
    const std::string& target = paths[rng.next_below(paths.size())];
    if (roll < 0.45) {
      // Read through both; must agree in kind and content.
      StatusOr<Bytes> a = viewer.read_file(target);
      StatusOr<Bytes> b = overlay.read_file(target);
      ASSERT_EQ(a.ok(), b.ok()) << target;
      if (a.ok()) {
        EXPECT_EQ(*a, *b) << target;
      }
    } else if (roll < 0.65) {
      // Half the writes aim at a directory, which stays one (EISDIR).
      const std::string& file =
          rng.next_below(2) == 0 ? dirs[rng.next_below(dirs.size())] : target;
      const vfs::FileNode* before = overlay.lookup(file).node;
      const bool onto_dir = before != nullptr && before->is_directory();
      Bytes content = rng.next_bytes(rng.next_range(1, 256), 0.4);
      bool viewer_ok = true, overlay_ok = true;
      try {
        viewer.write_file(file, content);
      } catch (const Error&) {
        viewer_ok = false;
      }
      try {
        overlay.write_file(file, content);
      } catch (const Error&) {
        overlay_ok = false;
      }
      EXPECT_EQ(viewer_ok, overlay_ok) << file;
      if (onto_dir) {
        EXPECT_FALSE(overlay_ok) << file;
      }
    } else if (roll < 0.8) {
      EXPECT_EQ(viewer.remove(target), overlay.remove(target)) << target;
    } else if (roll < 0.9) {
      // A directory at or below the target; below a file, both must fail.
      const std::string dir =
          rng.next_below(2) == 0 ? target : target + "/made";
      const vfs::FileNode* before = overlay.lookup(dir).node;
      const bool onto_file = before != nullptr && !before->is_directory();
      bool viewer_ok = true, overlay_ok = true;
      try {
        viewer.make_dir(dir);
      } catch (const Error&) {
        viewer_ok = false;
      }
      try {
        overlay.make_dir(dir);
      } catch (const Error&) {
        overlay_ok = false;
      }
      EXPECT_EQ(viewer_ok, overlay_ok) << dir;
      if (onto_file) {
        EXPECT_FALSE(overlay_ok) << dir;  // EEXIST
      }
    } else {
      // Listing comparison on a random directory.
      bool viewer_threw = false, overlay_threw = false;
      std::vector<std::string> lv, lo;
      try {
        lv = viewer.list_dir(target);
      } catch (const Error&) {
        viewer_threw = true;
      }
      try {
        lo = overlay.list_dir(target);
      } catch (const Error&) {
        overlay_threw = true;
      }
      ASSERT_EQ(viewer_threw, overlay_threw) << target;
      if (!viewer_threw) {
        EXPECT_EQ(lv, lo) << target;
      }
    }
  }

  // Final sweep: every original path agrees on existence and content.
  for (const std::string& p : paths) {
    ASSERT_EQ(viewer.exists(p), overlay.exists(p)) << p;
    StatusOr<Bytes> a = viewer.read_file(p);
    StatusOr<Bytes> b = overlay.read_file(p);
    ASSERT_EQ(a.ok(), b.ok()) << p;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewerOverlayEquivalence,
                         ::testing::Range<std::uint64_t>(3000, 3016));

// ------------------------------------------------------- commit compose

class CommitCompose : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CommitCompose, DeployOfCommitSeesContainerView) {
  std::uint64_t seed = GetParam();
  docker::Image image = random_image(seed, 30, 2);

  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  ConversionResult conv = GearConverter().convert(image);
  push_gear_image(conv.image, index_registry, file_registry);

  sim::SimClock clock;
  sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
  sim::DiskModel disk = sim::DiskModel::ssd(clock);
  GearClient client(index_registry, file_registry, link, disk);
  std::string ref = image.manifest.reference();
  client.pull(ref);
  std::string container = client.store().create_container(ref);
  GearFileViewer viewer = client.open_viewer(container);

  // Random mutations in the container.
  Rng rng(seed + 77);
  vfs::FileTree expected = image.flatten();
  std::vector<std::string> files;
  expected.walk([&files](const std::string& p, const vfs::FileNode& n) {
    if (n.is_regular()) files.push_back(p);
  });
  for (int i = 0; i < 10; ++i) {
    double roll = rng.next_double();
    if (roll < 0.5) {
      std::string path = "newdir/file" + std::to_string(i);
      Bytes content = rng.next_bytes(rng.next_range(1, 300), 0.4);
      viewer.write_file(path, content);
      expected.add_file(path, content);
    } else if (!files.empty()) {
      std::size_t idx = rng.next_below(files.size());
      viewer.remove(files[idx]);
      expected.remove(files[idx]);
      files.erase(files.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }

  CommitResult commit = GearCommitter().commit(
      client.store().index_tree(ref), viewer.diff(), {}, "committed", "v2");
  push_gear_image(commit.image, index_registry, file_registry);

  client.pull("committed:v2");
  std::string c2 = client.store().create_container("committed:v2");
  GearFileViewer v2 = client.open_viewer(c2);

  expected.walk([&](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular()) {
      EXPECT_EQ(v2.read_file(path).value(), node.content()) << path;
    } else if (node.is_symlink()) {
      EXPECT_EQ(v2.read_symlink(path).value(), node.link_target()) << path;
    }
  });
  // Nothing extra: removed files stay gone.
  for (const auto& stub : commit.image.index.stubs()) {
    EXPECT_NE(expected.lookup(stub.path), nullptr) << stub.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommitCompose,
                         ::testing::Range<std::uint64_t>(4000, 4010));

// ---------------------------------------------------- failure injection

TEST(FailureInjection, CorruptLayerBlobDetectedOnPull) {
  docker::Image image = random_image(5000, 20, 2);
  docker::DockerRegistry registry;
  registry.push_image(image);

  // Corrupt one blob in place (simulate bit rot) by re-inserting garbage
  // under the original digest via a hostile registry replica.
  class HostileRegistry : public docker::DockerRegistry {};
  // put_blob validates digests, so emulate transport corruption instead:
  // a client that receives flipped bytes must reject them.
  Bytes blob = registry.get_blob(image.manifest.layers[0].digest).value();
  blob[blob.size() / 2] ^= 0xff;
  EXPECT_THROW(docker::Layer::from_blob(std::move(blob),
                                        image.manifest.layers[0].digest),
               Error);
}

TEST(FailureInjection, GearFileSizeMismatchDetected) {
  docker::Image image = random_image(5001, 10, 1);
  ConversionResult conv = GearConverter().convert(image);

  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  push_gear_image(conv.image, index_registry, file_registry);

  // Tamper: upload different content under a fingerprint the index uses by
  // building a hostile registry where one object is swapped.
  GearRegistry hostile;
  bool first = true;
  for (const auto& [fp, content] : conv.image.files) {
    if (first && content.size() > 1) {
      Bytes other = content;
      other.pop_back();  // wrong size: must be caught at materialization
      hostile.upload(fp, other);
      first = false;
    } else {
      hostile.upload(fp, content);
    }
  }

  sim::SimClock clock;
  sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
  sim::DiskModel disk = sim::DiskModel::ssd(clock);
  GearClient client(index_registry, hostile, link, disk);
  std::string ref = image.manifest.reference();

  workload::AccessSet everything;
  image.flatten().walk([&](const std::string& p, const vfs::FileNode& n) {
    if (n.is_regular()) {
      everything.files.push_back(
          {p, n.content().size(), default_hasher().fingerprint(n.content())});
    }
  });
  EXPECT_THROW(client.deploy(ref, everything), Error);
}

TEST(FailureInjection, MissingGearFileSurfacesNotFound) {
  docker::Image image = random_image(5002, 8, 1);
  ConversionResult conv = GearConverter().convert(image);
  docker::DockerRegistry index_registry;
  GearRegistry empty_files;  // index pushed, files "lost"
  index_registry.push_image(conv.image.index_image);

  sim::SimClock clock;
  sim::NetworkLink link(clock, 904.0, 0.0005, 0.0003);
  sim::DiskModel disk = sim::DiskModel::ssd(clock);
  GearClient client(index_registry, empty_files, link, disk);
  client.pull(image.manifest.reference());
  std::string container =
      client.store().create_container(image.manifest.reference());
  GearFileViewer viewer = client.open_viewer(container);

  bool threw = false;
  image.flatten().walk([&](const std::string& p, const vfs::FileNode& n) {
    if (!n.is_regular() || threw) return;
    try {
      viewer.read_file(p).value();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNotFound);
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(FailureInjection, TruncatedIndexLayerRejected) {
  docker::Image image = random_image(5003, 10, 1);
  ConversionResult conv = GearConverter().convert(image);
  Bytes blob = conv.image.index_image.layers[0].blob();
  blob.resize(blob.size() / 2);
  EXPECT_THROW(
      {
        docker::Layer layer = docker::Layer::from_blob(std::move(blob));
        GearIndex::from_layer(layer);
      },
      Error);
}

}  // namespace
}  // namespace gear
