// Unit tests for the Gear Converter, including hash-collision handling and
// timed (Fig. 6 style) conversion.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "compress/codec.hpp"
#include "docker/image.hpp"
#include "docker/registry.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/registry.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "reference_index.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace gear {
namespace {

docker::Image two_layer_image(std::uint64_t seed) {
  vfs::FileTree s0 = gear::testing::random_tree(seed, 25);
  vfs::FileTree s1 = gear::testing::mutate_tree(s0, seed + 1, 10);
  docker::ImageBuilder b;
  b.add_snapshot(s0).add_snapshot(s1);
  docker::ImageConfig cfg;
  cfg.env = {"APP=demo"};
  cfg.entrypoint = {"/bin/demo"};
  return b.build("demo", "v1", cfg);
}

TEST(Converter, IndexMatchesFlattenedImage) {
  docker::Image image = two_layer_image(500);
  ConversionResult result = GearConverter().convert(image);

  vfs::FileTree root = image.flatten();
  vfs::TreeStats root_stats = root.stats();
  EXPECT_EQ(result.stats.files_seen, root_stats.regular_files);
  EXPECT_EQ(result.stats.bytes_seen, root_stats.total_file_bytes);
  EXPECT_EQ(result.image.index.referenced_bytes(),
            root_stats.total_file_bytes);

  // Every stub resolves to a produced Gear file with matching content hash.
  std::map<Fingerprint, const Bytes*> files;
  for (const auto& [fp, content] : result.image.files) {
    files[fp] = &content;
  }
  for (const auto& stub : result.image.index.stubs()) {
    auto it = files.find(stub.fingerprint);
    ASSERT_NE(it, files.end()) << stub.path;
    const vfs::FileNode* orig = root.lookup(stub.path);
    ASSERT_NE(orig, nullptr);
    EXPECT_EQ(*it->second, orig->content()) << stub.path;
  }
}

TEST(Converter, ReconstructionIsLossless) {
  // Materializing every stub must reproduce the original root filesystem.
  docker::Image image = two_layer_image(510);
  ConversionResult result = GearConverter().convert(image);

  std::map<Fingerprint, Bytes> pool;
  for (auto& [fp, content] : result.image.files) pool[fp] = content;

  vfs::FileTree rebuilt;
  rebuilt.root().metadata() = result.image.index.tree().root().metadata();
  result.image.index.tree().walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        switch (node.type()) {
          case vfs::NodeType::kDirectory:
            rebuilt.add_directory(path, node.metadata());
            break;
          case vfs::NodeType::kSymlink:
            rebuilt.add_symlink(path, node.link_target(), node.metadata());
            break;
          case vfs::NodeType::kFingerprint:
            rebuilt.add_file(path, pool.at(node.fingerprint()),
                             node.metadata());
            break;
          default:
            FAIL() << "unexpected node at " << path;
        }
      });
  EXPECT_TRUE(rebuilt.equals(image.flatten()));
}

TEST(Converter, DuplicateContentProducesOneGearFile) {
  vfs::FileTree root;
  root.add_file("a/x", to_bytes("shared-bytes"));
  root.add_file("b/y", to_bytes("shared-bytes"));
  root.add_file("c/z", to_bytes("unique-bytes"));
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("dup", "1", {});

  ConversionResult result = GearConverter().convert(image);
  EXPECT_EQ(result.stats.files_seen, 3u);
  EXPECT_EQ(result.stats.files_unique, 2u);
  EXPECT_EQ(result.stats.collisions, 0u);
}

TEST(Converter, IndexImageIsSingleLayerWithConfigAndLabel) {
  docker::Image image = two_layer_image(520);
  ConversionResult result = GearConverter().convert(image);
  const docker::Image& idx = result.image.index_image;
  EXPECT_EQ(idx.layers.size(), 1u);
  EXPECT_EQ(idx.manifest.name, "demo");
  EXPECT_EQ(idx.manifest.tag, "v1");
  // Original env/entrypoint copied (paper §III-C).
  EXPECT_EQ(idx.manifest.config.env, image.manifest.config.env);
  EXPECT_EQ(idx.manifest.config.entrypoint, image.manifest.config.entrypoint);
  EXPECT_EQ(idx.manifest.config.labels.at(kGearIndexLabel), "1");
  // And the index layer is much smaller than the original image.
  EXPECT_LT(idx.compressed_size(), image.compressed_size());
}

TEST(Converter, CollisionDetectedWithWeakHash) {
  // An 8-bit hash collides constantly; contents must still be kept distinct
  // through salted unique IDs (paper §III-B collision handling).
  TruncatedFingerprintHasher weak(8);
  vfs::FileTree root;
  Rng rng(530);
  const int kFiles = 120;  // >> 256 would guarantee; 120 makes it very likely
  for (int i = 0; i < kFiles; ++i) {
    root.add_file("f/" + std::to_string(i), rng.next_bytes(64));
  }
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("weak", "1", {});

  ConversionResult result = GearConverter(weak).convert(image);
  EXPECT_GT(result.stats.collisions, 0u);
  // Correctness first: every distinct content keeps its own Gear file.
  EXPECT_EQ(result.stats.files_unique, static_cast<std::size_t>(kFiles));
  // All assigned fingerprints distinct.
  std::set<Fingerprint> fps;
  for (const auto& [fp, content] : result.image.files) {
    (void)content;
    EXPECT_TRUE(fps.insert(fp).second);
  }
  // And every stub still resolves to the right content.
  std::map<Fingerprint, Bytes> pool;
  for (auto& [fp, content] : result.image.files) pool[fp] = content;
  vfs::FileTree flat = image.flatten();
  for (const auto& stub : result.image.index.stubs()) {
    EXPECT_EQ(pool.at(stub.fingerprint), flat.lookup(stub.path)->content());
  }
}

TEST(Converter, CollisionAgainstExistingRegistryContent) {
  TruncatedFingerprintHasher weak(4);  // 16 possible fingerprints
  GearRegistry registry;
  Bytes original = to_bytes("original-content");
  Fingerprint fp0 = weak.fingerprint(original);
  registry.upload(fp0, original);

  // Find content colliding with fp0 under the weak hash.
  Rng rng(540);
  Bytes collider;
  for (;;) {
    collider = rng.next_bytes(24);
    if (weak.fingerprint(collider) == fp0 && collider != original) break;
  }

  vfs::FileTree root;
  root.add_file("c", collider);
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("coll", "1", {});

  GearConverter converter(weak, &registry);
  ConversionResult result = converter.convert(image);
  EXPECT_EQ(result.stats.collisions, 1u);
  ASSERT_EQ(result.image.files.size(), 1u);
  EXPECT_NE(result.image.files[0].first, fp0);  // salted unique ID
}

TEST(Converter, DedupAgainstExistingRegistryContent) {
  GearRegistry registry;
  Bytes shared = to_bytes("already-stored");
  Fingerprint fp = default_hasher().fingerprint(shared);
  registry.upload(fp, shared);

  vfs::FileTree root;
  root.add_file("s", shared);
  docker::ImageBuilder b;
  b.add_snapshot(root);
  docker::Image image = b.build("dedup", "1", {});

  GearConverter converter(default_hasher(), &registry);
  ConversionResult result = converter.convert(image);
  EXPECT_EQ(result.stats.collisions, 0u);
  ASSERT_EQ(result.image.files.size(), 1u);
  EXPECT_EQ(result.image.files[0].first, fp);  // same fingerprint: dedup
}

TEST(Converter, TimedConversionScalesWithSizeAndDisk) {
  docker::Image small = two_layer_image(550);
  vfs::FileTree big_tree = gear::testing::random_tree(551, 120, 32768);
  docker::ImageBuilder bb;
  bb.add_snapshot(big_tree);
  docker::Image big = bb.build("big", "1", {});

  sim::SimClock clock;
  sim::DiskModel hdd = sim::DiskModel::hdd(clock);
  double t_small = 0, t_big = 0;
  GearConverter converter;
  converter.convert_timed(small, hdd, &t_small);
  converter.convert_timed(big, hdd, &t_big);
  EXPECT_GT(t_big, t_small);

  // SSD conversion markedly faster than HDD (paper: node 105 s -> 36 s).
  sim::SimClock clock2;
  sim::DiskModel ssd = sim::DiskModel::ssd(clock2);
  double t_big_ssd = 0;
  converter.convert_timed(big, ssd, &t_big_ssd);
  EXPECT_GT(t_big, t_big_ssd * 2);
}

TEST(Converter, ConversionIsDeterministic) {
  docker::Image image = two_layer_image(560);
  ConversionResult a = GearConverter().convert(image);
  ConversionResult b = GearConverter().convert(image);
  EXPECT_TRUE(a.image.index.tree().equals(b.image.index.tree()));
  EXPECT_EQ(a.image.files.size(), b.image.files.size());
  EXPECT_EQ(a.image.index_image.layers[0].digest(),
            b.image.index_image.layers[0].digest());
}

// --- Tree entry point and the batched collision probe ----------------------

/// A random merged tree with symlinks (one dangling), empty directories,
/// duplicate contents, and varied modes, owners and mtimes on every node.
vfs::FileTree varied_tree(std::uint64_t seed) {
  vfs::FileTree tree = gear::testing::random_tree(seed, 60);
  Rng rng(seed ^ 0x5eedu);
  tree.add_directory("srv/empty");
  tree.add_directory("opt/app/cache/empty");
  Bytes shared = rng.next_bytes(700, 0.5);
  for (int i = 0; i < 4; ++i) {
    tree.add_file("dup/copy" + std::to_string(i), shared);
  }
  tree.add_symlink("dup/latest", "copy3");
  tree.add_symlink("srv/dangling", "../nowhere");
  std::vector<std::string> paths;
  tree.walk([&paths](const std::string& path, const vfs::FileNode& node) {
    (void)node;
    paths.push_back(path);
  });
  const std::uint32_t kModes[] = {0644, 0755, 0600, 0444, 04755, 01777};
  for (const std::string& path : paths) {
    vfs::Metadata& meta = tree.lookup(path)->metadata();
    meta.mode = kModes[rng.next_below(std::size(kModes))];
    meta.uid = static_cast<std::uint32_t>(rng.next_below(70000));
    meta.gid = static_cast<std::uint32_t>(rng.next_below(70000));
    meta.mtime = 1'500'000'000 + rng.next_below(200'000'000);
  }
  return tree;
}

void expect_same_conversion(const ConversionResult& a,
                            const ConversionResult& b) {
  EXPECT_TRUE(a.image.index.tree().equals(b.image.index.tree()));
  ASSERT_EQ(a.image.index_image.layers.size(), 1u);
  ASSERT_EQ(b.image.index_image.layers.size(), 1u);
  EXPECT_EQ(a.image.index_image.layers[0].digest(),
            b.image.index_image.layers[0].digest());
  EXPECT_TRUE(a.image.index_image.layers[0].blob() ==
              b.image.index_image.layers[0].blob());
  EXPECT_EQ(a.image.index_image.manifest.to_json_string(),
            b.image.index_image.manifest.to_json_string());
  EXPECT_TRUE(a.image.files == b.image.files);
  EXPECT_EQ(a.stats.files_seen, b.stats.files_seen);
  EXPECT_EQ(a.stats.files_unique, b.stats.files_unique);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
  EXPECT_EQ(a.stats.bytes_seen, b.stats.bytes_seen);
  EXPECT_EQ(a.stats.index_wire_bytes, b.stats.index_wire_bytes);
}

std::string numbered(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03zu", prefix, i);
  return buf;
}

TEST(Converter, DirectTreeMatchesLayeredImage) {
  // Converting the tree itself must give exactly what packing it into a
  // classic layer and converting that image gives: index, index-layer
  // bytes, manifest, Gear files and stats — salted IDs included.
  TruncatedFingerprintHasher weak(8);
  docker::ImageConfig cfg;
  cfg.env = {"APP=demo"};
  cfg.entrypoint = {"/bin/demo"};
  cfg.labels["origin"] = "test";
  for (std::uint64_t seed : {600u, 601u, 602u, 603u}) {
    SCOPED_TRACE(seed);
    vfs::FileTree tree = varied_tree(seed);
    docker::ImageBuilder b;
    b.add_snapshot(tree);
    docker::Image image = b.build("eq", "v1", cfg);
    for (const FingerprintHasher* hasher :
         {&default_hasher(), static_cast<const FingerprintHasher*>(&weak)}) {
      ConversionResult layered = GearConverter(*hasher).convert(image);
      ConversionResult direct =
          GearConverter(*hasher).convert(tree, "eq", "v1", cfg);
      expect_same_conversion(layered, direct);
      if (hasher == &weak) {
        EXPECT_GT(direct.stats.collisions, 0u);
      }
    }
  }
}

TEST(Converter, ConvertLeavesACallersTreeAlone) {
  // convert takes its tree by value: an lvalue goes in as a copy, so the
  // caller's bytes stay where they were.
  vfs::FileTree tree = varied_tree(610);
  const vfs::FileTree before = tree;
  ConversionResult result = GearConverter().convert(tree, "keep", "v1", {});
  EXPECT_GT(result.image.files.size(), 0u);
  EXPECT_TRUE(tree.equals(before));
}

TEST(Converter, EveryStubKeepsItsFilesSize) {
  // A unique file's bytes move out of the consumed tree while its stub is
  // built; the stub's size is the file's, and the index layer is the one
  // the reference composition writes for an index built without moving.
  TruncatedFingerprintHasher weak(8);
  for (const FingerprintHasher* hasher :
       {&default_hasher(), static_cast<const FingerprintHasher*>(&weak)}) {
    vfs::FileTree tree = varied_tree(611);
    std::map<std::string, std::uint64_t> sizes;
    tree.walk([&](const std::string& path, const vfs::FileNode& node) {
      if (node.is_regular()) sizes[path] = node.content().size();
    });
    ConversionResult result =
        GearConverter(*hasher).convert(vfs::FileTree(tree), "size", "v1", {});
    std::size_t stubs = 0;
    for (const GearIndex::StubRef& stub : result.image.index.stubs()) {
      EXPECT_EQ(stub.size, sizes.at(stub.path)) << stub.path;
      ++stubs;
    }
    EXPECT_EQ(stubs, sizes.size());
    EXPECT_EQ(result.image.index.referenced_bytes(),
              tree.stats().total_file_bytes);

    // The same fingerprints on an index built from a copy, nothing moved.
    std::map<std::string, Fingerprint> fps;
    for (const GearIndex::StubRef& stub : result.image.index.stubs()) {
      fps[stub.path] = stub.fingerprint;
    }
    const GearIndex unmoved = GearIndex::from_root_fs(
        tree, [&](const std::string& path, const Bytes&) {
          return fps.at(path);
        });
    const docker::Layer want = gear::testing::reference_index_layer(unmoved);
    EXPECT_EQ(result.image.index_image.layers.at(0).digest(), want.digest());
    EXPECT_EQ(result.stats.index_wire_bytes, want.compressed_size());
  }
}

TEST(Converter, GearFilesOwnTheirBytes) {
  // Each unique file's bytes live in GearImage::files, equal to every
  // source file its fingerprint stands for (salted IDs included), after
  // the source tree is gone.
  TruncatedFingerprintHasher weak(8);
  vfs::FileTree tree = varied_tree(612);
  const vfs::FileTree source = tree;
  ConversionResult result = GearConverter(weak).convert(std::move(tree), "own",
                                                        "v1", {});
  EXPECT_GT(result.stats.collisions, 0u);
  std::map<Fingerprint, const Bytes*> bytes_of;
  for (const auto& [fp, bytes] : result.image.files) {
    EXPECT_TRUE(bytes_of.emplace(fp, &bytes).second) << fp.hex();
  }
  for (const GearIndex::StubRef& stub : result.image.index.stubs()) {
    ASSERT_EQ(bytes_of.count(stub.fingerprint), 1u) << stub.path;
    EXPECT_EQ(*bytes_of.at(stub.fingerprint),
              source.lookup(stub.path)->content())
        << stub.path;
  }
}

TEST(Converter, ReservedWhiteoutNameFailsBeforeAnyProbe) {
  // A ".wh." name is a layer whiteout, which a Gear index cannot carry:
  // conversion refuses it, naming the path, before any registry traffic.
  for (const char* path : {"etc/.wh.keep", ".wh.cache", "usr/.wh..wh..opq"}) {
    SCOPED_TRACE(path);
    vfs::FileTree tree = gear::testing::sample_tree();
    if (std::string(path) == ".wh.cache") {
      tree.add_file(".wh.cache/entry", to_bytes("kept"));  // a directory
    } else if (std::string(path) == "usr/.wh..wh..opq") {
      tree.add_symlink(path, "bin");
    } else {
      tree.add_file(path, to_bytes("kept"));
    }
    GearRegistry backend;
    net::LoopbackTransport transport(backend);
    net::RemoteGearRegistry remote(transport);
    GearConverter converter(default_hasher(), &remote);
    try {
      converter.convert(tree, "wh", "v1", {});
      FAIL() << "converted a tree holding " << path;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(transport.server_stats().round_trips.load(), 0u);
  }
}

TEST(Converter, ProbeFailureIsAnErrorNamingTheFingerprint) {
  // A stored object that no longer decodes is not "absent": conversion
  // must fail naming it, in process and over the wire alike, rather than
  // treat the file as new and let push skip it as present.
  GearRegistry registry;
  vfs::FileTree tree = gear::testing::random_tree(640, 80);
  Bytes damaged_content = to_bytes("damaged on disk");
  tree.add_file("var/data/damaged", damaged_content);
  docker::DockerRegistry index_registry;
  push_gear_image(GearConverter().convert(tree, "bad", "v1", {}).image,
                  index_registry, registry);
  Fingerprint fp = default_hasher().fingerprint(damaged_content);
  ASSERT_GT(registry.remove(fp), 0u);
  Bytes frame = compress(damaged_content);
  frame[0] ^= 0xFF;  // GZC1 magic overwritten, as by bit rot
  registry.upload_precompressed(fp, std::move(frame));

  net::LoopbackTransport transport(registry);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  for (const FileRegistryApi* files :
       {static_cast<const FileRegistryApi*>(&registry),
        static_cast<const FileRegistryApi*>(&remote)}) {
    GearConverter converter(default_hasher(), files);
    converter.set_concurrency(util::Concurrency{2});
    try {
      converter.convert(tree, "bad", "v2", {});
      FAIL() << "probe failure read as a miss";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
      EXPECT_NE(std::string(e.what()).find(fp.hex()), std::string::npos)
          << e.what();
    }
  }
}

/// Claims every fingerprint is stored: downloads still answer kNotFound for
/// the missing ones, as when an object is collected between the probe's
/// query and its fetch.
class StaleQueryRegistry final : public GearRegistry {
 public:
  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override {
    return std::vector<std::uint8_t>(fps.size(), 1);
  }
};

TEST(Converter, FileGoneSinceTheQueryStaysAMiss) {
  StaleQueryRegistry registry;
  vfs::FileTree base = gear::testing::random_tree(650, 40);
  docker::DockerRegistry index_registry;
  push_gear_image(GearConverter().convert(base, "gone", "v1", {}).image,
                  index_registry, registry);
  vfs::FileTree next = gear::testing::mutate_tree(base, 651, 12);

  GearConverter converter(default_hasher(), &registry);
  ConversionResult probed = converter.convert(next, "gone", "v2", {});
  ConversionResult unprobed = GearConverter().convert(next, "gone", "v2", {});
  expect_same_conversion(probed, unprobed);
}

TEST(ConverterProbe, FrameCountsOverTheWire) {
  // First import of N distinct files: one query frame, nothing to verify.
  // Re-import: the query plus ⌈N/64⌉ digest slices — not one frame per
  // file, and not one download.
  GearRegistry backend;
  net::LoopbackTransport transport(backend);
  net::RemoteGearRegistry remote(transport);
  const net::LoopbackServerStats& wire = transport.server_stats();

  const std::size_t kDistinct = 150;
  vfs::FileTree tree;
  Rng rng(610);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    tree.add_file(numbered("f/", i), rng.next_bytes(100 + i, 0.5));
  }
  tree.add_file("g/dup", tree.lookup("f/007")->content());  // not distinct

  GearConverter converter(default_hasher(), &remote);
  converter.set_concurrency(util::Concurrency{2});
  std::uint64_t frames = wire.round_trips.load();
  ConversionResult first = converter.convert(tree, "wire", "v1", {});
  EXPECT_EQ(wire.round_trips.load() - frames, 1u);
  EXPECT_EQ(wire.query_items.load(), kDistinct);
  EXPECT_EQ(wire.digest_items.load(), 0u);

  docker::DockerRegistry index_registry;
  ASSERT_EQ(push_gear_image(first.image, index_registry, remote), kDistinct);

  frames = wire.round_trips.load();
  ConversionResult again = converter.convert(tree, "wire", "v2", {});
  const std::uint64_t slices =
      (kDistinct + kMaxBatchFiles - 1) / kMaxBatchFiles;
  EXPECT_EQ(wire.round_trips.load() - frames, 1u + slices);
  EXPECT_EQ(wire.digest_round_trips.load(), slices);
  EXPECT_EQ(wire.digest_items.load(), kDistinct);
  EXPECT_EQ(wire.download_items.load(), 0u);
  EXPECT_TRUE(again.image.files == first.image.files);
  EXPECT_EQ(again.stats.collisions, 0u);
}

TEST(ConverterProbe, ReimportMovesDigestsNotContent) {
  // A re-import's probe answers carry a query item and a 32-byte digest per
  // distinct file, whatever the files weigh: at most 72 B per file plus
  // 64 B of framing per frame, where shipping the stored copies would
  // cost their whole compressed size.
  GearRegistry backend;
  net::LoopbackTransport transport(backend);
  net::RemoteGearRegistry remote(transport);
  const net::LoopbackServerStats& wire = transport.server_stats();

  const std::size_t kDistinct = 100;
  vfs::FileTree tree;
  Rng rng(615);
  for (std::size_t i = 0; i < kDistinct; ++i) {
    tree.add_file(numbered("f/", i), rng.next_bytes(2000 + 40 * i, 0.3));
  }
  GearConverter converter(default_hasher(), &remote);
  converter.set_concurrency(util::Concurrency{2});
  ConversionResult first = converter.convert(tree, "wire", "v1", {});
  docker::DockerRegistry index_registry;
  ASSERT_EQ(push_gear_image(first.image, index_registry, remote), kDistinct);

  const std::uint64_t frames = wire.round_trips.load();
  const std::uint64_t bytes_out = wire.bytes_out.load();
  ConversionResult again = converter.convert(tree, "wire", "v2", {});
  const std::uint64_t bound =
      72 * kDistinct + 64 * (wire.round_trips.load() - frames);
  EXPECT_LE(wire.bytes_out.load() - bytes_out, bound);
  EXPECT_GT(backend.storage_bytes(), 10 * bound);  // what downloads would move
  EXPECT_EQ(wire.download_items.load(), 0u);
  EXPECT_TRUE(again.image.files == first.image.files);
  EXPECT_EQ(again.stats.collisions, 0u);
}

TEST(ConverterProbe, WeakHashCollisionAmongBatchedHitsKeepsItsSaltedId) {
  // 200 stored files, all re-imported (4 probe slices), plus one file that
  // collides with the 101st under a 16-bit hash. The collider gets the
  // salted ID hash(content || 0x01 || 0x01) — the first salt of the
  // per-file probe — and costs one single lookup; every other file dedups.
  TruncatedFingerprintHasher weak(16);
  GearRegistry backend;
  Rng rng(620);
  std::vector<Bytes> stored;
  std::set<Fingerprint> taken;
  while (stored.size() < 200) {
    Bytes content = rng.next_bytes(64 + stored.size());
    Fingerprint fp = weak.fingerprint(content);
    if (!taken.insert(fp).second) continue;
    backend.upload(fp, content);
    stored.push_back(std::move(content));
  }
  const Fingerprint target = weak.fingerprint(stored[100]);
  Bytes collider;
  do {
    collider = rng.next_bytes(48);
  } while (weak.fingerprint(collider) != target);
  Bytes salted = collider;
  salted.push_back(0x01);
  salted.push_back(0x01);
  const Fingerprint expected = weak.fingerprint(salted);
  ASSERT_EQ(taken.count(expected), 0u);  // one salt resolves it

  vfs::FileTree tree;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    tree.add_file(numbered("f/", i), stored[i]);
  }
  tree.add_file("f/100c", collider);  // walks right after f/100

  net::LoopbackTransport transport(backend);
  net::RemoteGearRegistry remote(transport, 3, /*verify_content=*/false);
  GearConverter converter(weak, &remote);
  converter.set_concurrency(util::Concurrency{2});
  std::uint64_t frames = transport.server_stats().round_trips.load();
  ConversionResult result = converter.convert(tree, "weak", "v1", {});

  EXPECT_EQ(result.stats.collisions, 1u);
  EXPECT_EQ(result.stats.files_unique, stored.size() + 1);
  const vfs::FileTree& index = result.image.index.tree();
  EXPECT_EQ(index.lookup("f/100c")->fingerprint(), expected);
  for (std::size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(index.lookup(numbered("f/", i))->fingerprint(),
              weak.fingerprint(stored[i]));
  }
  // One query, ⌈200/64⌉ = 4 slices, one single lookup of the salted ID.
  EXPECT_EQ(transport.server_stats().round_trips.load() - frames, 6u);
}

TEST(ConcurrentConverterProbe, FourWideAndSerialDecompressionAgree) {
  // The probe hashes the local files on the converter's pool, and an
  // in-process registry reads, decompresses and hashes its copies on the
  // same pool; results are placed by index and only verdicts survive, so a
  // 4-wide and a 1-wide pool must convert identically, against an
  // in-process registry and through the wire stub.
  GearRegistry registry;
  vfs::FileTree base = gear::testing::random_tree(630, 260, 8192);
  docker::DockerRegistry index_registry;
  push_gear_image(GearConverter().convert(base, "probe", "v1", {}).image,
                  index_registry, registry);
  ASSERT_GE(registry.object_count(), 200u);
  vfs::FileTree next = gear::testing::mutate_tree(base, 631, 40);

  net::LoopbackTransport transport(registry);
  net::RemoteGearRegistry remote(transport);
  for (const FileRegistryApi* files :
       {static_cast<const FileRegistryApi*>(&registry),
        static_cast<const FileRegistryApi*>(&remote)}) {
    std::vector<ConversionResult> results;
    for (std::size_t width : {4u, 1u}) {
      GearConverter converter(default_hasher(), files);
      converter.set_concurrency(util::Concurrency{width});
      results.push_back(converter.convert(next, "probe", "v2", {}));
    }
    expect_same_conversion(results[0], results[1]);
    EXPECT_GE(results[0].stats.files_seen, 200u);
  }
}

}  // namespace
}  // namespace gear
