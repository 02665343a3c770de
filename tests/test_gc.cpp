// Tests for registry-side mark-and-sweep garbage collection.
#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/gc.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gear {
namespace {

struct GcFixture : ::testing::Test {
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  GearConverter converter;

  docker::Image make_image(std::uint64_t seed, const std::string& name) {
    vfs::FileTree t = gear::testing::random_tree(seed, 20);
    docker::ImageBuilder b;
    b.add_snapshot(t);
    return b.build(name, "v1", {});
  }

  void push(const docker::Image& image, const ChunkPolicy& policy = {}) {
    push_gear_image(converter.convert(image).image, index_registry,
                    file_registry, policy);
  }
};

TEST_F(GcFixture, NothingSweptWhileImagesLive) {
  push(make_image(1, "a"));
  push(make_image(2, "b"));
  std::uint64_t before = file_registry.storage_bytes();

  GearRegistryGc gc(index_registry, file_registry);
  GcReport report = gc.collect();
  EXPECT_EQ(report.indexes_scanned, 2u);
  EXPECT_EQ(report.swept_objects, 0u);
  EXPECT_EQ(file_registry.storage_bytes(), before);
}

TEST_F(GcFixture, DeletedImageFilesReclaimed) {
  push(make_image(10, "keep"));
  push(make_image(11, "drop"));
  std::size_t objects_with_both = file_registry.object_count();

  index_registry.delete_manifest("drop:v1");
  GearRegistryGc gc(index_registry, file_registry);
  GcReport report = gc.collect();

  EXPECT_GT(report.swept_objects, 0u);
  EXPECT_GT(report.bytes_reclaimed, 0u);
  EXPECT_LT(file_registry.object_count(), objects_with_both);

  // The surviving image still fully resolves.
  docker::Image keep = make_image(10, "keep");
  ConversionResult conv = converter.convert(keep);
  for (const auto& [fp, content] : conv.image.files) {
    EXPECT_EQ(file_registry.download(fp).value(), content);
  }
}

TEST_F(GcFixture, SharedFilesSurviveWhileAnyReferrerLives) {
  // Two images sharing most content; deleting one must keep shared files.
  vfs::FileTree t = gear::testing::random_tree(20, 20);
  docker::ImageBuilder b1;
  b1.add_snapshot(t);
  docker::Image a = b1.build("a", "v1", {});
  vfs::FileTree t2 = gear::testing::mutate_tree(t, 21, 4);
  docker::ImageBuilder b2;
  b2.add_snapshot(t2);
  docker::Image b = b2.build("b", "v1", {});
  push(a);
  push(b);

  index_registry.delete_manifest("a:v1");
  GearRegistryGc gc(index_registry, file_registry);
  gc.collect();

  // Every file of the surviving image remains downloadable.
  ConversionResult conv = converter.convert(b);
  for (const auto& [fp, content] : conv.image.files) {
    EXPECT_EQ(file_registry.download(fp).value(), content);
  }
}

TEST_F(GcFixture, ChunkedFilesCollectedWithChunks) {
  Rng rng(30);
  Bytes model = rng.next_bytes(64 * 1024, 0.3);
  vfs::FileTree t;
  t.add_file("model.bin", model);
  docker::ImageBuilder b;
  b.add_snapshot(t);
  docker::Image image = b.build("ai", "v1", {});
  const ChunkPolicy policy{16 * 1024, 8 * 1024};
  push(image, policy);
  ASSERT_TRUE(
      file_registry.is_chunked(default_hasher().fingerprint(model)));
  std::size_t objects = file_registry.object_count();
  ASSERT_GT(objects, 2u);  // manifest + several chunks

  // Live: nothing swept (chunks are reachable through the manifest).
  GearRegistryGc gc(index_registry, file_registry);
  EXPECT_EQ(gc.collect().swept_objects, 0u);
  EXPECT_EQ(file_registry.object_count(), objects);

  // Dead: manifest and all chunks go.
  index_registry.delete_manifest("ai:v1");
  GcReport report = gc.collect();
  EXPECT_EQ(report.swept_objects, objects);
  EXPECT_EQ(file_registry.object_count(), 0u);
  EXPECT_EQ(file_registry.storage_bytes(), 0u);
}

TEST_F(GcFixture, ClassicImagesIgnored) {
  // A classic (non-Gear) image in the same Docker registry neither keeps
  // Gear files alive nor breaks the scan.
  docker::Image classic = make_image(40, "classic");
  index_registry.push_image(classic);
  push(make_image(41, "gear"));

  GearRegistryGc gc(index_registry, file_registry);
  GcReport report = gc.collect();
  EXPECT_EQ(report.indexes_scanned, 1u);
  EXPECT_EQ(report.swept_objects, 0u);
}

TEST_F(GcFixture, RemoveReturnsZeroForUnknown) {
  EXPECT_EQ(file_registry.remove(default_hasher().fingerprint(to_bytes("x"))),
            0u);
}

TEST_F(GcFixture, ScrubVerifiesHealthyRegistry) {
  const ChunkPolicy policy{16 * 1024, 8 * 1024};
  push(make_image(50, "a"), policy);
  Rng rng(51);
  vfs::FileTree t;
  t.add_file("big.bin", rng.next_bytes(64 * 1024, 0.3));
  docker::ImageBuilder b;
  b.add_snapshot(t);
  push(b.build("big", "v1", {}), policy);

  ScrubReport report = scrub_registry(file_registry);
  EXPECT_EQ(report.objects_checked, file_registry.object_count());
  EXPECT_EQ(report.corrupt, 0u);
  EXPECT_EQ(report.unverifiable, 0u);
  EXPECT_EQ(report.verified, report.objects_checked);
}

TEST_F(GcFixture, ScrubFlagsSaltedIdsAsUnverifiableNotCorrupt) {
  // An object stored under a salted unique ID (collision handling) hashes
  // to something other than its name.
  Fingerprint salted = Fingerprint::from_hex("00112233445566778899aabbccddeeff");
  file_registry.upload(salted, to_bytes("content with salted name"));
  ScrubReport report = scrub_registry(file_registry);
  EXPECT_EQ(report.unverifiable, 1u);
  EXPECT_EQ(report.corrupt, 0u);
}

TEST_F(GcFixture, ScrubDetectsManifestWithMissingChunks) {
  const ChunkPolicy policy{8 * 1024, 4 * 1024};
  Rng rng(52);
  Bytes content = rng.next_bytes(32 * 1024, 0.3);
  Fingerprint fp = default_hasher().fingerprint(content);
  file_registry.upload_chunked(fp, content, policy);
  // Delete one chunk out from under the manifest.
  ChunkManifest manifest = file_registry.chunk_manifest(fp).value();
  file_registry.remove(manifest.chunks[2]);

  ScrubReport report = scrub_registry(file_registry);
  EXPECT_EQ(report.corrupt, 1u);
  ASSERT_EQ(report.corrupt_fingerprints.size(), 1u);
  EXPECT_EQ(report.corrupt_fingerprints[0], fp);
}

TEST_F(GcFixture, ScrubCountsUndecodableFramesAndKeepsScanning) {
  push(make_image(53, "a"));
  const std::size_t healthy = file_registry.object_count();
  // A stored frame whose GZC1 magic was overwritten, as by bit rot.
  Bytes content = to_bytes("damaged on disk");
  Fingerprint fp = default_hasher().fingerprint(content);
  Bytes frame = compress(content);
  frame[0] ^= 0xFF;
  file_registry.upload_precompressed(fp, std::move(frame));

  ScrubReport report = scrub_registry(file_registry);
  EXPECT_EQ(report.objects_checked, healthy + 1);
  EXPECT_EQ(report.verified, healthy);
  EXPECT_EQ(report.corrupt, 1u);
  ASSERT_EQ(report.corrupt_fingerprints.size(), 1u);
  EXPECT_EQ(report.corrupt_fingerprints[0], fp);
}

}  // namespace
}  // namespace gear
