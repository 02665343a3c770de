// Decoder robustness: every parser in the system must reject arbitrary and
// mutated input with a clean error — never crash, hang, or silently accept.
//
// Two generators per decoder: (a) pure random bytes, (b) valid frames with
// random mutations (the harder case: mostly-plausible input).
#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "docker/layer.hpp"
#include "gear/chunking.hpp"
#include "gear/index.hpp"
#include "net/wire.hpp"
#include "reference_index.hpp"
#include "tar/tar.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "vfs/tree_serialize.hpp"

namespace gear {
namespace {

/// Runs `decode` over random buffers; success or Error are both fine,
/// anything else (crash/UB) fails the test by construction.
template <typename Fn>
void fuzz_random(std::uint64_t seed, int iterations, Fn&& decode) {
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    Bytes garbage = rng.next_bytes(rng.next_range(0, 2048), rng.next_double());
    try {
      decode(garbage);
    } catch (const Error&) {
      // expected for malformed input
    }
  }
}

using gear::testing::fuzz_mutations;

TEST(FuzzRobustness, JsonParser) {
  auto decode = [](const Bytes& b) { (void)Json::parse(to_string(b)); };
  fuzz_random(1001, 400, decode);
  Json valid = Json::parse(R"({"a":[1,2,{"b":"c","d":null}],"e":1.5})");
  fuzz_mutations(1002, to_bytes(valid.dump()), 400, decode);
}

TEST(FuzzRobustness, CompressedFrame) {
  auto decode = [](const Bytes& b) { (void)decompress(b); };
  fuzz_random(1101, 400, decode);
  Rng rng(1102);
  fuzz_mutations(1103, compress(rng.next_bytes(1500, 0.5)), 400, decode);
}

TEST(FuzzRobustness, TarExtract) {
  auto decode = [](const Bytes& b) { (void)tar::extract_tree(b); };
  fuzz_random(1201, 200, decode);
  fuzz_mutations(1202, tar::archive_tree(gear::testing::sample_tree()), 400,
                 decode);
}

TEST(FuzzRobustness, TreeDeserialize) {
  auto decode = [](const Bytes& b) { (void)vfs::deserialize_tree(b); };
  fuzz_random(1301, 400, decode);
  fuzz_mutations(1302,
                 vfs::serialize_tree(gear::testing::random_tree(13, 20)), 400,
                 decode);
}

TEST(FuzzRobustness, WireMessage) {
  auto decode = [](const Bytes& b) {
    StatusOr<net::WireMessage> m = net::decode_message(b);
    (void)m;  // StatusOr: failure is a value, not an exception
  };
  fuzz_random(1401, 400, decode);
  net::WireMessage valid;
  valid.type = net::MessageType::kDownloadManyResponse;
  valid.items.push_back({default_hasher().fingerprint(to_bytes("x")),
                         net::Status::kOk, to_bytes("payload")});
  fuzz_mutations(1402, net::encode_message(valid), 400, decode);
}

TEST(FuzzRobustness, ChunkManifest) {
  auto decode = [](const Bytes& b) { (void)ChunkManifest::parse(b); };
  fuzz_random(1501, 400, decode);
  Rng rng(1502);
  Bytes content = rng.next_bytes(40000, 0.3);
  ChunkPolicy policy{1, 4096};
  fuzz_mutations(1503,
                 build_chunk_manifest(content, policy, default_hasher())
                     .serialize(),
                 400, decode);
}

TEST(FuzzRobustness, StubDecode) {
  Rng rng(1601);
  for (int i = 0; i < 400; ++i) {
    Bytes garbage = rng.next_bytes(rng.next_range(0, 100), 0.2);
    Fingerprint fp;
    std::uint64_t size;
    (void)GearIndex::decode_stub(garbage, &fp, &size);  // bool API: no throw
  }
}

TEST(FuzzRobustness, LayerFromBlob) {
  auto decode = [](const Bytes& b) {
    docker::Layer layer = docker::Layer::from_blob(b);
    (void)layer.to_tree();
  };
  fuzz_random(1701, 200, decode);
  docker::Layer valid = docker::Layer::from_tree(gear::testing::sample_tree());
  fuzz_mutations(1702, valid.blob(), 300, decode);
}

TEST(FuzzRobustness, IndexLayerMutationsDecodeAsTheReferenceDoes) {
  // Mutants of a real 5,000-stub index layer: GearIndex::from_layer accepts
  // exactly those the reference composition accepts, with equal trees.
  const GearIndex index(gear::testing::stub_index_tree(5000, 22));
  const Bytes blob = index.to_layer().blob();
  int accepted = 0;
  int rejected = 0;
  fuzz_mutations(1901, blob, 400, [&](const Bytes& b) {
    const gear::testing::IndexDecodes d =
        gear::testing::decode_index_both_ways(docker::Layer::from_blob(b));
    EXPECT_EQ(d.accepted, d.reference_accepted);
    EXPECT_TRUE(d.equal_trees);
    ++(d.reference_accepted ? accepted : rejected);
  });
  // Both outcomes occur, so both sides of the contract are exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzRobustness, ManifestJson) {
  auto decode = [](const Bytes& b) {
    (void)docker::Manifest::from_json_string(to_string(b));
  };
  docker::ImageBuilder b;
  b.add_snapshot(gear::testing::sample_tree());
  docker::Image image = b.build("fz", "v1", {});
  fuzz_random(1801, 300, decode);
  fuzz_mutations(1802, to_bytes(image.manifest.to_json_string()), 400, decode);
}

}  // namespace
}  // namespace gear
