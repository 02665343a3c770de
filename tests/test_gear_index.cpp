// Unit tests for the Gear index: stub encoding, wire form, Docker transport.
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "compress/codec.hpp"

#include "docker/layer.hpp"
#include "docker/registry.hpp"
#include "gear/index.hpp"
#include "reference_index.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace gear {
namespace {

GearIndex index_of(const vfs::FileTree& root) {
  return GearIndex::from_root_fs(
      root, [](const std::string&, const Bytes& content) {
        return default_hasher().fingerprint(content);
      });
}

TEST(GearIndex, ReplacesRegularFilesWithStubs) {
  vfs::FileTree root = gear::testing::sample_tree();
  GearIndex index = index_of(root);

  vfs::TreeStats s = index.tree().stats();
  EXPECT_EQ(s.regular_files, 0u);
  EXPECT_EQ(s.fingerprint_stubs, 4u);
  EXPECT_EQ(s.symlinks, 1u);
  // Logical size preserved.
  EXPECT_EQ(index.referenced_bytes(), root.stats().total_file_bytes);
}

TEST(GearIndex, StubsCarryCorrectFingerprints) {
  vfs::FileTree root = gear::testing::sample_tree();
  GearIndex index = index_of(root);
  for (const auto& stub : index.stubs()) {
    const vfs::FileNode* orig = root.lookup(stub.path);
    ASSERT_NE(orig, nullptr) << stub.path;
    EXPECT_EQ(stub.fingerprint,
              default_hasher().fingerprint(orig->content()));
    EXPECT_EQ(stub.size, orig->content().size());
  }
}

TEST(GearIndex, PreservesMetadataAndStructure) {
  vfs::FileTree root;
  vfs::Metadata m{0750, 5, 6, 777};
  root.add_file("srv/app.bin", to_bytes("binary"), m);
  root.add_directory("srv/data", vfs::Metadata{0700, 5, 6, 778});
  GearIndex index = index_of(root);
  const vfs::FileNode* stub = index.tree().lookup("srv/app.bin");
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->metadata().mode, 0750u);
  EXPECT_EQ(stub->metadata().mtime, 777u);
  EXPECT_EQ(index.tree().lookup("srv/data")->metadata().mode, 0700u);
}

TEST(GearIndex, DistinctFingerprintsDeduplicated) {
  vfs::FileTree root;
  root.add_file("a", to_bytes("same"));
  root.add_file("b", to_bytes("same"));
  root.add_file("c", to_bytes("different"));
  GearIndex index = index_of(root);
  EXPECT_EQ(index.stubs().size(), 3u);
  EXPECT_EQ(index.distinct_fingerprints().size(), 2u);
}

TEST(GearIndex, RejectsTreesWithWhiteouts) {
  vfs::FileTree bad;
  bad.add_whiteout("w");
  EXPECT_THROW(index_of(bad), Error);
}

TEST(GearIndex, ConstructorRejectsRegularFiles) {
  vfs::FileTree t;
  t.add_file("f", to_bytes("x"));
  EXPECT_THROW(GearIndex{std::move(t)}, Error);
}

// ------------------------------------------------------------- stub codec

TEST(GearStub, EncodeDecodeRoundTrip) {
  Fingerprint fp = default_hasher().fingerprint(to_bytes("content"));
  std::string encoded = GearIndex::encode_stub(fp, 123456);
  Fingerprint out_fp;
  std::uint64_t out_size = 0;
  ASSERT_TRUE(GearIndex::decode_stub(to_bytes(encoded), &out_fp, &out_size));
  EXPECT_EQ(out_fp, fp);
  EXPECT_EQ(out_size, 123456u);
}

TEST(GearStub, DecodeRejectsNonStubs) {
  Fingerprint fp;
  std::uint64_t size = 0;
  EXPECT_FALSE(GearIndex::decode_stub(to_bytes("just a file"), &fp, &size));
  EXPECT_FALSE(GearIndex::decode_stub(to_bytes(""), &fp, &size));
  EXPECT_FALSE(GearIndex::decode_stub(to_bytes("GEARFP1:tooshort"), &fp, &size));
  EXPECT_FALSE(GearIndex::decode_stub(
      to_bytes("GEARFP1:zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz:10\n"), &fp, &size));
  EXPECT_FALSE(GearIndex::decode_stub(
      to_bytes(std::string("GEARFP1:") + std::string(32, 'a') + ":abc\n"),
      &fp, &size));
}

TEST(GearStub, StubIsTiny) {
  Fingerprint fp = default_hasher().fingerprint(to_bytes("x"));
  // The whole point: a multi-megabyte file becomes a <64-byte index entry.
  EXPECT_LT(GearIndex::encode_stub(fp, 50'000'000).size(), 64u);
}

// --------------------------------------------------------------- wire form

TEST(GearIndexWire, RoundTrip) {
  GearIndex index = index_of(gear::testing::random_tree(77, 30));
  vfs::FileTree wire = gear::testing::reference_to_wire_tree(index);
  // Wire form has only regular stub files, dirs, symlinks.
  wire.walk([](const std::string&, const vfs::FileNode& node) {
    EXPECT_TRUE(node.is_regular() || node.is_directory() || node.is_symlink());
  });
  docker::Layer layer = docker::Layer::from_tree(wire);
  GearIndex back = GearIndex::from_layer(layer);
  EXPECT_TRUE(back.tree().equals(index.tree()));
  EXPECT_TRUE(
      gear::testing::reference_from_wire_tree(wire).equals(index.tree()));
}

TEST(GearIndexWire, SurvivesDockerLayerTransport) {
  // Index -> tar -> compress -> digest -> back: the full Docker-compatible
  // journey of §III-C.
  GearIndex index = index_of(gear::testing::sample_tree());
  docker::Layer layer = index.to_layer();
  GearIndex back = GearIndex::from_layer(layer);
  EXPECT_TRUE(back.tree().equals(index.tree()));
}

TEST(GearIndexWire, WireIsSmallComparedToImage) {
  vfs::FileTree root = gear::testing::random_tree(88, 60, 64 * 1024);
  GearIndex index = index_of(root);
  docker::Layer layer = index.to_layer();
  // Paper: indexes average ~0.53 MB for multi-hundred-MB images (~1%).
  EXPECT_LT(layer.compressed_size() * 10, root.stats().total_file_bytes);
}

TEST(GearIndexWire, NonStubRegularFileRejected) {
  vfs::FileTree wire;
  wire.add_file("normal.txt", to_bytes("not a stub"));
  docker::Layer layer = docker::Layer::from_tree(wire);
  EXPECT_THROW(GearIndex::from_layer(layer), Error);
  EXPECT_THROW(gear::testing::reference_from_wire_tree(wire), Error);
}

// ------------------------------------------- from_layer vs the reference

// One ustar entry written field by field, so a test can put any path,
// type and order into an archive. `name` and `prefix` go in as given.
Bytes raw_entry(std::string_view name, char type, std::string_view content = {},
                std::string_view link = {}, std::string_view prefix = {},
                std::uint32_t mode = 0644, std::uint64_t mtime = 7) {
  Bytes block(512, 0);
  auto put = [&block](std::size_t offset, std::string_view text) {
    std::copy(text.begin(), text.end(), block.begin() + offset);
  };
  auto octal = [&put](std::size_t offset, std::size_t width,
                      std::uint64_t value) {
    std::string digits(width - 1, '0');
    for (std::size_t i = width - 1; i-- > 0; value >>= 3) {
      digits[i] = static_cast<char>('0' + (value & 7));
    }
    put(offset, digits);
  };
  put(0, name);
  octal(100, 8, mode);
  octal(108, 8, 0);
  octal(116, 8, 0);
  octal(124, 12, content.size());
  octal(136, 12, mtime);
  block[156] = static_cast<std::uint8_t>(type);
  put(157, link);
  put(257, std::string_view("ustar\0" "00", 8));
  put(345, prefix);
  put(148, "        ");
  std::uint32_t sum = 0;
  for (std::uint8_t b : block) sum += b;
  octal(148, 7, sum);
  Bytes out = block;
  append(out, to_bytes(std::string(content)));
  out.resize((out.size() + 511) / 512 * 512, 0);
  return out;
}

std::string stub_of(int i) {
  return GearIndex::encode_stub(
      default_hasher().fingerprint(to_bytes(std::to_string(i))), 100 + i);
}

Bytes archive_of(std::initializer_list<Bytes> entries, bool trailer = true) {
  Bytes out;
  for (const Bytes& e : entries) append(out, e);
  if (trailer) out.resize(out.size() + 1024, 0);
  return out;
}

// Decodes the index layer of `archive` with from_layer and the reference
// composition: both accept it and build equal trees, or both reject it.
// Returns whether it was accepted.
bool expect_same_index(const Bytes& archive) {
  const gear::testing::IndexDecodes d = gear::testing::decode_index_both_ways(
      docker::Layer::from_blob(compress(archive)));
  EXPECT_EQ(d.accepted, d.reference_accepted);
  EXPECT_TRUE(d.equal_trees);
  return d.reference_accepted;
}

TEST(GearIndexLayer, CraftedArchivesDecodeAsTheReferenceDoes) {
  const std::string long_dir =
      std::string(90, 'p') + "/" + std::string(40, 'q');
  struct Case {
    const char* what;
    Bytes archive;
    bool accepted;
  };
  const Case cases[] = {
      {"empty archive", Bytes{}, true},
      {"only the trailer", archive_of({}), true},
      {"no trailer",
       archive_of({raw_entry("a/", '5'), raw_entry("a/f", '0', stub_of(1))},
                  false),
       true},
      {"entries out of order",
       archive_of({raw_entry("b/x", '0', stub_of(1)), raw_entry("a/", '5'),
                   raw_entry("b/", '5', {}, {}, {}, 0700),
                   raw_entry("a/y", '0', stub_of(2))}),
       true},
      {"missing parent directories",
       archive_of({raw_entry("deep/er/f", '0', stub_of(1)),
                   raw_entry("deep/g", '0', stub_of(2))}),
       true},
      {"a duplicate stub: the later one wins",
       archive_of({raw_entry("a/", '5'), raw_entry("a/f", '0', stub_of(1)),
                   raw_entry("a/f", '0', stub_of(2))}),
       true},
      {"a duplicate directory keeps its first metadata",
       archive_of({raw_entry("a/", '5', {}, {}, {}, 0700),
                   raw_entry("a/", '5', {}, {}, {}, 0755),
                   raw_entry("a/f", '0', stub_of(1))}),
       true},
      {"a directory over a stub",
       archive_of({raw_entry("a", '0', stub_of(1)), raw_entry("a/", '5')}),
       false},
      {"a stub replaces a directory, then a child of it",
       archive_of({raw_entry("d/", '5'), raw_entry("d/e/", '5'),
                   raw_entry("d/e/f", '0', stub_of(1)),
                   raw_entry("d", '0', stub_of(2)),
                   raw_entry("d/e/g", '0', stub_of(3))}),
       false},
      {"a stub replaces a directory, then a sibling",
       archive_of({raw_entry("d/", '5'), raw_entry("d/e/", '5'),
                   raw_entry("d/e/f", '0', stub_of(1)),
                   raw_entry("d/e", '0', stub_of(2)),
                   raw_entry("d/g", '0', stub_of(3))}),
       true},
      {"a symlink replaces a directory, then a child of it",
       archive_of({raw_entry("d/", '5'), raw_entry("d/e/", '5'),
                   raw_entry("d/e", '2', {}, "elsewhere"),
                   raw_entry("d/e/f", '0', stub_of(1))}),
       false},
      {"a './' path replaces a directory, then a child of it",
       archive_of({raw_entry("d/", '5'), raw_entry("d/e/", '5'),
                   raw_entry("./d/e", '0', stub_of(1)),
                   raw_entry("d/e/f", '0', stub_of(2))}),
       false},
      {"a stub at 'd/.' replaces d",
       archive_of({raw_entry("d/", '5'), raw_entry("d/e/", '5'),
                   raw_entry("d/.", '0', stub_of(1)),
                   raw_entry("x", '0', stub_of(2))}),
       true},
      {"'./' and '//' segments and a leading '/'",
       archive_of({raw_entry("./a/", '5'), raw_entry("a//f", '0', stub_of(1)),
                   raw_entry("./a/./g", '0', stub_of(2)),
                   raw_entry("/b/h", '0', stub_of(3)),
                   raw_entry("a//sub/", '5'),
                   raw_entry("a/sub/i", '0', stub_of(4))}),
       true},
      {"a '..' segment",
       archive_of({raw_entry("a/../f", '0', stub_of(1))}), false},
      {"'.' alone", archive_of({raw_entry("./", '5')}), false},
      {"names split into the ustar prefix",
       archive_of({raw_entry(std::string(40, 'q') + "/", '5', {}, {},
                             std::string(90, 'p')),
                   raw_entry("f", '0', stub_of(1), {}, long_dir),
                   raw_entry("g", '2', {}, "f", long_dir)}),
       true},
      {"a whiteout survives",
       archive_of({raw_entry("a/", '5'), raw_entry("a/.wh.f", '0')}), false},
      {"a whiteout replaced by a stub",
       archive_of({raw_entry("a/", '5'), raw_entry("a/.wh.f", '0'),
                   raw_entry("a/f", '0', stub_of(1))}),
       true},
      {"a whiteout replaces a directory, then a child of it",
       archive_of({raw_entry("a/", '5'), raw_entry("a/b/", '5'),
                   raw_entry("a/.wh.b", '0'), raw_entry("a/b", '0', stub_of(1)),
                   raw_entry("a/b/c", '0', stub_of(2))}),
       false},
      {"an opaque marker in a directory",
       archive_of({raw_entry("o/", '5'), raw_entry("o/.wh..wh..opq", '0'),
                   raw_entry("o/f", '0', stub_of(1))}),
       true},
      {"an opaque marker without its directory",
       archive_of({raw_entry("o/.wh..wh..opq", '0')}), false},
      {"symlinks",
       archive_of({raw_entry("a/", '5'), raw_entry("a/l", '2', {}, "f"),
                   raw_entry("m", '2', {}, "/abs/target"),
                   raw_entry("a/l", '2', {}, "g")}),
       true},
      {"a directory over a symlink",
       archive_of({raw_entry("l", '2', {}, "t"), raw_entry("l/", '5')}), false},
      {"a non-stub file survives",
       archive_of({raw_entry("a/", '5'), raw_entry("a/f", '0', "plain text")}),
       false},
      {"a non-stub file replaced by a stub",
       archive_of({raw_entry("a/", '5'), raw_entry("a/f", '0', "plain text"),
                   raw_entry("a/f", '0', stub_of(1))}),
       true},
      {"a non-stub file inside a directory a stub replaces",
       archive_of({raw_entry("a/", '5'), raw_entry("a/f", '0', "plain text"),
                   raw_entry("a", '0', stub_of(1))}),
       true},
      {"a path through a stub",
       archive_of({raw_entry("a", '0', stub_of(1)),
                   raw_entry("a/b", '0', stub_of(2))}),
       false},
      {"a NUL typeflag is a file",
       archive_of({raw_entry("a", '\0', stub_of(1))}), true},
      {"an unsupported entry type",
       archive_of({raw_entry("a", 'x', stub_of(1))}), false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(expect_same_index(c.archive), c.accepted);
  }
}

TEST(GearIndexLayer, FromLayerOfAConvertedIndexMatchesTheReference) {
  const GearIndex index(gear::testing::stub_index_tree(5000, 21));
  const docker::Layer layer = index.to_layer();
  const GearIndex back = GearIndex::from_layer(layer);
  EXPECT_TRUE(back.tree().equals(index.tree()));
  EXPECT_TRUE(gear::testing::reference_index_tree(layer).equals(index.tree()));
  EXPECT_EQ(back.stubs().size(), 5000u);
}

// ------------------------------------------- to_layer vs the reference

// to_layer and the reference composition on `index`: equal layers, or the
// same error.
void expect_same_layer(const GearIndex& index) {
  std::optional<docker::Layer> want;
  std::string want_error;
  try {
    want = gear::testing::reference_index_layer(index);
  } catch (const Error& e) {
    want_error = e.what();
  }
  std::optional<docker::Layer> got;
  std::string got_error;
  try {
    got = index.to_layer();
  } catch (const Error& e) {
    got_error = e.what();
  }
  ASSERT_EQ(got.has_value(), want.has_value()) << got_error << want_error;
  if (!got) {
    EXPECT_EQ(got_error, want_error);
    return;
  }
  EXPECT_EQ(got->blob(), want->blob());
  EXPECT_EQ(got->digest(), want->digest());
  EXPECT_EQ(got->uncompressed_size(), want->uncompressed_size());
  EXPECT_TRUE(GearIndex::from_layer(*got).tree().equals(index.tree()));
}

TEST(GearIndexLayer, ToLayerMatchesTheReferenceComposition) {
  expect_same_layer(index_of(gear::testing::sample_tree()));
  for (std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    SCOPED_TRACE(seed);
    vfs::FileTree root = gear::testing::random_tree(seed, 80);
    root.add_directory("srv/empty", vfs::Metadata{0700, 3, 4, 1600000000});
    root.add_symlink("srv/dangling", "../nowhere",
                     vfs::Metadata{0777, 0, 0, 1690000000});
    root.add_symlink("etc/dirlink", "../usr/share");
    expect_same_layer(index_of(root));
  }
  expect_same_layer(GearIndex(gear::testing::stub_index_tree(5000, 21)));
}

TEST(GearIndexLayer, ToLayerMatchesTheReferenceAtTheUstarLimits) {
  const Fingerprint fp = default_hasher().fingerprint(to_bytes("limit"));
  const std::string p155 = std::string(77, 'p') + "/" + std::string(77, 'q');
  vfs::FileTree tree;
  tree.add_fingerprint_stub(std::string(100, 'n'), fp, 1);  // a whole name
  tree.add_fingerprint_stub(p155 + "/" + std::string(100, 'n'), fp, 2);
  tree.add_directory(std::string(99, 'd'));   // 100 bytes with its '/'
  tree.add_directory(std::string(100, 'e'));  // 101: split at its '/'
  tree.add_symlink("links/" + std::string(94, 'l'), std::string(100, 't'));
  std::string deep;
  for (int level = 0; level < 60; ++level) {
    deep += (level == 0 ? "" : "/") + std::string("d") + std::to_string(level);
  }
  tree.add_fingerprint_stub(deep + "/leaf", fp, 3);  // split inside the path
  expect_same_layer(GearIndex(tree));

  // Longer than a 155-byte prefix and a 100-byte name can hold.
  vfs::FileTree too_deep = tree;
  too_deep.add_fingerprint_stub(
      deep + "/d60/d61/d62/d63/d64/d65/d66/d67/d68/d69/leaf", fp, 4);
  EXPECT_THROW(GearIndex(too_deep).to_layer(), Error);
  expect_same_layer(GearIndex(too_deep));
}

TEST(GearIndexLayer, TooLongNamesFailAsTheReferenceFails) {
  const Fingerprint fp = default_hasher().fingerprint(to_bytes("long"));
  vfs::FileTree name;
  name.add_fingerprint_stub("dir/" + std::string(101, 'n'), fp, 1);
  vfs::FileTree link;
  link.add_symlink("l", std::string(101, 't'));
  for (const vfs::FileTree* tree : {&name, &link}) {
    const GearIndex index(*tree);
    expect_same_layer(index);
    EXPECT_THROW(index.to_layer(), Error);
  }
  try {
    GearIndex(name).to_layer();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(e.message(), "tar: path too long: dir/" + std::string(101, 'n'));
  }
}

TEST(GearIndexLayer, EmptyIndexIsTheTrailerAlone) {
  // The reference refuses an empty index as an empty commit; to_layer
  // writes the two zero blocks, which decode back to an empty index.
  const GearIndex empty;
  const docker::Layer layer = empty.to_layer();
  EXPECT_EQ(layer.uncompressed_size(), 1024u);
  EXPECT_EQ(decompress(layer.blob()), Bytes(1024, 0));
  EXPECT_TRUE(GearIndex::from_layer(layer).tree().root().children().empty());
  EXPECT_THROW(gear::testing::reference_index_layer(empty), Error);

  const docker::Image image = empty.to_image("empty", "v1", {});
  ASSERT_EQ(image.layers.size(), 1u);
  EXPECT_EQ(image.manifest.layers.at(0).digest, layer.digest());
  EXPECT_EQ(image.manifest.config.labels.at(kGearIndexLabel), "1");
}

// GearClient, LocalRuntime and gearctl load an index image through these
// two calls, so all three report a bad image alike.
TEST(GearIndexImage, LoaderErrorsKeepTheCodeAndNameTheImage) {
  const GearIndex index = index_of(gear::testing::sample_tree());
  const docker::Image image = index.to_image("app", "v1", {});
  docker::DockerRegistry registry;
  registry.push_image(image);

  const docker::Manifest manifest = gear_index_manifest(registry, "app:v1");
  EXPECT_TRUE(
      GearIndex::from_layer(gear_index_layer(registry, manifest, "app:v1"))
          .tree()
          .equals(index.tree()));

  auto expect_error = [](ErrorCode code, const std::string& named,
                         const std::function<void()>& load) {
    try {
      load();
      ADD_FAILURE() << "loaded, expected an error naming " << named;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << e.what();
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  };
  expect_error(ErrorCode::kNotFound, "none:v1",
               [&] { gear_index_manifest(registry, "none:v1"); });

  docker::Image unlabeled = image;
  unlabeled.manifest.tag = "plain";
  unlabeled.manifest.config.labels.clear();
  registry.push_image(unlabeled);
  expect_error(ErrorCode::kInvalidArgument,
               "app:plain is not a Gear index image",
               [&] { gear_index_manifest(registry, "app:plain"); });

  docker::Image two_layers = image;
  two_layers.manifest.tag = "two";
  two_layers.manifest.layers.push_back(two_layers.manifest.layers[0]);
  registry.push_image(two_layers);
  expect_error(ErrorCode::kInvalidArgument,
               "app:two is not a Gear index image",
               [&] { gear_index_manifest(registry, "app:two"); });

  registry.delete_blob(manifest.layers[0].digest);
  expect_error(ErrorCode::kNotFound,
               manifest.layers[0].digest.to_string() + " of app:v1",
               [&] { gear_index_layer(registry, manifest, "app:v1"); });
}

TEST(GearIndexWire, ReindexingIndexIsIdentity) {
  GearIndex index = index_of(gear::testing::sample_tree());
  GearIndex again = GearIndex::from_root_fs(
      index.tree(), [](const std::string&, const Bytes& content) {
        return default_hasher().fingerprint(content);
      });
  EXPECT_TRUE(again.tree().equals(index.tree()));
}

}  // namespace
}  // namespace gear
