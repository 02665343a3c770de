// Unit and property tests for the Overlay2-style union mount.
#include <gtest/gtest.h>

#include "docker/overlay.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "vfs/tree_diff.hpp"

namespace gear::docker {
namespace {

struct OverlayFixture : ::testing::Test {
  vfs::FileTree lower1;  // bottom
  vfs::FileTree lower2;  // top read-only layer (a diff tree)

  void SetUp() override {
    lower1.add_file("etc/conf", to_bytes("base"));
    lower1.add_file("bin/tool", to_bytes("v1"));
    lower1.add_file("data/keep", to_bytes("keep"));
    lower1.add_symlink("bin/t", "tool");

    // lower2 is a diff: modifies bin/tool, deletes data/keep, adds new file.
    lower2.add_file("bin/tool", to_bytes("v2"));
    lower2.add_whiteout("data/keep");
    lower2.add_file("srv/new", to_bytes("fresh"));
  }

  std::vector<const vfs::FileTree*> lowers() { return {&lower1, &lower2}; }
};

TEST_F(OverlayFixture, TopLayerMasksBottom) {
  OverlayMount m(lowers());
  EXPECT_EQ(to_string(m.read_file("bin/tool").value()), "v2");
}

TEST_F(OverlayFixture, WhiteoutHidesLowerEntry) {
  OverlayMount m(lowers());
  EXPECT_FALSE(m.exists("data/keep"));
  EXPECT_FALSE(m.read_file("data/keep").ok());
}

TEST_F(OverlayFixture, UntouchedLowerVisible) {
  OverlayMount m(lowers());
  EXPECT_EQ(to_string(m.read_file("etc/conf").value()), "base");
  EXPECT_EQ(m.read_symlink("bin/t").value(), "tool");
}

TEST_F(OverlayFixture, ListDirMergesAndMasks) {
  OverlayMount m(lowers());
  auto names = m.list_dir("");
  EXPECT_NE(std::find(names.begin(), names.end(), "srv"), names.end());
  auto data = m.list_dir("data");
  EXPECT_TRUE(data.empty());  // only child was whited out
  auto bin = m.list_dir("bin");
  ASSERT_EQ(bin.size(), 2u);
  EXPECT_EQ(bin[0], "t");
  EXPECT_EQ(bin[1], "tool");
}

TEST_F(OverlayFixture, WriteGoesToUpperOnly) {
  OverlayMount m(lowers());
  m.write_file("etc/conf", to_bytes("modified"));
  EXPECT_EQ(to_string(m.read_file("etc/conf").value()), "modified");
  // Lower layers untouched.
  EXPECT_EQ(to_string(lower1.lookup("etc/conf")->content()), "base");
  // Upper diff records the copy-up.
  ASSERT_NE(m.upper_diff().lookup("etc/conf"), nullptr);
}

TEST_F(OverlayFixture, RemoveLowerCreatesWhiteout) {
  OverlayMount m(lowers());
  EXPECT_TRUE(m.remove("etc/conf"));
  EXPECT_FALSE(m.exists("etc/conf"));
  ASSERT_NE(m.upper_diff().lookup("etc/conf"), nullptr);
  EXPECT_TRUE(m.upper_diff().lookup("etc/conf")->is_whiteout());
}

TEST_F(OverlayFixture, RemoveUpperOnlyFileLeavesNoWhiteout) {
  OverlayMount m(lowers());
  m.write_file("tmp/scratch", to_bytes("x"));
  EXPECT_TRUE(m.remove("tmp/scratch"));
  EXPECT_FALSE(m.exists("tmp/scratch"));
  EXPECT_EQ(m.upper_diff().lookup("tmp/scratch"), nullptr);
}

TEST_F(OverlayFixture, RemoveMissingReturnsFalse) {
  OverlayMount m(lowers());
  EXPECT_FALSE(m.remove("no/such/path"));
}

TEST_F(OverlayFixture, DeleteThenRecreateDirIsOpaque) {
  OverlayMount m(lowers());
  ASSERT_TRUE(m.remove("bin"));
  EXPECT_FALSE(m.exists("bin/tool"));
  m.make_dir("bin");
  m.write_file("bin/newtool", to_bytes("n"));
  EXPECT_TRUE(m.exists("bin/newtool"));
  // The old lower contents must stay hidden.
  EXPECT_FALSE(m.exists("bin/tool"));
  EXPECT_FALSE(m.exists("bin/t"));
}

TEST_F(OverlayFixture, WriteUnderDeletedDirectoryHidesLower) {
  OverlayMount m(lowers());
  ASSERT_TRUE(m.remove("bin"));
  m.write_file("bin/other", to_bytes("o"));
  EXPECT_TRUE(m.exists("bin/other"));
  EXPECT_FALSE(m.exists("bin/tool"));
}

TEST_F(OverlayFixture, WriteThroughFileComponentFails) {
  OverlayMount m(lowers());
  EXPECT_THROW(m.write_file("etc/conf/sub", to_bytes("x")), Error);
}

TEST_F(OverlayFixture, MergedEqualsFlattenPlusUpper) {
  OverlayMount m(lowers());
  m.write_file("etc/conf", to_bytes("modified"));
  m.remove("bin/tool");
  m.write_file("srv/extra", to_bytes("e"));

  vfs::FileTree expected = vfs::apply_layer(
      vfs::apply_layer(vfs::apply_layer(vfs::FileTree{}, lower1), lower2),
      m.upper_diff());
  EXPECT_TRUE(m.merged().equals(expected));
}

TEST(Overlay, NullLowerRejected) {
  EXPECT_THROW(OverlayMount({nullptr}), Error);
}

TEST(Overlay, EmptyMountWorks) {
  OverlayMount m({});
  EXPECT_FALSE(m.exists("anything"));
  m.write_file("a/b", to_bytes("x"));
  EXPECT_EQ(to_string(m.read_file("a/b").value()), "x");
}

TEST(Overlay, OpaqueLowerDirStopsMerge) {
  vfs::FileTree l1, l2;
  l1.add_file("d/hidden", to_bytes("h"));
  vfs::FileNode& d = l2.add_directory("d");
  d.set_opaque(true);
  l2.add_file("d/shown", to_bytes("s"));
  OverlayMount m({&l1, &l2});
  EXPECT_FALSE(m.exists("d/hidden"));
  EXPECT_TRUE(m.exists("d/shown"));
}

TEST(Overlay, DirOverFileMasksCompletely) {
  vfs::FileTree l1, l2;
  l1.add_file("p", to_bytes("file"));
  l2.add_file("p/inner", to_bytes("i"));  // p is now a dir in l2
  OverlayMount m({&l1, &l2});
  ASSERT_TRUE(m.exists("p/inner"));
  EXPECT_TRUE(m.lookup("p").node->is_directory());
}

TEST(Overlay, InUpperFlagAccurate) {
  vfs::FileTree l1;
  l1.add_file("low", to_bytes("l"));
  OverlayMount m({&l1});
  m.write_file("up", to_bytes("u"));
  EXPECT_FALSE(m.lookup("low").in_upper);
  EXPECT_TRUE(m.lookup("up").in_upper);
}

TEST(Overlay, MakeDirThroughFileComponentFails) {
  vfs::FileTree l1;
  l1.add_file("a", to_bytes("file"));
  OverlayMount m({&l1});
  try {
    m.make_dir("a/b");
    ADD_FAILURE() << "make_dir under a regular file returned";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  ASSERT_NE(m.lookup("a").node, nullptr);
  EXPECT_TRUE(m.lookup("a").node->is_regular());
  EXPECT_EQ(to_string(m.read_file("a").value()), "file");
}

TEST(Overlay, RemoveCopiesUpParentMetadata) {
  vfs::FileTree l1;
  vfs::Metadata www;
  www.mode = 0700;
  www.uid = 33;
  www.mtime = 1234;
  l1.add_directory("srv/www", www);
  l1.add_file("srv/www/index.html", to_bytes("<html/>"));
  OverlayMount m({&l1});
  ASSERT_TRUE(m.remove("srv/www/index.html"));
  EXPECT_FALSE(m.exists("srv/www/index.html"));
  const vfs::FileNode* dir = m.lookup("srv/www").node;
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(dir->metadata(), www);
}

TEST(Overlay, WriteOverADirectoryIsRejected) {
  vfs::FileTree l1;
  l1.add_file("d/f", to_bytes("kept"));
  OverlayMount m({&l1});
  m.make_dir("u");
  for (const char* dir : {"d", "u"}) {  // lower, then upper
    try {
      m.write_file(dir, to_bytes("x"));
      ADD_FAILURE() << "write_file over directory " << dir << " returned";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
      EXPECT_NE(e.message().find("is a directory"), std::string::npos);
    }
    ASSERT_NE(m.lookup(dir).node, nullptr);
    EXPECT_TRUE(m.lookup(dir).node->is_directory());
  }
  EXPECT_EQ(to_string(m.read_file("d/f").value()), "kept");
  EXPECT_EQ(m.upper_diff().lookup("d"), nullptr);  // nothing copied up
}

TEST(Overlay, MakeDirOverALowerFileIsRejected) {
  vfs::FileTree l1;
  l1.add_file("a", to_bytes("file"));
  l1.add_symlink("s", "a");
  OverlayMount m({&l1});
  for (const char* path : {"a", "s"}) {
    try {
      m.make_dir(path);
      ADD_FAILURE() << "make_dir over " << path << " returned";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kAlreadyExists);
    }
  }
  ASSERT_NE(m.lookup("a").node, nullptr);
  EXPECT_TRUE(m.lookup("a").node->is_regular());
  EXPECT_EQ(to_string(m.read_file("a").value()), "file");
  // After a delete the name is free again, and the new directory is opaque.
  ASSERT_TRUE(m.remove("a"));
  m.make_dir("a");
  EXPECT_TRUE(m.lookup("a").node->is_directory());
}

TEST(Overlay, ReadNonRegularFails) {
  vfs::FileTree l1;
  l1.add_directory("d");
  l1.add_symlink("s", "d");
  OverlayMount m({&l1});
  EXPECT_FALSE(m.read_file("d").ok());
  EXPECT_FALSE(m.read_file("s").ok());
  EXPECT_FALSE(m.read_symlink("d").ok());
}

// Property: for random layer stacks, every path visible in
// flatten_layers(layers) resolves identically through the lazy union, and
// readdir listings match.
class OverlayEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlayEquivalence, LazyLookupMatchesFlatten) {
  std::uint64_t seed = GetParam();
  vfs::FileTree s0 = gear::testing::random_tree(seed, 35);
  vfs::FileTree s1 = gear::testing::mutate_tree(s0, seed + 1, 20);
  vfs::FileTree s2 = gear::testing::mutate_tree(s1, seed + 2, 20);

  std::vector<vfs::FileTree> layers;
  layers.push_back(vfs::diff_trees(vfs::FileTree{}, s0));
  layers.push_back(vfs::diff_trees(s0, s1));
  layers.push_back(vfs::diff_trees(s1, s2));

  std::vector<const vfs::FileTree*> lower_ptrs;
  for (const auto& l : layers) lower_ptrs.push_back(&l);
  OverlayMount mount(lower_ptrs);

  vfs::FileTree flat = vfs::flatten_layers(layers);
  EXPECT_TRUE(flat.equals(s2));

  flat.walk([&](const std::string& path, const vfs::FileNode& node) {
    OverlayEntry e = mount.lookup(path);
    ASSERT_NE(e.node, nullptr) << path;
    EXPECT_EQ(e.node->type(), node.type()) << path;
    if (node.is_regular()) {
      EXPECT_EQ(mount.read_file(path).value(), node.content()) << path;
    }
    if (node.is_directory()) {
      std::vector<std::string> expected;
      for (const auto& [name, child] : node.children()) {
        (void)child;
        expected.push_back(name);
      }
      EXPECT_EQ(mount.list_dir(path), expected) << path;
    }
  });

  // And the union exposes nothing beyond the flattened view.
  EXPECT_TRUE(mount.merged().equals(flat));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayEquivalence,
                         ::testing::Range<std::uint64_t>(400, 416));

}  // namespace
}  // namespace gear::docker
