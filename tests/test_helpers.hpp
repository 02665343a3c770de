// Shared helpers for the test suite: small fixed trees, a seeded
// random-tree generator for property tests, and a mutation fuzzer.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"
#include "vfs/file_tree.hpp"

namespace gear::testing {

/// Builds a small, fixed tree used by many structural tests.
inline vfs::FileTree sample_tree() {
  vfs::FileTree t;
  t.add_directory("etc");
  t.add_file("etc/hostname", to_bytes("gear-test\n"));
  t.add_file("etc/os-release", to_bytes("NAME=gearos\nVERSION=1\n"));
  t.add_directory("usr/bin");
  t.add_file("usr/bin/app", to_bytes(std::string(2000, 'x')));
  t.add_symlink("usr/bin/app-link", "app");
  t.add_file("var/log/boot.log", to_bytes("booted\n"));
  return t;
}

/// Generates a random merged tree (no whiteouts/opaque) with `n_files`
/// regular files, some directories, symlinks, and contents of mixed
/// compressibility. Deterministic per seed.
inline vfs::FileTree random_tree(std::uint64_t seed, int n_files,
                                 std::uint64_t max_file_size = 4096) {
  Rng rng(seed);
  vfs::FileTree t;
  std::vector<std::string> dirs = {"bin", "etc", "lib", "opt/app",
                                   "usr/share", "var/data"};
  for (const auto& d : dirs) t.add_directory(d);
  for (int i = 0; i < n_files; ++i) {
    const std::string& dir = dirs[rng.next_below(dirs.size())];
    std::string path = dir + "/file" + std::to_string(i);
    auto size = rng.next_range(0, max_file_size);
    t.add_file(path, rng.next_bytes(size, rng.next_double()));
  }
  // A few symlinks.
  int n_links = n_files / 8;
  for (int i = 0; i < n_links; ++i) {
    const std::string& dir = dirs[rng.next_below(dirs.size())];
    t.add_symlink(dir + "/link" + std::to_string(i),
                  "file" + std::to_string(rng.next_below(
                      static_cast<std::uint64_t>(n_files))));
  }
  return t;
}

/// Applies `n_edits` random mutations (add/modify/delete) to a copy of
/// `base`, returning the mutated tree. Deterministic per seed.
inline vfs::FileTree mutate_tree(const vfs::FileTree& base, std::uint64_t seed,
                                 int n_edits) {
  Rng rng(seed);
  vfs::FileTree t = base;

  std::vector<std::string> files;
  t.walk([&files](const std::string& path, const vfs::FileNode& node) {
    if (node.is_regular()) files.push_back(path);
  });

  for (int i = 0; i < n_edits; ++i) {
    double roll = rng.next_double();
    if (roll < 0.4 || files.empty()) {
      // Add a new file.
      std::string path = "opt/app/new" + std::to_string(seed) + "_" +
                         std::to_string(i);
      t.add_file(path, rng.next_bytes(rng.next_range(1, 512), 0.5));
      files.push_back(path);
    } else if (roll < 0.75) {
      // Modify an existing file.
      const std::string& path = files[rng.next_below(files.size())];
      if (t.lookup(path) != nullptr) {
        t.lookup(path)->set_content(
            rng.next_bytes(rng.next_range(1, 512), 0.3));
      }
    } else {
      // Delete one.
      std::size_t idx = rng.next_below(files.size());
      t.remove(files[idx]);
      files.erase(files.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  return t;
}

/// Decodes `iterations` mutants of the valid encoding `valid`: each takes
/// 1..7 random edits (a byte flip, a truncation or appended garbage). A
/// decode may succeed or throw Error; anything else fails the test.
/// Deterministic per seed.
template <typename Fn>
void fuzz_mutations(std::uint64_t seed, const Bytes& valid, int iterations,
                    Fn&& decode) {
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    Bytes mutant = valid;
    int edits = static_cast<int>(rng.next_range(1, 8));
    for (int k = 0; k < edits && !mutant.empty(); ++k) {
      switch (rng.next_below(3)) {
        case 0:  // flip
          mutant[rng.next_below(mutant.size())] ^=
              static_cast<std::uint8_t>(rng.next_range(1, 255));
          break;
        case 1:  // truncate
          mutant.resize(rng.next_below(mutant.size() + 1));
          break;
        case 2:  // append garbage
          append(mutant, rng.next_bytes(rng.next_range(1, 32)));
          break;
      }
    }
    try {
      decode(mutant);
    } catch (const Error&) {
    }
  }
}

/// The semantic tree of a Gear index with `n_stubs` fingerprint stubs
/// spread over 40 directories two levels deep, plus a symlink per 64 stubs,
/// shaped like a converted small-files image. Deterministic per seed.
inline vfs::FileTree stub_index_tree(int n_stubs, std::uint64_t seed) {
  Rng rng(seed);
  vfs::FileTree t;
  for (int i = 0; i < n_stubs; ++i) {
    const std::string dir = "srv/d" + std::to_string(i % 8) + "/s" +
                            std::to_string(i % 40);
    if (i < 40) t.add_directory(dir, vfs::Metadata{0755, 0, 0, 1700000000});
    std::array<std::uint8_t, Fingerprint::kSize> raw{};
    for (std::uint8_t& b : raw) b = static_cast<std::uint8_t>(rng.next_u64());
    const vfs::Metadata meta{0644, 0, 0,
                             1700000000u + static_cast<std::uint64_t>(i)};
    t.add_fingerprint_stub(dir + "/f" + std::to_string(100000 + i) + ".dat",
                           Fingerprint(raw), rng.next_range(256, 16384), meta);
    if (i % 64 == 0) {
      t.add_symlink(dir + "/link" + std::to_string(i),
                    "f" + std::to_string(100000 + i) + ".dat");
    }
  }
  return t;
}

// ------------------------------------------------- pack store records

/// One record of a DiskObjectStore pack, found through its header.
struct PackRecord {
  std::filesystem::path segment;
  std::uint64_t offset = 0;  // of the 32-byte header
  std::uint8_t kind = 0;     // 1 object, 2 manifest, 3 tombstone, 4 commit
  Fingerprint fp;
  std::uint32_t length = 0;  // payload bytes, which follow the header
};

/// The segment files of the pack under `store_dir`, oldest first.
inline std::vector<std::filesystem::path> pack_segments(
    const std::filesystem::path& store_dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(store_dir / "pack")) {
    if (e.path().extension() == ".seg") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline Bytes read_whole(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

/// Every record of the pack under `store_dir`, walked header by header
/// (the layout DiskObjectStore documents): the fingerprint at [4,20) and
/// the payload length at [20,24), little-endian.
inline std::vector<PackRecord> pack_records(
    const std::filesystem::path& store_dir) {
  std::vector<PackRecord> out;
  for (const auto& segment : pack_segments(store_dir)) {
    Bytes raw = read_whole(segment);
    for (std::size_t off = 0; off + 32 <= raw.size();) {
      PackRecord r;
      r.segment = segment;
      r.offset = off;
      r.kind = raw[off + 3] & 0x0F;
      std::array<std::uint8_t, Fingerprint::kSize> fp{};
      std::copy(raw.begin() + static_cast<std::ptrdiff_t>(off + 4),
                raw.begin() + static_cast<std::ptrdiff_t>(off + 20),
                fp.begin());
      r.fp = Fingerprint(fp);
      r.length = static_cast<std::uint32_t>(raw[off + 20]) |
                 static_cast<std::uint32_t>(raw[off + 21]) << 8 |
                 static_cast<std::uint32_t>(raw[off + 22]) << 16 |
                 static_cast<std::uint32_t>(raw[off + 23]) << 24;
      out.push_back(r);
      off += 32 + r.length;
    }
  }
  return out;
}

/// The object (kind 1) or manifest (kind 2) record stored for `fp`.
inline std::optional<PackRecord> find_pack_record(
    const std::filesystem::path& store_dir, const Fingerprint& fp,
    std::uint8_t kind = 1) {
  for (const PackRecord& r : pack_records(store_dir)) {
    if (r.kind == kind && r.fp == fp) return r;
  }
  return std::nullopt;
}

/// Overwrites the bytes at `offset` of `path` in place.
inline void overwrite_bytes(const std::filesystem::path& path,
                            std::uint64_t offset, const std::string& bytes) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace gear::testing
