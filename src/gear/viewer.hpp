// Gear File Viewer: the container's root filesystem view (paper §III-D2).
//
// A docker::OverlayMount of the image's read-only index directory (level 2)
// under the container's writable diff directory (level 3), so whiteouts and
// copy-up follow the one Overlay2 implementation. The Gear twist is the
// lookup path: when a read reaches a fingerprint stub, the viewer pauses the
// access and calls its materializer — the model of the paper's modified
// ovl_lookup_single() plus the user-mode helper that hard-links the file
// from the shared cache or downloads it from the Gear Registry. After
// materialization the stub node becomes a regular node backed by the shared
// content, so every later access (from this or any other container of the
// image) is served directly.
//
// Irregular files (directories, symlinks) are answered straight from the
// index without any fetch.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "docker/overlay.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "vfs/file_tree.hpp"

namespace gear {

class GearFileViewer {
 public:
  /// Fetches the content of a Gear file by fingerprint, from the shared
  /// cache or the Gear Registry. Receives the union path being served so the
  /// client can record first-touch access profiles (gear/prefetch). Must
  /// throw (or propagate) on failure.
  using Materializer = std::function<Bytes(
      const std::string& path, const Fingerprint& fp, std::uint64_t size)>;

  /// `index`: the image's index tree (level 2, shared across containers of
  /// the image — stub materialization mutates it in place).
  /// `diff`: the container's writable layer (level 3).
  /// Both must outlive the viewer.
  ///
  /// `tree_lock` (optional) serializes index-tree access across viewers of
  /// the same image: every union call and the stub→regular replacement
  /// take it, but the materializer itself runs outside, so concurrent
  /// faults still download in parallel (singleflight dedups
  /// same-fingerprint races). Required whenever several threads use
  /// viewers of one image — the lazy reader-storm-plus-backfill case; a
  /// null lock keeps the single-threaded fast path lock-free. Each diff
  /// layer still has one writer: the lock guards the shared index.
  GearFileViewer(vfs::FileTree& index, vfs::FileTree& diff,
                 Materializer materializer, std::mutex* tree_lock = nullptr);

  /// Reads a regular file, materializing a stub on first access.
  StatusOr<Bytes> read_file(std::string_view path);

  /// Fault-in hook: invoked once per stub fault, just before the
  /// materializer, with the union path and the stub's fingerprint/size.
  /// The lazy deploy path uses it to timestamp demand faults.
  using FaultHook = std::function<void(
      const std::string& path, const Fingerprint& fp, std::uint64_t size)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Per-read telemetry: every read_file counts as a read; a read that hit
  /// an already-materialized file (index or diff) is a hit, one that had to
  /// pause for a fingerprint stub is a fault. reads == hits + faults for
  /// successful reads (failed lookups count as reads only).
  struct ReadStats {
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
  };
  ReadStats read_stats() const noexcept {
    return {reads_.load(std::memory_order_relaxed),
            hits_.load(std::memory_order_relaxed),
            faults_.load(std::memory_order_relaxed)};
  }

  /// Reads a symlink target directly from the union (no materialization).
  StatusOr<std::string> read_symlink(std::string_view path) const;

  /// True if `path` resolves in the union view.
  bool exists(std::string_view path) const;

  /// Size of the file at `path` without materializing it (stat on a stub
  /// answers from the index).
  StatusOr<std::uint64_t> stat_size(std::string_view path) const;

  /// Merged directory listing.
  std::vector<std::string> list_dir(std::string_view path) const;

  /// Writes a file into the diff layer (copy-up semantics: the index copy,
  /// if any, is masked, not modified).
  void write_file(std::string_view path, Bytes content,
                  const vfs::Metadata& meta = {});

  /// Creates a directory in the diff layer.
  void make_dir(std::string_view path, const vfs::Metadata& meta = {});

  /// Deletes `path` from the view: removes any diff entry and places a
  /// whiteout if the path still resolves through the union. Returns false
  /// when absent.
  bool remove(std::string_view path);

  /// Count of stubs materialized through this viewer (telemetry).
  std::uint64_t materialized_count() const noexcept {
    return materialized_.load(std::memory_order_relaxed);
  }

  const vfs::FileTree& diff() const noexcept { return mount_.upper_diff(); }
  const vfs::FileTree& index() const noexcept { return index_; }

 private:
  vfs::FileTree& index_;
  docker::OverlayMount mount_;  // index_ under the diff
  Materializer materializer_;
  FaultHook fault_hook_;
  std::mutex* tree_lock_;  // nullable; serializes index access + mutation
  std::atomic<std::uint64_t> materialized_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> faults_{0};
};

}  // namespace gear
