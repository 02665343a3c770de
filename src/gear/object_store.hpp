// Object-store backends: the storage engine beneath GearRegistry.
//
// The registry's query/upload/download surface (the paper's three HTTP
// interfaces, §III-C) is policy — dedup upserts, chunk reassembly, stats.
// Where the bytes actually live is mechanism, and this interface makes that
// mechanism pluggable, mirroring the paper's MinIO-backed file server (§IV):
//
//   * MemoryObjectStore — the historical in-process map, now sharded so
//     independent fingerprints never contend on one lock;
//   * DiskObjectStore   — a durable content-addressed directory
//     (objects/<md5-hex>, chunked/<md5-hex>.gcm), so a registry served over
//     net/wire reopens its store after a process restart with no re-push.
//
// Two kinds of payload, two namespaces (an fp may legitimately appear in
// both, see GearRegistry::remove):
//   * objects   — stored compressed (GZC1) frames: plain Gear files and the
//     individual chunks of chunked files;
//   * manifests — chunk manifests of chunked files, keyed by the *file's*
//     fingerprint, serialized in the .gcm wire form.
//
// Concurrency contract: every method is safe to call concurrently and is
// atomic in isolation (put_if_absent either fully stores a new object or
// reports it present; readers never observe a torn value). Compound
// read-modify-write sequences — the registry's "check both namespaces, then
// insert" dedup upsert — are linearized per fingerprint by GearRegistry's
// shard locks, not here.
//
// Accounting contract: stored_bytes() is the sum of stored compressed frame
// sizes plus serialized manifest sizes — identical between backends and to
// the pre-refactor GearRegistry::storage_bytes() accounting.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "gear/chunking.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace gear {

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // ---- objects: compressed (GZC1) frames ---------------------------------

  virtual bool contains(const Fingerprint& fp) const = 0;

  /// Stores `compressed` under `fp` unless an object already exists there.
  /// Returns true when stored, false when already present (content-addressed
  /// stores never overwrite: same name means same bytes).
  virtual bool put_if_absent(const Fingerprint& fp, Bytes compressed) = 0;

  /// The stored compressed frame. kNotFound when absent.
  virtual StatusOr<Bytes> get(const Fingerprint& fp) const = 0;

  /// Size of the stored frame (= its wire transfer size). kNotFound when
  /// absent.
  virtual StatusOr<std::uint64_t> object_size(const Fingerprint& fp) const = 0;

  /// Removes one object. Returns bytes freed, 0 when absent.
  virtual std::uint64_t erase(const Fingerprint& fp) = 0;

  virtual std::vector<Fingerprint> list_objects() const = 0;
  virtual std::size_t object_count() const = 0;

  // ---- chunk manifests ---------------------------------------------------

  virtual bool contains_manifest(const Fingerprint& fp) const = 0;
  virtual bool put_manifest_if_absent(const Fingerprint& fp,
                                      const ChunkManifest& manifest) = 0;
  virtual StatusOr<ChunkManifest> get_manifest(const Fingerprint& fp) const = 0;
  virtual std::uint64_t erase_manifest(const Fingerprint& fp) = 0;
  virtual std::vector<Fingerprint> list_manifests() const = 0;
  virtual std::size_t manifest_count() const = 0;

  // ---- accounting --------------------------------------------------------

  virtual std::uint64_t stored_bytes() const = 0;
};

/// How many ways object-store state is sharded. Shard choice is by
/// FingerprintHash, which mixes all 16 fingerprint bytes, so uniformly
/// distributed keys spread uniformly across shards.
inline constexpr std::size_t kObjectStoreShards = 16;

inline std::size_t object_store_shard(const Fingerprint& fp) noexcept {
  return FingerprintHash{}(fp) % kObjectStoreShards;
}

/// The historical in-memory backend: byte- and accounting-identical to the
/// pre-refactor GearRegistry maps, split across kObjectStoreShards
/// independently-locked shards so concurrent operations on different
/// fingerprints proceed in parallel.
class MemoryObjectStore final : public ObjectStore {
 public:
  bool contains(const Fingerprint& fp) const override;
  bool put_if_absent(const Fingerprint& fp, Bytes compressed) override;
  StatusOr<Bytes> get(const Fingerprint& fp) const override;
  StatusOr<std::uint64_t> object_size(const Fingerprint& fp) const override;
  std::uint64_t erase(const Fingerprint& fp) override;
  std::vector<Fingerprint> list_objects() const override;
  std::size_t object_count() const override;

  bool contains_manifest(const Fingerprint& fp) const override;
  bool put_manifest_if_absent(const Fingerprint& fp,
                              const ChunkManifest& manifest) override;
  StatusOr<ChunkManifest> get_manifest(const Fingerprint& fp) const override;
  std::uint64_t erase_manifest(const Fingerprint& fp) override;
  std::vector<Fingerprint> list_manifests() const override;
  std::size_t manifest_count() const override;

  std::uint64_t stored_bytes() const override {
    return stored_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Fingerprint, Bytes, FingerprintHash> objects;
    std::unordered_map<Fingerprint, ChunkManifest, FingerprintHash> manifests;
  };

  std::array<Shard, kObjectStoreShards> shards_;
  std::atomic<std::uint64_t> stored_bytes_{0};
};

/// Durable content-addressed backend over a real directory:
///
///   <root>/objects/<md5-hex>        compressed (GZC1) frames
///   <root>/chunked/<md5-hex>.gcm    serialized chunk manifests
///
/// Crash safety: every write lands in a sibling "<name>.tmp" first, is
/// fsync'd, then atomically renamed into place (and the directory fsync'd),
/// so a visible object is always complete. A crash mid-write leaves only a
/// torn temp, which reopen ignores and reaps — reaped_temps() reports how
/// many. A freshly opened store therefore serves exactly the objects whose
/// writes completed, and a wire-served registry built on it survives a
/// process restart with no re-push. Object content is the stored
/// compressed frame, what the wire protocol ships per item.
class DiskObjectStore final : public ObjectStore {
 public:
  /// Opens (creating if needed) a store rooted at `root`: indexes existing
  /// objects and parses existing manifests, removing torn "*.tmp" leftovers.
  /// Throws Error(kCorruptData) on an unparsable manifest file.
  explicit DiskObjectStore(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }

  /// Torn temp files removed by this open (crash-recovery observability).
  std::size_t reaped_temps() const noexcept { return reaped_temps_; }

  bool contains(const Fingerprint& fp) const override;
  bool put_if_absent(const Fingerprint& fp, Bytes compressed) override;
  StatusOr<Bytes> get(const Fingerprint& fp) const override;
  StatusOr<std::uint64_t> object_size(const Fingerprint& fp) const override;
  std::uint64_t erase(const Fingerprint& fp) override;
  std::vector<Fingerprint> list_objects() const override;
  std::size_t object_count() const override;

  bool contains_manifest(const Fingerprint& fp) const override;
  bool put_manifest_if_absent(const Fingerprint& fp,
                              const ChunkManifest& manifest) override;
  StatusOr<ChunkManifest> get_manifest(const Fingerprint& fp) const override;
  std::uint64_t erase_manifest(const Fingerprint& fp) override;
  std::vector<Fingerprint> list_manifests() const override;
  std::size_t manifest_count() const override;

  std::uint64_t stored_bytes() const override {
    return stored_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// In-memory index of what is on disk. Object payloads stay on disk (get
  /// reads the file); manifests are small and parsed once at open, so
  /// chunked downloads never re-read .gcm files.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Fingerprint, std::uint64_t, FingerprintHash> objects;
    std::unordered_map<Fingerprint, ChunkManifest, FingerprintHash> manifests;
  };

  std::filesystem::path object_path(const Fingerprint& fp) const;
  std::filesystem::path manifest_path(const Fingerprint& fp) const;

  std::filesystem::path root_;
  std::array<Shard, kObjectStoreShards> shards_;
  std::atomic<std::uint64_t> stored_bytes_{0};
  std::size_t reaped_temps_ = 0;
};

}  // namespace gear
