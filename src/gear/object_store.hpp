// Object-store backends: the storage engine beneath GearRegistry.
//
// The registry's query/upload/download surface (the paper's three HTTP
// interfaces, §III-C) is policy — dedup upserts, chunk reassembly, stats.
// Where the bytes actually live is mechanism, and this interface makes that
// mechanism pluggable, mirroring the paper's MinIO-backed file server (§IV):
//
//   * MemoryObjectStore — the historical in-process map, now sharded so
//     independent fingerprints never contend on one lock;
//   * DiskObjectStore   — a durable pack of append-only segment files
//     (<root>/pack/), one CRC-checked record per object or manifest, so a
//     registry served over net/wire reopens its store after a process
//     restart with no re-push, and an upload batch costs one append and
//     one sync instead of a file, a rename and two fsyncs per object.
//
// Two kinds of payload, two namespaces (an fp may legitimately appear in
// both, see GearRegistry::remove):
//   * objects   — stored compressed (GZC1) frames: plain Gear files and the
//     individual chunks of chunked files;
//   * manifests — chunk manifests of chunked files, keyed by the *file's*
//     fingerprint, serialized in the .gcm wire form.
//
// Concurrency contract: every method is safe to call concurrently and is
// atomic in isolation (put_if_absent and put_batch either fully store a new
// item or report it present; readers never observe a torn value). Compound
// read-modify-write sequences — the registry's "check both namespaces, then
// insert" dedup upsert — are linearized per fingerprint by GearRegistry's
// shard locks, not here.
//
// Accounting contract: stored_bytes() is the sum of stored compressed frame
// sizes plus serialized manifest sizes — identical between backends and to
// the pre-refactor GearRegistry::storage_bytes() accounting. Record headers
// and dead records in the pack are not counted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "gear/chunking.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"
#include "util/fingerprint.hpp"

namespace gear {

/// One item of ObjectStore::put_batch: a compressed frame stored as an
/// object, or, when `manifest` is set, a chunk manifest (`frame` unused).
struct StorePut {
  Fingerprint fp;
  Bytes frame;
  std::optional<ChunkManifest> manifest;
};

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

  // ---- batches and space -------------------------------------------------

  /// Stores every item not already present in its namespace (a repeat
  /// within the batch counts as present); out[i] != 0 when items[i] was
  /// stored. Default: put_if_absent / put_manifest_if_absent in item order,
  /// each durable on its own. DiskObjectStore makes the whole batch durable
  /// with one append and one sync before any of it becomes readable.
  virtual std::vector<std::uint8_t> put_batch(std::vector<StorePut> items);

  /// Returns to the file system the space that erased items still hold;
  /// the bytes reclaimed. Default: 0 (a store whose erase frees at once).
  virtual std::uint64_t compact();

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

/// Durable content-addressed backend: a pack of append-only segment files.
///
///   <root>/pack/<8-digit id>.seg   records, appended in id then offset order
///
/// A record is a 32-byte header — magic, version, kind (object, manifest,
/// tombstone or commit; a tombstone also names the kind it erases),
/// fingerprint, payload length, CRC-32C of the payload, CRC-32C of the
/// header — followed by the payload verbatim: the GZC1 frame or the
/// serialized manifest (a tombstone and a commit carry none). The layout
/// is spelled out in object_store.cpp. Each shard's map holds fp →
/// (segment, offset, length,
/// crc); every get() is one pread plus the CRC check, and a mismatch is
/// kCorruptData naming the fingerprint, the segment and the offset.
///
/// Durability: writes are serialized by one append lock. put_batch writes
/// every new record of its batch and then a commit record in one append,
/// makes one fdatasync, and only then publishes the records to the maps,
/// so no reader sees a record before its sync returns. A commit vouches
/// for every record before it in its segment, so only the records after
/// the newest segment's last commit — the final batch — can be
/// unacknowledged. put_if_absent is a batch of one. erase appends a
/// tombstone without a sync of its own; the next batch or compaction
/// commits it, and a crash before then only brings the erased item back. A
/// segment is sealed once it passes kPackSegmentBytes; the next batch
/// starts a new one.
///
/// Open walks the record headers and reads no payload outside the final
/// batch (manifests, which are parsed once into memory, excepted). The
/// final batch's payloads are CRC-checked and it is cut back to its last
/// complete record; reaped_temps() counts the records cut. A damaged
/// header that an intact commit follows, or one in an older segment, fails
/// the open with kCorruptData naming the segment and the offset; any other
/// damaged payload is left in place and reported by
/// the reads (and so by scrub). A store in the retired one-file-per-object
/// layout (<root>/objects or <root>/chunked) is refused: re-import it.
///
/// Writers: the first write, cut or compaction takes an exclusive flock on
/// the pack directory and holds it for the store's lifetime, so a second
/// process that tries to write to a live store fails with an error naming
/// it. A process that only reads never takes the lock and never truncates.
class DiskObjectStore final : public ObjectStore {
 public:
  /// Opens (creating if needed) a store rooted at `root`. Throws
  /// Error(kCorruptData) on a damaged record header outside the final batch
  /// and Error(kUnsupported) on the retired layout.
  explicit DiskObjectStore(std::filesystem::path root);
  ~DiskObjectStore() override;

  DiskObjectStore(const DiskObjectStore&) = delete;
  DiskObjectStore& operator=(const DiskObjectStore&) = delete;

  const std::filesystem::path& root() const noexcept { return root_; }

  /// Records of the final batch that this open cut as torn (a partial
  /// record or unparsable tail bytes count one).
  std::size_t reaped_temps() const noexcept { return reaped_temps_; }

  /// fdatasync/fsync calls made on the pack so far (segments and the pack
  /// directory).
  std::uint64_t syncs() const noexcept {
    return syncs_.load(std::memory_order_relaxed);
  }

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

  std::vector<std::uint8_t> put_batch(std::vector<StorePut> items) override;

  /// Rewrites every segment whose live records fill less than half of it:
  /// the live records (and the tombstones still needed) are copied to a
  /// new segment (temp, fsync, rename, directory fsync), then the old one
  /// is unlinked. Returns the bytes the pack shrank by.
  std::uint64_t compact() override;

  std::uint64_t stored_bytes() const override {
    return stored_bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Segment {
    std::uint32_t id = 0;
    UniqueFd fd;
    std::uint64_t size = 0;  // bytes this process counts as the segment's
    std::uint64_t live = 0;  // header + payload bytes of published records
  };

  /// Where a published record's payload lives. `segment` stays valid while
  /// the shard lock that found it is held: compaction repoints records
  /// under their shard locks before it closes a segment.
  struct Location {
    Segment* segment = nullptr;
    std::uint64_t offset = 0;  // of the record header
    std::uint32_t length = 0;  // payload bytes
    std::uint32_t crc = 0;     // CRC-32C of the payload
  };

  struct ManifestEntry {
    Location location;
    std::optional<ChunkManifest> manifest;  // empty: damaged at open
  };

  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Fingerprint, Location, FingerprintHash> objects;
    std::unordered_map<Fingerprint, ManifestEntry, FingerprintHash> manifests;
  };

  struct Record;  // one parsed header (object_store.cpp)

  /// True when damage at `damaged` in the newest segment (`size` bytes,
  /// read through `fd`) is its torn final batch rather than a damaged
  /// batch that later ones followed.
  static bool is_torn_tail(int fd, std::uint64_t damaged, std::uint64_t size);

  void open_segment(std::uint32_t id, bool newest);
  void apply(const Record& record, Segment& segment);
  std::string describe(std::uint32_t segment, std::uint64_t offset) const;

  /// The append lock is held. Takes the writer lock on first use, checks
  /// that no other process wrote since this one read the pack, and cuts a
  /// torn tail found at open.
  void claim_writer();
  /// The append lock is held: the segment the next record goes to, a new
  /// one when the newest is sealed.
  Segment& active_segment();
  /// The append lock is held: writes `parts` at the end of `segment` in
  /// one pwritev, then fdatasyncs when `durable`; on failure cuts the
  /// partial append off again and throws.
  void append(Segment& segment, const std::vector<BytesView>& parts,
              bool durable);
  void sync(int fd, const std::filesystem::path& path);
  /// The append lock is held: a durable commit after the tombstones that
  /// still wait for one in `segment`, the newest.
  void commit_pending(Segment& segment);
  std::uint64_t erase_record(const Fingerprint& fp, bool manifest);
  std::uint64_t compact_segment(Segment& segment);

  std::filesystem::path root_;
  std::filesystem::path pack_dir_;
  UniqueFd pack_fd_;  // the pack directory: dir fsyncs and the writer flock
  std::array<Shard, kObjectStoreShards> shards_;
  std::atomic<std::uint64_t> stored_bytes_{0};
  std::atomic<std::uint64_t> syncs_{0};
  std::size_t reaped_temps_ = 0;

  /// Guards everything below and serializes every write.
  std::mutex append_mutex_;
  std::map<std::uint32_t, std::unique_ptr<Segment>> segments_;
  bool writer_ = false;            // holds the flock
  std::uint64_t observed_size_ = 0;  // newest segment's file size at open
  bool uncommitted_ = false;  // records follow the newest segment's commit
};

/// Size past which a pack segment is sealed and a new one started.
inline constexpr std::uint64_t kPackSegmentBytes = std::uint64_t{64} << 20;

/// gc compacts a segment whose live records fill less than this share.
inline constexpr double kPackCompactBelow = 0.5;

}  // namespace gear
