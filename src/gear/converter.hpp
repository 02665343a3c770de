// Gear Converter: turns a root filesystem into a Gear image.
//
// Runs registry-side, once per image (paper §III-B). A layered Docker image
// is first decompressed and replayed bottom-to-top into the full root
// filesystem (applying whiteouts); a tree that is already flat (gearctl's
// loaded directory) goes in directly. The converter walks the tree building
// the Gear index and the set of unique Gear files. The index is packaged as a
// single-layer Docker image carrying the image config (env/entrypoint), so
// Docker tooling stores and distributes it unchanged (paper §III-C).
//
// Collision handling (paper §III-B): when two different contents map to the
// same fingerprint — impossible in practice with MD5, but exercised in tests
// via a truncated hasher — the converter detects it by content comparison
// and assigns the newcomer a salted unique fingerprint, disabling dedup for
// that file only. Contents already in the registry take part through a
// batched probe: one query_many over the image's fingerprints, then one
// query_digests per bounded slice of the present files, whose stored
// copies' SHA-256 digests are compared with the local files' own. The
// registry hashes where the bytes are, so the probe never downloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "docker/image.hpp"
#include "gear/index.hpp"
#include "sim/disk.hpp"
#include "util/fingerprint.hpp"
#include "util/thread_pool.hpp"

namespace gear {

struct ConversionStats {
  std::size_t files_seen = 0;       // regular files in the root fs
  std::size_t files_unique = 0;     // distinct Gear files produced
  std::size_t collisions = 0;       // salted unique IDs assigned
  std::uint64_t bytes_seen = 0;     // logical file bytes
  std::uint64_t index_wire_bytes = 0;  // compressed index layer size
};

struct ConversionResult {
  GearImage image;
  ConversionStats stats;
};

class FileRegistryApi;

class GearConverter {
 public:
  /// `existing` is the registry whose stored files conversion checks for
  /// collisions, so a file from a previously converted image is never
  /// shadowed by different bytes under the same fingerprint; pass nullptr
  /// to check only within the image being converted. Only kNotFound from
  /// it reads as "absent": any other probe failure throws, naming the
  /// fingerprint.
  explicit GearConverter(const FingerprintHasher& hasher = default_hasher(),
                         const FileRegistryApi* existing = nullptr);

  /// Converts `image`: flattens its layers, then converts the result as
  /// convert(tree, ...) does under the image's name, tag and config.
  ConversionResult convert(const docker::Image& image) const;

  /// Converts the root filesystem `root` directly. The index image is named
  /// "<name>:<tag>" and carries `config`; its manifest is distinguishable
  /// from a classic image by the "gear.index" label. Throws
  /// kInvalidArgument, before any registry traffic, when a node's name
  /// starts with ".wh." (reserved for layer whiteouts, which a Gear index
  /// cannot carry). `root` is consumed: each unique file's bytes move into
  /// the result's `files` rather than being copied, so a caller that keeps
  /// its tree passes a copy.
  ConversionResult convert(vfs::FileTree root, std::string name,
                           std::string tag, docker::ImageConfig config) const;

  /// Converts while charging the work to a disk model: reading the
  /// compressed layers, writing back the unpacked tree, reading it for the
  /// walk, and writing unique Gear files + the index (Fig. 6's cost).
  /// Returns the simulated seconds taken alongside the result.
  ConversionResult convert_timed(const docker::Image& image,
                                 sim::DiskModel& disk,
                                 double* seconds_out) const;

  /// Sets the worker budget for convert(): per-file fingerprinting and the
  /// probe's SHA-256 fan out across a pool of `resolved_workers()`
  /// threads; collision resolution and stats stay an ordered
  /// single-threaded reduce, so the result (index, stats, file set, salted
  /// IDs) is byte-identical at any width.
  /// A converter is not itself thread-safe: call convert() from one thread.
  void set_concurrency(const util::Concurrency& concurrency) {
    concurrency_ = concurrency;
    pool_.reset();
  }
  const util::Concurrency& concurrency() const noexcept { return concurrency_; }

 private:
  using Assigned =
      std::unordered_map<Fingerprint, const Bytes*, FingerprintHash>;

  /// The batched probe: out[i] != 0 iff the registry holds bytes other
  /// than *contents[i] under raw[i] (a collision with stored content),
  /// judged by SHA-256 digests. All zero without a registry.
  std::vector<std::uint8_t> probe_existing(
      const std::vector<const Bytes*>& contents,
      const std::vector<Fingerprint>& raw) const;

  /// Resolves the fingerprint for `content`: normally `raw`
  /// (= hasher(content)), but salted to a unique value when a different
  /// content already owns that fingerprint, in `assigned` (this conversion)
  /// or in the registry (`clash` is the probe's verdict for `raw`).
  Fingerprint resolve_fingerprint(const Bytes& content, const Fingerprint& raw,
                                  bool clash, const Assigned& assigned,
                                  bool* collided) const;

  /// The pool, or nullptr when the budget is one worker.
  util::ThreadPool* pool() const;

  const FingerprintHasher& hasher_;
  const FileRegistryApi* existing_;
  util::Concurrency concurrency_;
  mutable std::unique_ptr<util::ThreadPool> pool_;  // lazily built
};

}  // namespace gear
