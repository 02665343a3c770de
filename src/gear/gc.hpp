// Registry-side garbage collection.
//
// Gear decouples file lifetime from image lifetime: deleting an image only
// removes its index; its Gear files stay shared (paper §III-D1). The flip
// side is that the Gear Registry accumulates unreferenced files once their
// last referencing index is gone. This is the classic registry GC problem —
// solved, as registries do, with mark-and-sweep:
//
//   mark:  walk every index image in the Docker registry, load its index
//          layer, collect every fingerprint it references (for chunked
//          files, also the chunk fingerprints via the manifest);
//   sweep: delete every Gear registry object not marked;
//   compact: have the object store return the space the swept objects
//          held (a pack store rewrites its mostly-dead segments).
#pragma once

#include <cstdint>
#include <unordered_set>

#include "docker/registry.hpp"
#include "gear/registry.hpp"
#include "util/fingerprint.hpp"

namespace gear {

struct GcReport {
  std::size_t indexes_scanned = 0;
  std::size_t live_objects = 0;
  std::size_t swept_objects = 0;
  std::uint64_t bytes_reclaimed = 0;
  std::uint64_t bytes_compacted = 0;  // disk space the store's compact() freed
};

class GearRegistryGc {
 public:
  GearRegistryGc(const docker::DockerRegistry& index_registry,
                 GearRegistry& file_registry)
      : index_registry_(index_registry), file_registry_(file_registry) {}

  /// Mark phase only: the set of fingerprints any stored index references
  /// (file fps, chunk manifests' chunk fps).
  std::unordered_set<Fingerprint, FingerprintHash> mark() const;

  /// Full collection. Safe to run while clients deploy: clients hold their
  /// own cached copies, and the mark set is computed from the same registry
  /// the sweep runs against.
  GcReport collect();

 private:
  const docker::DockerRegistry& index_registry_;
  GearRegistry& file_registry_;
};

struct ScrubReport {
  std::size_t objects_checked = 0;
  std::size_t verified = 0;        // content hashes back to its fingerprint
  std::size_t unverifiable = 0;    // salted unique IDs (collision handling)
  std::size_t corrupt = 0;         // undecodable frame, missing chunks
  std::vector<Fingerprint> corrupt_fingerprints;
};

/// Integrity scrub of a Gear registry: re-hashes every object (including
/// reassembled chunked files) against its fingerprint. Objects whose name is
/// a salted unique ID (paper §III-B collision handling) legitimately fail the
/// re-hash and are reported as unverifiable, not corrupt; hard errors —
/// stored frames that fail to decode, chunked files whose chunks are missing
/// or mis-sized — are corrupt, and the scan goes on past them.
ScrubReport scrub_registry(const GearRegistry& registry,
                           const FingerprintHasher& hasher = default_hasher());

}  // namespace gear
