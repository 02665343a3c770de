#include "gear/gc.hpp"

#include <optional>

#include "docker/layer.hpp"
#include "gear/converter.hpp"
#include "gear/index.hpp"

namespace gear {

std::unordered_set<Fingerprint, FingerprintHash> GearRegistryGc::mark() const {
  std::unordered_set<Fingerprint, FingerprintHash> live;
  for (const std::string& ref : index_registry_.list_manifests()) {
    docker::Manifest manifest = unwrap(index_registry_.get_manifest(ref),
                                       "gc mark: manifest " + ref);
    if (manifest.config.labels.count(kGearIndexLabel) == 0) {
      continue;  // classic image: references no Gear files
    }
    if (manifest.layers.size() != 1) continue;
    StatusOr<Bytes> blob = index_registry_.get_blob(manifest.layers[0].digest);
    if (!blob.ok()) continue;  // dangling manifest: nothing to mark
    docker::Layer layer = docker::Layer::from_blob(std::move(blob).value(),
                                                   manifest.layers[0].digest);
    GearIndex index = GearIndex::from_layer(layer);
    for (const Fingerprint& fp : index.distinct_fingerprints()) {
      live.insert(fp);
      // A chunked file keeps its manifest AND every chunk alive.
      if (file_registry_.is_chunked(fp)) {
        StatusOr<ChunkManifest> cm = file_registry_.chunk_manifest(fp);
        if (cm.ok()) {
          for (const Fingerprint& chunk_fp : cm->chunks) {
            live.insert(chunk_fp);
          }
        }
      }
    }
  }
  return live;
}

GcReport GearRegistryGc::collect() {
  GcReport report;
  for (const std::string& ref : index_registry_.list_manifests()) {
    docker::Manifest manifest = unwrap(index_registry_.get_manifest(ref),
                                       "gc scan: manifest " + ref);
    if (manifest.config.labels.count(kGearIndexLabel) != 0) {
      ++report.indexes_scanned;
    }
  }

  std::unordered_set<Fingerprint, FingerprintHash> live = mark();
  report.live_objects = live.size();

  // Sweep manifests first (so a dead chunked file's chunks are judged by
  // the mark set alone), then plain/chunk objects.
  for (const Fingerprint& fp : file_registry_.list_chunked()) {
    if (live.count(fp) != 0) continue;
    report.bytes_reclaimed += file_registry_.remove(fp);
    ++report.swept_objects;
  }
  for (const Fingerprint& fp : file_registry_.list_objects()) {
    if (live.count(fp) != 0) continue;
    report.bytes_reclaimed += file_registry_.remove(fp);
    ++report.swept_objects;
  }
  report.bytes_compacted = file_registry_.store().compact();
  return report;
}

ScrubReport scrub_registry(const GearRegistry& registry,
                           const FingerprintHasher& hasher) {
  ScrubReport report;
  auto check = [&](const Fingerprint& fp) {
    ++report.objects_checked;
    std::optional<Bytes> content;
    try {
      StatusOr<Bytes> got = registry.download(fp);
      if (got.ok()) content = std::move(got).value();
    } catch (const Error&) {
      // A stored frame that fails to decode: corrupt, like a missing chunk.
    }
    if (!content) {
      ++report.corrupt;
      report.corrupt_fingerprints.push_back(fp);
      return;
    }
    if (hasher.fingerprint(*content) == fp) {
      ++report.verified;
    } else {
      ++report.unverifiable;
    }
  };
  for (const Fingerprint& fp : registry.list_objects()) check(fp);
  for (const Fingerprint& fp : registry.list_chunked()) check(fp);
  return report;
}

}  // namespace gear
