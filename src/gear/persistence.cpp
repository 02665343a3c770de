#include "gear/persistence.hpp"

#include "gear/fs_store.hpp"  // sanitize_reference
#include "util/file_io.hpp"

namespace gear {
namespace fs = std::filesystem;

PersistReport save_docker_registry(const docker::DockerRegistry& registry,
                                   const fs::path& root) {
  PersistReport report;
  // Full snapshot semantics: anything removed from the in-memory registry
  // (deleted manifests, GC-swept blobs) must disappear on disk too.
  fs::remove_all(root / "docker");
  fs::create_directories(root / "docker" / "blobs");
  fs::create_directories(root / "docker" / "manifests");

  for (const docker::Digest& digest : registry.list_blobs()) {
    write_file_bytes(root / "docker" / "blobs" / digest.hex(),
                     unwrap(registry.get_blob(digest),
                            "save: docker blob " + digest.hex()));
    ++report.blobs;
  }
  for (const std::string& ref : registry.list_manifests()) {
    std::string json = unwrap(registry.get_manifest_json(ref),
                              "save: docker manifest " + ref);
    write_file_bytes(
        root / "docker" / "manifests" / (sanitize_reference(ref) + ".json"),
        to_bytes(json));
    ++report.manifests;
  }
  return report;
}

PersistReport load_docker_registry(const fs::path& root,
                                   docker::DockerRegistry* registry) {
  if (!fs::is_directory(root / "docker")) {
    throw_error(ErrorCode::kNotFound,
                "no persisted docker registry at " + root.string());
  }
  PersistReport report;
  for (const auto& entry : fs::directory_iterator(root / "docker" / "blobs")) {
    Bytes blob = read_file_bytes(entry.path());
    docker::Digest digest =
        docker::Digest::from_string(entry.path().filename().string());
    registry->put_blob(digest, std::move(blob));  // verifies digest
    ++report.blobs;
  }
  for (const auto& entry :
       fs::directory_iterator(root / "docker" / "manifests")) {
    std::string json = to_string(read_file_bytes(entry.path()));
    docker::Manifest manifest = docker::Manifest::from_json_string(json);
    registry->put_manifest_json(manifest.reference(), std::move(json));
    ++report.manifests;
  }
  return report;
}

}  // namespace gear
