// Catalog persistence: save/load the Docker registry (manifests and index
// layers) to a plain directory.
//
// Layout (what a real deployment would keep on the registry host's disk):
//
//   <root>/docker/blobs/<sha256-hex>         compressed layer tarballs
//   <root>/docker/manifests/<ref>.json       manifest documents
//
// The Gear files need no snapshot: they live in a DiskObjectStore
// (gear/object_store.hpp), which is durable as written.
#pragma once

#include <filesystem>

#include "docker/registry.hpp"

namespace gear {

struct PersistReport {
  std::size_t blobs = 0;
  std::size_t manifests = 0;
};

/// Writes the Docker registry under `<root>/docker` (full snapshot: stale
/// files from earlier saves are removed).
PersistReport save_docker_registry(const docker::DockerRegistry& registry,
                                   const std::filesystem::path& root);

/// Loads the Docker registry from `<root>/docker`. Throws Error(kNotFound)
/// when the layout is missing, kCorruptData on damaged content.
PersistReport load_docker_registry(const std::filesystem::path& root,
                                   docker::DockerRegistry* registry);

}  // namespace gear
