#include "gear/conversion_service.hpp"

#include "docker/layer.hpp"

namespace gear {

ConversionService::ConversionService(docker::DockerRegistry& classic_registry,
                                     docker::DockerRegistry& index_registry,
                                     FileRegistryApi& file_registry,
                                     Options options)
    : classic_registry_(classic_registry),
      index_registry_(index_registry),
      file_registry_(file_registry),
      options_(options),
      converter_(default_hasher(), &file_registry_) {
  converter_.set_concurrency(options_.concurrency);
}

util::ThreadPool* ConversionService::pool() {
  std::size_t width = options_.concurrency.resolved_workers();
  if (width <= 1) return nullptr;
  if (!pool_ || pool_->worker_count() != width) {
    pool_ = std::make_unique<util::ThreadPool>(width);
  }
  return pool_.get();
}

std::string ConversionService::layer_key(const docker::Manifest& manifest) {
  std::string key;
  for (const docker::LayerDescriptor& desc : manifest.layers) {
    key += desc.digest.hex();
    key += '/';
  }
  return key;
}

std::string ConversionService::receive_image(const docker::Image& image) {
  ++stats_.images_received;
  classic_registry_.push_image(image);

  std::string key = layer_key(image.manifest);
  if (auto it = converted_.find(key); it != converted_.end()) {
    // Same filesystem already converted (re-push or re-tag): only publish
    // the manifest alias; files and index layer dedup away entirely.
    ++stats_.conversions_skipped;
    docker::Manifest alias =
        unwrap(index_registry_.get_manifest(it->second),
               "conversion alias: gear manifest " + it->second);
    alias.name = image.manifest.name;
    alias.tag = image.manifest.tag;
    index_registry_.put_manifest_json(alias.reference(),
                                      alias.to_json_string());
    if (options_.drop_original) {
      classic_registry_.delete_manifest(image.manifest.reference());
    }
    return alias.reference();
  }

  ConversionResult result = converter_.convert(image);
  stats_.files_uploaded += push_gear_image(
      result.image, index_registry_, file_registry_, options_.chunk_policy,
      pool(), options_.concurrency.max_inflight_bytes);
  stats_.bytes_seen += result.stats.bytes_seen;
  ++stats_.conversions_performed;
  converted_[key] = image.manifest.reference();

  if (options_.drop_original) {
    classic_registry_.delete_manifest(image.manifest.reference());
  }
  return image.manifest.reference();
}

std::size_t ConversionService::convert_backlog() {
  std::size_t converted = 0;
  for (const std::string& ref : classic_registry_.list_manifests()) {
    docker::Manifest manifest = unwrap(classic_registry_.get_manifest(ref),
                                       "backlog: classic manifest " + ref);
    if (manifest.config.labels.count(kGearIndexLabel) != 0) continue;
    if (index_registry_.has_manifest(ref)) continue;
    if (auto it = converted_.find(layer_key(manifest));
        it != converted_.end()) {
      // Same filesystem already converted under another tag: alias it.
      docker::Manifest alias =
          unwrap(index_registry_.get_manifest(it->second),
                 "backlog alias: gear manifest " + it->second);
      alias.name = manifest.name;
      alias.tag = manifest.tag;
      index_registry_.put_manifest_json(alias.reference(),
                                        alias.to_json_string());
      ++stats_.conversions_skipped;
      continue;
    }

    // Rebuild the Image from stored blobs and convert it.
    docker::Image image;
    image.manifest = manifest;
    for (const docker::LayerDescriptor& desc : manifest.layers) {
      image.layers.push_back(docker::Layer::from_blob(
          unwrap(classic_registry_.get_blob(desc.digest),
                 "backlog: layer " + desc.digest.to_string() + " of " + ref),
          desc.digest));
    }
    ConversionResult result = converter_.convert(image);
    stats_.files_uploaded += push_gear_image(
        result.image, index_registry_, file_registry_, options_.chunk_policy,
        pool(), options_.concurrency.max_inflight_bytes);
    stats_.bytes_seen += result.stats.bytes_seen;
    ++stats_.conversions_performed;
    converted_[layer_key(manifest)] = ref;
    ++converted;
  }
  return converted;
}

}  // namespace gear
