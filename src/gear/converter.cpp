#include "gear/converter.hpp"

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "gear/registry_api.hpp"
#include "util/error.hpp"

namespace gear {

namespace {

/// A ".wh." name is a tar layer's whiteout marker; a Gear index has no
/// whiteout nodes, so a source tree may not carry one.
bool reserved_name(std::string_view path) {
  std::string_view name = path.substr(path.rfind('/') + 1);  // npos + 1 == 0
  return name.starts_with(".wh.");
}

}  // namespace

GearConverter::GearConverter(const FingerprintHasher& hasher,
                             const FileRegistryApi* existing)
    : hasher_(hasher), existing_(existing) {}

util::ThreadPool* GearConverter::pool() const {
  std::size_t width = concurrency_.resolved_workers();
  if (width <= 1) return nullptr;
  if (!pool_ || pool_->worker_count() != width) {
    pool_ = std::make_unique<util::ThreadPool>(width);
  }
  return pool_.get();
}

std::optional<Bytes> GearConverter::fetch_existing(
    const Fingerprint& fp) const {
  if (existing_ == nullptr) return std::nullopt;
  StatusOr<Bytes> got = existing_->download(fp);
  if (got.ok()) return std::move(got).value();
  if (got.code() == ErrorCode::kNotFound) return std::nullopt;
  throw_error(got.code(),
              "collision probe of " + fp.hex() + ": " + got.message());
}

std::vector<std::uint8_t> GearConverter::probe_existing(
    const std::vector<const Bytes*>& contents,
    const std::vector<Fingerprint>& raw) const {
  std::vector<std::uint8_t> clash(contents.size(), 0);
  if (existing_ == nullptr || contents.empty()) return clash;

  // Step 1: one query over the distinct fingerprints. `users[d]` lists the
  // files hashing to distinct[d]: copies of one content, or different
  // contents on a collision.
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> slot;
  std::vector<Fingerprint> distinct;
  std::vector<std::vector<std::size_t>> users;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    auto [it, fresh] = slot.emplace(raw[i], distinct.size());
    if (fresh) {
      distinct.push_back(raw[i]);
      users.emplace_back();
    }
    users[it->second].push_back(i);
  }
  std::vector<std::uint8_t> present = existing_->query_many(distinct);

  // Steps 2 and 3: fetch the present files in batch_slices slices bounded
  // by max_inflight_bytes and kMaxBatchBytes (sized by the local copy),
  // decompressing on the pool; compare, keep the verdict, drop the bytes.
  // A failed slice is re-probed one file at a time, so a file gone since
  // the query stays a miss and any other failure names its fingerprint.
  std::vector<std::size_t> stored;
  std::vector<std::uint64_t> sizes;
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    if (present[d] == 0) continue;
    stored.push_back(d);
    sizes.push_back(contents[users[d].front()]->size());
  }
  auto judge = [&](std::size_t d, const Bytes& copy) {
    for (std::size_t i : users[d]) clash[i] = *contents[i] != copy;
  };
  for (const BatchSlice& slice :
       batch_slices(sizes, concurrency_.max_inflight_bytes)) {
    std::vector<Fingerprint> fps;
    for (std::size_t k = slice.begin; k < slice.end; ++k) {
      fps.push_back(distinct[stored[k]]);
    }
    StatusOr<std::vector<Bytes>> got = existing_->download_batch(fps, pool());
    for (std::size_t k = slice.begin; k < slice.end; ++k) {
      if (got.ok()) {
        judge(stored[k], (*got)[k - slice.begin]);
      } else if (std::optional<Bytes> one =
                     fetch_existing(fps[k - slice.begin])) {
        judge(stored[k], *one);
      }
    }
  }
  return clash;
}

Fingerprint GearConverter::resolve_fingerprint(const Bytes& content,
                                               const Fingerprint& raw,
                                               bool clash,
                                               const Assigned& assigned,
                                               bool* collided) const {
  *collided = false;
  Bytes salted;  // lazily built: content || 0x01 || salt varint
  std::uint64_t salt = 0;
  Fingerprint fp = raw;
  for (;;) {
    // Compare against content already assigned this fingerprint, else
    // against the registry's copy (the probe's verdict for the unsalted
    // fingerprint, a single lookup for a salted one).
    if (auto it = assigned.find(fp); it != assigned.end()) {
      if (*it->second == content) return fp;  // duplicate within the image
    } else {
      if (salt != 0) {
        std::optional<Bytes> copy = fetch_existing(fp);
        clash = copy && *copy != content;
      }
      if (!clash) return fp;  // fresh, or a dedup against the registry
    }
    // Collision: same fingerprint, different bytes. Assign a salted unique
    // ID in place of the fingerprint (paper §III-B) and re-check.
    *collided = true;
    salted.assign(content.begin(), content.end());
    salted.push_back(0x01);
    for (std::uint64_t s = ++salt; s != 0; s >>= 8) {
      salted.push_back(static_cast<std::uint8_t>(s));
    }
    fp = hasher_.fingerprint(salted);
  }
}

ConversionResult GearConverter::convert(const docker::Image& image) const {
  // Replay layers bottom-to-top into the full root filesystem.
  return convert(image.flatten(), image.manifest.name, image.manifest.tag,
                 image.manifest.config);
}

ConversionResult GearConverter::convert(vfs::FileTree root, std::string name,
                                        std::string tag,
                                        docker::ImageConfig config) const {
  ConversionResult result;
  ConversionStats& stats = result.stats;

  // Collect regular-file contents in walk order, so `contents[i]` lines up
  // with the i-th regular file the index-building walk below will visit.
  // Whiteout names are refused here, before any registry traffic.
  std::vector<const Bytes*> contents;
  root.walk([&contents](const std::string& path, const vfs::FileNode& node) {
    if (reserved_name(path)) {
      throw_error(ErrorCode::kInvalidArgument,
                  "reserved whiteout name in root filesystem: " + path);
    }
    if (node.type() == vfs::NodeType::kRegular) {
      contents.push_back(&node.content());
    }
  });

  // Parallel pre-pass: hash every regular file across the pool.
  std::vector<Fingerprint> raw;
  util::ThreadPool* workers = contents.size() < 4 ? nullptr : pool();
  if (workers == nullptr) {
    raw.reserve(contents.size());  // too small to pay pool hand-off costs
    for (const Bytes* c : contents) raw.push_back(hasher_.fingerprint(*c));
  } else {
    raw = workers->parallel_map<Fingerprint>(
        contents.size(),
        [&](std::size_t i) { return hasher_.fingerprint(*contents[i]); },
        concurrency_.max_inflight_bytes,
        [&](std::size_t i) { return contents[i]->size(); });
  }
  std::vector<std::uint8_t> clash = probe_existing(contents, raw);

  // Ordered serial reduce: collision resolution and salted-ID assignment
  // walk the files in the same order as the serial implementation, so stats
  // and the unique-file set are identical at any worker count. The index
  // consumes the tree: a unique file's bytes move into `files`, reserved up
  // front so that `assigned` can point at them there for the comparisons
  // that follow.
  Assigned assigned;
  std::vector<std::pair<Fingerprint, Bytes>> files;
  files.reserve(contents.size());
  std::size_t next_file = 0;

  GearIndex index = GearIndex::from_root_fs(
      std::move(root), [&](const std::string&, Bytes& content) {
        ++stats.files_seen;
        stats.bytes_seen += content.size();
        bool collided = false;
        Fingerprint fp = resolve_fingerprint(content, raw[next_file],
                                             clash[next_file] != 0, assigned,
                                             &collided);
        ++next_file;
        if (collided) ++stats.collisions;
        if (!assigned.contains(fp)) {
          files.emplace_back(fp, std::move(content));
          assigned.emplace(fp, &files.back().second);
        }
        return fp;
      });
  stats.files_unique = files.size();

  result.image.index_image =
      index.to_image(std::move(name), std::move(tag), std::move(config));
  stats.index_wire_bytes = result.image.index_image.compressed_size();
  result.image.index = std::move(index);
  result.image.files = std::move(files);
  return result;
}

ConversionResult GearConverter::convert_timed(const docker::Image& image,
                                              sim::DiskModel& disk,
                                              double* seconds_out) const {
  // Every modeled step returns its cost; sum them for the conversion time.
  double total = 0.0;

  // Read the compressed layer blobs from registry disk.
  for (const docker::Layer& layer : image.layers) {
    total += disk.read(layer.compressed_size());
    // Decompress + unpack the layer into the reconstruction area.
    total += disk.write(layer.uncompressed_size());
  }

  ConversionResult result = convert(image);

  // Traverse the reconstructed file system: one metadata op per tree node,
  // one read per regular file.
  vfs::TreeStats tstats = result.image.index.tree().stats();
  for (std::uint64_t i = 0;
       i < tstats.directories + tstats.symlinks + tstats.fingerprint_stubs;
       ++i) {
    total += disk.touch();
  }
  for (const auto& [fp, content] : result.image.files) {
    (void)fp;
    total += disk.read(content.size());
    total += disk.write(content.size());  // store the Gear file
  }
  // Write the index image (tiny).
  total += disk.write(result.stats.index_wire_bytes);

  if (seconds_out != nullptr) *seconds_out = total;
  return result;
}

}  // namespace gear
