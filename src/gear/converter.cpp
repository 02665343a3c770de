#include "gear/converter.hpp"

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "gear/registry_api.hpp"
#include "util/error.hpp"
#include "util/sha256.hpp"

namespace gear {

namespace {

/// A ".wh." name is a tar layer's whiteout marker; a Gear index has no
/// whiteout nodes, so a source tree may not carry one.
bool reserved_name(std::string_view path) {
  std::string_view name = path.substr(path.rfind('/') + 1);  // npos + 1 == 0
  return name.starts_with(".wh.");
}

/// The registry's digest of `fp` from its query_digests answer: nullopt
/// when the file is not stored; throws, naming `fp`, on any other failure,
/// so a stored object that cannot be read back never reads as absent.
std::optional<Sha256Digest> stored_digest(
    const Fingerprint& fp, const StatusOr<Sha256Digest>& answer) {
  if (answer.ok()) return *answer;
  if (answer.code() == ErrorCode::kNotFound) return std::nullopt;
  throw_error(answer.code(),
              "collision probe of " + fp.hex() + ": " + answer.message());
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

  // Step 2: SHA-256 every local file whose fingerprint is stored, on the
  // pool, and ask the registry for the digests of its copies in
  // batch_slices slices (sized by the local copy, bounded by
  // max_inflight_bytes and kMaxBatchBytes). A file clashes when the two
  // digests differ; no stored byte moves.
  std::vector<std::size_t> stored;
  std::vector<std::uint64_t> sizes;
  std::vector<std::size_t> todo;  // the users of stored[0], stored[1], ...
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    if (present[d] == 0) continue;
    stored.push_back(d);
    sizes.push_back(contents[users[d].front()]->size());
    todo.insert(todo.end(), users[d].begin(), users[d].end());
  }
  std::vector<Sha256Digest> mine(todo.size());
  auto hash_one = [&](std::size_t t) {
    mine[t] = Sha256::hash(*contents[todo[t]]);
  };
  if (util::ThreadPool* workers = pool()) {
    workers->parallel_for_each(todo.size(), hash_one);
  } else {
    for (std::size_t t = 0; t < todo.size(); ++t) hash_one(t);
  }
  std::size_t t = 0;  // walks `todo` and `mine` in step with the slices
  for (const BatchSlice& slice :
       batch_slices(sizes, concurrency_.max_inflight_bytes)) {
    std::vector<Fingerprint> fps;
    for (std::size_t k = slice.begin; k < slice.end; ++k) {
      fps.push_back(distinct[stored[k]]);
    }
    std::vector<StatusOr<Sha256Digest>> answers =
        existing_->query_digests(fps, pool());
    for (std::size_t k = slice.begin; k < slice.end; ++k) {
      // A file gone since the query stays a miss.
      std::optional<Sha256Digest> theirs =
          stored_digest(fps[k - slice.begin], answers[k - slice.begin]);
      for (std::size_t i : users[stored[k]]) {
        clash[i] = theirs && mine[t] != *theirs;
        ++t;
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
    // fingerprint, a one-item digest query for a salted one).
    if (auto it = assigned.find(fp); it != assigned.end()) {
      if (*it->second == content) return fp;  // duplicate within the image
    } else {
      if (salt != 0 && existing_ != nullptr) {
        std::optional<Sha256Digest> theirs =
            stored_digest(fp, existing_->query_digests({fp}).front());
        clash = theirs && *theirs != Sha256::hash(content);
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
