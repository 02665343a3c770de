#include "gear/object_store.hpp"

#include <fcntl.h>
#include <limits.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "util/crc32.hpp"

namespace gear {
namespace fs = std::filesystem;

// ------------------------------------------------------------ the defaults

std::vector<std::uint8_t> ObjectStore::put_batch(std::vector<StorePut> items) {
  std::vector<std::uint8_t> stored(items.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    StorePut& item = items[i];
    stored[i] = item.manifest ? put_manifest_if_absent(item.fp, *item.manifest)
                              : put_if_absent(item.fp, std::move(item.frame));
  }
  return stored;
}

std::uint64_t ObjectStore::compact() { return 0; }

// ------------------------------------------------------------------ memory

bool MemoryObjectStore::contains(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.objects.count(fp) != 0;
}

bool MemoryObjectStore::put_if_absent(const Fingerprint& fp, Bytes compressed) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto [it, inserted] = shard.objects.emplace(fp, std::move(compressed));
  if (!inserted) return false;
  stored_bytes_.fetch_add(it->second.size(), std::memory_order_relaxed);
  return true;
}

StatusOr<Bytes> MemoryObjectStore::get(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return it->second;
}

StatusOr<std::uint64_t> MemoryObjectStore::object_size(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return it->second.size();
}

std::uint64_t MemoryObjectStore::erase(const Fingerprint& fp) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) return 0;
  std::uint64_t freed = it->second.size();
  shard.objects.erase(it);
  stored_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

std::vector<Fingerprint> MemoryObjectStore::list_objects() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, blob] : shard.objects) {
      (void)blob;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t MemoryObjectStore::object_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.objects.size();
  }
  return n;
}

bool MemoryObjectStore::contains_manifest(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.manifests.count(fp) != 0;
}

bool MemoryObjectStore::put_manifest_if_absent(const Fingerprint& fp,
                                               const ChunkManifest& manifest) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto [it, inserted] = shard.manifests.emplace(fp, manifest);
  if (!inserted) return false;
  stored_bytes_.fetch_add(it->second.serialize().size(),
                          std::memory_order_relaxed);
  return true;
}

StatusOr<ChunkManifest> MemoryObjectStore::get_manifest(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) {
    return {ErrorCode::kNotFound, "manifest not found: " + fp.hex()};
  }
  return it->second;
}

std::uint64_t MemoryObjectStore::erase_manifest(const Fingerprint& fp) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::unique_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) return 0;
  std::uint64_t freed = it->second.serialize().size();
  shard.manifests.erase(it);
  stored_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  return freed;
}

std::vector<Fingerprint> MemoryObjectStore::list_manifests() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, manifest] : shard.manifests) {
      (void)manifest;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t MemoryObjectStore::manifest_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.manifests.size();
  }
  return n;
}

// -------------------------------------------------------------------- disk

namespace {

// Record header, little-endian:
//   [0,2)   magic "GP"
//   [2]     version
//   [3]     kind (low nibble); a tombstone's high nibble is the kind it erases
//   [4,20)  fingerprint (zero in a commit)
//   [20,24) payload length
//   [24,28) CRC-32C of the payload
//   [28,32) CRC-32C of bytes [0,28)
constexpr std::size_t kHeaderBytes = 32;
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kKindObject = 1;
constexpr std::uint8_t kKindManifest = 2;
constexpr std::uint8_t kKindTombstone = 3;
constexpr std::uint8_t kKindCommit = 4;
constexpr std::uint64_t kNoOffset = ~std::uint64_t{0};

using Header = std::array<std::uint8_t, kHeaderBytes>;

void store_le(std::uint8_t* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t load_le(const std::uint8_t* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = bytes - 1; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

Header make_header(std::uint8_t kind, const std::uint8_t* key,
                   BytesView payload) {
  Header h{};
  h[0] = 'G';
  h[1] = 'P';
  h[2] = kVersion;
  h[3] = kind;
  std::memcpy(h.data() + 4, key, Fingerprint::kSize);
  store_le(h.data() + 20, payload.size(), 4);
  store_le(h.data() + 24, crc32c(payload), 4);
  store_le(h.data() + 28, crc32c(BytesView(h.data(), 28)), 4);
  return h;
}

/// A commit record: every record before it in its segment was synced before
/// the commit's own append was acknowledged.
Header make_commit() {
  const std::uint8_t zero[Fingerprint::kSize] = {};
  return make_header(kKindCommit, zero, {});
}

std::string segment_name(std::uint32_t id) {
  char name[16];
  std::snprintf(name, sizeof name, "%08u.seg", id);
  return name;
}

bool parse_segment_name(const std::string& name, std::uint32_t* id) {
  if (name.size() != 12 || name.compare(8, 4, ".seg") != 0) return false;
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<std::uint32_t>(name[i] - '0');
  }
  *id = v;
  return true;
}

/// Reads exactly `n` bytes at `offset`. False with errno set on a read
/// error, false with errno 0 at end of file.
bool pread_exact(int fd, std::uint8_t* out, std::size_t n,
                 std::uint64_t offset) {
  while (n > 0) {
    ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) {
      errno = 0;
      return false;
    }
    out += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

std::string read_error(const char* what) {
  return errno == 0 ? std::string(what) + ": unexpected end of file"
                    : std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

/// One parsed record header and where it sits.
struct DiskObjectStore::Record {
  std::uint8_t kind = 0;     // low nibble of the kind byte
  std::uint8_t erases = 0;   // a tombstone's target kind
  Fingerprint fp;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t crc = 0;

  std::uint64_t end() const { return offset + kHeaderBytes + length; }

  /// Parses the header at `h`; false unless it is intact.
  static bool parse(const std::uint8_t* h, std::uint64_t offset,
                    Record* out) {
    if (h[0] != 'G' || h[1] != 'P' || h[2] != kVersion) return false;
    if (load_le(h + 28, 4) != crc32c(BytesView(h, 28))) return false;
    Record r;
    r.kind = h[3] & 0x0F;
    r.erases = static_cast<std::uint8_t>(h[3] >> 4);
    if (r.kind < kKindObject || r.kind > kKindCommit) return false;
    const bool erases_ok = r.kind == kKindTombstone
                               ? r.erases == kKindObject ||
                                     r.erases == kKindManifest
                               : r.erases == 0;
    if (!erases_ok) return false;
    std::array<std::uint8_t, Fingerprint::kSize> raw;
    std::memcpy(raw.data(), h + 4, raw.size());
    r.fp = Fingerprint(raw);
    r.offset = offset;
    r.length = static_cast<std::uint32_t>(load_le(h + 20, 4));
    r.crc = static_cast<std::uint32_t>(load_le(h + 24, 4));
    *out = r;
    return true;
  }
};

// Torn when no intact commit follows the damage: a commit is the last
// thing its append writes, so bytes before an intact commit belong to an
// acknowledged batch.
bool DiskObjectStore::is_torn_tail(int fd, std::uint64_t damaged,
                                   std::uint64_t size) {
  Bytes tail(size - damaged);
  if (!pread_exact(fd, tail.data(), tail.size(), damaged)) return false;
  for (std::size_t pos = 1; pos + kHeaderBytes <= tail.size(); ++pos) {
    if (tail[pos] != 'G' || tail[pos + 1] != 'P') continue;
    Record r;
    if (Record::parse(tail.data() + pos, damaged + pos, &r) &&
        r.kind == kKindCommit && r.length == 0) {
      return false;
    }
  }
  return true;
}

DiskObjectStore::DiskObjectStore(fs::path root)
    : root_(std::move(root)), pack_dir_(root_ / "pack") {
  for (const char* retired : {"objects", "chunked"}) {
    if (fs::is_directory(root_ / retired)) {
      throw_error(ErrorCode::kUnsupported,
                  (root_ / retired).string() +
                      " holds gear files in the retired one-file-per-object "
                      "layout; re-import the images into a new store");
    }
  }
  fs::create_directories(pack_dir_);
  pack_fd_ = open_directory(pack_dir_);
  std::vector<std::uint32_t> ids;
  for (const auto& entry : fs::directory_iterator(pack_dir_)) {
    std::uint32_t id = 0;
    if (parse_segment_name(entry.path().filename().string(), &id)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    open_segment(ids[i], i + 1 == ids.size());
  }
}

DiskObjectStore::~DiskObjectStore() = default;

std::string DiskObjectStore::describe(std::uint32_t segment,
                                      std::uint64_t offset) const {
  return "pack segment " + (pack_dir_ / segment_name(segment)).string() +
         " at offset " + std::to_string(offset);
}

void DiskObjectStore::open_segment(std::uint32_t id, bool newest) {
  const fs::path path = pack_dir_ / segment_name(id);
  auto segment = std::make_unique<Segment>();
  segment->id = id;
  segment->fd = UniqueFd(::open(path.c_str(), O_RDWR | O_CLOEXEC));
  if (!segment->fd) {
    // A pack this process may not write is still readable.
    segment->fd = UniqueFd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  }
  if (!segment->fd) throw_errno("cannot open pack segment", path);
  struct stat st {};
  if (::fstat(segment->fd.get(), &st) != 0) {
    throw_errno("cannot stat pack segment", path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  const int fd = segment->fd.get();

  // Walk the headers only: one pread of kHeaderBytes per record.
  std::vector<Record> records;
  std::uint64_t offset = 0;
  std::uint64_t damaged = kNoOffset;
  while (offset < size) {
    Header h;
    Record r;
    if (size - offset < kHeaderBytes) {
      damaged = offset;
      break;
    }
    if (!pread_exact(fd, h.data(), h.size(), offset)) {
      throw_error(ErrorCode::kInternal,
                  read_error(("cannot read " + describe(id, offset))
                                 .c_str()));
    }
    if (!Record::parse(h.data(), offset, &r) || r.end() > size) {
      damaged = offset;
      break;
    }
    records.push_back(r);
    offset = r.end();
  }

  std::uint64_t cut = size;
  if (damaged != kNoOffset) {
    if (!newest || !is_torn_tail(fd, damaged, size)) {
      throw_error(ErrorCode::kCorruptData,
                  "damaged record header in " + describe(id, damaged));
    }
    cut = damaged;
    reaped_temps_ = 1;
  }

  if (newest) {
    // The final batch, the only one that can be unacknowledged: the records
    // after the last commit. Its payloads are checked and it is cut back to
    // its last complete record.
    std::size_t first = records.size();
    while (first > 0 && records[first - 1].kind != kKindCommit) --first;
    Bytes payload;
    for (std::size_t i = first; i < records.size(); ++i) {
      const Record& r = records[i];
      payload.resize(r.length);
      if (!pread_exact(fd, payload.data(), payload.size(),
                       r.offset + kHeaderBytes)) {
        throw_error(ErrorCode::kInternal,
                    read_error(("cannot read " + describe(id, r.offset))
                                   .c_str()));
      }
      if (crc32c(payload) != r.crc) {
        cut = r.offset;
        reaped_temps_ += records.size() - i;
        records.resize(i);
        break;
      }
    }
    observed_size_ = size;
    uncommitted_ = first < records.size();
  }

  segment->size = cut;
  for (const Record& r : records) apply(r, *segment);
  segments_.emplace(id, std::move(segment));
}

void DiskObjectStore::apply(const Record& r, Segment& segment) {
  Shard& shard = shards_[object_store_shard(r.fp)];
  const Location location{&segment, r.offset, r.length, r.crc};
  // Drops what `fp` held in one namespace; a later record supersedes it.
  auto release = [&](const Location& old) {
    old.segment->live -= kHeaderBytes + old.length;
    stored_bytes_.fetch_sub(old.length, std::memory_order_relaxed);
  };
  auto take = [&] {
    segment.live += kHeaderBytes + r.length;
    stored_bytes_.fetch_add(r.length, std::memory_order_relaxed);
  };
  switch (r.kind) {
    case kKindObject: {
      auto [it, inserted] = shard.objects.try_emplace(r.fp, location);
      if (!inserted) {
        release(it->second);
        it->second = location;
      }
      take();
      break;
    }
    case kKindManifest: {
      // Manifests are parsed once, here; a damaged one stays listed and its
      // reads report the damage.
      ManifestEntry entry{location, std::nullopt};
      Bytes raw(r.length);
      if (pread_exact(segment.fd.get(), raw.data(), raw.size(),
                      r.offset + kHeaderBytes) &&
          crc32c(raw) == r.crc) {
        try {
          entry.manifest = ChunkManifest::parse(raw);
        } catch (const Error&) {
        }
      }
      auto [it, inserted] = shard.manifests.try_emplace(r.fp, entry);
      if (!inserted) {
        release(it->second.location);
        it->second = std::move(entry);
      }
      take();
      break;
    }
    case kKindTombstone:
      if (r.erases == kKindObject) {
        if (auto it = shard.objects.find(r.fp); it != shard.objects.end()) {
          release(it->second);
          shard.objects.erase(it);
        }
      } else if (auto it = shard.manifests.find(r.fp);
                 it != shard.manifests.end()) {
        release(it->second.location);
        shard.manifests.erase(it);
      }
      break;
    default:  // a commit
      break;
  }
}

void DiskObjectStore::sync(int fd, const fs::path& path) {
  if (::fdatasync(fd) != 0) throw_errno("fdatasync failed for", path);
  syncs_.fetch_add(1, std::memory_order_relaxed);
}

void DiskObjectStore::claim_writer() {
  if (writer_) return;
  if (::flock(pack_fd_.get(), LOCK_EX | LOCK_NB) != 0) {
    if (errno == EWOULDBLOCK) {
      throw_error(ErrorCode::kInternal,
                  "object store " + root_.string() +
                      " is being written by another process");
    }
    throw_errno("cannot lock", pack_dir_);
  }
  // Between this process's open and its lock, another writer may have
  // appended, compacted or started a segment: its view would be stale.
  const std::uint32_t newest =
      segments_.empty() ? 0 : segments_.rbegin()->first;
  bool stale = false;
  for (const auto& entry : fs::directory_iterator(pack_dir_)) {
    const std::string name = entry.path().filename().string();
    std::uint32_t id = 0;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path());  // a compaction that never finished
    } else if (parse_segment_name(name, &id) && id > newest) {
      stale = true;
    }
  }
  if (!stale && !segments_.empty()) {
    Segment& segment = *segments_.rbegin()->second;
    const fs::path path = pack_dir_ / segment_name(segment.id);
    struct stat st {};
    struct stat named {};
    if (::fstat(segment.fd.get(), &st) != 0) {
      throw_errno("cannot stat pack segment", path);
    }
    const auto on_disk = static_cast<std::uint64_t>(st.st_size);
    if (::stat(path.c_str(), &named) != 0 || named.st_ino != st.st_ino) {
      stale = true;  // compacted away since this open
    } else if (on_disk == observed_size_ && on_disk > segment.size) {
      // The torn tail this open found: cut it before the first append.
      if (::ftruncate(segment.fd.get(), static_cast<off_t>(segment.size)) !=
          0) {
        throw_errno("cannot truncate pack segment", path);
      }
      sync(segment.fd.get(), path);
    } else if (on_disk != segment.size) {
      stale = true;
    }
  }
  if (stale) {
    ::flock(pack_fd_.get(), LOCK_UN);
    throw_error(ErrorCode::kInternal,
                "object store " + root_.string() +
                    " was written by another process since this one opened "
                    "it; reopen it");
  }
  writer_ = true;
}

DiskObjectStore::Segment& DiskObjectStore::active_segment() {
  if (!segments_.empty()) {
    Segment& newest = *segments_.rbegin()->second;
    if (newest.size < kPackSegmentBytes) return newest;
    // Tombstones still waiting for a commit are committed in the segment
    // being sealed, so only the newest segment can end torn.
    commit_pending(newest);
  }
  const std::uint32_t id = segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  const fs::path path = pack_dir_ / segment_name(id);
  auto segment = std::make_unique<Segment>();
  segment->id = id;
  segment->fd = UniqueFd(
      ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644));
  if (!segment->fd) throw_errno("cannot create pack segment", path);
  // The new name is durable before any record in it is acknowledged.
  sync(pack_fd_.get(), pack_dir_);
  Segment& created = *segment;
  segments_.emplace(id, std::move(segment));
  return created;
}

void DiskObjectStore::commit_pending(Segment& segment) {
  if (!uncommitted_) return;
  const Header commit = make_commit();
  append(segment, {BytesView(commit.data(), commit.size())}, true);
  uncommitted_ = false;
}

void DiskObjectStore::append(Segment& segment,
                             const std::vector<BytesView>& parts, bool durable) {
  const fs::path path = pack_dir_ / segment_name(segment.id);
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  std::uint64_t bytes = 0;
  for (BytesView part : parts) {
    if (part.empty()) continue;
    iov.push_back({const_cast<std::uint8_t*>(part.data()), part.size()});
    bytes += part.size();
  }
  auto fail = [&](const char* what) {
    const int saved = errno;
    // Cut a partial append off again, so the next one starts on a record
    // boundary.
    (void)::ftruncate(segment.fd.get(), static_cast<off_t>(segment.size));
    errno = saved;
    throw_errno(what, path);
  };
  std::uint64_t offset = segment.size;
  std::size_t next = 0;
  while (next < iov.size()) {
    const int count = static_cast<int>(
        std::min<std::size_t>(iov.size() - next, IOV_MAX));
    ssize_t n = ::pwritev(segment.fd.get(), &iov[next], count,
                          static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("append failed to");
    }
    offset += static_cast<std::uint64_t>(n);
    auto left = static_cast<std::size_t>(n);
    while (next < iov.size() && left >= iov[next].iov_len) {
      left -= iov[next].iov_len;
      ++next;
    }
    if (left > 0) {
      iov[next].iov_base = static_cast<std::uint8_t*>(iov[next].iov_base) + left;
      iov[next].iov_len -= left;
    }
  }
  if (durable && ::fdatasync(segment.fd.get()) != 0) {
    fail("fdatasync failed for");
  }
  if (durable) syncs_.fetch_add(1, std::memory_order_relaxed);
  segment.size += bytes;
}

bool DiskObjectStore::contains(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.objects.count(fp) != 0;
}

bool DiskObjectStore::put_if_absent(const Fingerprint& fp, Bytes compressed) {
  std::vector<StorePut> one(1);
  one[0].fp = fp;
  one[0].frame = std::move(compressed);
  return put_batch(std::move(one))[0] != 0;
}

bool DiskObjectStore::put_manifest_if_absent(const Fingerprint& fp,
                                             const ChunkManifest& manifest) {
  std::vector<StorePut> one(1);
  one[0].fp = fp;
  one[0].manifest = manifest;
  return put_batch(std::move(one))[0] != 0;
}

std::vector<std::uint8_t> DiskObjectStore::put_batch(
    std::vector<StorePut> items) {
  std::vector<std::uint8_t> stored(items.size(), 0);
  if (items.empty()) return stored;
  // Payloads and their checksums are ready before the append lock.
  std::vector<Bytes> manifests(items.size());
  std::vector<Header> headers(items.size());
  auto payload_of = [&](std::size_t i) -> BytesView {
    return items[i].manifest ? BytesView(manifests[i]) : BytesView(items[i].frame);
  };
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].manifest) manifests[i] = items[i].manifest->serialize();
    if (payload_of(i).size() > UINT32_MAX) {
      throw_error(ErrorCode::kInvalidArgument,
                  "object " + items[i].fp.hex() +
                      " is too large for a pack record (" +
                      std::to_string(payload_of(i).size()) + " bytes)");
    }
    headers[i] = make_header(items[i].manifest ? kKindManifest : kKindObject,
                             items[i].fp.raw().data(), payload_of(i));
  }

  std::lock_guard lock(append_mutex_);
  std::vector<std::size_t> fresh;
  std::unordered_set<Fingerprint, FingerprintHash> new_objects;
  std::unordered_set<Fingerprint, FingerprintHash> new_manifests;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Fingerprint& fp = items[i].fp;
    const bool is_new = items[i].manifest
                            ? !contains_manifest(fp) &&
                                  new_manifests.insert(fp).second
                            : !contains(fp) && new_objects.insert(fp).second;
    if (is_new) fresh.push_back(i);
  }
  if (fresh.empty()) return stored;
  claim_writer();
  Segment& segment = active_segment();

  // One append: every new record, then the commit that closes the batch.
  std::vector<BytesView> parts;
  parts.reserve(2 * fresh.size() + 1);
  std::vector<std::uint64_t> offsets;
  offsets.reserve(fresh.size());
  std::uint64_t at = segment.size;
  for (std::size_t i : fresh) {
    offsets.push_back(at);
    parts.emplace_back(headers[i].data(), headers[i].size());
    parts.push_back(payload_of(i));
    at += kHeaderBytes + payload_of(i).size();
  }
  const Header commit = make_commit();
  parts.emplace_back(commit.data(), commit.size());
  append(segment, parts, true);
  uncommitted_ = false;

  // Published only now that the sync has returned.
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    const std::size_t i = fresh[k];
    StorePut& item = items[i];
    const auto length = static_cast<std::uint32_t>(payload_of(i).size());
    const Location location{&segment, offsets[k], length,
                            static_cast<std::uint32_t>(
                                load_le(headers[i].data() + 24, 4))};
    Shard& shard = shards_[object_store_shard(item.fp)];
    {
      std::unique_lock shard_lock(shard.mutex);
      if (item.manifest) {
        shard.manifests.emplace(
            item.fp, ManifestEntry{location, std::move(item.manifest)});
      } else {
        shard.objects.emplace(item.fp, location);
      }
    }
    segment.live += kHeaderBytes + length;
    stored_bytes_.fetch_add(length, std::memory_order_relaxed);
    stored[i] = 1;
  }
  return stored;
}

StatusOr<Bytes> DiskObjectStore::get(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  Bytes out;
  Location location;
  std::uint32_t segment = 0;
  {
    // The pread runs under the shard lock: compaction repoints a record
    // under it before closing the segment the record was read from.
    std::shared_lock lock(shard.mutex);
    auto it = shard.objects.find(fp);
    if (it == shard.objects.end()) {
      return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
    }
    location = it->second;
    segment = location.segment->id;
    out.resize(location.length);
    if (!pread_exact(location.segment->fd.get(), out.data(), out.size(),
                     location.offset + kHeaderBytes)) {
      return {ErrorCode::kInternal,
              read_error(("cannot read object " + fp.hex() + " from " +
                          describe(segment, location.offset))
                             .c_str())};
    }
  }
  if (crc32c(out) != location.crc) {
    return {ErrorCode::kCorruptData,
            "object " + fp.hex() + " is damaged: checksum mismatch in " +
                describe(segment, location.offset)};
  }
  return out;
}

StatusOr<std::uint64_t> DiskObjectStore::object_size(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.objects.find(fp);
  if (it == shard.objects.end()) {
    return {ErrorCode::kNotFound, "object not found: " + fp.hex()};
  }
  return std::uint64_t{it->second.length};
}

std::uint64_t DiskObjectStore::erase_record(const Fingerprint& fp,
                                            bool manifest) {
  Shard& shard = shards_[object_store_shard(fp)];
  std::lock_guard lock(append_mutex_);
  Location location;
  {
    std::shared_lock shard_lock(shard.mutex);
    if (manifest) {
      auto it = shard.manifests.find(fp);
      if (it == shard.manifests.end()) return 0;
      location = it->second.location;
    } else {
      auto it = shard.objects.find(fp);
      if (it == shard.objects.end()) return 0;
      location = it->second;
    }
  }
  claim_writer();
  Segment& segment = active_segment();
  // A tombstone rides with the next commit: no sync of its own.
  const auto erased = manifest ? kKindManifest : kKindObject;
  const Header tombstone = make_header(
      static_cast<std::uint8_t>(kKindTombstone | (erased << 4)),
      fp.raw().data(), {});
  append(segment, {BytesView(tombstone.data(), tombstone.size())}, false);
  uncommitted_ = true;
  {
    std::unique_lock shard_lock(shard.mutex);
    if (manifest) {
      shard.manifests.erase(fp);
    } else {
      shard.objects.erase(fp);
    }
  }
  location.segment->live -= kHeaderBytes + location.length;
  stored_bytes_.fetch_sub(location.length, std::memory_order_relaxed);
  return location.length;
}

std::uint64_t DiskObjectStore::erase(const Fingerprint& fp) {
  return erase_record(fp, false);
}

std::vector<Fingerprint> DiskObjectStore::list_objects() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, location] : shard.objects) {
      (void)location;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t DiskObjectStore::object_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.objects.size();
  }
  return n;
}

bool DiskObjectStore::contains_manifest(const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  return shard.manifests.count(fp) != 0;
}

StatusOr<ChunkManifest> DiskObjectStore::get_manifest(
    const Fingerprint& fp) const {
  const Shard& shard = shards_[object_store_shard(fp)];
  std::shared_lock lock(shard.mutex);
  auto it = shard.manifests.find(fp);
  if (it == shard.manifests.end()) {
    return {ErrorCode::kNotFound, "manifest not found: " + fp.hex()};
  }
  if (!it->second.manifest) {
    return {ErrorCode::kCorruptData,
            "manifest " + fp.hex() + " is damaged: checksum mismatch in " +
                describe(it->second.location.segment->id,
                         it->second.location.offset)};
  }
  return *it->second.manifest;
}

std::uint64_t DiskObjectStore::erase_manifest(const Fingerprint& fp) {
  return erase_record(fp, true);
}

std::vector<Fingerprint> DiskObjectStore::list_manifests() const {
  std::vector<Fingerprint> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    for (const auto& [fp, entry] : shard.manifests) {
      (void)entry;
      out.push_back(fp);
    }
  }
  return out;
}

std::size_t DiskObjectStore::manifest_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    n += shard.manifests.size();
  }
  return n;
}

std::uint64_t DiskObjectStore::compact() {
  std::lock_guard lock(append_mutex_);
  std::vector<Segment*> victims;
  for (const auto& [id, segment] : segments_) {
    if (static_cast<double>(segment->live) <
        kPackCompactBelow * static_cast<double>(segment->size)) {
      victims.push_back(segment.get());
    }
  }
  if (victims.empty()) return 0;
  claim_writer();
  // Tombstones still waiting for a commit become durable first: a
  // compacted segment no longer holds what they erase.
  commit_pending(*segments_.rbegin()->second);
  std::uint64_t reclaimed = 0;
  for (Segment* victim : victims) reclaimed += compact_segment(*victim);
  return reclaimed;
}

std::uint64_t DiskObjectStore::compact_segment(Segment& victim) {
  const std::uint32_t old_id = victim.id;
  const bool oldest = old_id == segments_.begin()->first;
  const int in = victim.fd.get();

  // Which records survive: the published ones this segment still holds,
  // and tombstones that may shadow a put in an older segment.
  std::vector<Record> keep;
  for (std::uint64_t offset = 0; offset < victim.size;) {
    Header h;
    Record r;
    if (!pread_exact(in, h.data(), h.size(), offset) ||
        !Record::parse(h.data(), offset, &r)) {
      throw_error(ErrorCode::kCorruptData,
                  "compaction: damaged record header in " +
                      describe(old_id, offset));
    }
    offset = r.end();
    const Shard& shard = shards_[object_store_shard(r.fp)];
    std::shared_lock shard_lock(shard.mutex);
    bool live = false;
    if (r.kind == kKindObject) {
      auto it = shard.objects.find(r.fp);
      live = it != shard.objects.end() && it->second.segment == &victim &&
             it->second.offset == r.offset;
    } else if (r.kind == kKindManifest) {
      auto it = shard.manifests.find(r.fp);
      live = it != shard.manifests.end() &&
             it->second.location.segment == &victim &&
             it->second.location.offset == r.offset;
    } else if (r.kind == kKindTombstone && !oldest) {
      live = r.erases == kKindObject ? shard.objects.count(r.fp) == 0
                                     : shard.manifests.count(r.fp) == 0;
    }
    if (live) keep.push_back(r);
  }

  const std::uint64_t old_size = victim.size;
  Segment* fresh = nullptr;
  std::vector<std::uint64_t> moved_to(keep.size());
  if (!keep.empty()) {
    const std::uint32_t id = segments_.rbegin()->first + 1;
    const fs::path path = pack_dir_ / segment_name(id);
    const fs::path tmp = path.string() + ".tmp";
    auto out = std::make_unique<Segment>();
    out->id = id;
    out->fd = UniqueFd(
        ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    if (!out->fd) throw_errno("cannot create", tmp);
    Bytes record;
    for (std::size_t k = 0; k < keep.size(); ++k) {
      const Record& r = keep[k];
      record.resize(kHeaderBytes + r.length);
      if (!pread_exact(in, record.data(), record.size(), r.offset)) {
        throw_error(ErrorCode::kInternal,
                    read_error(("compaction: cannot read " +
                                describe(old_id, r.offset))
                                   .c_str()));
      }
      moved_to[k] = out->size;
      write_all(out->fd.get(), record, tmp);
      out->size += record.size();
      if (r.kind != kKindTombstone) out->live += record.size();
    }
    // Synced before it becomes visible under its name.
    const Header commit = make_commit();
    write_all(out->fd.get(), BytesView(commit.data(), commit.size()), tmp);
    out->size += kHeaderBytes;
    sync(out->fd.get(), tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      throw_errno("rename failed onto", path);
    }
    sync(pack_fd_.get(), pack_dir_);
    fresh = out.get();
    segments_.emplace(id, std::move(out));
  }

  // Repoint every moved record under its shard lock; only then may the old
  // segment close.
  for (std::size_t k = 0; k < keep.size(); ++k) {
    const Record& r = keep[k];
    if (r.kind == kKindTombstone) continue;
    Shard& shard = shards_[object_store_shard(r.fp)];
    std::unique_lock shard_lock(shard.mutex);
    Location& location = r.kind == kKindObject
                             ? shard.objects.at(r.fp)
                             : shard.manifests.at(r.fp).location;
    location.segment = fresh;
    location.offset = moved_to[k];
  }
  const fs::path old_path = pack_dir_ / segment_name(old_id);
  if (::unlink(old_path.c_str()) != 0) throw_errno("cannot unlink", old_path);
  sync(pack_fd_.get(), pack_dir_);
  segments_.erase(old_id);
  const std::uint64_t new_size = fresh != nullptr ? fresh->size : 0;
  return old_size > new_size ? old_size - new_size : 0;
}

}  // namespace gear
