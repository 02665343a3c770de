#include "gear/fleet.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>

#include "compress/codec.hpp"

namespace gear {
namespace {

/// splitmix64 finalizer: cheap, well-mixed 64-bit points for ring placement.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr auto kRelaxed = std::memory_order_relaxed;

std::size_t fleet_pool_width(std::size_t shard_count, std::size_t workers) {
  if (workers != 0) return workers;
  unsigned hw = std::thread::hardware_concurrency();
  std::size_t cap = hw == 0 ? 1 : hw;
  return std::max<std::size_t>(1, std::min(shard_count, cap));
}

}  // namespace

// ---- HashRing -------------------------------------------------------------

void HashRing::add_shard(std::size_t shard, std::size_t vnodes) {
  if (contains(shard)) return;
  points_.reserve(points_.size() + vnodes);
  for (std::size_t v = 0; v < vnodes; ++v) {
    // Mix shard and vnode into one key; the shifted shard keeps every
    // (shard, vnode) pair distinct for any practical fleet size.
    points_.emplace_back(mix64((static_cast<std::uint64_t>(shard) << 20) | v),
                         shard);
  }
  std::sort(points_.begin(), points_.end());
  ++shard_count_;
}

void HashRing::remove_shard(std::size_t shard) {
  auto it = std::remove_if(points_.begin(), points_.end(),
                           [&](const auto& p) { return p.second == shard; });
  if (it == points_.end()) return;
  points_.erase(it, points_.end());
  --shard_count_;
}

bool HashRing::contains(std::size_t shard) const {
  return std::any_of(points_.begin(), points_.end(),
                     [&](const auto& p) { return p.second == shard; });
}

std::uint64_t HashRing::point_of(const Fingerprint& fp) {
  return mix64(static_cast<std::uint64_t>(FingerprintHash{}(fp)));
}

std::vector<std::size_t> HashRing::replicas(const Fingerprint& fp,
                                            std::size_t count) const {
  std::vector<std::size_t> out;
  if (points_.empty() || count == 0) return out;
  count = std::min(count, shard_count_);
  out.reserve(count);
  const std::uint64_t point = point_of(fp);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), point,
      [](std::uint64_t p, const auto& entry) { return p < entry.first; });
  for (std::size_t walked = 0; walked < points_.size() && out.size() < count;
       ++walked, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

// ---- FleetRegistry --------------------------------------------------------

FleetRegistry::FleetRegistry(std::vector<FileRegistryApi*> shards,
                             Options options)
    : shards_(std::move(shards)),
      replicas_(options.replicas),
      vnodes_(std::max<std::size_t>(1, options.vnodes_per_shard)),
      transport_accounted_(false),
      pool_(fleet_pool_width(shards_.size(), options.workers)) {
  if (shards_.empty()) {
    throw_error(ErrorCode::kInvalidArgument, "fleet: no shards");
  }
  if (replicas_ == 0) {
    throw_error(ErrorCode::kInvalidArgument, "fleet: replicas must be >= 1");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i] == nullptr) {
      throw_error(ErrorCode::kInvalidArgument, "fleet: null shard");
    }
    ring_.add_shard(i, vnodes_);
    shard_stats_.push_back(std::make_unique<FleetShardStats>());
  }
  transport_accounted_ = shards_[0]->transport_accounted();
}

std::size_t FleetRegistry::shard_count() const {
  std::shared_lock lk(ring_mutex_);
  return ring_.shard_count();
}

std::size_t FleetRegistry::replication() const {
  std::shared_lock lk(ring_mutex_);
  return std::min(replicas_, ring_.shard_count());
}

std::vector<std::size_t> FleetRegistry::replicas_of(
    const Fingerprint& fp) const {
  std::shared_lock lk(ring_mutex_);
  return ring_.replicas(fp, replicas_);
}

const FleetShardStats& FleetRegistry::shard_stats(std::size_t shard_id) const {
  std::shared_lock lk(ring_mutex_);
  if (shard_id >= shard_stats_.size()) {
    throw_error(ErrorCode::kInvalidArgument, "fleet: bad shard id");
  }
  return *shard_stats_[shard_id];
}

FleetRegistry::Routing FleetRegistry::routing_snapshot() const {
  std::shared_lock lk(ring_mutex_);
  Routing rt;
  rt.ring = ring_;
  rt.shards = shards_;
  rt.stats.reserve(shard_stats_.size());
  for (const auto& s : shard_stats_) rt.stats.push_back(s.get());
  return rt;
}

void FleetRegistry::catalog_put(const Fingerprint& fp, bool chunked,
                                const ChunkPolicy& policy) {
  std::lock_guard<std::mutex> lk(catalog_mutex_);
  // First writer wins: a fingerprint's storage form is immutable once
  // stored (dedup upserts never restructure an object).
  catalog_.emplace(fp, CatalogEntry{chunked, policy});
}

// ---- reads ----------------------------------------------------------------

template <typename T>
StatusOr<T> FleetRegistry::read_replicas(
    const Fingerprint& fp, std::size_t fanout, std::uint64_t items,
    const std::function<StatusOr<T>(FileRegistryApi&)>& read,
    std::optional<ErrorCode> final_code) const {
  Routing rt = routing_snapshot();
  std::optional<std::pair<ErrorCode, std::string>> last;
  bool failed_before = false;
  for (std::size_t id : rt.ring.replicas(fp, fanout)) {
    try {
      stats_.shard_calls.fetch_add(1, kRelaxed);
      StatusOr<T> got = read(*rt.shards[id]);
      if (got.ok()) {
        if (items != 0) {
          rt.stats[id]->routed_items.fetch_add(items, kRelaxed);
          if (failed_before) {
            stats_.replica_fallbacks.fetch_add(items, kRelaxed);
            rt.stats[id]->fallback_reads.fetch_add(items, kRelaxed);
          }
        }
        return got;
      }
      if (got.code() == final_code) return got;
      last.emplace(got.code(), got.message());
    } catch (const Error& e) {
      stats_.failed_shard_calls.fetch_add(1, kRelaxed);
      failed_before = true;
      last.emplace(ErrorCode::kInternal, e.what());
    }
  }
  if (last) return {last->first, last->second};
  return {ErrorCode::kInternal, "fleet: no live replicas for " + fp.hex()};
}

std::vector<std::uint8_t> FleetRegistry::query_many(
    const std::vector<Fingerprint>& fps) const {
  Routing rt = routing_snapshot();
  std::vector<std::uint8_t> out(fps.size(), 0);
  if (fps.empty()) return out;
  std::vector<std::uint8_t> answered(fps.size(), 0);
  std::vector<std::size_t> pending(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) pending[i] = i;
  std::string last_err;

  for (std::size_t level = 0; level < replicas_ && !pending.empty(); ++level) {
    // Group the still-unanswered items by their level-th replica and ask
    // each shard with one batched round trip.
    std::map<std::size_t, std::vector<std::size_t>> groups;
    for (std::size_t idx : pending) {
      auto reps = rt.ring.replicas(fps[idx], replicas_);
      if (level < reps.size()) groups[reps[level]].push_back(idx);
    }
    if (groups.empty()) break;
    std::vector<std::pair<std::size_t, std::vector<std::size_t>>> jobs(
        groups.begin(), groups.end());
    std::mutex mu;
    std::vector<std::size_t> next;
    pool_.parallel_for_each(jobs.size(), [&](std::size_t j) {
      const auto& [sid, idxs] = jobs[j];
      std::vector<Fingerprint> sub;
      sub.reserve(idxs.size());
      for (std::size_t idx : idxs) sub.push_back(fps[idx]);
      try {
        stats_.shard_calls.fetch_add(1, kRelaxed);
        auto ans = rt.shards[sid]->query_many(sub);
        std::lock_guard<std::mutex> g(mu);
        for (std::size_t k = 0; k < idxs.size(); ++k) {
          answered[idxs[k]] = 1;
          if (ans[k]) {
            out[idxs[k]] = 1;
          } else if (level + 1 < replicas_) {
            next.push_back(idxs[k]);  // OR over replicas: keep probing
          }
        }
      } catch (const Error& e) {
        stats_.failed_shard_calls.fetch_add(1, kRelaxed);
        std::lock_guard<std::mutex> g(mu);
        last_err = e.what();
        for (std::size_t idx : idxs) next.push_back(idx);
      }
    });
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    pending.clear();
    for (std::size_t idx : next) {
      if (!out[idx]) pending.push_back(idx);
    }
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (!answered[i] && !out[i]) {
      throw_error(ErrorCode::kInternal,
                  "fleet: query of " + fps[i].hex() +
                      " failed on all replicas: " + last_err);
    }
  }
  return out;
}

StatusOr<Bytes> FleetRegistry::download_compressed(const Fingerprint& fp) const {
  return read_replicas<Bytes>(fp, replicas_, 1, [&](FileRegistryApi& api) {
    return api.download_compressed(fp);
  });
}

StatusOr<Bytes> FleetRegistry::download_chunk_compressed(
    const Fingerprint& chunk_fp) const {
  // Chunk objects co-locate with their parent file, which is routed by the
  // FILE fingerprint — a chunk fingerprint alone names no home shard. The
  // stored-frame surface doesn't carry the parent fp, so probe every live
  // shard (the ring walk from chunk_fp's position caps the fan-out at the
  // live count, for a deterministic order); a per-shard miss is a cheap
  // index lookup and kNotFound is an answer, not a failure.
  return read_replicas<Bytes>(
      chunk_fp, std::numeric_limits<std::size_t>::max(), 1,
      [&](FileRegistryApi& api) {
        return api.download_chunk_compressed(chunk_fp);
      });
}

StatusOr<std::vector<Bytes>> FleetRegistry::download_batch(
    const std::vector<Fingerprint>& fps, util::ThreadPool* /*pool*/,
    std::uint64_t* wire_bytes_out) const {
  // The caller's pool is for decompression; backend sub-batches decompress
  // inline on the fleet's own fan-out pool instead, so a client thread
  // already running on its pool can never deadlock against us.
  Routing rt = routing_snapshot();
  std::vector<Bytes> out(fps.size());
  if (fps.empty()) {
    if (wire_bytes_out) *wire_bytes_out = 0;
    return out;
  }
  std::atomic<std::uint64_t> wire_sum{0};
  std::vector<std::size_t> pending(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) pending[i] = i;
  std::optional<std::pair<ErrorCode, std::string>> first_err;

  for (std::size_t level = 0; level < replicas_ && !pending.empty(); ++level) {
    std::map<std::size_t, std::vector<std::size_t>> groups;
    std::vector<std::size_t> exhausted;
    for (std::size_t idx : pending) {
      auto reps = rt.ring.replicas(fps[idx], replicas_);
      if (level < reps.size()) {
        groups[reps[level]].push_back(idx);
      } else {
        exhausted.push_back(idx);
      }
    }
    if (groups.empty()) break;
    std::vector<std::pair<std::size_t, std::vector<std::size_t>>> jobs(
        groups.begin(), groups.end());
    std::mutex mu;
    std::vector<std::size_t> next(std::move(exhausted));
    pool_.parallel_for_each(jobs.size(), [&](std::size_t j) {
      const auto& [sid, idxs] = jobs[j];
      std::vector<Fingerprint> sub;
      sub.reserve(idxs.size());
      for (std::size_t idx : idxs) sub.push_back(fps[idx]);
      try {
        stats_.shard_calls.fetch_add(1, kRelaxed);
        std::uint64_t w = 0;
        auto got = rt.shards[sid]->download_batch(
            sub, nullptr, wire_bytes_out != nullptr ? &w : nullptr);
        if (got.ok()) {
          for (std::size_t k = 0; k < idxs.size(); ++k) {
            out[idxs[k]] = std::move(got.value()[k]);
          }
          wire_sum.fetch_add(w, kRelaxed);
          rt.stats[sid]->routed_items.fetch_add(idxs.size(), kRelaxed);
          if (level > 0) {
            stats_.replica_fallbacks.fetch_add(idxs.size(), kRelaxed);
            rt.stats[sid]->fallback_reads.fetch_add(idxs.size(), kRelaxed);
          }
          return;
        }
        std::lock_guard<std::mutex> g(mu);
        if (!first_err) first_err.emplace(got.code(), got.message());
        for (std::size_t idx : idxs) next.push_back(idx);
      } catch (const Error& e) {
        stats_.failed_shard_calls.fetch_add(1, kRelaxed);
        std::lock_guard<std::mutex> g(mu);
        if (!first_err) first_err.emplace(ErrorCode::kInternal, e.what());
        for (std::size_t idx : idxs) next.push_back(idx);
      }
    });
    std::sort(next.begin(), next.end());
    pending = std::move(next);
  }
  if (!pending.empty()) {
    if (first_err) {
      return {first_err->first,
              "fleet: download batch failed on all replicas: " +
                  first_err->second};
    }
    return {ErrorCode::kInternal, "fleet: download batch: no live replicas"};
  }
  if (wire_bytes_out) *wire_bytes_out = wire_sum.load();
  return out;
}

StatusOr<Bytes> FleetRegistry::download_range(
    const Fingerprint& fp, std::uint64_t offset, std::uint64_t length,
    std::uint64_t* wire_bytes_out) const {
  std::uint64_t wire = 0;
  // kInvalidArgument (range out of bounds) is an answer, not a shard
  // failure: every replica stores identical bytes.
  StatusOr<Bytes> got = read_replicas<Bytes>(
      fp, replicas_, 1,
      [&](FileRegistryApi& api) {
        return api.download_range(fp, offset, length, &wire);
      },
      ErrorCode::kInvalidArgument);
  if (got.ok() && wire_bytes_out) *wire_bytes_out = wire;
  return got;
}

StatusOr<std::vector<Bytes>> FleetRegistry::download_chunks(
    const Fingerprint& fp, const ChunkManifest& manifest,
    const std::vector<std::uint32_t>& indices,
    std::uint64_t* wire_bytes_out) const {
  std::uint64_t wire = 0;
  StatusOr<std::vector<Bytes>> got = read_replicas<std::vector<Bytes>>(
      fp, replicas_, indices.size(), [&](FileRegistryApi& api) {
        return api.download_chunks(fp, manifest, indices, &wire);
      });
  if (got.ok() && wire_bytes_out) *wire_bytes_out = wire;
  return got;
}

StatusOr<std::uint64_t> FleetRegistry::stored_size(
    const Fingerprint& fp) const {
  return read_replicas<std::uint64_t>(
      fp, replicas_, 0,
      [&](FileRegistryApi& api) { return api.stored_size(fp); });
}

bool FleetRegistry::is_chunked(const Fingerprint& fp) const {
  // `true` from any replica wins; `false` could be a replica that missed
  // the upload, so it keeps the walk going (like query_many's OR).
  bool answered = false;
  StatusOr<bool> got = read_replicas<bool>(
      fp, replicas_, 0, [&](FileRegistryApi& api) -> StatusOr<bool> {
        if (api.is_chunked(fp)) return true;
        answered = true;
        return {ErrorCode::kNotFound, "not chunked"};
      });
  if (got.ok()) return true;
  if (!answered) {
    throw_error(ErrorCode::kInternal, "fleet: is_chunked of " + fp.hex() +
                                          " failed on all replicas: " +
                                          got.message());
  }
  return false;
}

StatusOr<ChunkManifest> FleetRegistry::chunk_manifest(
    const Fingerprint& fp) const {
  return read_replicas<ChunkManifest>(
      fp, replicas_, 0,
      [&](FileRegistryApi& api) { return api.chunk_manifest(fp); });
}

// ---- writes ---------------------------------------------------------------

bool FleetRegistry::write_replicas(
    const Fingerprint& fp, bool chunked, const ChunkPolicy& policy,
    const std::function<bool(FileRegistryApi&, bool last)>& write) {
  std::shared_lock lk(ring_mutex_);
  catalog_put(fp, chunked, policy);
  std::vector<std::size_t> targets = ring_.replicas(fp, replicas_);
  std::optional<bool> first_result;
  std::string last_err = "no live replicas";
  for (std::size_t i = 0; i < targets.size(); ++i) {
    std::size_t id = targets[i];
    try {
      stats_.shard_calls.fetch_add(1, kRelaxed);
      bool stored = write(*shards_[id], i + 1 == targets.size());
      if (!first_result) {
        first_result = stored;
        shard_stats_[id]->routed_items.fetch_add(1, kRelaxed);
      } else {
        shard_stats_[id]->replica_items.fetch_add(1, kRelaxed);
      }
    } catch (const Error& e) {
      stats_.failed_shard_calls.fetch_add(1, kRelaxed);
      last_err = e.what();
    }
  }
  if (!first_result) {
    throw_error(ErrorCode::kInternal, "fleet: upload of " + fp.hex() +
                                          " failed on all replicas: " +
                                          last_err);
  }
  return *first_result;
}

bool FleetRegistry::upload_precompressed(const Fingerprint& fp,
                                         Bytes compressed) {
  return write_replicas(
      fp, false, ChunkPolicy{}, [&](FileRegistryApi& api, bool last) {
        return api.upload_precompressed(
            fp, last ? std::move(compressed) : compressed);
      });
}

bool FleetRegistry::upload_chunked(const Fingerprint& fp, BytesView content,
                                   const ChunkPolicy& policy,
                                   const FingerprintHasher& hasher) {
  return write_replicas(fp, policy.applies_to(content.size()), policy,
                        [&](FileRegistryApi& api, bool) {
                          return api.upload_chunked(fp, content, policy,
                                                    hasher);
                        });
}

std::vector<std::uint8_t> FleetRegistry::upload_precompressed_many(
    std::vector<std::pair<Fingerprint, Bytes>> items) {
  std::shared_lock lk(ring_mutex_);
  std::vector<std::uint8_t> stored(items.size(), 0);
  if (items.empty()) return stored;
  for (const auto& [fp, frame] : items) catalog_put(fp, false, ChunkPolicy{});

  // One job per (replica level, shard): level 0 carries the authoritative
  // per-item "stored" answer (dedup semantics identical to a single
  // registry); the backup levels replicate best-effort, read fallback
  // covers any they miss.
  struct Job {
    std::size_t level;
    std::size_t shard;
    std::vector<std::size_t> idxs;
  };
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto reps = ring_.replicas(items[i].first, replicas_);
    for (std::size_t level = 0; level < reps.size(); ++level) {
      groups[{level, reps[level]}].push_back(i);
    }
  }
  std::vector<Job> jobs;
  jobs.reserve(groups.size());
  for (auto& [key, idxs] : groups) {
    jobs.push_back(Job{key.first, key.second, std::move(idxs)});
  }

  std::mutex mu;
  std::vector<std::string> failures;
  pool_.parallel_for_each(jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    FileRegistryApi* api = shards_[job.shard];
    std::vector<std::pair<Fingerprint, Bytes>> batch;
    batch.reserve(job.idxs.size());
    for (std::size_t idx : job.idxs) batch.push_back(items[idx]);
    try {
      stats_.shard_calls.fetch_add(1, kRelaxed);
      std::vector<std::uint8_t> result =
          api->upload_precompressed_many(std::move(batch));
      if (job.level == 0) {
        // Each item has one level-0 job, so the slots never race.
        for (std::size_t k = 0; k < job.idxs.size(); ++k) {
          stored[job.idxs[k]] = result[k];
        }
        shard_stats_[job.shard]->routed_items.fetch_add(job.idxs.size(),
                                                        kRelaxed);
      } else {
        shard_stats_[job.shard]->replica_items.fetch_add(job.idxs.size(),
                                                         kRelaxed);
      }
      return;
    } catch (const Error& e) {
      stats_.failed_shard_calls.fetch_add(1, kRelaxed);
      if (job.level != 0) return;  // backups are best-effort
      // The home shard is down: fall each item forward to its next live
      // replica so the write still lands somewhere.
      for (std::size_t idx : job.idxs) {
        auto reps = ring_.replicas(items[idx].first, replicas_);
        bool placed = false;
        std::string last_err = e.what();
        for (std::size_t level = 1; level < reps.size() && !placed; ++level) {
          try {
            stats_.shard_calls.fetch_add(1, kRelaxed);
            Bytes frame = items[idx].second;
            stored[idx] = shards_[reps[level]]->upload_precompressed(
                              items[idx].first, std::move(frame))
                              ? 1
                              : 0;
            stats_.replica_fallbacks.fetch_add(1, kRelaxed);
            placed = true;
          } catch (const Error& e2) {
            stats_.failed_shard_calls.fetch_add(1, kRelaxed);
            last_err = e2.what();
          }
        }
        if (!placed) {
          std::lock_guard<std::mutex> g(mu);
          failures.push_back("fleet: upload of " + items[idx].first.hex() +
                             " failed on all replicas: " + last_err);
        }
      }
    }
  });
  if (!failures.empty()) {
    throw_error(ErrorCode::kInternal, failures.front());
  }
  return stored;
}

// ---- rebalance ------------------------------------------------------------

void FleetRegistry::copy_entries(
    FileRegistryApi& src, std::size_t target_id, FileRegistryApi& dst,
    const std::vector<std::pair<Fingerprint, CatalogEntry>>& entries,
    RebalanceReport& rep) {
  constexpr std::size_t kBatch = 64;
  std::vector<Fingerprint> plain;
  auto flush = [&] {
    if (plain.empty()) return;
    std::uint64_t wire = 0;
    stats_.shard_calls.fetch_add(1, kRelaxed);
    auto got = src.download_batch(plain, nullptr, &wire);
    if (!got.ok()) {
      throw Error(got.code(),
                  "fleet rebalance: source read failed: " + got.message());
    }
    std::vector<std::pair<Fingerprint, Bytes>> batch;
    batch.reserve(plain.size());
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      // compress() is deterministic, so the re-uploaded frame is
      // byte-identical to what the source stores.
      Bytes frame = compress(got.value()[i]);
      moved += frame.size();
      batch.emplace_back(plain[i], std::move(frame));
    }
    stats_.shard_calls.fetch_add(1, kRelaxed);
    dst.upload_precompressed_batch(std::move(batch));
    rep.moved_objects += plain.size();
    rep.moved_bytes += moved;
    stats_.rebalanced_objects.fetch_add(plain.size(), kRelaxed);
    stats_.rebalanced_bytes.fetch_add(moved, kRelaxed);
    shard_stats_[target_id]->rebalanced_in_objects.fetch_add(plain.size(),
                                                             kRelaxed);
    shard_stats_[target_id]->rebalanced_in_bytes.fetch_add(moved, kRelaxed);
    plain.clear();
  };
  for (const auto& [fp, entry] : entries) {
    if (!entry.chunked) {
      plain.push_back(fp);
      if (plain.size() >= kBatch) flush();
      continue;
    }
    auto content = src.download(fp);
    if (!content.ok()) {
      throw Error(content.code(),
                  "fleet rebalance: source read failed: " + content.message());
    }
    stats_.shard_calls.fetch_add(2, kRelaxed);  // download + chunked upload
    dst.upload_chunked(fp, content.value(), entry.policy);
    std::uint64_t wire = content.value().size();
    if (auto s = src.stored_size(fp); s.ok()) wire = s.value();
    rep.moved_objects += 1;
    rep.moved_bytes += wire;
    stats_.rebalanced_objects.fetch_add(1, kRelaxed);
    stats_.rebalanced_bytes.fetch_add(wire, kRelaxed);
    shard_stats_[target_id]->rebalanced_in_objects.fetch_add(1, kRelaxed);
    shard_stats_[target_id]->rebalanced_in_bytes.fetch_add(wire, kRelaxed);
  }
  flush();
}

void FleetRegistry::migrate_delta_locked(
    const HashRing& new_ring, std::size_t target_id,
    const std::vector<std::pair<Fingerprint, CatalogEntry>>& entries,
    RebalanceReport& rep) {
  // Group the movers (objects the new ring assigns to target_id) by their
  // current home so each source serves one batched copy stream.
  std::map<std::size_t, std::vector<std::pair<Fingerprint, CatalogEntry>>>
      by_source;
  for (const auto& entry : entries) {
    ++rep.examined;
    auto new_reps = new_ring.replicas(entry.first, replicas_);
    if (std::find(new_reps.begin(), new_reps.end(), target_id) ==
        new_reps.end()) {
      ++rep.unmoved_objects;
      continue;
    }
    auto old_reps = ring_.replicas(entry.first, replicas_);
    if (std::find(old_reps.begin(), old_reps.end(), target_id) !=
        old_reps.end()) {
      ++rep.unmoved_objects;  // already a replica — nothing to move
      continue;
    }
    if (old_reps.empty()) {
      throw_error(ErrorCode::kInternal,
                  "fleet rebalance: no source for " + entry.first.hex());
    }
    by_source[old_reps[0]].push_back(entry);
  }
  FileRegistryApi& dst = *shards_[target_id];
  for (auto& [sid, group] : by_source) {
    try {
      copy_entries(*shards_[sid], target_id, dst, group, rep);
    } catch (const Error&) {
      stats_.failed_shard_calls.fetch_add(1, kRelaxed);
      // Primary source down: retry each object from any surviving replica.
      for (const auto& entry : group) {
        bool done = false;
        std::string last_err = "no live source";
        for (std::size_t src_id : ring_.replicas(entry.first, replicas_)) {
          if (src_id == target_id) continue;
          try {
            copy_entries(*shards_[src_id], target_id, dst, {entry}, rep);
            done = true;
            break;
          } catch (const Error& e) {
            stats_.failed_shard_calls.fetch_add(1, kRelaxed);
            last_err = e.what();
          }
        }
        if (!done) {
          throw_error(ErrorCode::kInternal,
                      "fleet rebalance: no live source for " +
                          entry.first.hex() + ": " + last_err);
        }
      }
    }
  }
}

std::size_t FleetRegistry::add_shard(FileRegistryApi* shard,
                                     RebalanceReport* report) {
  if (shard == nullptr) {
    throw_error(ErrorCode::kInvalidArgument, "fleet: null shard");
  }
  std::lock_guard<std::mutex> rebalance_lk(rebalance_mutex_);

  // Phase 1 (brief, exclusive): register the shard and snapshot the
  // catalog. The ring stays unchanged, so the new shard receives no
  // routed traffic yet.
  std::size_t id;
  HashRing new_ring;
  std::vector<std::pair<Fingerprint, CatalogEntry>> snapshot;
  {
    std::unique_lock lk(ring_mutex_);
    id = shards_.size();
    shards_.push_back(shard);
    shard_stats_.push_back(std::make_unique<FleetShardStats>());
    new_ring = ring_;
    new_ring.add_shard(id, vnodes_);
    std::lock_guard<std::mutex> cl(catalog_mutex_);
    snapshot.assign(catalog_.begin(), catalog_.end());
  }

  // Phase 2 (shared: the fleet keeps serving on the old ring): copy the
  // ring-delta objects onto the new shard.
  RebalanceReport rep;
  {
    std::shared_lock lk(ring_mutex_);
    migrate_delta_locked(new_ring, id, snapshot, rep);
  }

  // Phase 3 (brief, exclusive): catch up on uploads that raced the copy,
  // then install the new ring.
  {
    std::unique_lock lk(ring_mutex_);
    std::unordered_set<Fingerprint, FingerprintHash> seen;
    seen.reserve(snapshot.size());
    for (const auto& [fp, entry] : snapshot) seen.insert(fp);
    std::vector<std::pair<Fingerprint, CatalogEntry>> late;
    {
      std::lock_guard<std::mutex> cl(catalog_mutex_);
      for (const auto& entry : catalog_) {
        if (!seen.count(entry.first)) late.push_back(entry);
      }
    }
    migrate_delta_locked(new_ring, id, late, rep);
    ring_ = std::move(new_ring);
  }
  if (report) *report = rep;
  return id;
}

RebalanceReport FleetRegistry::remove_shard(std::size_t shard_id) {
  std::lock_guard<std::mutex> rebalance_lk(rebalance_mutex_);
  std::unique_lock lk(ring_mutex_);
  if (shard_id >= shards_.size() || shards_[shard_id] == nullptr ||
      !ring_.contains(shard_id)) {
    throw_error(ErrorCode::kInvalidArgument, "fleet: bad shard id");
  }
  if (ring_.shard_count() <= 1) {
    throw_error(ErrorCode::kInvalidArgument,
                "fleet: cannot remove the last shard");
  }
  HashRing new_ring = ring_;
  new_ring.remove_shard(shard_id);

  // Each object the departing shard replicates gains exactly one new
  // owner (the next distinct shard on the ring walk); copy it there from
  // its current home. Everything else stays put.
  RebalanceReport rep;
  std::vector<std::pair<Fingerprint, CatalogEntry>> snapshot;
  {
    std::lock_guard<std::mutex> cl(catalog_mutex_);
    snapshot.assign(catalog_.begin(), catalog_.end());
  }
  std::map<std::pair<std::size_t, std::size_t>,
           std::vector<std::pair<Fingerprint, CatalogEntry>>>
      moves;  // (source, target) -> entries
  for (const auto& entry : snapshot) {
    ++rep.examined;
    auto old_reps = ring_.replicas(entry.first, replicas_);
    if (std::find(old_reps.begin(), old_reps.end(), shard_id) ==
        old_reps.end()) {
      ++rep.unmoved_objects;
      continue;
    }
    auto new_reps = new_ring.replicas(entry.first, replicas_);
    std::optional<std::size_t> target;
    for (std::size_t r : new_reps) {
      if (std::find(old_reps.begin(), old_reps.end(), r) == old_reps.end()) {
        target = r;
        break;
      }
    }
    if (!target) {
      ++rep.unmoved_objects;  // surviving replicas already cover R copies
      continue;
    }
    moves[{old_reps[0], *target}].push_back(entry);
  }
  for (auto& [key, group] : moves) {
    copy_entries(*shards_[key.first], key.second, *shards_[key.second], group,
                 rep);
  }
  ring_ = std::move(new_ring);
  shards_[shard_id] = nullptr;
  return rep;
}

}  // namespace gear
