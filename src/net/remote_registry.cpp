#include "net/remote_registry.hpp"

#include <algorithm>
#include <numeric>

#include "compress/codec.hpp"

namespace gear::net {

WireMessage RemoteGearRegistry::call(const WireMessage& request,
                                     MessageType expected_type) const {
  Bytes frame = encode_message(request);
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    ++stats_.requests;
    Bytes response_frame = transport_.round_trip(frame);
    StatusOr<WireMessage> response = decode_message(response_frame);
    if (!response.ok()) {
      ++stats_.integrity_failures;
      continue;  // damaged or dropped: retry the frame whole
    }
    if (response->type != expected_type || response->fp != request.fp) {
      ++stats_.integrity_failures;
      continue;  // cross-wired response: retry
    }
    if (response->status == Status::kServerError) {
      continue;
    }
    return std::move(response).value();
  }
  throw_error(ErrorCode::kInternal,
              "remote registry unreachable after " +
                  std::to_string(max_attempts_) + " attempts");
}

std::vector<std::uint8_t> RemoteGearRegistry::query_many(
    const std::vector<Fingerprint>& fps) const {
  if (fps.empty()) return {};
  WireMessage request;
  request.type = MessageType::kQueryManyRequest;
  request.items.resize(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) request.items[i].fp = fps[i];

  // call() guards the frame; this loop guards the item list (count and
  // fingerprint echo must mirror the request).
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    WireMessage response = call(request, MessageType::kQueryManyResponse);
    bool echo_ok = response.items.size() == fps.size();
    for (std::size_t i = 0; echo_ok && i < fps.size(); ++i) {
      echo_ok = response.items[i].fp == fps[i];
    }
    if (!echo_ok) {
      ++stats_.integrity_failures;
      continue;
    }
    std::vector<std::uint8_t> out(fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      out[i] = response.items[i].status == Status::kExists ? 1 : 0;
    }
    return out;
  }
  throw_error(ErrorCode::kInternal,
              "remote: query batch repeatedly malformed after " +
                  std::to_string(max_attempts_) + " attempts");
}

bool RemoteGearRegistry::upload_precompressed(const Fingerprint& fp,
                                              Bytes compressed) {
  std::vector<std::pair<Fingerprint, Bytes>> one;
  one.emplace_back(fp, std::move(compressed));
  return upload_precompressed_many(std::move(one))[0] != 0;
}

std::vector<std::uint8_t> RemoteGearRegistry::upload_precompressed_many(
    std::vector<std::pair<Fingerprint, Bytes>> items) {
  std::vector<std::uint8_t> stored(items.size(), 0);
  if (items.empty()) return stored;
  WireMessage request;
  request.type = MessageType::kUploadManyRequest;
  request.items.resize(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    request.items[i].fp = items[i].first;
    request.items[i].payload = std::move(items[i].second);
  }

  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    WireMessage response = call(request, MessageType::kUploadManyResponse);
    bool echo_ok = response.items.size() == request.items.size();
    for (std::size_t i = 0; echo_ok && i < request.items.size(); ++i) {
      echo_ok = response.items[i].fp == request.items[i].fp;
    }
    if (!echo_ok) {
      ++stats_.integrity_failures;
      continue;
    }
    for (std::size_t i = 0; i < stored.size(); ++i) {
      stored[i] = response.items[i].status == Status::kOk ? 1 : 0;
    }
    return stored;
  }
  throw_error(ErrorCode::kInternal,
              "remote: upload batch repeatedly malformed after " +
                  std::to_string(max_attempts_) + " attempts");
}

StatusOr<std::vector<Bytes>> RemoteGearRegistry::download_batch(
    const std::vector<Fingerprint>& fps, util::ThreadPool* pool,
    std::uint64_t* wire_bytes_out) const {
  std::vector<Bytes> out(fps.size());
  std::uint64_t wire = 0;
  if (fps.empty()) {
    if (wire_bytes_out != nullptr) *wire_bytes_out = 0;
    return out;
  }

  // Indices of fps still outstanding. The first round asks for everything;
  // later rounds refetch only the items that failed verification inside an
  // otherwise intact frame (partial retry — the CRC protects the frame,
  // fingerprints protect each item).
  std::vector<std::size_t> pending(fps.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  for (int round = 0; round < max_attempts_ && !pending.empty(); ++round) {
    WireMessage request;
    request.type = MessageType::kDownloadManyRequest;
    request.items.resize(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      request.items[i].fp = fps[pending[i]];
    }
    WireMessage response = call(request, MessageType::kDownloadManyResponse);
    if (response.items.size() != pending.size()) {
      ++stats_.integrity_failures;
      continue;  // malformed item list: ask for the whole remainder again
    }

    // Serial pass: per-item status and fingerprint echo. kNotFound is an
    // answer, not a transmission fault — fail the batch naming the file.
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (response.items[i].status == Status::kNotFound &&
          response.items[i].fp == fps[pending[i]]) {
        return {ErrorCode::kNotFound,
                "remote: no such file: " + fps[pending[i]].hex()};
      }
    }

    // Decompress + verify each item; independent per item, so this is the
    // one phase allowed on the pool. Results land by slot — deterministic
    // at any pool width.
    std::vector<Bytes> contents(pending.size());
    std::vector<std::uint8_t> good(pending.size(), 0);
    auto check_one = [&](std::size_t i) {
      const WireItem& item = response.items[i];
      if (item.fp != fps[pending[i]] || item.status != Status::kOk) return;
      try {
        Bytes content = decompress(item.payload);
        if (verify_content_ && hasher_.fingerprint(content) != item.fp) return;
        contents[i] = std::move(content);
        good[i] = 1;
      } catch (const Error&) {
        // corrupt compressed frame: leave the slot bad for refetch
      }
    };
    if (pool != nullptr) {
      pool->parallel_for_each(pending.size(), check_one);
    } else {
      for (std::size_t i = 0; i < pending.size(); ++i) check_one(i);
    }

    // Serial accounting pass: accepted items place and bill; failed ones
    // queue for an item-granular refetch.
    std::vector<std::size_t> still;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (good[i] != 0) {
        wire += response.items[i].payload.size();
        out[pending[i]] = std::move(contents[i]);
      } else {
        ++stats_.integrity_failures;
        still.push_back(pending[i]);
      }
    }
    pending = std::move(still);
    if (!pending.empty() && round + 1 < max_attempts_) {
      stats_.item_refetches += pending.size();
    }
  }

  if (!pending.empty()) {
    return {ErrorCode::kCorruptData,
            "remote: " + std::to_string(pending.size()) +
                " item(s) repeatedly failed fingerprint check, first: " +
                fps[pending.front()].hex()};
  }
  if (wire_bytes_out != nullptr) *wire_bytes_out = wire;
  return out;
}

std::vector<StatusOr<Sha256Digest>> RemoteGearRegistry::query_digests(
    const std::vector<Fingerprint>& fps, util::ThreadPool* /*pool*/) const {
  std::vector<StatusOr<Sha256Digest>> out(fps.size(), Sha256Digest{});
  // The same item-level ladder as download_batch: the first round asks for
  // every item, later rounds only for the items that came back unusable.
  std::vector<std::size_t> pending(fps.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  for (int round = 0; round < max_attempts_ && !pending.empty(); ++round) {
    WireMessage request;
    request.type = MessageType::kDigestManyRequest;
    request.items.resize(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      request.items[i].fp = fps[pending[i]];
    }
    WireMessage response = call(request, MessageType::kDigestManyResponse);
    if (response.items.size() != pending.size()) {
      ++stats_.integrity_failures;
      continue;  // malformed item list: ask for the whole remainder again
    }
    std::vector<std::size_t> still;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const WireItem& item = response.items[i];
      const Fingerprint& fp = fps[pending[i]];
      if (item.fp == fp && item.status == Status::kNotFound) {
        out[pending[i]] = {ErrorCode::kNotFound,
                           "remote: no such file: " + fp.hex()};
      } else if (item.fp == fp && item.status == Status::kOk &&
                 item.payload.size() == std::tuple_size_v<Sha256Digest>) {
        Sha256Digest digest;
        std::copy(item.payload.begin(), item.payload.end(), digest.begin());
        out[pending[i]] = digest;
      } else {
        ++stats_.integrity_failures;
        still.push_back(pending[i]);
      }
    }
    pending = std::move(still);
    if (!pending.empty() && round + 1 < max_attempts_) {
      stats_.item_refetches += pending.size();
    }
  }
  for (std::size_t i : pending) {
    out[i] = {ErrorCode::kCorruptData,
              "remote: digest of " + fps[i].hex() + " unreadable after " +
                  std::to_string(max_attempts_) + " attempts"};
  }
  return out;
}

const std::optional<ChunkManifest>& RemoteGearRegistry::probe_manifest(
    const Fingerprint& fp) const {
  {
    std::lock_guard guard(manifest_mutex_);
    auto it = manifest_cache_.find(fp);
    // References into the map stay valid: entries are never erased, and
    // unordered_map rehashing moves buckets, not elements.
    if (it != manifest_cache_.end()) return it->second;
  }

  WireMessage request;
  request.type = MessageType::kDownloadChunksRequest;
  request.fp = fp;
  request.payload = encode_chunk_index_list({});  // empty list = probe

  std::optional<ChunkManifest> probed;
  bool resolved = false;
  for (int attempt = 0; attempt < max_attempts_ && !resolved; ++attempt) {
    WireMessage response = call(request, MessageType::kDownloadChunksResponse);
    if (response.status == Status::kNotFound) {
      // Stored plain, or not stored at all: either way, not chunked.
      resolved = true;
      break;
    }
    try {
      probed = ChunkManifest::parse(response.payload);
      resolved = true;
    } catch (const Error&) {
      ++stats_.integrity_failures;  // CRC-intact frame, garbled manifest
    }
  }
  if (!resolved) {
    throw_error(ErrorCode::kCorruptData,
                "remote: manifest probe repeatedly garbled for " + fp.hex());
  }

  std::lock_guard guard(manifest_mutex_);
  // A concurrent prober may have landed first; try_emplace keeps its answer.
  return manifest_cache_.try_emplace(fp, std::move(probed)).first->second;
}

bool RemoteGearRegistry::is_chunked(const Fingerprint& fp) const {
  return probe_manifest(fp).has_value();
}

StatusOr<ChunkManifest> RemoteGearRegistry::chunk_manifest(
    const Fingerprint& fp) const {
  const std::optional<ChunkManifest>& probed = probe_manifest(fp);
  if (!probed.has_value()) {
    return {ErrorCode::kNotFound, "remote: no chunk manifest for " + fp.hex()};
  }
  return *probed;
}

StatusOr<std::vector<Bytes>> RemoteGearRegistry::download_chunks(
    const Fingerprint& fp, const ChunkManifest& manifest,
    const std::vector<std::uint32_t>& indices,
    std::uint64_t* wire_bytes_out) const {
  std::vector<Bytes> out(indices.size());
  std::uint64_t wire = 0;
  if (indices.empty()) {
    if (wire_bytes_out != nullptr) *wire_bytes_out = 0;
    return out;
  }
  for (std::uint32_t index : indices) {
    if (index >= manifest.chunks.size()) {
      return {ErrorCode::kInvalidArgument,
              "download_chunks: chunk index " + std::to_string(index) +
                  " out of range for " + fp.hex()};
    }
  }

  // Same two-level retry shape as download_batch: the first round asks for
  // every chunk in one frame; later rounds refetch only the items that
  // failed verification inside an otherwise intact frame.
  std::vector<std::size_t> pending(indices.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  for (int round = 0; round < max_attempts_ && !pending.empty(); ++round) {
    std::vector<std::uint32_t> ask(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      ask[i] = indices[pending[i]];
    }
    WireMessage request;
    request.type = MessageType::kDownloadChunksRequest;
    request.fp = fp;
    request.payload = encode_chunk_index_list(ask);
    WireMessage response = call(request, MessageType::kDownloadChunksResponse);
    if (response.status == Status::kNotFound && response.items.empty()) {
      return {ErrorCode::kNotFound,
              "remote: not stored chunked: " + fp.hex()};
    }
    if (response.items.size() != pending.size()) {
      ++stats_.integrity_failures;
      continue;  // malformed item list: ask for the whole remainder again
    }

    // Serial pass: a per-item kNotFound with the correct fingerprint echo
    // is an answer — the chunk object is missing server-side.
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (response.items[i].status == Status::kNotFound &&
          response.items[i].fp == manifest.chunks[ask[i]]) {
        return {ErrorCode::kNotFound,
                "remote: missing chunk " + std::to_string(ask[i]) + " of " +
                    fp.hex()};
      }
    }

    std::vector<std::size_t> still;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const WireItem& item = response.items[i];
      const Fingerprint& want = manifest.chunks[ask[i]];
      bool good = false;
      Bytes content;
      if (item.fp == want && item.status == Status::kOk) {
        try {
          content = decompress(item.payload);
          good = !verify_content_ || hasher_.fingerprint(content) == want;
        } catch (const Error&) {
          // corrupt compressed frame: leave the slot bad for refetch
        }
      }
      if (good) {
        wire += item.payload.size();
        out[pending[i]] = std::move(content);
      } else {
        ++stats_.integrity_failures;
        still.push_back(pending[i]);
      }
    }
    pending = std::move(still);
    if (!pending.empty() && round + 1 < max_attempts_) {
      stats_.item_refetches += pending.size();
    }
  }

  if (!pending.empty()) {
    return {ErrorCode::kCorruptData,
            "remote: " + std::to_string(pending.size()) +
                " chunk(s) repeatedly failed fingerprint check, first index " +
                std::to_string(indices[pending.front()]) + " (chunk " +
                manifest.chunks[indices[pending.front()]].hex() + ") of " +
                fp.hex()};
  }
  if (wire_bytes_out != nullptr) *wire_bytes_out = wire;
  return out;
}

StatusOr<std::uint64_t> RemoteGearRegistry::stored_size(
    const Fingerprint& fp) const {
  WireMessage request;
  request.type = MessageType::kQueryManyRequest;
  request.items.resize(1);
  request.items[0].fp = fp;

  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    WireMessage response = call(request, MessageType::kQueryManyResponse);
    if (response.items.size() != 1 || response.items[0].fp != fp) {
      ++stats_.integrity_failures;
      continue;
    }
    const WireItem& item = response.items[0];
    if (item.status != Status::kExists) {
      return {ErrorCode::kNotFound, "remote: no such file: " + fp.hex()};
    }
    if (item.payload.empty()) {
      return {ErrorCode::kUnsupported,
              "remote: server did not advertise a stored size"};
    }
    std::size_t pos = 0;
    return get_varint(item.payload, pos);
  }
  return {ErrorCode::kInternal,
          "remote: size query repeatedly malformed for " + fp.hex()};
}

}  // namespace gear::net
