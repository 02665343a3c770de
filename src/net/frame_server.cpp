#include "net/frame_server.hpp"

#include "compress/codec.hpp"  // varint helpers

namespace gear::net {

namespace {

// A download slice fills one response frame, so it must stay clear of the
// frame cap with room for each item's framing.
static_assert(2 * kMaxBatchBytes <= kDefaultMaxFrameBytes);

/// The item status answering a failed registry read. Only a missing object
/// is kNotFound, which a client takes as an answer; any other failure (a
/// stored frame or chunk that no longer decodes) is kServerError, which the
/// client asks again and finally reports as kCorruptData naming the item.
Status failed_read_status(ErrorCode code) {
  return code == ErrorCode::kNotFound ? Status::kNotFound
                                      : Status::kServerError;
}

}  // namespace

Bytes FrameServer::serve(BytesView request_frame,
                         std::uint64_t* n_items_out) {
  stats_.round_trips.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_in.fetch_add(request_frame.size(), std::memory_order_relaxed);
  if (n_items_out != nullptr) *n_items_out = 1;

  WireMessage response;
  StatusOr<WireMessage> request = decode_message(request_frame);
  if (!request.ok()) {
    // A server cannot even parse the request: answer with a server error
    // carrying an empty fingerprint.
    stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    response.type = MessageType::kQueryManyResponse;
    response.status = Status::kServerError;
    Bytes frame = encode_message(response);
    stats_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
    return frame;
  }

  WireMessage& req = *request;
  std::uint64_t n_items = is_batch_type(req.type) ? req.items.size() : 1;

  response.fp = req.fp;
  switch (req.type) {
    case MessageType::kQueryManyRequest: {
      ++stats_.query_round_trips;
      stats_.query_items += req.items.size();
      response.type = MessageType::kQueryManyResponse;
      std::vector<Fingerprint> fps;
      fps.reserve(req.items.size());
      for (const WireItem& item : req.items) fps.push_back(item.fp);
      std::vector<std::uint8_t> present = files_.query_many(fps);
      response.items.resize(fps.size());
      for (std::size_t i = 0; i < fps.size(); ++i) {
        WireItem& out = response.items[i];
        out.fp = fps[i];
        if (present[i] != 0) {
          out.status = Status::kExists;
          // Advertise the transfer size so clients can plan batch budgets
          // without an extra round trip.
          put_varint(out.payload, files_.stored_size(fps[i]).value());
        } else {
          out.status = Status::kNotFound;
        }
      }
      break;
    }
    case MessageType::kUploadManyRequest: {
      ++stats_.upload_round_trips;
      stats_.upload_items += req.items.size();
      response.type = MessageType::kUploadManyResponse;
      // Item payloads are precompressed frames: stored verbatim, in one
      // registry call for the whole frame.
      std::vector<std::pair<Fingerprint, Bytes>> uploads;
      uploads.reserve(req.items.size());
      for (WireItem& item : req.items) {
        uploads.emplace_back(item.fp, std::move(item.payload));
      }
      std::vector<std::uint8_t> stored =
          files_.upload_precompressed_many(std::move(uploads));
      response.items.resize(req.items.size());
      for (std::size_t i = 0; i < req.items.size(); ++i) {
        response.items[i].fp = req.items[i].fp;
        response.items[i].status = stored[i] != 0 ? Status::kOk
                                                  : Status::kExists;
      }
      break;
    }
    case MessageType::kDownloadManyRequest: {
      ++stats_.download_round_trips;
      stats_.download_items += req.items.size();
      response.type = MessageType::kDownloadManyResponse;
      response.items.resize(req.items.size());
      // Each item is one read (a pread and its checksum on a pack store),
      // on the pool when the server has one; answers stay in slot order.
      auto download_one = [&](std::size_t i) {
        WireItem& out = response.items[i];
        out.fp = req.items[i].fp;
        StatusOr<Bytes> stored = files_.download_compressed(out.fp);
        if (stored.ok()) {
          out.status = Status::kOk;
          out.payload = std::move(stored).value();
        } else {
          out.status = failed_read_status(stored.code());
        }
      };
      if (pool_ != nullptr) {
        pool_->parallel_for_each(req.items.size(), download_one);
      } else {
        for (std::size_t i = 0; i < req.items.size(); ++i) download_one(i);
      }
      break;
    }
    case MessageType::kDigestManyRequest: {
      ++stats_.digest_round_trips;
      stats_.digest_items += req.items.size();
      response.type = MessageType::kDigestManyResponse;
      std::vector<Fingerprint> fps;
      fps.reserve(req.items.size());
      for (const WireItem& item : req.items) fps.push_back(item.fp);
      std::vector<StatusOr<Sha256Digest>> digests =
          files_.query_digests(fps, pool_);
      response.items.resize(fps.size());
      for (std::size_t i = 0; i < fps.size(); ++i) {
        WireItem& out = response.items[i];
        out.fp = fps[i];
        if (digests[i].ok()) {
          out.status = Status::kOk;
          out.payload.assign(digests[i]->begin(), digests[i]->end());
        } else {
          out.status = failed_read_status(digests[i].code());
        }
      }
      break;
    }
    case MessageType::kDownloadChunksRequest: {
      response.type = MessageType::kDownloadChunksResponse;
      StatusOr<std::vector<std::uint32_t>> indices =
          decode_chunk_index_list(req.payload);
      if (!indices.ok()) {
        stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
        response.status = Status::kServerError;
        break;
      }
      StatusOr<ChunkManifest> manifest = files_.chunk_manifest(req.fp);
      if (!manifest.ok()) {
        // Not stored chunked (or not stored at all): an answer, not an
        // error — the client falls back to whole-file materialization.
        if (indices->empty()) ++stats_.manifest_round_trips;
        response.status = Status::kNotFound;
        break;
      }
      if (indices->empty()) {
        // Manifest probe: ship the serialized manifest as the payload.
        ++stats_.manifest_round_trips;
        response.payload = manifest->serialize();
        break;
      }
      ++stats_.chunk_round_trips;
      stats_.chunk_items += indices->size();
      n_items = indices->size();  // the response is a pipelined chunk burst
      response.items.reserve(indices->size());
      for (std::uint32_t index : *indices) {
        WireItem out;
        if (index >= manifest->chunks.size()) {
          out.status = Status::kNotFound;  // echoes a zero fingerprint
          response.items.push_back(std::move(out));
          continue;
        }
        out.fp = manifest->chunks[index];
        StatusOr<Bytes> stored = files_.download_chunk_compressed(out.fp);
        if (stored.ok()) {
          out.status = Status::kOk;
          out.payload = std::move(stored).value();
        } else {
          out.status = failed_read_status(stored.code());
        }
        response.items.push_back(std::move(out));
      }
      break;
    }
    default:  // a response type sent as a request
      response.type = MessageType::kQueryManyResponse;
      response.status = Status::kServerError;
      break;
  }

  Bytes frame = encode_message(response);
  stats_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  if (n_items_out != nullptr) *n_items_out = n_items;
  return frame;
}

}  // namespace gear::net
