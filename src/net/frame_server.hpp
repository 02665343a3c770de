// Transport-agnostic server half of the wire protocol.
//
// FrameServer turns one request frame into one response frame: decode,
// dispatch against a FileRegistryApi (a single GearRegistry or a whole
// FleetRegistry of shards), encode, account. Every request is a batch, so
// dispatch is one case per interface: kQueryMany (one query_many call per
// frame, each hit advertising its stored size), kUploadMany (one
// upload_precompressed_many call per frame: precompressed frames stored
// verbatim), kDownloadMany (stored frames shipped verbatim, read on the
// server's pool when it has one), kDownloadChunks (manifest probes and chunk
// bursts) and kDigestMany (one query_digests call per frame, on the pool). A
// frame the server cannot decode or dispatch gets a kServerError reply; a
// download or digest item the registry cannot read is kNotFound only when
// the object is absent, and an item-level kServerError otherwise (e.g. a
// chunk that no longer decodes).
//
// FrameServer knows nothing about HOW frames travel — LoopbackTransport
// hands them over in-process (optionally charging a simulated link) and
// net::TcpServer reads them off real sockets; both paths share this exact
// dispatch, which is what makes the loopback link the deterministic twin of
// the socket path: same frames in, same frames and server stats out, byte
// for byte.
#pragma once

#include <atomic>
#include <cstdint>

#include "gear/registry_api.hpp"
#include "net/wire.hpp"
#include "util/thread_pool.hpp"

namespace gear::net {

/// Server-side accounting of a frame-served registry endpoint. One serve()
/// call is one round trip, whatever it carries; the *_items counters expose
/// how many objects each interface served, so tests can prove an N-file
/// deploy cost ⌈N/batch⌉ download round-trips instead of N. Fields are
/// atomics so concurrent clients account race-free; read them as plain
/// numbers. (The name predates the socket transport: these are the stats of
/// ANY FrameServer, loopback- or TCP-fronted.)
struct LoopbackServerStats {
  std::atomic<std::uint64_t> round_trips{0};
  std::atomic<std::uint64_t> bad_requests{0};  // undecodable request frames
  std::atomic<std::uint64_t> query_round_trips{0};
  std::atomic<std::uint64_t> query_items{0};
  std::atomic<std::uint64_t> upload_round_trips{0};
  std::atomic<std::uint64_t> upload_items{0};
  std::atomic<std::uint64_t> download_round_trips{0};
  std::atomic<std::uint64_t> download_items{0};
  /// kDownloadChunks traffic: manifest probes (empty index list) and chunk
  /// batches are counted apart so tests can prove a range read over N
  /// cache-missing chunks cost 1 probe + ⌈N/batch⌉ chunk frames.
  std::atomic<std::uint64_t> manifest_round_trips{0};
  std::atomic<std::uint64_t> chunk_round_trips{0};
  std::atomic<std::uint64_t> chunk_items{0};
  /// kDigestMany traffic: collision verdicts, one 32-byte digest per item.
  std::atomic<std::uint64_t> digest_round_trips{0};
  std::atomic<std::uint64_t> digest_items{0};
  std::atomic<std::uint64_t> bytes_in{0};   // request frame bytes
  std::atomic<std::uint64_t> bytes_out{0};  // response frame bytes
};

/// Serves serve() concurrently: the registry backends are internally
/// locked and the stats are atomics, so every transport may dispatch from
/// any number of threads at once.
class FrameServer {
 public:
  /// Non-owning: `files` and `pool` must outlive the server. `pool`, when
  /// non-null, reads a kDownloadMany frame's items and is handed to
  /// query_digests, so a kDigestMany frame reads and hashes its objects in
  /// parallel; without one (loopback transports, the benchmark's daemon)
  /// the serving thread does both itself. It may be shared by any number of
  /// serving threads.
  explicit FrameServer(FileRegistryApi& files,
                       util::ThreadPool* pool = nullptr)
      : files_(files), pool_(pool) {}

  /// Answers one request frame with one response frame. An undecodable
  /// request is answered (kServerError), never thrown. Registry-side
  /// exceptions propagate to the caller — in-process transports surface
  /// them to the client directly; socket fronts catch and answer
  /// kServerError (see TcpServer). `n_items_out` (optional) receives the
  /// number of objects the response carries (1 for a manifest probe or an
  /// error reply), so a link-charging transport can bill batch responses as
  /// pipelined bursts.
  Bytes serve(BytesView request_frame, std::uint64_t* n_items_out = nullptr);

  FileRegistryApi& files() noexcept { return files_; }
  const LoopbackServerStats& stats() const noexcept { return stats_; }

 private:
  FileRegistryApi& files_;
  util::ThreadPool* pool_;
  LoopbackServerStats stats_;
};

}  // namespace gear::net
