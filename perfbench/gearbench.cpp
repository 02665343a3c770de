// gearbench — the benchmark's traced daemon and client-layer probe.
//
//   gearbench serve --addr HOST:PORT --store-dir DIR
//   gearbench layers <tree-dir> <client-store-dir> <scratch-dir>
//
// `serve` assembles the stack of `gearctl serve` (DiskObjectStore ->
// GearRegistry -> net::FrameServer -> net::TcpServer) with timing wrappers
// at its two public seams: an ObjectStore under GearRegistry and a
// FileRegistryApi under FrameServer. It prints "serving on HOST:PORT", then
// answers every "snap" line on stdin with one JSON line of cumulative
// counters, and shuts down on "quit" or end of input, so it never outlives
// the process holding its stdin.
//
// `layers` calls each client-side layer's public entry point once on one
// image tree and prints one JSON line of seconds per layer. The daemon
// cannot see these layers: they run inside the gearctl client.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "compress/codec.hpp"
#include "docker/image.hpp"
#include "docker/registry.hpp"
#include "gear/converter.hpp"
#include "gear/fs_store.hpp"
#include "gear/object_store.hpp"
#include "gear/persistence.hpp"
#include "gear/registry.hpp"
#include "net/frame_server.hpp"
#include "net/tcp.hpp"
#include "vfs/fs_io.hpp"

namespace fs = std::filesystem;
using namespace gear;

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Calls and busy time of one seam, safe to bump from any server thread.
struct Counter {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};

  double busy_s() const { return static_cast<double>(busy_ns.load()) / 1e9; }
};

/// Adds the lifetime of one call to a Counter.
class Span {
 public:
  explicit Span(Counter& counter) : counter_(counter), start_(SteadyClock::now()) {}
  ~Span() {
    counter_.calls.fetch_add(1, std::memory_order_relaxed);
    counter_.busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - start_)
                .count()),
        std::memory_order_relaxed);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Counter& counter_;
  SteadyClock::time_point start_;
};

/// The storage seam: times every durable write (puts: objects and chunk
/// manifests) and every object read (gets) the registry makes, forwarding
/// everything unchanged.
class TimedObjectStore final : public ObjectStore {
 public:
  explicit TimedObjectStore(std::unique_ptr<ObjectStore> inner)
      : inner_(std::move(inner)) {}

  bool contains(const Fingerprint& fp) const override {
    return inner_->contains(fp);
  }
  bool put_if_absent(const Fingerprint& fp, Bytes compressed) override {
    Span span(puts);
    return inner_->put_if_absent(fp, std::move(compressed));
  }
  StatusOr<Bytes> get(const Fingerprint& fp) const override {
    Span span(gets);
    return inner_->get(fp);
  }
  StatusOr<std::uint64_t> object_size(const Fingerprint& fp) const override {
    return inner_->object_size(fp);
  }
  std::uint64_t erase(const Fingerprint& fp) override {
    return inner_->erase(fp);
  }
  std::vector<Fingerprint> list_objects() const override {
    return inner_->list_objects();
  }
  std::size_t object_count() const override { return inner_->object_count(); }

  bool contains_manifest(const Fingerprint& fp) const override {
    return inner_->contains_manifest(fp);
  }
  bool put_manifest_if_absent(const Fingerprint& fp,
                              const ChunkManifest& manifest) override {
    Span span(puts);
    return inner_->put_manifest_if_absent(fp, manifest);
  }
  // Manifests are parsed into memory at open, so this is no storage read.
  StatusOr<ChunkManifest> get_manifest(const Fingerprint& fp) const override {
    return inner_->get_manifest(fp);
  }
  std::uint64_t erase_manifest(const Fingerprint& fp) override {
    return inner_->erase_manifest(fp);
  }
  std::vector<Fingerprint> list_manifests() const override {
    return inner_->list_manifests();
  }
  std::size_t manifest_count() const override {
    return inner_->manifest_count();
  }
  std::uint64_t stored_bytes() const override { return inner_->stored_bytes(); }

  mutable Counter puts;
  mutable Counter gets;

 private:
  std::unique_ptr<ObjectStore> inner_;
};

/// The registry seam: times every call FrameServer makes into the registry.
/// The registry's calls into itself do not pass through here.
class TimedRegistry final : public FileRegistryApi {
 public:
  explicit TimedRegistry(FileRegistryApi& inner) : inner_(inner) {}

  bool query(const Fingerprint& fp) const override {
    Span span(calls);
    return inner_.query(fp);
  }
  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override {
    Span span(calls);
    return inner_.query_many(fps);
  }
  bool upload(const Fingerprint& fp, BytesView content) override {
    Span span(calls);
    return inner_.upload(fp, content);
  }
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override {
    Span span(calls);
    return inner_.upload_precompressed(fp, std::move(compressed));
  }
  std::size_t upload_precompressed_batch(
      std::vector<std::pair<Fingerprint, Bytes>> items) override {
    Span span(calls);
    return inner_.upload_precompressed_batch(std::move(items));
  }
  bool upload_chunked(const Fingerprint& fp, BytesView content,
                      const ChunkPolicy& policy,
                      const FingerprintHasher& hasher) override {
    Span span(calls);
    return inner_.upload_chunked(fp, content, policy, hasher);
  }
  StatusOr<Bytes> download(const Fingerprint& fp) const override {
    Span span(calls);
    return inner_.download(fp);
  }
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool,
      std::uint64_t* wire_bytes_out) const override {
    Span span(calls);
    return inner_.download_batch(fps, pool, wire_bytes_out);
  }
  StatusOr<Bytes> download_range(const Fingerprint& fp, std::uint64_t offset,
                                 std::uint64_t length,
                                 std::uint64_t* wire_bytes_out) const override {
    Span span(calls);
    return inner_.download_range(fp, offset, length, wire_bytes_out);
  }
  StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out) const override {
    Span span(calls);
    return inner_.download_chunks(fp, manifest, indices, wire_bytes_out);
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    Span span(calls);
    return inner_.stored_size(fp);
  }
  StatusOr<Bytes> download_compressed(const Fingerprint& fp) const override {
    Span span(calls);
    return inner_.download_compressed(fp);
  }
  StatusOr<Bytes> download_chunk_compressed(
      const Fingerprint& chunk_fp) const override {
    Span span(calls);
    return inner_.download_chunk_compressed(chunk_fp);
  }
  bool is_chunked(const Fingerprint& fp) const override {
    Span span(calls);
    return inner_.is_chunked(fp);
  }
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override {
    Span span(calls);
    return inner_.chunk_manifest(fp);
  }
  bool transport_accounted() const override {
    return inner_.transport_accounted();
  }

  mutable Counter calls;

 private:
  FileRegistryApi& inner_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

int cmd_serve(const net::HostPort& addr, const fs::path& store_dir) {
  auto timed_store = std::make_unique<TimedObjectStore>(
      std::make_unique<DiskObjectStore>(store_dir));
  TimedObjectStore& store = *timed_store;
  GearRegistry registry(std::move(timed_store));
  TimedRegistry files(registry);
  net::FrameServer frames(files);
  net::TcpServer server(frames);
  server.start(addr.host, addr.port);
  std::printf("serving on %s:%u\n", addr.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line) && line != "quit") {
    if (line != "snap") continue;
    const net::LoopbackServerStats& s = frames.stats();
    std::printf(
        "{\"frames\": %llu, \"items\": %llu, \"bytes_in\": %llu, "
        "\"bytes_out\": %llu, \"registry_calls\": %llu, "
        "\"registry_busy_s\": %.9f, \"puts\": %llu, \"put_s\": %.9f, "
        "\"gets\": %llu, \"get_s\": %.9f, \"peak_rss_MB\": %.3f}\n",
        static_cast<unsigned long long>(s.round_trips.load()),
        static_cast<unsigned long long>(s.query_items.load() +
                                        s.upload_items.load() +
                                        s.download_items.load() +
                                        s.chunk_items.load()),
        static_cast<unsigned long long>(s.bytes_in.load()),
        static_cast<unsigned long long>(s.bytes_out.load()),
        static_cast<unsigned long long>(files.calls.calls.load()),
        files.calls.busy_s(),
        static_cast<unsigned long long>(store.puts.calls.load()),
        store.puts.busy_s(),
        static_cast<unsigned long long>(store.gets.calls.load()),
        store.gets.busy_s(), peak_rss_mb());
    std::fflush(stdout);
  }
  server.stop();
  return 0;
}

int cmd_layers(const fs::path& tree_dir, const fs::path& client_store,
               const fs::path& scratch) {
  const std::string ref = "bench:layers";
  auto start = SteadyClock::now();
  vfs::FileTree tree = vfs::load_tree(tree_dir);
  const double load_tree_s = seconds_since(start);

  start = SteadyClock::now();
  docker::ImageBuilder builder;
  builder.add_snapshot(tree);
  docker::Image image = builder.build("bench", "layers", docker::ImageConfig{});
  const double build_layer_s = seconds_since(start);

  // Same worker budget as the client calls (--workers 2), no registry probe.
  GearConverter converter;
  converter.set_concurrency(util::Concurrency{2});
  start = SteadyClock::now();
  ConversionResult conv = converter.convert(image);
  const double convert_s = seconds_since(start);

  std::vector<Bytes> frames;
  start = SteadyClock::now();
  tree.walk([&](const std::string&, const vfs::FileNode& node) {
    if (node.is_regular()) frames.push_back(compress(node.content()));
  });
  const double compress_s = seconds_since(start);

  start = SteadyClock::now();
  std::uint64_t decompressed = 0;
  for (const Bytes& frame : frames) decompressed += decompress(frame).size();
  const double decompress_s = seconds_since(start);

  start = SteadyClock::now();
  vfs::write_tree(tree, scratch / "export");
  const double write_tree_s = seconds_since(start);

  // Cache + hard link per file, as a backfill does once a file has arrived.
  std::unordered_map<Fingerprint, const Bytes*, FingerprintHash> content_of;
  for (const auto& [fp, content] : conv.image.files) content_of[fp] = &content;
  FsStore local(scratch / "local");
  local.install_index(ref, conv.image.index);
  start = SteadyClock::now();
  conv.image.index.tree().walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        if (!node.is_fingerprint()) return;
        local.cache_put(node.fingerprint(), *content_of.at(node.fingerprint()));
        local.link_file(ref, path, node.fingerprint());
      });
  const double cache_link_s = seconds_since(start);

  docker::DockerRegistry snapshot;
  start = SteadyClock::now();
  load_docker_registry(client_store, &snapshot);
  const double load_s = seconds_since(start);
  start = SteadyClock::now();
  save_docker_registry(snapshot, scratch / "snapshot");
  const double save_s = seconds_since(start);

  std::printf(
      "{\"vfs.load_tree_s\": %.9f, \"docker.build_layer_s\": %.9f, "
      "\"converter.convert_s\": %.9f, \"compress.compress_s\": %.9f, "
      "\"compress.decompress_s\": %.9f, \"vfs.write_tree_s\": %.9f, "
      "\"fs_store.cache_link_s\": %.9f, \"persistence.load_s\": %.9f, "
      "\"persistence.save_s\": %.9f, \"files\": %zu, \"bytes\": %llu}\n",
      load_tree_s, build_layer_s, convert_s, compress_s, decompress_s,
      write_tree_s, cache_link_s, load_s, save_s, frames.size(),
      static_cast<unsigned long long>(decompressed));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: gearbench serve --addr HOST:PORT --store-dir DIR\n"
               "       gearbench layers <tree-dir> <client-store-dir> "
               "<scratch-dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 5 && args[0] == "serve" && args[1] == "--addr" &&
        args[3] == "--store-dir") {
      StatusOr<net::HostPort> addr = net::parse_host_port(args[2]);
      if (!addr.ok()) {
        std::fprintf(stderr, "gearbench: --addr: %s\n", addr.message().c_str());
        return 2;
      }
      return cmd_serve(*addr, args[4]);
    }
    if (args.size() == 4 && args[0] == "layers") {
      return cmd_layers(args[1], args[2], args[3]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "gearbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
