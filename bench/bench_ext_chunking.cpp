// Extension bench (paper §VII future work): chunked on-demand reads for
// big files — "AI containers with big models".
//
// Scenario: an inference image carries a 64 MB weights file. The container's
// startup probes the model header and metadata (a fraction of the file)
// before deciding to page in more. Compares classic whole-file Gear
// materialization against chunked storage + range reads, and measures the
// update-path win when a new model version changes only a slice of chunks.
#include <cstdio>

#include "bench_common.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "p2p/topology.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

using namespace gear;

namespace {

constexpr std::uint64_t kModelBytes = 64ull * 1024 * 1024;
constexpr std::uint64_t kChunkBytes = 128 * 1024;

docker::Image model_image(const Bytes& model, const std::string& tag) {
  vfs::FileTree root;
  root.add_file("models/weights.bin", model);
  root.add_file("etc/inference.json", to_bytes("{\"batch\":8}"));
  root.add_file("bin/server", Bytes(512 * 1024, 0x3c));
  docker::ImageBuilder b;
  b.add_snapshot(root);
  return b.build("inference", tag, {});
}

/// One full-file range read through the wire protocol at a given batch
/// width, with server-side frame accounting.
struct RangeLeg {
  std::uint64_t manifest_round_trips = 0;
  std::uint64_t chunk_round_trips = 0;
  std::uint64_t chunk_items = 0;
  std::uint64_t wire_bytes = 0;
  double read_ms = 0.0;
  Bytes content;
};

RangeLeg run_range_leg(const ConversionResult& conv, const ChunkPolicy& policy,
                       std::size_t batch) {
  docker::DockerRegistry index_registry;
  GearRegistry server;
  push_gear_image(conv.image, index_registry, server, policy);

  sim::SimClock clock;
  sim::NetworkLink link(clock, 100.0, 0.0005, 0.0003);
  sim::DiskModel disk = sim::DiskModel::ssd(clock);
  net::LoopbackTransport loopback(server, &link);
  net::RemoteGearRegistry remote(loopback);
  GearClient client(index_registry, remote, link, disk);
  client.set_range_batch_chunks(batch);
  client.pull("inference:v1");
  std::string container = client.store().create_container("inference:v1");

  RangeLeg leg;
  sim::SimTimer timer(clock);
  leg.content =
      client.read_range(container, "models/weights.bin", 0, kModelBytes)
          .value();
  leg.read_ms = timer.elapsed() * 1000.0;
  leg.wire_bytes = client.range_bytes_downloaded();
  const net::LoopbackServerStats& s = loopback.server_stats();
  leg.manifest_round_trips = s.manifest_round_trips;
  leg.chunk_round_trips = s.chunk_round_trips;
  leg.chunk_items = s.chunk_items;
  return leg;
}

/// Node1 range-reads a file node0 already holds: how many chunks came from
/// the peer, in how many LAN bursts, at what WAN cost.
struct P2pLeg {
  std::uint64_t peer_chunks = 0;
  std::uint64_t lan_bursts = 0;
  std::uint64_t wan_read_bytes = 0;
  Bytes content;
};

/// With `retire_holder`, node0 leaves before the read and node1 reads from
/// the registry — the no-cooperation baseline.
P2pLeg run_p2p_leg(docker::DockerRegistry& index_registry,
                   GearRegistry& file_registry, bool retire_holder) {
  p2p::Topology::Params params;
  params.sites = 1;
  params.nodes_per_site = 2;
  params.wan_link = {100.0, /*rtt_seconds=*/0.0005,
                     /*request_overhead_seconds=*/0.0003};
  params.lan_link = sim::lan_profile(1000.0);
  p2p::Topology cluster(index_registry, file_registry, params);
  workload::AccessSet no_access;

  std::string c0;
  cluster.deploy(0, 0, "inference:v1", no_access, &c0);
  cluster.read_range(0, 0, c0, "models/weights.bin", 0, kModelBytes).value();

  std::string c1;
  cluster.deploy(0, 1, "inference:v1", no_access, &c1);
  if (retire_holder) cluster.retire_node(0, 0);
  std::uint64_t hits = cluster.peer_hits();
  std::uint64_t bursts = cluster.lan_bursts();
  std::uint64_t wan = cluster.wan_bytes();
  P2pLeg leg;
  leg.content =
      cluster.read_range(0, 1, c1, "models/weights.bin", 0, kModelBytes)
          .value();
  leg.peer_chunks = cluster.peer_hits() - hits;
  leg.lan_bursts = cluster.lan_bursts() - bursts;
  leg.wan_read_bytes = cluster.wan_bytes() - wan;
  return leg;
}

}  // namespace

int main() {
  std::printf("\n=== Extension: chunked big-file reads (paper §VII) ===\n");
  std::printf("model %s, chunk size %s, link 100 Mbps (unscaled: the "
              "scenario carries its own data)\n\n",
              format_size(kModelBytes).c_str(),
              format_size(kChunkBytes).c_str());

  Rng rng(77);
  Bytes model = rng.next_bytes(kModelBytes, 0.2);
  docker::Image image = model_image(model, "v1");
  GearConverter converter;
  ConversionResult conv = converter.convert(image);

  const ChunkPolicy policy{/*threshold_bytes=*/4 * 1024 * 1024, kChunkBytes};

  struct Mode {
    const char* label;
    bool chunked;
  };
  for (Mode mode : {Mode{"plain gear (whole-file)", false},
                    Mode{"chunked gear (range reads)", true}}) {
    docker::DockerRegistry index_registry;
    GearRegistry file_registry;
    push_gear_image(conv.image, index_registry, file_registry,
                    mode.chunked ? policy : ChunkPolicy{});

    sim::SimClock clock;
    sim::NetworkLink link(clock, 100.0, 0.0005, 0.0003);
    sim::DiskModel disk = sim::DiskModel::ssd(clock);
    GearClient client(index_registry, file_registry, link, disk);
    client.pull("inference:v1");
    std::string container = client.store().create_container("inference:v1");

    // Startup probe: 256 KB header + 3 random 64 KB metadata windows.
    sim::SimTimer timer(clock);
    sim::NetworkStats before = link.stats();
    client.read_range(container, "models/weights.bin", 0, 256 * 1024).value();
    Rng probe(5);
    for (int i = 0; i < 3; ++i) {
      std::uint64_t off = probe.next_below(kModelBytes - 65536);
      client.read_range(container, "models/weights.bin", off, 65536).value();
    }
    sim::NetworkStats delta = link.stats() - before;
    std::printf("%-28s probe: %s moved in %s (%llu requests)\n", mode.label,
                format_size(delta.bytes_transferred).c_str(),
                format_duration(timer.elapsed()).c_str(),
                static_cast<unsigned long long>(delta.requests));
  }

  // Update path: v2 rewrites 5% of the model's chunks.
  Bytes model_v2 = model;
  Rng upd(99);
  for (int i = 0; i < static_cast<int>(kModelBytes / kChunkBytes / 20); ++i) {
    std::uint64_t chunk =
        upd.next_below(kModelBytes / kChunkBytes);
    Bytes fresh = upd.next_bytes(kChunkBytes, 0.2);
    std::copy(fresh.begin(), fresh.end(),
              model_v2.begin() + static_cast<std::ptrdiff_t>(chunk * kChunkBytes));
  }
  docker::Image image_v2 = model_image(model_v2, "v2");
  ConversionResult conv_v2 = converter.convert(image_v2);

  std::printf("\nmodel update (v2 rewrites ~5%% of chunks):\n");
  for (Mode mode : {Mode{"plain gear", false}, Mode{"chunked gear", true}}) {
    docker::DockerRegistry index_registry;
    GearRegistry file_registry;
    push_gear_image(conv.image, index_registry, file_registry,
                    mode.chunked ? policy : ChunkPolicy{});
    std::uint64_t before = file_registry.storage_bytes();
    push_gear_image(conv_v2.image, index_registry, file_registry,
                    mode.chunked ? policy : ChunkPolicy{});
    std::printf("  %-14s v2 adds %s to the registry\n", mode.label,
                format_size(file_registry.storage_bytes() - before).c_str());
  }

  std::printf("\nexpected shape: chunked probe moves ~1%% of the model; "
              "chunked update stores ~5%% instead of a second full copy\n");

  // --- transport leg: per-chunk vs batch-64 range fetch over the wire ---
  const std::uint64_t n_chunks = kModelBytes / kChunkBytes;
  std::printf("\ntransport (wire protocol, %llu chunks):\n",
              static_cast<unsigned long long>(n_chunks));
  RangeLeg per_chunk = run_range_leg(conv, policy, 1);
  RangeLeg batch64 = run_range_leg(conv, policy, 64);
  for (const auto& [label, leg] :
       {std::pair<const char*, const RangeLeg&>{"per-chunk (batch 1)",
                                                per_chunk},
        std::pair<const char*, const RangeLeg&>{"batched (batch 64)",
                                                batch64}}) {
    std::printf("  %-20s %llu manifest + %llu chunk frames, %llu items, "
                "%s wire, read %s\n",
                label,
                static_cast<unsigned long long>(leg.manifest_round_trips),
                static_cast<unsigned long long>(leg.chunk_round_trips),
                static_cast<unsigned long long>(leg.chunk_items),
                format_size(leg.wire_bytes).c_str(),
                format_duration(leg.read_ms / 1000.0).c_str());
  }
  bool identical = per_chunk.content == batch64.content &&
                   per_chunk.content == model &&
                   per_chunk.wire_bytes == batch64.wire_bytes &&
                   per_chunk.chunk_items == batch64.chunk_items;
  double frame_reduction =
      batch64.chunk_round_trips == 0
          ? 0.0
          : static_cast<double>(per_chunk.chunk_round_trips) /
                static_cast<double>(batch64.chunk_round_trips);
  bool expected_frames =
      per_chunk.chunk_round_trips == n_chunks &&
      batch64.chunk_round_trips == (n_chunks + 63) / 64;
  std::printf("  frame reduction %.1fx (byte/wire-identical: %s)\n",
              frame_reduction, identical ? "yes" : "NO");

  // --- P2P leg: batched LAN fan-out vs registry reads (holder retired) ---
  docker::DockerRegistry p2p_index;
  GearRegistry p2p_files;
  push_gear_image(conv.image, p2p_index, p2p_files, policy);
  P2pLeg fanout = run_p2p_leg(p2p_index, p2p_files, /*retire_holder=*/false);
  docker::DockerRegistry legacy_index;
  GearRegistry legacy_files;
  push_gear_image(conv.image, legacy_index, legacy_files, policy);
  P2pLeg legacy = run_p2p_leg(legacy_index, legacy_files,
                              /*retire_holder=*/true);
  bool p2p_ok = fanout.content == model && legacy.content == model &&
                fanout.peer_chunks == n_chunks && fanout.lan_bursts == 1 &&
                legacy.lan_bursts == 0;
  std::printf("\np2p second reader: batched %llu chunks from the peer in "
              "%llu LAN burst(s), WAN +%s; holder retired: %s over the "
              "WAN\n",
              static_cast<unsigned long long>(fanout.peer_chunks),
              static_cast<unsigned long long>(fanout.lan_bursts),
              format_size(fanout.wan_read_bytes).c_str(),
              format_size(legacy.wan_read_bytes).c_str());

  Json doc;
  doc["bench"] = "ext_chunking";
  doc["model_bytes"] = static_cast<std::int64_t>(kModelBytes);
  doc["chunk_bytes"] = static_cast<std::int64_t>(kChunkBytes);
  doc["chunks"] = static_cast<std::int64_t>(n_chunks);
  auto leg_json = [](const RangeLeg& leg) {
    Json j;
    j["manifest_round_trips"] =
        static_cast<std::int64_t>(leg.manifest_round_trips);
    j["chunk_round_trips"] = static_cast<std::int64_t>(leg.chunk_round_trips);
    j["chunk_items"] = static_cast<std::int64_t>(leg.chunk_items);
    j["wire_bytes"] = static_cast<std::int64_t>(leg.wire_bytes);
    j["read_ms"] = leg.read_ms;
    return j;
  };
  doc["transport_per_chunk"] = leg_json(per_chunk);
  doc["transport_batch64"] = leg_json(batch64);
  doc["frame_reduction"] = frame_reduction;
  doc["identical"] = identical;
  Json p2p_json;
  p2p_json["peer_chunks"] = static_cast<std::int64_t>(fanout.peer_chunks);
  p2p_json["lan_bursts"] = static_cast<std::int64_t>(fanout.lan_bursts);
  p2p_json["wan_read_bytes"] =
      static_cast<std::int64_t>(fanout.wan_read_bytes);
  p2p_json["legacy_wan_read_bytes"] =
      static_cast<std::int64_t>(legacy.wan_read_bytes);
  p2p_json["ok"] = p2p_ok;
  doc["p2p"] = p2p_json;
  bench::write_json("BENCH_chunk.json", doc);

  return (identical && expected_frames && frame_reduction >= 10.0 && p2p_ok)
             ? 0
             : 1;
}
