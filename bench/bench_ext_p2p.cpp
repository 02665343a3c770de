// Extension bench: cooperative (P2P) Gear-file distribution (§VI-B).
//
// Scenario: a rack of 8 nodes cold-starts the same service image (scale-out
// burst). Without cooperation every node pulls every Gear file over the
// WAN; with the peer tracker one WAN copy fans out over the cluster LAN.
#include <cstdio>

#include "bench_common.hpp"
#include "gear/converter.hpp"
#include "p2p/topology.hpp"

using namespace gear;

int main() {
  bench::Env e = bench::env();
  bench::print_title("Extension: P2P cold-start of a cluster (paper §VI-B)",
                     e);

  workload::CorpusGenerator gen(e.seed, e.scale);
  workload::SeriesSpec spec;
  for (const auto& s : workload::table1_corpus()) {
    if (s.name == "node") spec = s;  // the biggest web image
  }

  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  docker::Image image = gen.generate_image(spec, 0);
  push_gear_image(GearConverter().convert(image).image, index_registry,
                  file_registry);
  workload::AccessSet access = gen.access_set(spec, 0);

  const std::size_t kNodes = 8;

  // Baseline: independent nodes.
  std::uint64_t solo_wan = 0;
  double solo_time = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    sim::SimClock c;
    sim::NetworkLink l = sim::scaled_link(c, 100.0, e.scale);
    sim::DiskModel d = sim::DiskModel::scaled_ssd(c, e.scale);
    GearClient client(index_registry, file_registry, l, d);
    solo_time += client.deploy("node:v0", access).total_seconds();
    solo_wan += l.stats().bytes_transferred;
  }

  // Cooperative cluster: one site of kNodes nodes.
  p2p::Topology::Params params;
  params.sites = 1;
  params.nodes_per_site = kNodes;
  params.wan_link = {100.0, /*rtt_seconds=*/0.0005,
                     /*request_overhead_seconds=*/0.0003};
  params.lan_link = sim::lan_profile(1000.0);
  params.byte_scale = e.scale;
  p2p::Topology cluster(index_registry, file_registry, params);
  double coop_time = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    coop_time += cluster.deploy(0, i, "node:v0", access).total_seconds();
  }

  std::vector<int> w = {26, 14, 14, 14};
  bench::print_row({"strategy", "wan egress", "lan traffic", "total time"},
                   w);
  bench::print_rule(w);
  bench::print_row({"independent nodes", format_size(solo_wan), "0 B",
                    format_duration(solo_time)},
                   w);
  bench::print_row({"cooperative (tracker+lan)",
                    format_size(cluster.wan_bytes()),
                    format_size(cluster.lan_bytes()),
                    format_duration(coop_time)},
                   w);

  double reduction = cluster.wan_bytes() > 0
                         ? static_cast<double>(solo_wan) /
                               static_cast<double>(cluster.wan_bytes())
                         : 0;
  std::printf("\nwan egress reduction: %.1fx over %zu nodes "
              "(peer hits: %llu, lan bursts: %llu)\n",
              reduction, kNodes,
              static_cast<unsigned long long>(cluster.peer_hits()),
              static_cast<unsigned long long>(cluster.lan_bursts()));
  std::printf("expected shape: cooperative wan egress ~ 1/N of independent; "
              "deployment also faster (lan >> wan)\n");

  // Exit-code bars: cooperation must at least halve WAN egress over the
  // burst, every follower node must hit peers, and the saved WAN bytes must
  // actually move over the LAN instead. (This deploy path replays accesses
  // per file, so every peer hit is a LAN burst of one — the multi-object
  // fan-out is exercised and asserted by the topology test suites and
  // bench_ext_edge.)
  bool reduction_ok = reduction >= 2.0;
  bool hits_ok = cluster.peer_hits() >= kNodes - 1;
  bool lan_ok = cluster.lan_bytes() > 0;
  std::printf("wan reduction >= 2x: %s; peer hits >= %zu: %s; "
              "lan traffic present: %s\n",
              reduction_ok ? "ok" : "BAR FAILED", kNodes - 1,
              hits_ok ? "ok" : "BAR FAILED", lan_ok ? "ok" : "BAR FAILED");

  Json doc;
  doc["bench"] = "ext_p2p";
  doc["scale"] = e.scale;
  doc["seed"] = e.seed;
  doc["nodes"] = static_cast<std::int64_t>(kNodes);
  doc["solo_wan_bytes"] = solo_wan;
  doc["coop_wan_bytes"] = cluster.wan_bytes();
  doc["lan_bytes"] = cluster.lan_bytes();
  doc["lan_bursts"] = cluster.lan_bursts();
  doc["peer_hits"] = cluster.peer_hits();
  doc["solo_time_s"] = solo_time;
  doc["coop_time_s"] = coop_time;
  doc["wan_reduction"] = reduction;
  doc["reduction_ok"] = reduction_ok;
  doc["hits_ok"] = hits_ok;
  doc["lan_ok"] = lan_ok;
  bench::write_json("BENCH_p2p.json", doc);

  if (!reduction_ok || !hits_ok || !lan_ok) {
    std::printf("\nFAILED: p2p bars not met\n");
    return 1;
  }
  std::printf("\nall p2p bars met\n");
  return 0;
}
