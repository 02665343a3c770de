// Extension bench: multi-site edge deploy storm over hierarchical P2P.
//
// Scenario (EdgePier, PAPERS.md): a fleet of edge sites sits behind slow
// WAN links; one new image version lands in the registry and every node of
// every site warms it at nearly the same time. Without cooperation each
// node pulls a full copy over the WAN (nodes_per_site x sites copies).
// With the two-tier topology — site-local peers first, cross-site WAN
// peers second, registry last — each cold site's WAN traffic approaches
// ONE compressed image copy (the site seed's pull), everything else rides
// the site LANs, and registry egress collapses to ~one copy total.
//
// Method: replay the same jittered deploy storm across {1,2,4,8} sites x
// {eager,lazy} deploy modes on identical 50 Mbps WAN / 1 Gbps LAN links,
// plus a no-P2P baseline (independent nodes) for the per-site cost without
// cooperation. Deployed trees are compared byte-for-byte against a
// single-registry solo deploy, and a churn probe crashes holders
// mid-storm to prove fetches degrade to the next holder (or the registry)
// and rejoin re-announces.
//
// Exit-code bars (also recorded in BENCH_edge.json):
//   1. WAN optimality: max content WAN bytes per cold site <= 1.2x one
//      compressed image copy at 4 and 8 sites, in both deploy modes
//      (baseline sits at ~nodes_per_site x one copy);
//   2. registry egress: content bytes served by the registry across the
//      whole storm <= 1.2x one copy at 4 and 8 sites (cross-site peers
//      shield it);
//   3. byte identity: every deployed tree in every leg is byte-identical
//      to the single-registry solo deploy;
//   4. churn: a holder crash mid-storm degrades to the next holder (zero
//      registry content), a fully-crashed advert set falls through to the
//      registry, and a rejoined node serves again after re-announce.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p2p/topology.hpp"
#include "workload/trace.hpp"

using namespace gear;

namespace {

struct LegResult {
  std::size_t sites = 0;
  bool lazy = false;
  std::vector<std::uint64_t> wan_per_site;          // raw WAN bytes
  std::vector<std::uint64_t> content_wan_per_site;  // minus index/manifest
  std::uint64_t lan_bytes = 0;
  std::uint64_t registry_content_bytes = 0;  // WAN minus peer + pull shares
  std::uint64_t lan_hits = 0;
  std::uint64_t wan_hits = 0;
  double deploys_per_s = 0;
  double ready_p99 = 0;
  bool identity_ok = true;
};

/// path -> content of every regular file in a fully materialized index;
/// *all_regular false if any stub is left.
std::map<std::string, Bytes> materialized_tree(GearClient& client,
                                               const std::string& reference,
                                               bool* all_regular) {
  std::map<std::string, Bytes> out;
  client.store().index_tree(reference).walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        if (node.is_fingerprint()) *all_regular = false;
        if (node.is_regular()) out[path] = node.content();
      });
  return out;
}

std::uint64_t max_of(const std::vector<std::uint64_t>& xs) {
  std::uint64_t m = 0;
  for (std::uint64_t x : xs) m = std::max(m, x);
  return m;
}

LegResult run_leg(std::size_t sites, std::size_t nodes_per_site, bool lazy,
                  docker::DockerRegistry& index_registry,
                  GearRegistry& file_registry, const std::string& reference,
                  const workload::AccessSet& access, const bench::Env& e,
                  const std::map<std::string, Bytes>& reference_tree) {
  p2p::Topology::Params tp;
  tp.sites = sites;
  tp.nodes_per_site = nodes_per_site;
  tp.wan_link = sim::wan_profile(50.0);
  tp.lan_link = sim::lan_profile(1000.0);
  tp.byte_scale = e.scale;
  p2p::Topology topo(index_registry, file_registry, tp);

  std::vector<workload::StormEvent> storm = workload::generate_deploy_storm(
      sites, nodes_per_site, /*mean_jitter_seconds=*/2.0, e.seed);

  LegResult out;
  out.sites = sites;
  out.lazy = lazy;
  std::vector<std::uint64_t> pull_per_site(sites, 0);
  std::vector<double> ready;
  for (const workload::StormEvent& ev : storm) {
    sim::SimClock& clock = topo.node_clock(ev.site, ev.node);
    if (clock.now() < ev.arrival_seconds) {
      clock.advance(ev.arrival_seconds - clock.now());
    }
    docker::DeployStats stats;
    if (lazy) {
      stats = topo.deploy(ev.site, ev.node, reference, access, nullptr,
                          DeployMode::kLazy);
      topo.backfill(ev.site, ev.node, reference);
    } else {
      stats = topo.deploy(ev.site, ev.node, reference, access);
      topo.prefetch(ev.site, ev.node, reference);
    }
    pull_per_site[ev.site] += stats.pull.bytes_downloaded;
    ready.push_back(stats.ready_seconds);
  }

  std::uint64_t total_pulls = 0;
  for (std::size_t s = 0; s < sites; ++s) {
    std::uint64_t wan = topo.wan_bytes(s);
    out.wan_per_site.push_back(wan);
    out.content_wan_per_site.push_back(wan - pull_per_site[s]);
    total_pulls += pull_per_site[s];
  }
  out.lan_bytes = topo.lan_bytes();
  out.registry_content_bytes =
      topo.wan_bytes() - topo.wan_peer_bytes() - total_pulls;
  out.lan_hits = topo.lan_peer_hits();
  out.wan_hits = topo.wan_peer_hits();

  // Per-node clocks read like a parallel wave: the storm is done when the
  // slowest node is done.
  double makespan = 0;
  for (std::size_t s = 0; s < sites; ++s) {
    for (std::size_t n = 0; n < nodes_per_site; ++n) {
      makespan = std::max(makespan, topo.node_clock(s, n).now());
    }
  }
  out.deploys_per_s =
      makespan > 0 ? static_cast<double>(storm.size()) / makespan : 0;
  out.ready_p99 = bench::percentile(ready, 99);

  // Byte identity: every node's fully warmed tree vs the solo deploy.
  for (std::size_t s = 0; s < sites && out.identity_ok; ++s) {
    for (std::size_t n = 0; n < nodes_per_site; ++n) {
      bool complete = true;
      std::map<std::string, Bytes> tree =
          materialized_tree(topo.node(s, n), reference, &complete);
      if (!complete || tree != reference_tree) {
        out.identity_ok = false;
        break;
      }
    }
  }
  return out;
}

/// Crash/rejoin probe on a 2-site topology. Returns true when every churn
/// transition lands where the design says it must.
bool churn_probe(docker::DockerRegistry& index_registry,
                 GearRegistry& file_registry, const std::string& reference,
                 const workload::AccessSet& access, const bench::Env& e) {
  p2p::Topology::Params tp;
  tp.sites = 2;
  tp.nodes_per_site = 4;
  tp.wan_link = sim::wan_profile(50.0);
  tp.lan_link = sim::lan_profile(1000.0);
  tp.byte_scale = e.scale;
  p2p::Topology topo(index_registry, file_registry, tp);

  auto content_delta = [&](std::size_t site, std::size_t node) {
    std::uint64_t wan_before = topo.wan_bytes();
    docker::DeployStats stats = topo.deploy(site, node, reference, access);
    topo.prefetch(site, node, reference);
    return topo.wan_bytes() - wan_before - stats.pull.bytes_downloaded;
  };

  // Seed the first site from the registry, then a peer-served neighbor.
  std::uint64_t seed_content = content_delta(0, 0);
  std::uint64_t neighbor_content = content_delta(0, 1);
  bool peer_served = seed_content > 0 && neighbor_content == 0;

  // Crash the seed mid-storm: its adverts stay, stale; the next deployer
  // must degrade to the next holder (node 1) with zero registry content.
  topo.crash_node(0, 0);
  std::uint64_t after_crash = content_delta(0, 2);
  bool next_holder_ok = after_crash == 0;

  // Crash every holder: site 1 now chases stale adverts at both tiers and
  // must fall through to the registry — and still deploy correctly.
  topo.crash_node(0, 1);
  topo.crash_node(0, 2);
  std::uint64_t stale_fallback = content_delta(1, 0);
  bool registry_fallback_ok = stale_fallback > 0;

  // Rejoin re-announces: the revived seed serves its site again.
  topo.rejoin_node(0, 0);
  std::uint64_t after_rejoin = content_delta(0, 3);
  bool rejoin_ok = after_rejoin == 0;

  std::printf("churn probe: seed %s, neighbor %s, post-crash next-holder %s, "
              "stale->registry %s, post-rejoin %s\n",
              format_size(seed_content).c_str(),
              format_size(neighbor_content).c_str(),
              format_size(after_crash).c_str(),
              format_size(stale_fallback).c_str(),
              format_size(after_rejoin).c_str());
  return peer_served && next_holder_ok && registry_fallback_ok && rejoin_ok;
}

}  // namespace

int main() {
  bench::Env e = bench::env();
  bench::print_title("Extension: multi-site edge deploy storm (EdgePier-style)",
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
  const std::string reference = "node:v0";
  workload::AccessSet access = gen.access_set(spec, 0);

  const std::size_t nodes_per_site = e.fast ? 3 : 4;
  const std::vector<std::size_t> site_counts = {1, 2, 4, 8};

  // Single-registry solo deploy: the identity reference and the "one
  // compressed image copy" yardstick (content = WAN minus the index pull).
  sim::SimClock solo_clock;
  sim::NetworkLink solo_link =
      sim::scaled_link(solo_clock, sim::wan_profile(50.0), e.scale);
  sim::DiskModel solo_disk = sim::DiskModel::scaled_ssd(solo_clock, e.scale);
  GearClient solo(index_registry, file_registry, solo_link, solo_disk);
  docker::DeployStats solo_stats = solo.deploy(reference, access);
  solo.prefetch_remaining(reference);
  const std::uint64_t one_copy = solo_link.stats().bytes_transferred -
                                 solo_stats.pull.bytes_downloaded;
  bool reference_complete = true;
  std::map<std::string, Bytes> reference_tree =
      materialized_tree(solo, reference, &reference_complete);
  if (!reference_complete) {
    std::printf("FAILED: solo reference tree left stubs\n");
    return 1;
  }

  // No-P2P baseline: every node of one site pulls independently.
  std::uint64_t baseline_site_content = 0;
  for (std::size_t n = 0; n < nodes_per_site; ++n) {
    sim::SimClock c;
    sim::NetworkLink l = sim::scaled_link(c, sim::wan_profile(50.0), e.scale);
    sim::DiskModel d = sim::DiskModel::scaled_ssd(c, e.scale);
    GearClient client(index_registry, file_registry, l, d);
    docker::DeployStats stats = client.deploy(reference, access);
    client.prefetch_remaining(reference);
    baseline_site_content +=
        l.stats().bytes_transferred - stats.pull.bytes_downloaded;
  }
  std::printf("one compressed copy: %s; no-P2P baseline per site (%zu "
              "nodes): %s (%.1fx)\n\n",
              format_size(one_copy).c_str(), nodes_per_site,
              format_size(baseline_site_content).c_str(),
              one_copy > 0 ? static_cast<double>(baseline_site_content) /
                                 static_cast<double>(one_copy)
                           : 0);

  std::vector<LegResult> legs;
  for (std::size_t sites : site_counts) {
    for (bool lazy : {false, true}) {
      legs.push_back(run_leg(sites, nodes_per_site, lazy, index_registry,
                             file_registry, reference, access, e,
                             reference_tree));
    }
  }

  std::vector<int> w = {6, 6, 14, 14, 12, 12, 11, 11};
  bench::print_row({"sites", "mode", "wan/site(max)", "content/site",
                    "registry", "lan", "deploys/s", "p99 ready"},
                   w);
  bench::print_rule(w);
  for (const LegResult& leg : legs) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.2f", leg.deploys_per_s);
    bench::print_row(
        {std::to_string(leg.sites), leg.lazy ? "lazy" : "eager",
         format_size(max_of(leg.wan_per_site)),
         format_size(max_of(leg.content_wan_per_site)),
         format_size(leg.registry_content_bytes), format_size(leg.lan_bytes),
         rate, format_duration(leg.ready_p99)},
        w);
  }

  // Bars 1 + 2 at 4 and 8 sites, both modes.
  bool wan_ok = true;
  bool registry_ok = true;
  bool identity_ok = true;
  const double kSlack = 1.2;
  for (const LegResult& leg : legs) {
    if (!leg.identity_ok) identity_ok = false;
    if (leg.sites < 4) continue;
    double per_site = static_cast<double>(max_of(leg.content_wan_per_site));
    if (per_site > kSlack * static_cast<double>(one_copy)) {
      std::printf("BAR FAILED: %zu sites %s: max content WAN per site %s > "
                  "1.2x one copy %s\n",
                  leg.sites, leg.lazy ? "lazy" : "eager",
                  format_size(max_of(leg.content_wan_per_site)).c_str(),
                  format_size(one_copy).c_str());
      wan_ok = false;
    }
    if (static_cast<double>(leg.registry_content_bytes) >
        kSlack * static_cast<double>(one_copy)) {
      std::printf("BAR FAILED: %zu sites %s: registry content egress %s > "
                  "1.2x one copy\n",
                  leg.sites, leg.lazy ? "lazy" : "eager",
                  format_size(leg.registry_content_bytes).c_str());
      registry_ok = false;
    }
  }
  std::printf("\nwan per cold site <= 1.2x one copy at 4/8 sites: %s\n",
              wan_ok ? "ok" : "BAR FAILED");
  std::printf("registry egress <= 1.2x one copy at 4/8 sites: %s\n",
              registry_ok ? "ok" : "BAR FAILED");
  std::printf("byte identity to single-registry deploys: %s\n",
              identity_ok ? "ok" : "MISMATCH");

  bool churn_ok =
      churn_probe(index_registry, file_registry, reference, access, e);
  std::printf("churn-mid-storm recovery: %s\n",
              churn_ok ? "ok" : "BAR FAILED");

  Json doc;
  doc["bench"] = "ext_edge";
  doc["scale"] = e.scale;
  doc["seed"] = e.seed;
  doc["nodes_per_site"] = static_cast<std::int64_t>(nodes_per_site);
  doc["one_copy_content_bytes"] = one_copy;
  doc["baseline_site_content_bytes"] = baseline_site_content;
  JsonArray leg_docs;
  for (const LegResult& leg : legs) {
    JsonObject o;
    o["sites"] = static_cast<std::int64_t>(leg.sites);
    o["mode"] = leg.lazy ? "lazy" : "eager";
    o["wan_bytes_per_site"] =
        JsonArray(leg.wan_per_site.begin(), leg.wan_per_site.end());
    o["content_wan_bytes_per_site"] = JsonArray(
        leg.content_wan_per_site.begin(), leg.content_wan_per_site.end());
    o["lan_bytes"] = leg.lan_bytes;
    o["registry_content_bytes"] = leg.registry_content_bytes;
    o["lan_peer_hits"] = leg.lan_hits;
    o["wan_peer_hits"] = leg.wan_hits;
    o["deploys_per_s"] = leg.deploys_per_s;
    o["ready_p99_s"] = leg.ready_p99;
    o["identity_ok"] = leg.identity_ok;
    leg_docs.emplace_back(std::move(o));
  }
  doc["legs"] = std::move(leg_docs);
  doc["wan_ok"] = wan_ok;
  doc["registry_ok"] = registry_ok;
  doc["identity_ok"] = identity_ok;
  doc["churn_ok"] = churn_ok;
  bench::write_json("BENCH_edge.json", doc);

  if (!wan_ok || !registry_ok || !identity_ok || !churn_ok) {
    std::printf("\nFAILED: edge-topology bars not met\n");
    return 1;
  }
  std::printf("\nall edge-topology bars met\n");
  return 0;
}
