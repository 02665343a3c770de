// Cooperative (P2P) Gear-file distribution over a multi-site edge topology.
//
// The paper's related work (§VI-B) notes that cooperative caches and P2P
// distribution — CoMICon, Wharf, Dragonfly, FID — are orthogonal to Gear
// and "also help speed up the distribution of Gear files". EdgePier
// (PAPERS.md) distributes container images peer-to-peer inside and across
// edge sites, collapsing WAN egress to roughly one copy per site. This
// module composes both with the file/chunk-granular objects Gear trades:
//
//   * a Topology is N sites, each with its own fast LAN, its own
//     PeerTracker, and a shared slow WAN to the registry and other sites
//     (one site is the flat cluster: N nodes cold-starting the same image
//     pull ~1/N of the registry egress each);
//   * peer location is two-tier — site-local adverts are always preferred,
//     cross-site (WAN) peers are used only when no local peer holds the
//     object, and the registry is the last resort;
//   * site trackers gossip advert digests, so a node learns which *sites*
//     hold an object without a global tracker;
//   * every miss list, a demand fault's list of one included, costs one
//     pipelined burst per holding peer, LAN or WAN;
//   * churn is first-class: nodes leave (tracker retraction), crash
//     (stale adverts left behind — fetchers degrade to the next holder),
//     and rejoin (full re-announce).
//
// Every node owns its own SimClock, so concurrent deploy storms on distinct
// nodes are thread-safe: trackers and shared caches are internally locked,
// transfer counters are atomics, and link charging stays on the calling
// node's own links.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "docker/registry.hpp"
#include "gear/client.hpp"
#include "gear/registry.hpp"
#include "sim/clock.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"

namespace gear::p2p {

/// Who has which fingerprint. A plain in-memory tracker, as CoMICon's
/// master or Dragonfly's supernode would keep. Internally locked: nodes on
/// different threads may announce and locate concurrently.
class PeerTracker {
 public:
  void announce_all(const std::string& node_id,
                    const std::vector<Fingerprint>& fps);

  /// Drops every announcement of a node (node left / crashed).
  void retract_node(const std::string& node_id);

  /// out[i] is every holder of fps[i] in tracker order (excluding
  /// `requester`). One query answers a whole miss list; a fetcher walks
  /// each list, so a holder that left or lost the object degrades to the
  /// next holder instead of failing the pull.
  std::vector<std::vector<std::string>> locate_ranked_many(
      const std::vector<Fingerprint>& fps, const std::string& requester) const;

  /// Digest of every advertised fingerprint — the gossip payload one site's
  /// tracker shares with other sites in a multi-site topology.
  std::vector<Fingerprint> announced() const;

  std::size_t announced_objects() const;

 private:
  mutable std::mutex mutex_;
  std::map<Fingerprint, std::set<std::string>> holders_;
};

class Topology {
 public:
  struct Params {
    std::size_t sites = 2;
    std::size_t nodes_per_site = 3;
    /// Hop to the registry and to peers in other sites (EdgePier's
    /// 5-100 Mbps inter-site links).
    sim::LinkProfile wan_link = sim::wan_profile();
    /// Hop between peers inside one site.
    sim::LinkProfile lan_link = sim::lan_profile();
    double byte_scale = 1.0;  // corpus scale (scales both link speeds)
    docker::RuntimeParams runtime = {};
    /// Cross-site peer tier. Off = sites are P2P islands, every cold site
    /// node pulls from the registry — the no-cross-site baseline the edge
    /// bench compares against.
    bool cross_site_fetch = true;
    /// Push advert digests to the other sites after every announce and
    /// retraction. Off = digests move only on explicit gossip() rounds, so
    /// cross-site adverts can go stale (fetchers fall through).
    bool eager_gossip = true;
    /// Scheduling order every node uses for prefetch_remaining.
    PrefetchOrder prefetch_order = PrefetchOrder::kPath;
  };

  /// `file_registry` is any FileRegistryApi — in-process, remote stub, or a
  /// FleetRegistry; hierarchical P2P composes with registry scale-out.
  Topology(docker::DockerRegistry& index_registry,
           FileRegistryApi& file_registry, const Params& params);

  std::size_t sites() const noexcept { return sites_.size(); }
  std::size_t nodes_per_site() const noexcept { return nodes_per_site_; }
  std::size_t size() const noexcept { return sites_.size() * nodes_per_site_; }

  /// Deploys on one node; peer fetches (LAN tier, then WAN tier, then the
  /// registry) and tracker announcements happen automatically. Safe to call
  /// concurrently on *distinct* nodes.
  docker::DeployStats deploy(std::size_t site, std::size_t node,
                             const std::string& reference,
                             const workload::AccessSet& access,
                             std::string* container_id_out = nullptr,
                             DeployMode mode = DeployMode::kEager);

  /// Backfills a lazily deployed image's remaining files on one node, then
  /// announces the warmed cache.
  std::pair<std::size_t, std::uint64_t> backfill(std::size_t site,
                                                 std::size_t node,
                                                 const std::string& reference);

  /// Range read on one node's container; missing chunks go through the
  /// two-tier peer ladder before the registry.
  StatusOr<Bytes> read_range(std::size_t site, std::size_t node,
                             const std::string& container_id,
                             std::string_view path, std::uint64_t offset,
                             std::uint64_t length);

  /// Prefetches a deployed image's remaining files on one node.
  std::pair<std::size_t, std::uint64_t> prefetch(std::size_t site,
                                                 std::size_t node,
                                                 const std::string& reference);

  /// Graceful leave: the node's adverts are retracted everywhere and it
  /// stops serving peers. Its client keeps working (fetch-only).
  void retire_node(std::size_t site, std::size_t node);

  /// Ungraceful departure mid-deploy: the node stops serving but its
  /// adverts stay, stale, until fetchers miss and degrade to the next
  /// holder (or the registry).
  void crash_node(std::size_t site, std::size_t node);

  /// Rejoin after a leave or crash: resume serving and re-announce the
  /// whole cache to the site tracker (and, via gossip, to other sites).
  void rejoin_node(std::size_t site, std::size_t node);

  /// One full gossip round: every site rebuilds its cross-site advert
  /// digest from every other site's tracker. The repair path when
  /// eager_gossip is off (or after crashes left stale digests).
  void gossip();

  /// Aggregate WAN bytes (registry pulls + cross-site peer pulls).
  std::uint64_t wan_bytes() const;
  /// WAN bytes attributable to one site's nodes.
  std::uint64_t wan_bytes(std::size_t site) const;
  /// Aggregate LAN bytes moved between site-local peers. Atomic: peer
  /// fetch callbacks run on concurrent deploy threads.
  std::uint64_t lan_bytes() const noexcept {
    return lan_bytes_.load(std::memory_order_relaxed);
  }
  /// LAN bytes moved inside one site.
  std::uint64_t lan_bytes(std::size_t site) const;
  /// Pipelined bursts issued by LAN peer fetches (a fault is a burst of
  /// one).
  std::uint64_t lan_bursts() const noexcept {
    return lan_bursts_.load(std::memory_order_relaxed);
  }
  /// Bytes pulled from cross-site peers (subset of wan_bytes()).
  std::uint64_t wan_peer_bytes() const noexcept {
    return wan_peer_bytes_.load(std::memory_order_relaxed);
  }
  /// Pipelined bursts issued by cross-site peer fetches.
  std::uint64_t wan_peer_bursts() const noexcept {
    return wan_peer_bursts_.load(std::memory_order_relaxed);
  }
  /// Peer-satisfied fetches across the topology (both tiers).
  std::uint64_t peer_hits() const;
  /// Peer hits served by the site-local tier.
  std::uint64_t lan_peer_hits() const;
  /// Peer hits served by the cross-site tier.
  std::uint64_t wan_peer_hits() const;

  GearClient& node(std::size_t site, std::size_t node);
  /// The node's private clock (per-node: concurrent storms stay data-race
  /// free, and each node's elapsed time reads like a parallel wave).
  sim::SimClock& node_clock(std::size_t site, std::size_t node);

 private:
  struct Node {
    std::string id;
    std::size_t site = 0;
    std::unique_ptr<sim::SimClock> clock;
    std::unique_ptr<sim::NetworkLink> wan;
    std::unique_ptr<sim::NetworkLink> lan;
    std::unique_ptr<sim::DiskModel> disk;
    std::unique_ptr<GearClient> client;
    /// Down nodes (left or crashed) serve nobody; flipped from churn
    /// threads while fetchers read it.
    std::atomic<bool> down{false};
  };

  struct Site {
    PeerTracker tracker;
    std::vector<std::unique_ptr<Node>> nodes;
    /// Which *sites* advertise a fingerprint, as of the last gossip.
    /// Guarded: gossip writes race fetch-path reads under churn.
    mutable std::mutex adverts_mutex;
    std::map<Fingerprint, std::set<std::size_t>> remote_adverts;
  };

  Node& checked(std::size_t site, std::size_t node);
  /// Bytes a cross-site transfer of `fp` puts on the WAN. Peers recompress
  /// for the slow hop exactly like the registry stores it, so the charge is
  /// the registry's stored (compressed) size when known; LAN transfers stay
  /// uncompressed (the links are fast, the historical accounting keeps).
  std::uint64_t wan_wire_cost(const Fingerprint& fp,
                              std::uint64_t raw_size) const;
  /// Serving (non-down) node of `site` with this tracker id, or nullptr.
  Node* find_serving(std::size_t site, const std::string& node_id);
  /// Reads `fp` out of a peer's shared cache, tagging any failure with the
  /// peer's node id + the fingerprint. kNotFound = stale advertisement
  /// (recoverable: the caller degrades to the next holder).
  static StatusOr<Bytes> read_peer_cache(const Node& peer,
                                         const Fingerprint& fp);
  /// Announces a node's cache to its site tracker (+ eager gossip).
  void announce_node(Node& n);
  /// Replaces every site's view of `from`'s adverts with its current
  /// digest.
  void propagate_site_digest(std::size_t from);
  /// Sites advertising `fp` in `site`'s digest, in site order.
  std::vector<std::size_t> advertised_sites(std::size_t site,
                                            const Fingerprint& fp) const;

  /// One tier of `self`'s peer ladder for a miss list. Each slot walks its
  /// ranked (site, holder) candidates: tier 0 (`cross_site` false) asks the
  /// node's own site tracker; tier 1 asks each advertised site's tracker,
  /// sites in digest order. Every attempt round sends one pipelined burst
  /// per (site, holder), and a slot its holder could not serve (down, or
  /// a stale advert) moves on to its next candidate. LAN bursts are charged
  /// at raw size, WAN bursts at wan_wire_cost. out[i] is wanted[i]'s
  /// content or nullopt (no live holder: the next tier / the registry).
  std::vector<std::optional<Bytes>> fetch_from_peers(
      Node& self,
      const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted,
      bool cross_site);

  Params params_;
  FileRegistryApi& file_registry_;
  std::size_t nodes_per_site_ = 0;
  std::vector<std::unique_ptr<Site>> sites_;
  std::atomic<std::uint64_t> lan_bytes_{0};
  std::atomic<std::uint64_t> lan_bursts_{0};
  std::atomic<std::uint64_t> wan_peer_bytes_{0};
  std::atomic<std::uint64_t> wan_peer_bursts_{0};
};

}  // namespace gear::p2p
