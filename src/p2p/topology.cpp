#include "p2p/topology.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace gear::p2p {

void PeerTracker::announce_all(const std::string& node_id,
                               const std::vector<Fingerprint>& fps) {
  std::lock_guard guard(mutex_);
  for (const Fingerprint& fp : fps) holders_[fp].insert(node_id);
}

void PeerTracker::retract_node(const std::string& node_id) {
  std::lock_guard guard(mutex_);
  for (auto it = holders_.begin(); it != holders_.end();) {
    it->second.erase(node_id);
    if (it->second.empty()) {
      it = holders_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::vector<std::string>> PeerTracker::locate_ranked_many(
    const std::vector<Fingerprint>& fps, const std::string& requester) const {
  std::lock_guard guard(mutex_);
  std::vector<std::vector<std::string>> out(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    auto it = holders_.find(fps[i]);
    if (it == holders_.end()) continue;
    for (const std::string& node : it->second) {
      if (node != requester) out[i].push_back(node);
    }
  }
  return out;
}

std::vector<Fingerprint> PeerTracker::announced() const {
  std::lock_guard guard(mutex_);
  std::vector<Fingerprint> out;
  out.reserve(holders_.size());
  for (const auto& [fp, nodes] : holders_) {
    if (!nodes.empty()) out.push_back(fp);
  }
  return out;
}

std::size_t PeerTracker::announced_objects() const {
  std::lock_guard guard(mutex_);
  return holders_.size();
}

Topology::Topology(docker::DockerRegistry& index_registry,
                   FileRegistryApi& file_registry, const Params& params)
    : params_(params),
      file_registry_(file_registry),
      nodes_per_site_(params.nodes_per_site) {
  if (params.sites == 0 || params.nodes_per_site == 0) {
    throw_error(ErrorCode::kInvalidArgument,
                "topology needs at least one site and one node");
  }
  for (std::size_t s = 0; s < params.sites; ++s) {
    auto site = std::make_unique<Site>();
    for (std::size_t n = 0; n < params.nodes_per_site; ++n) {
      auto node = std::make_unique<Node>();
      node->id = "s" + std::to_string(s) + ".n" + std::to_string(n);
      node->site = s;
      node->clock = std::make_unique<sim::SimClock>();
      node->wan = std::make_unique<sim::NetworkLink>(
          sim::scaled_link(*node->clock, params.wan_link, params.byte_scale));
      node->lan = std::make_unique<sim::NetworkLink>(
          sim::scaled_link(*node->clock, params.lan_link, params.byte_scale));
      node->disk = std::make_unique<sim::DiskModel>(
          sim::DiskModel::scaled_ssd(*node->clock, params.byte_scale));
      node->client = std::make_unique<GearClient>(
          index_registry, file_registry, *node->wan, *node->disk,
          params.runtime);
      node->client->set_prefetch_order(params.prefetch_order);

      // Two-tier cooperative ladder: tier 0 asks the site tracker and reads
      // over the LAN; tier 1 follows gossiped digests to another site over
      // the WAN; the registry (the client's own fall-through) stays last.
      Node* raw = node.get();
      auto tier = [this, raw](bool cross_site) {
        return [this, raw, cross_site](const auto& wanted) {
          return fetch_from_peers(*raw, wanted, cross_site);
        };
      };
      node->client->add_peer_source(tier(/*cross_site=*/false));
      if (params.cross_site_fetch && params.sites > 1) {
        node->client->add_peer_source(tier(/*cross_site=*/true));
      }
      site->nodes.push_back(std::move(node));
    }
    sites_.push_back(std::move(site));
  }
}

Topology::Node& Topology::checked(std::size_t site, std::size_t node) {
  if (site >= sites_.size() || node >= sites_[site]->nodes.size()) {
    throw_error(ErrorCode::kInvalidArgument, "no such node");
  }
  return *sites_[site]->nodes[node];
}

Topology::Node* Topology::find_serving(std::size_t site,
                                       const std::string& node_id) {
  for (const auto& node : sites_[site]->nodes) {
    if (node->id == node_id) {
      return node->down.load(std::memory_order_acquire) ? nullptr : node.get();
    }
  }
  return nullptr;
}

StatusOr<Bytes> Topology::read_peer_cache(const Node& peer,
                                          const Fingerprint& fp) {
  StatusOr<Bytes> content = peer.client->store().cache().get(fp);
  if (!content.ok()) {
    return {content.code(), "peer " + peer.id + " serving " + fp.hex() + ": " +
                                content.message()};
  }
  return content;
}

void Topology::announce_node(Node& n) {
  if (n.down.load(std::memory_order_acquire)) return;
  sites_[n.site]->tracker.announce_all(
      n.id, n.client->store().cache().fingerprints());
  if (params_.eager_gossip && params_.cross_site_fetch && sites_.size() > 1) {
    propagate_site_digest(n.site);
  }
}

void Topology::propagate_site_digest(std::size_t from) {
  std::vector<Fingerprint> digest = sites_[from]->tracker.announced();
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    if (s == from) continue;
    Site& site = *sites_[s];
    std::lock_guard guard(site.adverts_mutex);
    for (auto it = site.remote_adverts.begin();
         it != site.remote_adverts.end();) {
      it->second.erase(from);
      if (it->second.empty()) {
        it = site.remote_adverts.erase(it);
      } else {
        ++it;
      }
    }
    for (const Fingerprint& fp : digest) {
      site.remote_adverts[fp].insert(from);
    }
  }
}

void Topology::gossip() {
  for (std::size_t s = 0; s < sites_.size(); ++s) propagate_site_digest(s);
}

std::vector<std::size_t> Topology::advertised_sites(
    std::size_t site, const Fingerprint& fp) const {
  const Site& s = *sites_[site];
  std::lock_guard guard(s.adverts_mutex);
  auto it = s.remote_adverts.find(fp);
  if (it == s.remote_adverts.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::uint64_t Topology::wan_wire_cost(const Fingerprint& fp,
                                      std::uint64_t raw_size) const {
  // Transport-backed registries would pay a metadata round trip per query;
  // charge raw bytes there rather than perturb their link accounting.
  if (file_registry_.transport_accounted()) return raw_size;
  StatusOr<std::uint64_t> stored = file_registry_.stored_size(fp);
  return stored.ok() ? *stored : raw_size;
}

std::vector<std::optional<Bytes>> Topology::fetch_from_peers(
    Node& self,
    const std::vector<std::pair<Fingerprint, std::uint64_t>>& wanted,
    bool cross_site) {
  // Every slot's ranked (site, holder) candidates, one tracker query per
  // site: the node's own site for tier 0, each advertised site in digest
  // (site) order for tier 1.
  using Candidate = std::pair<std::size_t, std::string>;
  std::vector<std::vector<Candidate>> candidates(wanted.size());
  std::map<std::size_t, std::vector<std::size_t>> slots_by_site;
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (!cross_site) {
      slots_by_site[self.site].push_back(i);
      continue;
    }
    for (std::size_t remote : advertised_sites(self.site, wanted[i].first)) {
      slots_by_site[remote].push_back(i);
    }
  }
  for (const auto& [site, slots] : slots_by_site) {
    std::vector<Fingerprint> fps;
    fps.reserve(slots.size());
    for (std::size_t slot : slots) fps.push_back(wanted[slot].first);
    std::vector<std::vector<std::string>> ranked =
        sites_[site]->tracker.locate_ranked_many(fps, self.id);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      for (std::string& holder : ranked[k]) {
        candidates[slots[k]].emplace_back(site, std::move(holder));
      }
    }
  }

  // Attempt rounds: each unserved slot targets its next candidate, one
  // pipelined burst per (site, holder) per round. Round 1 is the whole
  // fan-out in the steady state; later rounds only fire when a holder left
  // mid-storm or advertised stale content.
  sim::NetworkLink& link = cross_site ? *self.wan : *self.lan;
  std::atomic<std::uint64_t>& tier_bytes =
      cross_site ? wan_peer_bytes_ : lan_bytes_;
  std::atomic<std::uint64_t>& tier_bursts =
      cross_site ? wan_peer_bursts_ : lan_bursts_;
  std::vector<std::optional<Bytes>> out(wanted.size());
  std::vector<std::size_t> attempt(wanted.size(), 0);
  for (;;) {
    std::map<Candidate, std::vector<std::size_t>> bursts;
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      if (out[i].has_value() || attempt[i] >= candidates[i].size()) continue;
      bursts[candidates[i][attempt[i]]].push_back(i);
    }
    if (bursts.empty()) break;
    for (const auto& [holder, slots] : bursts) {
      Node* peer = find_serving(holder.first, holder.second);
      std::uint64_t burst_bytes = 0;
      std::uint64_t served = 0;
      for (std::size_t slot : slots) {
        const Fingerprint& fp = wanted[slot].first;
        if (peer != nullptr) {
          StatusOr<Bytes> content = read_peer_cache(*peer, fp);
          if (content.ok()) {
            burst_bytes += cross_site ? wan_wire_cost(fp, content->size())
                                      : content->size();
            ++served;
            out[slot] = unwrap(std::move(content), "peer burst of " + fp.hex());
            continue;
          }
          if (content.code() != ErrorCode::kNotFound) {
            throw_error(content.code(), content.message());
          }
        }
        ++attempt[slot];  // holder down or stale: try the next one
      }
      if (served > 0) {
        link.pipelined(burst_bytes, served);
        tier_bytes.fetch_add(burst_bytes, std::memory_order_relaxed);
        tier_bursts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return out;
}

docker::DeployStats Topology::deploy(std::size_t site, std::size_t node,
                                     const std::string& reference,
                                     const workload::AccessSet& access,
                                     std::string* container_id_out,
                                     DeployMode mode) {
  Node& n = checked(site, node);
  docker::DeployStats stats =
      n.client->deploy(reference, access, container_id_out, mode);
  announce_node(n);
  return stats;
}

std::pair<std::size_t, std::uint64_t> Topology::backfill(
    std::size_t site, std::size_t node, const std::string& reference) {
  Node& n = checked(site, node);
  std::pair<std::size_t, std::uint64_t> moved =
      n.client->backfill_remaining(reference);
  announce_node(n);
  return moved;
}

StatusOr<Bytes> Topology::read_range(std::size_t site, std::size_t node,
                                     const std::string& container_id,
                                     std::string_view path,
                                     std::uint64_t offset,
                                     std::uint64_t length) {
  Node& n = checked(site, node);
  StatusOr<Bytes> out =
      n.client->read_range(container_id, path, offset, length);
  if (out.ok()) {
    // Chunk objects land in the shared cache like whole files; advertise
    // them so later readers anywhere batch-pull from this node.
    announce_node(n);
  }
  return out;
}

std::pair<std::size_t, std::uint64_t> Topology::prefetch(
    std::size_t site, std::size_t node, const std::string& reference) {
  Node& n = checked(site, node);
  std::pair<std::size_t, std::uint64_t> moved =
      n.client->prefetch_remaining(reference);
  announce_node(n);
  return moved;
}

void Topology::retire_node(std::size_t site, std::size_t node) {
  Node& n = checked(site, node);
  n.down.store(true, std::memory_order_release);
  sites_[site]->tracker.retract_node(n.id);
  if (params_.eager_gossip && params_.cross_site_fetch && sites_.size() > 1) {
    propagate_site_digest(site);
  }
}

void Topology::crash_node(std::size_t site, std::size_t node) {
  // No retraction: the tracker and every gossiped digest keep advertising
  // this node until fetchers miss and move on.
  checked(site, node).down.store(true, std::memory_order_release);
}

void Topology::rejoin_node(std::size_t site, std::size_t node) {
  Node& n = checked(site, node);
  n.down.store(false, std::memory_order_release);
  announce_node(n);
}

std::uint64_t Topology::wan_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sites_.size(); ++s) total += wan_bytes(s);
  return total;
}

std::uint64_t Topology::wan_bytes(std::size_t site) const {
  if (site >= sites_.size()) {
    throw_error(ErrorCode::kInvalidArgument, "no such site");
  }
  std::uint64_t total = 0;
  for (const auto& node : sites_[site]->nodes) {
    total += node->wan->stats().bytes_transferred;
  }
  return total;
}

std::uint64_t Topology::lan_bytes(std::size_t site) const {
  if (site >= sites_.size()) {
    throw_error(ErrorCode::kInvalidArgument, "no such site");
  }
  std::uint64_t total = 0;
  for (const auto& node : sites_[site]->nodes) {
    total += node->lan->stats().bytes_transferred;
  }
  return total;
}

std::uint64_t Topology::peer_hits() const {
  std::uint64_t total = 0;
  for (const auto& site : sites_) {
    for (const auto& node : site->nodes) total += node->client->peer_hits();
  }
  return total;
}

std::uint64_t Topology::lan_peer_hits() const {
  std::uint64_t total = 0;
  for (const auto& site : sites_) {
    for (const auto& node : site->nodes) {
      std::vector<std::uint64_t> hits = node->client->peer_tier_hits();
      // Tier 0 is the site-local source: it counts every LAN hit.
      total += hits.empty() ? 0 : hits[0];
    }
  }
  return total;
}

std::uint64_t Topology::wan_peer_hits() const {
  std::uint64_t total = 0;
  for (const auto& site : sites_) {
    for (const auto& node : site->nodes) {
      std::vector<std::uint64_t> hits = node->client->peer_tier_hits();
      total += hits.size() > 1 ? hits[1] : 0;
    }
  }
  return total;
}

GearClient& Topology::node(std::size_t site, std::size_t node) {
  return *checked(site, node).client;
}

sim::SimClock& Topology::node_clock(std::size_t site, std::size_t node) {
  return *checked(site, node).clock;
}

}  // namespace gear::p2p
