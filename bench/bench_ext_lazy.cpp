// Extension bench: lazy deployment — start-before-warm containers.
//
// The paper's motivation (§I) is that downloading dominates deployment.
// Gear's index-only pull already shrinks the pull phase; DeployMode::kLazy
// goes further and declares the container READY the moment the index is
// local: every file read faults its content in through the batched demand
// path, and backfill_remaining() warms the rest of the image strictly
// behind those faults (gear/prefetch DemandLane).
//
// Method: replay the same deterministic upgrade trace over the fig10 corpus
// (Tomcat's version chain) under three strategies on identical 100 Mbps
// nodes:
//   full  — deploy + prefetch the WHOLE image before serving (a classic
//           full pull: nothing runs until everything is local);
//   warm  — deploy, bulk-warm the access set, then serve (Gear's eager
//           deploy split into its phases);
//   lazy  — deploy returns at the index pull; serving demand-faults its
//           reads; the backfill drains the remainder afterwards.
// Every leg serves the same access sets through a viewer, so per-read
// latencies are measured identically. Reported: time-to-ready,
// time-to-first-useful-byte, p50/p99 read(-fault) latency, wire bytes.
//
// Exit-code bars (also recorded in BENCH_lazy.json):
//   1. first-pull time-to-ready: full >= 5x lazy;
//   2. byte identity: after backfill, every image materialized by the lazy
//      node is byte-identical to the full-pull node's copy;
//   3. wire identity: the lazy node's total wire bytes equal the full
//      node's (demand + backfill never fetch a file twice);
//   4. preemption: a demand fault issued mid-backfill makes the drain
//      yield (backfill_yields >= 1) and no backfill batch enters the
//      registry between the fault's enter and exit.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench_common.hpp"
#include "workload/trace.hpp"

using namespace gear;

namespace {

/// One simulated node: clock, WAN link, disk, client.
struct Universe {
  sim::SimClock clock;
  sim::NetworkLink link;
  sim::DiskModel disk;
  GearClient client;

  Universe(docker::DockerRegistry& index_registry,
           FileRegistryApi& file_registry, double scale)
      : link(sim::scaled_link(clock, 100.0, scale)),
        disk(sim::DiskModel::scaled_hdd(clock, scale)),
        client(index_registry, file_registry, link, disk) {}
};

enum class Leg { kFull, kWarm, kLazy };

struct LegResult {
  std::vector<double> ready_all;   // per deployment
  std::vector<double> ready_cold;  // first deployment of each version
  std::vector<double> ttfb;        // deploy start -> first serve read done
  std::vector<double> read_lat;    // every serve read
  std::vector<double> fault_lat;   // serve reads that faulted (lazy)
  std::uint64_t wire_bytes = 0;
  double makespan = 0;
  std::uint64_t demand_fetches = 0;
  std::uint64_t backfill_yields = 0;
};

LegResult run_leg(Leg leg, Universe& u,
                  const std::vector<workload::SeriesSpec>& specs,
                  const std::vector<workload::TraceEvent>& events,
                  const workload::TraceSpec& tspec,
                  workload::CorpusGenerator& gen) {
  LegResult out;
  GearClient& client = u.client;
  std::set<std::string> seen;  // versions this node already deployed once
  struct Pending {
    std::string reference;
    workload::AccessSet access;
    double t_start = 0;
  };
  std::map<std::string, Pending> by_container;
  const workload::AccessSet empty_access;

  workload::TraceResult r = workload::replay_trace(
      u.clock, events, tspec,
      [&](std::size_t series, int version) {
        std::string ref =
            specs[series].name + ":v" + std::to_string(version);
        const bool cold = seen.insert(ref).second;
        double t0 = u.clock.now();
        std::string container;
        docker::DeployStats stats;
        switch (leg) {
          case Leg::kFull: {
            stats = client.deploy(ref, empty_access, &container);
            auto [f, b] = client.prefetch_remaining(ref);
            (void)f;
            out.wire_bytes += b;
            break;
          }
          case Leg::kWarm: {
            stats = client.deploy(ref, empty_access, &container);
            auto [f, b] =
                client.warm_access(ref, gen.access_set(specs[series], version));
            (void)f;
            out.wire_bytes += b;
            break;
          }
          case Leg::kLazy:
            stats = client.deploy(ref, empty_access, &container,
                                  DeployMode::kLazy);
            break;
        }
        out.wire_bytes +=
            stats.pull.bytes_downloaded + stats.run_bytes_downloaded;
        double ready = u.clock.now() - t0;
        out.ready_all.push_back(ready);
        if (cold) out.ready_cold.push_back(ready);
        by_container[container] =
            Pending{ref, gen.access_set(specs[series], version), t0};
        return container;
      },
      [&](const std::string& container) {
        client.destroy(container);
        by_container.erase(container);
      },
      [&](const std::string& container) -> std::pair<std::size_t, std::uint64_t> {
        if (leg != Leg::kLazy) return {0, 0};
        // The background half of the lazy deployment: everything the
        // workload did not touch drains in priority order.
        auto [f, b] = client.backfill_remaining(by_container[container].reference);
        out.wire_bytes += b;
        return {f, b};
      },
      [&](const std::string& container) {
        // The workload itself: the same reads in every leg. Under lazy the
        // container is still cold here and each miss demand-faults.
        const Pending& p = by_container[container];
        GearFileViewer viewer = client.open_viewer(container);
        bool first = true;
        for (const workload::FileAccess& fa : p.access.files) {
          std::uint64_t faults_before = viewer.read_stats().faults;
          sim::SimTimer timer(u.clock);
          StatusOr<Bytes> content = viewer.read_file(fa.path);
          if (!content.ok() || content->size() != fa.size) {
            throw_error(ErrorCode::kInternal, "serve read failed: " + fa.path);
          }
          u.disk.read(content->size());
          double lat = timer.elapsed();
          out.read_lat.push_back(lat);
          if (viewer.read_stats().faults != faults_before) {
            out.fault_lat.push_back(lat);
          }
          if (first) {
            out.ttfb.push_back(u.clock.now() - p.t_start);
            first = false;
          }
        }
      });

  out.wire_bytes += client.viewer_bytes_downloaded();
  out.makespan = r.makespan_seconds;
  out.demand_fetches = client.demand_fetches();
  out.backfill_yields = client.backfill_yields();
  return out;
}

/// path -> content of every regular file in an image's (fully
/// materialized) index; fails if any stub is left.
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

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

// ---------------------------------------------------------------- probe
// Registry wrapper that (a) gates the demand download of one designated
// fingerprint until released and (b) stamps a global sequence number on
// every demand enter/exit and every backfill batch entry, so the
// demand-preempts-backfill ordering is asserted on real thread interleaving
// instead of wall-clock luck.
class GatedRegistry final : public FileRegistryApi {
 public:
  explicit GatedRegistry(FileRegistryApi& inner) : inner_(inner) {}

  void arm(const Fingerprint& fp) { probe_ = fp; }
  void release_demand() {
    {
      std::lock_guard<std::mutex> lock(m_);
      released_ = true;
    }
    cv_.notify_all();
  }
  void wait_demand_started() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return demand_enter_seq_ >= 0; });
  }
  long demand_enter_seq() const { return demand_enter_seq_.load(); }
  long demand_exit_seq() const { return demand_exit_seq_.load(); }
  long first_batch_seq() const { return first_batch_seq_.load(); }

  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override {
    return inner_.query_many(fps);
  }
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override {
    return inner_.upload_precompressed(fp, std::move(compressed));
  }
  std::size_t upload_precompressed_batch(
      std::vector<std::pair<Fingerprint, Bytes>> items) override {
    return inner_.upload_precompressed_batch(std::move(items));
  }
  bool upload_chunked(const Fingerprint& fp, BytesView content,
                      const ChunkPolicy& policy,
                      const FingerprintHasher& hasher) override {
    return inner_.upload_chunked(fp, content, policy, hasher);
  }
  // The client's demand-fault path fetches through a singleton
  // download_batch; the backfill drain batches several files. The probe
  // fingerprint is skipped by the backfill (the demand flight owns it), so
  // a singleton batch of exactly the probe IS the demand fault.
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, util::ThreadPool* pool,
      std::uint64_t* wire_bytes_out) const override {
    auto* self = const_cast<GatedRegistry*>(this);
    const bool is_probe_fault = fps.size() == 1 && fps[0] == probe_;
    if (is_probe_fault) {
      std::unique_lock<std::mutex> lock(self->m_);
      self->demand_enter_seq_ = self->next_seq();
      self->cv_.notify_all();
      self->cv_.wait(lock, [&] { return self->released_; });
    } else {
      long seq = self->next_seq();
      long expected = -1;
      self->first_batch_seq_.compare_exchange_strong(expected, seq);
    }
    auto got = inner_.download_batch(fps, pool, wire_bytes_out);
    if (is_probe_fault) self->demand_exit_seq_ = self->next_seq();
    return got;
  }
  StatusOr<Bytes> download_range(const Fingerprint& fp, std::uint64_t offset,
                                 std::uint64_t length,
                                 std::uint64_t* wire_bytes_out) const override {
    return inner_.download_range(fp, offset, length, wire_bytes_out);
  }
  StatusOr<std::vector<Bytes>> download_chunks(
      const Fingerprint& fp, const ChunkManifest& manifest,
      const std::vector<std::uint32_t>& indices,
      std::uint64_t* wire_bytes_out) const override {
    return inner_.download_chunks(fp, manifest, indices, wire_bytes_out);
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    return inner_.stored_size(fp);
  }
  bool is_chunked(const Fingerprint& fp) const override {
    return inner_.is_chunked(fp);
  }
  StatusOr<ChunkManifest> chunk_manifest(const Fingerprint& fp) const override {
    return inner_.chunk_manifest(fp);
  }
  bool transport_accounted() const override {
    return inner_.transport_accounted();
  }

 private:
  long next_seq() { return seq_.fetch_add(1); }

  FileRegistryApi& inner_;
  Fingerprint probe_;
  mutable std::mutex m_;
  mutable std::condition_variable cv_;
  bool released_ = false;
  std::atomic<long> seq_{0};
  std::atomic<long> demand_enter_seq_{-1};
  std::atomic<long> demand_exit_seq_{-1};
  std::atomic<long> first_batch_seq_{-1};
};

/// Live interleaving probe: a demand fault issued while the backfill drain
/// runs must make the drain yield, and no backfill batch may enter the
/// registry while the fault is in flight.
bool preemption_probe(docker::DockerRegistry& index_registry,
                      GearRegistry& file_registry,
                      const workload::SeriesSpec& spec, double scale) {
  GatedRegistry gated(file_registry);
  Universe u(index_registry, gated, scale);
  u.client.set_concurrency({1, 0});  // serial drain: yield point per batch
  u.client.set_download_batch_files(4);

  const std::string ref = spec.name + ":v0";
  std::string container;
  u.client.deploy(ref, {}, &container, DeployMode::kLazy);

  // Probe file: the first stub in the index.
  std::string probe_path;
  Fingerprint probe_fp;
  u.client.store().index_tree(ref).walk(
      [&](const std::string& path, const vfs::FileNode& node) {
        if (probe_path.empty() && node.is_fingerprint()) {
          probe_path = path;
          probe_fp = node.fingerprint();
        }
      });
  if (probe_path.empty()) return false;
  gated.arm(probe_fp);

  GearFileViewer viewer = u.client.open_viewer(container);
  std::thread demand([&] {
    StatusOr<Bytes> content = viewer.read_file(probe_path);
    if (!content.ok()) std::abort();
  });
  gated.wait_demand_started();  // the fault holds the demand lane now

  std::thread backfill([&] { u.client.backfill_remaining(ref); });

  // The drain must park in yield_to_demand before its first wire batch.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (u.client.backfill_yields() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool yielded = u.client.backfill_yields() >= 1;
  bool no_batch_while_blocked = gated.first_batch_seq() < 0;
  gated.release_demand();
  demand.join();
  backfill.join();

  bool ordered = gated.demand_enter_seq() >= 0 &&
                 gated.demand_exit_seq() > gated.demand_enter_seq() &&
                 gated.first_batch_seq() > gated.demand_exit_seq();
  bool demand_counted = u.client.demand_fetches() >= 1;
  std::printf("preemption probe: yields=%llu, demand seq [%ld,%ld], first "
              "backfill batch seq %ld — %s\n",
              static_cast<unsigned long long>(u.client.backfill_yields()),
              gated.demand_enter_seq(), gated.demand_exit_seq(),
              gated.first_batch_seq(),
              (yielded && no_batch_while_blocked && ordered && demand_counted)
                  ? "demand preempts backfill"
                  : "ORDERING VIOLATION");
  return yielded && no_batch_while_blocked && ordered && demand_counted;
}

}  // namespace

int main() {
  bench::Env e = bench::env();
  bench::print_title("Extension: lazy deploy (start-before-warm)", e);

  // The fig10 upgrade corpus: Tomcat's version chain.
  workload::SeriesSpec tomcat;
  for (const auto& s : workload::table1_corpus()) {
    if (s.name == "tomcat") tomcat = s;
  }
  if (e.fast) tomcat.versions = 4;
  std::vector<workload::SeriesSpec> specs = {tomcat};

  workload::TraceSpec tspec;
  tspec.duration_seconds = e.fast ? 600 : 1800;
  tspec.mean_interarrival_seconds = 20.0;
  tspec.release_cadence_seconds = e.fast ? 150 : 90;
  tspec.max_live_containers = 8;
  tspec.seed = e.seed;
  std::vector<workload::TraceEvent> events =
      workload::generate_trace(specs, tspec);

  workload::CorpusGenerator gen(e.seed, e.scale);
  docker::DockerRegistry index_registry;
  GearRegistry file_registry;
  GearConverter converter;
  std::set<int> pushed;
  for (const auto& ev : events) {
    if (!pushed.insert(ev.version).second) continue;
    docker::Image image = gen.generate_image(tomcat, ev.version);
    push_gear_image(converter.convert(image).image, index_registry,
                    file_registry);
  }
  std::printf("trace: %zu deployments over %zu tomcat versions\n\n",
              events.size(), pushed.size());

  Universe full_u(index_registry, file_registry, e.scale);
  Universe warm_u(index_registry, file_registry, e.scale);
  Universe lazy_u(index_registry, file_registry, e.scale);
  LegResult full = run_leg(Leg::kFull, full_u, specs, events, tspec, gen);
  LegResult warm = run_leg(Leg::kWarm, warm_u, specs, events, tspec, gen);
  LegResult lazy = run_leg(Leg::kLazy, lazy_u, specs, events, tspec, gen);

  std::vector<int> w = {8, 13, 13, 13, 12, 12, 14};
  bench::print_row({"leg", "ready(cold)", "ready(mean)", "ttfb(mean)",
                    "read p50", "read p99", "wire bytes"},
                   w);
  bench::print_rule(w);
  auto row = [&](const char* name, const LegResult& r) {
    bench::print_row(
        {name, format_duration(mean(r.ready_cold)),
         format_duration(mean(r.ready_all)), format_duration(mean(r.ttfb)),
         format_duration(bench::percentile(r.read_lat, 50)),
         format_duration(bench::percentile(r.read_lat, 99)),
         format_size(r.wire_bytes)},
        w);
  };
  row("full", full);
  row("warm", warm);
  row("lazy", lazy);
  std::printf("\nlazy fault latency: p50 %s, p99 %s over %zu faults "
              "(%zu reads total)\n",
              format_duration(bench::percentile(lazy.fault_lat, 50)).c_str(),
              format_duration(bench::percentile(lazy.fault_lat, 99)).c_str(),
              lazy.fault_lat.size(), lazy.read_lat.size());

  // Bar 1: readiness on a true full pull — the trace's first deployment
  // lands on a pristine node in every leg, so full[0] is a whole image over
  // the wire while lazy[0] is the index alone. (Later "cold" versions reuse
  // the shared cache in the full leg — upgrade deltas, reported above as the
  // cold mean — so they are not full pulls.)
  double ratio = (!full.ready_all.empty() && !lazy.ready_all.empty() &&
                  lazy.ready_all.front() > 0)
                     ? full.ready_all.front() / lazy.ready_all.front()
                     : 0;
  double cold_mean_ratio = mean(lazy.ready_cold) > 0
                               ? mean(full.ready_cold) / mean(lazy.ready_cold)
                               : 0;
  bool ready_ok = ratio >= 5.0;
  std::printf("first-pull time-to-ready: full %.3fs vs lazy %.3fs — %.1fx "
              "(%s); cold-version mean %.1fx\n",
              full.ready_all.empty() ? 0 : full.ready_all.front(),
              lazy.ready_all.empty() ? 0 : lazy.ready_all.front(), ratio,
              ready_ok ? "ok, >= 5x" : "BAR FAILED, < 5x", cold_mean_ratio);

  // Bars 2+3: after backfill the lazy node holds byte-identical images and
  // moved exactly the same wire bytes as the full-pull node.
  bool identity_ok = true;
  for (int v : pushed) {
    std::string ref = "tomcat:v" + std::to_string(v);
    bool full_complete = true;
    bool lazy_complete = true;
    auto a = materialized_tree(full_u.client, ref, &full_complete);
    auto b = materialized_tree(lazy_u.client, ref, &lazy_complete);
    if (!full_complete || !lazy_complete || a != b) identity_ok = false;
  }
  bool wire_ok = full.wire_bytes == lazy.wire_bytes;
  std::printf("byte identity across %zu images: %s\n", pushed.size(),
              identity_ok ? "ok" : "MISMATCH");
  std::printf("wire identity: full %llu vs lazy %llu bytes — %s\n",
              static_cast<unsigned long long>(full.wire_bytes),
              static_cast<unsigned long long>(lazy.wire_bytes),
              wire_ok ? "ok (no file moved twice)" : "MISMATCH");

  // Bar 4: live preemption ordering.
  bool preempt_ok =
      preemption_probe(index_registry, file_registry, tomcat, e.scale);

  Json doc;
  doc["bench"] = "ext_lazy";
  doc["scale"] = e.scale;
  doc["seed"] = e.seed;
  doc["deployments"] = static_cast<std::int64_t>(events.size());
  doc["versions"] = static_cast<std::int64_t>(pushed.size());
  JsonArray legs;
  auto leg_json = [&](const char* name, const LegResult& r) {
    JsonObject o;
    o["leg"] = name;
    o["ready_cold_mean_s"] = mean(r.ready_cold);
    o["ready_mean_s"] = mean(r.ready_all);
    o["ttfb_mean_s"] = mean(r.ttfb);
    o["read_p50_s"] = bench::percentile(r.read_lat, 50);
    o["read_p99_s"] = bench::percentile(r.read_lat, 99);
    o["fault_p50_s"] = bench::percentile(r.fault_lat, 50);
    o["fault_p99_s"] = bench::percentile(r.fault_lat, 99);
    o["faults"] = static_cast<std::int64_t>(r.fault_lat.size());
    o["wire_bytes"] = r.wire_bytes;
    o["makespan_s"] = r.makespan;
    o["demand_fetches"] = r.demand_fetches;
    o["backfill_yields"] = r.backfill_yields;
    legs.push_back(Json(std::move(o)));
  };
  leg_json("full", full);
  leg_json("warm", warm);
  leg_json("lazy", lazy);
  doc["legs"] = std::move(legs);
  doc["ready_ratio_full_over_lazy"] = ratio;
  doc["ready_ratio_cold_mean"] = cold_mean_ratio;
  doc["ready_ok"] = ready_ok;
  doc["identity_ok"] = identity_ok;
  doc["wire_ok"] = wire_ok;
  doc["preempt_ok"] = preempt_ok;
  bench::write_json("BENCH_lazy.json", doc);

  if (!ready_ok || !identity_ok || !wire_ok || !preempt_ok) {
    std::printf("\nFAILED: lazy-deploy bars not met\n");
    return 1;
  }
  std::printf("\nall lazy-deploy bars met\n");
  return 0;
}
