// Tests for the worker-pool subsystem and the determinism contract of the
// parallel hot paths: ordering, backpressure, exception propagation, and
// byte-identical results between serial and parallel conversion, push, and
// pipelined prefetch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>

#include "compress/codec.hpp"
#include "docker/image.hpp"
#include "docker/registry.hpp"
#include "gear/client.hpp"
#include "gear/converter.hpp"
#include "gear/registry.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace gear {
namespace {

using util::Concurrency;
using util::ThreadPool;

TEST(ThreadPool, SubmitReturnsFutures) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, WidthOneRunsInlineWithoutThreads) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for_each(3, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, SingleTaskRunsInlineOnWidePool) {
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for_each(1, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
  EXPECT_THROW(pool.parallel_for_each(1,
                                      [](std::size_t) {
                                        throw_error(ErrorCode::kInternal,
                                                    "single task");
                                      }),
               Error);
}

TEST(ThreadPool, ParallelForEachCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_each(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelMapMergesInSubmissionOrder) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 64;
  // Early tasks sleep longest, so completion order is roughly reversed —
  // the merge order must still be the submission order.
  std::vector<int> out = pool.parallel_map<int>(kN, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((kN - i) * 50));
    return static_cast<int>(i) * 3;
  });
  ASSERT_EQ(out.size(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPool, BackpressureBoundsInflightBytes) {
  ThreadPool pool(4);
  // Each task reports 40 bytes against a 100-byte bound: at most two may be
  // admitted at once (a third would make 120).
  std::atomic<int> current{0};
  std::atomic<int> peak{0};
  pool.parallel_for_each(
      64,
      [&](std::size_t) {
        int now = ++current;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        --current;
      },
      /*max_inflight_bytes=*/100,
      [](std::size_t) -> std::uint64_t { return 40; });
  EXPECT_LE(peak.load(), 2);
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadPool, OversizedTaskIsAdmittedAlone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  // Tasks larger than the whole bound must still run (alone), not deadlock.
  pool.parallel_for_each(
      4, [&](std::size_t) { ++done; },
      /*max_inflight_bytes=*/10,
      [](std::size_t) -> std::uint64_t { return 1000; });
  EXPECT_EQ(done.load(), 4);
}

TEST(ThreadPool, ExceptionPropagatesAndRemainingTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for_each(32, [&](std::size_t i) {
      ++ran;
      if (i == 5) throw_error(ErrorCode::kInternal, "task 5 exploded");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInternal);
  }
  EXPECT_EQ(ran.load(), 32);  // no task is dropped on failure
}

// Holds every worker of a width-`n` pool in a task until release() (or a
// two-second timeout, so a pool whose caller only waits still finishes).
class BusyWorkers {
 public:
  BusyWorkers(ThreadPool& pool, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      held_.push_back(pool.submit([this] {
        ++started_;
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::seconds(2), [this] { return released_; });
      }));
    }
    while (started_.load() < n) std::this_thread::yield();
  }
  ~BusyWorkers() { release(); }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    for (std::future<void>& f : held_) {
      if (f.valid()) f.get();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::atomic<std::size_t> started_{0};
  std::vector<std::future<void>> held_;
};

TEST(ThreadPool, CallerClaimsItemsWhileWorkersAreBusy) {
  // The caller claims from the same counter as its helpers: with both
  // workers held, it runs every item itself and returns before they are
  // free. Helpers dequeued afterwards find nothing left to claim.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  BusyWorkers busy(pool, 2);
  std::vector<std::thread::id> ran_on(8);
  pool.parallel_for_each(8, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < ran_on.size(); ++i) {
    EXPECT_EQ(ran_on[i], caller) << i;
  }
  busy.release();
  // The late helpers run and leave; the pool still works afterwards.
  std::atomic<int> hits{0};
  pool.parallel_for_each(64, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 64);
}

TEST(ThreadPool, OneExceptionIsRethrownAfterEveryItemRan) {
  // Items claimed by the caller and by helpers alike finish before the
  // first error is rethrown, bounded or not.
  ThreadPool pool(2);
  for (std::uint64_t bound : {std::uint64_t{0}, std::uint64_t{100}}) {
    std::atomic<int> finished{0};
    try {
      pool.parallel_for_each(
          40,
          [&](std::size_t i) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            if (i == 3) throw_error(ErrorCode::kInternal, "item 3");
            ++finished;
          },
          bound, [](std::size_t) -> std::uint64_t { return 30; });
      ADD_FAILURE() << "expected Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
      EXPECT_EQ(finished.load(), 39) << "bound " << bound;
    }
  }
}

TEST(ThreadPool, ByteBoundHoldsWhenTheCallerClaimsToo) {
  // Sizes vary per item; the sum in flight, across helpers and the caller,
  // never passes the bound unless one oversized item runs alone.
  ThreadPool pool(3);
  constexpr std::uint64_t kBound = 100;
  auto size_of = [](std::size_t i) -> std::uint64_t {
    return i % 10 == 9 ? 150 : 10 + (i * 7) % 50;
  };
  std::mutex mu;
  std::uint64_t inflight = 0;
  std::size_t running = 0;
  bool violated = false;
  pool.parallel_for_each(
      200,
      [&](std::size_t i) {
        {
          std::lock_guard<std::mutex> lock(mu);
          inflight += size_of(i);
          ++running;
          if (inflight > kBound && running > 1) violated = true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        std::lock_guard<std::mutex> lock(mu);
        inflight -= size_of(i);
        --running;
      },
      kBound, size_of);
  EXPECT_FALSE(violated);
  EXPECT_EQ(inflight, 0u);
}

TEST(Concurrency, ResolvesWorkers) {
  EXPECT_EQ(Concurrency::serial().resolved_workers(), 1u);
  EXPECT_EQ((Concurrency{3, 0}).resolved_workers(), 3u);
  EXPECT_GE((Concurrency{0, 0}).resolved_workers(), 1u);
}

TEST(FingerprintHash, MixesAllSixteenBytes) {
  // Fingerprints that agree on the first 8 bytes (as truncated/salted test
  // hashers often do) must still spread across buckets.
  FingerprintHash hash;
  std::set<std::size_t> hashes;
  for (std::uint8_t tail = 0; tail < 64; ++tail) {
    std::array<std::uint8_t, Fingerprint::kSize> raw{};
    raw[15] = tail;  // entropy only in the last byte
    hashes.insert(hash(Fingerprint(raw)));
  }
  EXPECT_EQ(hashes.size(), 64u);
}

// ---------------------------------------------------------------------------
// Determinism of the parallel hot paths.

docker::Image collision_heavy_image() {
  // Multi-layer image hashed with an 8-bit fingerprint space: collisions are
  // certain, exercising the salted-ID reduce step under parallel hashing.
  vfs::FileTree s0 = gear::testing::random_tree(7100, 90);
  vfs::FileTree s1 = gear::testing::mutate_tree(s0, 7101, 25);
  docker::ImageBuilder b;
  b.add_snapshot(s0).add_snapshot(s1);
  return b.build("par", "v1", {});
}

TEST(ParallelConvert, ByteIdenticalToSerialWithCollisions) {
  TruncatedFingerprintHasher weak(8);
  docker::Image image = collision_heavy_image();

  GearConverter serial(weak);
  serial.set_concurrency(Concurrency::serial());
  ConversionResult a = serial.convert(image);
  EXPECT_GT(a.stats.collisions, 0u);  // the reduce step is actually exercised

  GearConverter parallel(weak);
  parallel.set_concurrency(Concurrency{4, 1 << 20});
  ConversionResult b = parallel.convert(image);

  // Stats, file set (order and bytes), index tree, and wire digest all match.
  EXPECT_EQ(a.stats.files_seen, b.stats.files_seen);
  EXPECT_EQ(a.stats.files_unique, b.stats.files_unique);
  EXPECT_EQ(a.stats.collisions, b.stats.collisions);
  EXPECT_EQ(a.stats.bytes_seen, b.stats.bytes_seen);
  EXPECT_EQ(a.stats.index_wire_bytes, b.stats.index_wire_bytes);
  ASSERT_EQ(a.image.files.size(), b.image.files.size());
  for (std::size_t i = 0; i < a.image.files.size(); ++i) {
    EXPECT_EQ(a.image.files[i].first, b.image.files[i].first) << i;
    EXPECT_EQ(a.image.files[i].second, b.image.files[i].second) << i;
  }
  EXPECT_TRUE(a.image.index.tree().equals(b.image.index.tree()));
  EXPECT_EQ(a.image.index_image.layers[0].digest(),
            b.image.index_image.layers[0].digest());
}

TEST(ParallelPush, RegistryStateIdenticalToSerial) {
  docker::Image image = collision_heavy_image();
  ConversionResult conv = GearConverter().convert(image);

  docker::DockerRegistry dreg_a, dreg_b;
  GearRegistry greg_a, greg_b;
  std::size_t up_a = push_gear_image(conv.image, dreg_a, greg_a);
  ThreadPool pool(4);
  std::size_t up_b = push_gear_image(conv.image, dreg_b, greg_b, {}, &pool,
                                     /*max_inflight_bytes=*/1 << 20);

  EXPECT_EQ(up_a, up_b);
  EXPECT_EQ(greg_a.storage_bytes(), greg_b.storage_bytes());
  EXPECT_EQ(greg_a.object_count(), greg_b.object_count());
  EXPECT_EQ(greg_a.stats().uploads_accepted, greg_b.stats().uploads_accepted);
  for (const auto& [fp, content] : conv.image.files) {
    (void)content;
    EXPECT_EQ(greg_a.download(fp).value(), greg_b.download(fp).value());
  }
}

// Logs, in order, every upload call a push makes: a burst's fingerprints
// and frames, or a chunked file's fingerprint alone. Can fail one burst,
// and can answer the presence query as a stale one would (all absent).
class RecordingRegistry final : public FileRegistryApi {
 public:
  struct Call {
    std::vector<Fingerprint> fps;
    std::vector<Bytes> frames;  // empty for a chunked upload
    bool operator==(const Call&) const = default;
  };

  explicit RecordingRegistry(FileRegistryApi& inner) : inner_(inner) {}

  std::vector<Call> calls;
  std::size_t failing_burst = 0;  // 1-based; 0 = none fails
  bool stale_query = false;

  std::vector<std::uint8_t> query_many(
      const std::vector<Fingerprint>& fps) const override {
    if (stale_query) return std::vector<std::uint8_t>(fps.size(), 0);
    return inner_.query_many(fps);
  }
  bool upload_precompressed(const Fingerprint& fp, Bytes compressed) override {
    return inner_.upload_precompressed(fp, std::move(compressed));
  }
  std::size_t upload_precompressed_batch(
      std::vector<std::pair<Fingerprint, Bytes>> items) override {
    Call call;
    for (const auto& [fp, frame] : items) {
      call.fps.push_back(fp);
      call.frames.push_back(frame);
    }
    calls.push_back(std::move(call));
    if (++bursts_ == failing_burst) {
      throw_error(ErrorCode::kInternal, "burst refused");
    }
    return inner_.upload_precompressed_batch(std::move(items));
  }
  bool upload_chunked(const Fingerprint& fp, BytesView content,
                      const ChunkPolicy& policy,
                      const FingerprintHasher& hasher) override {
    calls.push_back({{fp}, {}});
    return inner_.upload_chunked(fp, content, policy, hasher);
  }
  StatusOr<std::vector<Bytes>> download_batch(
      const std::vector<Fingerprint>& fps, ThreadPool* pool,
      std::uint64_t* wire_bytes_out) const override {
    return inner_.download_batch(fps, pool, wire_bytes_out);
  }
  StatusOr<std::uint64_t> stored_size(const Fingerprint& fp) const override {
    return inner_.stored_size(fp);
  }

 private:
  FileRegistryApi& inner_;
  std::size_t bursts_ = 0;
};

// A Gear image holding `contents` as its files, in order, behind a small
// index image.
GearImage image_of(std::vector<Bytes> contents) {
  docker::ImageBuilder b;
  b.add_snapshot(gear::testing::sample_tree());
  GearImage image = GearConverter().convert(b.build("burst", "v1", {})).image;
  image.files.clear();
  for (Bytes& content : contents) {
    const Fingerprint fp = default_hasher().fingerprint(content);
    image.files.emplace_back(fp, std::move(content));
  }
  return image;
}

// The calls a push of `image` must make when the files at `present` are
// stored already: each run of plain files between chunked ones in the
// bursts batch_slices cuts from the compressed sizes.
std::vector<RecordingRegistry::Call> expected_calls(
    const GearImage& image, const std::set<std::size_t>& present,
    const ChunkPolicy& policy) {
  std::vector<RecordingRegistry::Call> calls;
  std::vector<std::pair<Fingerprint, Bytes>> run;
  auto cut = [&] {
    std::vector<std::uint64_t> sizes;
    for (const auto& [fp, frame] : run) sizes.push_back(frame.size());
    for (const BatchSlice& slice : batch_slices(sizes, 0)) {
      RecordingRegistry::Call call;
      for (std::size_t k = slice.begin; k < slice.end; ++k) {
        call.fps.push_back(run[k].first);
        call.frames.push_back(run[k].second);
      }
      calls.push_back(std::move(call));
    }
    run.clear();
  };
  for (std::size_t i = 0; i < image.files.size(); ++i) {
    if (present.count(i) != 0) continue;
    const auto& [fp, content] = image.files[i];
    if (policy.applies_to(content.size())) {
      cut();
      calls.push_back({{fp}, {}});
    } else {
      run.emplace_back(fp, compress(content));
    }
  }
  cut();
  return calls;
}

// Pushes `image` with no pool, and with pools of each width in `widths`
// under each budget in `budgets`; every push must make exactly `expected`.
void expect_same_calls_at_any_width(
    const GearImage& image, const std::set<std::size_t>& present,
    const ChunkPolicy& policy, const std::vector<std::size_t>& widths,
    const std::vector<std::uint64_t>& budgets) {
  const std::vector<RecordingRegistry::Call> expected =
      expected_calls(image, present, policy);
  auto push_with = [&](ThreadPool* pool, std::uint64_t budget) {
    docker::DockerRegistry dreg;
    GearRegistry greg;
    for (std::size_t i : present) {
      greg.upload(image.files[i].first, image.files[i].second);
    }
    RecordingRegistry recording(greg);
    EXPECT_EQ(push_gear_image(image, dreg, recording, policy, pool, budget),
              image.files.size() - present.size());
    return recording.calls;
  };
  EXPECT_TRUE(push_with(nullptr, 0) == expected) << "no pool";
  for (std::size_t width : widths) {
    ThreadPool pool(width);
    for (std::uint64_t budget : budgets) {
      EXPECT_TRUE(push_with(&pool, budget) == expected)
          << "width " << width << ", budget " << budget;
    }
  }
}

TEST(ParallelPush, BurstsIdenticalAtAnyWidthAndBudget) {
  // Runs of 150, 10 and 3 plain files around three chunked files (two of
  // them adjacent), with two files of the first run stored already.
  const ChunkPolicy policy{64 * 1024, 16 * 1024};
  Rng rng(7300);
  std::vector<Bytes> contents;
  auto plain = [&](int count) {
    for (int k = 0; k < count; ++k) {
      contents.push_back(rng.next_bytes(rng.next_range(100, 5000),
                                        0.3 * static_cast<double>(k % 4)));
    }
  };
  auto chunked = [&] { contents.push_back(rng.next_bytes(70 * 1024, 0.5)); };
  plain(150);
  chunked();
  plain(10);
  chunked();
  chunked();
  plain(3);
  const GearImage image = image_of(std::move(contents));
  const std::set<std::size_t> present = {10, 70};
  ASSERT_EQ(expected_calls(image, present, policy).size(), 3u + 1 + 1 + 2 + 1);
  expect_same_calls_at_any_width(image, present, policy, {1, 2, 4},
                                 {0, 64 * 1024});
}

TEST(ParallelPush, ByteCapSplitsA64FileRun) {
  // 64 incompressible files just over 256 KiB: their stored frames pass
  // the 16 MiB cap of a burst at the 64th, which goes out alone.
  Rng rng(7301);
  std::vector<Bytes> contents;
  for (int k = 0; k < 64; ++k) contents.push_back(rng.next_bytes(262200, 0.0));
  const GearImage image = image_of(std::move(contents));
  const std::vector<RecordingRegistry::Call> expected =
      expected_calls(image, {}, {});
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(expected[0].fps.size(), 63u);
  expect_same_calls_at_any_width(image, {}, {}, {4}, {64 * 1024});
}

TEST(ParallelPush, FailedBurstPropagatesAfterEveryTaskFinished) {
  // The second burst fails while most files still wait to be compressed.
  // The error must reach the caller, and only after every compression task
  // has finished: the image is freed as soon as push returns, so a task
  // still running would read freed memory (the ASan build catches that).
  ThreadPool pool(4);
  docker::DockerRegistry dreg;
  GearRegistry greg;
  RecordingRegistry recording(greg);
  recording.failing_burst = 2;
  {
    Rng rng(7302);
    std::vector<Bytes> contents;
    for (int k = 0; k < 320; ++k) {
      contents.push_back(rng.next_bytes(48 * 1024, 0.5));
    }
    const GearImage image = image_of(std::move(contents));
    try {
      push_gear_image(image, dreg, recording, {}, &pool, 0);
      FAIL() << "the failed burst did not propagate";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInternal);
      EXPECT_NE(std::string(e.what()).find("burst refused"), std::string::npos);
    }
  }
  EXPECT_EQ(recording.calls.size(), 2u);
  EXPECT_EQ(greg.object_count(), 64u);
}

TEST(ParallelPush, CountsWhatTheRegistryStoredNotWhatWasSent) {
  // A presence query that went stale (another client stored the files
  // after it) sends every file again; the registry deduplicates each, and
  // the push reports that nothing was uploaded.
  const ChunkPolicy policy{64 * 1024, 16 * 1024};
  Rng rng(7303);
  std::vector<Bytes> contents;
  for (int k = 0; k < 70; ++k) contents.push_back(rng.next_bytes(2000, 0.5));
  contents.push_back(rng.next_bytes(70 * 1024, 0.5));  // chunked
  const GearImage image = image_of(std::move(contents));

  docker::DockerRegistry dreg;
  GearRegistry greg;
  EXPECT_EQ(push_gear_image(image, dreg, greg, policy), 71u);
  const std::size_t stored = greg.object_count();
  RecordingRegistry stale(greg);
  stale.stale_query = true;
  ThreadPool pool(2);
  EXPECT_EQ(push_gear_image(image, dreg, stale, policy, &pool), 0u);
  EXPECT_EQ(stale.calls.size(), 3u);  // 64 + 6 plain files, then the chunked
  EXPECT_EQ(greg.object_count(), stored);
}

TEST(GearRegistryBatch, DownloadBatchMatchesIndividualDownloads) {
  GearRegistry reg;
  std::vector<Fingerprint> fps;
  Rng rng(7200);
  std::uint64_t expected_wire = 0;
  for (int i = 0; i < 20; ++i) {
    Bytes content = rng.next_bytes(200 + i * 37);
    Fingerprint fp = default_hasher().fingerprint(content);
    reg.upload(fp, content);
    fps.push_back(fp);
    expected_wire += reg.stored_size(fp).value();
  }

  ThreadPool pool(4);
  std::uint64_t wire = 0;
  std::vector<Bytes> batch = reg.download_batch(fps, &pool, &wire).value();
  ASSERT_EQ(batch.size(), fps.size());
  EXPECT_EQ(wire, expected_wire);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(batch[i], reg.download(fps[i]).value()) << i;
  }

  std::vector<Fingerprint> with_missing = fps;
  with_missing.push_back(default_hasher().fingerprint(to_bytes("absent")));
  EXPECT_FALSE(reg.download_batch(with_missing, &pool, nullptr).ok());
}

TEST(GearRegistryBatch, DamagedObjectIsCorruptDataNamingItAndItsPosition) {
  // A stored frame that no longer decodes fails the batch as a status
  // naming the object and its item position — never as an exception out of
  // the parallel phase — at any pool width, for plain and chunked files.
  GearRegistry reg;
  Rng rng(7201);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 20; ++i) {
    Bytes content = rng.next_bytes(300 + i * 11, 0.5);
    fps.push_back(default_hasher().fingerprint(content));
    reg.upload(fps.back(), content);
  }
  Bytes big = rng.next_bytes(4096, 0.5);
  const Fingerprint chunked = default_hasher().fingerprint(big);
  reg.upload_chunked(chunked, big, ChunkPolicy{1024, 1024});
  ASSERT_TRUE(reg.is_chunked(chunked));

  auto damage = [&](const Fingerprint& fp) {
    Bytes frame = reg.store().get(fp).value();
    frame[0] ^= 0xFF;  // GZC1 magic overwritten, as by bit rot
    ASSERT_GT(reg.remove(fp), 0u);
    reg.upload_precompressed(fp, std::move(frame));
  };
  damage(fps[7]);
  const Fingerprint chunk = reg.chunk_manifest(chunked).value().chunks[2];
  damage(chunk);

  ThreadPool pool(4);
  for (ThreadPool* width : {static_cast<ThreadPool*>(nullptr), &pool}) {
    StatusOr<std::vector<Bytes>> got = reg.download_batch(fps, width);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.code(), ErrorCode::kCorruptData);
    EXPECT_NE(got.message().find(fps[7].hex()), std::string::npos)
        << got.message();
    EXPECT_NE(got.message().find("(item 8 of 20)"), std::string::npos)
        << got.message();

    std::vector<Fingerprint> only_chunked = {fps[0], chunked};
    got = reg.download_batch(only_chunked, width);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.code(), ErrorCode::kCorruptData);
    EXPECT_NE(got.message().find(chunk.hex()), std::string::npos)
        << got.message();
    EXPECT_NE(got.message().find(chunked.hex()), std::string::npos)
        << got.message();
    EXPECT_NE(got.message().find("(item 2 of 2)"), std::string::npos)
        << got.message();
  }
  EXPECT_EQ(reg.download(fps[7]).code(), ErrorCode::kCorruptData);
  EXPECT_EQ(reg.download_compressed(chunked).code(), ErrorCode::kCorruptData);
  EXPECT_EQ(reg.download_range(fps[7], 0, 10).code(), ErrorCode::kCorruptData);
  EXPECT_EQ(reg.download_range(chunked, 2048, 10).code(),
            ErrorCode::kCorruptData);
  EXPECT_TRUE(reg.download_range(chunked, 0, 10).ok());  // chunk 0 is intact
}

TEST(PipelinedPrefetch, TimingAndResultIndependentOfWorkerCount) {
  docker::Image image = collision_heavy_image();
  ConversionResult conv = GearConverter().convert(image);

  auto run = [&](const Concurrency& c) {
    docker::DockerRegistry dreg;
    GearRegistry greg;
    push_gear_image(conv.image, dreg, greg);
    sim::SimClock clock;
    sim::NetworkLink link(clock, 100.0, 0.0005, 0.0003);
    sim::DiskModel disk = sim::DiskModel::hdd(clock);
    GearClient client(dreg, greg, link, disk);
    client.set_concurrency(c);
    client.pull("par:v1");
    auto fetched = client.prefetch_remaining("par:v1");
    return std::tuple(fetched.first, fetched.second, clock.now(),
                      link.stats().requests, link.stats().bytes_transferred);
  };

  auto serial = run(Concurrency::serial());
  auto parallel = run(Concurrency{4, 1 << 20});
  EXPECT_EQ(serial, parallel);  // identical sim outcome at any width
  EXPECT_GT(std::get<0>(serial), 0u);
}

}  // namespace
}  // namespace gear
