// Tests for the worker-pool subsystem and the determinism contract of the
// parallel hot paths: ordering, backpressure, exception propagation, and
// byte-identical results between serial and parallel conversion, push, and
// pipelined prefetch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

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
