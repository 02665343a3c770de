// Tests for the pluggable registry storage engine: ObjectStore backends
// (in-memory and durable on-disk), crash recovery on reopen, wire-served
// restart without re-push, and the sharded concurrent registry. The
// ConcurrentRegistry* suites also run under TSAN in CI.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "gear/chunking.hpp"
#include "gear/object_store.hpp"
#include "gear/registry.hpp"
#include "net/remote_registry.hpp"
#include "net/transport.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gear {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(std::string tag) {
  for (char& c : tag) {
    if (c == '/') c = '_';
  }
  fs::path p = fs::path(::testing::TempDir()) /
               ("gear_objstore_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

std::string current_test_tag() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(info->test_suite_name()) + "_" + info->name();
}

Fingerprint fp_of(BytesView content) {
  return default_hasher().fingerprint(content);
}

/// Mixed-compressibility corpus, deterministic per seed.
std::vector<Bytes> make_corpus(std::uint64_t seed, int n,
                               std::uint64_t max_size = 4096) {
  Rng rng(seed);
  std::vector<Bytes> corpus;
  corpus.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    corpus.push_back(
        rng.next_bytes(rng.next_range(1, max_size), rng.next_double()));
  }
  return corpus;
}

// ------------------------------------------------- backend-parametrized

enum class Backend { kMemory, kDisk };

class RegistryBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<ObjectStore> make_backend() {
    if (GetParam() == Backend::kMemory) {
      return std::make_unique<MemoryObjectStore>();
    }
    if (dir_.empty()) dir_ = fresh_dir(current_test_tag());
    return std::make_unique<DiskObjectStore>(dir_);
  }

  void TearDown() override {
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  fs::path dir_;
};

INSTANTIATE_TEST_SUITE_P(Backends, RegistryBackendTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const auto& info) {
                           return info.param == Backend::kMemory ? "memory"
                                                                 : "disk";
                         });

TEST_P(RegistryBackendTest, UploadQueryDownloadAndStats) {
  GearRegistry reg(make_backend());
  Bytes a = to_bytes("alpha content"), b = to_bytes(std::string(3000, 'b'));
  Fingerprint fa = fp_of(a), fb = fp_of(b);

  EXPECT_FALSE(reg.query(fa));
  EXPECT_TRUE(reg.upload(fa, a));
  EXPECT_TRUE(reg.upload(fb, b));
  EXPECT_FALSE(reg.upload(fa, a));  // dedup
  EXPECT_TRUE(reg.query(fa));
  EXPECT_TRUE(reg.query(fb));

  EXPECT_EQ(reg.download(fa).value(), a);
  EXPECT_EQ(reg.download(fb).value(), b);
  EXPECT_EQ(reg.download_compressed(fa).value(), compress(a));

  EXPECT_EQ(reg.stats().uploads_accepted, 2u);
  EXPECT_EQ(reg.stats().uploads_deduplicated, 1u);
  EXPECT_EQ(reg.stats().downloads, 3u);  // two downloads + one compressed
  EXPECT_EQ(reg.stats().queries, 3u);
  EXPECT_EQ(reg.object_count(), 2u);
  EXPECT_EQ(reg.storage_bytes(), compress(a).size() + compress(b).size());
  EXPECT_EQ(reg.stored_size(fa).value(), compress(a).size());
}

TEST_P(RegistryBackendTest, NotFoundErrorsNameTheFingerprintHex) {
  GearRegistry reg(make_backend());
  Fingerprint missing = fp_of(to_bytes("never uploaded"));

  StatusOr<Bytes> dl = reg.download(missing);
  ASSERT_FALSE(dl.ok());
  EXPECT_EQ(dl.code(), ErrorCode::kNotFound);
  EXPECT_NE(dl.message().find(missing.hex()), std::string::npos)
      << dl.message();

  StatusOr<ChunkManifest> cm = reg.chunk_manifest(missing);
  ASSERT_FALSE(cm.ok());
  EXPECT_EQ(cm.code(), ErrorCode::kNotFound);
  EXPECT_NE(cm.message().find(missing.hex()), std::string::npos)
      << cm.message();

  StatusOr<std::vector<Bytes>> batch = reg.download_batch({missing});
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.message().find(missing.hex()), std::string::npos)
      << batch.message();
}

TEST_P(RegistryBackendTest, ChunkedRoundTrip) {
  GearRegistry reg(make_backend());
  ChunkPolicy policy;
  policy.threshold_bytes = 1024;
  policy.chunk_bytes = 1024;

  Rng rng(7);
  Bytes big = rng.next_bytes(10 * 1024 + 37, 0.5);
  Fingerprint fp = fp_of(big);

  EXPECT_TRUE(reg.upload_chunked(fp, big, policy));
  EXPECT_TRUE(reg.is_chunked(fp));
  EXPECT_FALSE(reg.upload_chunked(fp, big, policy));  // dedup
  EXPECT_EQ(reg.download(fp).value(), big);

  // Ranged read crosses chunk boundaries.
  Bytes range = reg.download_range(fp, 1000, 2000).value();
  EXPECT_EQ(range, Bytes(big.begin() + 1000, big.begin() + 3000));

  // stored_size = manifest + all chunk frames; matches storage accounting.
  ChunkManifest manifest = reg.chunk_manifest(fp).value();
  EXPECT_EQ(manifest.file_size, big.size());
  EXPECT_GT(manifest.chunks.size(), 1u);
  EXPECT_EQ(reg.stored_size(fp).value(), reg.storage_bytes());
}

TEST_P(RegistryBackendTest, RemoveFreesStorage) {
  GearRegistry reg(make_backend());
  Bytes content = to_bytes(std::string(500, 'r'));
  Fingerprint fp = fp_of(content);
  reg.upload(fp, content);
  std::uint64_t held = reg.storage_bytes();
  EXPECT_GT(held, 0u);
  EXPECT_EQ(reg.remove(fp), held);
  EXPECT_EQ(reg.storage_bytes(), 0u);
  EXPECT_EQ(reg.object_count(), 0u);
  EXPECT_EQ(reg.remove(fp), 0u);
}

// Identical workload on both backends must produce identical accounting:
// same stored_bytes, same object counts, same stats, same wire frames.
TEST(ObjectStoreParity, BackendsAreAccountingIdentical) {
  fs::path dir = fresh_dir("parity");
  GearRegistry mem;  // default MemoryObjectStore
  GearRegistry disk(std::make_unique<DiskObjectStore>(dir));

  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 1024;
  std::vector<Bytes> corpus = make_corpus(11, 40, 6000);

  for (GearRegistry* reg : {&mem, &disk}) {
    for (const Bytes& content : corpus) {
      reg->upload_chunked(fp_of(content), content, policy);
    }
  }

  EXPECT_EQ(mem.storage_bytes(), disk.storage_bytes());
  EXPECT_EQ(mem.object_count(), disk.object_count());
  EXPECT_EQ(mem.stats().uploads_accepted, disk.stats().uploads_accepted);
  EXPECT_EQ(mem.stats().uploads_deduplicated,
            disk.stats().uploads_deduplicated);
  for (const Bytes& content : corpus) {
    Fingerprint fp = fp_of(content);
    EXPECT_EQ(mem.download(fp).value(), disk.download(fp).value());
    EXPECT_EQ(mem.download_compressed(fp).value(),
              disk.download_compressed(fp).value());
    EXPECT_EQ(mem.stored_size(fp).value(), disk.stored_size(fp).value());
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------ durability

TEST(DiskObjectStore, ReopenServesEverythingWithNoReupload) {
  fs::path dir = fresh_dir("reopen");
  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 1024;
  std::vector<Bytes> corpus = make_corpus(23, 25, 5000);

  std::uint64_t stored_before = 0;
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    for (const Bytes& content : corpus) {
      reg.upload_chunked(fp_of(content), content, policy);
    }
    stored_before = reg.storage_bytes();
  }  // "crash-free shutdown": registry destroyed, files remain

  GearRegistry reopened(std::make_unique<DiskObjectStore>(dir));
  EXPECT_EQ(reopened.storage_bytes(), stored_before);
  for (const Bytes& content : corpus) {
    Fingerprint fp = fp_of(content);
    EXPECT_TRUE(reopened.query(fp));
    EXPECT_EQ(reopened.download(fp).value(), content);
    // Re-pushing after restart uploads nothing.
    EXPECT_FALSE(reopened.upload_chunked(fp, content, policy));
  }
  EXPECT_EQ(reopened.stats().uploads_accepted, 0u);
  EXPECT_EQ(reopened.stats().uploads_deduplicated, corpus.size());
  fs::remove_all(dir);
}

TEST(DiskObjectStore, CrashMidUploadTornTempsAreIgnoredAndReaped) {
  fs::path dir = fresh_dir("torn");
  Bytes ok1 = to_bytes("survived the crash");
  Bytes ok2 = to_bytes(std::string(4000, 'z'));
  Bytes lost = to_bytes("torn off by the crash");
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    reg.upload(fp_of(ok1), ok1);
    reg.upload(fp_of(ok2), ok2);
    reg.upload(fp_of(lost), lost);
  }
  // Simulate a crash mid-append: the final batch loses its commit and the
  // last bytes of its record.
  const fs::path segment = testing::pack_segments(dir).back();
  const auto last_end = static_cast<std::uintmax_t>(
      testing::find_pack_record(dir, fp_of(lost))->offset);
  fs::resize_file(segment, fs::file_size(segment) - 32 - 3);

  auto store = std::make_unique<DiskObjectStore>(dir);
  EXPECT_EQ(store->reaped_temps(), 1u);
  // A reader leaves the file alone; the first write cuts the torn record.
  EXPECT_GT(fs::file_size(segment), last_end);

  GearRegistry reg(std::move(store));
  EXPECT_FALSE(reg.query(fp_of(lost)));
  EXPECT_EQ(reg.download(fp_of(ok1)).value(), ok1);
  EXPECT_EQ(reg.download(fp_of(ok2)).value(), ok2);
  EXPECT_EQ(reg.object_count(), 2u);
  EXPECT_TRUE(reg.upload(fp_of(lost), lost));
  EXPECT_EQ(fs::file_size(segment),
            last_end + 32 + compress(lost).size() + 32);
  fs::remove_all(dir);
}

// Every byte offset of the final batch is a possible crash point: cut a copy
// of the pack there (and again with garbage over the cut tail) and reopen.
// Every earlier record reads back, no torn record is served, the first
// write leaves the file ending at the last complete record, and a re-push
// uploads exactly the missing objects.
TEST(DiskObjectStore, TornFinalBatchAtEveryByteIsCutBackOnReopen) {
  fs::path dir = fresh_dir("torn_every_byte");
  std::vector<Bytes> earlier = make_corpus(101, 6, 300);
  std::vector<Bytes> last = make_corpus(103, 3, 120);
  {
    DiskObjectStore store(dir);
    for (const auto* corpus : {&earlier, &last}) {
      std::vector<StorePut> batch;
      for (const Bytes& content : *corpus) {
        batch.push_back({fp_of(content), compress(content), std::nullopt});
      }
      store.put_batch(std::move(batch));
    }
  }
  const fs::path segment = testing::pack_segments(dir).back();
  const Bytes pack = testing::read_whole(segment);
  const std::uint64_t final_start =
      testing::find_pack_record(dir, fp_of(last[0]))->offset;
  std::vector<std::uint64_t> record_ends;  // of the final batch's objects
  for (const Bytes& content : last) {
    const auto r = testing::find_pack_record(dir, fp_of(content));
    record_ends.push_back(r->offset + 32 + r->length);
  }

  fs::path copy = fresh_dir("torn_every_byte_copy");
  Rng rng(107);
  for (std::uint64_t cut = final_start; cut < pack.size(); ++cut) {
    for (bool garbage : {false, true}) {
      SCOPED_TRACE("cut at " + std::to_string(cut) +
                   (garbage ? " with garbage" : ""));
      fs::remove_all(copy);
      fs::create_directories(copy / "pack");
      Bytes torn(pack.begin(), pack.begin() + static_cast<std::ptrdiff_t>(cut));
      if (garbage) {
        Bytes noise = rng.next_bytes(pack.size() - cut, 0.0);
        noise[0] = static_cast<std::uint8_t>(pack[cut] ^ 0xFF);
        append(torn, noise);
      }
      const fs::path torn_segment = copy / "pack" / segment.filename();
      {
        std::ofstream out(torn_segment, std::ios::binary);
        out.write(reinterpret_cast<const char*>(torn.data()),
                  static_cast<std::streamsize>(torn.size()));
      }

      DiskObjectStore store(copy);
      for (const Bytes& content : earlier) {
        ASSERT_EQ(decompress(store.get(fp_of(content)).value()), content);
      }
      std::uint64_t complete = final_start;  // end of the last whole record
      std::uint64_t repushed = 0;            // bytes the re-push appends
      std::size_t missing = 0;
      std::vector<StorePut> repush;
      for (std::size_t i = 0; i < last.size(); ++i) {
        const Fingerprint fp = fp_of(last[i]);
        if (record_ends[i] <= cut) {
          complete = record_ends[i];
          ASSERT_EQ(decompress(store.get(fp).value()), last[i]);
        } else {
          ASSERT_FALSE(store.contains(fp));  // never served torn
          ++missing;
          repushed += 32 + compress(last[i]).size();
        }
        repush.push_back({fp, compress(last[i]), std::nullopt});
      }
      EXPECT_EQ(store.reaped_temps() > 0, garbage || cut > complete);
      std::vector<std::uint8_t> stored = store.put_batch(std::move(repush));
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(stored.begin(), stored.end(), 1)),
                missing);
      if (missing > 0) repushed += 32;  // the re-push's commit
      // One more record shows where the writer appended: right after the
      // last complete record and the re-push.
      Bytes extra = to_bytes("written after the restart");
      ASSERT_TRUE(store.put_if_absent(fp_of(extra), compress(extra)));
      EXPECT_EQ(fs::file_size(torn_segment),
                complete + repushed + 32 + compress(extra).size() + 32);
    }
  }
  fs::remove_all(copy);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, DamagedHeaderBeforeTheFinalBatchFailsTheOpen) {
  fs::path dir = fresh_dir("damaged_header");
  std::vector<Bytes> corpus = make_corpus(109, 8, 500);
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    for (const Bytes& content : corpus) reg.upload(fp_of(content), content);
  }
  // One flipped fingerprint byte in the second record's header: an
  // acknowledged batch, which a reopen must never cut away.
  const testing::PackRecord victim = testing::pack_records(dir)[2];
  ASSERT_EQ(victim.kind, 1u);
  testing::overwrite_bytes(victim.segment, victim.offset + 9, "\x5a");
  const auto size = fs::file_size(victim.segment);
  try {
    DiskObjectStore store(dir);
    FAIL() << "a damaged header opened";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
    EXPECT_NE(e.message().find(victim.segment.string()), std::string::npos)
        << e.message();
    EXPECT_NE(e.message().find("offset " + std::to_string(victim.offset)),
              std::string::npos)
        << e.message();
  }
  EXPECT_EQ(fs::file_size(victim.segment), size);
  fs::remove_all(dir);
}

// A payload byte flipped after its batch was acknowledged: the open walks
// headers only and succeeds, and every read path reports kCorruptData naming
// the fingerprint (the store's read names the segment and the offset too).
TEST(DiskObjectStore, DamagedPayloadIsCorruptDataOnEveryReadPath) {
  fs::path dir = fresh_dir("damaged_payload");
  Bytes plain = to_bytes(std::string(3000, 'p'));
  Bytes other = to_bytes("an intact neighbour");
  Rng rng(113);
  Bytes big = rng.next_bytes(6000, 0.5);
  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 2048;
  const Fingerprint fp_plain = fp_of(plain), fp_big = fp_of(big);
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    reg.upload(fp_plain, plain);
    reg.upload_chunked(fp_big, big, policy);
    reg.upload(fp_of(other), other);
  }
  const ChunkManifest manifest =
      build_chunk_manifest(big, policy, default_hasher());
  const Fingerprint chunk = manifest.chunks[1];
  for (const Fingerprint& fp : {fp_plain, chunk}) {
    const auto r = testing::find_pack_record(dir, fp);
    ASSERT_TRUE(r.has_value());
    // The last payload byte: a literal of the stored frame.
    testing::overwrite_bytes(r->segment, r->offset + 32 + r->length - 1,
                             "\x01");
  }

  GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
  const auto r = testing::find_pack_record(dir, fp_plain);
  StatusOr<Bytes> raw = reg.store().get(fp_plain);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.code(), ErrorCode::kCorruptData);
  EXPECT_NE(raw.message().find(r->segment.string()), std::string::npos);
  EXPECT_NE(raw.message().find("offset " + std::to_string(r->offset)),
            std::string::npos)
      << raw.message();

  auto expect_corrupt = [](const auto& got, const Fingerprint& fp,
                           const char* path) {
    ASSERT_FALSE(got.ok()) << path;
    EXPECT_EQ(got.code(), ErrorCode::kCorruptData) << path;
    EXPECT_NE(got.message().find(fp.hex()), std::string::npos)
        << path << ": " << got.message();
  };
  expect_corrupt(reg.download(fp_plain), fp_plain, "download");
  expect_corrupt(reg.download_compressed(fp_plain), fp_plain,
                 "download_compressed");
  expect_corrupt(reg.download_batch({fp_of(other), fp_plain}), fp_plain,
                 "download_batch");
  expect_corrupt(reg.download_range(fp_plain, 10, 20), fp_plain,
                 "download_range");
  expect_corrupt(reg.download_range(fp_big, 2100, 100), chunk,
                 "download_range of a chunk");
  expect_corrupt(reg.download_chunk_compressed(chunk), chunk,
                 "download_chunk_compressed");
  expect_corrupt(reg.download(fp_big), chunk, "download of a chunked file");
  std::vector<StatusOr<Sha256Digest>> digests =
      reg.query_digests({fp_plain, fp_big, fp_of(other)});
  expect_corrupt(digests[0], fp_plain, "query_digests");
  expect_corrupt(digests[1], chunk, "query_digests of a chunked file");
  EXPECT_TRUE(digests[2].ok());
  EXPECT_EQ(reg.download(fp_of(other)).value(), other);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, BatchPutIsOneAppendAndOneSync) {
  fs::path dir = fresh_dir("batch_sync");
  DiskObjectStore store(dir);
  std::vector<Bytes> corpus = make_corpus(127, 64, 2000);
  std::vector<StorePut> batch;
  for (const Bytes& content : corpus) {
    batch.push_back({fp_of(content), compress(content), std::nullopt});
  }
  batch.push_back(batch.front());  // a repeat within the batch dedups
  std::vector<std::uint8_t> stored = store.put_batch(std::move(batch));
  EXPECT_EQ(std::count(stored.begin(), stored.end(), 1), 64);
  EXPECT_EQ(stored.back(), 0u);
  // The segment's directory entry, then the batch itself.
  EXPECT_EQ(store.syncs(), 2u);
  EXPECT_FALSE(store.put_if_absent(fp_of(corpus[0]), compress(corpus[0])));
  EXPECT_EQ(store.syncs(), 2u);  // a dedup writes nothing
  Bytes one = to_bytes("a batch of one");
  EXPECT_TRUE(store.put_if_absent(fp_of(one), compress(one)));
  EXPECT_EQ(store.syncs(), 3u);
  EXPECT_EQ(testing::pack_segments(dir).size(), 1u);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, EraseWritesTombstonesAndCompactionKeepsTheLiveSet) {
  fs::path dir = fresh_dir("compact");
  std::vector<Bytes> corpus = make_corpus(131, 40, 3000);
  std::uint64_t live_bytes = 0;
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    for (const Bytes& content : corpus) reg.upload(fp_of(content), content);
    for (std::size_t i = 0; i < 30; ++i) reg.remove(fp_of(corpus[i]));
    // An erased object uploaded again lives after its tombstone.
    EXPECT_TRUE(reg.upload(fp_of(corpus[0]), corpus[0]));
    live_bytes = reg.storage_bytes();
  }
  const std::uint64_t before = fs::file_size(testing::pack_segments(dir).back());
  {
    GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
    EXPECT_EQ(reg.object_count(), 11u);
    EXPECT_EQ(reg.storage_bytes(), live_bytes);
    EXPECT_FALSE(reg.query(fp_of(corpus[1])));
    EXPECT_EQ(reg.download(fp_of(corpus[0])).value(), corpus[0]);
    const std::uint64_t shrunk = reg.store().compact();
    EXPECT_GT(shrunk, 0u);
    EXPECT_EQ(reg.store().compact(), 0u);  // nothing left below half
    EXPECT_EQ(reg.storage_bytes(), live_bytes);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const bool alive = i == 0 || i >= 30;
      ASSERT_EQ(reg.query(fp_of(corpus[i])), alive) << i;
      if (alive) {
        EXPECT_EQ(reg.download(fp_of(corpus[i])).value(), corpus[i]);
      }
    }
  }
  // The compacted pack reopens to the same live set and holds no more than
  // the live records, their headers and one commit.
  ASSERT_EQ(testing::pack_segments(dir).size(), 1u);
  const std::uint64_t after = fs::file_size(testing::pack_segments(dir).back());
  EXPECT_LT(after, before);
  EXPECT_EQ(after, live_bytes + 11 * 32 + 32);
  GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
  EXPECT_EQ(reg.object_count(), 11u);
  EXPECT_EQ(reg.storage_bytes(), live_bytes);
  EXPECT_EQ(reg.download(fp_of(corpus[35])).value(), corpus[35]);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, ASecondWriterIsRefusedNamingTheStore) {
  fs::path dir = fresh_dir("second_writer");
  Bytes a = to_bytes("first writer"), b = to_bytes("second writer");
  DiskObjectStore first(dir);
  DiskObjectStore second(dir);  // opened before the first one writes
  ASSERT_TRUE(first.put_if_absent(fp_of(a), compress(a)));
  try {
    second.put_if_absent(fp_of(b), compress(b));
    FAIL() << "two writers on one pack";
  } catch (const Error& e) {
    EXPECT_NE(e.message().find(dir.string()), std::string::npos)
        << e.message();
  }
  // Readers need no lock, and never cut or append.
  DiskObjectStore reader(dir);
  EXPECT_EQ(decompress(reader.get(fp_of(a)).value()), a);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, AWriterWhoseViewIsStaleIsRefused) {
  fs::path dir = fresh_dir("stale_writer");
  Bytes a = to_bytes("written by another process"), b = to_bytes("late");
  auto late = std::make_unique<DiskObjectStore>(dir);
  {
    DiskObjectStore other(dir);
    ASSERT_TRUE(other.put_if_absent(fp_of(a), compress(a)));
  }  // the other process exits, releasing the lock
  try {
    late->put_if_absent(fp_of(b), compress(b));
    FAIL() << "a stale view appended";
  } catch (const Error& e) {
    EXPECT_NE(e.message().find("reopen"), std::string::npos) << e.message();
  }
  late.reset();
  DiskObjectStore reopened(dir);
  EXPECT_TRUE(reopened.put_if_absent(fp_of(b), compress(b)));
  EXPECT_EQ(decompress(reopened.get(fp_of(a)).value()), a);
  fs::remove_all(dir);
}

TEST(DiskObjectStore, RetiredOneFilePerObjectLayoutIsRefused) {
  fs::path dir = fresh_dir("retired");
  fs::create_directories(dir / "objects");
  try {
    DiskObjectStore store(dir);
    FAIL() << "the retired layout opened";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
    EXPECT_NE(e.message().find((dir / "objects").string()), std::string::npos);
    EXPECT_NE(e.message().find("re-import"), std::string::npos);
  }
  EXPECT_FALSE(fs::exists(dir / "pack"));
  fs::remove_all(dir);
}

// Batch writers, pread readers and a gc (erase, then compaction) on one
// store at once; also runs under TSAN in CI (*ConcurrentPack*).
TEST(DiskObjectStore, ConcurrentPackWritersReadersAndGc) {
  fs::path dir = fresh_dir("concurrent_pack");
  GearRegistry reg(std::make_unique<DiskObjectStore>(dir));
  std::vector<Bytes> kept = make_corpus(137, 48, 2000);
  std::vector<Bytes> doomed = make_corpus(139, 96, 2000);
  std::vector<Fingerprint> kept_fps;
  for (const Bytes& content : kept) {
    kept_fps.push_back(fp_of(content));
    reg.upload(kept_fps.back(), content);
  }
  for (const Bytes& content : doomed) reg.upload(fp_of(content), content);

  constexpr int kWriters = 2;
  std::vector<std::vector<Bytes>> incoming;
  for (int w = 0; w < kWriters; ++w) {
    incoming.push_back(make_corpus(149 + static_cast<std::uint64_t>(w), 64, 1500));
  }
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::vector<Bytes>& mine = incoming[static_cast<std::size_t>(w)];
      for (std::size_t at = 0; at < mine.size(); at += 16) {
        std::vector<std::pair<Fingerprint, Bytes>> batch;
        for (std::size_t i = at; i < at + 16; ++i) {
          batch.emplace_back(fp_of(mine[i]), compress(mine[i]));
        }
        reg.upload_precompressed_batch(std::move(batch));
      }
    });
  }
  std::vector<std::vector<Bytes>> seen(2);
  for (std::size_t r = 0; r < seen.size(); ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 6; ++round) {
        seen[r] = reg.download_batch(kept_fps).value();
      }
    });
  }
  threads.emplace_back([&] {
    for (const Bytes& content : doomed) reg.remove(fp_of(content));
    reg.store().compact();
  });
  for (std::thread& t : threads) t.join();

  for (const auto& batch : seen) EXPECT_EQ(batch, kept);
  for (const auto& mine : incoming) {
    for (const Bytes& content : mine) {
      EXPECT_EQ(reg.download(fp_of(content)).value(), content);
    }
  }
  for (const Bytes& content : doomed) EXPECT_FALSE(reg.query(fp_of(content)));
  const std::size_t objects = reg.object_count();
  const std::uint64_t bytes = reg.storage_bytes();
  GearRegistry reopened(std::make_unique<DiskObjectStore>(dir));
  EXPECT_EQ(reopened.object_count(), objects);
  EXPECT_EQ(reopened.storage_bytes(), bytes);
  EXPECT_EQ(reopened.download_batch(kept_fps).value(), kept);
  fs::remove_all(dir);
}

// Push to a wire-served registry over a DiskObjectStore, tear the whole
// server down, bring up a new server over the same directory, and deploy:
// every object is already there (zero re-uploads) and downloads are
// byte-identical. The acceptance scenario for the storage engine.
TEST(DiskObjectStore, WireServedRegistrySurvivesRestart) {
  fs::path dir = fresh_dir("wire_restart");
  std::vector<Bytes> corpus = make_corpus(31, 20, 4000);
  std::vector<Fingerprint> fps;
  for (const Bytes& content : corpus) fps.push_back(fp_of(content));

  {
    net::LoopbackTransport server(std::make_unique<DiskObjectStore>(dir));
    net::RemoteGearRegistry client(server);
    std::vector<std::pair<Fingerprint, Bytes>> batch;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      batch.emplace_back(fps[i], compress(corpus[i]));
    }
    EXPECT_EQ(client.upload_precompressed_batch(std::move(batch)),
              corpus.size());
  }  // server process "dies"

  net::LoopbackTransport server2(std::make_unique<DiskObjectStore>(dir));
  net::RemoteGearRegistry client2(server2);

  std::vector<std::uint8_t> present = client2.query_many(fps);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_TRUE(present[i]) << fps[i].hex();
  }
  // A re-push finds everything already stored: zero re-uploads.
  std::vector<std::pair<Fingerprint, Bytes>> repush;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    repush.emplace_back(fps[i], compress(corpus[i]));
  }
  EXPECT_EQ(client2.upload_precompressed_batch(std::move(repush)), 0u);
  EXPECT_EQ(server2.registry().stats().uploads_accepted, 0u);

  std::vector<Bytes> downloaded = client2.download_batch(fps).value();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(downloaded[i], corpus[i]) << fps[i].hex();
  }
  fs::remove_all(dir);
}

// ----------------------------------------------------------- concurrency
//
// These suites run under TSAN in CI (test filter *ConcurrentRegistry*).

class ConcurrentRegistryTest : public RegistryBackendTest {};

INSTANTIATE_TEST_SUITE_P(Backends, ConcurrentRegistryTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk),
                         [](const auto& info) {
                           return info.param == Backend::kMemory ? "memory"
                                                                 : "disk";
                         });

TEST_P(ConcurrentRegistryTest, ConcurrentBatchDownloadsMatchSerial) {
  GearRegistry reg(make_backend());
  ChunkPolicy policy;
  policy.threshold_bytes = 2048;
  policy.chunk_bytes = 1024;
  std::vector<Bytes> corpus = make_corpus(47, 48, 4000);
  std::vector<Fingerprint> fps;
  for (const Bytes& content : corpus) {
    fps.push_back(fp_of(content));
    reg.upload_chunked(fps.back(), content, policy);
  }

  std::uint64_t serial_wire = 0;
  std::vector<Bytes> serial =
      reg.download_batch(fps, nullptr, &serial_wire).value();
  const std::uint64_t downloads_after_serial = reg.stats().downloads;

  constexpr int kClients = 4;
  std::vector<std::vector<Bytes>> results(kClients);
  std::vector<std::uint64_t> wires(kClients, 0);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        results[static_cast<std::size_t>(c)] =
            reg.download_batch(fps, nullptr,
                               &wires[static_cast<std::size_t>(c)])
                .value();
      });
    }
    for (std::thread& t : clients) t.join();
  }

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], serial) << "client " << c;
    EXPECT_EQ(wires[static_cast<std::size_t>(c)], serial_wire);
  }
  // Stats totals are deterministic: each batch counts one download per item.
  EXPECT_EQ(reg.stats().downloads,
            downloads_after_serial + kClients * fps.size());
}

TEST_P(ConcurrentRegistryTest, ConcurrentUploadsAreLinearizablePerFp) {
  GearRegistry reg(make_backend());
  std::vector<Bytes> corpus = make_corpus(59, 32, 3000);

  // Every thread pushes the full overlapping corpus: exactly one accept per
  // fingerprint, everything else dedups, never a torn or doubled object.
  constexpr int kThreads = 4;
  {
    std::vector<std::thread> uploaders;
    uploaders.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      uploaders.emplace_back([&, t] {
        // Different arrival order per thread stresses shard-lock ordering.
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          std::size_t at = (i * 7 + static_cast<std::size_t>(t) * 13) %
                           corpus.size();
          reg.upload(fp_of(corpus[at]), corpus[at]);
        }
      });
    }
    for (std::thread& t : uploaders) t.join();
  }

  EXPECT_EQ(reg.stats().uploads_accepted, corpus.size());
  EXPECT_EQ(reg.stats().uploads_deduplicated,
            (kThreads - 1) * corpus.size());
  EXPECT_EQ(reg.object_count(), corpus.size());
  std::uint64_t expected_bytes = 0;
  for (const Bytes& content : corpus) {
    EXPECT_EQ(reg.download(fp_of(content)).value(), content);
    expected_bytes += compress(content).size();
  }
  EXPECT_EQ(reg.storage_bytes(), expected_bytes);
}

TEST_P(ConcurrentRegistryTest, ReadersOverlapWithWriters) {
  GearRegistry reg(make_backend());
  std::vector<Bytes> preloaded = make_corpus(67, 24, 3000);
  std::vector<Fingerprint> fps;
  for (const Bytes& content : preloaded) {
    fps.push_back(fp_of(content));
    reg.upload(fps.back(), content);
  }
  std::vector<Bytes> incoming = make_corpus(71, 64, 2000);

  std::thread writer([&] {
    for (const Bytes& content : incoming) {
      reg.upload(fp_of(content), content);
    }
  });
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  std::vector<std::vector<Bytes>> results(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < 4; ++round) {
        results[static_cast<std::size_t>(r)] =
            reg.download_batch(fps).value();
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(), preloaded.size());
    for (std::size_t i = 0; i < preloaded.size(); ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)][i], preloaded[i]);
    }
  }
  for (const Bytes& content : incoming) {
    EXPECT_EQ(reg.download(fp_of(content)).value(), content);
  }
}

TEST_P(ConcurrentRegistryTest, ConcurrentWireClientsMatchSerial) {
  std::unique_ptr<ObjectStore> backend = make_backend();
  net::LoopbackTransport server(std::move(backend));

  std::vector<Bytes> corpus = make_corpus(83, 32, 3000);
  std::vector<Fingerprint> fps;
  {
    net::RemoteGearRegistry pusher(server);
    std::vector<std::pair<Fingerprint, Bytes>> batch;
    for (const Bytes& content : corpus) {
      fps.push_back(fp_of(content));
      batch.emplace_back(fps.back(), compress(content));
    }
    ASSERT_EQ(pusher.upload_precompressed_batch(std::move(batch)),
              corpus.size());
  }

  net::RemoteGearRegistry serial_client(server);
  std::vector<Bytes> serial = serial_client.download_batch(fps).value();

  constexpr int kClients = 4;
  std::vector<std::vector<Bytes>> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        net::RemoteGearRegistry client(server);
        results[static_cast<std::size_t>(c)] =
            client.download_batch(fps).value();
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], serial) << "client " << c;
  }
  // Each download_batch is one round trip serving |fps| items.
  EXPECT_EQ(server.server_stats().download_round_trips, 1u + kClients);
  EXPECT_EQ(server.server_stats().download_items, (1u + kClients) * fps.size());
}

}  // namespace
}  // namespace gear
