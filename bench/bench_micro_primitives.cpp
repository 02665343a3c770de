// Micro-benchmarks (google-benchmark) for the primitives every experiment
// rests on: hashing, compression, tar, tree diff/union, index round-trips.
#include <benchmark/benchmark.h>

#include "compress/codec.hpp"
#include "docker/layer.hpp"
#include "docker/overlay.hpp"
#include "gear/index.hpp"
#include "tar/tar.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "vfs/tree_diff.hpp"
#include "vfs/tree_serialize.hpp"

namespace {

using namespace gear;

Bytes test_data(std::size_t n, double compressibility) {
  Rng rng(99);
  return rng.next_bytes(n, compressibility);
}

vfs::FileTree bench_tree(int files) {
  Rng rng(7);
  vfs::FileTree t;
  for (int i = 0; i < files; ++i) {
    t.add_file("dir" + std::to_string(i % 16) + "/f" + std::to_string(i),
               rng.next_bytes(rng.next_range(64, 8192), 0.3));
  }
  return t;
}

void BM_Md5(benchmark::State& state) {
  Bytes data = test_data(static_cast<std::size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5)->Arg(4096)->Arg(262144);

void BM_Sha256(benchmark::State& state) {
  Bytes data = test_data(static_cast<std::size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(262144);

void BM_LzssCompress(benchmark::State& state) {
  Bytes data = test_data(262144, static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LzssCompress)->Arg(0)->Arg(30)->Arg(70);

// One compress() call per iteration on a small file, the unit of a Gear
// push: {size in bytes, compressibility in percent}.
void BM_LzssCompressSmall(benchmark::State& state) {
  Bytes data = test_data(static_cast<std::size_t>(state.range(0)),
                         static_cast<double>(state.range(1)) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LzssCompressSmall)
    ->ArgsProduct({{256, 1024, 4096, 16384}, {0, 50}});

void BM_LzssDecompress(benchmark::State& state) {
  Bytes frame = compress(test_data(262144, 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decompress(frame));
  }
}
BENCHMARK(BM_LzssDecompress);

void BM_TarRoundTrip(benchmark::State& state) {
  vfs::FileTree t = bench_tree(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Bytes archive = tar::archive_tree(t);
    benchmark::DoNotOptimize(tar::extract_tree(archive));
  }
}
BENCHMARK(BM_TarRoundTrip)->Arg(64)->Arg(512);

void BM_LayerFromTree(benchmark::State& state) {
  vfs::FileTree t = bench_tree(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(docker::Layer::from_tree(t));
  }
}
BENCHMARK(BM_LayerFromTree);

void BM_TreeDiff(benchmark::State& state) {
  vfs::FileTree base = bench_tree(512);
  vfs::FileTree target = base;
  target.add_file("dir0/new", to_bytes("x"));
  target.remove("dir1/f1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(vfs::diff_trees(base, target));
  }
}
BENCHMARK(BM_TreeDiff);

void BM_OverlayLookup(benchmark::State& state) {
  vfs::FileTree l0 = bench_tree(512);
  vfs::FileTree l1;
  l1.add_file("dir3/f3", to_bytes("override"));
  docker::OverlayMount mount({&l0, &l1});
  int i = 0;
  for (auto _ : state) {
    std::string path = "dir" + std::to_string(i % 16) + "/f" +
                       std::to_string(i % 512);
    benchmark::DoNotOptimize(mount.lookup(path));
    ++i;
  }
}
BENCHMARK(BM_OverlayLookup);

void BM_IndexSerializeParse(benchmark::State& state) {
  vfs::FileTree t = bench_tree(static_cast<int>(state.range(0)));
  GearIndex index = GearIndex::from_root_fs(
      t, [](const std::string&, const Bytes& content) {
        return default_hasher().fingerprint(content);
      });
  for (auto _ : state) {
    Bytes data = vfs::serialize_tree(index.tree());
    benchmark::DoNotOptimize(vfs::deserialize_tree(data));
  }
}
BENCHMARK(BM_IndexSerializeParse)->Arg(128)->Arg(1024);

void BM_IndexWireRoundTrip(benchmark::State& state) {
  vfs::FileTree t = bench_tree(256);
  GearIndex index = GearIndex::from_root_fs(
      t, [](const std::string&, const Bytes& content) {
        return default_hasher().fingerprint(content);
      });
  for (auto _ : state) {
    vfs::FileTree wire = index.to_wire_tree();
    benchmark::DoNotOptimize(GearIndex::from_wire_tree(wire));
  }
}
BENCHMARK(BM_IndexWireRoundTrip);

}  // namespace

BENCHMARK_MAIN();
