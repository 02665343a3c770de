// Fixed-size worker pool shared by the Gear hot paths (conversion
// fingerprinting/compression and pipelined client materialization).
//
// Design rules, in order of importance:
//  1. Determinism. Parallel results must be byte-identical to the serial
//     path: `parallel_map` always merges results in submission order, and
//     anything order-sensitive (collision resolution, sim cost accounting)
//     stays outside the pool in a single serialized reduce step.
//  2. Backpressure. In-flight work is bounded by `Concurrency
//     .max_inflight_bytes` (à la bounded-memory parallel image pulling):
//     submitters block instead of queueing an unbounded amount of decoded
//     file content.
//  3. Graceful degradation. With one worker (or one core, or tiny inputs)
//     everything runs inline on the calling thread — no threads are spawned,
//     so the serial path is literally the parallel path at width 1.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace gear::util {

/// Concurrency knobs threaded through the converter, conversion service,
/// client and gearctl. The default is "use the machine".
struct Concurrency {
  /// Worker threads; 0 means hardware_concurrency().
  std::size_t workers = 0;
  /// Upper bound on bytes of work admitted into the pool at once (task
  /// payload sizes as reported by the submitter). Submission blocks when
  /// the bound would be exceeded. 0 means unbounded.
  std::uint64_t max_inflight_bytes = 256ull << 20;

  /// Explicit serial configuration (the width-1 pool runs inline).
  static Concurrency serial() { return Concurrency{1, 0}; }

  std::size_t resolved_workers() const {
    if (workers != 0) return workers;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

class ThreadPool {
 public:
  /// `workers` = 0 means hardware_concurrency(). A width-1 pool spawns no
  /// threads; submit() and parallel_* run tasks inline.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return width_; }

  /// Schedules `fn` and returns its future. `payload_bytes` participates in
  /// the backpressure bound passed to the parallel_* helpers; plain submit()
  /// is unbounded.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    if (width_ <= 1) {
      (*task)();  // inline: the width-1 pool IS the serial path
      return fut;
    }
    enqueue([task]() { (*task)(); });
    return fut;
  }

  /// Runs fn(0..n-1) across the workers and blocks until all complete.
  /// At most worker_count() helpers are queued; they and the calling thread
  /// claim indices from one shared counter, and the caller sleeps at most
  /// once, until the last item finishes. The first exception thrown by any
  /// invocation is rethrown here (the remaining tasks still run to
  /// completion). `size_of(i)`, when provided, reports task i's payload for
  /// the `max_inflight_bytes` bound: a claim waits for room, and an
  /// oversized item is admitted alone. A single task (n == 1) runs inline
  /// on the calling thread.
  void parallel_for_each(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::uint64_t max_inflight_bytes = 0,
                         const std::function<std::uint64_t(std::size_t)>&
                             size_of = nullptr);

  /// Deterministic map: out[i] = fn(i), with results merged in submission
  /// order regardless of completion order. Equivalent to a serial loop.
  template <typename Out>
  std::vector<Out> parallel_map(
      std::size_t n, const std::function<Out(std::size_t)>& fn,
      std::uint64_t max_inflight_bytes = 0,
      const std::function<std::uint64_t(std::size_t)>& size_of = nullptr) {
    std::vector<Out> out(n);
    parallel_for_each(
        n, [&](std::size_t i) { out[i] = fn(i); }, max_inflight_bytes,
        size_of);
    return out;
  }

 private:
  struct ForEach;  // one parallel_for_each call's shared claim state

  void enqueue(std::function<void()> task);
  void worker_loop();

  std::size_t width_;
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gear::util
