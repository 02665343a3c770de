#include "util/thread_pool.hpp"

#include <algorithm>
#include <memory>

namespace gear::util {

ThreadPool::ThreadPool(std::size_t workers)
    : width_(workers != 0 ? workers : Concurrency{}.resolved_workers()) {
  if (width_ <= 1) return;  // inline mode: no threads
  threads_.reserve(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// One parallel_for_each call. Helpers hold it through a shared_ptr, so a
// helper dequeued after the caller has returned still finds every index
// claimed here; it reaches `fn` and `size_of`, which live on the caller's
// stack, only through an index it claims, and the caller cannot return
// while a claimed index is unfinished.
struct ThreadPool::ForEach {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::uint64_t max_inflight_bytes = 0;
  const std::function<std::uint64_t(std::size_t)>* size_of = nullptr;

  std::mutex mu;                 // guards everything below
  std::condition_variable room;  // claimers wait for in-flight headroom
  std::condition_variable done;  // the caller waits for the last item
  std::size_t next = 0;          // next index to claim
  std::size_t completed = 0;     // items finished
  std::uint64_t inflight_bytes = 0;
  std::exception_ptr first_error;

  // Claims the next index into *i and its payload into *bytes, waiting for
  // room under the byte bound; false once every index is claimed.
  bool claim(std::unique_lock<std::mutex>& lock, std::size_t* i,
             std::uint64_t* bytes) {
    for (;;) {
      if (next >= n) return false;
      const std::uint64_t b =
          max_inflight_bytes != 0 && *size_of ? (*size_of)(next) : 0;
      // An oversized item is admitted alone rather than deadlocking.
      if (max_inflight_bytes == 0 || inflight_bytes == 0 ||
          inflight_bytes + b <= max_inflight_bytes) {
        inflight_bytes += b;
        *i = next++;
        *bytes = b;
        return true;
      }
      room.wait(lock);
    }
  }

  // Claims and runs items until none is left, taking the lock once per
  // item to finish one and claim the next. Whoever finishes the last item
  // wakes the caller.
  void run() {
    std::unique_lock<std::mutex> lock(mu);
    std::size_t i = 0;
    std::uint64_t bytes = 0;
    while (claim(lock, &i, &bytes)) {
      lock.unlock();
      std::exception_ptr error;
      try {
        (*fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !first_error) first_error = error;
      inflight_bytes -= bytes;
      if (max_inflight_bytes != 0) room.notify_all();
      if (++completed == n) done.notify_one();
    }
  }
};

void ThreadPool::parallel_for_each(
    std::size_t n, const std::function<void(std::size_t)>& fn,
    std::uint64_t max_inflight_bytes,
    const std::function<std::uint64_t(std::size_t)>& size_of) {
  if (n == 0) return;
  // A single task gains nothing from a hand-off to a worker, so it runs
  // inline like the width-1 pool (a batch of one costs a direct call).
  if (width_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForEach>();
  state->n = n;
  state->fn = &fn;
  state->max_inflight_bytes = max_inflight_bytes;
  state->size_of = &size_of;
  // The caller claims too, so n - 1 helpers can keep every item busy.
  const std::size_t helpers = std::min(width_, n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([state] { state->run(); });
  }
  state->run();

  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] { return state->completed == n; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace gear::util
