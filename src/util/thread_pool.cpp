#include "util/thread_pool.hpp"

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

  // Lives on the caller's stack: we block below until every task finished.
  struct State {
    std::mutex mu;
    std::condition_variable room;  // submitter waits for inflight headroom
    std::condition_variable done;  // submitter waits for completion
    std::uint64_t inflight_bytes = 0;
    std::size_t completed = 0;
    std::exception_ptr first_error;
  } state;

  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bytes = size_of ? size_of(i) : 0;
    if (max_inflight_bytes != 0) {
      std::unique_lock<std::mutex> lock(state.mu);
      // An oversized task is admitted alone rather than deadlocking.
      state.room.wait(lock, [&] {
        return state.inflight_bytes == 0 ||
               state.inflight_bytes + bytes <= max_inflight_bytes;
      });
      state.inflight_bytes += bytes;
    }
    enqueue([&state, &fn, i, bytes] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state.mu);
        if (!state.first_error) state.first_error = std::current_exception();
      }
      // Notify while holding the lock: the waiter owns `state` on its
      // stack and may destroy it the moment the predicate holds, so the
      // condvars must not be touched after this mutex is released.
      std::lock_guard<std::mutex> lock(state.mu);
      state.inflight_bytes -= bytes;
      ++state.completed;
      state.room.notify_one();
      state.done.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&] { return state.completed == n; });
  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace gear::util
