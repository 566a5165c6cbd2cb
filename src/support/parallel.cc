#include "src/support/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace trimcaching::support {

namespace {

thread_local bool tl_in_region = false;

// Lazily-grown shared worker pool. Workers pull whole shard tasks; each
// shard task pulls indices from the parallel_for call's atomic counter, so
// load balancing is dynamic while outputs stay per-index deterministic.
class ThreadPool {
 public:
  static ThreadPool& global() {
    static ThreadPool pool;
    return pool;
  }

  /// Grows the pool to at least `count` workers (never shrinks).
  void ensure_workers(std::size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < count) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

 private:
  ThreadPool() = default;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ set and nothing left to run
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t resolve_threads(std::size_t requested) noexcept {
  return requested == 0 ? hardware_threads() : requested;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  threads = resolve_threads(threads);
  if (n == 0) return;
  if (threads <= 1 || n <= 1 || tl_in_region) {
    // Inline path. Deliberately does NOT mark a region: a degenerate outer
    // loop (n == 1 with threads > 1) must not steal parallelism from nested
    // loops, and an explicit threads=1 outer loop already passes its thread
    // count down. Only pool shards set the region flag.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t finished = 0;
    std::exception_ptr error;
  } state;

  const std::size_t shards = std::min(threads, n);
  auto shard = [&state, &body, n] {
    tl_in_region = true;
    try {
      for (std::size_t i;
           (i = state.next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!state.error) state.error = std::current_exception();
      state.next.store(n);  // abandon unclaimed indices
    }
    tl_in_region = false;
    {
      // Notify under the lock: once the caller observes finished == shards
      // it destroys `state`, so the notify must not touch it after unlock.
      std::lock_guard<std::mutex> lock(state.mutex);
      ++state.finished;
      state.done.notify_one();
    }
  };

  auto& pool = ThreadPool::global();
  pool.ensure_workers(shards);
  for (std::size_t s = 0; s < shards; ++s) pool.submit(shard);

  std::unique_lock<std::mutex> lock(state.mutex);
  state.done.wait(lock, [&state, shards] { return state.finished == shards; });
  if (state.error) std::rethrow_exception(state.error);
}

void parallel_for_chunks(std::size_t n, std::size_t threads,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  threads = resolve_threads(threads);
  if (n == 0) return;
  const std::size_t chunks = std::min(threads, n);
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;  // first `extra` chunks get one more
  parallel_for(chunks, threads, [&](std::size_t c) {
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t end = begin + base + (c < extra ? 1 : 0);
    body(begin, end);
  });
}

std::vector<double>& WorkerArena::doubles(std::size_t slot, std::size_t n) {
  while (slot >= slots_.size()) slots_.emplace_back();
  std::vector<double>& buffer = slots_[slot];
  // Shrink policy: a buffer well above both the floor and the current
  // request gives its memory back before being reused. vector::resize never
  // shrinks capacity on its own, which is exactly the unbounded-growth
  // failure mode this class exists to fix.
  if (buffer.capacity() > 4096 && buffer.capacity() / 4 > n) {
    buffer.clear();
    buffer.shrink_to_fit();
  }
  buffer.resize(n);
  return buffer;
}

void WorkerArena::release() noexcept { slots_.clear(); }

namespace {

// Registry of every thread's arena, for trim_worker_arenas. Leaked on
// purpose: pool workers (and their thread_local pointers into the registry)
// can outlive any static with a destructor, so the registry must never be
// torn down.
struct ArenaRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<WorkerArena>> arenas;
};

ArenaRegistry& arena_registry() {
  static ArenaRegistry* registry = new ArenaRegistry;
  return *registry;
}

}  // namespace

WorkerArena& this_worker_arena() {
  thread_local WorkerArena* arena = nullptr;
  if (arena == nullptr) {
    ArenaRegistry& registry = arena_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.arenas.push_back(std::make_unique<WorkerArena>());
    arena = registry.arenas.back().get();
  }
  return *arena;
}

void trim_worker_arenas() {
  ArenaRegistry& registry = arena_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (auto& arena : registry.arenas) arena->release();
}

}  // namespace trimcaching::support
