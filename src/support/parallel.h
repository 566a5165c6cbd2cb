// Deterministic parallel runtime: a small shared thread pool, a parallel_for
// index loop with a static-chunk variant, and bounded per-thread scratch
// arenas.
//
// The engine guarantees *bit-identical* results for any thread count by
// construction: callers shard work per index, every index writes only its
// own output slot, and per-index randomness is derived counter-based with
// Rng::at (never by drawing from a shared engine). parallel_for only
// distributes indices; it imposes no ordering, so reductions must happen
// sequentially over the filled output array afterwards.
//
// Nested parallel_for calls from inside a worker run serially in the
// calling worker (no deadlock, no oversubscription): the outer level owns
// the parallelism. Thread counts above the hardware concurrency are allowed
// — the pool oversubscribes; results are unchanged, only the speedup caps.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

namespace trimcaching::support {

/// Hardware concurrency, at least 1.
[[nodiscard]] std::size_t hardware_threads() noexcept;

/// Resolves a requested thread count: 0 means "auto" (hardware_threads());
/// any other value is taken as-is.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested) noexcept;

/// Ceiling on every thread-count knob (the `threads=` option of the CLI and
/// benches, a solver's `threads` option). The pool starts one OS thread per
/// requested executor, so larger values are rejected, not spawned.
inline constexpr std::size_t kMaxThreads = 1024;

/// Runs body(i) for every i in [0, n) using up to `threads` concurrent
/// executors from the shared pool (threads == 0 -> hardware concurrency).
/// Runs inline (serially) when threads <= 1, n <= 1, or when called from
/// inside another parallel_for. The first exception thrown by `body` is
/// rethrown in the caller after all indices finish or are abandoned.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

/// Runs body(begin, end) over a static contiguous partition of [0, n) into
/// at most `threads` chunks (sizes differ by at most one index). Unlike
/// parallel_for's per-index dynamic sharding, the chunk boundaries depend
/// only on (n, threads), and each chunk is one contiguous range — what
/// EvalPlan's fading pass needs to group realizations into lane blocks.
/// Inherits parallel_for's serial rules (threads <= 1, n == 0, nested).
void parallel_for_chunks(std::size_t n, std::size_t threads,
                         const std::function<void(std::size_t, std::size_t)>& body);

/// Per-thread scratch buffers addressed by a small slot index. Replaces the
/// ad-hoc `static thread_local std::vector` pattern: buffers are reused
/// across calls (no per-realization allocation on the hot path) but bounded —
/// a request far below a slot's grown capacity shrinks it back, so one huge
/// scenario cannot pin memory in every worker forever.
class WorkerArena {
 public:
  /// A buffer of exactly `n` doubles for `slot`, reused call to call.
  /// Contents are unspecified on entry. Shrinks the underlying allocation
  /// when it is oversized (capacity > 4096 doubles and more than 4x the
  /// request); grows it geometrically otherwise.
  [[nodiscard]] std::vector<double>& doubles(std::size_t slot, std::size_t n);

  /// Releases every slot's memory entirely.
  void release() noexcept;

 private:
  // deque: growing one slot must not move the others — callers hold
  // references to several slots' buffers at once.
  std::deque<std::vector<double>> slots_;
};

/// The calling thread's arena (created on first use, registered globally so
/// trim_worker_arenas can reach it). Stable for the life of the thread.
[[nodiscard]] WorkerArena& this_worker_arena();

/// Releases the scratch memory of every thread's arena. Callers must be
/// quiescent: no parallel region may be running (the arenas are not locked
/// against their owning threads).
void trim_worker_arenas();

}  // namespace trimcaching::support
