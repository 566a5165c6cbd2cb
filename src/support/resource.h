// Process resource measurement for the memory-sensitive benches.
//
// Two RSS views with different semantics:
//
//   * peak_rss_mb()    — the kernel's high-water mark (getrusage ru_maxrss).
//                        Monotone over the process lifetime: once any phase
//                        has touched N MB the watermark never comes back
//                        down, so it cannot attribute memory to a *variant*
//                        inside a multi-variant bench.
//   * current_rss_mb() — the resident set right now (/proc/self/statm).
//                        Falls when pages are returned to the kernel, which
//                        is what per-variant attribution needs.
//
// RssSampler turns the second into a per-scope watermark: a background
// thread polls current_rss_mb() every few milliseconds and keeps the max,
// so `RssSampler s; run_variant(); s.stop_and_peak_mb()` yields the
// variant's own peak — provided earlier variants' freed pages were actually
// returned first. release_freed_memory() does that (glibc malloc_trim);
// call it between variants or the allocator's retained arenas bleed one
// variant's peak into the next.
//
// Sampling granularity: short-lived spikes between two polls are missed;
// at the default 5 ms period that bounds the blind spot well below the
// multi-second variants the fig8 bench measures. The sampler includes its
// own ~8 KB thread stack in what it measures — noise next to the MB-scale
// deltas it exists to detect.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>

namespace trimcaching::support {

/// Lifetime peak resident set of this process in MB (getrusage ru_maxrss).
/// Monotone; never attributes memory to a phase. -1 if unavailable.
[[nodiscard]] double peak_rss_mb();

/// Resident set of this process right now in MB (/proc/self/statm).
/// -1 on platforms without procfs.
[[nodiscard]] double current_rss_mb();

/// Asks the allocator to return freed heap pages to the kernel so the next
/// RssSampler scope starts from a clean resident set (glibc malloc_trim;
/// no-op elsewhere). Without this, arenas retained from a previous variant
/// inflate the next variant's sampled peak.
void release_freed_memory();

/// Samples current_rss_mb() on a background thread and keeps the maximum —
/// a per-scope RSS watermark for one bench variant.
///
///   support::release_freed_memory();
///   support::RssSampler sampler;
///   run_variant();
///   record.metrics["peak_rss_mb"] = sampler.stop_and_peak_mb();
///
/// Returns -1 when current_rss_mb() is unavailable. Copying is disabled:
/// the sampler owns a thread.
class RssSampler {
 public:
  /// Starts sampling immediately. `period_ms` is the poll interval.
  explicit RssSampler(std::size_t period_ms = 5);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops the sampling thread (idempotent) and returns the peak
  /// current-RSS observed, in MB; -1 if no sample succeeded.
  double stop_and_peak_mb();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_mb_{-1.0};
  std::size_t period_ms_;
  std::thread thread_;
};

}  // namespace trimcaching::support
