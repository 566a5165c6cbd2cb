// Streaming metrics for the serving engine: a fixed-bin latency histogram
// (p50/p95/p99 without retaining per-request samples), counters, and a
// queue-depth time series.
//
// Everything here is mergeable with plain integer/ordered-double addition,
// which is what makes the engine's sharded event loops bit-identical at any
// thread count: each server fills its own ServeMetrics slot, and the final
// reduction folds the slots in ascending server order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/support/units.h"

namespace trimcaching::serve {

/// Log-spaced latency histogram over [100 us, 10 ks) plus under/overflow
/// bins. At 256 bins the geometric bin width is ~7.5%, which bounds the
/// quantile error — plenty for tail reporting, constant memory at 10^7
/// requests (a sorted-sample p99 would hold every download time).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBins = 256;
  static constexpr double kMinSeconds = 1e-4;
  static constexpr double kMaxSeconds = 1e4;

  void add(double seconds) noexcept;
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Latency at quantile q in [0, 1]: the geometric midpoint of the bin
  /// holding the q-th sample (exact bounds for the under/overflow bins).
  /// Returns 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const;

  /// Every bin, exactly.
  [[nodiscard]] bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<std::uint64_t, kBins + 2> counts_{};  // [under | bins | over]
  std::uint64_t total_ = 0;
};

/// Per-shard (and, merged, per-run) serving statistics.
struct ServeMetrics {
  std::uint64_t requests = 0;        ///< issued (served or not)
  std::uint64_t deadline_hits = 0;   ///< download finished within budget
  std::uint64_t late = 0;            ///< finished after the deadline
  std::uint64_t unserved = 0;        ///< no server could take the request, or
                                     ///< the latency budget was already spent
                                     ///< at arrival (never enqueued)
  /// Admissions refused because every inference slot of the serving server
  /// was occupied (ServeConfig::compute_slots); the request degrades to the
  /// cloud and terminates as cloud_served instead of deadline_hits/late.
  std::uint64_t compute_rejects = 0;
  std::uint64_t cloud_served = 0;    ///< terminal state of degraded requests
  std::uint64_t edge_hits = 0;       ///< model fully cached at arrival
  std::uint64_t relays = 0;          ///< backhaul transfers (static: payload
                                     ///< relayed; reactive: cache-on-relay)
  std::uint64_t cloud_fetches = 0;   ///< distinct cloud transfers started
  std::uint64_t merged_fetches = 0;  ///< misses that joined an in-flight fetch
  support::Bytes cloud_bytes = 0;    ///< bytes actually pulled from the cloud
  std::uint64_t cache_evictions = 0;
  std::uint64_t stale_events = 0;    ///< version-stamped finishes discarded

  // Fault accounting (all zero without a ServeConfig::faults schedule).
  std::uint64_t failovers = 0;    ///< arrivals rerouted because the primary
                                  ///< (fault-oblivious) choice was down; a
                                  ///< bookkeeping counter, not a terminal state
  std::uint64_t failed_over = 0;  ///< terminal: in-flight flow killed by its
                                  ///< server's outage while another up warm
                                  ///< holder covering the user survived
  std::uint64_t aborted = 0;      ///< terminal: killed with no surviving
                                  ///< covering warm holder
  std::uint64_t outages = 0;      ///< kServerDown events replayed
  std::uint64_t recoveries = 0;   ///< kServerUp events replayed
  std::uint64_t rewarms = 0;      ///< reactive caches re-warmed to the
                                  ///< threshold fraction after a recovery
  double rewarm_time_s = 0.0;     ///< summed recovery -> re-warm transients

  double download_sum_s = 0.0;       ///< over completed downloads
  LatencyHistogram latency;

  double busy_time_s = 0.0;          ///< per-server busy time, summed
  double flow_time_s = 0.0;          ///< per-server ∫ n(t) dt while busy

  /// Active flows across this shard's servers sampled on a fixed time grid
  /// (ServeConfig::queue_depth_samples points over the duration).
  std::vector<std::uint32_t> queue_depth;

  /// Time-sliced hit-ratio series (ServeConfig::hit_series_windows equal
  /// windows over the duration, keyed by *request* time): per-window issued
  /// requests and deadline hits, so degradation and recovery transients are
  /// visible as window_hits[w] / window_requests[w]. Empty when disabled.
  std::vector<std::uint32_t> window_requests;
  std::vector<std::uint32_t> window_hits;

  [[nodiscard]] std::uint64_t completed() const noexcept {
    return deadline_hits + late;
  }

  /// Every issued request ends in exactly one of these states; the serving
  /// tests assert this partition after every run. failed_over and aborted
  /// only occur under a fault schedule (in-flight flows killed by an
  /// outage); fault-free runs keep the classic four-way partition.
  [[nodiscard]] std::uint64_t terminal() const noexcept {
    return deadline_hits + late + unserved + cloud_served + failed_over + aborted;
  }

  /// Folds `other` into this. Addition only, so reducing shards in a fixed
  /// order yields bit-identical totals for any thread count.
  void merge(const ServeMetrics& other);

  /// Every field, exactly (doubles compared with ==, histogram bin by bin):
  /// the comparison the thread-identity and inert-schedule contracts are
  /// stated in.
  [[nodiscard]] bool operator==(const ServeMetrics&) const = default;
};

}  // namespace trimcaching::serve
