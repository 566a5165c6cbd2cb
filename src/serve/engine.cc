#include "src/serve/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/serve/cache_policy.h"
#include "src/sim/fault_model.h"
#include "src/support/parallel.h"
#include "src/support/units.h"
#include "src/wireless/channel.h"

namespace trimcaching::serve {

void ServeConfig::validate() const {
  // An infinite rate or duration never ends generation's arrival loop; a NaN
  // one silently issues nothing.
  for (const auto& [name, value] :
       {std::pair{"arrival_rate_per_user", arrival_rate_per_user},
        std::pair{"duration_s", duration_s},
        std::pair{"cloud_rate_bps", cloud_rate_bps}}) {
    if (!std::isfinite(value) || value <= 0) {
      throw std::invalid_argument(std::string("ServeConfig: ") + name +
                                  " must be finite and > 0 (got " +
                                  std::to_string(value) + ")");
    }
  }
  if (std::isnan(rewarm_fraction) || rewarm_fraction <= 0 || rewarm_fraction > 1) {
    throw std::invalid_argument("ServeConfig: rewarm fraction must be in (0, 1]");
  }
  (void)make_cache_policy(policy);  // throws on unknown spec
}

namespace {

/// Counter-based stream id: user k's whole request trace (arrival gaps,
/// model draws, fading gains) comes from seed.at(kUserStream, k).
constexpr std::uint64_t kUserStream = 0x5e42e7e5;

/// How a routed request reaches its payload. Routing happens at generation
/// time against the *warm* (initial) cache state only, so the per-server
/// replay shards stay independent; reactive routes are then re-resolved
/// against live cache state inside the shard.
enum class Route : std::uint8_t {
  kBestCovering,  ///< reactive: hit/miss re-resolved against live cache state
  kDirect,        ///< static: serving server fully caches the model
  kRelay,         ///< static: payload crosses the backhaul first
};

struct Request {
  double time = 0.0;
  UserId user = 0;
  ModelId model = 0;
  double spectral_efficiency = 0.0;  ///< bits/s/Hz on the chosen downlink
  Route route = Route::kBestCovering;
  /// The model's slot in the user's RequestModel support, so the replay
  /// reads its QoS without a search. Sits in what was padding.
  std::uint32_t slot = 0;
};
static_assert(sizeof(Request) == 32, "Request must stay 32 bytes");

/// A stage-1 routing decision: the serving server (kInvalidId = none), the
/// spectral efficiency of its link, and whether it holds the model warm.
struct RoutePick {
  ServerId server = kInvalidId;
  double se = 0.0;
  bool direct = false;
};

struct Flow {
  double request_time = 0.0;
  double budget_s = 0.0;      ///< deadline minus inference latency
  double work = 0.0;          ///< download bits / spectral efficiency (Hz·s)
  double inference_s = 0.0;   ///< edge inference service time (slot hold)
  UserId user = 0;            ///< failover classification on an outage
  ModelId model = 0;
};

enum class EventKind : std::uint8_t {
  kFlowStart,
  kFlowFinish,
  kInferFinish,
  kServerDown,  ///< outage begins: kill in-flight work, mark the shard down
  kServerUp,    ///< recovery: the cache restarts cold
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kFlowStart;
  std::size_t flow = 0;
  /// kFlowFinish: schedule version (stale-finish detection). kFlowStart and
  /// kInferFinish: outage epoch — a transfer or inference slot opened before
  /// a kServerDown died with it, so a mismatched pop is discarded (the flow
  /// is classified failed_over/aborted instead of attaching). Both stamps
  /// are 0 forever in a fault-free run, preserving byte identity.
  std::uint64_t version = 0;

  bool operator>(const Event& other) const { return time > other.time; }
};

/// One server's replay: an independent processor-sharing queue fed by its
/// (time-sorted) request bucket, with its own cache policy, pending-fetch
/// merge map and metrics slot.
///
/// Processor sharing is simulated in virtual time: every active flow's rate
/// is (B/n)·SE, so its normalized work (bits/SE) drains at the common rate
/// B/n and the finish *order* is fixed at attach time. The loop keeps the
/// active flows in a set ordered by drain key (virtual time at attach plus
/// normalized work) and schedules a single versioned finish event for the
/// front flow — O(log n) per event instead of rescheduling all n flows on
/// every change, which is what lets one run replay 10^6+ requests.
class ServerLoop {
 public:
  ServerLoop(const wireless::NetworkTopology& topology,
             const model::ModelLibrary& library,
             const workload::RequestModel& requests, const ServeConfig& config,
             CachePolicy& policy, const std::vector<char>& relayable,
             std::vector<Request> bucket, ServerId self,
             const sim::FaultSchedule* faults,
             const std::vector<std::vector<ServerId>>* warm_holders,
             const std::vector<ModelId>* warm_models)
      : topology_(&topology),
        library_(&library),
        requests_(&requests),
        config_(&config),
        policy_(&policy),
        relayable_(&relayable),
        reactive_(policy.reactive()),
        bandwidth_hz_(topology.radio().total_bandwidth_hz),
        compute_slots_(config.compute_slots),
        self_(self),
        faults_(faults),
        warm_holders_(warm_holders),
        warm_models_(warm_models),
        warm_bytes_(policy.used_bytes()),
        bucket_(std::move(bucket)) {
    // The bucket arrives in issue order, so a stable sort on time breaks
    // timestamp ties by issue order.
    std::stable_sort(bucket_.begin(), bucket_.end(),
                     [](const Request& a, const Request& b) { return a.time < b.time; });
    if (config.queue_depth_samples > 0) {
      metrics_.queue_depth.reserve(config.queue_depth_samples);
    }
    if (config.hit_series_windows > 0) {
      metrics_.window_hits.assign(config.hit_series_windows, 0);
    }
    if (faults_ != nullptr) {
      rewarm_threshold_ = static_cast<support::Bytes>(
          config.rewarm_fraction * static_cast<double>(warm_bytes_));
      // The shard's whole outage trajectory is known up front; replaying it
      // as ordinary queue events keeps one loop and one tie-break rule (a
      // down/up boundary at an arrival's timestamp is processed first, the
      // exact convention generation's is_up() check assumes: down on
      // [begin, end), up again at end).
      for (const sim::FaultInterval& outage : faults_->outages(self_)) {
        queue_.push(Event{outage.begin_s, EventKind::kServerDown, 0, 0});
        queue_.push(Event{outage.end_s, EventKind::kServerUp, 0, 0});
      }
    }
  }

  ServeMetrics run() {
    std::size_t next = 0;
    while (next < bucket_.size() || !queue_.empty()) {
      // Simultaneous queue event vs arrival: the queue event goes first (a
      // fixed rule, so replay order never depends on scheduling).
      if (!queue_.empty() &&
          (next >= bucket_.size() || queue_.top().time <= bucket_[next].time)) {
        const Event event = queue_.top();
        queue_.pop();
        sample_queue_depth(event.time);
        switch (event.kind) {
          case EventKind::kFlowStart:
            if (event.version == epoch_) {
              attach_flow(event.flow, event.time);
            } else {
              // The transfer this start was waiting on died with an outage.
              classify_killed(event.flow, event.time);
            }
            break;
          case EventKind::kFlowFinish:
            if (event.version == schedule_version_) {
              finish_flow(event.time);
            } else {
              ++metrics_.stale_events;
            }
            break;
          case EventKind::kInferFinish:
            if (event.version == epoch_) {
              --inferences_active_;  // slot held since admission
            } else {
              ++metrics_.stale_events;  // slot already reset by the outage
            }
            break;
          case EventKind::kServerDown:
            handle_outage(event.time);
            break;
          case EventKind::kServerUp:
            handle_recovery(event.time);
            break;
        }
      } else {
        const Request& request = bucket_[next++];
        sample_queue_depth(request.time);
        handle_arrival(request);
      }
    }
    // Grid points past the last event see an empty server.
    sample_queue_depth(config_->duration_s * 2.0 + 1.0);
    metrics_.cache_evictions = policy_->evictions();
    return std::move(metrics_);
  }

 private:
  void handle_arrival(const Request& request) {
    const double now = request.time;
    const ModelId i = request.model;
    // Unreachable under the generation contract (arrivals are only routed to
    // servers up at their timestamp, and boundary events at the same time
    // are processed first); kept as a terminal-partition-preserving guard.
    if (down_) {
      ++metrics_.unserved;
      return;
    }
    policy_->on_request(i, now);

    Flow flow;
    flow.request_time = now;
    flow.user = request.user;
    flow.model = i;
    const workload::RequestModel::Support support = requests_->support_of(request.user);
    flow.inference_s = support.inference_s[request.slot];
    flow.budget_s = support.deadline_s[request.slot] - flow.inference_s;
    // A non-positive budget can never be met: count it unserved at attach
    // instead of enqueueing a flow that is guaranteed to finish late (and
    // would meanwhile steal bandwidth from flows that could still hit).
    if (flow.budget_s <= 0.0) {
      ++metrics_.unserved;
      return;
    }
    // Compute admission: a request holds one inference slot from admission
    // until its inference completes. A saturated server rejects to the
    // cloud — the warm-hit bytes are useless without compute headroom.
    if (compute_slots_ > 0) {
      if (inferences_active_ >= compute_slots_) {
        ++metrics_.compute_rejects;
        ++metrics_.cloud_served;
        return;
      }
      ++inferences_active_;
    }
    flow.work = support::bits(library_->model_size(i)) / request.spectral_efficiency;
    flows_.push_back(flow);
    const std::size_t idx = flows_.size() - 1;

    if (request.route == Route::kDirect) {
      ++metrics_.edge_hits;
      attach_flow(idx, now);
      return;
    }
    if (!reactive_) {
      // Static relay: the payload crosses the backhaul, the cache is
      // untouched (the placement stays authoritative forever).
      ++metrics_.relays;
      const double backhaul_delay =
          support::bits(library_->model_size(i)) / edge_backhaul_bps(now);
      queue_.push(Event{now + backhaul_delay, EventKind::kFlowStart, idx, epoch_});
      return;
    }

    // Reactive: resolve against live cache state, merging concurrent misses
    // for one model into a single transfer (backhaul or cloud).
    const support::Bytes missing = policy_->missing_bytes(i);
    const auto pending = pending_fetch_.find(i);
    const bool in_flight = pending != pending_fetch_.end() && pending->second > now;
    if (missing == 0) {
      if (in_flight) {
        // Admitted optimistically by an earlier miss whose transfer is still
        // on the wire: ride it instead of pretending the blocks are local.
        ++metrics_.merged_fetches;
        queue_.push(Event{pending->second, EventKind::kFlowStart, idx, epoch_});
      } else {
        ++metrics_.edge_hits;
        attach_flow(idx, now);
      }
      return;
    }
    double ready = 0.0;
    if (relay_source_up(i, now)) {
      // Cache-on-relay: the warm placement put this model somewhere (still
      // up, under a fault schedule), so the missing blocks are pulled over
      // the backhaul (not the cloud) and admitted — the first relay pays the
      // price a static cache pays on every one, then the model serves
      // locally.
      ++metrics_.relays;
      ready = now + support::bits(missing) / edge_backhaul_bps(now);
    } else {
      ++metrics_.cloud_fetches;
      metrics_.cloud_bytes += missing;
      ready = now + support::bits(missing) / config_->cloud_rate_bps;
    }
    // Blocks evicted while their model's transfer was still in flight: the
    // new transfer completes no earlier than the one it overlaps.
    if (in_flight) ready = std::max(ready, pending->second);
    pending_fetch_[i] = ready;
    policy_->admit(i, now);
    check_rewarmed(now);
    queue_.push(Event{ready, EventKind::kFlowStart, idx, epoch_});
  }

  /// Effective edge backhaul rate at `now`: scaled by the schedule's
  /// brownout factor. The multiply only exists under a fault schedule, so a
  /// fault-free replay keeps the exact original arithmetic.
  [[nodiscard]] double edge_backhaul_bps(double now) const {
    const double base = topology_->radio().backhaul_bps;
    return faults_ == nullptr ? base : base * faults_->backhaul_factor(now);
  }

  /// A warm holder of model i that could source a relay right now. Without
  /// faults this is the precomputed static relay-source set; with faults a
  /// holder must also be up at `now`.
  [[nodiscard]] bool relay_source_up(ModelId i, double now) const {
    if (faults_ == nullptr) return (*relayable_)[i] != 0;
    for (const ServerId holder : (*warm_holders_)[i]) {
      if (faults_->is_up(holder, now)) return true;
    }
    return false;
  }

  /// Terminal classification of a flow killed by this server's outage:
  /// failed_over when another up warm holder covering the user survives (a
  /// real deployment would re-dispatch there), aborted when nothing does.
  void classify_killed(std::size_t idx, double now) {
    const Flow& flow = flows_[idx];
    bool survivable = false;
    const auto& cover = topology_->servers_covering(flow.user);
    for (const ServerId holder : (*warm_holders_)[flow.model]) {
      if (holder == self_ || !faults_->is_up(holder, now)) continue;
      if (std::binary_search(cover.begin(), cover.end(), holder)) {
        survivable = true;
        break;
      }
    }
    if (survivable) {
      ++metrics_.failed_over;
    } else {
      ++metrics_.aborted;
    }
  }

  void handle_outage(double now) {
    ++metrics_.outages;
    advance(now);
    down_ = true;
    ++epoch_;  // queued transfers and inference slots die with the server
    for (const auto& entry : active_) classify_killed(entry.second, now);
    active_.clear();
    pending_fetch_.clear();
    inferences_active_ = 0;
    rewarm_pending_ = false;  // died again before re-warming
    schedule_next(now);       // version bump: outstanding finishes go stale
  }

  void handle_recovery(double now) {
    ++metrics_.recoveries;
    down_ = false;
    policy_->restart();  // cold cache: nothing survives the power cycle
    if (reactive_) {
      // Re-warm through the normal admit-on-miss machinery; measure the
      // transient until the warm footprint is substantially restored.
      rewarm_pending_ = rewarm_threshold_ > 0;
      rewarm_start_ = now;
    } else {
      // A static cache has no refill path (misses relay, never admit): model
      // the operator re-pushing the placement as part of the restart.
      policy_->warm(*warm_models_);
    }
  }

  void check_rewarmed(double now) {
    if (!rewarm_pending_ || policy_->used_bytes() < rewarm_threshold_) return;
    metrics_.rewarm_time_s += now - rewarm_start_;
    ++metrics_.rewarms;
    rewarm_pending_ = false;
  }

  /// Advances the busy/flow-time integrals and the virtual drain clock to
  /// `now` (piecewise linear: the active count is constant between changes).
  void advance(double now) {
    const double elapsed = now - last_change_;
    const auto n = static_cast<double>(active_.size());
    if (elapsed > 0 && !active_.empty()) {
      metrics_.busy_time_s += elapsed;
      metrics_.flow_time_s += elapsed * n;
      virtual_time_ += elapsed * bandwidth_hz_ / n;
    }
    last_change_ = now;
  }

  /// (Re)schedules the single outstanding finish event for the front flow;
  /// any previously scheduled finish goes stale via the version bump.
  void schedule_next(double now) {
    ++schedule_version_;
    if (active_.empty()) return;
    const double gap = std::max(0.0, (active_.begin()->first - virtual_time_) *
                                         static_cast<double>(active_.size()) /
                                         bandwidth_hz_);
    queue_.push(Event{now + gap, EventKind::kFlowFinish, active_.begin()->second,
                      schedule_version_});
  }

  void attach_flow(std::size_t idx, double now) {
    advance(now);
    active_.insert({virtual_time_ + flows_[idx].work, idx});
    schedule_next(now);
  }

  void finish_flow(double now) {
    advance(now);
    const auto front = active_.begin();
    const Flow& flow = flows_[front->second];
    const double download = now - flow.request_time;
    metrics_.download_sum_s += download;
    metrics_.latency.add(download);
    if (download <= flow.budget_s) {
      ++metrics_.deadline_hits;
      if (!metrics_.window_hits.empty()) {
        ++metrics_.window_hits[hit_window(flow.request_time)];
      }
    } else {
      ++metrics_.late;
    }
    if (compute_slots_ > 0) {
      // Release the admission slot once the edge inference completes.
      queue_.push(Event{now + flow.inference_s, EventKind::kInferFinish,
                        front->second, epoch_});
    }
    active_.erase(front);
    schedule_next(now);
  }

  /// Hit-series window of a request timestamp (requests land on the window
  /// grid by *arrival* time, so a recovery transient shows where the demand
  /// arrived, not where its download finished).
  [[nodiscard]] std::size_t hit_window(double t) const {
    const std::size_t windows = config_->hit_series_windows;
    const auto w = static_cast<std::size_t>(t / config_->duration_s *
                                            static_cast<double>(windows));
    return std::min(windows - 1, w);
  }

  /// Records the active-flow count for every grid point strictly before
  /// `now` that has not been sampled yet (events are processed in time
  /// order, so the count is exact at each grid time).
  void sample_queue_depth(double now) {
    const std::size_t samples = config_->queue_depth_samples;
    while (metrics_.queue_depth.size() < samples) {
      const double grid_time = static_cast<double>(metrics_.queue_depth.size()) *
                               config_->duration_s / static_cast<double>(samples);
      if (grid_time >= now) break;
      metrics_.queue_depth.push_back(static_cast<std::uint32_t>(active_.size()));
    }
  }

  const wireless::NetworkTopology* topology_;
  const model::ModelLibrary* library_;
  const workload::RequestModel* requests_;
  const ServeConfig* config_;
  CachePolicy* policy_;
  const std::vector<char>* relayable_;
  bool reactive_ = false;
  double bandwidth_hz_ = 0.0;
  std::size_t compute_slots_ = 0;   ///< 0 = unlimited (no admission control)
  std::size_t inferences_active_ = 0;
  ServerId self_ = 0;
  const sim::FaultSchedule* faults_ = nullptr;  ///< nullptr = fault-free replay
  const std::vector<std::vector<ServerId>>* warm_holders_ = nullptr;
  const std::vector<ModelId>* warm_models_ = nullptr;  ///< placement re-push
  support::Bytes warm_bytes_ = 0;          ///< warm-placement footprint
  support::Bytes rewarm_threshold_ = 0;    ///< bytes counting as re-warmed
  bool down_ = false;
  bool rewarm_pending_ = false;
  double rewarm_start_ = 0.0;
  std::uint64_t epoch_ = 0;  ///< bumped per outage; stamps starts/slots
  std::vector<Request> bucket_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::vector<Flow> flows_;
  /// Active flows by (drain key, flow); begin() always finishes next.
  std::set<std::pair<double, std::size_t>> active_;
  std::unordered_map<ModelId, double> pending_fetch_;  ///< model -> ready time
  double virtual_time_ = 0.0;  ///< integral of B/n over busy time (Hz·s)
  double last_change_ = 0.0;
  std::uint64_t schedule_version_ = 0;
  ServeMetrics metrics_;
};

/// Stationary per-user sampling CDF over the RequestModel's p > 0 support:
/// cumulative[s] is the mass of the user's slots 0..s.
struct UserCdf {
  std::vector<double> cumulative;

  /// Draws a support slot.
  [[nodiscard]] std::uint32_t sample(support::Rng& rng) const {
    const double x = rng.uniform(0.0, cumulative.back());
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), x);
    return static_cast<std::uint32_t>(std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative.begin()), cumulative.size() - 1));
  }
};

}  // namespace

ServeResult simulate_serving(const wireless::NetworkTopology& topology,
                             const model::ModelLibrary& library,
                             const workload::RequestModel& requests,
                             const core::PlacementSolution& placement,
                             const ServeConfig& config, const support::Rng& seed) {
  config.validate();
  if (placement.num_servers() != topology.num_servers() ||
      placement.num_models() != library.num_models() ||
      requests.num_users() != topology.num_users()) {
    throw std::invalid_argument("simulate_serving: dimension mismatch");
  }
  if (config.drift != nullptr) {
    if (config.drift->num_models() != library.num_models()) {
      throw std::invalid_argument("simulate_serving: drift/library model count mismatch");
    }
    // Drift may draw any model for any user, and QoS exists only on the
    // p > 0 support: every support must be the whole library, where a
    // model's slot is its id.
    for (UserId k = 0; k < requests.num_users(); ++k) {
      if (requests.requested_models(k).size() != library.num_models()) {
        throw std::invalid_argument(
            "simulate_serving: drift needs every user to request the whole library, "
            "but user " + std::to_string(k) + " requests " +
            std::to_string(requests.requested_models(k).size()) + " of " +
            std::to_string(library.num_models()) +
            " models (set models_per_user = 0 and a Zipf exponent whose pmf does "
            "not underflow)");
      }
    }
  }
  if (config.faults != nullptr &&
      config.faults->num_servers() != topology.num_servers()) {
    throw std::invalid_argument(
        "simulate_serving: fault schedule/topology server count mismatch");
  }
  // Inert schedules collapse to nullptr up front, so "no faults configured"
  // and "a schedule that happens to contain no faults" run the exact same
  // code path — byte-identical results by construction.
  const sim::FaultSchedule* faults =
      config.faults != nullptr && !config.faults->inert() ? config.faults : nullptr;

  const std::size_t num_servers = topology.num_servers();
  const std::size_t num_users = topology.num_users();

  // One cache per server, seeded from the offline placement.
  std::vector<std::unique_ptr<CachePolicy>> policies;
  policies.reserve(num_servers);
  for (ServerId m = 0; m < num_servers; ++m) {
    policies.push_back(make_cache_policy(config.policy));
    policies.back()->bind(library, topology.capacity(m));
    policies.back()->warm(placement.models_on(m));
  }
  const bool reactive = num_servers > 0 && policies.front()->reactive();

  // Per-link spectral efficiency at mean channel. SNR is share-invariant
  // (power and bandwidth shares scale together), so the CSR mean SNR equals
  // the full-band SNR and the share enters only through the flow rate.
  const auto& offsets = topology.covering_offsets();
  const auto& covering = topology.covering_flat();
  const auto& snr = topology.link_mean_snr();
  std::vector<double> mean_se(snr.size());
  for (std::size_t l = 0; l < snr.size(); ++l) mean_se[l] = std::log2(1.0 + snr[l]);

  std::vector<UserCdf> cdfs;
  if (config.drift == nullptr) {
    cdfs.resize(num_users);
    for (UserId k = 0; k < num_users; ++k) {
      double acc = 0.0;
      for (const double p : requests.support_of(k).probability) {
        acc += p;
        cdfs[k].cumulative.push_back(acc);
      }
    }
  }

  // Routing consults the warm (initial) cache state only, so it can be
  // tabulated once: warm_cached[m * I + i] = server m's warm cache fully
  // holds model i, and relayable[i] = some server's does (the relay source
  // set; for a static cache this never changes, for a reactive one the
  // replay re-resolves live state inside the shard).
  const std::size_t num_models = library.num_models();
  std::vector<char> warm_cached(num_servers * num_models);
  std::vector<char> relayable(num_models, 0);
  for (ServerId m = 0; m < num_servers; ++m) {
    for (ModelId i = 0; i < num_models; ++i) {
      const char cached = policies[m]->fully_cached(i) ? 1 : 0;
      warm_cached[m * num_models + i] = cached;
      if (cached) relayable[i] = 1;
    }
  }
  const auto warm_holds = [&](ServerId m, ModelId i) {
    return warm_cached[m * num_models + i] != 0;
  };
  // Per-model warm-holder lists, only materialized under a fault schedule:
  // failover routing, live relay-source checks and killed-flow
  // classification all ask "which holders of i survive at time t".
  std::vector<std::vector<ServerId>> warm_holders;
  if (faults != nullptr) {
    warm_holders.resize(num_models);
    for (ServerId m = 0; m < num_servers; ++m) {
      for (ModelId i = 0; i < num_models; ++i) {
        if (warm_cached[m * num_models + i] != 0) warm_holders[i].push_back(m);
      }
    }
  }

  // Stage 1: block-parallel trace generation. Users are split into
  // contiguous blocks; each block fills its own per-server pieces and its own
  // generation counters. Every user draws only from its own stream, so a
  // block's output does not depend on which worker runs it, and reading the
  // pieces back in block order reproduces a user-by-user pass exactly.
  const std::size_t windows = config.hit_series_windows;
  // One user's arrivals, routed into `pieces` and counted in `generation`.
  const auto generate_user = [&](UserId k, std::vector<std::vector<Request>>& pieces,
                                 ServeMetrics& generation) {
    support::Rng rng = seed.at(kUserStream, k);
    const std::size_t begin = offsets[k];
    const std::size_t end = offsets[k + 1];
    const std::span<const ModelId> models = requests.requested_models(k);
    for (double t = rng.exponential(config.arrival_rate_per_user);
         t <= config.duration_s; t += rng.exponential(config.arrival_rate_per_user)) {
      // Under drift every support is the whole library, so a model's slot
      // is its id.
      const std::uint32_t slot = config.drift != nullptr ? config.drift->sample(t, rng)
                                                         : cdfs[k].sample(rng);
      const ModelId i = config.drift != nullptr ? slot : models[slot];
      const double gain = config.average_channel
                              ? 1.0
                              : wireless::sample_rayleigh_power_gain(rng);
      ++generation.requests;
      if (windows > 0) {
        const auto w = static_cast<std::size_t>(t / config.duration_s *
                                                static_cast<double>(windows));
        ++generation.window_requests[std::min(windows - 1, w)];
      }

      Request request;
      request.time = t;
      request.user = k;
      request.model = i;
      request.slot = slot;
      // The routing rule, one scan shared by every path: the covering warm
      // holder of i with the best spectral efficiency (a direct hit), else
      // the best covering server outright — for a reactive cache always (the
      // replay resolves the miss there and admits the model:
      // cache-on-relay), for a static one only when a warm holder can source
      // a relay over the backhaul. A reactive cache thus never routes worse
      // than the placement it started from. Only servers `up` admits
      // qualify; `se` rates link l; `relay_source` is asked lazily.
      const auto route = [&](const auto& up, const auto& se,
                             const auto& relay_source) {
        RoutePick pick;
        const auto scan = [&](bool warm_only) {
          for (std::size_t l = begin; l < end; ++l) {
            const ServerId m = covering[l];
            if (warm_only && !warm_holds(m, i)) continue;
            if (!up(m)) continue;
            const double link = se(l);
            if (link > pick.se) {
              pick.se = link;
              pick.server = m;
            }
          }
        };
        scan(true);
        pick.direct = pick.server != kInvalidId;
        if (!pick.direct && (reactive || relay_source())) scan(false);
        return pick;
      };
      const RoutePick nominal = route(
          [](ServerId) { return true; },
          [&](std::size_t l) {
            return config.average_channel ? mean_se[l]
                                          : std::log2(1.0 + snr[l] * gain);
          },
          [&] { return relayable[i] != 0; });
      RoutePick pick = nominal;
      if (faults != nullptr) {
        // Fault-aware routing: only servers up at the arrival qualify, each
        // link's SE is degraded by the schedule's per-server factor, and a
        // static relay needs a *surviving* warm holder to source it (all
        // holders down means the request is unserved outright — a static
        // cache never degrades to the cloud). The fault-free pick is the
        // primary: routing around it while it is down counts a failover.
        const auto is_up = [&](ServerId m) { return faults->is_up(m, t); };
        const auto degraded_se = [&](std::size_t l) {
          return std::log2(1.0 + snr[l] * gain * faults->snr_factor(covering[l], t));
        };
        const std::vector<ServerId>& holders = warm_holders[i];
        pick = route(is_up, degraded_se, [&] {
          return std::any_of(holders.begin(), holders.end(), is_up);
        });
        if (nominal.server != kInvalidId && pick.server != kInvalidId &&
            !is_up(nominal.server)) {
          ++generation.failovers;
        }
      }
      if (!reactive) request.route = pick.direct ? Route::kDirect : Route::kRelay;
      if (pick.server == kInvalidId) {
        ++generation.unserved;
        continue;
      }
      request.spectral_efficiency = pick.se;
      pieces[pick.server].push_back(request);
    }
  };
  const std::size_t threads = support::resolve_threads(config.threads);
  const std::size_t num_blocks = std::min(num_users, 16 * threads);
  std::vector<std::vector<std::vector<Request>>> block_pieces(
      num_blocks, std::vector<std::vector<Request>>(num_servers));
  std::vector<ServeMetrics> block_generation(num_blocks);
  support::parallel_for(num_blocks, threads, [&](std::size_t b) {
    ServeMetrics& generation = block_generation[b];
    if (windows > 0) generation.window_requests.assign(windows, 0);
    const std::size_t last = (b + 1) * num_users / num_blocks;
    for (std::size_t k = b * num_users / num_blocks; k < last; ++k) {
      generate_user(static_cast<UserId>(k), block_pieces[b], generation);
    }
  });
  // The block counters are integers, so folding them is exact.
  ServeMetrics generation;
  if (windows > 0) generation.window_requests.assign(windows, 0);
  for (const ServeMetrics& block : block_generation) generation.merge(block);

  // Stage 2: independent per-server replays, one metrics slot each, folded
  // in server order (bit-identical at any thread count). Each worker first
  // assembles its server's bucket from the block pieces in block order
  // (the serial issue order), freeing every piece once copied.
  std::vector<ServeMetrics> slots(num_servers);
  support::parallel_for(num_servers, threads, [&](std::size_t m) {
    std::size_t size = 0;
    for (const auto& pieces : block_pieces) size += pieces[m].size();
    std::vector<Request> bucket;
    bucket.reserve(size);
    for (auto& pieces : block_pieces) {
      bucket.insert(bucket.end(), pieces[m].begin(), pieces[m].end());
      std::vector<Request>().swap(pieces[m]);
    }
    ServerLoop loop(topology, library, requests, config, *policies[m], relayable,
                    std::move(bucket), static_cast<ServerId>(m), faults,
                    faults != nullptr ? &warm_holders : nullptr,
                    &placement.models_on(static_cast<ServerId>(m)));
    slots[m] = loop.run();
  });

  ServeResult result;
  result.totals = std::move(generation);
  for (ServerId m = 0; m < num_servers; ++m) result.totals.merge(slots[m]);

  const ServeMetrics& totals = result.totals;
  if (totals.requests > 0) {
    result.hit_ratio = static_cast<double>(totals.deadline_hits) /
                       static_cast<double>(totals.requests);
  }
  if (totals.completed() > 0) {
    result.mean_download_s =
        totals.download_sum_s / static_cast<double>(totals.completed());
    result.p50_download_s = totals.latency.quantile(0.50);
    result.p95_download_s = totals.latency.quantile(0.95);
    result.p99_download_s = totals.latency.quantile(0.99);
  }
  if (totals.busy_time_s > 0) {
    result.mean_concurrency = totals.flow_time_s / totals.busy_time_s;
  }
  result.served_rps = static_cast<double>(totals.completed()) / config.duration_s;
  if (totals.rewarms > 0) {
    result.mean_rewarm_s = totals.rewarm_time_s / static_cast<double>(totals.rewarms);
  }
  return result;
}

}  // namespace trimcaching::serve
