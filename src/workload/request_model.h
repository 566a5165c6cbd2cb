// Per-user request probabilities and QoS requirements (§III-A, §VII-A).
//
// Each user k requests model i with probability p_{k,i}; the E2E deadline
// T̄_{k,i} (downloading + on-device inference) is drawn uniformly from
// [0.5, 1] s and the on-device inference latency t_{k,i} from a smaller
// configurable range (the paper folds both into its QoS statement; the split
// is documented in EXPERIMENTS.md). Popularity follows a Zipf law; each user
// may rank models in its own random order (personalized popularity), and may
// restrict its interest to a subset of models (Fig. 6 uses 9 / 27 requested
// models per user).
//
// Storage is a CSR over the p > 0 support only: user k's support is the
// ascending model list requested_models(k), and its *slots* s index that
// list and the parallel probability, deadline and inference arrays of
// support_of(k). With the paper's I = 30 requested models out of a 10^3-model zoo
// this is ~30x smaller than dense K x I arrays. Readers walk the support;
// point lookups by (k, i) binary-search it. QoS exists only on the support:
// deadline_s, inference_s and compute_cost of a p = 0 pair throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/support/ids.h"
#include "src/support/rng.h"

namespace trimcaching::workload {

struct RequestConfig {
  double zipf_exponent = 0.8;
  /// If true, each user ranks models in an independent random order;
  /// otherwise all users share one global popularity order.
  bool per_user_popularity = true;
  /// Number of models each user requests with non-zero probability
  /// (0 = all models in the library).
  std::size_t models_per_user = 0;
  double deadline_min_s = 0.5;
  double deadline_max_s = 1.0;
  double inference_min_s = 0.05;
  double inference_max_s = 0.15;
  /// Compute cost of one expected inference of (k, i), expressed as a
  /// multiple of the inference latency t_{k,i}: cost = scale * t_{k,i}
  /// (abstract units, matched against NetworkTopology::compute_capacity).
  /// Deterministic in the QoS draws — changing it draws no extra randomness.
  double infer_cost_scale = 1.0;

  void validate() const;
};

class RequestModel {
 public:
  /// Empty model (0 users / 0 models) — a placeholder slot to assign a
  /// generate() result into (a default-constructed sim::Scenario); not a
  /// usable instance on its own.
  RequestModel() = default;

  /// Generates request probabilities and QoS values for `num_users` users
  /// over `num_models` models. Every support value, and `rng`'s state
  /// afterwards, equal those of a dense generator that draws a deadline and
  /// an inference latency for every (k, i): an off-support pair discards
  /// its two draws instead.
  static RequestModel generate(std::size_t num_users, std::size_t num_models,
                               const RequestConfig& config, support::Rng& rng);

  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_models() const noexcept { return num_models_; }

  /// Request probability p_{k,i} (0 off the support); each user's
  /// probabilities sum to 1. Binary search.
  [[nodiscard]] double probability(UserId k, ModelId i) const;
  /// E2E deadline T̄_{k,i} in seconds. Throws std::out_of_range when
  /// p_{k,i} = 0. Binary search.
  [[nodiscard]] double deadline_s(UserId k, ModelId i) const;
  /// On-device inference latency t_{k,i} in seconds. Throws
  /// std::out_of_range when p_{k,i} = 0. Binary search.
  [[nodiscard]] double inference_s(UserId k, ModelId i) const;
  /// Compute cost of one inference of model i for user k (abstract units):
  /// infer_cost_scale * t_{k,i}. Throws std::out_of_range when p_{k,i} = 0.
  [[nodiscard]] double compute_cost(UserId k, ModelId i) const;

  /// Σ_k Σ_i p_{k,i} (the denominator of Eq. 2), summed over the support in
  /// (k, ascending i) order.
  [[nodiscard]] double total_mass() const noexcept { return total_mass_; }

  /// The models user k requests with p_{k,i} > 0, ascending ids. Entry s
  /// is the model in slot s of support_of(k).
  [[nodiscard]] std::span<const ModelId> requested_models(UserId k) const;

  /// One user's support as parallel arrays indexed by slot.
  struct Support {
    std::span<const ModelId> models;  ///< requested_models(k)
    std::span<const double> probability;
    std::span<const double> deadline_s;
    std::span<const double> inference_s;
  };
  [[nodiscard]] Support support_of(UserId k) const;

  /// slot() of a p = 0 pair.
  static constexpr std::size_t kOffSupport = SIZE_MAX;
  /// Slot of model i in user k's support (binary search), or kOffSupport
  /// when p_{k,i} = 0. Throws std::out_of_range for a user or model outside
  /// the model.
  [[nodiscard]] std::size_t slot(UserId k, ModelId i) const;

  /// Heap bytes held by the CSR arrays (deterministic for a given
  /// generate() call).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

 private:
  std::size_t num_users_ = 0;
  std::size_t num_models_ = 0;
  double infer_cost_scale_ = 1.0;
  // CSR of the p > 0 support: user k owns the slots
  // [offsets_[k], offsets_[k+1]) of the four parallel arrays.
  std::vector<std::size_t> offsets_;
  std::vector<ModelId> models_;
  std::vector<double> probability_;
  std::vector<double> deadline_;
  std::vector<double> inference_;
  double total_mass_ = 0.0;

  /// User k's slots [first, last) of the parallel arrays; throws
  /// std::out_of_range for a user outside the model.
  [[nodiscard]] std::pair<std::size_t, std::size_t> slots_of(UserId k) const;
  /// Flat index of (k, i) into the parallel arrays; a p = 0 pair throws
  /// std::out_of_range naming `accessor` and the pair.
  [[nodiscard]] std::size_t support_slot(UserId k, ModelId i, const char* accessor) const;
};

}  // namespace trimcaching::workload
