#include "src/workload/drifting_zipf.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace trimcaching::workload {

namespace {
/// Counter-based stream id for the per-epoch transposition draws (disjoint
/// from the serving engine's per-user streams by construction: each consumer
/// derives from its own root Rng).
constexpr std::uint64_t kSwapStream = 0x5afeD21f;
}  // namespace

void DriftingZipfConfig::validate() const {
  if (exponent_start < 0 || exponent_end < 0) {
    throw std::invalid_argument("DriftingZipfConfig: negative Zipf exponent");
  }
  if (epoch_s <= 0) throw std::invalid_argument("DriftingZipfConfig: epoch_s must be > 0");
}

DriftingZipf::DriftingZipf(std::vector<ModelId> base_order, double duration_s,
                           const DriftingZipfConfig& config, const support::Rng& seed)
    : config_(config) {
  config.validate();
  if (duration_s <= 0) throw std::invalid_argument("DriftingZipf: duration must be > 0");
  const std::size_t n = base_order.size();
  if (n == 0) throw std::invalid_argument("DriftingZipf: empty base order");
  {
    std::vector<char> seen(n, 0);
    for (const ModelId i : base_order) {
      if (i >= n || seen[i]) {
        throw std::invalid_argument("DriftingZipf: base_order is not a permutation");
      }
      seen[i] = 1;
    }
  }

  const auto epochs = static_cast<std::size_t>(std::ceil(duration_s / config.epoch_s));
  zipf_.reserve(epochs);
  rank_to_model_.reserve(epochs);
  model_to_rank_.reserve(epochs);
  std::vector<ModelId> order = std::move(base_order);
  for (std::size_t e = 0; e < epochs; ++e) {
    if (e > 0 && config.swaps_per_epoch > 0) {
      // Cumulative drift: epoch e's order extends epoch e-1's with fresh
      // counter-derived transpositions, so replaying any prefix of the trace
      // reproduces the same popularity history.
      support::Rng swap_rng = seed.at(kSwapStream, e);
      for (std::size_t s = 0; s < config.swaps_per_epoch; ++s) {
        const std::size_t a = swap_rng.index(n);
        const std::size_t b = swap_rng.index(n);
        std::swap(order[a], order[b]);
      }
    }
    const double ramp =
        epochs == 1 ? 0.5 : (static_cast<double>(e) + 0.5) / static_cast<double>(epochs);
    zipf_.emplace_back(n, config.exponent_start +
                              (config.exponent_end - config.exponent_start) * ramp);
    rank_to_model_.push_back(order);
    std::vector<std::uint32_t> inverse(n, 0);
    for (std::size_t r = 0; r < n; ++r) inverse[order[r]] = static_cast<std::uint32_t>(r);
    model_to_rank_.push_back(std::move(inverse));
  }
}

std::vector<ModelId> DriftingZipf::popularity_order(const RequestModel& requests,
                                                    UserId k) {
  // The support by descending probability (stable: ties by ascending id),
  // then every p = 0 model by ascending id.
  const RequestModel::Support support = requests.support_of(k);
  const std::span<const ModelId> models = support.models;
  std::vector<std::size_t> slots(models.size());
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  std::stable_sort(slots.begin(), slots.end(), [&](std::size_t a, std::size_t b) {
    return support.probability[a] > support.probability[b];
  });
  std::vector<ModelId> order;
  order.reserve(requests.num_models());
  for (const std::size_t s : slots) order.push_back(models[s]);
  std::size_t next = 0;  // next support slot in id order
  for (ModelId i = 0; i < requests.num_models(); ++i) {
    if (next < models.size() && models[next] == i) {
      ++next;
    } else {
      order.push_back(i);
    }
  }
  return order;
}

std::size_t DriftingZipf::epoch_of(double t) const {
  if (t <= 0) return 0;
  const auto e = static_cast<std::size_t>(t / config_.epoch_s);
  return std::min(e, num_epochs() - 1);
}

double DriftingZipf::exponent_at(std::size_t epoch) const {
  return zipf_.at(epoch).exponent();
}

ModelId DriftingZipf::sample(double t, support::Rng& rng) const {
  const std::size_t e = epoch_of(t);
  return rank_to_model_[e][zipf_[e].sample(rng)];
}

double DriftingZipf::pmf(double t, ModelId i) const {
  const std::size_t e = epoch_of(t);
  return zipf_[e].pmf(model_to_rank_[e].at(i));
}

}  // namespace trimcaching::workload
