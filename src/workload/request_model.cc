#include "src/workload/request_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/workload/zipf.h"

namespace trimcaching::workload {

void RequestConfig::validate() const {
  if (!(zipf_exponent >= 0) || !std::isfinite(zipf_exponent)) {  // also rejects NaN
    throw std::invalid_argument("RequestConfig: zipf_exponent must be finite and >= 0");
  }
  if (deadline_min_s <= 0 || deadline_min_s > deadline_max_s) {
    throw std::invalid_argument("RequestConfig: bad deadline range");
  }
  if (inference_min_s < 0 || inference_min_s > inference_max_s) {
    throw std::invalid_argument("RequestConfig: bad inference range");
  }
  if (!(infer_cost_scale >= 0) || std::isinf(infer_cost_scale)) {
    throw std::invalid_argument("RequestConfig: infer_cost_scale must be finite and >= 0");
  }
}

RequestModel RequestModel::generate(std::size_t num_users, std::size_t num_models,
                                    const RequestConfig& config, support::Rng& rng) {
  config.validate();
  if (num_users == 0 || num_models == 0) {
    throw std::invalid_argument("RequestModel: empty user or model set");
  }
  const std::size_t interest =
      config.models_per_user == 0 ? num_models : config.models_per_user;
  if (interest > num_models) {
    throw std::invalid_argument("RequestModel: models_per_user exceeds library size");
  }

  RequestModel rm;
  rm.num_users_ = num_users;
  rm.num_models_ = num_models;
  rm.infer_cost_scale_ = config.infer_cost_scale;

  const ZipfDistribution zipf(interest, config.zipf_exponent);
  // Every user's support has the same size: the ranks whose pmf is positive
  // (a steep exponent underflows the tail to 0).
  const auto per_user = static_cast<std::size_t>(
      std::count_if(zipf.probabilities().begin(), zipf.probabilities().end(),
                    [](double p) { return p > 0.0; }));
  const std::size_t slots = num_users * per_user;
  rm.offsets_.assign(num_users + 1, 0);
  rm.models_.reserve(slots);
  rm.probability_.reserve(slots);
  rm.deadline_.reserve(slots);
  rm.inference_.reserve(slots);

  const std::vector<std::size_t> global_order = rng.permutation(num_models);
  std::vector<std::size_t> user_order;
  std::vector<double> row(num_models, 0.0);  // user k's p_{k,i} by model
  for (UserId k = 0; k < num_users; ++k) {
    const std::vector<std::size_t>& order =
        config.per_user_popularity ? (user_order = rng.permutation(num_models))
                                   : global_order;
    for (std::size_t rank = 0; rank < interest; ++rank) row[order[rank]] = zipf.pmf(rank);
    for (ModelId i = 0; i < num_models; ++i) {
      const double p = row[i];
      if (p <= 0.0) {
        // The QoS of a p = 0 pair is never read: skip its deadline and
        // inference draws. uniform() takes exactly one engine call per draw
        // (generate_canonical<double, 53> on a 64-bit engine), so every
        // later draw is unchanged.
        rng.engine().discard(2);
        continue;
      }
      rm.models_.push_back(i);
      rm.probability_.push_back(p);
      rm.deadline_.push_back(rng.uniform(config.deadline_min_s, config.deadline_max_s));
      rm.inference_.push_back(rng.uniform(config.inference_min_s, config.inference_max_s));
      // (k, ascending i) order: the dense sum's order without its +0.0 terms.
      rm.total_mass_ += p;
    }
    for (std::size_t rank = 0; rank < interest; ++rank) row[order[rank]] = 0.0;
    rm.offsets_[k + 1] = rm.models_.size();
  }
  return rm;
}

std::pair<std::size_t, std::size_t> RequestModel::slots_of(UserId k) const {
  if (k >= num_users_) {
    throw std::out_of_range("RequestModel: user " + std::to_string(k) + " out of range");
  }
  return {offsets_[k], offsets_[k + 1]};
}

std::size_t RequestModel::slot(UserId k, ModelId i) const {
  const std::span<const ModelId> models = requested_models(k);
  if (i >= num_models_) {
    throw std::out_of_range("RequestModel: model " + std::to_string(i) + " out of range");
  }
  const auto it = std::lower_bound(models.begin(), models.end(), i);
  if (it == models.end() || *it != i) return kOffSupport;
  return static_cast<std::size_t>(it - models.begin());
}

std::size_t RequestModel::support_slot(UserId k, ModelId i, const char* accessor) const {
  const std::size_t s = slot(k, i);
  if (s == kOffSupport) {
    throw std::out_of_range(std::string("RequestModel::") + accessor + ": (user " +
                            std::to_string(k) + ", model " + std::to_string(i) +
                            ") has p = 0, so it has no QoS");
  }
  return offsets_[k] + s;
}

std::span<const ModelId> RequestModel::requested_models(UserId k) const {
  const auto [first, last] = slots_of(k);
  return {models_.data() + first, last - first};
}

RequestModel::Support RequestModel::support_of(UserId k) const {
  const auto [first, last] = slots_of(k);
  const std::size_t n = last - first;
  return {{models_.data() + first, n},
          {probability_.data() + first, n},
          {deadline_.data() + first, n},
          {inference_.data() + first, n}};
}

double RequestModel::probability(UserId k, ModelId i) const {
  const std::size_t s = slot(k, i);
  return s == kOffSupport ? 0.0 : probability_[offsets_[k] + s];
}

double RequestModel::deadline_s(UserId k, ModelId i) const {
  return deadline_[support_slot(k, i, "deadline_s")];
}

double RequestModel::inference_s(UserId k, ModelId i) const {
  return inference_[support_slot(k, i, "inference_s")];
}

double RequestModel::compute_cost(UserId k, ModelId i) const {
  return infer_cost_scale_ * inference_[support_slot(k, i, "compute_cost")];
}

std::size_t RequestModel::memory_bytes() const noexcept {
  return offsets_.capacity() * sizeof(std::size_t) + models_.capacity() * sizeof(ModelId) +
         (probability_.capacity() + deadline_.capacity() + inference_.capacity()) *
             sizeof(double);
}

}  // namespace trimcaching::workload
