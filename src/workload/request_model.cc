#include "src/workload/request_model.h"

#include <cmath>
#include <stdexcept>

#include "src/workload/zipf.h"

namespace trimcaching::workload {

void RequestConfig::validate() const {
  if (zipf_exponent < 0) throw std::invalid_argument("RequestConfig: negative Zipf exponent");
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

std::size_t RequestModel::at(UserId k, ModelId i) const {
  if (k >= num_users_ || i >= num_models_) throw std::out_of_range("RequestModel::at");
  return static_cast<std::size_t>(k) * num_models_ + i;
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
  rm.probability_.assign(num_users * num_models, 0.0);
  rm.deadline_.assign(num_users * num_models, 0.0);
  rm.inference_.assign(num_users * num_models, 0.0);
  rm.cost_.assign(num_users * num_models, 0.0);

  const ZipfDistribution zipf(interest, config.zipf_exponent);
  std::vector<std::size_t> global_order = rng.permutation(num_models);
  for (UserId k = 0; k < num_users; ++k) {
    const std::vector<std::size_t> order =
        config.per_user_popularity ? rng.permutation(num_models) : global_order;
    for (std::size_t rank = 0; rank < interest; ++rank) {
      const auto i = static_cast<ModelId>(order[rank]);
      rm.probability_[rm.at(k, i)] = zipf.pmf(rank);
    }
    for (ModelId i = 0; i < num_models; ++i) {
      rm.deadline_[rm.at(k, i)] = rng.uniform(config.deadline_min_s, config.deadline_max_s);
      rm.inference_[rm.at(k, i)] =
          rng.uniform(config.inference_min_s, config.inference_max_s);
      // Deterministic in the QoS draws: no extra randomness, so the request
      // stream is bit-identical to the cost-oblivious generator.
      rm.cost_[rm.at(k, i)] = config.infer_cost_scale * rm.inference_[rm.at(k, i)];
    }
  }
  rm.total_mass_ = 0.0;
  for (const double p : rm.probability_) rm.total_mass_ += p;

  rm.requested_offsets_.assign(num_users + 1, 0);
  rm.requested_flat_.reserve(num_users * interest);
  for (UserId k = 0; k < num_users; ++k) {
    for (ModelId i = 0; i < num_models; ++i) {
      if (rm.probability_[rm.at(k, i)] > 0.0) rm.requested_flat_.push_back(i);
    }
    rm.requested_offsets_[k + 1] = rm.requested_flat_.size();
  }
  return rm;
}

std::span<const ModelId> RequestModel::requested_models(UserId k) const {
  if (k >= num_users_) throw std::out_of_range("RequestModel::requested_models");
  return {requested_flat_.data() + requested_offsets_[k],
          requested_offsets_[k + 1] - requested_offsets_[k]};
}

double RequestModel::probability(UserId k, ModelId i) const { return probability_[at(k, i)]; }

double RequestModel::deadline_s(UserId k, ModelId i) const { return deadline_[at(k, i)]; }

double RequestModel::inference_s(UserId k, ModelId i) const { return inference_[at(k, i)]; }

double RequestModel::compute_cost(UserId k, ModelId i) const { return cost_[at(k, i)]; }

}  // namespace trimcaching::workload
