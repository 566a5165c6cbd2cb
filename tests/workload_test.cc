#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/workload/request_model.h"
#include "src/workload/zipf.h"

namespace trimcaching::workload {
namespace {

using support::Rng;

// ----------------------------------------------------------------------- Zipf

TEST(Zipf, PmfSumsToOne) {
  const ZipfDistribution zipf(30, 0.8);
  double sum = 0;
  for (std::size_t r = 0; r < zipf.size(); ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Zipf, PmfDecreasing) {
  const ZipfDistribution zipf(100, 1.2);
  for (std::size_t r = 1; r < zipf.size(); ++r) {
    EXPECT_LT(zipf.pmf(r), zipf.pmf(r - 1));
  }
}

TEST(Zipf, ZeroExponentIsUniform) {
  const ZipfDistribution zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-12);
}

TEST(Zipf, RatioMatchesPowerLaw) {
  const ZipfDistribution zipf(50, 1.0);
  EXPECT_NEAR(zipf.pmf(0) / zipf.pmf(9), 10.0, 1e-9);
}

TEST(Zipf, SamplerMatchesPmf) {
  const ZipfDistribution zipf(5, 1.0);
  Rng rng(13);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int t = 0; t < n; ++t) ++counts[zipf.sample(rng)];
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, zipf.pmf(r), 0.01);
  }
}

TEST(Zipf, InvalidArgs) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(5, -0.1), std::invalid_argument);
}

// -------------------------------------------------------------- Request model

TEST(RequestModel, PerUserMassIsOne) {
  Rng rng(1);
  const auto rm = RequestModel::generate(7, 20, RequestConfig{}, rng);
  for (UserId k = 0; k < 7; ++k) {
    double sum = 0;
    for (ModelId i = 0; i < 20; ++i) sum += rm.probability(k, i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_NEAR(rm.total_mass(), 7.0, 1e-9);
}

TEST(RequestModel, SparsityLimitsInterestSet) {
  Rng rng(2);
  RequestConfig config;
  config.models_per_user = 9;
  const auto rm = RequestModel::generate(5, 30, config, rng);
  for (UserId k = 0; k < 5; ++k) {
    int nonzero = 0;
    for (ModelId i = 0; i < 30; ++i) {
      if (rm.probability(k, i) > 0) ++nonzero;
    }
    EXPECT_EQ(nonzero, 9);
  }
}

TEST(RequestModel, DeadlinesInConfiguredRange) {
  Rng rng(3);
  RequestConfig config;
  const auto rm = RequestModel::generate(4, 10, config, rng);
  for (UserId k = 0; k < 4; ++k) {
    for (ModelId i = 0; i < 10; ++i) {
      EXPECT_GE(rm.deadline_s(k, i), config.deadline_min_s);
      EXPECT_LE(rm.deadline_s(k, i), config.deadline_max_s);
      EXPECT_GE(rm.inference_s(k, i), config.inference_min_s);
      EXPECT_LE(rm.inference_s(k, i), config.inference_max_s);
      // Inference must never consume the whole deadline with defaults.
      EXPECT_LT(rm.inference_s(k, i), rm.deadline_s(k, i));
    }
  }
}

TEST(RequestModel, GlobalPopularityOrderShared) {
  Rng rng(4);
  RequestConfig config;
  config.per_user_popularity = false;
  const auto rm = RequestModel::generate(6, 15, config, rng);
  // With a global order, every user has identical probabilities.
  for (UserId k = 1; k < 6; ++k) {
    for (ModelId i = 0; i < 15; ++i) {
      EXPECT_DOUBLE_EQ(rm.probability(k, i), rm.probability(0, i));
    }
  }
}

TEST(RequestModel, PerUserPopularityDiffers) {
  Rng rng(5);
  RequestConfig config;
  config.per_user_popularity = true;
  config.zipf_exponent = 1.2;
  const auto rm = RequestModel::generate(4, 20, config, rng);
  bool any_diff = false;
  for (ModelId i = 0; i < 20 && !any_diff; ++i) {
    if (rm.probability(0, i) != rm.probability(1, i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RequestModel, InvalidConfigRejected) {
  Rng rng(6);
  RequestConfig config;
  config.models_per_user = 50;
  EXPECT_THROW((void)RequestModel::generate(3, 30, config, rng), std::invalid_argument);
  config = RequestConfig{};
  config.deadline_min_s = 2.0;  // > max
  EXPECT_THROW((void)RequestModel::generate(3, 30, config, rng), std::invalid_argument);
  EXPECT_THROW((void)RequestModel::generate(0, 30, RequestConfig{}, rng),
               std::invalid_argument);
  // A NaN exponent used to pass the `< 0` check and reach the solvers as NaN
  // request probabilities; every non-finite or negative one names the field.
  for (const double exponent : {std::nan(""), -1.0, HUGE_VAL}) {
    config = RequestConfig{};
    config.zipf_exponent = exponent;
    try {
      (void)RequestModel::generate(3, 30, config, rng);
      ADD_FAILURE() << "zipf_exponent " << exponent << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("zipf_exponent"), std::string::npos) << e.what();
    }
  }
}

TEST(RequestModel, OutOfRangeAccessThrows) {
  Rng rng(7);
  const auto rm = RequestModel::generate(2, 3, RequestConfig{}, rng);
  EXPECT_THROW((void)rm.probability(2, 0), std::out_of_range);
  EXPECT_THROW((void)rm.probability(0, 3), std::out_of_range);
  EXPECT_THROW((void)rm.requested_models(2), std::out_of_range);
  EXPECT_THROW((void)rm.slot(0, 3), std::out_of_range);
}

TEST(RequestModel, OffSupportPairHasNoQos) {
  Rng rng(8);
  RequestConfig config;
  config.models_per_user = 3;
  const auto rm = RequestModel::generate(4, 10, config, rng);
  std::size_t off_support = 0;
  for (UserId k = 0; k < 4; ++k) {
    for (ModelId i = 0; i < 10; ++i) {
      if (rm.probability(k, i) > 0.0) {
        EXPECT_NE(rm.slot(k, i), RequestModel::kOffSupport);
        EXPECT_NO_THROW((void)rm.deadline_s(k, i));
        continue;
      }
      ++off_support;
      EXPECT_EQ(rm.slot(k, i), RequestModel::kOffSupport);
      const std::string pair =
          "(user " + std::to_string(k) + ", model " + std::to_string(i) + ")";
      for (const auto& [name, read] :
           {std::pair<std::string, double (RequestModel::*)(UserId, ModelId) const>{
                "deadline_s", &RequestModel::deadline_s},
            {"inference_s", &RequestModel::inference_s},
            {"compute_cost", &RequestModel::compute_cost}}) {
        try {
          (void)(rm.*read)(k, i);
          ADD_FAILURE() << name << " read an off-support pair " << pair;
        } catch (const std::out_of_range& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(name), std::string::npos) << what;
          EXPECT_NE(what.find(pair), std::string::npos) << what;
        }
      }
    }
  }
  EXPECT_EQ(off_support, 4u * 7u);
}

TEST(RequestModel, SlotsIndexTheParallelArrays) {
  Rng rng(9);
  RequestConfig config;
  config.models_per_user = 6;
  config.infer_cost_scale = 2.5;
  const auto rm = RequestModel::generate(5, 20, config, rng);
  for (UserId k = 0; k < 5; ++k) {
    const RequestModel::Support support = rm.support_of(k);
    const auto models = rm.requested_models(k);
    ASSERT_EQ(models.size(), 6u);
    ASSERT_EQ(support.models.data(), models.data());
    ASSERT_EQ(support.models.size(), 6u);
    ASSERT_EQ(support.probability.size(), 6u);
    ASSERT_EQ(support.deadline_s.size(), 6u);
    ASSERT_EQ(support.inference_s.size(), 6u);
    for (std::size_t s = 0; s < models.size(); ++s) {
      const ModelId i = models[s];
      EXPECT_EQ(rm.slot(k, i), s);
      EXPECT_EQ(support.probability[s], rm.probability(k, i));
      EXPECT_EQ(support.deadline_s[s], rm.deadline_s(k, i));
      EXPECT_EQ(support.inference_s[s], rm.inference_s(k, i));
      EXPECT_EQ(rm.compute_cost(k, i), 2.5 * rm.inference_s(k, i));
    }
  }
  // Four parallel slot arrays plus the offsets: far below dense K x I.
  EXPECT_LE(rm.memory_bytes(), 6 * 5 * (sizeof(ModelId) + 3 * sizeof(double)) +
                                   6 * sizeof(std::size_t));
}

// The CSR generator skips the QoS draws of p = 0 pairs with
// engine().discard(2). That is only sound if two uniform() draws advance the
// engine by exactly two outputs, from every position in its state block.
TEST(RequestModel, DiscardTwoMatchesTwoUniformDraws) {
  for (std::size_t offset = 0; offset < 700; offset += 7) {
    Rng drawn(offset + 1);
    Rng skipped(offset + 1);
    for (std::size_t n = 0; n < offset; ++n) {
      (void)drawn.engine()();
      (void)skipped.engine()();
    }
    (void)drawn.uniform(0.5, 1.0);
    (void)drawn.uniform(0.05, 0.15);
    skipped.engine().discard(2);
    for (int n = 0; n < 3; ++n) {
      EXPECT_EQ(drawn.engine()(), skipped.engine()()) << "offset " << offset;
    }
  }
}

// ------------------------------------------------- dense-generator oracle

/// The dense K x I generator the CSR model replaced, written out: every
/// (k, i) draws a deadline and an inference latency, p = 0 or not.
struct DenseRequests {
  std::size_t num_models = 0;
  std::vector<double> probability;
  std::vector<double> deadline;
  std::vector<double> inference;
  std::vector<double> cost;
  double total_mass = 0.0;
};

DenseRequests dense_generate(std::size_t num_users, std::size_t num_models,
                             const RequestConfig& config, Rng& rng) {
  const std::size_t interest =
      config.models_per_user == 0 ? num_models : config.models_per_user;
  DenseRequests d;
  d.num_models = num_models;
  d.probability.assign(num_users * num_models, 0.0);
  d.deadline.assign(num_users * num_models, 0.0);
  d.inference.assign(num_users * num_models, 0.0);
  d.cost.assign(num_users * num_models, 0.0);
  const ZipfDistribution zipf(interest, config.zipf_exponent);
  const std::vector<std::size_t> global_order = rng.permutation(num_models);
  for (std::size_t k = 0; k < num_users; ++k) {
    const std::vector<std::size_t> order =
        config.per_user_popularity ? rng.permutation(num_models) : global_order;
    for (std::size_t rank = 0; rank < interest; ++rank) {
      d.probability[k * num_models + order[rank]] = zipf.pmf(rank);
    }
    for (std::size_t i = 0; i < num_models; ++i) {
      const std::size_t at = k * num_models + i;
      d.deadline[at] = rng.uniform(config.deadline_min_s, config.deadline_max_s);
      d.inference[at] = rng.uniform(config.inference_min_s, config.inference_max_s);
      d.cost[at] = config.infer_cost_scale * d.inference[at];
    }
  }
  for (const double p : d.probability) d.total_mass += p;
  return d;
}

TEST(RequestModel, BitIdenticalToDenseGenerator) {
  constexpr std::size_t kUsers = 6;
  constexpr std::size_t kModels = 50;
  std::size_t underflowed_pairs = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const bool per_user : {true, false}) {
      for (const std::size_t interest : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                                         kModels}) {
        // 200: pow(r, -200) underflows to 0 for ranks past ~40, so the
        // support is smaller than the interest set.
        for (const double exponent : {0.8, 200.0}) {
          RequestConfig config;
          config.per_user_popularity = per_user;
          config.models_per_user = interest;
          config.zipf_exponent = exponent;
          config.infer_cost_scale = 1.7;
          Rng dense_rng(seed);
          Rng sparse_rng(seed);
          const DenseRequests dense = dense_generate(kUsers, kModels, config, dense_rng);
          const auto rm = RequestModel::generate(kUsers, kModels, config, sparse_rng);
          const std::string where = "seed " + std::to_string(seed) + " per_user " +
                                    std::to_string(per_user) + " interest " +
                                    std::to_string(interest) + " exponent " +
                                    std::to_string(exponent);
          ASSERT_EQ(rm.total_mass(), dense.total_mass) << where;
          // Both generators leave the caller's Rng in the same state.
          ASSERT_EQ(sparse_rng.engine()(), dense_rng.engine()()) << where;
          for (UserId k = 0; k < kUsers; ++k) {
            std::vector<ModelId> support;
            for (ModelId i = 0; i < kModels; ++i) {
              const std::size_t at = k * kModels + i;
              const double p = dense.probability[at];
              ASSERT_EQ(rm.probability(k, i), p) << where;
              if (p > 0.0) {
                support.push_back(i);
                ASSERT_EQ(rm.deadline_s(k, i), dense.deadline[at]) << where;
                ASSERT_EQ(rm.inference_s(k, i), dense.inference[at]) << where;
                ASSERT_EQ(rm.compute_cost(k, i), dense.cost[at]) << where;
              } else {
                ASSERT_THROW((void)rm.deadline_s(k, i), std::out_of_range) << where;
                // With full interest, p = 0 can only be an underflow.
                if (interest == 0 || interest == kModels) ++underflowed_pairs;
              }
            }
            const auto requested = rm.requested_models(k);
            ASSERT_EQ(std::vector<ModelId>(requested.begin(), requested.end()), support)
                << where << " user " << k;
          }
        }
      }
    }
  }
  EXPECT_GT(underflowed_pairs, 0u);  // the underflow case was exercised
}

}  // namespace
}  // namespace trimcaching::workload
