// Shared fixtures for the core-algorithm tests: deterministic small worlds
// and random instance generators (random libraries deliberately produce
// non-chain sharing structures to exercise the DP solver's generic path).
#pragma once

#include <string>
#include <vector>

#include "src/core/problem.h"
#include "src/model/model_library.h"
#include "src/support/rng.h"
#include "src/support/units.h"
#include "src/wireless/topology.h"
#include "src/workload/request_model.h"

namespace trimcaching::testutil {

/// Owns everything a PlacementProblem borrows.
struct World {
  wireless::NetworkTopology topology;
  model::ModelLibrary library;
  workload::RequestModel requests;

  [[nodiscard]] core::PlacementProblem problem() const {
    return core::PlacementProblem(topology, library, requests);
  }
};

/// `prefix` followed by the decimal `index` ("b3", "m12"). Built by append,
/// not `"literal" + std::string&&`: GCC 12 flags that operator's inlined
/// insert with a false-positive -Wrestrict.
inline std::string indexed_name(const char* prefix, std::size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

/// A random library with arbitrary (usually non-chain) sharing: `num_blocks`
/// blocks with whole-MB sizes in [1, max_block_mb]; every model draws 1..4
/// distinct blocks. Whole-MB sizes make the weight-quantized DP exact when
/// the capacity is a whole number of MB and weight_states == capacity in MB.
inline model::ModelLibrary random_library(support::Rng& rng, std::size_t num_models,
                                          std::size_t num_blocks,
                                          std::size_t max_block_mb = 8) {
  model::ModelLibrary lib;
  for (std::size_t j = 0; j < num_blocks; ++j) {
    lib.add_block(support::megabytes(static_cast<double>(
                      rng.uniform_int(1, static_cast<std::int64_t>(max_block_mb)))),
                  indexed_name("b", j));
  }
  for (std::size_t i = 0; i < num_models; ++i) {
    const std::size_t count =
        1 + rng.index(std::min<std::size_t>(4, num_blocks));
    std::vector<std::size_t> order = rng.permutation(num_blocks);
    std::vector<BlockId> blocks;
    for (std::size_t c = 0; c < count; ++c) {
      blocks.push_back(static_cast<BlockId>(order[c]));
    }
    lib.add_model(indexed_name("m", i), "rand", std::move(blocks));
  }
  lib.finalize();
  return lib;
}

/// A random world: uniform topology, random library, Zipf requests. Capacity
/// is whole-MB. Intended scale: M <= 4, K <= 12, I <= 14 (exact solver OK).
inline World random_world(std::uint64_t seed, std::size_t num_servers,
                          std::size_t num_users, std::size_t num_models,
                          std::size_t num_blocks, double capacity_mb,
                          double area_side_m = 600.0) {
  support::Rng rng(seed);
  wireless::RadioConfig radio;
  auto topology = wireless::sample_topology(
      wireless::Area{area_side_m}, radio, num_servers, num_users,
      support::megabytes(capacity_mb), rng);
  auto library = random_library(rng, num_models, num_blocks);
  workload::RequestConfig req_config;
  auto requests =
      workload::RequestModel::generate(num_users, num_models, req_config, rng);
  return World{std::move(topology), std::move(library), std::move(requests)};
}

/// Brute-force optimum of the per-server sub-problem P2.1_m: max Σ u(i) over
/// model subsets with dedup size <= capacity. Exponential; keep |I| small.
inline double brute_force_subproblem(const model::ModelLibrary& library,
                                     const std::vector<double>& utilities,
                                     support::Bytes capacity) {
  const std::size_t n = library.num_models();
  double best = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    std::vector<ModelId> models;
    double value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        models.push_back(static_cast<ModelId>(i));
        value += utilities[i];
      }
    }
    if (value <= best) continue;
    if (library.dedup_size(models) <= capacity) best = value;
  }
  return best;
}

}  // namespace trimcaching::testutil
