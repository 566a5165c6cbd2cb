// TrimCaching Spec (Algorithm 1): successive greedy decomposition.
//
// Servers are processed one at a time; server m's sub-problem P2.1_m uses
// utilities u(m,i) = Σ_k p_{k,i}·I1(m,k,i)·I2(m,k,i) (Eq. 14), where the I2
// indicator masks requests already served by earlier servers (Eq. 11) — the
// CoverageState supplies exactly that. Each sub-problem is solved by the
// Algorithm-2 DP solver; by Eq. 12 the final hit ratio is the sum of the
// per-server gains. Guarantee: (1-ε)/2 of the optimum when each sub-problem
// is solved ε-optimally (Theorem 2), valid in the special case where the
// combination traversal is polynomial.
#pragma once

#include "src/core/dp_rounding.h"
#include "src/core/objective.h"
#include "src/core/placement.h"
#include "src/core/problem.h"

namespace trimcaching::core {

struct SpecConfig {
  SpecSolverConfig solver{};
  /// Order in which servers are visited. The paper uses the natural index
  /// order; visiting servers with more reachable request mass first is an
  /// ablation (bench/ablation_greedy).
  enum class ServerOrder { kNatural, kByReachableMassDesc } order = ServerOrder::kNatural;
  /// Thread count of the per-server utility accumulation (Eq. 14) and the
  /// mass-ordering prepass; the DP fills are serial. 0 = hardware
  /// concurrency, 1 = serial. Every index writes only its own slot and
  /// reductions stay ordered, so results are bit-identical for any value.
  std::size_t threads = 1;
};

struct SpecResult {
  PlacementSolution placement;
  double hit_ratio = 0.0;
  std::vector<double> per_server_gain;  ///< Û_m of Eq. 10, in visit order
  std::size_t combinations_visited = 0;
};

[[nodiscard]] SpecResult trimcaching_spec(const PlacementProblem& problem,
                                          const SpecConfig& config = {});

}  // namespace trimcaching::core
