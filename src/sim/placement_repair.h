// PlacementRepair: post-stitch cross-tile coordination for ScenarioTiler.
//
// Tiling (sim/tiler.h) trades cross-tile coordination for wall-clock: at
// relay-heavy configurations the per-tile greedy re-caches popular models on
// both sides of a halo (~2.7x placement duplication at the 100x fig8_scale
// point), wasting capacity that a global solver would have spent on tail
// models. This pass recovers most of that gap while keeping the tiled solve
// win:
//
//  1. Duplicate detection — every copy's *global* marginal value is probed
//     against the full-scenario instance (the same Eq. 2 / Eq. 4-5 average-
//     rate arithmetic the Evaluator's cached EvalPlan scores with; the
//     repair pass consumes it through the global PlacementProblem's hit
//     lists, built once and cached here: with factored hit lists the build
//     costs about as much as a repair pass — ≈18 ms against ≈12 ms at the
//     fig8 100× point — so the cache saves each later re-solve more than
//     half its repair cost). A copy is a cross-tile duplicate when evicting
//     it loses no global hit mass and a holder in *another* tile serves an
//     overlapping user — the overlap only halos create.
//  2. Eviction + refill — duplicates are evicted deterministically and the
//     freed capacity is swept with core::greedy_refill restricted to the
//     freed servers, batched over `threads` workers, bit-identical for any
//     thread count (core/submodular.h documents both halves).
//
// The repaired placement's global Eq. 2 value never decreases (up to the
// eviction tolerance), and the pass is a bit-equal no-op on
// coverage-disjoint tilings — both enforced by tests/placement_repair_test.
#pragma once

#include <cstddef>
#include <vector>

#include "src/core/placement.h"
#include "src/core/problem.h"
#include "src/core/submodular.h"
#include "src/sim/scenario.h"

namespace trimcaching::sim {

struct RepairConfig {
  /// Threads for the refill gain sweep (0 = hardware concurrency,
  /// 1 = serial). Bit-identical results for every value.
  std::size_t threads = 1;
  /// Max global hit mass a copy may lose on eviction and still count as a
  /// duplicate (core::RepairPassConfig::eviction_tolerance).
  double eviction_tolerance = 1e-12;

  void validate() const;
};

struct RepairResult {
  core::PlacementSolution placement;  ///< repaired, global (M, I) dimensions
  double hit_ratio = 0.0;             ///< global Eq. 2 value of `placement`
  std::size_t duplicates_evicted = 0;
  std::size_t models_added = 0;       ///< refill additions on freed servers
  std::size_t gain_evaluations = 0;   ///< eviction probes + refill sweeps
  double duplication_before = 1.0;    ///< core::duplication_factor, input
  double duplication_after = 1.0;     ///< core::duplication_factor, output
  double wall_seconds = 0.0;          ///< repair pass wall-clock
};

class PlacementRepair {
 public:
  /// `server_tile` maps every global server id to its tile (dedup group);
  /// ScenarioTiler::server_tiles() provides it. Empty = every server its own
  /// group (pure global dedup). The global problem instance is built once
  /// here and reused across repair() calls; the repairer borrows the
  /// scenario — keep it alive.
  PlacementRepair(const Scenario& scenario, std::vector<std::size_t> server_tile,
                  RepairConfig config = {});

  /// Repairs a stitched placement (the input is not modified). `threads`
  /// overrides the config's refill concurrency for this call (SIZE_MAX =
  /// keep the config value); results are bit-identical either way.
  [[nodiscard]] RepairResult repair(const core::PlacementSolution& stitched,
                                    std::size_t threads = SIZE_MAX) const;

  /// The cached full-scenario instance the gains are probed against.
  [[nodiscard]] const core::PlacementProblem& problem() const noexcept {
    return problem_;
  }

 private:
  std::vector<std::size_t> server_tile_;
  RepairConfig config_;
  core::PlacementProblem problem_;
};

}  // namespace trimcaching::sim
