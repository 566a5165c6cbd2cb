// ScenarioTiler: spatial decomposition of one scenario into concurrently
// solvable tiles — the scale-out path to the journal-sized deployments
// (hundreds of servers, thousands of users) that a single monolithic
// PlacementProblem cannot reach.
//
// The square area is cut into a tiles_x × tiles_y grid. Every server belongs
// to exactly one tile (the one containing its position), so tile placements
// touch disjoint server sets and stitching them into one global
// PlacementSolution is exact. Users are assigned by position too, but a tile
// additionally absorbs *halo* users within `halo_m` meters of its border
// (default: the coverage radius), so servers near a boundary still see every
// user they can cover directly. Each tile becomes a PlacementProblem
// sub-view sharing the global topology / library / requests storage —
// nothing is copied — and all tiles are solved concurrently with
// support::parallel_for.
//
// Approximation contract. Eligibility inside a tile uses the *global*
// association and rates (a tile server may relay through an out-of-tile
// covering server), so per-tile decisions are exact for the users the tile
// sees. What tiling gives up is cross-tile coordination: a halo user
// appearing in two tiles can be covered twice (wasted capacity), and a
// server can no longer count mass from users beyond the halo that only a
// backhaul relay could reach. When tiles are coverage-disjoint the tiled
// solution equals the untiled one; otherwise the deviation is the *halo
// approximation error*, which tests/tiler_test.cc and bench/fig8_scale.cc
// measure against the untiled solver on small instances (< 1% hit-ratio
// deviation on the shipped configurations). The reported hit ratio is
// always the honest global Eq. 2 value of the stitched placement.
//
// Repair. The `repair` knob closes most of the halo gap after stitching: a
// PlacementRepair pass (sim/placement_repair.h) evicts the copies the
// per-tile solvers duplicated across halos — those whose *global* marginal
// gain is zero — and greedily refills the freed capacity against the global
// objective. The pass never lowers the global Eq. 2 value, is bit-identical
// for every thread count, and leaves coverage-disjoint tilings bit-equal
// untouched.
//
// Determinism: tile t's solver context derives counter-based from
// (seed, t) via Rng::at, tiles write disjoint result slots, and stitching /
// counter reduction run in tile index order — results are bit-identical for
// every thread count. The tile fan-out is in-process only: one
// support::parallel_for over tile_problem(t).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/placement.h"
#include "src/core/solver.h"
#include "src/sim/evaluator.h"
#include "src/sim/placement_repair.h"
#include "src/sim/scenario.h"

namespace trimcaching::sim {

struct TilerConfig {
  /// Tiles per axis; the grid is tiles_x × tiles_y over the square area.
  /// 0 = derive a square grid from target_servers_per_tile. Neither may
  /// exceed the scenario's server count (checked by ScenarioTiler).
  std::size_t tiles_x = 0;
  std::size_t tiles_y = 0;
  /// Auto-sizing target: pick the grid so the average tile holds about this
  /// many servers.
  std::size_t target_servers_per_tile = 8;
  /// Halo margin in meters around each tile for boundary users; negative =
  /// use the radio coverage radius.
  double halo_m = -1.0;
  /// Concurrent tile solves: 0 = hardware concurrency, 1 = serial.
  /// Bit-identical results for every value.
  std::size_t threads = 0;
  /// Post-stitch cross-tile repair (sim/placement_repair.h): evict halo
  /// duplicates with zero global marginal gain and refill the freed capacity
  /// against the global objective. Bit-identical for every thread count and
  /// a bit-equal no-op on coverage-disjoint tilings.
  bool repair = false;
  /// Max global hit mass a copy may lose on eviction and still count as a
  /// duplicate (only read when `repair` is set).
  double repair_tolerance = 1e-12;

  void validate() const;
};

struct Tile {
  std::size_t x = 0;  ///< grid column
  std::size_t y = 0;  ///< grid row
  std::vector<ServerId> servers;  ///< global ids, ascending; tile-disjoint
  std::vector<UserId> users;      ///< global ids, ascending; halo users shared
};

struct TiledSolveResult {
  core::PlacementSolution placement;  ///< global (M, I) dimensions
  double hit_ratio = 0.0;             ///< global Eq. 2 value of `placement`
  std::size_t tiles_solved = 0;       ///< tiles with at least one server+user
  double wall_seconds = 0.0;          ///< tiling solve wall-clock (all tiles)
  /// Work counters summed over tiles in index order.
  std::size_t gain_evaluations = 0;
  std::size_t iterations = 0;
  /// Duplication factor of the final placement (core::duplication_factor);
  /// raw stitches at relay-heavy configs sit well above 1, repair pulls it
  /// back toward 1.
  double duplication_factor = 1.0;
  /// Repair-pass stats; all zero when TilerConfig::repair is off.
  std::size_t duplicates_evicted = 0;
  std::size_t repair_additions = 0;
  double repair_wall_seconds = 0.0;
};

class ScenarioTiler {
 public:
  /// Partitions the scenario. The tiler borrows the scenario (the per-tile
  /// problem views reference its topology/library/requests); keep it alive.
  ScenarioTiler(const Scenario& scenario, TilerConfig config);

  [[nodiscard]] std::size_t tiles_x() const noexcept { return tiles_x_; }
  [[nodiscard]] std::size_t tiles_y() const noexcept { return tiles_y_; }
  /// All grid tiles, row-major; tiles without servers are kept (empty).
  [[nodiscard]] const std::vector<Tile>& tiles() const noexcept { return tiles_; }
  /// Tile-membership count beyond home tiles (the halo duplication).
  [[nodiscard]] std::size_t halo_memberships() const noexcept { return halo_memberships_; }
  /// Home tile (row-major index) of every global server id — the dedup
  /// groups the repair pass coordinates across (PlacementRepair).
  [[nodiscard]] const std::vector<std::size_t>& server_tiles() const noexcept {
    return server_tile_;
  }

  /// Builds the per-tile problem view of tiles()[t] (servers must be
  /// non-empty). Exposed for tests and custom drivers.
  [[nodiscard]] core::PlacementProblem tile_problem(std::size_t t) const;

  /// Solves every tile with a fresh `solver_spec` registry solver and
  /// stitches the tile placements into one global solution. Tile t's solver
  /// seed derives counter-based from (seed, t). `threads` overrides the
  /// config's tile-solve concurrency for this call (SIZE_MAX = keep the
  /// config value); results are bit-identical either way. A positive
  /// `time_budget_s` arms each tile context's deadline with the full budget
  /// (tiles run concurrently, so the budget is wall-clock per tile, checked
  /// at the solvers' usual stage boundaries); an exhausted budget also
  /// skips the optional repair stage, which never loses quality.
  [[nodiscard]] TiledSolveResult solve(const std::string& solver_spec,
                                       std::uint64_t seed = 0x5eed,
                                       std::size_t threads = SIZE_MAX,
                                       double time_budget_s = 0.0) const;

 private:
  const Scenario* scenario_;
  TilerConfig config_;
  std::size_t tiles_x_ = 1;
  std::size_t tiles_y_ = 1;
  double halo_m_ = 0.0;
  std::size_t halo_memberships_ = 0;
  std::vector<Tile> tiles_;
  std::vector<std::size_t> server_tile_;  ///< home tile per global server id
  /// Scores stitched placements globally; the Evaluator's lazy plan cache
  /// handles topology-revision rebuilds. It makes the tiler non-thread-safe
  /// across *callers*; the internal tile fan-out never touches it.
  Evaluator evaluator_;
  /// Lazily-built repair engine (first repairing solve pays the global
  /// problem construction, later calls reuse it). Same caller-level
  /// thread-safety caveat as evaluator_.
  mutable std::unique_ptr<PlacementRepair> repair_;
};

}  // namespace trimcaching::sim
