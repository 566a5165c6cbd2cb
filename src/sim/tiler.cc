#include "src/sim/tiler.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/core/solver_registry.h"
#include "src/support/parallel.h"
#include "src/support/timing.h"
#include "src/wireless/spatial_grid.h"

namespace trimcaching::sim {

namespace {

/// Counter-based stream tag for per-tile solver contexts (Rng::at).
constexpr std::uint64_t kTileStream = 0x711E;

/// Compact per-tile stitch record: the per-local-server model rows (in
/// placement order — the stitch replays them in order) plus the work
/// counters. Reducing each SolverOutcome to this inside the solve shard
/// releases the tile's dense placement bitset eagerly instead of keeping
/// every tile's full outcome alive until the stitch loop.
struct TileStitch {
  std::vector<std::vector<ModelId>> rows;
  std::size_t gain_evaluations = 0;
  std::size_t iterations = 0;
};

TileStitch reduce_outcome(const core::SolverOutcome& outcome) {
  TileStitch stitch;
  stitch.rows.resize(outcome.placement.num_servers());
  for (ServerId m = 0; m < outcome.placement.num_servers(); ++m) {
    stitch.rows[m] = outcome.placement.models_on(m);
  }
  stitch.gain_evaluations = outcome.gain_evaluations;
  stitch.iterations = outcome.iterations;
  return stitch;
}

}  // namespace

void TilerConfig::validate() const {
  if ((tiles_x == 0) != (tiles_y == 0)) {
    throw std::invalid_argument(
        "TilerConfig: set both tiles_x and tiles_y, or neither (auto)");
  }
  if (tiles_x == 0 && target_servers_per_tile == 0) {
    throw std::invalid_argument(
        "TilerConfig: target_servers_per_tile must be > 0 for auto grids");
  }
  if (std::isnan(halo_m) || std::isinf(halo_m)) {
    throw std::invalid_argument("TilerConfig: halo_m must be finite");
  }
  if (std::isnan(repair_tolerance) || std::isinf(repair_tolerance) ||
      repair_tolerance < 0) {
    throw std::invalid_argument(
        "TilerConfig: repair_tolerance must be finite and >= 0");
  }
}

ScenarioTiler::ScenarioTiler(const Scenario& scenario, TilerConfig config)
    : scenario_(&scenario),
      config_(config),
      evaluator_(scenario.topology, scenario.library, scenario.requests) {
  config_.validate();
  const wireless::NetworkTopology& topology = scenario.topology;
  const double side = topology.area().side_m;
  const std::size_t num_servers = topology.num_servers();
  const std::size_t num_users = topology.num_users();

  if (config_.tiles_x > 0) {
    // More tiles per axis than servers only adds empty tiles, and an
    // unchecked tiles_x * tiles_y can wrap to a grid smaller than its axes.
    const auto check_axis = [num_servers](const char* name, std::size_t value) {
      if (value > num_servers) {
        throw std::invalid_argument(
            std::string("TilerConfig: ") + name + " = " + std::to_string(value) +
            " exceeds the scenario's " + std::to_string(num_servers) + " servers");
      }
    };
    check_axis("tiles_x", config_.tiles_x);
    check_axis("tiles_y", config_.tiles_y);
    tiles_x_ = config_.tiles_x;
    tiles_y_ = config_.tiles_y;
  } else {
    // Square grid sized so the average tile holds ~target_servers_per_tile.
    const double tiles = static_cast<double>(num_servers) /
                         static_cast<double>(config_.target_servers_per_tile);
    tiles_x_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(std::sqrt(std::max(1.0, tiles)))));
    tiles_y_ = tiles_x_;
  }
  halo_m_ = config_.halo_m < 0 ? topology.radio().coverage_radius_m : config_.halo_m;

  const double tile_w = side / static_cast<double>(tiles_x_);
  const double tile_h = side / static_cast<double>(tiles_y_);
  const auto tile_index = [](double v, double width, std::size_t count) {
    if (!(v > 0.0)) return std::size_t{0};
    return std::min(static_cast<std::size_t>(v / width), count - 1);
  };

  tiles_.resize(tiles_x_ * tiles_y_);
  for (std::size_t y = 0; y < tiles_y_; ++y) {
    for (std::size_t x = 0; x < tiles_x_; ++x) {
      tiles_[y * tiles_x_ + x].x = x;
      tiles_[y * tiles_x_ + x].y = y;
    }
  }
  // Servers: exactly one tile each (ascending ids per tile — m is ascending).
  server_tile_.assign(num_servers, 0);
  std::vector<wireless::Point> server_points;
  server_points.reserve(num_servers);
  for (ServerId m = 0; m < num_servers; ++m) {
    const wireless::Point& p = topology.server_position(m);
    const std::size_t tx = tile_index(p.x, tile_w, tiles_x_);
    const std::size_t ty = tile_index(p.y, tile_h, tiles_y_);
    server_tile_[m] = ty * tiles_x_ + tx;
    tiles_[server_tile_[m]].servers.push_back(m);
    server_points.push_back(p);
  }
  // Users: the home tile, plus — the halo — every tile owning a server
  // within halo_m of the user. Membership by actual server proximity (via
  // a spatial grid over the servers) instead of expanded tile bounds keeps
  // boundary users out of tiles whose servers could never reach them
  // directly, which both shrinks the per-tile problems and curbs
  // duplicated-coverage waste. The grid is only built for positive halos.
  std::optional<wireless::SpatialGrid> server_grid;
  if (halo_m_ > 0) server_grid.emplace(topology.area(), halo_m_, server_points);
  std::vector<std::size_t> member_tiles;
  for (UserId k = 0; k < num_users; ++k) {
    const wireless::Point& p = topology.user_position(k);
    const std::size_t home = tile_index(p.y, tile_h, tiles_y_) * tiles_x_ +
                             tile_index(p.x, tile_w, tiles_x_);
    member_tiles.clear();
    member_tiles.push_back(home);
    if (server_grid) {
      server_grid->for_candidates_in_disc(p, halo_m_, [&](std::size_t m) {
        if (wireless::distance(server_points[m], p) <= halo_m_) {
          member_tiles.push_back(server_tile_[m]);
        }
      });
    }
    std::sort(member_tiles.begin(), member_tiles.end());
    member_tiles.erase(std::unique(member_tiles.begin(), member_tiles.end()),
                       member_tiles.end());
    for (const std::size_t t : member_tiles) tiles_[t].users.push_back(k);
    halo_memberships_ += member_tiles.size() - 1;
  }
}

core::PlacementProblem ScenarioTiler::tile_problem(std::size_t t) const {
  const Tile& tile = tiles_.at(t);
  if (tile.servers.empty() || tile.users.empty()) {
    throw std::invalid_argument("ScenarioTiler::tile_problem: empty tile");
  }
  return core::PlacementProblem(scenario_->topology, scenario_->library,
                                scenario_->requests, tile.servers, tile.users);
}

TiledSolveResult ScenarioTiler::solve(const std::string& solver_spec,
                                      std::uint64_t seed, std::size_t threads,
                                      double time_budget_s) const {
  // Validate the spec (and force the registry's one-time built-in
  // registration onto this thread) before any shard races to read it.
  (void)core::SolverRegistry::instance().make(solver_spec);
  if (threads == SIZE_MAX) threads = config_.threads;

  const auto start = support::WallClock::now();
  const support::Rng master(seed);
  std::vector<std::optional<TileStitch>> stitches(tiles_.size());
  support::parallel_for(tiles_.size(), threads, [&](std::size_t t) {
    const Tile& tile = tiles_[t];
    if (tile.servers.empty() || tile.users.empty()) return;
    // Per-shard problem view and solver instance; the view shares the
    // scenario's topology/library/requests storage (reads only). Both the
    // view and the solver's dense placement die with this shard — only the
    // compact stitch rows survive to the merge loop.
    const core::PlacementProblem problem = tile_problem(t);
    const auto solver = core::SolverRegistry::instance().make(solver_spec);
    core::SolverContext context(master.at(kTileStream, t));
    if (time_budget_s > 0) context.set_deadline_after(time_budget_s);
    stitches[t] = reduce_outcome(solver->run(problem, context));
  });

  TiledSolveResult result{core::PlacementSolution(
      scenario_->topology.num_servers(), scenario_->library.num_models())};
  // Tile-index-order stitch: server sets are disjoint, so placements never
  // conflict and the merge is exact.
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    if (!stitches[t]) continue;
    ++result.tiles_solved;
    result.gain_evaluations += stitches[t]->gain_evaluations;
    result.iterations += stitches[t]->iterations;
    for (std::size_t m = 0; m < tiles_[t].servers.size(); ++m) {
      for (const ModelId i : stitches[t]->rows[m]) {
        result.placement.place(tiles_[t].servers[m], i);
      }
    }
  }
  // Post-stitch cross-tile repair: evict halo duplicates with zero global
  // marginal gain, refill the freed capacity. The engine (and its cached
  // global problem) is built on the first repairing solve and reused. Like
  // CompositeSolver's refinement stages, the pass is skipped once an armed
  // time budget is exhausted — repair never loses quality, so skipping only
  // forgoes the improvement.
  const bool budget_left =
      time_budget_s <= 0 ||
      support::seconds_since(start) < time_budget_s;
  if (config_.repair && budget_left) {
    if (!repair_) {
      repair_ = std::make_unique<PlacementRepair>(
          *scenario_, server_tile_,
          RepairConfig{config_.threads, config_.repair_tolerance});
    }
    RepairResult repaired = repair_->repair(result.placement, threads);
    result.placement = std::move(repaired.placement);
    result.duplicates_evicted = repaired.duplicates_evicted;
    result.repair_additions = repaired.models_added;
    result.repair_wall_seconds = repaired.wall_seconds;
  }
  result.duplication_factor = core::duplication_factor(result.placement);
  // Honest global score of the final placement (Eq. 2 on the full scenario,
  // through the evaluator's cached flat arena).
  result.hit_ratio = evaluator_.expected_hit_ratio(result.placement);
  result.wall_seconds = support::seconds_since(start);
  return result;
}

}  // namespace trimcaching::sim
