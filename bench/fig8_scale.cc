// Fig. 8 (extension): scale-out sweep of the scenario engine — journal-sized
// deployments solved through sim::ScenarioTiler versus the monolithic
// pipeline.
//
// Five sweep points grow the paper's M=10 / K=20 / I=30 setup at constant
// server density (the area grows with M; users densify, as in the journal
// regimes of arXiv:2404.14204): 2x (M=14, K=40, I=60), 10x (M=32, K=200,
// I=300), 100x (M=100, K=2000, I=1000 — a 10^3-model zoo, 2x2 tiles), 300x
// (M=300, K=6000, 3x3 tiles) and 1000x (M=1000, K=10000, 5x5 tiles), the
// last two on the same 1000-model zoo. Request
// deadlines widen to 2–6 s (edge model download tolerance): at thousands of
// users per deployment the per-user bandwidth share shrinks ~10x, and the
// paper's 0.5–1 s interactive window would make nearly every request
// ineligible at any placement.
//
// Per point the bench times, with `reps` repetitions taking the minimum:
//   * untiled serial   — full PlacementProblem + gen:threads=1 (the
//                        baseline the tiler must beat);
//   * tiled serial     — ScenarioTiler::solve at threads=1;
//   * tiled threaded   — the same tiler at threads=N (tile-level fan-out);
//   * tiled repaired   — the threaded stitch plus the PlacementRepair
//                        cross-tile pass (global dedup of halo duplicates +
//                        marginal-gain refill of the freed capacity).
// Tiled and repaired results must be bit-identical across thread counts
// (checked; a mismatch fails the run); the tiled-vs-untiled hit-ratio
// deviation — the halo approximation error — and the placement duplication
// factor (placements per distinct cached model; the raw stitch re-caches
// popular models across halos, repair pulls it back toward the untiled
// level) are reported per point and per variant.
//
// Each solve variant additionally samples its own peak resident set
// (support/resource.h RssSampler, with release_freed_memory() between
// variants so one variant's freed pages do not inflate the next variant's
// watermark). With factored hit lists (core/problem.h) the full 100x
// problem holds only a few MB, and the request model keeps only each user's
// 30 requested models (workload/request_model.h): about 1.6 MB at 100x,
// recorded as request_model_mb on each untiled record. Everything
// lands in BENCH_scale.json (bench/bench_json.h schema, incl. the
// hit_ratio, duplication_factor, peak_rss_mb and request_model_mb metrics)
// for the perf trajectory and the speedup, duplication and request-model
// memory gates of bench/gates.txt.
//
//   ./fig8_scale                        # 10x + 100x
//   ./fig8_scale scale=2x threads=4    # smoke
//   ./fig8_scale scale=2x,10x,100x reps=3   # CI
//   ./fig8_scale scale=300x,1000x reps=1    # past 100x
#include <algorithm>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/solver_registry.h"
#include "src/sim/experiment.h"
#include "src/sim/placement_repair.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"
#include "src/support/options.h"
#include "src/support/resource.h"
#include "src/support/table.h"
#include "src/support/timing.h"

namespace {

using namespace trimcaching;
using Clock = support::WallClock;
using support::seconds_since;

struct ScalePoint {
  std::string name;
  std::size_t servers;
  std::size_t users;
  std::size_t models;
  std::size_t models_per_family;
  double area_side_m;
  std::size_t tiles;  ///< tiles per axis
};

const std::vector<ScalePoint>& all_points() {
  static const std::vector<ScalePoint> points = {
      {"2x", 14, 40, 60, 20, 1183.0, 2},
      {"10x", 32, 200, 300, 100, 1789.0, 2},
      {"100x", 100, 2000, 1000, 334, 3162.0, 2},
      {"300x", 300, 6000, 1000, 334, 5477.0, 3},
      {"1000x", 1000, 10000, 1000, 334, 10000.0, 5},
  };
  return points;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

bool same_placements(const core::PlacementSolution& a,
                     const core::PlacementSolution& b) {
  if (a.num_servers() != b.num_servers() || a.total_placements() != b.total_placements()) {
    return false;
  }
  for (ServerId m = 0; m < a.num_servers(); ++m) {
    auto lhs = a.models_on(m);
    auto rhs = b.models_on(m);
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    if (lhs != rhs) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto options = support::Options::parse(argc, argv);
    options.check_unknown({"threads", "scale", "reps"});
    const std::size_t threads = support::resolve_threads(sim::threads_option(options));
    const std::size_t reps = std::max<std::size_t>(1, options.get_size("reps", 2));
    const auto wanted = split_csv(options.get_string("scale", "10x,100x"));

    std::vector<ScalePoint> points;
    for (const auto& name : wanted) {
      const auto it =
          std::find_if(all_points().begin(), all_points().end(),
                       [&name](const ScalePoint& p) { return p.name == name; });
      if (it == all_points().end()) {
        throw std::invalid_argument("fig8_scale: unknown scale '" + name +
                                    "' (available: 2x, 10x, 100x, 300x, 1000x)");
      }
      points.push_back(*it);
    }

    std::cout << "[fig8_scale] " << sim::describe_threads(threads) << ", reps=" << reps
              << "\n";
    support::Table table({"scale", "variant", "wall_s", "hit_ratio",
                          "speedup_vs_untiled", "halo_deviation_pct", "dup_factor",
                          "peak_rss_mb"});
    std::vector<bench::JsonRecord> records;

    for (const ScalePoint& point : points) {
      sim::ScenarioConfig config;
      config.num_servers = point.servers;
      config.num_users = point.users;
      config.area_side_m = point.area_side_m;
      config.library_size = point.models;
      config.special.models_per_family = point.models_per_family;
      config.requests.models_per_user = 30;
      config.requests.deadline_min_s = 2.0;
      config.requests.deadline_max_s = 6.0;

      support::Rng rng(7);
      const sim::Scenario scenario = sim::build_scenario(config, rng);

      sim::TilerConfig tiler_config;
      tiler_config.tiles_x = point.tiles;
      tiler_config.tiles_y = point.tiles;
      const sim::ScenarioTiler tiler(scenario, tiler_config);

      // Each variant runs inside its own RSS sampling scope; the allocator
      // returns freed pages to the kernel first so the previous variant's
      // retained arenas do not inflate this variant's sampled peak (the
      // ru_maxrss watermark is useless here — it never comes back down).

      // Untiled serial baseline: full problem + serial Gen, end to end.
      double untiled_wall = 0.0;
      double untiled_hit = 0.0;
      double untiled_dup = 1.0;
      support::release_freed_memory();
      support::RssSampler untiled_sampler;
      for (std::size_t r = 0; r < reps; ++r) {
        const auto start = Clock::now();
        const core::PlacementProblem problem = scenario.problem();
        core::SolverContext context(support::Rng(42).at(0x711E, 0));
        const auto outcome =
            core::SolverRegistry::instance().make("gen:threads=1")->run(problem, context);
        const double wall = seconds_since(start);
        untiled_hit = outcome.hit_ratio;
        untiled_dup = core::duplication_factor(outcome.placement);
        untiled_wall = r == 0 ? wall : std::min(untiled_wall, wall);
      }
      const double untiled_rss = untiled_sampler.stop_and_peak_mb();

      // Tiled, serial then threaded, same tiling and seeds.
      support::release_freed_memory();
      support::RssSampler tiled_serial_sampler;
      sim::TiledSolveResult tiled_serial = tiler.solve("gen", 42, 1);
      for (std::size_t r = 1; r < reps; ++r) {
        auto again = tiler.solve("gen", 42, 1);
        if (again.wall_seconds < tiled_serial.wall_seconds) {
          tiled_serial = std::move(again);
        }
      }
      const double tiled_serial_rss = tiled_serial_sampler.stop_and_peak_mb();

      support::release_freed_memory();
      support::RssSampler tiled_threaded_sampler;
      sim::TiledSolveResult tiled_threaded = tiler.solve("gen", 42, threads);
      for (std::size_t r = 1; r < reps; ++r) {
        auto again = tiler.solve("gen", 42, threads);
        if (again.wall_seconds < tiled_threaded.wall_seconds) {
          tiled_threaded = std::move(again);
        }
      }
      const double tiled_threaded_rss = tiled_threaded_sampler.stop_and_peak_mb();

      // Full placement bit-identity across thread counts, per server.
      if (tiled_serial.hit_ratio != tiled_threaded.hit_ratio ||
          !same_placements(tiled_serial.placement, tiled_threaded.placement)) {
        std::cerr << "fig8_scale: tiled solve not bit-identical across thread "
                     "counts at "
                  << point.name << "\n";
        return 1;
      }

      // Cross-tile repair on the stitched placement, serial and threaded.
      // The engine's one-time global-problem build is amortized across
      // repair() calls (mirroring how the tiler itself is constructed once
      // above), so the tiled_repaired wall below is the *incremental* repair
      // cost; the build is timed and recorded as its own JSON record so the
      // amortized cost stays visible to the perf trajectory rather than
      // silently flattering the gated speedup ratio.
      const auto repair_build_start = Clock::now();
      const sim::PlacementRepair repairer(scenario, tiler.server_tiles(), {});
      const double repair_build_wall = seconds_since(repair_build_start);
      sim::RepairResult repaired = repairer.repair(tiled_threaded.placement, threads);
      {
        const sim::RepairResult repaired_serial =
            repairer.repair(tiled_serial.placement, 1);
        if (repaired_serial.hit_ratio != repaired.hit_ratio ||
            !same_placements(repaired_serial.placement, repaired.placement)) {
          std::cerr << "fig8_scale: repair pass not bit-identical across thread "
                       "counts at "
                    << point.name << "\n";
          return 1;
        }
      }
      for (std::size_t r = 1; r < reps; ++r) {
        auto again = repairer.repair(tiled_threaded.placement, threads);
        if (again.wall_seconds < repaired.wall_seconds) repaired = std::move(again);
      }
      const double repaired_wall = tiled_threaded.wall_seconds + repaired.wall_seconds;

      const auto deviation_of = [&](double hit) {
        return untiled_hit > 0 ? (untiled_hit - hit) / untiled_hit * 100.0 : 0.0;
      };
      const double deviation_pct = deviation_of(tiled_threaded.hit_ratio);
      const double repaired_deviation_pct = deviation_of(repaired.hit_ratio);
      const auto speedup = [&](double wall) { return untiled_wall / std::max(1e-9, wall); };
      const auto row = [&](const std::string& variant, double wall, double hit,
                           double ratio, double deviation, double dup,
                           double rss_mb) {
        table.add_row({point.name, variant, support::Table::cell(wall, 4),
                       support::Table::cell(hit, 4),
                       ratio > 0 ? support::Table::cell(ratio, 2) : "-",
                       variant == "untiled_serial"
                           ? "-"
                           : support::Table::cell(deviation, 2),
                       support::Table::cell(dup, 2),
                       rss_mb >= 0 ? support::Table::cell(rss_mb, 1) : "-"});
      };
      row("untiled_serial", untiled_wall, untiled_hit, 0.0, 0.0, untiled_dup,
          untiled_rss);
      row("tiled_serial", tiled_serial.wall_seconds, tiled_serial.hit_ratio,
          speedup(tiled_serial.wall_seconds), deviation_pct,
          tiled_serial.duplication_factor, tiled_serial_rss);
      row("tiled_threaded", tiled_threaded.wall_seconds, tiled_threaded.hit_ratio,
          speedup(tiled_threaded.wall_seconds), deviation_pct,
          tiled_threaded.duplication_factor, tiled_threaded_rss);
      row("tiled_repaired", repaired_wall, repaired.hit_ratio, speedup(repaired_wall),
          repaired_deviation_pct, repaired.duplication_after, -1.0);

      const std::string prefix = "fig8_scale_" + point.name + "_";
      const auto record = [&](const std::string& variant, double wall,
                              std::size_t record_threads, bench::Metrics metrics,
                              double rss_mb = -1.0) {
        if (rss_mb >= 0) metrics["peak_rss_mb"] = rss_mb;
        records.push_back({prefix + variant, wall, record_threads, std::move(metrics)});
      };
      const auto solved = [&](const sim::TiledSolveResult& result) {
        return bench::Metrics{{"speedup_vs_serial", speedup(result.wall_seconds)},
                              {"hit_ratio", result.hit_ratio},
                              {"duplication_factor", result.duplication_factor}};
      };
      record("untiled_serial", untiled_wall, 1,
             {{"hit_ratio", untiled_hit},
              {"duplication_factor", untiled_dup},
              {"request_model_mb", static_cast<double>(scenario.requests.memory_bytes()) /
                                       (1024.0 * 1024.0)}},
             untiled_rss);
      record("tiled_serial", tiled_serial.wall_seconds, 1, solved(tiled_serial),
             tiled_serial_rss);
      record("tiled_threaded", tiled_threaded.wall_seconds, threads,
             solved(tiled_threaded), tiled_threaded_rss);
      record("tiled_repaired", repaired_wall, threads,
             {{"speedup_vs_serial", speedup(repaired_wall)},
              {"hit_ratio", repaired.hit_ratio},
              {"duplication_factor", repaired.duplication_after}});
      record("repair_engine_build", repair_build_wall, 1, {});

      std::cout << point.name << ": untiled " << untiled_wall << " s (hit "
                << untiled_hit << "), tiled " << tiled_threaded.wall_seconds
                << " s at " << threads << " threads (hit "
                << tiled_threaded.hit_ratio << ", " << speedup(tiled_threaded.wall_seconds)
                << "x, halo deviation " << deviation_pct << "%, "
                << tiled_threaded.tiles_solved << " tiles), repaired +"
                << repaired.wall_seconds << " s (hit " << repaired.hit_ratio
                << ", deviation " << repaired_deviation_pct << "%, duplication "
                << repaired.duplication_before << " -> "
                << repaired.duplication_after << ", "
                << repaired.duplicates_evicted << " evicted, "
                << repaired.models_added << " added; one-time engine build "
                << repair_build_wall << " s, amortized)\n";
    }

    sim::emit_experiment(
        "fig8_scale",
        "Scale-out sweep: spatially tiled solves (ScenarioTiler), with and "
        "without the cross-tile repair pass (PlacementRepair), vs the "
        "monolithic pipeline at 2x/10x/100x of the paper's scenario size",
        table);
    bench::write_bench_json("BENCH_scale.json", records);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
