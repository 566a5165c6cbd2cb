// Command-line front end: sample a scenario, run one or more placement
// solvers from the registry, and report hit ratios (expected, Rayleigh-
// fading, and optionally the contention-aware discrete-event replay).
//
//   trimcaching_cli servers=10 users=20 capacity_gb=1.0 library=special
//   trimcaching_cli requested=30 algo=all seed=1 fading=500 arrivals=0.05
//   trimcaching_cli algo=list                 # print every registered solver
//   trimcaching_cli algo="spec+ls;gen:lazy=0" # ';'-separated spec strings
//
// Keys (all optional):
//   servers, users       deployment sizes            (10, 20)
//   area_m               square side in meters       (1000)
//   capacity_gb          per-server storage          (1.0)
//   library              special | general | lora    (special)
//   models               library size, 0 = full      (0)
//   requested            models requested per user   (30)
//   zipf                 request skew exponent       (0.8)
//   compute              per-server inference compute capacity (expected
//                        request-mass x cost units); 0 = unlimited (0).
//                        Finite capacities switch every solver and evaluator
//                        to the joint caching + compute objective.
//   infer_cost           scale from a request's inference seconds to its
//                        compute cost (infer_cost_scale, >= 0) (1.0)
//   compute_slots        concurrent inference slots per server in the
//                        serving replay; 0 = unlimited (0)
//   algo                 list | all | ';'-separated registry specs (all)
//                        "all" = the paper's trio spec;gen;independent;
//                        specs take options, e.g. gen:lazy=0,rule=per_byte
//   local_search         refine with 1-swap search, i.e. append "+ls" (false)
//   time_budget_s        per-solver deadline in seconds, 0 = none (0)
//   seed                 RNG seed                    (1)
//   fading               fading realizations, 0=off  (300)
//   threads              evaluation/tile-solve threads, 1..1024, capped at
//                        hardware concurrency (default: hardware
//                        concurrency); solver inner loops take their own
//                        threads option, e.g. algo=gen:threads=8
//   arrivals             per-user req/s for the serving replay, 0=off (0)
//   policy               serving cache policy for the replay:
//                        static | lru | ewma[:tau_s=60] | priority (static)
//   faults               fraction of failure-prone servers for deterministic
//                        fault injection in the serving replay, 0=off (0);
//                        prone servers alternate exponential up/down episodes
//   mtbf                 mean up time between outages in seconds (120);
//                        only read when faults > 0
//   mttr                 mean outage length in seconds (30); only read when
//                        faults > 0
//   availability         per-server up probability for placement scoring
//                        under random outages (sim::score_under_outages);
//                        1 = skip the availability report (1)
//   outage_samples       Monte-Carlo outage masks for the availability
//                        report (32)
//   tiles                solve through ScenarioTiler on an NxN spatial
//                        grid, N <= servers, 0 = untiled (0); servers stay
//                        tile-disjoint, boundary users ride along in halo
//                        tiles, hit ratios are always the global Eq. 2 value
//   tile_halo_m          halo margin in meters for boundary users;
//                        negative = the radio coverage radius (-1)
//   repair               1 = run the cross-tile repair pass on the stitched
//                        placement (global dedup of halo duplicates +
//                        marginal-gain refill; tiled runs only) (0)
//   repair_tol           max global hit mass a copy may lose on eviction
//                        and still count as a duplicate (1e-12)
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "src/core/solver_registry.h"
#include "src/io/serialization.h"
#include "src/serve/engine.h"
#include "src/sim/evaluator.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_model.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"
#include "src/support/options.h"
#include "src/support/parallel.h"

namespace {

using namespace trimcaching;

std::vector<std::string> split_specs(const std::string& text) {
  std::vector<std::string> specs;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto sep = text.find(';', start);
    const std::string token =
        text.substr(start, sep == std::string::npos ? sep : sep - start);
    if (!token.empty()) specs.push_back(token);
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  return specs;
}

/// A real-valued knob that must be finite and in [0, max]. NaN, infinities
/// and negative values fail naming the knob; a NaN or negative capacity
/// would otherwise reach an undefined double -> uint64_t cast.
double nonnegative_knob(const support::Options& options, const std::string& key,
                        double fallback,
                        double max = std::numeric_limits<double>::max()) {
  const double value = options.get_double(key, fallback);
  if (!(value >= 0 && value <= max)) {  // also rejects NaN
    std::ostringstream what;
    what << key << ": must be a finite number >= 0";
    if (max < std::numeric_limits<double>::max()) what << " and <= " << max;
    what << ", got " << value;
    throw std::invalid_argument(what.str());
  }
  return value;
}

/// Availability report settings (availability= / outage_samples= knobs);
/// availability = 1 skips the report entirely.
struct AvailabilityKnobs {
  double availability = 1.0;
  std::size_t samples = 32;
};

void report(const core::Solver& solver, const core::SolverOutcome& outcome,
            const sim::Scenario& scenario, const sim::Evaluator& evaluator,
            const support::Options& options, std::size_t threads, double arrivals,
            const sim::FaultSchedule* faults, const AvailabilityKnobs& avail,
            support::Rng& rng) {
  std::cout << solver.title() << " [" << solver.name() << "]:\n"
            << "  expected hit ratio: "
            << evaluator.expected_hit_ratio(outcome.placement) << "\n"
            << "  placement time:     " << outcome.wall_seconds << " s";
  if (outcome.gain_evaluations > 0) {
    std::cout << " (" << outcome.gain_evaluations << " gain evaluations)";
  }
  if (outcome.iterations > 0) std::cout << " (" << outcome.iterations << " steps)";
  std::cout << "\n";
  if (outcome.optimality_bound) {
    std::cout << "  optimality bound:   " << *outcome.optimality_bound << "\n";
  }
  const std::size_t fading = options.get_size("fading", 300);
  if (fading > 0) {
    // Counter-based fading derivation: every solver in this run is scored
    // under identical channel draws (rng is not advanced).
    const auto summary =
        evaluator.fading_hit_ratio(outcome.placement, fading, rng, threads);
    std::cout << "  fading hit ratio:   " << summary.mean << " +- " << summary.stddev
              << " (" << fading << " realizations, " << threads << " threads)\n";
  }
  if (arrivals > 0) {
    serve::ServeConfig serving;
    serving.arrival_rate_per_user = arrivals;
    serving.policy = options.get_string("policy", "static");
    serving.threads = threads;
    serving.compute_slots = options.get_size("compute_slots", 0);
    serving.faults = faults;
    const auto replay =
        serve::simulate_serving(scenario.topology, scenario.library,
                                scenario.requests, outcome.placement, serving, rng);
    std::cout << "  serving replay:     hit " << replay.hit_ratio << " ("
              << serving.policy << ", " << replay.totals.requests
              << " requests, mean download " << replay.mean_download_s << " s, p95 "
              << replay.p95_download_s << " s, concurrency "
              << replay.mean_concurrency << ")\n";
    if (serving.compute_slots > 0) {
      std::cout << "  compute admission:  " << replay.totals.compute_rejects
                << " rejects -> " << replay.totals.cloud_served
                << " served from the cloud (" << serving.compute_slots
                << " slots/server)\n";
    }
    if (faults != nullptr) {
      std::cout << "  failure summary:    " << replay.totals.outages << " outages / "
                << replay.totals.recoveries << " recoveries, " << replay.totals.failovers
                << " arrivals failed over, " << replay.totals.failed_over
                << " in-flight failed over, " << replay.totals.aborted << " aborted, "
                << replay.totals.rewarms << " cache re-warms (mean "
                << replay.mean_rewarm_s << " s)\n";
    }
  }
  if (avail.availability < 1.0) {
    // Counter-based draws: every solver is scored under identical outage
    // masks (rng is not advanced).
    const sim::AvailabilityScore score = sim::score_under_outages(
        scenario.topology, scenario.library, scenario.requests, outcome.placement,
        avail.availability, avail.samples, rng);
    std::cout << "  availability score: expected " << score.expected_hit_ratio
              << ", worst " << score.worst_hit_ratio << ", nominal "
              << score.nominal_hit_ratio << " (availability " << avail.availability
              << ", " << avail.samples << " outage masks)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto options = support::Options::parse(argc, argv);
    options.check_unknown({"servers", "users", "area_m", "capacity_gb", "library",
                           "models", "requested", "zipf", "compute", "infer_cost",
                           "compute_slots", "algo", "local_search",
                           "time_budget_s", "seed", "fading", "threads", "arrivals",
                           "policy", "faults", "mtbf", "mttr", "availability",
                           "outage_samples", "save_library", "save_placement",
                           "tiles", "tile_halo_m",
                           "repair", "repair_tol"});

    const auto& registry = core::SolverRegistry::instance();
    const std::string algo = options.get_string("algo", "all");
    if (algo == "list") {
      std::cout << "registered solvers (compose with '+', options after ':'):\n";
      for (const auto& info : registry.list()) {
        std::cout << "  " << info.name << "\n      " << info.summary << "\n";
      }
      return 0;
    }

    std::vector<std::string> specs =
        algo == "all" ? std::vector<std::string>{"spec", "gen", "independent"}
                      : split_specs(algo);
    if (specs.empty()) {
      throw std::invalid_argument("algo: no solver specs given (try algo=list)");
    }
    if (options.get_bool("local_search", false)) {
      for (auto& spec : specs) spec += "+ls";
    }
    // Validate every spec before doing any expensive work; an unknown name
    // throws with the full list of registered solvers.
    std::vector<std::unique_ptr<core::Solver>> solvers;
    for (const auto& spec : specs) solvers.push_back(registry.make(spec));

    sim::ScenarioConfig config;
    config.num_servers = options.get_size("servers", 10);
    config.num_users = options.get_size("users", 20);
    config.area_side_m = options.get_double("area_m", 1000.0);
    // 1e10 GB keeps the byte count below 2^64.
    config.capacity_bytes =
        support::gigabytes(nonnegative_knob(options, "capacity_gb", 1.0, 1e10));
    config.library_size = options.get_size("models", 0);
    config.requests.models_per_user = options.get_size("requested", 30);
    config.requests.zipf_exponent = options.get_double("zipf", 0.8);
    const double compute = nonnegative_knob(options, "compute", 0.0);  // 0 = unlimited
    if (compute > 0) config.compute_capacity = compute;
    config.requests.infer_cost_scale = nonnegative_knob(options, "infer_cost", 1.0);
    const double arrivals = nonnegative_knob(options, "arrivals", 0.0);  // 0 = off
    const std::string library = options.get_string("library", "special");
    if (library == "special") {
      config.library_kind = sim::LibraryKind::kSpecialCase;
    } else if (library == "general") {
      config.library_kind = sim::LibraryKind::kGeneralCase;
    } else if (library == "lora") {
      config.library_kind = sim::LibraryKind::kLora;
      config.requests.models_per_user = 0;
      config.requests.deadline_min_s = 6.0;
      config.requests.deadline_max_s = 12.0;
    } else {
      throw std::invalid_argument("library must be special|general|lora");
    }

    const std::size_t threads = support::resolve_threads(sim::threads_option(options));

    // Fault-injection knobs, validated before any expensive work: NaN and
    // out-of-range values get a targeted diagnostic, mirroring compute=.
    const double faults = options.get_double("faults", 0.0);
    if (std::isnan(faults) || faults < 0 || faults > 1) {
      throw std::invalid_argument(
          "faults: must be in [0, 1] (fraction of failure-prone servers), got " +
          std::to_string(faults));
    }
    const double mtbf = options.get_double("mtbf", 120.0);
    const double mttr = options.get_double("mttr", 30.0);
    if (faults > 0) {
      if (std::isnan(mtbf) || mtbf <= 0) {
        throw std::invalid_argument(
            "mtbf: must be > 0 seconds when faults > 0, got " + std::to_string(mtbf));
      }
      if (std::isnan(mttr) || mttr <= 0) {
        throw std::invalid_argument(
            "mttr: must be > 0 seconds when faults > 0, got " + std::to_string(mttr));
      }
    }
    AvailabilityKnobs avail;
    avail.availability = options.get_double("availability", 1.0);
    if (std::isnan(avail.availability) || avail.availability <= 0 ||
        avail.availability > 1) {
      throw std::invalid_argument("availability: must be in (0, 1], got " +
                                  std::to_string(avail.availability));
    }
    avail.samples = options.get_size("outage_samples", 32);
    if (avail.samples == 0) {
      throw std::invalid_argument("outage_samples: must be >= 1");
    }

    support::Rng rng(options.get_size("seed", 1));
    const sim::Scenario scenario = sim::build_scenario(config, rng);
    const auto lib_stats = scenario.library.stats();
    std::cout << "scenario: M=" << config.num_servers << " K=" << config.num_users
              << " I=" << scenario.library.num_models() << " ("
              << lib_stats.num_shared_blocks << " shared blocks, sharing ratio "
              << lib_stats.sharing_ratio << ")\n"
              << sim::describe_threads(threads) << "\n\n";

    if (options.has("save_library")) {
      const std::string path = options.get_string("save_library", "");
      io::write_library(path, scenario.library);
      std::cout << "library written to " << path << "\n";
    }

    // save_placement captures the Gen placement when "gen" is among the
    // requested solvers (the historical behavior under algo=all), otherwise
    // the first requested solver's.
    std::size_t save_index = 0;
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      if (solvers[s]->name() == "gen") {
        save_index = s;
        break;
      }
    }
    const double time_budget = options.get_double("time_budget_s", 0.0);
    // One evaluator for the whole run: the EvalPlan arena is built once and
    // reused across solvers.
    const sim::Evaluator evaluator(scenario.topology, scenario.library,
                                   scenario.requests);

    // One fault schedule for the whole run (counter-based off the seed, so
    // every solver's replay sees identical outages).
    std::unique_ptr<sim::FaultSchedule> fault_schedule;
    if (faults > 0) {
      sim::FaultScheduleConfig fault_config;
      fault_config.duration_s = serve::ServeConfig{}.duration_s;
      fault_config.fault_fraction = faults;
      fault_config.mtbf_s = mtbf;
      fault_config.mttr_s = mttr;
      fault_config.validate();
      fault_schedule = std::make_unique<sim::FaultSchedule>(config.num_servers,
                                                            fault_config, rng);
      std::cout << "failure model: " << fault_schedule->faulty_servers() << "/"
                << config.num_servers << " servers fault-prone, "
                << fault_schedule->total_outages() << " outages, "
                << fault_schedule->total_downtime_s() << " s total downtime (mtbf "
                << mtbf << " s, mttr " << mttr << " s)\n\n";
    }

    // Optional spatial tiling: servers partition onto an NxN grid, tiles
    // solve concurrently, and the stitched placement is scored globally.
    // The monolithic full-scenario problem is only built on the untiled
    // path — skipping it is exactly the construction cost tiling avoids.
    const std::size_t tiles = options.get_size("tiles", 0);
    std::unique_ptr<sim::ScenarioTiler> tiler;
    std::optional<core::PlacementProblem> problem;
    if (tiles > 0) {
      sim::TilerConfig tiler_config;
      tiler_config.tiles_x = tiles;
      tiler_config.tiles_y = tiles;
      tiler_config.halo_m = options.get_double("tile_halo_m", -1.0);
      tiler_config.threads = threads;
      tiler_config.repair = options.get_bool("repair", false);
      tiler_config.repair_tolerance = options.get_double("repair_tol", 1e-12);
      tiler = std::make_unique<sim::ScenarioTiler>(scenario, tiler_config);
      std::cout << "tiling: " << tiler->tiles_x() << "x" << tiler->tiles_y()
                << " grid, " << tiler->halo_memberships()
                << " halo user memberships"
                << (tiler_config.repair ? ", cross-tile repair on" : "") << "\n\n";
    } else {
      if (options.get_bool("repair", false)) {
        throw std::invalid_argument(
            "repair=1 needs a tiled run (set tiles=N); untiled placements "
            "can be refined with algo=<base>+repair instead");
      }
      problem.emplace(scenario.topology, scenario.library, scenario.requests);
    }
    for (std::size_t s = 0; s < solvers.size(); ++s) {
      core::SolverContext context(rng.fork(3000 + s));
      if (time_budget > 0) context.set_deadline_after(time_budget);
      context.trace = [](std::string_view event) {
        std::cout << "  [solver] " << event << "\n";
      };
      core::SolverOutcome outcome = [&] {
        if (!tiler) return solvers[s]->run(*problem, context);
        sim::TiledSolveResult tiled =
            tiler->solve(specs[s], context.rng().seed(), SIZE_MAX, time_budget);
        if (options.get_bool("repair", false)) {
          std::cout << "  [repair] " << tiled.duplicates_evicted
                    << " duplicates evicted, " << tiled.repair_additions
                    << " models added, duplication factor "
                    << tiled.duplication_factor << " ("
                    << tiled.repair_wall_seconds << " s)\n";
        }
        core::SolverOutcome from_tiles(std::move(tiled.placement));
        from_tiles.hit_ratio = tiled.hit_ratio;
        from_tiles.wall_seconds = tiled.wall_seconds;
        from_tiles.gain_evaluations = tiled.gain_evaluations;
        from_tiles.iterations = tiled.iterations;
        return from_tiles;
      }();
      if (s == save_index && options.has("save_placement")) {
        const std::string path = options.get_string("save_placement", "");
        io::write_placement(path, outcome.placement);
        std::cout << solvers[s]->name() << " placement written to " << path << "\n";
      }
      report(*solvers[s], outcome, scenario, evaluator, options, threads, arrivals,
             fault_schedule.get(), avail, rng);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
