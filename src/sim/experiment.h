// Shared plumbing for the figure/table benchmark binaries: Monte-Carlo
// budget selection (quick vs paper-scale) and result output.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/sim/monte_carlo.h"
#include "src/support/options.h"
#include "src/support/table.h"

namespace trimcaching::sim {

/// True when TRIMCACHING_FULL=1 is set: use the paper's averaging budget
/// (100 topologies x 1000 fading realizations) instead of the quick default.
[[nodiscard]] bool full_scale_requested();

/// Monte-Carlo budget honoring TRIMCACHING_FULL.
[[nodiscard]] MonteCarloConfig default_mc_config();

/// Parses and validates a `threads=` option: absent -> 0 (auto = hardware
/// concurrency). Explicit values must be integers in [1, kMaxThreads] —
/// other values throw std::invalid_argument — and are capped at the
/// hardware concurrency (with a notice on stderr).
[[nodiscard]] std::size_t threads_option(const support::Options& options);

/// One-line run-header description of the resolved thread count, e.g.
/// "threads: 8 (hardware 8)".
[[nodiscard]] std::string describe_threads(std::size_t threads);

/// Shared bench-binary entry: default_mc_config() plus a `threads=N`
/// command-line option (the only key bench binaries accept). Print the run
/// header with announce_mc() *after* any bench-specific budget overrides.
[[nodiscard]] MonteCarloConfig bench_mc_config(int argc, const char* const* argv);

/// Prints the "[mc] topologies=... fading_realizations=... threads: ..."
/// run-header line for the final Monte-Carlo budget.
void announce_mc(const MonteCarloConfig& mc);

/// Prints a figure header, the table body, and writes `<name>.csv` next to
/// the binary's working directory under results/ (best effort: failures to
/// create the directory only warn).
void emit_experiment(const std::string& name, const std::string& description,
                     const support::Table& table);

/// Emits "<experiment>_solver_metrics.csv": one row per (sweep point, solver)
/// with the per-solver wall-clock and work counters of run_comparison, so
/// benchmark trajectories can track solver runtime regressions alongside the
/// figure's hit-ratio CSV. `per_point` pairs a point label with that point's
/// solver stats.
void emit_solver_metrics(
    const std::string& experiment,
    const std::vector<std::pair<std::string, std::vector<SolverStats>>>& per_point);

}  // namespace trimcaching::sim
