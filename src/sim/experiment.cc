#include "src/sim/experiment.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "src/support/parallel.h"

namespace trimcaching::sim {

bool full_scale_requested() {
  const char* env = std::getenv("TRIMCACHING_FULL");
  return env != nullptr && std::string(env) == "1";
}

MonteCarloConfig default_mc_config() {
  MonteCarloConfig mc;
  if (full_scale_requested()) {
    mc.topologies = 100;
    mc.fading_realizations = 1000;
  } else {
    mc.topologies = 8;
    mc.fading_realizations = 200;
  }
  return mc;
}

std::size_t threads_option(const support::Options& options) {
  if (!options.has("threads")) return 0;
  const std::string text = options.get_string("threads", "");
  long long value = 0;
  try {
    std::size_t pos = 0;
    value = std::stoll(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("threads: not an integer: '" + text + "'");
  }
  if (value <= 0) {
    throw std::invalid_argument("threads must be >= 1 (got " + text + ")");
  }
  if (static_cast<unsigned long long>(value) > support::kMaxThreads) {
    throw std::invalid_argument("threads must be <= " +
                                std::to_string(support::kMaxThreads) + " (got " +
                                text + ")");
  }
  const std::size_t hardware = support::hardware_threads();
  if (static_cast<unsigned long long>(value) > hardware) {
    std::cerr << "notice: threads=" << value << " capped at hardware concurrency ("
              << hardware << ")\n";
    return hardware;
  }
  return static_cast<std::size_t>(value);
}

std::string describe_threads(std::size_t threads) {
  return "threads: " + std::to_string(support::resolve_threads(threads)) +
         " (hardware " + std::to_string(support::hardware_threads()) + ")";
}

MonteCarloConfig bench_mc_config(int argc, const char* const* argv) {
  const auto options = support::Options::parse(argc, argv);
  options.check_unknown({"threads"});
  MonteCarloConfig mc = default_mc_config();
  mc.threads = threads_option(options);
  return mc;
}

void announce_mc(const MonteCarloConfig& mc) {
  std::cout << "[mc] topologies=" << mc.topologies
            << " fading_realizations=" << mc.fading_realizations << " "
            << describe_threads(mc.threads) << "\n";
}

void emit_experiment(const std::string& name, const std::string& description,
                     const support::Table& table) {
  std::cout << "=== " << name << " ===\n" << description << "\n\n"
            << table.to_text() << "\n";
  try {
    std::filesystem::create_directories("results");
    table.write_csv("results/" + name + ".csv");
    std::cout << "[written results/" << name << ".csv]\n\n";
  } catch (const std::exception& e) {
    std::cerr << "warning: could not write CSV for " << name << ": " << e.what()
              << "\n";
  }
}

void emit_solver_metrics(
    const std::string& experiment,
    const std::vector<std::pair<std::string, std::vector<SolverStats>>>& per_point) {
  support::Table table({"point", "solver", "title", "threads", "runtime_mean_s",
                        "runtime_std_s", "gain_evals_mean", "iterations_mean"});
  for (const auto& [label, stats] : per_point) {
    for (const auto& s : stats) {
      table.add_row({label, s.spec, s.title, support::Table::cell(s.threads),
                     support::Table::cell(s.runtime_seconds.mean, 6),
                     support::Table::cell(s.runtime_seconds.stddev, 6),
                     support::Table::cell(s.gain_evaluations.mean, 0),
                     support::Table::cell(s.iterations.mean, 0)});
    }
  }
  emit_experiment(experiment + "_solver_metrics",
                  "Per-solver wall-clock and work counters for " + experiment, table);
}

}  // namespace trimcaching::sim
