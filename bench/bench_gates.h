// Regression gates over BENCH_*.json documents (bench/bench_json.h), kept
// as data. A manifest (bench/gates.txt, run by tools/bench_diff) holds one
// gate per line; `#` starts a comment:
//
//   <baseline> <candidate> <key> higher|lower <threshold_pct>
//       [filter=<substring>] [min_wall_s=<seconds>] [floor=<value>]
//
// Baseline paths resolve against the manifest's directory, candidate paths
// against the working directory. For every baseline record whose name
// contains `filter`, the gate compares `key` (wall_seconds or a metrics key)
// between the two documents. The relative change is signed by the
// direction, so a positive change is a regression; a record fails when that
// exceeds threshold_pct, or when `floor` is set and the candidate's value
// lies below it. Absent data follows one rule for every key:
//   * a baseline record missing from the candidate warns (MISSING);
//   * a baseline wall time below min_wall_s skips the record;
//   * a baseline without the key skips the record;
//   * a candidate without the key fails (it stopped recording);
//   * a gate that compared no record fails (it protects nothing).
#pragma once

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/support/options.h"

namespace trimcaching::bench {

struct Gate {
  std::string source;  ///< "<where>: <line>", quoted in every verdict
  std::string baseline;
  std::string candidate;
  std::string key;
  bool higher_is_better = true;
  double threshold_pct = 0.0;
  std::string filter;  ///< empty = every record
  double min_wall_s = 0.0;
  std::optional<double> floor;
};

/// Parses one manifest line; `where` (e.g. "gates.txt:12") prefixes errors.
inline Gate parse_gate(const std::string& line, const std::string& where) {
  Gate gate;
  gate.source = where + ": " + line;
  try {
    std::istringstream tokens(line);
    std::string direction;
    std::string threshold;
    if (!(tokens >> gate.baseline >> gate.candidate >> gate.key >> direction >> threshold)) {
      throw std::invalid_argument(
          "expected <baseline> <candidate> <key> higher|lower <threshold_pct>");
    }
    if (direction != "higher" && direction != "lower") {
      throw std::invalid_argument("direction must be higher|lower, got '" + direction + "'");
    }
    gate.higher_is_better = direction == "higher";
    std::string tail = "threshold_pct=" + threshold;
    for (std::string token; tokens >> token;) tail += "\n" + token;
    const auto options = support::Options::parse_pairs(tail, '\n');
    options.check_unknown({"threshold_pct", "filter", "min_wall_s", "floor"});
    gate.threshold_pct = options.get_double("threshold_pct", 0.0);
    gate.filter = options.get_string("filter", "");
    gate.min_wall_s = options.get_double("min_wall_s", 0.0);
    if (options.has("floor")) gate.floor = options.get_double("floor", 0.0);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(gate.source + ": " + e.what());
  }
  return gate;
}

/// Reads every gate of a manifest. Throws when it cannot be read or holds no
/// gate.
inline std::vector<Gate> read_gates(const std::string& manifest_path) {
  std::ifstream file(manifest_path);
  if (!file) throw std::runtime_error("read_gates: cannot open " + manifest_path);
  const std::filesystem::path dir = std::filesystem::path(manifest_path).parent_path();
  std::vector<Gate> gates;
  std::size_t number = 0;
  for (std::string line; std::getline(file, line);) {
    ++number;
    line = line.substr(0, line.find('#'));
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t\r") + 1;
    Gate gate = parse_gate(line.substr(begin, end - begin),
                           manifest_path + ":" + std::to_string(number));
    gate.baseline = (dir / gate.baseline).string();
    gates.push_back(std::move(gate));
  }
  if (gates.empty()) throw std::runtime_error("read_gates: no gates in " + manifest_path);
  return gates;
}

/// `key` of `record`: its wall time or a metrics entry; null when absent.
inline const double* find_value(const JsonRecord& record, const std::string& key) {
  if (key == "wall_seconds") return &record.wall_seconds;
  const auto it = record.metrics.find(key);
  return it == record.metrics.end() ? nullptr : &it->second;
}

/// Evaluates one gate, writing one verdict line per record to `log`.
/// Returns true when the gate passes.
inline bool evaluate_gate(const Gate& gate,
                          const std::map<std::string, JsonRecord>& baseline,
                          const std::map<std::string, JsonRecord>& candidate,
                          std::ostream& log) {
  std::size_t compared = 0;
  std::size_t regressions = 0;
  for (const auto& [name, base] : baseline) {
    if (name.find(gate.filter) == std::string::npos) continue;
    const auto it = candidate.find(name);
    if (it == candidate.end()) {
      log << "MISSING  " << name << " (present in baseline only)\n";
      continue;
    }
    if (base.wall_seconds < gate.min_wall_s) {
      log << "skip     " << name << "  (baseline " << base.wall_seconds
          << "s below min_wall_s)\n";
      continue;
    }
    const double* before = find_value(base, gate.key);
    if (before == nullptr) {
      log << "skip     " << name << "  (no baseline " << gate.key << ")\n";
      continue;
    }
    ++compared;
    const double* after = find_value(it->second, gate.key);
    if (after == nullptr) {
      log << "REGRESS  " << name << "  (candidate stopped recording " << gate.key
          << ")\n";
      ++regressions;
      continue;
    }
    const double change_pct = *before > 0 ? (*after - *before) / *before * 100.0 : 0.0;
    const double regression_pct = gate.higher_is_better ? -change_pct : change_pct;
    const bool below_floor = gate.floor && *after < *gate.floor;
    const bool regressed = regression_pct > gate.threshold_pct || below_floor;
    log << (regressed ? "REGRESS  " : "ok       ") << name << "  " << gate.key << " "
        << *before << " -> " << *after << "  (" << (change_pct >= 0 ? "+" : "")
        << change_pct << "%)";
    if (below_floor) log << "  [below floor=" << *gate.floor << "]";
    log << "\n";
    if (regressed) ++regressions;
  }
  for (const auto& [name, record] : candidate) {
    if (name.find(gate.filter) != std::string::npos && !baseline.count(name)) {
      log << "NEW      " << name << " (no baseline yet)\n";
    }
  }
  if (compared == 0) {
    log << "FAIL     compared no records: " << gate.source << "\n";
    return false;
  }
  return regressions == 0;
}

}  // namespace trimcaching::bench
