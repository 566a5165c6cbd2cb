// Perf-trajectory tracker: diffs two BENCH_*.json files (bench/bench_json.h
// schema) and exits nonzero when any kernel regressed by more than the
// threshold.
//
//   bench_diff base=bench/baselines/BENCH_scale_baseline.json new=build/BENCH_scale.json
//   bench_diff base=old.json new=new.json threshold_pct=15 allow_missing=1
//
// Keys:
//   base            baseline JSON (required)
//   new             candidate JSON (required)
//   threshold_pct   max allowed wall_seconds growth per benchmark (15)
//   allow_missing   1 = benchmarks present on only one side just warn (1);
//                   0 = a benchmark missing from `new` is a failure
//   min_wall_s      skip benchmarks whose baseline wall time is below this
//                   floor (0 = compare everything): sub-millisecond kernels
//                   shift by tens of percent on scheduler noise alone and
//                   would make the gate flap
//   filter          substring on benchmark names; only matching baseline
//                   records are compared (empty = all). Lets a gate target
//                   the records that actually carry its metric, e.g.
//                   filter=tiled_repaired for the duplication gate (raw
//                   stitch duplication is an emergent property of the
//                   greedy, not a managed quality target)
//   metric          wall (default) compares absolute wall_seconds — only
//                   meaningful between runs on the same machine; speedup
//                   compares the within-run speedup_vs_serial ratio, which
//                   is hardware-independent (a regression in the measured
//                   kernel lowers the ratio on any machine), and fails when
//                   the ratio *drops* by more than threshold_pct;
//                   duplication compares the duplication_factor column
//                   (fig8_scale's cross-tile placement-duplication metric,
//                   also hardware-independent) and fails when it *rises* by
//                   more than threshold_pct; plan_update compares the
//                   plan_update_speedup column (the mobility studies'
//                   within-run full-rebuild over delta-path per-slot
//                   maintenance ratio, hardware-independent) and fails when
//                   it *drops* by more than threshold_pct — the delta-path
//                   regression gate; hit_ratio compares the hit_ratio column
//                   (for serving records the deterministic empirical
//                   deadline-hit ratio of the replay, hardware-independent)
//                   and fails when it *drops* by more than threshold_pct —
//                   the serving-quality gate (pair with filter=serving);
//                   served compares the served_rps column (the replay's
//                   completed downloads per second, deterministic for a
//                   fixed seed) and fails when it *drops* by more than
//                   threshold_pct — the compute-admission throughput gate
//                   (pair with filter=compute for fig9's compute-
//                   constrained serving records);
//                   rss compares the peak_rss_mb column (per-variant peak
//                   resident set, fig8_scale's distributed-tiles memory
//                   metric) and fails when it *rises* by more than
//                   threshold_pct — the coordinator-memory gate (pair with
//                   filter=tiled_workers). RSS depends on allocator and
//                   machine more than the ratio metrics do; keep its
//                   threshold generous
//   min_ratio       absolute floor on the candidate's ratio for the ratio
//                   metrics (speedup | plan_update): the candidate fails when
//                   its ratio lands below this value even if the relative
//                   drop stays inside threshold_pct (0 = off). Unlike the
//                   relative gate, a floor does not erode when the baseline
//                   is regenerated — e.g. min_ratio=1.1 pins the fading
//                   kernel's vector backend at >= 1.1x its scalar backend
//                   on any machine
//
// Matching is by benchmark name; parsing goes through the shared strict
// bench::read_bench_json, so a record missing the locked schema keys aborts
// the diff loudly instead of silently comparing absent fields.
// Cross-machine caveat: absolute wall-clock only compares like with like —
// regenerate the committed baseline when the reference hardware changes
// (the CI job pins one runner class for exactly this reason).
#include <iostream>
#include <string>

#include "bench/bench_json.h"
#include "src/support/options.h"

int main(int argc, char** argv) {
  try {
    const auto options = trimcaching::support::Options::parse(argc, argv);
    options.check_unknown({"base", "new", "threshold_pct", "allow_missing",
                           "min_wall_s", "metric", "filter", "min_ratio"});
    const std::string base_path = options.get_string("base", "");
    const std::string new_path = options.get_string("new", "");
    if (base_path.empty() || new_path.empty()) {
      throw std::invalid_argument(
          "usage: bench_diff base=<baseline.json> new=<candidate.json> "
          "[threshold_pct=15] [allow_missing=1]");
    }
    const double threshold_pct = options.get_double("threshold_pct", 15.0);
    const bool allow_missing = options.get_bool("allow_missing", true);
    const double min_wall_s = options.get_double("min_wall_s", 0.0);
    const std::string filter = options.get_string("filter", "");
    const std::string metric = options.get_string("metric", "wall");
    if (metric != "wall" && metric != "speedup" && metric != "duplication" &&
        metric != "plan_update" && metric != "hit_ratio" && metric != "served" &&
        metric != "rss") {
      throw std::invalid_argument(
          "bench_diff: metric must be wall|speedup|duplication|plan_update|"
          "hit_ratio|served|rss, got '" +
          metric + "'");
    }
    const double min_ratio = options.get_double("min_ratio", 0.0);
    if (min_ratio > 0 && metric != "speedup" && metric != "plan_update") {
      throw std::invalid_argument(
          "bench_diff: min_ratio only applies to the ratio metrics "
          "(speedup|plan_update)");
    }

    const auto base = trimcaching::bench::read_bench_json(base_path);
    const auto fresh = trimcaching::bench::read_bench_json(new_path);

    std::size_t regressions = 0;
    std::size_t missing = 0;
    for (const auto& [name, entry] : base) {
      if (!filter.empty() && name.find(filter) == std::string::npos) continue;
      const auto it = fresh.find(name);
      if (it == fresh.end()) {
        std::cout << "MISSING  " << name << " (present in baseline only)\n";
        ++missing;
        continue;
      }
      if (entry.wall_seconds < min_wall_s) {
        std::cout << "skip     " << name << "  (baseline " << entry.wall_seconds
                  << "s below min_wall_s)\n";
        continue;
      }
      double before = entry.wall_seconds;
      double after = it->second.wall_seconds;
      double delta_pct = before > 0 ? (after - before) / before * 100.0 : 0.0;
      const char* unit = "s";
      const char* direction = "";
      if (metric == "speedup" || metric == "plan_update") {
        // Ratio gates: regression = the within-run ratio *dropped* (the
        // parallel kernel or the delta path lost its advantage). Baseline
        // records without the ratio are skipped; a candidate that stops
        // recording it reads as a 100% drop and fails loudly.
        const double trimcaching::bench::JsonRecord::*ratio =
            metric == "speedup" ? &trimcaching::bench::JsonRecord::speedup_vs_serial
                                : &trimcaching::bench::JsonRecord::plan_update_speedup;
        if (entry.*ratio <= 0) {
          std::cout << "skip     " << name << "  (no baseline " << metric
                    << " ratio)\n";
          continue;
        }
        before = entry.*ratio;
        after = it->second.*ratio;
        delta_pct = (before - after) / before * 100.0;
        unit = "x";
        direction = " drop";
      } else if (metric == "hit_ratio") {
        // Quality gate: regression = the hit ratio *dropped*. Baseline
        // records without the column are skipped; a candidate that stops
        // recording it reads as a 100% drop and fails loudly.
        if (entry.hit_ratio < 0) {
          std::cout << "skip     " << name << "  (no baseline hit_ratio column)\n";
          continue;
        }
        before = entry.hit_ratio;
        after = it->second.hit_ratio < 0 ? 0.0 : it->second.hit_ratio;
        delta_pct = before > 0 ? (before - after) / before * 100.0 : 0.0;
        unit = "";
        direction = " drop";
      } else if (metric == "served") {
        // Throughput gate: regression = completed downloads per second
        // *dropped*. Baseline records without the column are skipped; a
        // candidate that stops recording it reads as a 100% drop.
        if (entry.served_rps < 0) {
          std::cout << "skip     " << name << "  (no baseline served_rps column)\n";
          continue;
        }
        before = entry.served_rps;
        after = it->second.served_rps < 0 ? 0.0 : it->second.served_rps;
        delta_pct = before > 0 ? (before - after) / before * 100.0 : 0.0;
        unit = " rps";
        direction = " drop";
      } else if (metric == "duplication") {
        // Duplication gate: regression = the placement duplication *rose*.
        // Records on either side without the column are skipped.
        if (entry.duplication_factor < 0 || it->second.duplication_factor < 0) {
          std::cout << "skip     " << name << "  (no duplication_factor column)\n";
          continue;
        }
        before = entry.duplication_factor;
        after = it->second.duplication_factor;
        delta_pct = before > 0 ? (after - before) / before * 100.0 : 0.0;
        unit = "x";
        direction = " rise";
      } else if (metric == "rss") {
        // Memory gate: regression = the per-variant peak resident set
        // *rose*. Records on either side without the column are skipped
        // (most variants legitimately do not sample RSS).
        if (entry.peak_rss_mb < 0 || it->second.peak_rss_mb < 0) {
          std::cout << "skip     " << name << "  (no peak_rss_mb column)\n";
          continue;
        }
        before = entry.peak_rss_mb;
        after = it->second.peak_rss_mb;
        delta_pct = before > 0 ? (after - before) / before * 100.0 : 0.0;
        unit = "MB";
        direction = " rise";
      }
      const bool below_floor = min_ratio > 0 && after < min_ratio;
      const bool regressed = delta_pct > threshold_pct || below_floor;
      std::cout << (regressed ? "REGRESS  " : "ok       ") << name << "  " << before
                << unit << " -> " << after << unit << "  ("
                << (delta_pct >= 0 ? "+" : "") << delta_pct << "%" << direction
                << ")";
      if (below_floor) std::cout << "  [below min_ratio=" << min_ratio << "]";
      std::cout << "\n";
      if (regressed) ++regressions;
    }
    for (const auto& [name, entry] : fresh) {
      (void)entry;
      if (base.find(name) == base.end()) {
        std::cout << "NEW      " << name << " (no baseline yet)\n";
      }
    }

    if (regressions > 0) {
      std::cerr << "bench_diff: " << regressions << " benchmark(s) regressed more than "
                << threshold_pct << "%\n";
      return 1;
    }
    if (missing > 0 && !allow_missing) {
      std::cerr << "bench_diff: " << missing
                << " baseline benchmark(s) missing from the candidate\n";
      return 1;
    }
    std::cout << "bench_diff: no regressions above " << threshold_pct << "%\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
