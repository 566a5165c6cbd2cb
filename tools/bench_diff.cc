// Perf-regression gate runner: evaluates every gate of a manifest
// (bench/bench_gates.h format) and exits nonzero when any gate fails.
//
//   bench_diff gates=bench/gates.txt
//
// Baseline paths in the manifest resolve against its directory, candidate
// paths against the working directory, so CI runs it from build/ next to the
// fresh BENCH_*.json files. A same-machine wall-time comparison is a
// one-line manifest, e.g. `/tmp/old/BENCH_scale.json BENCH_scale.json
// wall_seconds lower 15 min_wall_s=0.02`. Absolute wall clock only compares
// runs on the same machine; the committed gates use within-run ratios,
// deterministic replay metrics and work counters instead.
#include <iostream>
#include <string>

#include "bench/bench_gates.h"
#include "src/support/options.h"

int main(int argc, char** argv) {
  namespace bench = trimcaching::bench;
  try {
    const auto options = trimcaching::support::Options::parse(argc, argv);
    options.check_unknown({"gates"});
    const std::string manifest = options.get_string("gates", "");
    if (manifest.empty()) throw std::invalid_argument("usage: bench_diff gates=<manifest>");

    const auto gates = bench::read_gates(manifest);
    std::size_t failed = 0;
    for (const bench::Gate& gate : gates) {
      std::cout << "== " << gate.source << "\n";
      bool passed = false;
      try {
        passed = bench::evaluate_gate(gate, bench::read_bench_json(gate.baseline),
                                      bench::read_bench_json(gate.candidate), std::cout);
      } catch (const std::exception& e) {
        std::cout << "FAIL     " << e.what() << "\n";
      }
      if (!passed) ++failed;
    }
    if (failed > 0) {
      std::cerr << "bench_diff: " << failed << " of " << gates.size()
                << " gate(s) failed\n";
      return 1;
    }
    std::cout << "bench_diff: all " << gates.size() << " gates passed\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
