// Golden-schema lock for the BENCH_*.json perf artifacts and their gates.
//
// bench/bench_json.h's writer and strict reader are the single
// serialization path for the perf-trajectory files that tools/bench_diff
// gates CI with; bench/bench_gates.h evaluates the gates of
// bench/gates.txt. These tests lock the record shape (name, wall_seconds,
// threads, metrics), the gate rule for absent data, and the committed
// baselines and manifest themselves, so schema drift or a mistyped gate
// fails here and not only in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench/bench_gates.h"
#include "bench/bench_json.h"

namespace trimcaching::bench {
namespace {

using Records = std::map<std::string, JsonRecord>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
}

/// Every JSON key that appears in `text`, in no particular order: each
/// quoted run of [A-Za-z_0-9] directly followed by a colon.
std::set<std::string> keys_in(const std::string& text) {
  const auto identifier = [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
           c == '_';
  };
  std::set<std::string> keys;
  for (std::size_t end = text.find("\":"); end != std::string::npos;
       end = text.find("\":", end + 1)) {
    std::size_t begin = end;
    while (begin > 0 && identifier(text[begin - 1])) --begin;
    if (begin < end && begin > 0 && text[begin - 1] == '"') {
      keys.insert(text.substr(begin, end - begin));
    }
  }
  return keys;
}

/// `key` of `record`; NaN when absent, so every comparison against it fails.
double metric(const JsonRecord& record, const std::string& key) {
  const auto it = record.metrics.find(key);
  return it == record.metrics.end() ? std::nan("") : it->second;
}

TEST(BenchJsonSchema, WriterEmitsTheLockedShapeWithMetricsInKeyOrder) {
  const std::string path = temp_path("bench_schema_shape.json");
  write_bench_json(path, {{"kernel_full", 0.5, 4, {{"p99_ms", 9.5}, {"hit_ratio", 0.75}}},
                          {"kernel_minimal", 0.1, 1, {}}});
  const std::string text = slurp(path);
  EXPECT_EQ(keys_in(text),
            (std::set<std::string>{"schema", "git_rev", "hardware_threads", "benchmarks",
                                   "name", "wall_seconds", "threads", "metrics",
                                   "hit_ratio", "p99_ms"}));
  EXPECT_NE(text.find("\"schema\": 2,"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\": {\"hit_ratio\": 0.75, \"p99_ms\": 9.5}}"),
            std::string::npos);
  // A record that recorded nothing still carries an (empty) metrics map.
  EXPECT_NE(text.find("\"threads\": 1, \"metrics\": {}}"), std::string::npos);
}

TEST(BenchJsonSchema, ReaderRoundTripsTheMetricsMap) {
  const std::string path = temp_path("bench_schema_roundtrip.json");
  const std::vector<JsonRecord> written = {
      {"kernel \"full\"", 0.5, 4,
       {{"speedup_vs_serial", 3.5}, {"hit_ratio", 0.75}, {"peak_rss_mb", 640.0},
        {"throughput", 12.0}, {"failovers", 42.0}, {"rewarm_s", 12.5}}},
      {"kernel_minimal", 0.125, 1, {}}};
  write_bench_json(path, written);

  const Records records = read_bench_json(path);
  ASSERT_EQ(records.size(), written.size());
  for (const JsonRecord& record : written) {
    ASSERT_TRUE(records.count(record.name)) << record.name;
    const JsonRecord& read = records.at(record.name);
    EXPECT_EQ(read.wall_seconds, record.wall_seconds) << record.name;
    EXPECT_EQ(read.threads, record.threads) << record.name;
    EXPECT_EQ(read.metrics, record.metrics) << record.name;
  }
}

TEST(BenchJsonSchema, MergePreservesForeignRecordsAndOverwritesByName) {
  // fig6b and fig7 share BENCH_runtime.json: a merge keeps the other
  // binary's records and replaces re-recorded names.
  const std::string path = temp_path("bench_schema_merge.json");
  write_bench_json(path, {{"fig6b_runtime", 1.5, 1, {}}});

  JsonRecord fig7{"fig7_100x_plan", 0.01, 1, {{"plan_build_over_slot", 5.0}}};
  merge_bench_json(path, {fig7});

  auto records = read_bench_json(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records.at("fig6b_runtime").wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(metric(records.at("fig7_100x_plan"), "plan_build_over_slot"),
                   5.0);

  // Re-recording the same name wins; the foreign record still survives.
  fig7.metrics["plan_build_over_slot"] = 6.0;
  merge_bench_json(path, {fig7});
  records = read_bench_json(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(metric(records.at("fig7_100x_plan"), "plan_build_over_slot"),
                   6.0);

  // Merging into a missing document just writes it.
  const std::string fresh = temp_path("bench_schema_merge_fresh.json");
  std::remove(fresh.c_str());
  merge_bench_json(fresh, {fig7});
  EXPECT_EQ(read_bench_json(fresh).size(), 1u);
}

TEST(BenchJsonSchema, ReaderFailsLoudlyOnSchemaDrift) {
  const auto document = [](const std::string& schema, const std::string& record) {
    return "{\n  \"schema\": " + schema +
           ",\n  \"git_rev\": \"test\",\n  \"hardware_threads\": 1,\n"
           "  \"benchmarks\": [\n    " +
           record + "\n  ]\n}\n";
  };
  // Each drifted record must throw, naming the offending key.
  const std::vector<std::pair<std::string, std::string>> drifted = {
      {"wall_seconds", R"({"name": "k", "walltime": 0.5, "threads": 1, "metrics": {}})"},
      {"threads", R"({"name": "k", "wall_seconds": 0.5, "metrics": {}})"},
      {"metrics", R"({"name": "k", "wall_seconds": 0.5, "threads": 1})"},
      {"name", R"({"wall_seconds": 0.5, "threads": 1, "metrics": {}})"},
      {"hit_ratio",
       R"({"name": "k", "wall_seconds": 0.5, "threads": 1, "metrics": {"hit_ratio": x}})"},
      {"hit_ratio",
       R"({"name": "k", "wall_seconds": 0.5, "threads": 1, "hit_ratio": 0.5, "metrics": {}})"},
  };
  for (const auto& [key, record] : drifted) {
    const std::string path = temp_path("bench_schema_drifted.json");
    write_text(path, document("2", record));
    try {
      (void)read_bench_json(path);
      ADD_FAILURE() << "schema drift must throw: " << record;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }

  // A schema-1 document (columns beside the name, no metrics map) and a
  // document without the schema marker are rejected for their schema.
  const std::string schema1 = temp_path("bench_schema_v1.json");
  write_text(schema1, document("1", R"({"name": "k", "wall_seconds": 1, )"
                                    R"("throughput": 0, "threads": 1, "hit_ratio": 0.5})"));
  const std::string unversioned = temp_path("bench_schema_unversioned.json");
  write_text(unversioned, R"({"benchmarks": [{"name": "k", "wall_seconds": 1, )"
                          R"("threads": 1, "metrics": {}}]})");
  for (const std::string& path : {schema1, unversioned}) {
    try {
      (void)read_bench_json(path);
      ADD_FAILURE() << "a document without \"schema\": 2 must throw: " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos) << e.what();
    }
  }

  // No records at all is drift too (an empty gate protects nothing).
  const std::string empty = temp_path("bench_schema_empty.json");
  write_text(empty, "{\n  \"schema\": 2,\n  \"benchmarks\": []\n}\n");
  EXPECT_THROW((void)read_bench_json(empty), std::runtime_error);

  EXPECT_THROW((void)read_bench_json(temp_path("does_not_exist.json")),
               std::runtime_error);
}

TEST(BenchJsonSchema, CommittedScaleBaselineMatchesTheLock) {
  // The baseline the scale gates run against must parse under the strict
  // reader and carry all four fig8_scale variants per point, with the
  // hit-ratio and duplication metrics the repair pass introduced and the
  // sampled peak_rss_mb of every solve variant.
  const std::string path = std::string(TRIMCACHING_SOURCE_DIR) +
                           "/bench/baselines/BENCH_scale_baseline.json";
  const Records records = read_bench_json(path);
  for (const std::string point : {"2x", "10x", "100x"}) {
    for (const std::string variant :
         {"untiled_serial", "tiled_serial", "tiled_threaded", "tiled_repaired"}) {
      const std::string name = "fig8_scale_" + point + "_" + variant;
      ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
      const JsonRecord& record = records.at(name);
      EXPECT_GT(record.wall_seconds, 0.0) << name;
      EXPECT_GE(metric(record, "hit_ratio"), 0.0) << name;
      EXPECT_GE(metric(record, "duplication_factor"), 1.0 - 1e-12) << name;
      if (variant != "tiled_repaired") {
        EXPECT_GT(metric(record, "peak_rss_mb"), 0.0) << name << " has no sampled RSS";
      }
      if (variant == "untiled_serial") {
        EXPECT_GT(metric(record, "request_model_mb"), 0.0) << name;
      }
    }
  }
  const auto at = [&](const std::string& name, const std::string& key) {
    return metric(records.at("fig8_scale_100x_" + name), key);
  };
  // The duplication story the gate tracks: raw tiling duplicates heavily at
  // the 100x point, repair pulls it back under 1.5x.
  EXPECT_GT(at("tiled_serial", "duplication_factor"), 2.0);
  EXPECT_LT(at("tiled_repaired", "duplication_factor"), 1.5);
  // The memory story of tiling: at the 100x point the serial tiled solve
  // peaks below the untiled one. With factored hit lists the margin is a
  // few MB of per-problem solver state.
  EXPECT_LT(at("tiled_serial", "peak_rss_mb"), at("untiled_serial", "peak_rss_mb"));
  // The sparse request model: 2000 users x 30 requested models hold about
  // 1.6 MB, where dense K x I arrays took about 61 MB.
  EXPECT_LT(at("untiled_serial", "request_model_mb"), 2.0);
}

TEST(BenchJsonSchema, CommittedServingBaselineMatchesTheLock) {
  // The serving baseline the hit_ratio gate runs against: every load/policy
  // record must parse under the strict reader and carry the serving metrics
  // (empirical hit ratio, latency quantiles, served throughput). The values
  // are deterministic replays — the gate compares them machine-independently.
  const std::string path = std::string(TRIMCACHING_SOURCE_DIR) +
                           "/bench/baselines/BENCH_serving_baseline.json";
  const Records records = read_bench_json(path);
  for (const std::string load : {"4rps", "10rps", "25rps"}) {
    for (const std::string policy : {"static", "lru", "ewma", "priority"}) {
      const std::string name = "fig9_serving_" + load + "_" + policy;
      ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
      const JsonRecord& record = records.at(name);
      EXPECT_GT(record.wall_seconds, 0.0) << name;
      EXPECT_GE(metric(record, "hit_ratio"), 0.0) << name;
      EXPECT_GE(metric(record, "p50_ms"), 0.0) << name;
      EXPECT_LE(metric(record, "p50_ms"), metric(record, "p95_ms")) << name;
      EXPECT_LE(metric(record, "p95_ms"), metric(record, "p99_ms")) << name;
      EXPECT_GT(metric(record, "served_rps"), 0.0) << name;
    }
  }
  const auto hit = [&](const std::string& name) {
    return metric(records.at(name), "hit_ratio");
  };
  // The story fig9 tells: under popularity drift the online policies beat
  // the drift-blind static placement at every load point.
  for (const std::string load : {"4rps", "10rps", "25rps"}) {
    const double fixed = hit("fig9_serving_" + load + "_static");
    EXPECT_GT(hit("fig9_serving_" + load + "_lru"), fixed) << load;
    EXPECT_GT(hit("fig9_serving_" + load + "_ewma"), fixed) << load;
  }
  // The reactive-bookkeeping gate's ratios: the static replay is its own
  // denominator, and every reactive replay does more work than it.
  EXPECT_EQ(metric(records.at("fig9_serving_25rps_static"), "reactive_over_static"), 1.0);
  for (const std::string policy : {"lru", "ewma", "priority"}) {
    EXPECT_GT(metric(records.at("fig9_serving_25rps_" + policy), "reactive_over_static"), 1.0)
        << policy;
  }
  // The outage-storm leg: both fault records carry the failure metrics
  // (failover routing engaged, a worst degradation window was recorded) and
  // the reactive policy measured a re-warm transient. Fault-free records
  // never carry the failure metrics.
  for (const std::string base : {"static", "lru"}) {
    const std::string name = "fig9_serving_faults_" + base;
    ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
    const JsonRecord& record = records.at(name);
    EXPECT_GE(metric(record, "hit_ratio"), 0.0) << name;
    EXPECT_GT(metric(record, "failovers"), 0.0) << name;
    EXPECT_GE(metric(record, "aborted"), 0.0) << name;
    const std::string trough_name = name + "_worst_window";
    ASSERT_TRUE(records.count(trough_name)) << "baseline is missing " << trough_name;
    EXPECT_GE(hit(trough_name), 0.0) << trough_name;
    EXPECT_LE(hit(trough_name), hit(name)) << trough_name;
  }
  EXPECT_GT(metric(records.at("fig9_serving_faults_lru"), "rewarm_s"), 0.0);
  EXPECT_FALSE(records.at("fig9_serving_10rps_lru").metrics.count("failovers"))
      << "a fault-free record must not carry the failure metrics";
}

TEST(BenchJsonSchema, CommittedMicroBaselineMatchesTheLock) {
  // The micro baseline behind the SIMD kernel ratio gate: both synthesized
  // scalar-over-active-backend ratio records must parse under the strict
  // reader with the ratio in speedup_vs_serial, and the gated 1000-link
  // point must sit at or above the 1.1x floor the gate enforces (a baseline
  // below its own floor would mask every future regression down to it).
  const std::string path = std::string(TRIMCACHING_SOURCE_DIR) +
                           "/bench/baselines/BENCH_micro_baseline.json";
  const Records records = read_bench_json(path);
  for (const std::string name :
       {"fading_vector_speedup_100", "fading_vector_speedup_1000"}) {
    ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
    const JsonRecord& record = records.at(name);
    EXPECT_GT(record.wall_seconds, 0.0) << name;
    EXPECT_GT(metric(record, "speedup_vs_serial"), 1.0) << name;
  }
  EXPECT_GE(metric(records.at("fading_vector_speedup_1000"), "speedup_vs_serial"), 1.1);
}

// ------------------------------------------------------------------- gates

/// Evaluates `line` (manifest syntax, paths unused) on in-memory documents.
bool passes(const std::string& line, const Records& baseline, const Records& candidate,
            std::string* log = nullptr) {
  std::ostringstream out;
  const bool passed = evaluate_gate(parse_gate(line, "test"), baseline, candidate, out);
  if (log != nullptr) *log = out.str();
  return passed;
}

Records one(double value, double wall = 1.0) {
  return {{"r", {"r", wall, 1, {{"x", value}}}}};
}

TEST(BenchGates, DirectionSignsTheChange) {
  // x: 4 -> 3 is a 25% drop; 4 -> 5 a 25% rise.
  EXPECT_FALSE(passes("b c x higher 20", one(4), one(3)));
  EXPECT_TRUE(passes("b c x lower 0", one(4), one(3)));
  EXPECT_FALSE(passes("b c x lower 20", one(4), one(5)));
  EXPECT_TRUE(passes("b c x higher 0", one(4), one(5)));
}

TEST(BenchGates, AChangeExactlyAtTheThresholdPasses) {
  EXPECT_TRUE(passes("b c x higher 25", one(4), one(3)));
  EXPECT_FALSE(passes("b c x higher 24.99", one(4), one(3)));
  EXPECT_TRUE(passes("b c x lower 25", one(4), one(5)));
  EXPECT_FALSE(passes("b c x lower 24.99", one(4), one(5)));
}

TEST(BenchGates, AFloorBreachFailsInsideTheThreshold) {
  // 1.2 -> 1.05 is a 12.5% drop, well inside 30%, but below the 1.1 floor.
  std::string log;
  EXPECT_FALSE(passes("b c x higher 30 floor=1.1", one(1.2), one(1.05), &log));
  EXPECT_NE(log.find("below floor=1.1"), std::string::npos) << log;
  EXPECT_TRUE(passes("b c x higher 30 floor=1.0", one(1.2), one(1.05)));
}

TEST(BenchGates, MinWallSkipsShortBaselineRecordsAndWallIsAnOrdinaryKey) {
  const Records baseline = {{"short", {"short", 0.01, 1, {{"x", 2.0}}}},
                            {"long", {"long", 0.1, 1, {{"x", 2.0}}}}};
  const Records candidate = {{"short", {"short", 0.05, 1, {{"x", 0.1}}}},
                             {"long", {"long", 0.1, 1, {{"x", 2.0}}}}};
  EXPECT_FALSE(passes("b c x higher 40", baseline, candidate));
  EXPECT_TRUE(passes("b c x higher 40 min_wall_s=0.02", baseline, candidate));
  // wall_seconds goes through the same comparison: short's wall rose 5x.
  EXPECT_FALSE(passes("b c wall_seconds lower 15", baseline, candidate));
  EXPECT_TRUE(passes("b c wall_seconds lower 15 filter=long", baseline, candidate));
}

TEST(BenchGates, FilterSelectsRecordsByNameSubstring) {
  const Records baseline = {{"fig_a", {"fig_a", 1, 1, {{"x", 2.0}}}},
                            {"fig_b", {"fig_b", 1, 1, {{"x", 2.0}}}}};
  const Records candidate = {{"fig_a", {"fig_a", 1, 1, {{"x", 1.0}}}},
                             {"fig_b", {"fig_b", 1, 1, {{"x", 2.0}}}}};
  EXPECT_FALSE(passes("b c x higher 10", baseline, candidate));
  EXPECT_FALSE(passes("b c x higher 10 filter=_a", baseline, candidate));
  EXPECT_TRUE(passes("b c x higher 10 filter=_b", baseline, candidate));
}

TEST(BenchGates, BaselineWithoutTheKeySkipsCandidateWithoutItFails) {
  const Records baseline = {{"has", {"has", 1, 1, {{"x", 2.0}}}},
                            {"lacks", {"lacks", 1, 1, {}}}};
  std::string log;
  // The baseline never recorded x for `lacks`: skipped, whatever the
  // candidate holds.
  EXPECT_TRUE(passes("b c x lower 10",
                     baseline, {{"has", {"has", 1, 1, {{"x", 2.0}}}},
                                {"lacks", {"lacks", 1, 1, {{"x", 99.0}}}}},
                     &log));
  EXPECT_NE(log.find("skip     lacks"), std::string::npos) << log;
  // The candidate stopped recording x for `has`: a failure in either
  // direction (a dropped column must not read as an improvement).
  for (const std::string direction : {"higher", "lower"}) {
    EXPECT_FALSE(passes("b c x " + direction + " 10", baseline,
                        {{"has", {"has", 1, 1, {}}}, {"lacks", {"lacks", 1, 1, {}}}},
                        &log));
    EXPECT_NE(log.find("candidate stopped recording x"), std::string::npos) << log;
  }
}

TEST(BenchGates, ARecordMissingFromTheCandidateWarns) {
  const Records baseline = {{"kept", {"kept", 1, 1, {{"x", 2.0}}}},
                            {"gone", {"gone", 1, 1, {{"x", 2.0}}}}};
  std::string log;
  EXPECT_TRUE(passes("b c x higher 10", baseline,
                     {{"kept", {"kept", 1, 1, {{"x", 2.0}}}}}, &log));
  EXPECT_NE(log.find("MISSING  gone"), std::string::npos) << log;
}

TEST(BenchGates, AGateThatComparesNoRecordFailsNamingItsLine) {
  std::string log;
  EXPECT_FALSE(passes("b c x higher 2 filter=nomatch", one(1), one(1), &log));
  EXPECT_NE(log.find("compared no records: test: b c x higher 2 filter=nomatch"),
            std::string::npos)
      << log;
  // Every matching record skipped (no baseline key) compares nothing too.
  EXPECT_FALSE(passes("b c y higher 2", one(1), one(1)));
  // So does a gate whose every record is missing from the candidate.
  EXPECT_FALSE(passes("b c x higher 2", one(1), {{"other", {"other", 1, 1, {}}}}));
}

TEST(BenchGates, MalformedLinesThrowNamingTheLine) {
  for (const std::string line :
       {"b c x", "b c x sideways 10", "b c x higher ten", "b c x higher 10 flter=a",
        "b c x higher 10 floor=", "b c x higher 10 min_wall_s=abc"}) {
    try {
      (void)parse_gate(line, "gates.txt:7");
      ADD_FAILURE() << "must throw: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("gates.txt:7: " + line), std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchGates, ManifestSkipsCommentsAndResolvesBaselinesAgainstItsDirectory) {
  const std::filesystem::path dir = std::filesystem::path(temp_path("gates_dir"));
  std::filesystem::create_directories(dir);
  const std::string manifest = (dir / "gates.txt").string();
  write_text(manifest,
             "# a comment\n\n  base.json new.json x higher 5 filter=a  # trailing\n");
  const std::vector<Gate> gates = read_gates(manifest);
  ASSERT_EQ(gates.size(), 1u);
  EXPECT_EQ(gates[0].baseline, (dir / "base.json").string());
  EXPECT_EQ(gates[0].candidate, "new.json");
  EXPECT_EQ(gates[0].key, "x");
  EXPECT_TRUE(gates[0].higher_is_better);
  EXPECT_DOUBLE_EQ(gates[0].threshold_pct, 5.0);
  EXPECT_EQ(gates[0].filter, "a");
  EXPECT_EQ(gates[0].source, manifest + ":3: base.json new.json x higher 5 filter=a");

  write_text(manifest, "# only comments\n");
  EXPECT_THROW((void)read_gates(manifest), std::runtime_error);
}

TEST(GatesManifest, EveryLineSelfDiffsClean) {
  // Each committed gate, run baseline-against-itself, must compare at least
  // one record and pass: a mistyped key, filter or baseline path fails here.
  const std::vector<Gate> gates =
      read_gates(std::string(TRIMCACHING_SOURCE_DIR) + "/bench/gates.txt");
  for (const Gate& gate : gates) {
    const Records baseline = read_bench_json(gate.baseline);
    std::ostringstream log;
    EXPECT_TRUE(evaluate_gate(gate, baseline, baseline, log)) << gate.source << "\n"
                                                              << log.str();
    EXPECT_NE(log.str().find("ok       "), std::string::npos) << gate.source;
    // The candidate is the document the baseline was copied from.
    EXPECT_EQ(std::filesystem::path(gate.baseline).filename().string(),
              std::filesystem::path(gate.candidate).stem().string() + "_baseline.json")
        << gate.source;
  }
}

}  // namespace
}  // namespace trimcaching::bench
