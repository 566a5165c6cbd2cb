// Golden-schema lock for the BENCH_*.json perf artifacts.
//
// bench/bench_json.h's writer and strict reader are the single
// serialization path for the perf-trajectory files that tools/bench_diff
// gates CI with. These tests lock the emitted key set — including the
// hit_ratio and duplication_factor columns fig8_scale records for the
// repair pass — so schema drift fails loudly here and in every bench_diff
// run, instead of silently comparing fields that no longer exist. The
// committed fig8_scale baseline is itself checked against the lock.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "bench/bench_json.h"

namespace trimcaching::bench {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Every JSON key that appears in `text`, in no particular order.
std::set<std::string> keys_in(const std::string& text) {
  std::set<std::string> keys;
  const std::regex key_pattern("\"([A-Za-z_0-9]+)\":");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), key_pattern);
       it != std::sregex_iterator(); ++it) {
    keys.insert((*it)[1].str());
  }
  return keys;
}

TEST(BenchJsonSchema, WriterEmitsExactlyTheLockedKeySet) {
  const std::string path = temp_path("bench_schema_full.json");
  JsonRecord full;
  full.name = "kernel_full";
  full.wall_seconds = 0.5;
  full.throughput = 12.0;
  full.threads = 4;
  full.speedup_vs_serial = 3.5;
  full.hit_ratio = 0.75;
  full.duplication_factor = 1.25;
  full.plan_rebuilds = 2.0;
  full.plan_deltas = 10.0;
  full.plan_update_speedup = 4.5;
  full.p50_ms = 120.0;
  full.p95_ms = 480.0;
  full.p99_ms = 950.0;
  full.served_rps = 1250.0;
  full.peak_rss_mb = 640.0;
  full.failovers = 42.0;
  full.aborted = 7.0;
  full.rewarm_s = 12.5;
  write_bench_json(path, {full});

  const std::set<std::string> expected = {
      "schema",  "git_rev",           "hardware_threads", "benchmarks",
      "name",    "wall_seconds",      "throughput",       "threads",
      "speedup_vs_serial", "hit_ratio", "duplication_factor",
      "plan_rebuilds", "plan_deltas", "plan_update_speedup",
      "p50_ms", "p95_ms", "p99_ms", "served_rps", "peak_rss_mb",
      "failovers", "aborted", "rewarm_s"};
  EXPECT_EQ(keys_in(slurp(path)), expected);

  // Optional columns disappear when not recorded; required ones never do.
  const std::string minimal_path = temp_path("bench_schema_minimal.json");
  JsonRecord minimal;
  minimal.name = "kernel_minimal";
  minimal.wall_seconds = 0.1;
  write_bench_json(minimal_path, {minimal});
  const std::set<std::string> required = {"schema", "git_rev", "hardware_threads",
                                          "benchmarks", "name", "wall_seconds",
                                          "throughput", "threads"};
  EXPECT_EQ(keys_in(slurp(minimal_path)), required);
}

TEST(BenchJsonSchema, ReaderRoundTripsValuesAndDefaults) {
  const std::string path = temp_path("bench_schema_roundtrip.json");
  JsonRecord full;
  full.name = "kernel_full";
  full.wall_seconds = 0.5;
  full.throughput = 12.0;
  full.threads = 4;
  full.speedup_vs_serial = 3.5;
  full.hit_ratio = 0.75;
  full.duplication_factor = 1.25;
  full.plan_rebuilds = 2.0;
  full.plan_deltas = 10.0;
  full.plan_update_speedup = 4.5;
  full.p50_ms = 120.0;
  full.p95_ms = 480.0;
  full.p99_ms = 950.0;
  full.served_rps = 1250.0;
  full.peak_rss_mb = 640.0;
  full.failovers = 42.0;
  full.aborted = 7.0;
  full.rewarm_s = 12.5;
  JsonRecord minimal;
  minimal.name = "kernel_minimal";
  minimal.wall_seconds = 0.125;
  write_bench_json(path, {full, minimal});

  const auto records = read_bench_json(path);
  ASSERT_EQ(records.size(), 2u);
  const JsonRecord& f = records.at("kernel_full");
  EXPECT_DOUBLE_EQ(f.wall_seconds, 0.5);
  EXPECT_DOUBLE_EQ(f.throughput, 12.0);
  EXPECT_EQ(f.threads, 4u);
  EXPECT_DOUBLE_EQ(f.speedup_vs_serial, 3.5);
  EXPECT_DOUBLE_EQ(f.hit_ratio, 0.75);
  EXPECT_DOUBLE_EQ(f.duplication_factor, 1.25);
  EXPECT_DOUBLE_EQ(f.plan_rebuilds, 2.0);
  EXPECT_DOUBLE_EQ(f.plan_deltas, 10.0);
  EXPECT_DOUBLE_EQ(f.plan_update_speedup, 4.5);
  EXPECT_DOUBLE_EQ(f.p50_ms, 120.0);
  EXPECT_DOUBLE_EQ(f.p95_ms, 480.0);
  EXPECT_DOUBLE_EQ(f.p99_ms, 950.0);
  EXPECT_DOUBLE_EQ(f.served_rps, 1250.0);
  EXPECT_DOUBLE_EQ(f.peak_rss_mb, 640.0);
  EXPECT_DOUBLE_EQ(f.failovers, 42.0);
  EXPECT_DOUBLE_EQ(f.aborted, 7.0);
  EXPECT_DOUBLE_EQ(f.rewarm_s, 12.5);
  const JsonRecord& m = records.at("kernel_minimal");
  EXPECT_DOUBLE_EQ(m.wall_seconds, 0.125);
  // Absent optional columns keep their "not recorded" defaults.
  EXPECT_DOUBLE_EQ(m.speedup_vs_serial, 0.0);
  EXPECT_LT(m.hit_ratio, 0.0);
  EXPECT_LT(m.duplication_factor, 0.0);
  EXPECT_LT(m.plan_rebuilds, 0.0);
  EXPECT_LT(m.plan_deltas, 0.0);
  EXPECT_DOUBLE_EQ(m.plan_update_speedup, 0.0);
  EXPECT_LT(m.p50_ms, 0.0);
  EXPECT_LT(m.p95_ms, 0.0);
  EXPECT_LT(m.p99_ms, 0.0);
  EXPECT_LT(m.served_rps, 0.0);
  EXPECT_LT(m.peak_rss_mb, 0.0);
  EXPECT_LT(m.failovers, 0.0);
  EXPECT_LT(m.aborted, 0.0);
  EXPECT_LT(m.rewarm_s, 0.0);
}

TEST(BenchJsonSchema, MergePreservesForeignRecordsAndOverwritesByName) {
  // fig6b and fig7 share BENCH_runtime.json: a merge keeps the other
  // binary's records and replaces re-recorded names.
  const std::string path = temp_path("bench_schema_merge.json");
  JsonRecord fig6b;
  fig6b.name = "fig6b_runtime";
  fig6b.wall_seconds = 1.5;
  write_bench_json(path, {fig6b});

  JsonRecord fig7;
  fig7.name = "fig7_100x_plan_delta";
  fig7.wall_seconds = 0.01;
  fig7.plan_update_speedup = 5.0;
  merge_bench_json(path, {fig7});

  auto records = read_bench_json(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records.at("fig6b_runtime").wall_seconds, 1.5);
  EXPECT_DOUBLE_EQ(records.at("fig7_100x_plan_delta").plan_update_speedup, 5.0);

  // Re-recording the same name wins; the foreign record still survives.
  fig7.plan_update_speedup = 6.0;
  merge_bench_json(path, {fig7});
  records = read_bench_json(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records.at("fig7_100x_plan_delta").plan_update_speedup, 6.0);

  // Merging into a missing document just writes it.
  const std::string fresh = temp_path("bench_schema_merge_fresh.json");
  std::remove(fresh.c_str());
  merge_bench_json(fresh, {fig7});
  EXPECT_EQ(read_bench_json(fresh).size(), 1u);
}

TEST(BenchJsonSchema, ReaderFailsLoudlyOnSchemaDrift) {
  // A record whose wall_seconds key was renamed: must throw, naming the key.
  const std::string drifted = temp_path("bench_schema_drifted.json");
  {
    std::ofstream file(drifted);
    file << "{\n  \"schema\": 1,\n  \"git_rev\": \"test\",\n"
            "  \"hardware_threads\": 1,\n  \"benchmarks\": [\n"
            "    {\"name\": \"kernel\", \"walltime\": 0.5, \"throughput\": 0, "
            "\"threads\": 1}\n  ]\n}\n";
  }
  try {
    (void)read_bench_json(drifted);
    FAIL() << "schema drift must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wall_seconds"), std::string::npos);
  }

  // A document without the schema marker is rejected outright.
  const std::string unversioned = temp_path("bench_schema_unversioned.json");
  {
    std::ofstream file(unversioned);
    file << "{\"benchmarks\": [{\"name\": \"kernel\", \"wall_seconds\": 1, "
            "\"throughput\": 0, \"threads\": 1}]}\n";
  }
  EXPECT_THROW((void)read_bench_json(unversioned), std::runtime_error);

  // No records at all is drift too (an empty gate protects nothing).
  const std::string empty = temp_path("bench_schema_empty.json");
  {
    std::ofstream file(empty);
    file << "{\n  \"schema\": 1,\n  \"benchmarks\": []\n}\n";
  }
  EXPECT_THROW((void)read_bench_json(empty), std::runtime_error);

  EXPECT_THROW((void)read_bench_json(temp_path("does_not_exist.json")),
               std::runtime_error);
}

TEST(BenchJsonSchema, CommittedScaleBaselineMatchesTheLock) {
  // The baseline bench_diff gates CI against must parse under the strict
  // reader and carry all five fig8_scale variants per point, with the
  // hit-ratio and duplication columns the repair pass introduced and the
  // peak_rss_mb column the distributed-tiles memory gate runs against.
  const std::string path = std::string(TRIMCACHING_SOURCE_DIR) +
                           "/bench/baselines/BENCH_scale_baseline.json";
  const auto records = read_bench_json(path);
  for (const std::string point : {"2x", "10x", "100x"}) {
    for (const std::string variant :
         {"untiled_serial", "tiled_serial", "tiled_threaded", "tiled_workers",
          "tiled_repaired"}) {
      const std::string name = "fig8_scale_" + point + "_" + variant;
      ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
      const JsonRecord& record = records.at(name);
      EXPECT_GT(record.wall_seconds, 0.0) << name;
      EXPECT_GE(record.hit_ratio, 0.0) << name;
      EXPECT_GE(record.duplication_factor, 1.0 - 1e-12) << name;
      if (variant != "tiled_repaired") {
        EXPECT_GT(record.peak_rss_mb, 0.0) << name << " has no sampled RSS";
      }
    }
  }
  // The duplication story the gate tracks: raw tiling duplicates heavily at
  // the 100x point, repair pulls it back under 1.5x.
  EXPECT_GT(records.at("fig8_scale_100x_tiled_serial").duplication_factor, 2.0);
  EXPECT_LT(records.at("fig8_scale_100x_tiled_repaired").duplication_factor, 1.5);
  // The memory story the rss gate tracks: at the 100x point the workers
  // variant's *coordinator* peak sits below the in-process tiled peak —
  // solver working memory moved out of the coordinator process.
  EXPECT_LT(records.at("fig8_scale_100x_tiled_workers").peak_rss_mb,
            records.at("fig8_scale_100x_tiled_threaded").peak_rss_mb);
}

TEST(BenchJsonSchema, CommittedServingBaselineMatchesTheLock) {
  // The serving baseline the hit_ratio gate runs against: every load/policy
  // record must parse under the strict reader and carry the serving columns
  // (empirical hit ratio, latency quantiles, served throughput). The values
  // are deterministic replays — the gate compares them machine-independently.
  const std::string path = std::string(TRIMCACHING_SOURCE_DIR) +
                           "/bench/baselines/BENCH_serving_baseline.json";
  const auto records = read_bench_json(path);
  for (const std::string load : {"4rps", "10rps", "25rps"}) {
    for (const std::string policy : {"static", "lru", "ewma", "priority"}) {
      const std::string name = "fig9_serving_" + load + "_" + policy;
      ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
      const JsonRecord& record = records.at(name);
      EXPECT_GT(record.wall_seconds, 0.0) << name;
      EXPECT_GE(record.hit_ratio, 0.0) << name;
      EXPECT_GE(record.p50_ms, 0.0) << name;
      EXPECT_LE(record.p50_ms, record.p95_ms) << name;
      EXPECT_LE(record.p95_ms, record.p99_ms) << name;
      EXPECT_GT(record.served_rps, 0.0) << name;
    }
  }
  // The story fig9 tells: under popularity drift the online policies beat
  // the drift-blind static placement at every load point.
  for (const std::string load : {"4rps", "10rps", "25rps"}) {
    const double fixed = records.at("fig9_serving_" + load + "_static").hit_ratio;
    EXPECT_GT(records.at("fig9_serving_" + load + "_lru").hit_ratio, fixed) << load;
    EXPECT_GT(records.at("fig9_serving_" + load + "_ewma").hit_ratio, fixed) << load;
  }
  // The outage-storm leg: both fault records carry the failure columns
  // (failover routing engaged, a worst degradation window was recorded) and
  // the reactive policy measured a re-warm transient. Fault-free records
  // never carry the failure columns — the schema stays byte-identical for
  // them.
  for (const std::string base : {"static", "lru"}) {
    const std::string name = "fig9_serving_faults_" + base;
    ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
    const JsonRecord& record = records.at(name);
    EXPECT_GE(record.hit_ratio, 0.0) << name;
    EXPECT_GT(record.failovers, 0.0) << name;
    EXPECT_GE(record.aborted, 0.0) << name;
    const std::string trough_name = name + "_worst_window";
    ASSERT_TRUE(records.count(trough_name)) << "baseline is missing " << trough_name;
    const JsonRecord& trough = records.at(trough_name);
    EXPECT_GE(trough.hit_ratio, 0.0) << trough_name;
    EXPECT_LE(trough.hit_ratio, record.hit_ratio) << trough_name;
  }
  EXPECT_GT(records.at("fig9_serving_faults_lru").rewarm_s, 0.0);
  EXPECT_LT(records.at("fig9_serving_10rps_lru").failovers, 0.0)
      << "a fault-free record must not carry the failure columns";
}

TEST(BenchJsonSchema, CommittedMicroBaselineMatchesTheLock) {
  // The micro baseline behind the SIMD kernel ratio gate: both synthesized
  // scalar-over-active-backend ratio records must parse under the strict
  // reader with the ratio in speedup_vs_serial, and the gated 1000-link
  // point must sit at or above the 1.1x floor the gate enforces (a baseline
  // below its own floor would mask every future regression down to it).
  const std::string path = std::string(TRIMCACHING_SOURCE_DIR) +
                           "/bench/baselines/BENCH_micro_baseline.json";
  const auto records = read_bench_json(path);
  for (const std::string name :
       {"fading_vector_speedup_100", "fading_vector_speedup_1000"}) {
    ASSERT_TRUE(records.count(name)) << "baseline is missing " << name;
    const JsonRecord& record = records.at(name);
    EXPECT_GT(record.wall_seconds, 0.0) << name;
    EXPECT_GT(record.speedup_vs_serial, 1.0) << name;
  }
  EXPECT_GE(records.at("fading_vector_speedup_1000").speedup_vs_serial, 1.1);
}

}  // namespace
}  // namespace trimcaching::bench
