// Brute-force oracle for PlacementProblem's hit lists.
//
// Every (m, i) list of a full instance or a sub-view is recomputed cell by
// cell from the topology's flat link views (covering spans and average
// rates), the radio backhaul and the request model's deadlines and
// inference times — the Eq. 4 direct test for covering servers, the Eq. 5
// best-covering-link relay for everything else. The oracle never reads the
// problem's link snapshot, associations or eligible(). It must match the
// factored store exactly: the entry sequence, size()/empty(), and the
// total/reachable masses summed in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/problem.h"
#include "src/sim/scenario.h"
#include "src/sim/tiler.h"

namespace trimcaching::core {
namespace {

using support::Rng;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Oracle {
  std::vector<std::vector<HitEntry>> lists;  // per (m, i), view-local ids
  double total_mass = 0.0;
  double reachable_mass = 0.0;
};

/// What the edge-case scenarios must actually exercise, so no check passes
/// vacuously.
struct Exercised {
  std::size_t zero_rate_links = 0;    // covering links with C̄ = 0
  std::size_t fully_covered = 0;      // view users every view server covers
  std::size_t expired_rows = 0;       // rows with deadline <= inference time
  std::size_t uncovered_users = 0;    // users with an empty covering span
  std::size_t relay_entries = 0;      // oracle entries through Eq. 5
  std::size_t direct_entries = 0;     // oracle entries through Eq. 4
};

Oracle brute_force(const sim::Scenario& scenario, const std::vector<ServerId>& servers,
                   const std::vector<UserId>& users, Exercised& seen) {
  const auto& topology = scenario.topology;
  const auto& offsets = topology.covering_offsets();
  const auto& flat = topology.covering_flat();
  const auto& rate = topology.link_avg_rate_bps();
  const double backhaul = topology.radio().backhaul_bps;
  const std::size_t num_models = scenario.library.num_models();

  Oracle oracle;
  oracle.lists.resize(servers.size() * num_models);
  for (std::size_t k = 0; k < users.size(); ++k) {
    const UserId gk = users[k];
    const std::size_t first = offsets[gk];
    const std::size_t last = offsets[gk + 1];
    if (first == last) ++seen.uncovered_users;
    // Eq. 5 routes through the user's fastest covering link.
    double best_inv = kInf;
    for (std::size_t l = first; l < last; ++l) {
      if (rate[l] == 0.0) ++seen.zero_rate_links;
      if (rate[l] > 0.0) best_inv = std::min(best_inv, 1.0 / rate[l]);
    }
    const auto covering_link = [&](ServerId gm) -> std::size_t {
      for (std::size_t l = first; l < last; ++l) {
        if (flat[l] == gm) return l;
      }
      return SIZE_MAX;
    };
    bool covered_by_all = true;
    for (const ServerId gm : servers) covered_by_all &= covering_link(gm) != SIZE_MAX;
    if (covered_by_all) ++seen.fully_covered;

    for (ModelId i = 0; i < num_models; ++i) {
      const double p = scenario.requests.probability(gk, i);
      if (p <= 0.0) continue;
      oracle.total_mass += p;
      const double budget =
          scenario.requests.deadline_s(gk, i) - scenario.requests.inference_s(gk, i);
      if (budget <= 0.0) {
        ++seen.expired_rows;
        continue;
      }
      const double bits = support::bits(scenario.library.model_size(i));
      bool reachable = false;
      for (std::size_t m = 0; m < servers.size(); ++m) {
        const std::size_t l = covering_link(servers[m]);
        bool hit = false;
        if (l != SIZE_MAX) {
          hit = rate[l] > 0.0 && bits * (1.0 / rate[l]) <= budget;
          seen.direct_entries += hit;
        } else {
          hit = best_inv != kInf && bits / backhaul + bits * best_inv <= budget;
          seen.relay_entries += hit;
        }
        if (!hit) continue;
        oracle.lists[m * num_models + i].push_back(HitEntry{static_cast<UserId>(k), p});
        reachable = true;
      }
      if (reachable) oracle.reachable_mass += p;
    }
  }
  return oracle;
}

std::vector<std::uint32_t> iota_ids(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  for (std::size_t e = 0; e < n; ++e) ids[e] = static_cast<std::uint32_t>(e);
  return ids;
}

/// Asserts `problem` (built over `servers` x `users`) matches the oracle.
void expect_matches_oracle(const sim::Scenario& scenario, const PlacementProblem& problem,
                           const std::vector<ServerId>& servers,
                           const std::vector<UserId>& users, Exercised& seen) {
  const Oracle oracle = brute_force(scenario, servers, users, seen);
  ASSERT_EQ(problem.num_servers(), servers.size());
  ASSERT_EQ(problem.num_users(), users.size());
  EXPECT_EQ(problem.total_mass(), oracle.total_mass);
  EXPECT_EQ(problem.reachable_mass(), oracle.reachable_mass);
  const std::size_t num_models = problem.num_models();
  for (ServerId m = 0; m < problem.num_servers(); ++m) {
    for (ModelId i = 0; i < num_models; ++i) {
      const std::vector<HitEntry>& want = oracle.lists[m * num_models + i];
      const HitList list = problem.hit_list(m, i);
      std::size_t n = 0;
      for (const HitEntry& entry : list) {
        ASSERT_LT(n, want.size()) << "extra entry, m=" << m << " i=" << i;
        ASSERT_EQ(entry.user, want[n].user) << "m=" << m << " i=" << i << " at " << n;
        ASSERT_EQ(entry.mass, want[n].mass) << "m=" << m << " i=" << i << " at " << n;
        ++n;
      }
      ASSERT_EQ(n, want.size()) << "missing entries, m=" << m << " i=" << i;
      ASSERT_EQ(list.size(), n) << "m=" << m << " i=" << i;
      ASSERT_EQ(list.empty(), n == 0) << "m=" << m << " i=" << i;
    }
  }
}

sim::ScenarioConfig small_config(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.num_servers = 6 + seed % 5;
  config.num_users = 40 + 7 * (seed % 4);
  config.library_size = 24;
  config.special.models_per_family = 10;
  config.requests.models_per_user = 8;
  return config;
}

TEST(HitListOracle, SeededFullInstancesAndTileViews) {
  Exercised seen;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    sim::ScenarioConfig config = small_config(seed);
    // Alternate relay-heavy (10 Gbps) and relay-poor (a few Mbps) backhaul;
    // every third scenario also squeezes the deadlines under the inference
    // times for part of the rows.
    config.radio.backhaul_bps = seed % 2 == 0 ? 10e9 : 4e6;
    if (seed % 3 == 0) {
      config.requests.deadline_min_s = 0.05;
      config.requests.deadline_max_s = 0.6;
      config.requests.inference_min_s = 0.05;
      config.requests.inference_max_s = 0.3;
    }
    Rng rng(seed);
    const sim::Scenario scenario = sim::build_scenario(config, rng);
    expect_matches_oracle(scenario, scenario.problem(),
                          iota_ids(scenario.topology.num_servers()),
                          iota_ids(scenario.topology.num_users()), seen);

    sim::TilerConfig tiling;
    tiling.tiles_x = 2;
    tiling.tiles_y = 2;
    const sim::ScenarioTiler tiler(scenario, tiling);
    for (std::size_t t = 0; t < tiler.tiles().size(); ++t) {
      const sim::Tile& tile = tiler.tiles()[t];
      if (tile.servers.empty() || tile.users.empty()) continue;
      SCOPED_TRACE(t);
      expect_matches_oracle(scenario, tiler.tile_problem(t), tile.servers, tile.users,
                            seen);
    }
  }
  EXPECT_GT(seen.relay_entries, 0u);
  EXPECT_GT(seen.direct_entries, 0u);
  EXPECT_GT(seen.expired_rows, 0u);
  EXPECT_GT(seen.fully_covered, 0u);
}

/// Three servers on a line, users placed so that one sits under all three
/// discs, one under none, and the rest in between.
sim::Scenario edge_case_scenario(double backhaul_bps, Rng& rng) {
  const wireless::Area area{1000.0};
  wireless::RadioConfig radio;
  radio.backhaul_bps = backhaul_bps;
  std::vector<wireless::Point> servers = {{300, 500}, {450, 500}, {600, 500}};
  std::vector<wireless::Point> users = {
      {450, 500},  // covered by all three servers
      {950, 950},  // covered by none
      {150, 500},  // only server 0
      {700, 500},  // servers 1 and 2
      {450, 650},  // all three
      {80, 80},    // covered by none
  };
  std::vector<support::Bytes> capacities(servers.size(), support::gigabytes(1.0));
  wireless::NetworkTopology topology(area, radio, std::move(servers), std::move(users),
                                     std::move(capacities));
  model::SpecialCaseConfig special;
  special.models_per_family = 6;
  auto library = model::build_special_case_library(special, rng);
  workload::RequestConfig requests;
  requests.models_per_user = 8;
  // Deadlines straddle the inference times: some rows can never be served.
  requests.deadline_min_s = 0.05;
  requests.deadline_max_s = 4.0;
  requests.inference_min_s = 0.05;
  requests.inference_max_s = 0.4;
  auto request_model = workload::RequestModel::generate(
      topology.num_users(), library.num_models(), requests, rng);
  return sim::Scenario{std::move(topology), std::move(library), std::move(request_model)};
}

TEST(HitListOracle, OffSupportPairsAreNeverEligible) {
  // A p = 0 pair has no QoS in the request model; eligible() must answer
  // false for it without reading any, under every server, and keep its
  // latency test for the pairs on the support.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    sim::ScenarioConfig config = small_config(seed);
    config.radio.backhaul_bps = 10e9;
    Rng rng(seed);
    const sim::Scenario scenario = sim::build_scenario(config, rng);
    const core::PlacementProblem problem = scenario.problem();
    std::size_t off_support = 0;
    std::size_t eligible_on_support = 0;
    for (ServerId m = 0; m < problem.num_servers(); ++m) {
      for (UserId k = 0; k < problem.num_users(); ++k) {
        for (ModelId i = 0; i < problem.num_models(); ++i) {
          if (problem.request_probability(k, i) > 0.0) {
            eligible_on_support += problem.eligible(m, k, i);
            continue;
          }
          ++off_support;
          bool eligible = true;
          EXPECT_NO_THROW(eligible = problem.eligible(m, k, i));
          EXPECT_FALSE(eligible) << "m " << m << " k " << k << " i " << i;
        }
      }
    }
    EXPECT_EQ(off_support, problem.num_servers() * problem.num_users() * (24 - 8));
    EXPECT_GT(eligible_on_support, 0u);
  }
}

TEST(HitListOracle, HandBuiltEdgeCases) {
  Exercised seen;
  for (const double backhaul : {10e9, 2e6}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(seed);
      Rng rng(seed);
      sim::Scenario scenario = edge_case_scenario(backhaul, rng);
      // Server 1 goes down: its covering links keep their association but
      // carry zero rate, so it can neither serve nor relay for its users.
      scenario.topology.set_availability({1, 0, 1});
      const std::vector<ServerId> all_servers = {0, 1, 2};
      const std::vector<UserId> all_users = iota_ids(scenario.topology.num_users());
      expect_matches_oracle(scenario, scenario.problem(), all_servers, all_users, seen);

      // Views: every view server covers users 0 and 4; the halo-like
      // {1, 2} view covers user 3 from both sides.
      for (const auto& [servers, users] :
           std::vector<std::pair<std::vector<ServerId>, std::vector<UserId>>>{
               {{0, 1, 2}, {0, 4}},
               {{1, 2}, {0, 1, 3, 4}},
               {{0}, {0, 1, 2, 5}},
               {{2}, all_users}}) {
        const PlacementProblem view(scenario.topology, scenario.library,
                                    scenario.requests, servers, users);
        expect_matches_oracle(scenario, view, servers, users, seen);
      }
    }
  }
  EXPECT_GT(seen.zero_rate_links, 0u);
  EXPECT_GT(seen.fully_covered, 0u);
  EXPECT_GT(seen.expired_rows, 0u);
  EXPECT_GT(seen.uncovered_users, 0u);
  EXPECT_GT(seen.relay_entries, 0u);
  EXPECT_GT(seen.direct_entries, 0u);
}

}  // namespace
}  // namespace trimcaching::core
