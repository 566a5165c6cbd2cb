// Differential test of the serving engine's block caches: every policy built
// by serve::make_cache_policy is driven through seeded random sequences of
// on_request / admit / restart calls next to a reference cache that shares
// no code with it. The reference is the plain ordered-set block cache: a
// (score, id) std::set walked from the coldest end on eviction, with each
// policy's score formula written out below one block at a time (LRU as a
// per-block touch clock). After every call both caches must agree on which
// models are fully cached, on the bytes in use and on the eviction count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/model/model_library.h"
#include "src/serve/cache_policy.h"
#include "src/support/units.h"

namespace trimcaching {
namespace {

constexpr double kNever = -std::numeric_limits<double>::infinity();

/// The ordered-set block cache the indexed heap must reproduce exactly.
class ReferenceCache {
 public:
  ReferenceCache(const model::ModelLibrary& library, support::Bytes capacity,
                 std::string policy, double tau_s)
      : library_(library),
        capacity_(capacity),
        policy_(std::move(policy)),
        tau_s_(tau_s),
        cached_(library.num_blocks(), false),
        score_(library.num_blocks(), kNever) {}

  void warm(const std::vector<ModelId>& models) {
    for (const ModelId i : models) {
      for (const BlockId j : library_.model(i).blocks) insert(j);
    }
  }

  void on_request(ModelId i, double now) {
    if (policy_ == "static") return;
    for (const BlockId j : library_.model(i).blocks) {
      const double updated = next_score(now, score_[j]);
      if (cached_[j]) {
        order_.erase({score_[j], j});
        order_.insert({updated, j});
      }
      score_[j] = updated;
    }
  }

  void admit(ModelId i) {
    if (policy_ == "static") return;
    if (library_.model_size(i) > capacity_) {
      ++pass_throughs;
      return;
    }
    const auto& own = library_.model(i).blocks;
    for (const BlockId j : own) insert(j);
    auto victim = order_.begin();
    while (used_ > capacity_ && victim != order_.end()) {
      const BlockId j = victim->second;
      if (std::find(own.begin(), own.end(), j) != own.end()) {
        ++pinned_skips;
        ++victim;
        continue;
      }
      victim = order_.erase(victim);
      cached_[j] = false;
      used_ -= library_.block(j).size_bytes;
      ++evictions_;
    }
  }

  void restart() {
    cached_.assign(library_.num_blocks(), false);
    score_.assign(library_.num_blocks(), kNever);
    order_.clear();
    used_ = 0;
  }

  [[nodiscard]] bool fully_cached(ModelId i) const {
    for (const BlockId j : library_.model(i).blocks) {
      if (!cached_[j]) return false;
    }
    return true;
  }
  [[nodiscard]] support::Bytes used_bytes() const { return used_; }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }

  /// Coverage: admitted-model blocks the eviction walk had to step over,
  /// and admissions of models larger than the whole cache.
  std::size_t pinned_skips = 0;
  std::size_t pass_throughs = 0;

 private:
  [[nodiscard]] double next_score(double now, double previous) {
    if (policy_ == "lru") return static_cast<double>(++clock_);
    if (policy_ == "priority") return previous == kNever ? 1.0 : previous + 1.0;
    // ewma: log-sum-exp of exp(t_r / tau) over the block's requests.
    const double value = now / tau_s_;
    if (previous == kNever) return value;
    const double hi = std::max(previous, value);
    const double lo = std::min(previous, value);
    return hi + std::log1p(std::exp(lo - hi));
  }

  void insert(BlockId j) {
    if (cached_[j]) return;
    cached_[j] = true;
    used_ += library_.block(j).size_bytes;
    order_.insert({score_[j], j});
  }

  const model::ModelLibrary& library_;
  support::Bytes capacity_;
  std::string policy_;
  double tau_s_;
  std::uint64_t clock_ = 0;
  support::Bytes used_ = 0;
  std::size_t evictions_ = 0;
  std::vector<bool> cached_;
  std::vector<double> score_;
  std::set<std::pair<double, BlockId>> order_;
};

/// Three families, each sharing two backbone blocks across its members;
/// every model adds 1-4 private blocks and sometimes another family's
/// backbone block. Block ids are shuffled so a model's shared and private
/// blocks interleave in its ascending block list, and the last model is
/// larger than any capacity the test uses.
model::ModelLibrary random_library(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> block_mb(1, 6);
  std::uniform_int_distribution<int> private_count(1, 4);
  std::bernoulli_distribution cross_family(0.3);
  constexpr int kFamilies = 3;
  constexpr int kModelsPerFamily = 5;
  const int num_blocks = kFamilies * 2 + kFamilies * kModelsPerFamily * 4 + 1;
  std::vector<BlockId> ids(static_cast<std::size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) ids[b] = static_cast<BlockId>(b);
  std::shuffle(ids.begin(), ids.end(), rng);

  model::ModelLibrary library;
  for (int b = 0; b < num_blocks; ++b) {
    library.add_block(support::megabytes(block_mb(rng)));
  }
  std::size_t next = 0;
  std::vector<std::vector<BlockId>> backbone(kFamilies);
  for (auto& family : backbone) family = {ids[next++], ids[next++]};
  for (int f = 0; f < kFamilies; ++f) {
    for (int m = 0; m < kModelsPerFamily; ++m) {
      std::vector<BlockId> blocks = backbone[f];
      for (int p = private_count(rng); p > 0; --p) blocks.push_back(ids[next++]);
      if (cross_family(rng)) blocks.push_back(backbone[(f + 1) % kFamilies][0]);
      library.add_model({}, std::to_string(f), std::move(blocks));
    }
  }
  std::vector<BlockId> huge;
  for (std::size_t b = 0; b < ids.size(); b += 2) huge.push_back(ids[b]);
  library.add_model("huge", "huge", std::move(huge));
  library.finalize();
  return library;
}

struct Coverage {
  std::size_t evictions = 0;
  std::size_t pinned_skips = 0;
  std::size_t pass_throughs = 0;
  std::size_t restarts = 0;
};

/// One seeded sequence against `spec`; adds what it exercised to `coverage`.
void run_sequence(const std::string& spec, const std::string& base, double tau_s,
                  std::uint64_t seed, Coverage& coverage) {
  std::mt19937_64 rng(seed);
  const model::ModelLibrary library = random_library(rng);
  const auto num_models = static_cast<ModelId>(library.num_models());
  const support::Bytes capacity = support::megabytes(std::uniform_int_distribution<int>(
      15, 40)(rng));

  const auto policy = serve::make_cache_policy(spec);
  policy->bind(library, capacity);
  ReferenceCache reference(library, capacity, base, tau_s);

  // Warm start: a prefix of models that fits without eviction.
  std::vector<ModelId> warm;
  support::Bytes warm_bytes = 0;
  for (ModelId i = 0; i < num_models; ++i) {
    if (warm_bytes + library.model_size(i) > capacity / 2) break;
    warm.push_back(i);
    warm_bytes += library.model_size(i);
  }
  policy->warm(warm);
  reference.warm(warm);

  // Popularity skewed toward a few models, so the rest stay cold: admitting
  // a cold model puts its own blocks at the bottom of the score order.
  std::vector<double> weights(num_models);
  for (ModelId i = 0; i < num_models; ++i) weights[i] = 1.0 / ((i + 1.0) * (i + 1.0));
  std::shuffle(weights.begin(), weights.end(), rng);
  std::discrete_distribution<ModelId> popular(weights.begin(), weights.end());
  std::uniform_int_distribution<ModelId> any(0, num_models - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  double now = 0.0;
  for (int step = 0; step < 400; ++step) {
    // Simultaneous requests (equal `now`) happen too.
    if (unit(rng) < 0.8) now += 10.0 * unit(rng);
    const double op = unit(rng);
    const char* what = "restart";
    // Mostly the popular models; 15% of the steps admit any model, often a
    // never-requested one.
    const ModelId i = op < 0.85 ? popular(rng) : any(rng);
    if (op < 0.02) {
      policy->restart();
      reference.restart();
      ++coverage.restarts;
    } else if (op < 0.55) {
      policy->on_request(i, now);
      reference.on_request(i, now);
      what = "on_request";
    } else if (op < 0.85) {
      // The engine's miss path: request, then admit.
      policy->on_request(i, now);
      reference.on_request(i, now);
      policy->admit(i, now);
      reference.admit(i);
      what = "request + admit";
    } else {
      policy->admit(i, now);
      reference.admit(i);
      what = "admit";
    }
    SCOPED_TRACE(::testing::Message() << spec << " seed " << seed << " step " << step
                                      << ": " << what << " of model " << i);
    ASSERT_EQ(policy->used_bytes(), reference.used_bytes());
    ASSERT_EQ(policy->evictions(), reference.evictions());
    for (ModelId m = 0; m < num_models; ++m) {
      ASSERT_EQ(policy->fully_cached(m), reference.fully_cached(m)) << "model " << m;
    }
  }
  coverage.evictions += reference.evictions();
  coverage.pinned_skips += reference.pinned_skips;
  coverage.pass_throughs += reference.pass_throughs;
}

TEST(CachePolicyDifferential, MatchesOrderedSetReferenceOnRandomSequences) {
  struct Case {
    std::string spec;
    std::string base;
    double tau_s;
  };
  const std::vector<Case> cases = {{"static", "static", 0.0},
                                   {"lru", "lru", 0.0},
                                   {"ewma:tau_s=7", "ewma", 7.0},
                                   {"priority", "priority", 0.0}};
  for (const Case& c : cases) {
    Coverage total;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      run_sequence(c.spec, c.base, c.tau_s, seed, total);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(total.restarts, 0u) << c.spec;
    if (c.base == "static") continue;  // never evicts, never admits
    // The sequences must reach every path the heap replaces: evictions,
    // pinned blocks popped and pushed back, and pass-through admissions.
    EXPECT_GT(total.evictions, 0u) << c.spec;
    EXPECT_GT(total.pinned_skips, 0u) << c.spec;
    EXPECT_GT(total.pass_throughs, 0u) << c.spec;
  }
}

}  // namespace
}  // namespace trimcaching
