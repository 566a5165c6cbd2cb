#include "src/sim/eval_plan.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "src/support/parallel.h"
#include "src/support/simd.h"
#include "src/support/units.h"

namespace trimcaching::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// WorkerArena slot of the lane-blocked gain / inverse-rate buffer
// (support/parallel.h).
constexpr std::size_t kArenaBlocked = 0;

// Realizations per lane-blocked pass: amortizes the per-row metadata walk
// (the dominant cost at scale: plan-100x's placement lowers ~14 request
// rows per link) over sixteen realizations and turns each holder probe into one
// contiguous 16-double load instead of a strided gather. Sixteen lanes are
// eight Vec2d per operand at the baseline ISA and four Vec4d under AVX2.
// The draws fill the block in place, in simd.h's link-major layout with
// lanes = kLaneBlock, so the AVX2 backend draws four lanes of one link per
// vector and no per-realization staging or interleave remains.
constexpr std::size_t kLaneBlock = 16;

// Double vectors (GCC/Clang extension) of the hit pass: two lanes lower to
// SSE2 at x86-64's baseline ISA, four lanes to AVX2 inside a target("avx2")
// function (outside one, GCC 12 scalarizes a 32-byte vector).
typedef double Vec2d __attribute__((vector_size(16), aligned(8)));
typedef double Vec4d __attribute__((vector_size(32), aligned(8)));

// The hit pass over one lane block, written once over the vector type V.
// Lane j reads inv_blocked[link * kLaneBlock + j]; one walk over the rows
// serves kLaneBlock realizations. Per user the vertical min over the link
// span gives each lane's best covering link (no horizontal reduction); per
// row the holder min and the two threshold compares decide every lane at
// once, and the probability is added under the hit mask. A missed lane adds
// +0.0, which leaves its non-negative mass bit-unchanged, so each lane's
// mass is the same row-order sum as a per-realization walk, whatever V's
// width. always_inline: each instantiation takes its caller's ISA.
template <typename V, typename Lowering>
[[gnu::always_inline]] inline void hit_pass(const Lowering& lowering,
                                            std::size_t num_users,
                                            const std::size_t* link_offsets,
                                            const double* inv_blocked,
                                            double total_mass, double* ratios) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  constexpr std::size_t kVecs = kLaneBlock / kWidth;
  // x - V{} broadcasts x exactly (x - +0.0 == x, -0.0 included) and folds
  // to a plain broadcast, where V{} + x would keep a scalar add.
  const V inf = kInf - V{};
  V mass[kVecs] = {};
  for (std::size_t k = 0; k < num_users; ++k) {
    const std::uint32_t row_begin = lowering.user_offsets[k];
    const std::uint32_t row_end = lowering.user_offsets[k + 1];
    if (row_begin == row_end) continue;
    V best[kVecs];
    for (std::size_t q = 0; q < kVecs; ++q) best[q] = inf;
    for (std::size_t l = link_offsets[k]; l < link_offsets[k + 1]; ++l) {
      const double* v = inv_blocked + l * kLaneBlock;
      for (std::size_t q = 0; q < kVecs; ++q) {
        V x;
        __builtin_memcpy(&x, v + q * kWidth, sizeof x);
        best[q] = x < best[q] ? x : best[q];
      }
    }
    for (std::uint32_t a = row_begin; a < row_end; ++a) {
      V holder[kVecs];
      for (std::size_t q = 0; q < kVecs; ++q) holder[q] = inf;
      for (std::uint32_t h = lowering.holder_offsets[a];
           h < lowering.holder_offsets[a + 1]; ++h) {
        const double* v =
            inv_blocked + std::size_t{lowering.holder_links[h]} * kLaneBlock;
        for (std::size_t q = 0; q < kVecs; ++q) {
          V x;
          __builtin_memcpy(&x, v + q * kWidth, sizeof x);
          holder[q] = x < holder[q] ? x : holder[q];
        }
      }
      const V direct = lowering.theta_direct[a] - V{};
      const V relay = lowering.theta_relay[a] - V{};
      const V p = lowering.probability[a] - V{};
      for (std::size_t q = 0; q < kVecs; ++q) {
        // Eq. 4 over the holders, Eq. 5 through the best covering link.
        mass[q] += (holder[q] <= direct) | (best[q] <= relay) ? p : V{};
      }
    }
  }
  for (std::size_t j = 0; j < kLaneBlock; ++j) {
    ratios[j] = total_mass > 0 ? mass[j / kWidth][j % kWidth] / total_mass : 0.0;
  }
}

#if defined(__x86_64__)
template <typename Lowering>
__attribute__((target("avx2"))) void hit_pass_avx2(
    const Lowering& lowering, std::size_t num_users, const std::size_t* link_offsets,
    const double* inv_blocked, double total_mass, double* ratios) {
  hit_pass<Vec4d>(lowering, num_users, link_offsets, inv_blocked, total_mass, ratios);
}
#endif

// The largest finite x >= 0 with pass(x), or -1 when pass(0) fails, for a
// predicate monotone (non-increasing) in x. Non-negative doubles order like
// their bit patterns, so the search runs on the integers: gallop outward
// from the closed-form guess to a bracket pass(lo) && !pass(hi) (hi starts
// at +inf, which a finite budget never passes), then bisect it to adjacent
// patterns. The guess only bounds the work; any guess gives the same answer.
template <typename Pass>
double largest_passing(double guess, Pass pass) {
  const auto at = [](std::uint64_t bits) { return std::bit_cast<double>(bits); };
  if (!pass(0.0)) return -1.0;
  std::uint64_t lo = 0;
  std::uint64_t hi = std::bit_cast<std::uint64_t>(kInf);
  const double max_finite = std::numeric_limits<double>::max();
  const std::uint64_t g =
      guess > 0.0 ? std::bit_cast<std::uint64_t>(std::min(guess, max_finite)) : 0;
  if (pass(at(g))) {
    lo = g;
    for (std::uint64_t step = 1; step < hi - lo; step *= 2) {
      if (!pass(at(lo + step))) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  } else {
    hi = g;
    for (std::uint64_t step = 1; step < hi - lo; step *= 2) {
      if (pass(at(hi - step))) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (pass(at(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return at(lo);
}
}  // namespace

// The predicates are the Eq. 4 / Eq. 5 latency expressions exactly as
// core::PlacementProblem::eligible evaluates them. The library builds ISO
// C++ (no GNU extensions), so GCC does not contract them into an FMA and each
// rounds as written.
double direct_threshold(double payload_bits, double budget_s) {
  return largest_passing(budget_s / payload_bits, [&](double x) {
    return payload_bits * x <= budget_s;  // Eq. 4
  });
}

double relay_threshold(double payload_bits, double budget_s, double backhaul_bps) {
  const double guess = (budget_s - payload_bits / backhaul_bps) / payload_bits;
  return largest_passing(guess, [&](double x) {
    return payload_bits / backhaul_bps + payload_bits * x <= budget_s;  // Eq. 5
  });
}

EvalPlan::EvalPlan(const wireless::NetworkTopology& topology,
                   const model::ModelLibrary& library,
                   const workload::RequestModel& requests) {
  if (requests.num_users() != topology.num_users() ||
      requests.num_models() != library.num_models()) {
    throw std::invalid_argument("EvalPlan: dimension mismatch");
  }
  num_users_ = topology.num_users();
  num_servers_ = topology.num_servers();
  num_models_ = library.num_models();
  total_mass_ = requests.total_mass();

  // Request rows, pre-filtered to the pairs that can ever score.
  const double backhaul_bps = topology.radio().backhaul_bps;
  row_offsets_.assign(num_users_ + 1, 0);
  std::vector<double> payload_bits(num_models_);
  for (ModelId i = 0; i < num_models_; ++i) {
    payload_bits[i] = support::bits(library.model_size(i));
  }
  for (UserId k = 0; k < num_users_; ++k) {
    const workload::RequestModel::Support support = requests.support_of(k);
    for (std::size_t s = 0; s < support.models.size(); ++s) {
      const double budget = support.deadline_s[s] - support.inference_s[s];
      if (budget <= 0.0) continue;
      const ModelId i = support.models[s];
      rows_.push_back(Row{i, support.probability[s], direct_threshold(payload_bits[i], budget),
                          relay_threshold(payload_bits[i], budget, backhaul_bps)});
    }
    row_offsets_[k + 1] = rows_.size();
  }
  refresh(topology);
}

void EvalPlan::refresh(const wireless::NetworkTopology& topology) {
  if (topology.num_users() != num_users_ || topology.num_servers() != num_servers_) {
    throw std::invalid_argument("EvalPlan::refresh: dimension mismatch");
  }
  // Link spans come straight from the topology's flat CSR views; the
  // assignments reuse this plan's capacity across revisions.
  link_offsets_ = topology.covering_offsets();
  link_server_ = topology.covering_flat();
  link_bandwidth_hz_ = topology.link_bandwidth_hz();
  link_mean_snr_ = topology.link_mean_snr();
  const std::vector<double>& avg_rate = topology.link_avg_rate_bps();
  avg_inv_rate_.resize(avg_rate.size());
  for (std::size_t l = 0; l < avg_rate.size(); ++l) {
    avg_inv_rate_[l] = avg_rate[l] > 0 ? 1.0 / avg_rate[l] : kInf;
  }
  revision_ = topology.revision();
  // Link indices shifted with the spans: the cached lowering is stale.
  lowering_cache_revision_ = 0;
}

void EvalPlan::check_placement(const core::PlacementSolution& placement) const {
  if (placement.num_servers() != num_servers_ ||
      placement.num_models() != num_models_) {
    throw std::invalid_argument("EvalPlan: placement dimension mismatch");
  }
}

EvalPlan::PlacementLowering EvalPlan::lower_placement(
    const core::PlacementSolution& placement) const {
  PlacementLowering lowering;
  lowering.user_offsets.assign(num_users_ + 1, 0);
  lowering.holder_offsets.push_back(0);
  for (UserId k = 0; k < num_users_; ++k) {
    const std::size_t link_begin = link_offsets_[k];
    const std::size_t link_end = link_offsets_[k + 1];
    for (std::size_t r = row_offsets_[k]; r < row_offsets_[k + 1]; ++r) {
      const Row& row = rows_[r];
      const std::size_t num_holders = placement.holders_of(row.model).size();
      if (num_holders == 0) continue;
      const std::size_t row_holders = lowering.holder_links.size();
      for (std::size_t l = link_begin; l < link_end; ++l) {
        if (placement.placed(link_server_[l], row.model)) {
          lowering.holder_links.push_back(static_cast<std::uint32_t>(l));
        }
      }
      const std::size_t covering_holders = lowering.holder_links.size() - row_holders;
      // Arena row order: the hit mass accumulates row by row in the plan's
      // (user, model) order.
      lowering.holder_offsets.push_back(
          static_cast<std::uint32_t>(lowering.holder_links.size()));
      lowering.probability.push_back(row.probability);
      lowering.theta_direct.push_back(row.theta_direct);
      lowering.theta_relay.push_back(num_holders > covering_holders ? row.theta_relay
                                                                    : -1.0);
    }
    lowering.user_offsets[k + 1] =
        static_cast<std::uint32_t>(lowering.probability.size());
  }
  return lowering;
}

const EvalPlan::PlacementLowering& EvalPlan::lowered(
    const core::PlacementSolution& placement) const {
  const std::uint64_t revision = placement.revision();
  if (lowering_cache_revision_ == revision) {
    ++lowering_hits_;
    return lowering_cache_;
  }
  lowering_cache_ = lower_placement(placement);
  lowering_cache_revision_ = revision;
  ++lowering_builds_;
  return lowering_cache_;
}

void EvalPlan::hit_ratios(const PlacementLowering& lowering,
                          const double* inv_blocked, double* ratios) const {
#if defined(__x86_64__)
  if (support::simd::active_backend() == support::simd::Backend::kAvx2) {
    hit_pass_avx2(lowering, num_users_, link_offsets_.data(), inv_blocked,
                  total_mass_, ratios);
    return;
  }
#endif
  hit_pass<Vec2d>(lowering, num_users_, link_offsets_.data(), inv_blocked,
                  total_mass_, ratios);
}

double EvalPlan::expected_hit_ratio(const core::PlacementSolution& placement) const {
  check_placement(placement);
  // The average rates broadcast into every lane of one block.
  const std::size_t links = num_links();
  std::vector<double>& blocked =
      support::this_worker_arena().doubles(kArenaBlocked, kLaneBlock * links);
  for (std::size_t l = 0; l < links; ++l) {
    std::fill_n(blocked.data() + l * kLaneBlock, kLaneBlock, avg_inv_rate_[l]);
  }
  double ratios[kLaneBlock];
  hit_ratios(lowered(placement), blocked.data(), ratios);
  return ratios[0];
}

support::Summary EvalPlan::fading_hit_ratio(const core::PlacementSolution& placement,
                                            std::size_t realizations,
                                            const support::Rng& rng,
                                            std::size_t threads) const {
  if (realizations == 0) {
    throw std::invalid_argument("fading_hit_ratio: zero realizations");
  }
  check_placement(placement);

  const std::size_t links = num_links();
  std::vector<double> ratios(realizations);

  // Three passes per block of kLaneBlock realizations, all through the
  // active backend: gains, the in-place gain -> inverse-rate transform, the
  // hit pass. Lane j of a block is realization r + j, whose gain stream is
  // counter-based on rng.stream_key(kFadingStream, r + j): every element
  // derives its draw from (key, link) alone, with the same arithmetic in
  // any lane, so each lane's inverse rates are bit-identical to the
  // realization's own lanes = 1 arrays and any block/chunk grouping — hence
  // any thread count — yields identical ratios. A chunk's tail block is
  // padded with the key of its first lane and the padding ratios dropped.
  // Static chunking keeps each worker on one contiguous realization range,
  // so lane blocks are only padded at chunk tails.
  const PlacementLowering& lowering = lowered(placement);
  const support::simd::Ops& ops = support::simd::ops();
  support::parallel_for_chunks(
      realizations, threads, [&](std::size_t begin, std::size_t end) {
        std::vector<double>& blocked = support::this_worker_arena().doubles(
            kArenaBlocked, kLaneBlock * links);
        const double* bw = link_bandwidth_hz_.data();
        const double* snr = link_mean_snr_.data();
        for (std::size_t r = begin; r < end; r += kLaneBlock) {
          const std::size_t lanes = std::min(kLaneBlock, end - r);
          std::uint64_t keys[kLaneBlock];
          for (std::size_t j = 0; j < kLaneBlock; ++j) {
            keys[j] = rng.stream_key(kFadingStream, r + (j < lanes ? j : 0));
          }
          ops.rayleigh_gains(keys, kLaneBlock, links, blocked.data());
          ops.inv_rate_from_gains(bw, snr, blocked.data(), kLaneBlock, links,
                                  blocked.data());
          double block_ratios[kLaneBlock];
          hit_ratios(lowering, blocked.data(), block_ratios);
          std::copy_n(block_ratios, lanes, &ratios[r]);
        }
      });

  // Index-order reduction: identical bits for every thread count.
  support::RunningStats stats;
  for (const double ratio : ratios) stats.add(ratio);
  return support::Summary{stats.mean(), stats.stddev(), stats.min(), stats.max(),
                          stats.count()};
}

}  // namespace trimcaching::sim
