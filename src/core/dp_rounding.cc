#include "src/core/dp_rounding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/support/bitset.h"

namespace trimcaching::core {

namespace {

using model::ModelLibrary;
using support::Bytes;
using support::DynamicBitset;

constexpr Bytes kInfWeight = std::numeric_limits<Bytes>::max();

struct Candidate {
  ModelId id = 0;
  double utility = 0.0;
  Bytes specific_size = 0;       ///< D_N(i) (Eq. 13): size outside shared blocks
  std::uint64_t rounded = 0;     ///< u̇ (profit mode)
  std::size_t quantized = 0;     ///< quantized specific size (weight, joint)
  std::size_t compute_q = 0;     ///< quantized compute load (joint mode)
};

// ---------------------------------------------------------------------------
// The three inner 0/1 knapsacks. Each DP kind has one table (`cells`) and one
// fill (`add`), shared by the combination traversal and the traceback:
//  * add(item, improved) folds one item in; when `improved` is given it is
//    sized to the table and flags every cell the item strictly improved;
//  * score(budget) is a leaf's value, comparable across leaves;
//  * best_cell(budget) is the cell the traceback starts from;
//  * step(item) is the offset from an item's cell back to the cell it was
//    built from.
// ---------------------------------------------------------------------------

/// Sets cells [lo, hi) of `out` to `relax(base[w - step], out[w])`,
/// descending, so that in place (base == out) each cell reads a pre-update
/// value. `improved`, the traceback's record, flags each cell this strictly
/// changes; without it the loop stays branch-free. The table arrives as two
/// pointers and the rest by value, so the stores into `out` cannot alias the
/// loop's inputs.
template <typename T, typename Relax>
[[gnu::noinline]] void relax_cells(T* out, const T* base, std::size_t step,
                                   std::size_t lo, std::size_t hi, char* improved,
                                   Relax relax) {
  if (improved == nullptr) {
    for (std::size_t w = hi; w-- > lo;) out[w] = relax(base[w - step], out[w]);
    return;
  }
  for (std::size_t w = hi; w-- > lo;) {
    const T next = relax(base[w - step], out[w]);
    improved[w] = next != out[w] ? 1 : 0;
    out[w] = next;
  }
}

/// The 1D fill shared by the profit and weight tables: relaxes every cell
/// w >= step from cell w - step, in place, after sizing the traceback's
/// record (if any) to the table. Both functions stay out of line and the
/// loop bounds stay apart from `step`: inlined into the recursive traversal,
/// merged into one function, reading one pointer or bounded by `step`
/// itself, the fills ran 2-20% slower (GCC 12, -O3).
template <typename T, typename Relax>
[[gnu::noinline]] void fill_row(std::vector<T>& cells, std::size_t step,
                                std::vector<char>* improved, Relax relax) {
  char* mark = nullptr;
  if (improved != nullptr) {
    improved->assign(cells.size(), 0);
    mark = improved->data();
  }
  relax_cells(cells.data(), cells.data(), step, step, cells.size(), mark, relax);
}

/// Profit-indexed (the paper's Eq. 16): cells[w] = min weight reaching
/// rounded profit exactly w. The table grows with the reachable profit.
struct ProfitDp {
  std::vector<Bytes> cells{0};  // cells[0] = 0

  void add(const Candidate& it, std::vector<char>* improved = nullptr) {
    if (it.rounded == 0) return;
    cells.resize(cells.size() + it.rounded, kInfWeight);
    fill_row(cells, it.rounded, improved,
             [size = it.specific_size](Bytes base, Bytes cell) {
               return base == kInfWeight ? cell : std::min(cell, base + size);
             });
  }

  /// Largest rounded profit achievable within `budget`.
  [[nodiscard]] std::size_t best_cell(Bytes budget) const {
    for (std::size_t w = cells.size() - 1;; --w) {
      if (cells[w] <= budget || w == 0) return w;
    }
  }
  [[nodiscard]] double score(Bytes budget) const {
    return static_cast<double>(best_cell(budget));
  }
  [[nodiscard]] static std::size_t step(const Candidate& it) { return it.rounded; }
};

/// Weight-indexed: cells[w] = max utility with quantized weight <= w. Cells
/// at or below a budget never read the cells above it, so one table sized to
/// the full capacity serves every leaf's budget.
struct WeightDp {
  std::vector<double> cells;
  Bytes quantum = 1;

  void add(const Candidate& it, std::vector<char>* improved = nullptr) {
    if (it.quantized >= cells.size()) return;  // never fits
    fill_row(cells, it.quantized, improved,
             [u = it.utility](double base, double cell) {
               return std::max(cell, base + u);
             });
  }

  [[nodiscard]] std::size_t best_cell(Bytes budget) const {
    return std::min<std::size_t>(budget / quantum, cells.size() - 1);
  }
  [[nodiscard]] double score(Bytes budget) const { return cells[best_cell(budget)]; }
  [[nodiscard]] static std::size_t step(const Candidate& it) { return it.quantized; }
};

/// Joint (storage x compute): cell (s, c) holds the best utility over
/// selections with quantized storage <= s and quantized compute <= c. The
/// storage budget varies with the leaf's shared size, the compute budget is
/// the whole server budget at every leaf, so a leaf reads the last compute
/// column. Ceil quantization on both axes keeps every pick feasible. The fill
/// stores only the cells it improves: the 2D table outgrows the cache, where
/// an unconditional store would write back every line it passes.
struct JointDp {
  std::size_t storage_states;
  std::size_t compute_states;
  Bytes quantum;
  std::vector<double> cells;  // (storage_states + 1) x (compute_states + 1)

  void add(const Candidate& it, std::vector<char>* improved = nullptr) {
    const std::size_t wq = it.quantized;
    const std::size_t cq = it.compute_q;
    if (wq > storage_states || cq > compute_states) return;  // never fits
    char* mark = nullptr;
    if (improved != nullptr) {
      improved->assign(cells.size(), 0);
      mark = improved->data();
    }
    const std::size_t stride = compute_states + 1;
    const double u = it.utility;
    const std::size_t back = step(it);
    double* const out = cells.data();
    // Descending: each cell's base, up and left of it, is still pre-update.
    for (std::size_t s = storage_states + 1; s-- > wq;) {
      for (std::size_t x = s * stride + stride; x-- > s * stride + cq;) {
        if (out[x - back] + u > out[x]) {
          out[x] = out[x - back] + u;
          if (mark != nullptr) mark[x] = 1;
        }
      }
    }
  }

  [[nodiscard]] std::size_t best_cell(Bytes budget) const {
    const std::size_t s = std::min<std::size_t>(budget / quantum, storage_states);
    return s * (compute_states + 1) + compute_states;
  }
  [[nodiscard]] double score(Bytes budget) const { return cells[best_cell(budget)]; }
  [[nodiscard]] std::size_t step(const Candidate& it) const {
    return it.quantized * (compute_states + 1) + it.compute_q;
  }
};

/// Replays the traversal's fill over `items` from `dp` (an empty table) and
/// walks back from best_cell(budget): an item is chosen iff it strictly
/// improved the current cell, which then steps back to the cell it was built
/// from. Utilities are summed last item first.
template <typename Dp>
void traceback(Dp dp, const std::vector<Candidate>& items, Bytes budget,
               ServerSubproblemResult& result) {
  std::vector<std::vector<char>> improved(items.size());
  for (std::size_t e = 0; e < items.size(); ++e) dp.add(items[e], &improved[e]);
  std::size_t cell = dp.best_cell(budget);
  for (std::size_t e = items.size(); e-- > 0;) {
    if (cell < improved[e].size() && improved[e][cell] != 0) {
      result.models.push_back(items[e].id);
      result.value += items[e].utility;
      cell -= dp.step(items[e]);
    }
  }
  std::sort(result.models.begin(), result.models.end());
}

// ---------------------------------------------------------------------------
// Sharing-group decomposition of the candidate set.
// ---------------------------------------------------------------------------

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

/// One sharing group whose distinct shared parts form an inclusion chain.
/// Level t (1-based) corresponds to the t-th smallest part; cum_size[t] is
/// d_N of that part; models_at_level[t] are candidates whose part equals it.
struct Chain {
  std::vector<Bytes> cum_size;                       // index 0 unused (=0)
  std::vector<std::vector<std::size_t>> at_level;    // candidate indices
};

struct Decomposition {
  bool is_chain = true;
  std::vector<std::size_t> base;  ///< candidates with empty shared part
  std::vector<Chain> chains;
  // Fallback data (non-chain): distinct parts and the closure.
  std::vector<DynamicBitset> closure;
};

Decomposition decompose(const ModelLibrary& library,
                        const std::vector<Candidate>& candidates,
                        std::size_t max_combinations) {
  Decomposition out;
  const std::size_t beta = library.shared_blocks().size();
  UnionFind uf(beta);
  for (const auto& cand : candidates) {
    const DynamicBitset& part = library.shared_part(cand.id);
    std::size_t first = beta;
    part.for_each([&](std::size_t t) {
      if (first == beta) {
        first = t;
      } else {
        uf.unite(first, t);
      }
    });
  }
  // Group candidates by component (or base if no shared blocks).
  std::unordered_map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const DynamicBitset& part = library.shared_part(candidates[c].id);
    std::size_t first = beta;
    part.for_each([&](std::size_t t) {
      if (first == beta) first = t;
    });
    if (first == beta) {
      out.base.push_back(c);
    } else {
      groups[uf.find(first)].push_back(c);
    }
  }
  // Per group: distinct parts, chain check.
  for (auto& [root, members] : groups) {
    (void)root;
    std::unordered_map<DynamicBitset, std::vector<std::size_t>,
                       support::DynamicBitsetHash>
        by_part;
    for (const std::size_t c : members) {
      by_part[library.shared_part(candidates[c].id)].push_back(c);
    }
    std::vector<const DynamicBitset*> parts;
    parts.reserve(by_part.size());
    for (const auto& [part, cs] : by_part) {
      (void)cs;
      parts.push_back(&part);
    }
    std::sort(parts.begin(), parts.end(),
              [](const DynamicBitset* a, const DynamicBitset* b) {
                return a->count() < b->count();
              });
    bool chain_ok = true;
    for (std::size_t t = 1; t < parts.size(); ++t) {
      if (!parts[t - 1]->is_subset_of(*parts[t])) {
        chain_ok = false;
        break;
      }
    }
    if (!chain_ok) {
      out.is_chain = false;
      break;
    }
    Chain chain;
    chain.cum_size.push_back(0);
    chain.at_level.emplace_back();  // level 0: empty
    for (const DynamicBitset* part : parts) {
      chain.cum_size.push_back(library.combination_size(*part));
      chain.at_level.push_back(by_part[*part]);
    }
    out.chains.push_back(std::move(chain));
  }

  if (out.is_chain) {
    // Leaf-count guard: ∏ (levels per chain).
    double leaves = 1.0;
    for (const auto& chain : out.chains) {
      leaves *= static_cast<double>(chain.cum_size.size());
      if (leaves > static_cast<double>(max_combinations)) {
        throw std::runtime_error(
            "solve_server_subproblem: combination space exceeds max_combinations "
            "(general-case blow-up; use trimcaching_gen)");
      }
    }
    return out;
  }

  // Generic fallback: union-closure of the candidates' distinct parts.
  out.chains.clear();
  std::unordered_set<DynamicBitset, support::DynamicBitsetHash> distinct;
  for (const auto& cand : candidates) {
    const DynamicBitset& part = library.shared_part(cand.id);
    if (part.any()) distinct.insert(part);
  }
  std::unordered_set<DynamicBitset, support::DynamicBitsetHash> closure;
  std::vector<DynamicBitset> order;
  DynamicBitset empty(beta);
  closure.insert(empty);
  order.push_back(std::move(empty));
  for (std::size_t head = 0; head < order.size(); ++head) {
    const DynamicBitset current = order[head];
    for (const auto& g : distinct) {
      DynamicBitset next = current;
      next |= g;
      if (closure.insert(next).second) {
        if (closure.size() > max_combinations) {
          throw std::runtime_error(
              "solve_server_subproblem: closure exceeds max_combinations "
              "(general-case blow-up; use trimcaching_gen)");
        }
        order.push_back(std::move(next));
      }
    }
  }
  out.closure = std::move(order);
  return out;
}

// ---------------------------------------------------------------------------
// Combination search: chain traversal with incremental DP, or the closure
// fallback; then the traceback of the winning leaf.
// ---------------------------------------------------------------------------

struct BestLeaf {
  bool valid = false;
  double score = 0.0;             // comparable across leaves (mode-specific)
  std::vector<std::size_t> levels;
  Bytes shared_size = 0;
};

template <typename Dp>
void traverse(const std::vector<Chain>& chains, const std::vector<Candidate>& cands,
              std::size_t f, const Dp& dp, Bytes used_shared, Bytes capacity,
              std::vector<std::size_t>& levels, std::size_t& visited, BestLeaf& best) {
  if (f == chains.size()) {
    ++visited;
    const double score = dp.score(capacity - used_shared);
    if (!best.valid || score > best.score) {
      best.valid = true;
      best.score = score;
      best.levels = levels;
      best.shared_size = used_shared;
    }
    return;
  }
  const Chain& chain = chains[f];
  levels[f] = 0;
  traverse(chains, cands, f + 1, dp, used_shared, capacity, levels, visited, best);
  Dp local = dp;
  for (std::size_t t = 1; t < chain.cum_size.size(); ++t) {
    if (used_shared + chain.cum_size[t] > capacity) break;  // cum sizes increase
    for (const std::size_t c : chain.at_level[t]) local.add(cands[c]);
    levels[f] = t;
    traverse(chains, cands, f + 1, local, used_shared + chain.cum_size[t], capacity,
             levels, visited, best);
  }
  levels[f] = 0;
}

/// Finds the best shared-block combination with the DP kind `make_empty()`
/// returns (a fresh empty table per call) and reconstructs that leaf's
/// knapsack into `result`.
template <typename MakeDp>
void search(const MakeDp& make_empty, const ModelLibrary& library,
            const std::vector<Candidate>& candidates,
            const Decomposition& decomposition, Bytes capacity,
            ServerSubproblemResult& result) {
  using Dp = decltype(make_empty());
  BestLeaf best;
  std::size_t visited = 0;
  std::vector<std::size_t> best_members;  // candidate indices of winning leaf
  if (decomposition.closure.empty()) {
    // Chain path: incremental DP along each chain.
    result.used_chain_path = true;
    Dp dp = make_empty();
    for (const std::size_t c : decomposition.base) dp.add(candidates[c]);
    std::vector<std::size_t> levels(decomposition.chains.size(), 0);
    traverse(decomposition.chains, candidates, 0, dp, Bytes{0}, capacity, levels,
             visited, best);
    if (best.valid) {
      best_members = decomposition.base;
      for (std::size_t f = 0; f < decomposition.chains.size(); ++f) {
        const Chain& chain = decomposition.chains[f];
        for (std::size_t t = 1; t <= best.levels[f]; ++t) {
          best_members.insert(best_members.end(), chain.at_level[t].begin(),
                              chain.at_level[t].end());
        }
      }
    }
  } else {
    // Generic fallback: per-combination knapsack from scratch.
    for (const DynamicBitset& combo : decomposition.closure) {
      const Bytes shared_size = library.combination_size(combo);
      if (shared_size > capacity) continue;
      ++visited;
      std::vector<std::size_t> members = decomposition.base;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const DynamicBitset& part = library.shared_part(candidates[c].id);
        if (part.any() && part.is_subset_of(combo)) members.push_back(c);
      }
      Dp dp = make_empty();
      for (const std::size_t c : members) dp.add(candidates[c]);
      const double score = dp.score(capacity - shared_size);
      if (!best.valid || score > best.score) {
        best.valid = true;
        best.score = score;
        best.shared_size = shared_size;
        best_members = std::move(members);
      }
    }
  }

  result.combinations_visited = visited;
  if (!best.valid || best.score <= 0.0) return;
  std::vector<Candidate> items;
  items.reserve(best_members.size());
  for (const std::size_t c : best_members) items.push_back(candidates[c]);
  traceback(make_empty(), items, capacity - best.shared_size, result);
}

}  // namespace

ServerSubproblemResult solve_server_subproblem(const ModelLibrary& library,
                                               const std::vector<double>& utilities,
                                               Bytes capacity,
                                               const SpecSolverConfig& config,
                                               const std::vector<double>* compute_loads,
                                               double compute_budget) {
  if (!library.finalized()) {
    throw std::invalid_argument("solve_server_subproblem: library must be finalized");
  }
  if (utilities.size() != library.num_models()) {
    throw std::invalid_argument("solve_server_subproblem: utilities size mismatch");
  }
  if (!(config.epsilon >= 0.0 && config.epsilon <= 1.0)) {
    throw std::invalid_argument(
        "solve_server_subproblem: eps must be a finite number in [0, 1], got " +
        std::to_string(config.epsilon));
  }
  if (config.weight_states == 0) {
    throw std::invalid_argument(
        "solve_server_subproblem: states must be > 0 (the storage quantization of "
        "mode=weight and of joint mode), got 0");
  }
  const bool joint = compute_loads != nullptr &&
                     compute_budget != std::numeric_limits<double>::infinity();
  if (joint) {
    if (compute_loads->size() != library.num_models()) {
      throw std::invalid_argument(
          "solve_server_subproblem: compute_loads size mismatch");
    }
    if (config.compute_states == 0) {
      throw std::invalid_argument(
          "solve_server_subproblem: compute_states must be > 0 in joint mode");
    }
    if (std::isnan(compute_budget) || compute_budget < 0) {
      throw std::invalid_argument(
          "solve_server_subproblem: compute_budget must be >= 0");
    }
  }
  const bool profit = !joint && config.mode == DpMode::kProfitRounding;

  ServerSubproblemResult result;

  // Candidate set: only models with positive utility can improve the
  // objective; everything else would waste capacity.
  std::vector<Candidate> candidates;
  double min_utility = std::numeric_limits<double>::infinity();
  for (ModelId i = 0; i < library.num_models(); ++i) {
    const double u = utilities[i];
    if (u < 0.0) {
      throw std::invalid_argument("solve_server_subproblem: negative utility");
    }
    if (u <= 0.0) continue;
    Candidate cand;
    cand.id = i;
    cand.utility = u;
    cand.specific_size = library.specific_size(i);
    candidates.push_back(cand);
    min_utility = std::min(min_utility, u);
  }
  if (candidates.empty()) return result;

  // Rounding / quantization. The paper's "ε = 0" means exact profits; we
  // realize it as a very fine rounding (Proposition 4's loss becomes
  // negligible at 1e-5).
  const double eps = config.epsilon == 0.0 ? 1e-5 : config.epsilon;
  const Bytes quantum =
      std::max<Bytes>(1, (capacity + config.weight_states - 1) / config.weight_states);
  const double compute_quantum =
      joint && compute_budget > 0
          ? compute_budget / static_cast<double>(config.compute_states)
          : 1.0;
  const double profit_unit = eps * min_utility;  // u̇ = floor(u / profit_unit)
  if (profit) {
    // Sum the rounded profits in double first: a tiny eps can push them past
    // what the integer cast below can represent.
    double total = 0.0;
    for (const auto& cand : candidates) total += std::floor(cand.utility / profit_unit);
    if (!(total + 1 <= static_cast<double>(config.max_profit_states))) {
      throw std::runtime_error(
          "solve_server_subproblem: profit state space exceeds max_profit_states; "
          "increase eps, raise max_profit_states or use mode=weight");
    }
  }
  for (auto& cand : candidates) {
    if (profit) {
      cand.rounded = static_cast<std::uint64_t>(std::floor(cand.utility / profit_unit));
    }
    cand.quantized = static_cast<std::size_t>((cand.specific_size + quantum - 1) / quantum);
    if (joint) {
      const double load = (*compute_loads)[cand.id];
      if (load < 0) {
        throw std::invalid_argument("solve_server_subproblem: negative compute load");
      }
      if (load <= 0) {
        cand.compute_q = 0;
      } else if (compute_budget <= 0) {
        cand.compute_q = config.compute_states + 1;  // never fits
      } else {
        // Ceil quantization, clamped to the full budget: a model whose lone
        // optimistic load overshoots may still serve a feasible subset of
        // its users, so it stays placeable (consuming the whole budget).
        cand.compute_q = std::min<std::size_t>(
            config.compute_states,
            static_cast<std::size_t>(std::ceil(load / compute_quantum)));
      }
    }
  }

  const Decomposition decomposition =
      decompose(library, candidates, config.max_combinations);
  const auto search_with = [&](const auto& make_empty) {
    search(make_empty, library, candidates, decomposition, capacity, result);
  };
  if (joint) {
    search_with([&] {
      return JointDp{config.weight_states, config.compute_states, quantum,
                     std::vector<double>((config.weight_states + 1) *
                                         (config.compute_states + 1))};
    });
  } else if (profit) {
    search_with([] { return ProfitDp{}; });
  } else {
    search_with([&] {
      return WeightDp{std::vector<double>(config.weight_states + 1), quantum};
    });
  }
  return result;
}

}  // namespace trimcaching::core
