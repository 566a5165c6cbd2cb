// Pluggable per-server block caches for the online serving engine.
//
// The paper's placement is an *offline* decision: contents are pushed once
// and never change. The serving engine generalizes that to a CachePolicy per
// edge server, keyed at parameter-block granularity so sharing keeps paying
// off online exactly as it does in the storage constraint (Eq. 7): admitting
// a model only costs the bytes of its not-yet-cached blocks, and evicting a
// block frees it for every model that referenced it.
//
// Policies (after the neu-spiral Caches exemplars — PriorityCache/EWMACache
// — and classic block LRU):
//
//   * static    — the placement is the cache, forever (the paper's model).
//     Misses are relayed from a holding server or go unserved; the engine
//     never fetches from the cloud for a static cache.
//   * lru       — block-level least-recently-used; misses are fetched from
//     the cloud and admitted, evicting the stalest blocks.
//   * ewma      — blocks are scored by an exponentially-weighted request
//     rate (time constant tau_s); eviction removes the coldest block by
//     decayed score. Reacts to popularity drift faster than LRU when bursts
//     repeat, slower when they don't.
//   * priority  — frequency cache: blocks are scored by cumulative request
//     count (LFU); eviction removes the least-requested block.
//
// All scored policies share one mechanism: a score per block plus an
// indexed binary min-heap over the *cached* blocks, keyed by (score, id) with
// a heap slot per block. Scores never decrease (the LRU touch index, the EWMA
// log-sum-exp and the request count all only rise), so a touch updates its
// key in place and sifts down, an admission pushes and sifts up, and an
// eviction pops in (score, id) order. The admitted model's own blocks are
// popped into a reused stash rather than evicted and are pushed back once
// the cache fits, so the victims are exactly the (score, id)-ordered walk
// over the unpinned blocks. next_score is a pure function of (now,
// previous score), so on_request computes it once per run of consecutive
// blocks sharing a previous score (a model's private blocks always do).
// Scores are plain doubles updated deterministically, so a policy's behavior
// is bit-reproducible across runs and thread counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/model/model_library.h"
#include "src/support/ids.h"
#include "src/support/units.h"

namespace trimcaching::serve {

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Reactive policies serve misses via a cloud fetch followed by admit();
  /// the static policy keeps the offline placement authoritative (misses
  /// relay or go unserved).
  [[nodiscard]] virtual bool reactive() const noexcept { return true; }

  /// Binds the policy to a library and a server's storage budget. Must be
  /// called once before any other method.
  void bind(const model::ModelLibrary& library, support::Bytes capacity);

  /// Seeds the cache with the blocks of the given models (the offline
  /// placement; feasible by construction, so no eviction happens here).
  void warm(const std::vector<ModelId>& models);

  /// Bytes of model i's blocks not currently cached (0 = fully cached).
  [[nodiscard]] support::Bytes missing_bytes(ModelId i) const;
  [[nodiscard]] bool fully_cached(ModelId i) const { return missing_bytes(i) == 0; }

  [[nodiscard]] support::Bytes used_bytes() const noexcept { return used_; }
  [[nodiscard]] support::Bytes capacity_bytes() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }

  /// Request-time bookkeeping (recency/frequency scores). Called for every
  /// request routed to this server, hit or miss.
  virtual void on_request(ModelId i, double now);

  /// Admits a fetched model: inserts its missing blocks, then evicts the
  /// lowest-scored blocks (never the admitted model's own) until the cache
  /// fits. Models larger than the whole cache pass through uncached.
  virtual void admit(ModelId i, double now);

  /// Cold restart (crash-recovery semantics): drops every cached block and
  /// every recency/frequency score — nothing survives the power cycle. The
  /// cumulative eviction counter is kept, but the dropped blocks do NOT
  /// count as evictions (they were lost, not displaced). The serving engine
  /// calls this at a kServerUp event; a reactive policy then re-warms
  /// through its normal admit-on-miss machinery, a static one is re-pushed
  /// via warm().
  virtual void restart();

 protected:
  /// New score of a block requested at `now` whose current score is
  /// `previous` (-inf if never touched); higher survives longer. Must depend
  /// on nothing but (now, previous) and touches(), and must not be below
  /// `previous`: blocks sharing a previous score share one call, and a
  /// touched block only ever sifts down the heap.
  [[nodiscard]] virtual double next_score(double now, double previous) const = 0;

  /// on_request calls since bind(), counting the current one.
  [[nodiscard]] std::uint64_t touches() const noexcept { return touches_; }

  [[nodiscard]] const model::ModelLibrary& library() const { return *library_; }

 private:
  [[nodiscard]] bool cached(BlockId j) const noexcept { return pos_[j] != kInvalidId; }
  /// Heap order: (score, id) ascending.
  [[nodiscard]] bool before(BlockId a, BlockId b) const noexcept {
    return score_[a] < score_[b] || (score_[a] == score_[b] && a < b);
  }
  void insert_block(BlockId j);
  void evict_until_fits();
  void push(BlockId j);
  void sift_up(std::size_t slot);
  void sift_down(std::size_t slot);
  /// Removes and returns the heap minimum (the eviction candidate).
  BlockId pop_min();

  const model::ModelLibrary* library_ = nullptr;
  support::Bytes capacity_ = 0;
  support::Bytes used_ = 0;
  std::size_t evictions_ = 0;
  std::uint64_t touches_ = 0;
  /// The blocks of the model being admitted (never evicted by that admit);
  /// all zero between admit() calls, so admit clears only what it set.
  std::vector<char> pinned_;
  std::vector<double> score_;
  /// Cached blocks as a binary min-heap in before() order; heap_[0] is the
  /// eviction candidate. pos_[j] is j's index in heap_, or kInvalidId.
  std::vector<BlockId> heap_;
  std::vector<std::uint32_t> pos_;
  /// Pinned blocks popped during one eviction pass, pushed back after it.
  std::vector<BlockId> stash_;
};

/// Builds a policy from a "name" or "name:key=value,..." spec:
///   static | lru | ewma[:tau_s=60] | priority
/// Throws std::invalid_argument on unknown names/options, listing the
/// alternatives.
[[nodiscard]] std::unique_ptr<CachePolicy> make_cache_policy(const std::string& spec);

/// Specs accepted by make_cache_policy (base names, ascending).
[[nodiscard]] std::vector<std::string> known_cache_policies();

}  // namespace trimcaching::serve
