#include "src/serve/cache_policy.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/support/options.h"

namespace trimcaching::serve {

namespace {
constexpr double kNeverTouched = -std::numeric_limits<double>::infinity();
}  // namespace

void CachePolicy::bind(const model::ModelLibrary& library, support::Bytes capacity) {
  if (library_ != nullptr) throw std::logic_error("CachePolicy: bind called twice");
  if (!library.finalized()) {
    throw std::invalid_argument("CachePolicy: library must be finalized");
  }
  library_ = &library;
  capacity_ = capacity;
  pinned_.assign(library.num_blocks(), 0);
  // Never-requested blocks start at the bottom of every score order.
  score_.assign(library.num_blocks(), kNeverTouched);
  pos_.assign(library.num_blocks(), kInvalidId);
}

void CachePolicy::warm(const std::vector<ModelId>& models) {
  if (library_ == nullptr) throw std::logic_error("CachePolicy: warm before bind");
  for (const ModelId i : models) {
    for (const BlockId j : library_->model(i).blocks) insert_block(j);
  }
}

support::Bytes CachePolicy::missing_bytes(ModelId i) const {
  if (library_ == nullptr) throw std::logic_error("CachePolicy: use before bind");
  support::Bytes missing = 0;
  for (const BlockId j : library_->model(i).blocks) {
    if (!cached(j)) missing += library_->block(j).size_bytes;
  }
  return missing;
}

void CachePolicy::on_request(ModelId i, double now) {
  // Score every block of the requested model, cached or not: an uncached
  // block keeps accumulating popularity, so when it is finally admitted it
  // does not start as the coldest entry. next_score is pure, so a block
  // whose previous score equals its predecessor's reuses that update (NaN
  // equals no score, so the first block always computes one).
  ++touches_;
  double previous = std::numeric_limits<double>::quiet_NaN();
  double updated = 0.0;
  for (const BlockId j : library_->model(i).blocks) {
    if (score_[j] != previous) {
      previous = score_[j];
      updated = next_score(now, previous);
    }
    score_[j] = updated;
    if (cached(j)) sift_down(pos_[j]);
  }
}

void CachePolicy::admit(ModelId i, double now) {
  (void)now;
  if (library_->model_size(i) > capacity_) return;  // pass-through download
  const auto& blocks = library_->model(i).blocks;
  for (const BlockId j : blocks) {
    pinned_[j] = 1;
    insert_block(j);
  }
  evict_until_fits();
  for (const BlockId j : blocks) pinned_[j] = 0;
}

void CachePolicy::restart() {
  if (library_ == nullptr) throw std::logic_error("CachePolicy: restart before bind");
  for (const BlockId j : heap_) pos_[j] = kInvalidId;
  heap_.clear();
  score_.assign(library_->num_blocks(), kNeverTouched);
  used_ = 0;
}

void CachePolicy::insert_block(BlockId j) {
  if (cached(j)) return;
  used_ += library_->block(j).size_bytes;
  push(j);
}

void CachePolicy::evict_until_fits() {
  while (used_ > capacity_ && !heap_.empty()) {
    const BlockId j = pop_min();
    if (pinned_[j]) {
      stash_.push_back(j);  // the admitted model's own blocks are never evicted
      continue;
    }
    used_ -= library_->block(j).size_bytes;
    ++evictions_;
  }
  for (const BlockId j : stash_) push(j);
  stash_.clear();
}

void CachePolicy::push(BlockId j) {
  pos_[j] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(j);
  sift_up(heap_.size() - 1);
}

BlockId CachePolicy::pop_min() {
  const BlockId top = heap_.front();
  pos_[top] = kInvalidId;
  const BlockId last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    sift_down(0);
  }
  return top;
}

void CachePolicy::sift_up(std::size_t slot) {
  const BlockId j = heap_[slot];
  while (slot > 0) {
    const std::size_t parent = (slot - 1) / 2;
    if (!before(j, heap_[parent])) break;
    heap_[slot] = heap_[parent];
    pos_[heap_[slot]] = static_cast<std::uint32_t>(slot);
    slot = parent;
  }
  heap_[slot] = j;
  pos_[j] = static_cast<std::uint32_t>(slot);
}

void CachePolicy::sift_down(std::size_t slot) {
  const BlockId j = heap_[slot];
  const std::size_t size = heap_.size();
  for (std::size_t child = 2 * slot + 1; child < size; child = 2 * slot + 1) {
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], j)) break;
    heap_[slot] = heap_[child];
    pos_[heap_[slot]] = static_cast<std::uint32_t>(slot);
    slot = child;
  }
  heap_[slot] = j;
  pos_[j] = static_cast<std::uint32_t>(slot);
}

namespace {

/// The paper's model: the offline placement is the cache, forever.
class StaticCache final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "static"; }
  [[nodiscard]] bool reactive() const noexcept override { return false; }
  void on_request(ModelId, double) override {}
  void admit(ModelId, double) override {}

 protected:
  [[nodiscard]] double next_score(double, double) const override { return 0.0; }
};

/// Block-level least-recently-used. The clock is the request (touch) index
/// rather than simulated time so simultaneous events still order
/// deterministically; the blocks of one request tie on it and fall back to
/// id order, which is the order a model lists them in (ascending).
class LruCache final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "lru"; }

 protected:
  [[nodiscard]] double next_score(double, double) const override {
    return static_cast<double>(touches());
  }
};

/// Exponentially-weighted request rate per block (neu-spiral EWMACache).
/// Scores live in the log domain normalized to t = 0:
///   L_j = ln( sum over requests r of exp(t_r / tau) )
/// so the *ordering* of decayed rates (L_j - t/tau monotone in L_j) is
/// time-invariant and the eviction set never needs rescoring as the clock
/// advances.
class EwmaCache final : public CachePolicy {
 public:
  explicit EwmaCache(double tau_s) : tau_s_(tau_s) {
    if (tau_s <= 0) throw std::invalid_argument("ewma cache: tau_s must be > 0");
  }
  [[nodiscard]] std::string name() const override { return "ewma"; }

 protected:
  [[nodiscard]] double next_score(double now, double previous) const override {
    const double value = now / tau_s_;
    if (previous == kNeverTouched) return value;
    // log-sum-exp of the previous mass and the new request.
    const double hi = std::max(previous, value);
    const double lo = std::min(previous, value);
    return hi + std::log1p(std::exp(lo - hi));
  }

 private:
  double tau_s_;
};

/// Frequency (LFU) cache: the neu-spiral PriorityCache with cumulative
/// request count as the priority weight.
class PriorityCache final : public CachePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "priority"; }

 protected:
  [[nodiscard]] double next_score(double, double previous) const override {
    return previous == kNeverTouched ? 1.0 : previous + 1.0;
  }
};

}  // namespace

std::unique_ptr<CachePolicy> make_cache_policy(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string base = spec.substr(0, colon);
  const auto options = support::Options::parse_pairs(
      colon == std::string::npos ? "" : spec.substr(colon + 1));
  if (base == "static") {
    options.check_unknown({});
    return std::make_unique<StaticCache>();
  }
  if (base == "lru") {
    options.check_unknown({});
    return std::make_unique<LruCache>();
  }
  if (base == "ewma") {
    options.check_unknown({"tau_s"});
    return std::make_unique<EwmaCache>(options.get_double("tau_s", 60.0));
  }
  if (base == "priority") {
    options.check_unknown({});
    return std::make_unique<PriorityCache>();
  }
  std::string known;
  for (const auto& name : known_cache_policies()) {
    known += (known.empty() ? "" : ", ") + name;
  }
  throw std::invalid_argument("make_cache_policy: unknown policy '" + base +
                              "' (known: " + known + ")");
}

std::vector<std::string> known_cache_policies() {
  return {"ewma", "lru", "priority", "static"};
}

}  // namespace trimcaching::serve
