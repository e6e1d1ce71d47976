// Branch-and-bound pruning policy: combines the skyline threshold
// (Definition 5.4 / Lemma 5.3) with two completion bounds (DESIGN.md §6):
// the semantic floor and the destination tail. They replace the paper's
// §5.3.3 leg bounds and Lemma 5.8, which cost more than they pruned once
// the completion bounds were in place (DESIGN.md §6 has the numbers).

#ifndef SKYSR_CORE_THRESHOLD_H_
#define SKYSR_CORE_THRESHOLD_H_

#include <cstdint>
#include <span>

#include "category/similarity.h"
#include "core/skyline_set.h"

namespace skysr {

/// Relative slack between two float sums of the same non-negative edge
/// weights taken in different orders (a route's length against a search
/// distance). A route length sums at most |V|·k terms, so the two differ
/// by a relative <= |V|·k·2⁻⁵³ — about 1.5e-11 on a 26k-vertex city at
/// k = 5 — so 1e-9 covers any |V|·k up to 2⁵³·1e-9 ≈ 9·10⁶.
inline constexpr double kSumOrderSlack = 1e-9;

/// Admissible lower bound on the rest of a destination route that ends at
/// v, from its exact tail D(v, destination). A route's length and the
/// reverse search's tail sum the same edges in different orders, so the
/// tail is shaved by kSumOrderSlack before it is compared with a route
/// length; +inf stays +inf.
inline Weight DestTailLowerBound(Weight tail) {
  return tail * (1.0 - kSumOrderSlack);
}

/// Pruning decisions against a live SkylineSet. `best_sim[m]`, when given
/// (one entry per sequence position), is the largest similarity any PoI
/// offers position m; it enables the semantic floor (SemanticFloor), an
/// empty span disables it. The span is borrowed — the caller keeps the
/// storage alive for the policy's lifetime (the engine parks it in its
/// query workspace).
///
/// Threshold lookups are memoized per skyline generation: the staircase
/// binary search reruns only when the skyline actually changed or a
/// different semantic score is probed, which removes the dominant per-settle
/// / per-candidate cost of the expansion loops. The memo is a plain
/// single-threaded mutable cache — the policy, like the engine, is
/// one-per-thread.
class ThresholdPolicy {
 public:
  ThresholdPolicy(const SkylineSet& skyline, const SemanticAggregator& agg,
                  std::span<const double> best_sim = {})
      : skyline_(&skyline), agg_(agg), best_sim_(best_sim) {}

  const SkylineSet& skyline() const { return *skyline_; }

  /// Semantic floor: no completion of a route with accumulator `acc` whose
  /// next position is m scores below this. It extends `acc` by every
  /// remaining position's best similarity, left to right — the order the
  /// route itself extends in — so, Extend, Score and IEEE rounding all
  /// being monotone, every completion's computed score is >= the floor bit
  /// for bit. Score(acc) when the floor is off or m == k.
  double SemanticFloor(double acc, int m) const {
    for (size_t j = static_cast<size_t>(m); j < best_sim_.size(); ++j) {
      acc = agg_.Extend(acc, best_sim_[j]);
    }
    return agg_.Score(acc);
  }

  /// Break budget for an expansion out of a partial route of size m with
  /// length `len` and semantic accumulator `acc` (Algorithm 2, line 8):
  /// candidates at distance >= budget cannot lead to skyline routes.
  /// +inf while the threshold at the floor is still infinite.
  Weight ExpansionBudget(double acc, Weight len, int m) const {
    return CachedThreshold(SemanticFloor(acc, m)) - len;
  }

  /// Full pruning test for a partial route of size m (1 <= m < k), Lemma
  /// 5.3 read at the semantic floor. `tail_lb` is DestTailLowerBound of the
  /// route's end vertex for a destination query, 0 otherwise; an
  /// unreachable destination (+inf tail) prunes even while the threshold is
  /// still infinite.
  bool ShouldPrunePartial(double acc, Weight len, int m,
                          Weight tail_lb = 0) const {
    return len + tail_lb >= CachedThreshold(SemanticFloor(acc, m));
  }

  /// Pruning test for a complete route's scores.
  bool ShouldPruneComplete(const RouteScores& s) const {
    return skyline_->DominatedOrEqual(s);
  }

 private:
  /// Definition 5.4 lookup through a tiny generation-stamped memo. Exact:
  /// equal (generation, semantic) inputs always yield the memoized value,
  /// and the memo is dropped the moment the skyline mutates.
  Weight CachedThreshold(double semantic) const {
    if (skyline_->generation() != memo_generation_) {
      memo_generation_ = skyline_->generation();
      memo_size_ = 0;
      memo_next_ = 0;
    }
    for (int i = 0; i < memo_size_; ++i) {
      if (memo_sem_[i] == semantic) return memo_th_[i];
    }
    const Weight th = skyline_->Threshold(semantic);
    memo_sem_[memo_next_] = semantic;
    memo_th_[memo_next_] = th;
    if (memo_size_ < kMemoSlots) ++memo_size_;
    memo_next_ = (memo_next_ + 1) % kMemoSlots;
    return th;
  }

  const SkylineSet* skyline_;
  SemanticAggregator agg_;
  std::span<const double> best_sim_;

  // Consecutive routes frequently share semantic floors (the proposed
  // queue discipline groups equal-semantic routes together), so a handful
  // of slots catches the bulk of repeats.
  static constexpr int kMemoSlots = 4;
  mutable uint64_t memo_generation_ = ~uint64_t{0};
  mutable double memo_sem_[kMemoSlots] = {};
  mutable Weight memo_th_[kMemoSlots] = {};
  mutable int memo_size_ = 0;
  mutable int memo_next_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_CORE_THRESHOLD_H_
