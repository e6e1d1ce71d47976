// Branch-and-bound pruning policy: combines the skyline threshold
// (Definition 5.4 / Lemma 5.3) with the lower bounds of §5.3.3, the
// conditional perfect-match pruning of Lemma 5.8 and two completion bounds
// (DESIGN.md §6): the semantic floor and the destination tail.

#ifndef SKYSR_CORE_THRESHOLD_H_
#define SKYSR_CORE_THRESHOLD_H_

#include <cstdint>
#include <span>

#include "category/similarity.h"
#include "core/lower_bound.h"
#include "core/skyline_set.h"

namespace skysr {

/// Admissible lower bound on the rest of a destination route that ends at
/// v, from its exact tail D(v, destination). A route's length and the
/// reverse search's tail sum the same edges in different orders, so the
/// tail is shaved by kSumOrderSlack (see lower_bound.h) before it is
/// compared with a route length; +inf stays +inf.
inline Weight DestTailLowerBound(Weight tail) {
  return tail * (1.0 - kSumOrderSlack);
}

/// Pruning decisions against a live SkylineSet. `sigma_max_suffix[m]` must
/// hold the largest non-perfect similarity over positions m..k-1 (input to
/// δ); `k` is the sequence size. `best_sim[m]`, when given (size k), is
/// the largest similarity any PoI offers position m; it enables the
/// semantic floor (SemanticFloor), an empty span disables it. The spans are
/// borrowed — the caller keeps the storage alive for the policy's lifetime
/// (the engine parks it in its query workspace).
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
                  const LowerBounds* lb /* null disables lower bounds */,
                  std::span<const double> sigma_max_suffix, int k,
                  std::span<const double> best_sim = {})
      : skyline_(&skyline),
        agg_(agg),
        lb_(lb),
        sigma_max_suffix_(sigma_max_suffix),
        best_sim_(best_sim),
        k_(k) {}

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
  Weight ExpansionBudget(double acc, Weight len, int m) const {
    const Weight th = CachedThreshold(SemanticFloor(acc, m));
    if (th == kInfWeight) return kInfWeight;
    Weight budget = th - len;
    if (lb_ != nullptr && m + 1 < k_) {
      // The candidate produces a size-(m+1) route whose completion still
      // needs at least ls_remaining[m+1] further length.
      budget -= lb_->ls_remaining[static_cast<size_t>(m) + 1];
    }
    return budget;
  }

  /// Full pruning test for a partial route of size m (1 <= m < k).
  /// `tail_lb` is DestTailLowerBound of the route's end vertex for a
  /// destination query, 0 otherwise.
  bool ShouldPrunePartial(double acc, Weight len, int m,
                          Weight tail_lb = 0) const {
    const double sem = agg_.Score(acc);
    const Weight th = CachedThreshold(SemanticFloor(acc, m));
    // The destination tail; an unreachable destination (+inf tail) prunes
    // even while the threshold is still infinite.
    if (len + tail_lb >= th) return true;
    if (th == kInfWeight) return false;

    // Lemma 5.3 with the unconditional semantic-match bound.
    Weight ls = 0;
    if (lb_ != nullptr) ls = lb_->ls_remaining[static_cast<size_t>(m)];
    if (len + ls >= th) return true;

    // Lemma 5.8: if any non-perfect future match gets the route dominated
    // (a), and an all-perfect completion is dominated too (b), prune. (b)
    // reads the floor's threshold: the floor is sem itself whenever an
    // all-perfect completion exists, and (b) is vacuous when none does.
    if (lb_ != nullptr && m < k_) {
      const double sigma = sigma_max_suffix_[static_cast<size_t>(m)];
      const double delta = agg_.MinIncrementDelta(acc, sigma);
      if (delta > 0) {
        const Weight th_bumped = CachedThreshold(sem + delta);
        const Weight lp = lb_->lp_remaining[static_cast<size_t>(m)];
        if (th_bumped != kInfWeight && th_bumped <= len && len + lp >= th) {
          return true;
        }
      }
    }
    return false;
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
  const LowerBounds* lb_;
  std::span<const double> sigma_max_suffix_;
  std::span<const double> best_sim_;
  int k_;

  // ShouldPrunePartial probes (floor, sem + delta) per route and consecutive
  // routes frequently share semantic scores (the proposed queue discipline
  // groups equal-semantic routes together), so a handful of slots catches
  // the bulk of repeats.
  static constexpr int kMemoSlots = 4;
  mutable uint64_t memo_generation_ = ~uint64_t{0};
  mutable double memo_sem_[kMemoSlots] = {};
  mutable Weight memo_th_[kMemoSlots] = {};
  mutable int memo_size_ = 0;
  mutable int memo_next_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_CORE_THRESHOLD_H_
