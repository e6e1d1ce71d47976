// Category similarity (Definition 3.3 / Eq. (6)) and semantic-score
// aggregation (Eq. (7)).
//
// The paper's Eq. (6) maximizes a Wu–Palmer-style score over the ancestors of
// the PoI category; it simplifies algebraically (see DESIGN.md) to
//
//     sim(c, c') = 2·d(A) / (d(c) + d(A)),   A = LCA(c, c'),
//
// where c is the QUERY category — the function is intentionally asymmetric,
// and any c' in subtree(c) is a perfect match (a Sushi Restaurant *is* a
// Japanese Restaurant). Similarities must obey the Definition 3.3 axioms:
//   * different trees            -> sim = 0
//   * same tree                  -> 0 < sim <= 1
//   * c' == c (or subsumed by c) -> sim = 1 for the Eq. (6) family
// BSSR is exact for any similarity obeying the axioms; the super-sequence
// naive baseline is additionally exact only for LCA-determined similarities
// like Eq. (6) (again, see DESIGN.md).

#ifndef SKYSR_CATEGORY_SIMILARITY_H_
#define SKYSR_CATEGORY_SIMILARITY_H_

#include <memory>
#include <string>
#include <vector>

#include "category/category_forest.h"
#include "graph/types.h"

namespace skysr {

/// Pluggable category similarity.
class SimilarityFunction {
 public:
  virtual ~SimilarityFunction() = default;
  /// Similarity of PoI category `poi_cat` to query category `query_cat`,
  /// in [0, 1]; 0 when the categories live in different trees.
  virtual double Similarity(const CategoryForest& forest, CategoryId query_cat,
                            CategoryId poi_cat) const = 0;
  virtual std::string name() const = 0;
};

/// Eq. (6): 2·d(LCA) / (d(query) + d(LCA)); the paper's default.
class WuPalmerSimilarity final : public SimilarityFunction {
 public:
  double Similarity(const CategoryForest& forest, CategoryId query_cat,
                    CategoryId poi_cat) const override;
  std::string name() const override { return "wu-palmer-eq6"; }
};

/// Classic symmetric Wu–Palmer: 2·d(LCA) / (d(c) + d(c')).
class SymmetricWuPalmerSimilarity final : public SimilarityFunction {
 public:
  double Similarity(const CategoryForest& forest, CategoryId query_cat,
                    CategoryId poi_cat) const override;
  std::string name() const override { return "wu-palmer-symmetric"; }
};

/// Path-length similarity: 1 / (1 + edges on the tree path c..c').
class PathLengthSimilarity final : public SimilarityFunction {
 public:
  double Similarity(const CategoryForest& forest, CategoryId query_cat,
                    CategoryId poi_cat) const override;
  std::string name() const override { return "path-length"; }
};

/// Semantic-score aggregation over per-position similarities h_1..h_k.
/// Partial routes carry an accumulator; the score of a (possibly partial)
/// route is Score(acc), the optimistic value assuming all remaining
/// similarities are 1 — exactly the paper's "possible minimum semantic
/// score". Both choices satisfy: Extend is monotone non-increasing in the
/// accumulator, Score is non-increasing in acc, acc=Identity => score 0.
enum class SemanticAggregation {
  /// Eq. (7): s = 1 - Π h_i (the paper's default).
  kProduct,
  /// s = 1 - min_i h_i (worst deviation only).
  kMinSimilarity,
};

/// Stateless helper implementing the aggregation algebra.
class SemanticAggregator {
 public:
  explicit SemanticAggregator(
      SemanticAggregation mode = SemanticAggregation::kProduct)
      : mode_(mode) {}

  SemanticAggregation mode() const { return mode_; }

  /// Accumulator of the empty route.
  double Identity() const { return 1.0; }

  /// Accumulator after appending a position with similarity `h`.
  double Extend(double acc, double h) const {
    return mode_ == SemanticAggregation::kProduct ? acc * h
                                                  : (h < acc ? h : acc);
  }

  /// Semantic score of a route with accumulator `acc`.
  double Score(double acc) const { return 1.0 - acc; }

 private:
  SemanticAggregation mode_;
};

/// Per-query-position dense similarity table: sim(query_cat, c') for every
/// category c' in the forest, so PoI checks during graph traversal are O(#
/// categories of the PoI).
class SimilarityTable {
 public:
  SimilarityTable(const CategoryForest& forest, const SimilarityFunction& fn,
                  CategoryId query_cat);

  double SimOf(CategoryId poi_cat) const {
    return sims_[static_cast<size_t>(poi_cat)];
  }
  CategoryId query_category() const { return query_cat_; }

 private:
  CategoryId query_cat_;
  std::vector<double> sims_;
};

/// Returns the library default similarity (Eq. (6) Wu–Palmer).
std::shared_ptr<const SimilarityFunction> DefaultSimilarity();

}  // namespace skysr

#endif  // SKYSR_CATEGORY_SIMILARITY_H_
