#include "category/similarity.h"

namespace skysr {

double WuPalmerSimilarity::Similarity(const CategoryForest& forest,
                                      CategoryId query_cat,
                                      CategoryId poi_cat) const {
  const CategoryId lca = forest.Lca(query_cat, poi_cat);
  if (lca == kInvalidCategory) return 0.0;
  const double da = forest.Depth(lca);
  const double dc = forest.Depth(query_cat);
  return 2.0 * da / (dc + da);
}

double SymmetricWuPalmerSimilarity::Similarity(const CategoryForest& forest,
                                               CategoryId query_cat,
                                               CategoryId poi_cat) const {
  const CategoryId lca = forest.Lca(query_cat, poi_cat);
  if (lca == kInvalidCategory) return 0.0;
  const double da = forest.Depth(lca);
  return 2.0 * da /
         (static_cast<double>(forest.Depth(query_cat)) +
          static_cast<double>(forest.Depth(poi_cat)));
}

double PathLengthSimilarity::Similarity(const CategoryForest& forest,
                                        CategoryId query_cat,
                                        CategoryId poi_cat) const {
  const CategoryId lca = forest.Lca(query_cat, poi_cat);
  if (lca == kInvalidCategory) return 0.0;
  const int32_t path = (forest.Depth(query_cat) - forest.Depth(lca)) +
                       (forest.Depth(poi_cat) - forest.Depth(lca));
  return 1.0 / (1.0 + static_cast<double>(path));
}

SimilarityTable::SimilarityTable(const CategoryForest& forest,
                                 const SimilarityFunction& fn,
                                 CategoryId query_cat)
    : query_cat_(query_cat) {
  const auto n = static_cast<size_t>(forest.num_categories());
  sims_.resize(n);
  for (size_t c = 0; c < n; ++c) {
    sims_[c] = fn.Similarity(forest, query_cat, static_cast<CategoryId>(c));
  }
}

std::shared_ptr<const SimilarityFunction> DefaultSimilarity() {
  static const auto kInstance = std::make_shared<WuPalmerSimilarity>();
  return kInstance;
}

}  // namespace skysr
