// Tests of the similarity functions (Definition 3.3 axioms, Eq. (6)
// algebra), similarity tables, and the semantic aggregators (Eq. (7)).

#include <gtest/gtest.h>

#include "category/similarity.h"
#include "category/taxonomy_factory.h"

namespace skysr {
namespace {

class SimilarityAxioms
    : public ::testing::TestWithParam<std::shared_ptr<SimilarityFunction>> {};

TEST_P(SimilarityAxioms, Definition33HoldsOnFoursquareForest) {
  const CategoryForest f = MakeFoursquareLikeForest();
  const SimilarityFunction& fn = *GetParam();
  for (CategoryId a = 0; a < f.num_categories(); ++a) {
    for (CategoryId b = 0; b < f.num_categories(); ++b) {
      const double s = fn.Similarity(f, a, b);
      if (f.TreeOf(a) != f.TreeOf(b)) {
        EXPECT_EQ(s, 0.0) << fn.name();  // irrelevant
      } else {
        EXPECT_GT(s, 0.0) << fn.name();  // semantic match
        EXPECT_LE(s, 1.0) << fn.name();
      }
      if (a == b) {
        EXPECT_EQ(s, 1.0) << fn.name();  // perfect match
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Functions, SimilarityAxioms,
    ::testing::Values(std::make_shared<WuPalmerSimilarity>(),
                      std::make_shared<SymmetricWuPalmerSimilarity>(),
                      std::make_shared<PathLengthSimilarity>()));

TEST(WuPalmerEq6Test, MatchesClosedForm) {
  // Eq. (6) reduces to 2 d(A) / (d(c) + d(A)) — check on a known chain:
  // Food(1) > Asian(2) > Japanese(3) > Sushi(4).
  const CategoryForest f = MakeFoursquareLikeForest();
  const WuPalmerSimilarity fn;
  const CategoryId food = f.FindByName("Food");
  const CategoryId asian = f.FindByName("Asian Restaurant");
  (void)f.FindByName("Japanese Restaurant");
  const CategoryId sushi = f.FindByName("Sushi Restaurant");
  const CategoryId italian = f.FindByName("Italian Restaurant");

  // Query Sushi (depth 4) vs Ramen sibling at depth 4: LCA Japanese (3).
  const CategoryId ramen = f.FindByName("Ramen Restaurant");
  EXPECT_DOUBLE_EQ(fn.Similarity(f, sushi, ramen), 2.0 * 3 / (4 + 3));
  // Query Sushi vs Italian: LCA Food (1).
  EXPECT_DOUBLE_EQ(fn.Similarity(f, sushi, italian), 2.0 * 1 / (4 + 1));
  // Query Asian vs Sushi (descendant): perfect match.
  EXPECT_DOUBLE_EQ(fn.Similarity(f, asian, sushi), 1.0);
  // Query Sushi vs Asian (ancestor): NOT perfect — 2*2/(4+2).
  EXPECT_DOUBLE_EQ(fn.Similarity(f, sushi, asian), 2.0 * 2 / (4 + 2));
  // Asymmetry is intentional.
  EXPECT_NE(fn.Similarity(f, sushi, asian), fn.Similarity(f, asian, sushi));
  EXPECT_DOUBLE_EQ(fn.Similarity(f, food, sushi), 1.0);
}

TEST(WuPalmerEq6Test, DescendantPoisArePerfectMatches) {
  // "A PoI associated with category c is associated with all ancestors of c"
  // — querying any ancestor must treat the PoI as a perfect match.
  const CategoryForest f = MakeFoursquareLikeForest();
  const WuPalmerSimilarity fn;
  for (CategoryId c = 0; c < f.num_categories(); ++c) {
    for (CategoryId anc = c; anc != kInvalidCategory; anc = f.Parent(anc)) {
      EXPECT_EQ(fn.Similarity(f, anc, c), 1.0);
    }
  }
}

TEST(SimilarityTableTest, AgreesWithDirectEvaluationEverywhere) {
  const CategoryForest f = MakeFoursquareLikeForest();
  const WuPalmerSimilarity fn;
  const CategoryId query = f.FindByName("Sushi Restaurant");
  const SimilarityTable table(f, fn, query);
  for (CategoryId c = 0; c < f.num_categories(); ++c) {
    EXPECT_DOUBLE_EQ(table.SimOf(c), fn.Similarity(f, query, c));
  }
}

TEST(AggregatorTest, ProductMatchesEq7) {
  const SemanticAggregator agg(SemanticAggregation::kProduct);
  double acc = agg.Identity();
  acc = agg.Extend(acc, 0.8);
  acc = agg.Extend(acc, 0.5);
  EXPECT_DOUBLE_EQ(agg.Score(acc), 1.0 - 0.4);
  // All perfect => semantic score 0 (paper assumption).
  EXPECT_DOUBLE_EQ(agg.Score(agg.Extend(agg.Identity(), 1.0)), 0.0);
}

TEST(AggregatorTest, ScoreMonotoneUnderExtension) {
  for (const auto mode :
       {SemanticAggregation::kProduct, SemanticAggregation::kMinSimilarity}) {
    const SemanticAggregator agg(mode);
    double acc = agg.Identity();
    double last = agg.Score(acc);
    for (double h : {1.0, 0.9, 0.7, 1.0, 0.4}) {
      acc = agg.Extend(acc, h);
      const double s = agg.Score(acc);
      EXPECT_GE(s, last);  // Lemma 5.2: extension never improves semantics
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
      last = s;
    }
  }
}

TEST(AggregatorTest, MinSimilarityMode) {
  const SemanticAggregator agg(SemanticAggregation::kMinSimilarity);
  double acc = agg.Identity();
  acc = agg.Extend(acc, 0.8);
  acc = agg.Extend(acc, 0.95);
  EXPECT_DOUBLE_EQ(agg.Score(acc), 1.0 - 0.8);
}

TEST(DefaultSimilarityTest, IsEq6WuPalmer) {
  EXPECT_EQ(DefaultSimilarity()->name(), "wu-palmer-eq6");
}

}  // namespace
}  // namespace skysr
