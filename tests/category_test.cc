// Unit and property tests for the category forest: construction, LCA vs a
// naive reference, subtree tests, taxonomy factories, text format.

#include <gtest/gtest.h>

#include <algorithm>

#include "category/category_forest.h"
#include "category/taxonomy_factory.h"
#include "category/text_format.h"
#include "util/rng.h"

namespace skysr {
namespace {

CategoryForest PaperFigure2Forest(CategoryId* food, CategoryId* asian,
                                  CategoryId* italian, CategoryId* shop,
                                  CategoryId* gift) {
  CategoryForestBuilder b;
  *food = b.AddRoot("Food");
  *asian = b.AddChild(*food, "Asian");
  b.AddChild(*asian, "Japanese");
  *italian = b.AddChild(*food, "Italian");
  b.AddChild(*food, "Bakery");
  *shop = b.AddRoot("Shop & Service");
  *gift = b.AddChild(*shop, "Gift shop");
  b.AddChild(*shop, "Hobby shop");
  return std::move(b.Build()).ValueOrDie();
}

TEST(CategoryForestTest, DepthsAndTrees) {
  CategoryId food, asian, italian, shop, gift;
  const CategoryForest f =
      PaperFigure2Forest(&food, &asian, &italian, &shop, &gift);
  EXPECT_EQ(f.num_trees(), 2);
  EXPECT_EQ(f.Depth(food), 1);
  EXPECT_EQ(f.Depth(asian), 2);
  EXPECT_EQ(f.Depth(gift), 2);
  EXPECT_EQ(f.TreeOf(asian), f.TreeOf(italian));
  EXPECT_NE(f.TreeOf(asian), f.TreeOf(gift));
  EXPECT_EQ(f.Parent(asian), food);
  EXPECT_EQ(f.Parent(food), kInvalidCategory);
}

TEST(CategoryForestTest, AncestorsAndSubtrees) {
  CategoryId food, asian, italian, shop, gift;
  const CategoryForest f =
      PaperFigure2Forest(&food, &asian, &italian, &shop, &gift);
  const auto anc = f.AncestorsOrSelf(asian);
  ASSERT_EQ(anc.size(), 2u);
  EXPECT_EQ(anc[0], asian);
  EXPECT_EQ(anc[1], food);
  EXPECT_TRUE(f.IsAncestorOrSelf(food, asian));
  EXPECT_TRUE(f.IsAncestorOrSelf(asian, asian));
  EXPECT_FALSE(f.IsAncestorOrSelf(asian, food));
  EXPECT_FALSE(f.IsAncestorOrSelf(food, gift));
}

TEST(CategoryForestTest, LcaBasics) {
  CategoryId food, asian, italian, shop, gift;
  const CategoryForest f =
      PaperFigure2Forest(&food, &asian, &italian, &shop, &gift);
  EXPECT_EQ(f.Lca(asian, italian), food);
  EXPECT_EQ(f.Lca(asian, asian), asian);
  EXPECT_EQ(f.Lca(asian, food), food);
  EXPECT_EQ(f.Lca(asian, gift), kInvalidCategory);
}

// Property: LCA index agrees with the naive walk-up reference on random
// forests.
class LcaProperty : public ::testing::TestWithParam<int> {};

TEST_P(LcaProperty, MatchesNaiveWalkUp) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  CategoryForestBuilder b;
  std::vector<CategoryId> nodes;
  const int trees = 1 + static_cast<int>(rng.UniformU64(3));
  for (int t = 0; t < trees; ++t) {
    nodes.push_back(b.AddRoot("r" + std::to_string(t)));
  }
  for (int i = 0; i < 60; ++i) {
    const CategoryId parent = nodes[rng.UniformU64(nodes.size())];
    nodes.push_back(b.AddChild(parent, "n" + std::to_string(i)));
  }
  const CategoryForest f = std::move(b.Build()).ValueOrDie();

  const auto naive_lca = [&](CategoryId a, CategoryId c) -> CategoryId {
    if (f.TreeOf(a) != f.TreeOf(c)) return kInvalidCategory;
    std::vector<CategoryId> ap = f.AncestorsOrSelf(a);
    for (CategoryId x = c; x != kInvalidCategory; x = f.Parent(x)) {
      if (std::find(ap.begin(), ap.end(), x) != ap.end()) return x;
    }
    return kInvalidCategory;
  };

  for (int rep = 0; rep < 300; ++rep) {
    const CategoryId a = nodes[rng.UniformU64(nodes.size())];
    const CategoryId c = nodes[rng.UniformU64(nodes.size())];
    EXPECT_EQ(f.Lca(a, c), naive_lca(a, c)) << "a=" << a << " c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcaProperty, ::testing::Range(0, 10));

TEST(CategoryForestTest, LeavesOfTreePreorder) {
  const CategoryForest f = MakeSyntheticForest(2, 2, 2);
  const auto leaves = f.LeavesOfTree(0);
  EXPECT_EQ(leaves.size(), 4u);  // branching 2, 2 levels
  for (CategoryId c : leaves) {
    EXPECT_TRUE(f.IsLeaf(c));
    EXPECT_EQ(f.TreeOf(c), 0);
  }
}

TEST(CategoryForestBuilderTest, EmptyForestRejected) {
  CategoryForestBuilder b;
  EXPECT_FALSE(b.Build().ok());
}

TEST(TaxonomyFactoryTest, FoursquareLikeHasTenTreesAndPaperCategories) {
  const CategoryForest f = MakeFoursquareLikeForest();
  EXPECT_EQ(f.num_trees(), 10);
  for (const char* name :
       {"Food", "Asian Restaurant", "Italian Restaurant", "Gift Shop",
        "Hobby Shop", "Cupcake Shop", "Dessert Shop", "Art Museum", "Museum",
        "Jazz Club", "Music Venue", "Beer Garden", "Sushi Restaurant",
        "Sake Bar", "Bar", "Hotel"}) {
    EXPECT_NE(f.FindByName(name), kInvalidCategory) << name;
  }
  // Figure 2 relations.
  const CategoryId food = f.FindByName("Food");
  const CategoryId asian = f.FindByName("Asian Restaurant");
  const CategoryId sushi = f.FindByName("Sushi Restaurant");
  EXPECT_TRUE(f.IsAncestorOrSelf(food, asian));
  EXPECT_TRUE(f.IsAncestorOrSelf(asian, sushi));
  const CategoryId bar = f.FindByName("Bar");
  EXPECT_TRUE(f.IsAncestorOrSelf(bar, f.FindByName("Beer Garden")));
  EXPECT_TRUE(f.IsAncestorOrSelf(bar, f.FindByName("Sake Bar")));
}

TEST(TaxonomyFactoryTest, CalLikeHas63Leaves) {
  const CategoryForest f = MakeCalLikeForest();
  EXPECT_EQ(f.num_trees(), 7);
  int64_t leaves = 0;
  for (CategoryId c = 0; c < f.num_categories(); ++c) {
    if (f.IsLeaf(c)) ++leaves;
  }
  EXPECT_EQ(leaves, 63);  // the Cal dataset's 63 categories
  EXPECT_EQ(f.num_categories(), 7 * (1 + 3 + 9));
  // Height 3: every leaf at depth 3.
  for (CategoryId c = 0; c < f.num_categories(); ++c) {
    if (f.IsLeaf(c)) {
      EXPECT_EQ(f.Depth(c), 3);
    }
  }
}

TEST(TextFormatTest, RoundTripsSyntheticForestWithStableIds) {
  // Dataset directories store graph.bin (category ids baked into PoIs) next
  // to taxonomy.txt; the text round-trip must preserve ids exactly.
  const CategoryForest f = MakeCalLikeForest();
  auto parsed = ForestFromText(ForestToText(f));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_categories(), f.num_categories());
  for (CategoryId c = 0; c < f.num_categories(); ++c) {
    EXPECT_EQ(parsed->Name(c), f.Name(c)) << c;
    EXPECT_EQ(parsed->Parent(c), f.Parent(c)) << c;
  }
}

TEST(TextFormatTest, RoundTripsFoursquareLikeForest) {
  const CategoryForest f = MakeFoursquareLikeForest();
  const std::string text = ForestToText(f);
  auto parsed = ForestFromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_categories(), f.num_categories());
  ASSERT_EQ(parsed->num_trees(), f.num_trees());
  for (CategoryId c = 0; c < f.num_categories(); ++c) {
    EXPECT_EQ(parsed->Name(c), f.Name(c));
    EXPECT_EQ(parsed->Parent(c), f.Parent(c));
    EXPECT_EQ(parsed->Depth(c), f.Depth(c));
  }
}

TEST(TextFormatTest, ParsesCommentsAndBlankLines) {
  auto f = ForestFromText("# taxonomy\nFood\n\n  Asian\n  Italian\nShops\n");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->num_trees(), 2);
  EXPECT_EQ(f->num_categories(), 4);
  EXPECT_EQ(f->Parent(f->FindByName("Asian")), f->FindByName("Food"));
}

TEST(TextFormatTest, RejectsIndentationJump) {
  EXPECT_FALSE(ForestFromText("Food\n    TooDeep\n").ok());
  EXPECT_FALSE(ForestFromText("Food\n   OddIndent\n").ok());
}

// FindByName answers one category per name, so a second category of the
// same name (anywhere in the forest) is rejected, naming both lines.
TEST(TextFormatTest, RejectsDuplicateNames) {
  const auto f = ForestFromText("Food\n  Asian\nShops\n  # gifts\n  Asian\n");
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(f.status().ToString().find("lines 2 and 5"), std::string::npos)
      << f.status().ToString();
  EXPECT_NE(f.status().ToString().find("'Asian'"), std::string::npos);
  EXPECT_FALSE(ForestFromText("Food\nFood\n").ok());
}

}  // namespace
}  // namespace skysr
