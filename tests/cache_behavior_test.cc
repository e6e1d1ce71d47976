// Targeted tests of the on-the-fly cache protocol (§5.3.4): hit/rerun
// decisions driven by covered radius, dynamic budget shrinking mid-search,
// and correctness when cached entries are consumed by routes with very
// different budgets.

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "category/taxonomy_factory.h"
#include "core/bssr_engine.h"
#include "core/modified_dijkstra.h"
#include "tests/test_util.h"

namespace skysr {
namespace {

using ::skysr::testing::MakeTinyDataset;
using ::skysr::testing::ScoreVectorsNear;
using ::skysr::testing::TinyDataset;

// A long line graph where the SAME PoI vertex is re-expanded by routes with
// different remaining budgets — exercising the cache's covered-radius
// upgrade path deterministically.
TEST(CacheBehavior, RerunsWhenBudgetExceedsCoveredRadius) {
  // Line: vq - a1 - a2 - e - g1 ... g5, PoIs: a1,a2 (tree A), e (tree E),
  // g1..g5 (tree G at increasing distances).
  CategoryForestBuilder fb;
  const CategoryId ca = fb.AddRoot("A");
  const CategoryId ca1 = fb.AddChild(ca, "A1");
  const CategoryId ce = fb.AddRoot("E");
  const CategoryId cg = fb.AddRoot("G");
  const CategoryId cg1 = fb.AddChild(cg, "G1");
  const CategoryForest forest = std::move(fb.Build()).ValueOrDie();

  // Two branches from vq converge at 'e' so that BOTH A-position routes
  // survive Lemma 5.5 (a perfect match on one branch cannot block the
  // other) and re-expand from the same vertex for the G position.
  //        0 --1.0-- 1(a1) --2.0-- 3(e) --1-- 4 --1-- 5(g1) -- ... 9(g3)
  //        0 --1.5-- 2(a2) --2.0-- 3
  GraphBuilder gb;
  for (int i = 0; i < 10; ++i) gb.AddVertex();
  gb.AddEdge(0, 1, 1.0);
  gb.AddEdge(0, 2, 1.5);
  gb.AddEdge(1, 3, 2.0);
  gb.AddEdge(2, 3, 2.0);
  for (int i = 3; i < 9; ++i) gb.AddEdge(i, i + 1, 1.0);
  gb.AddPoi(1, {ca1}, "a1");       // perfect for A1
  gb.AddPoi(2, {ca}, "a2");        // semantic for A1 (ancestor category)
  gb.AddPoi(3, {ce}, "e");
  gb.AddPoi(5, {cg1}, "g1");
  gb.AddPoi(7, {cg}, "g2");        // semantic match, farther
  gb.AddPoi(9, {cg1}, "g3");       // perfect, farthest
  const Graph graph = std::move(gb.Build()).ValueOrDie();

  BssrEngine engine(graph, forest);
  const Query q = MakeSimpleQuery(0, {ca1, ce, cg1});
  for (const bool use_cache : {true, false}) {
    QueryOptions opts;
    opts.use_cache = use_cache;
    // Lower bounds legitimately prune the second route through 'e' before
    // it expands (its completions tie the perfect route); disable them so
    // both routes expand from 'e' and the cache path is deterministic.
    opts.use_lower_bounds = false;
    auto r = engine.Run(q, opts);
    ASSERT_TRUE(r.ok());
    auto brute = BruteForceSkySr(graph, forest, q, opts);
    ASSERT_TRUE(brute.ok());
    EXPECT_TRUE(ScoreVectorsNear(r->routes, *brute))
        << "use_cache=" << use_cache;
    if (use_cache) {
      // The expansion from 'e' (position G) is requested by both routes;
      // the second must be served from cache (or rebuilt with a larger
      // radius).
      EXPECT_GE(r->stats.mdijkstra_cache_hits + r->stats.cache_reruns, 1);
    }
  }
}

// Randomized: cache hits + reruns never change results, and cache reruns
// only ever INCREASE the covered radius (checked indirectly: with cache on,
// search count <= without, while results stay equal).
class CacheEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CacheEquivalence, HitsAndRerunsPreserveExactness) {
  const uint64_t seed = 20000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed, 40, 40, 20);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<CategoryId> cats;
    std::vector<TreeId> trees;
    int guard = 0;
    while (cats.size() < 3 && ++guard < 1000) {
      const auto c = static_cast<CategoryId>(
          rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
      const TreeId t = ds.forest.TreeOf(c);
      bool dup = false;
      for (TreeId u : trees) dup = dup || u == t;
      if (!dup) {
        cats.push_back(c);
        trees.push_back(t);
      }
    }
    const Query q = MakeSimpleQuery(
        static_cast<VertexId>(
            rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices()))),
        cats);
    QueryOptions with, without;
    with.use_cache = true;
    without.use_cache = false;
    auto a = engine.Run(q, with);
    auto b = engine.Run(q, without);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(ScoreVectorsNear(a->routes, b->routes)) << "seed=" << seed;
    EXPECT_LE(a->stats.mdijkstra_runs, b->stats.mdijkstra_runs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEquivalence, ::testing::Range(0, 10));

// The expansion budget function is re-evaluated per settle and may only
// shrink; verify the search respects a budget that tightens mid-run.
TEST(ExpansionDynamics, ShrinkingBudgetStopsEarly) {
  GraphBuilder gb;
  for (int i = 0; i < 8; ++i) gb.AddVertex();
  for (int i = 0; i < 7; ++i) gb.AddEdge(i, i + 1, 1.0);
  const CategoryForest forest = MakeSyntheticForest(1, 2, 1);
  const CategoryId root = forest.RootOf(0);
  GraphBuilder gb2;
  for (int i = 0; i < 8; ++i) gb2.AddVertex();
  for (int i = 0; i < 7; ++i) gb2.AddEdge(i, i + 1, 1.0);
  for (int i = 1; i < 8; ++i) gb2.AddPoi(i, {root});
  const Graph graph = std::move(gb2.Build()).ValueOrDie();

  const WuPalmerSimilarity fn;
  const PositionMatcher matcher(graph, forest, fn,
                                CategoryPredicate::Single(root),
                                MultiCategoryMode::kMaxSimilarity);
  ExpansionScratch scratch;
  int emitted = 0;
  // Budget starts at infinity and collapses to 2.5 after the 1st candidate
  // (as if a complete route had tightened the skyline threshold).
  Weight budget = kInfWeight;
  const ExpansionOutcome outcome = RunExpansionInto(
      graph, matcher, 0, [&] { return budget; },
      /*apply_lemma55=*/false, scratch, /*out=*/nullptr,
      [&](const ExpansionCandidate&) {
        ++emitted;
        budget = 2.5;
      },
      nullptr);
  // Candidates at distance 1 and 2 fit under the tightened budget; 3+ don't.
  EXPECT_EQ(emitted, 2);
  EXPECT_FALSE(outcome.exhausted);
  EXPECT_LE(outcome.covered_radius, 3.0);
  EXPECT_GE(outcome.covered_radius, 2.5);
}

// Stress: a query whose positions all use the same ROOT category on a
// dense PoI graph — maximal candidate fan-out, deferred-Lemma-5.5 mode,
// heavy queue churn. Verified against brute force.
TEST(StressTest, DenseSameTreeFanOut) {
  TinyDataset ds = MakeTinyDataset(31337, /*n=*/18, /*extra_edges=*/14,
                                   /*num_pois=*/14, /*num_trees=*/1,
                                   /*branching=*/3, /*levels=*/1);
  BssrEngine engine(ds.graph, ds.forest);
  const CategoryId root = ds.forest.RootOf(0);
  const Query q = MakeSimpleQuery(0, {root, root, root});
  auto r = engine.Run(q);
  ASSERT_TRUE(r.ok());
  auto brute = BruteForceSkySr(ds.graph, ds.forest, q, QueryOptions());
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(r->routes, *brute));
  // All-root query: every match is perfect, so the skyline is a single
  // shortest 3-PoI route.
  EXPECT_EQ(r->routes.size(), 1u);
}

// Unreachable PoIs: a disconnected pocket holding the only perfect match.
// The skyline must fall back to reachable semantic matches only.
TEST(FailureInjection, DisconnectedPerfectMatches) {
  CategoryForestBuilder fb;
  const CategoryId food = fb.AddRoot("Food");
  const CategoryId sushi = fb.AddChild(food, "Sushi");
  const CategoryId pasta = fb.AddChild(food, "Pasta");
  const CategoryForest forest = std::move(fb.Build()).ValueOrDie();

  GraphBuilder gb;
  for (int i = 0; i < 5; ++i) gb.AddVertex();
  gb.AddEdge(0, 1, 1.0);  // reachable: vq=0, pasta at 1
  gb.AddEdge(2, 3, 1.0);  // island: sushi at 3
  gb.AddEdge(3, 4, 1.0);
  gb.AddPoi(1, {pasta}, "Pasta Place");
  gb.AddPoi(3, {sushi}, "Island Sushi");
  const Graph graph = std::move(gb.Build()).ValueOrDie();

  BssrEngine engine(graph, forest);
  auto r = engine.Run(MakeSimpleQuery(0, {sushi}));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->routes.size(), 1u);
  EXPECT_EQ(graph.PoiName(r->routes[0].pois[0]), "Pasta Place");
  EXPECT_GT(r->routes[0].scores.semantic, 0.0);
}

// No match at all: empty skyline, clean stats, no crash.
TEST(FailureInjection, NoMatchingPoiAnywhere) {
  CategoryForestBuilder fb;
  const CategoryId a = fb.AddRoot("A");
  const CategoryId b = fb.AddRoot("B");
  const CategoryForest forest = std::move(fb.Build()).ValueOrDie();
  GraphBuilder gb;
  gb.AddVertex();
  gb.AddVertex();
  gb.AddEdge(0, 1, 1.0);
  gb.AddPoi(1, {a});
  const Graph graph = std::move(gb.Build()).ValueOrDie();
  BssrEngine engine(graph, forest);
  auto r = engine.Run(MakeSimpleQuery(0, {b}));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->routes.empty());
  EXPECT_EQ(r->stats.skyline_size, 0);
}

// Destination unreachable from every last PoI: empty skyline.
TEST(FailureInjection, UnreachableDestination) {
  CategoryForestBuilder fb;
  const CategoryId a = fb.AddRoot("A");
  const CategoryForest forest = std::move(fb.Build()).ValueOrDie();
  GraphBuilder gb;
  for (int i = 0; i < 4; ++i) gb.AddVertex();
  gb.AddEdge(0, 1, 1.0);
  gb.AddEdge(2, 3, 1.0);  // destination island
  gb.AddPoi(1, {a});
  const Graph graph = std::move(gb.Build()).ValueOrDie();
  BssrEngine engine(graph, forest);
  Query q = MakeSimpleQuery(0, {a});
  q.destination = 3;
  auto r = engine.Run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->routes.empty());
}

}  // namespace
}  // namespace skysr
