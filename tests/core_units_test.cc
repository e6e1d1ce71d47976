// Unit tests for core building blocks: PositionMatcher (predicates,
// multi-category modes), query validation, ThresholdPolicy, NNinit,
// lower bounds, the expansion search and the on-the-fly cache.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cache/shared_query_cache.h"
#include "category/taxonomy_factory.h"
#include "core/lower_bound.h"
#include "core/mdijkstra_cache.h"
#include "core/modified_dijkstra.h"
#include "core/nn_init.h"
#include "core/query.h"
#include "core/route.h"
#include "core/skyline_set.h"
#include "core/threshold.h"
#include "graph/graph_builder.h"
#include "index/ch_oracle.h"
#include "retrieval/bucket_retriever.h"
#include "retrieval/category_buckets.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/stamped_span_table.h"

namespace skysr {
namespace {

// A line graph 0-1-2-3-4 with PoIs at 1 (Sushi), 2 (Italian), 3 (Asian),
// 4 (Gift Shop): handy for matcher and expansion unit tests.
struct LineFixture {
  Graph graph;
  CategoryForest forest;
  CategoryId sushi, italian, asian, gift, food, japanese;

  LineFixture() {
    forest = MakeFoursquareLikeForest();
    sushi = forest.FindByName("Sushi Restaurant");
    italian = forest.FindByName("Italian Restaurant");
    asian = forest.FindByName("Asian Restaurant");
    gift = forest.FindByName("Gift Shop");
    food = forest.FindByName("Food");
    japanese = forest.FindByName("Japanese Restaurant");
    GraphBuilder b;
    for (int i = 0; i < 5; ++i) b.AddVertex();
    for (int i = 0; i < 4; ++i) b.AddEdge(i, i + 1, 1.0);
    b.AddPoi(1, {sushi}, "Sushi One");
    b.AddPoi(2, {italian}, "Trattoria");
    b.AddPoi(3, {asian}, "Pan-Asia");
    b.AddPoi(4, {gift}, "Gifts!");
    graph = std::move(b.Build()).ValueOrDie();
  }
};

TEST(PositionMatcherTest, SingleCategorySimilarity) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  const PositionMatcher m(fx.graph, fx.forest, fn,
                          CategoryPredicate::Single(fx.japanese),
                          MultiCategoryMode::kMaxSimilarity);
  // Sushi is a descendant of Japanese: perfect.
  EXPECT_EQ(m.SimOfPoi(fx.graph.PoiAtVertex(1)), 1.0);
  EXPECT_TRUE(m.IsPerfect(fx.graph.PoiAtVertex(1)));
  // Italian is in the Food tree: semantic but not perfect.
  const double italian_sim = m.SimOfPoi(fx.graph.PoiAtVertex(2));
  EXPECT_GT(italian_sim, 0.0);
  EXPECT_LT(italian_sim, 1.0);
  // Gift Shop is in another tree: no match.
  EXPECT_EQ(m.SimOfPoi(fx.graph.PoiAtVertex(4)), 0.0);
  EXPECT_EQ(m.SimOfVertex(0), 0.0);  // plain road vertex
  EXPECT_EQ(m.trees().size(), 1u);
}

TEST(PositionMatcherTest, DisjunctionTakesBestAlternative) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  CategoryPredicate pred;
  pred.any_of = {fx.japanese, fx.gift};
  const PositionMatcher m(fx.graph, fx.forest, fn, pred,
                          MultiCategoryMode::kMaxSimilarity);
  EXPECT_EQ(m.SimOfPoi(fx.graph.PoiAtVertex(1)), 1.0);  // via Japanese
  EXPECT_EQ(m.SimOfPoi(fx.graph.PoiAtVertex(4)), 1.0);  // via Gift Shop
  EXPECT_EQ(m.trees().size(), 2u);
}

TEST(PositionMatcherTest, NegationExcludesSubtrees) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  CategoryPredicate pred;
  pred.any_of = {fx.food};
  pred.none_of = {fx.japanese};
  const PositionMatcher m(fx.graph, fx.forest, fn, pred,
                          MultiCategoryMode::kMaxSimilarity);
  EXPECT_EQ(m.SimOfPoi(fx.graph.PoiAtVertex(1)), 0.0);  // Sushi banned
  EXPECT_EQ(m.SimOfPoi(fx.graph.PoiAtVertex(2)), 1.0);  // Italian fine
}

TEST(PositionMatcherTest, ConjunctionNeedsEveryCategory) {
  // Multi-category PoI holding {Sushi, Gift}.
  const CategoryForest forest = MakeFoursquareLikeForest();
  const CategoryId sushi = forest.FindByName("Sushi Restaurant");
  const CategoryId gift = forest.FindByName("Gift Shop");
  const CategoryId food = forest.FindByName("Food");
  const CategoryId shop = forest.FindByName("Shop & Service");
  GraphBuilder b;
  b.AddVertex();
  b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  b.AddPoi(1, {sushi, gift});
  const Graph g = std::move(b.Build()).ValueOrDie();
  const WuPalmerSimilarity fn;

  CategoryPredicate both;
  both.any_of = {food};
  both.all_of = {food, shop};
  const PositionMatcher m_both(g, forest, fn, both,
                               MultiCategoryMode::kMaxSimilarity);
  EXPECT_EQ(m_both.SimOfPoi(0), 1.0);

  CategoryPredicate impossible;
  impossible.any_of = {food};
  impossible.all_of = {forest.FindByName("Event")};
  const PositionMatcher m_imp(g, forest, fn, impossible,
                              MultiCategoryMode::kMaxSimilarity);
  EXPECT_EQ(m_imp.SimOfPoi(0), 0.0);
}

TEST(PositionMatcherTest, AverageModeAveragesOverPoiCategories) {
  const CategoryForest forest = MakeFoursquareLikeForest();
  const CategoryId sushi = forest.FindByName("Sushi Restaurant");
  const CategoryId gift = forest.FindByName("Gift Shop");
  GraphBuilder b;
  b.AddVertex();
  b.AddPoi(0, {sushi, gift});
  const Graph g = std::move(b.Build()).ValueOrDie();
  const WuPalmerSimilarity fn;
  const auto pred = CategoryPredicate::Single(sushi);
  const PositionMatcher max_m(g, forest, fn, pred,
                              MultiCategoryMode::kMaxSimilarity);
  const PositionMatcher avg_m(g, forest, fn, pred,
                              MultiCategoryMode::kAverageSimilarity);
  EXPECT_EQ(max_m.SimOfPoi(0), 1.0);
  EXPECT_DOUBLE_EQ(avg_m.SimOfPoi(0), 0.5);  // (1 + 0) / 2
  EXPECT_EQ(avg_m.max_non_perfect_sim(), 1.0);  // conservative δ = 0
}

TEST(ValidateQueryTest, CatchesBadInputs) {
  const LineFixture fx;
  Query q = MakeSimpleQuery(0, {fx.sushi});
  EXPECT_TRUE(ValidateQuery(fx.graph, fx.forest, q).ok());
  q.start = 99;
  EXPECT_FALSE(ValidateQuery(fx.graph, fx.forest, q).ok());
  q.start = 0;
  q.sequence.clear();
  EXPECT_FALSE(ValidateQuery(fx.graph, fx.forest, q).ok());
  q = MakeSimpleQuery(0, {fx.sushi});
  q.destination = -3;
  EXPECT_FALSE(ValidateQuery(fx.graph, fx.forest, q).ok());
  q = MakeSimpleQuery(0, {static_cast<CategoryId>(10000)});
  EXPECT_FALSE(ValidateQuery(fx.graph, fx.forest, q).ok());
  q = MakeSimpleQuery(0, {fx.sushi});
  q.sequence[0].any_of.clear();
  EXPECT_FALSE(ValidateQuery(fx.graph, fx.forest, q).ok());
}

TEST(ExpansionTest, EmitsSemanticMatchesInDistanceOrder) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  const PositionMatcher m(fx.graph, fx.forest, fn,
                          CategoryPredicate::Single(fx.japanese),
                          MultiCategoryMode::kMaxSimilarity);
  ExpansionScratch scratch;
  std::vector<ExpansionCandidate> seen;
  const ExpansionOutcome outcome = RunExpansionInto(
      fx.graph, m, /*source=*/0, [] { return kInfWeight; },
      /*apply_lemma55=*/false, scratch, &seen,
      [](const ExpansionCandidate&) {}, nullptr);
  ASSERT_EQ(seen.size(), 3u);  // Sushi, Italian, Asian all in Food tree
  EXPECT_EQ(seen[0].vertex, 1);
  EXPECT_EQ(seen[0].sim, 1.0);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i].dist, seen[i - 1].dist);
  }
  EXPECT_TRUE(outcome.exhausted);
}

TEST(ExpansionTest, Lemma55StopsAtPerfectMatchAndFiltersBlocked) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  const PositionMatcher m(fx.graph, fx.forest, fn,
                          CategoryPredicate::Single(fx.japanese),
                          MultiCategoryMode::kMaxSimilarity);
  ExpansionScratch scratch;
  std::vector<ExpansionCandidate> seen;
  RunExpansionInto(
      fx.graph, m, /*source=*/0, [] { return kInfWeight; },
      /*apply_lemma55=*/true, scratch, &seen,
      [](const ExpansionCandidate&) {}, nullptr);
  // The perfect Sushi at vertex 1 blocks everything beyond it (Lemma 5.5ii).
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].vertex, 1);
}

TEST(ExpansionTest, BudgetTerminatesSearch) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  const PositionMatcher m(fx.graph, fx.forest, fn,
                          CategoryPredicate::Single(fx.japanese),
                          MultiCategoryMode::kMaxSimilarity);
  ExpansionScratch scratch;
  std::vector<ExpansionCandidate> seen;
  const ExpansionOutcome outcome = RunExpansionInto(
      fx.graph, m, /*source=*/0, [] { return 1.5; },
      /*apply_lemma55=*/false, scratch, &seen,
      [](const ExpansionCandidate&) {}, nullptr);
  ASSERT_EQ(seen.size(), 1u);  // only vertex 1 at distance 1 < 1.5
  EXPECT_FALSE(outcome.exhausted);
  EXPECT_LE(outcome.covered_radius, 2.0);
  EXPECT_GE(outcome.covered_radius, 1.5);
}

TEST(CacheTest, CommitFindReplaceAndClear) {
  MdijkstraCache cache;
  EXPECT_EQ(cache.Find(3, 1), nullptr);
  cache.pool().push_back(ExpansionCandidate{7, 1.0, 0.5});
  cache.Commit(3, 1, /*pool_offset=*/0, ExpansionOutcome{5, false});
  const MdijkstraCache::Entry* hit = cache.Find(3, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->meta.covered_radius, 5);
  ASSERT_EQ(cache.CandidatesOf(*hit).size(), 1u);
  EXPECT_EQ(cache.CandidatesOf(*hit)[0].vertex, 7);
  EXPECT_EQ(cache.Find(3, 2), nullptr);
  EXPECT_EQ(cache.Find(4, 1), nullptr);
  cache.Commit(3, 1, cache.pool().size(), ExpansionOutcome{9, true});
  EXPECT_EQ(cache.Find(3, 1)->meta.covered_radius, 9);
  EXPECT_TRUE(cache.CandidatesOf(*cache.Find(3, 1)).empty());
  EXPECT_EQ(cache.replacements(), 1);
  cache.Clear();
  EXPECT_EQ(cache.Find(3, 1), nullptr);
}

TEST(NnInitTest, FindsPerfectChainAndSemanticVariants) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  std::vector<PositionMatcher> matchers;
  matchers.emplace_back(fx.graph, fx.forest, fn,
                        CategoryPredicate::Single(fx.asian),
                        MultiCategoryMode::kMaxSimilarity);
  matchers.emplace_back(fx.graph, fx.forest, fn,
                        CategoryPredicate::Single(fx.gift),
                        MultiCategoryMode::kMaxSimilarity);
  const SemanticAggregator agg;
  DijkstraWorkspace ws;
  SkylineSet skyline;
  SearchStats stats;
  RunNnInit(fx.graph, matchers, /*start=*/0, agg, nullptr, ws, &skyline,
            &stats);
  // Asian position: nearest perfect match is Sushi@1 (descendant).
  // Gift position from vertex 1: Gifts!@4 — one perfect route.
  ASSERT_GE(skyline.size(), 1);
  EXPECT_EQ(skyline.Threshold(0.0), 1.0 + 3.0);
  EXPECT_GT(stats.nninit_routes, 0);
  EXPECT_EQ(stats.nninit_perfect_length, 4.0);
}

TEST(LowerBoundTest, LegBoundsAreValidMinima) {
  const LineFixture fx;
  const WuPalmerSimilarity fn;
  std::vector<PositionMatcher> matchers;
  matchers.emplace_back(fx.graph, fx.forest, fn,
                        CategoryPredicate::Single(fx.asian),
                        MultiCategoryMode::kMaxSimilarity);
  matchers.emplace_back(fx.graph, fx.forest, fn,
                        CategoryPredicate::Single(fx.gift),
                        MultiCategoryMode::kMaxSimilarity);
  SearchStats stats;
  const LowerBounds lb =
      ComputeLowerBounds(fx.graph, matchers, 0, kInfWeight, &stats);
  ASSERT_EQ(lb.ls_leg.size(), 1u);
  // Nearest Food-tree PoI to the Gift PoI is Asian@3 -> distance 1.
  EXPECT_DOUBLE_EQ(lb.ls_leg[0], 1.0);
  EXPECT_DOUBLE_EQ(lb.lp_leg[0], 1.0);
  ASSERT_EQ(lb.ls_remaining.size(), 3u);
  EXPECT_DOUBLE_EQ(lb.ls_remaining[1], 1.0);
  EXPECT_DOUBLE_EQ(lb.ls_remaining[2], 0.0);
}

// A finite ball: the legs gather their sources and targets from the ball's
// own PoIs, so a matching PoI just outside it seeds no leg, and the classic
// and bucket-table variants agree on every leg, whether the tables serve
// the leg (`force`) or it falls back to the ball-restricted search.
TEST(LowerBoundTest, FiniteBallExcludesPoisJustOutside) {
  const LineFixture fx;  // for the forest and category ids
  // 0 -1- 1 (Asian A) -2.5- 2 (Gift G) -0.6- 3 (Asian B): with l̄(∅) = 4
  // the ball holds 0..2, and B at distance 4.1 lies just outside it.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 2.5);
  b.AddEdge(2, 3, 0.6);
  b.AddPoi(1, {fx.asian}, "A");
  b.AddPoi(2, {fx.gift}, "G");
  b.AddPoi(3, {fx.asian}, "B");
  const Graph g = std::move(b.Build()).ValueOrDie();
  const WuPalmerSimilarity fn;
  std::vector<PositionMatcher> matchers;
  for (const CategoryId c : {fx.asian, fx.gift, fx.asian}) {
    matchers.emplace_back(g, fx.forest, fn, CategoryPredicate::Single(c),
                          MultiCategoryMode::kMaxSimilarity);
  }

  // Without a ball, B seeds leg 0 and is leg 1's nearest target: 0.6.
  const LowerBounds open = ComputeLowerBounds(g, matchers, 0, kInfWeight,
                                              nullptr);
  ASSERT_EQ(open.ls_leg.size(), 2u);
  EXPECT_DOUBLE_EQ(open.ls_leg[0], 0.6);
  EXPECT_DOUBLE_EQ(open.ls_leg[1], 0.6);

  // Inside the ball only A -> G and G -> A remain: 2.5 on both legs.
  const Weight radius = 4.0;
  const LowerBounds classic =
      ComputeLowerBounds(g, matchers, 0, radius, nullptr);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(classic.ls_leg[i], 2.5) << "leg " << i;
    EXPECT_DOUBLE_EQ(classic.lp_leg[i], 2.5) << "leg " << i;
  }

  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);
  for (const bool force : {false, true}) {
    OracleWorkspace ows;
    BucketScanState scan;
    SharedQueryCache shared;
    const BucketDistances dist{BucketRetriever(buckets), &ows, &scan,
                               &shared, force};
    SearchStats stats;
    const LowerBounds tables = ComputeLowerBoundsWithBuckets(
        g, matchers, 0, radius, dist, &stats);
    EXPECT_EQ(tables.ls_leg, classic.ls_leg) << "force=" << force;
    EXPECT_EQ(tables.lp_leg, classic.lp_leg) << "force=" << force;
    // Only `force` hands the legs to the tables' forward searches.
    EXPECT_EQ(stats.bucket_fwd_searches > 0, force);
  }
}

TEST(ThresholdPolicyTest, PruningLogic) {
  SkylineSet skyline;
  skyline.Update({10.0, 0.0}, {1});  // perfect route of length 10
  skyline.Update({4.0, 0.5}, {2});
  const SemanticAggregator agg;
  LowerBounds lb;
  lb.ls_remaining = {2.0, 2.0, 0.0};
  lb.lp_remaining = {3.0, 3.0, 0.0};
  lb.ls_leg = {2.0};
  lb.lp_leg = {3.0};
  const std::vector<double> sigma = {0.8, 0.8, 0.0};
  const ThresholdPolicy policy(skyline, agg, &lb, sigma, 2);

  // Size-1 partial with semantic 0 (acc=1): threshold is 10.
  EXPECT_FALSE(policy.ShouldPrunePartial(1.0, 7.9, 1));  // 7.9+2 < 10
  EXPECT_TRUE(policy.ShouldPrunePartial(1.0, 8.0, 1));   // 8+2 >= 10
  // Lemma 5.8: with acc=1, delta = 1-0.8 = 0.2 => bumped threshold uses
  // semantic 0.2 -> Th = 10... entry (4,0.5) needs sem >= 0.5.
  // With acc such that sem=0.5: Th(0.5)=4.
  EXPECT_TRUE(policy.ShouldPrunePartial(0.5, 4.0, 1));  // plain: 4+2 >= 4
  // Complete-route pruning is plain dominance.
  EXPECT_TRUE(policy.ShouldPruneComplete({11.0, 0.0}));
  EXPECT_FALSE(policy.ShouldPruneComplete({9.0, 0.0}));
  // Budget: Th(0)=10, len=3, next leg m+1=2 -> remaining 0.
  EXPECT_DOUBLE_EQ(policy.ExpansionBudget(1.0, 3.0, 1), 7.0);
  // For m=0 -> candidate size 1, remaining ls_remaining[1]=2.
  EXPECT_DOUBLE_EQ(policy.ExpansionBudget(1.0, 0.0, 0), 8.0);
}

// The flat stamped-span cache must behave exactly like a plain map from
// (source, position) to the last committed list — randomized operation
// sequences against a reference model.
TEST(CacheTest, FlatTableMatchesMapReferenceModel) {
  struct RefEntry {
    std::vector<ExpansionCandidate> candidates;
    Weight covered_radius;
    bool exhausted;
  };
  Rng rng(4242);
  MdijkstraCache cache;
  std::map<std::pair<VertexId, int>, RefEntry> ref;
  for (int round = 0; round < 5; ++round) {
    for (int op = 0; op < 400; ++op) {
      const auto src = static_cast<VertexId>(rng.UniformU64(64));
      const int pos = static_cast<int>(rng.UniformU64(5));
      if (rng.UniformU64(3) == 0) {
        // Lookup: both must agree on presence and contents.
        const MdijkstraCache::Entry* hit = cache.Find(src, pos);
        const auto it = ref.find({src, pos});
        ASSERT_EQ(hit != nullptr, it != ref.end());
        if (hit != nullptr) {
          EXPECT_EQ(hit->meta.covered_radius, it->second.covered_radius);
          EXPECT_EQ(hit->meta.exhausted, it->second.exhausted);
          const auto got = cache.CandidatesOf(*hit);
          ASSERT_EQ(got.size(), it->second.candidates.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].vertex, it->second.candidates[i].vertex);
            EXPECT_EQ(got[i].dist, it->second.candidates[i].dist);
          }
        }
      } else {
        // Commit through the pool-append protocol.
        const size_t offset = cache.pool().size();
        RefEntry entry;
        entry.covered_radius = static_cast<Weight>(rng.UniformU64(100));
        entry.exhausted = rng.UniformU64(4) == 0;
        const int n = static_cast<int>(rng.UniformU64(6));
        for (int i = 0; i < n; ++i) {
          const ExpansionCandidate cand{
              static_cast<VertexId>(rng.UniformU64(1000)),
              static_cast<Weight>(i), 0.5};
          cache.pool().push_back(cand);
          entry.candidates.push_back(cand);
        }
        cache.Commit(src, pos, offset,
                     ExpansionOutcome{entry.covered_radius, entry.exhausted});
        ref[{src, pos}] = std::move(entry);
      }
    }
    EXPECT_EQ(cache.size(), static_cast<int64_t>(ref.size()));
    cache.Clear();
    ref.clear();
    EXPECT_EQ(cache.Find(0, 0), nullptr);
  }
}

TEST(SkylineGenerationTest, AdvancesExactlyOnContentChanges) {
  SkylineSet s;
  const uint64_t g0 = s.generation();
  s.Clear();  // empty: no content change
  EXPECT_EQ(s.generation(), g0);

  ASSERT_TRUE(s.Update({10.0, 0.5}, {1}));  // insert
  const uint64_t g1 = s.generation();
  EXPECT_GT(g1, g0);

  EXPECT_FALSE(s.Update({10.0, 0.5}, {2}));  // equivalent: rejected
  EXPECT_FALSE(s.Update({12.0, 0.6}, {3}));  // dominated: rejected
  EXPECT_EQ(s.generation(), g1);

  ASSERT_TRUE(s.Update({5.0, 0.9}, {4}));  // insert, no eviction
  const uint64_t g2 = s.generation();
  EXPECT_GT(g2, g1);

  // Dominates both: evicts and inserts — generation moves.
  ASSERT_TRUE(s.Update({4.0, 0.4}, {5}));
  const uint64_t g3 = s.generation();
  EXPECT_GT(g3, g2);
  EXPECT_EQ(s.size(), 1);

  const std::vector<Route> taken = s.TakeRoutes();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_GT(s.generation(), g3);  // contents changed (emptied)
  EXPECT_TRUE(s.empty());

  s.Clear();  // already empty again: no bump
  const uint64_t g4 = s.generation();
  s.Update({1.0, 0.1}, {6});
  s.Clear();  // non-empty clear: bump
  EXPECT_GT(s.generation(), g4 + 1 - 1);
}

TEST(SkylineGenerationTest, TakeRoutesMovesWithoutCopy) {
  SkylineSet s;
  s.Update({3.0, 0.2}, {7, 8, 9});
  const PoiId* data_before = s.routes()[0].pois.data();
  const std::vector<Route> taken = s.TakeRoutes();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].pois.data(), data_before);  // moved, not deep-copied
  EXPECT_TRUE(s.empty());
}

TEST(RouteArenaTest, ContainsWithSignatureCollisions) {
  RouteArena arena;
  // PoIs 3 and 67 collide in the 64-bit signature (67 % 64 == 3).
  const int32_t a = arena.Add(RouteArena::kEmpty, 3, 0, 1.0, 1.0);
  const int32_t b = arena.Add(a, 67, 1, 2.0, 1.0);
  EXPECT_TRUE(arena.Contains(b, 3));
  EXPECT_TRUE(arena.Contains(b, 67));
  EXPECT_FALSE(arena.Contains(b, 131));  // collides with both, not present
  EXPECT_FALSE(arena.Contains(b, 5));
  EXPECT_FALSE(arena.Contains(RouteArena::kEmpty, 3));
  std::vector<PoiId> buf;
  arena.MaterializeInto(b, &buf);
  EXPECT_EQ(buf, (std::vector<PoiId>{3, 67}));
}

TEST(StampedSpanTableTest, CommitFindAndStampedClear) {
  StampedSpanTable<SettleRecord, ExpansionOutcome> table;
  EXPECT_EQ(table.Find(7), nullptr);
  const size_t off = table.pool().size();
  table.pool().push_back(SettleRecord{7, 0.0});
  table.pool().push_back(SettleRecord{9, 2.5});
  table.Commit(7, off, ExpansionOutcome{2.5, false});
  const auto* e = table.Find(7);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->meta.covered_radius, 2.5);
  EXPECT_FALSE(e->meta.exhausted);
  ASSERT_EQ(table.SpanOf(*e).size(), 2u);
  EXPECT_EQ(table.SpanOf(*e)[1].vertex, 9);
  table.Clear();
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_EQ(table.size(), 0);
}

TEST(ThresholdPolicyTest, CompletionBounds) {
  SkylineSet skyline;
  skyline.Update({4.0, 0.5}, {2});  // no perfect route: Th(s) = inf below 0.5
  const SemanticAggregator agg;
  const std::vector<double> sigma = {0.0, 0.0, 0.0};
  const std::vector<double> best_sim = {1.0, 0.5};  // position 1 tops at 0.5
  const ThresholdPolicy plain(skyline, agg, nullptr, sigma, 2);
  const ThresholdPolicy floored(skyline, agg, nullptr, sigma, 2, best_sim);

  // Semantic floor: acc 1 extended by 1.0 then 0.5 scores 0.5.
  EXPECT_EQ(plain.SemanticFloor(1.0, 0), 0.0);
  EXPECT_EQ(floored.SemanticFloor(1.0, 0), 0.5);
  EXPECT_EQ(floored.SemanticFloor(1.0, 2), 0.0);  // complete: Score(acc)
  // The threshold is read at the floor (4) instead of at score 0 (inf).
  EXPECT_FALSE(plain.ShouldPrunePartial(1.0, 5.0, 1));
  EXPECT_TRUE(floored.ShouldPrunePartial(1.0, 5.0, 1));
  EXPECT_FALSE(floored.ShouldPrunePartial(1.0, 3.0, 1));
  EXPECT_EQ(plain.ExpansionBudget(1.0, 1.0, 0), kInfWeight);
  EXPECT_EQ(floored.ExpansionBudget(1.0, 1.0, 0), 3.0);

  // Destination tail: shaved, prunes at the floor threshold, and an
  // unreachable destination prunes even at an infinite threshold.
  EXPECT_LT(DestTailLowerBound(2.0), 2.0);
  EXPECT_GT(DestTailLowerBound(2.0), 2.0 * (1 - 1e-8));
  EXPECT_EQ(DestTailLowerBound(kInfWeight), kInfWeight);
  EXPECT_TRUE(
      floored.ShouldPrunePartial(1.0, 2.0, 1, DestTailLowerBound(2.5)));
  EXPECT_FALSE(
      floored.ShouldPrunePartial(1.0, 2.0, 1, DestTailLowerBound(1.5)));
  EXPECT_TRUE(plain.ShouldPrunePartial(1.0, 0.0, 1, kInfWeight));
}

TEST(ThresholdPolicyTest, EmptySkylineNeverPrunes) {
  SkylineSet skyline;
  const SemanticAggregator agg;
  const std::vector<double> sigma = {0.0, 0.0};
  const ThresholdPolicy policy(skyline, agg, nullptr, sigma, 1);
  EXPECT_FALSE(policy.ShouldPrunePartial(1.0, 1e12, 1));
  EXPECT_EQ(policy.ExpansionBudget(1.0, 0.0, 0), kInfWeight);
}

}  // namespace
}  // namespace skysr
