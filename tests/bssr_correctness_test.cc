// Ground-truth correctness of BSSR: against brute force on random tiny
// datasets, across every optimization-toggle combination, and on handcrafted
// instances mirroring the paper's running example (§5.5).

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "category/taxonomy_factory.h"
#include "core/bssr_engine.h"
#include "graph/graph_builder.h"
#include "obs/explain.h"
#include "obs/query_trace.h"
#include "tests/test_util.h"

namespace skysr {
namespace {

using ::skysr::testing::MakeTinyDataset;
using ::skysr::testing::ScoreVector;
using ::skysr::testing::ScoreVectorsNear;
using ::skysr::testing::TinyDataset;

// Builds a random simple query whose categories come from distinct trees.
Query RandomDistinctTreeQuery(const TinyDataset& ds, Rng& rng, int k) {
  std::vector<CategoryId> cats;
  std::vector<TreeId> trees;
  int guard = 0;
  while (static_cast<int>(cats.size()) < k) {
    if (++guard > 10000) break;
    // Any category (not only leaves) can be queried.
    const auto c = static_cast<CategoryId>(
        rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
    const TreeId t = ds.forest.TreeOf(c);
    bool dup = false;
    for (TreeId u : trees) dup = dup || u == t;
    if (dup) continue;
    cats.push_back(c);
    trees.push_back(t);
  }
  const auto start = static_cast<VertexId>(
      rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices())));
  return MakeSimpleQuery(start, cats);
}

class BssrVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BssrVsBruteForce, MatchesBruteForceOnRandomInstances) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed);
  Rng rng(seed * 31 + 7);
  BssrEngine engine(ds.graph, ds.forest);

  for (int k = 1; k <= 3; ++k) {
    Query q = RandomDistinctTreeQuery(ds, rng, k);
    if (q.size() != k) continue;  // tree pool exhausted
    QueryOptions opts;
    auto bssr = engine.Run(q, opts);
    ASSERT_TRUE(bssr.ok()) << bssr.status().ToString();
    auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();
    EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute))
        << "seed=" << seed << " k=" << k << " start=" << q.start;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BssrVsBruteForce, ::testing::Range(0, 40));

// Every combination of the four optimization toggles and both queue
// disciplines must return identical skylines (Theorem 3: exactness does not
// depend on the optimizations).
class BssrToggleEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BssrToggleEquivalence, AllToggleCombosAgree) {
  const uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed, /*n=*/30, /*extra_edges=*/25,
                                   /*num_pois=*/15);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);
  Query q = RandomDistinctTreeQuery(ds, rng, 3);
  if (q.size() != 3) GTEST_SKIP();

  std::vector<Route> reference;
  bool have_reference = false;
  for (int bits = 0; bits < 16; ++bits) {
    for (QueueDiscipline disc :
         {QueueDiscipline::kProposed, QueueDiscipline::kDistanceBased}) {
      QueryOptions opts;
      opts.use_initial_search = (bits & 1) != 0;
      opts.use_lower_bounds = (bits & 2) != 0;
      opts.use_cache = (bits & 4) != 0;
      // bit 3 toggles nothing extra; kept so the sweep covers repeats.
      opts.queue_discipline = disc;
      auto result = engine.Run(q, opts);
      ASSERT_TRUE(result.ok());
      if (!have_reference) {
        reference = result->routes;
        have_reference = true;
      } else {
        EXPECT_TRUE(ScoreVectorsNear(result->routes, reference))
            << "seed=" << seed << " bits=" << bits << " disc="
            << (disc == QueueDiscipline::kProposed ? "proposed" : "distance");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BssrToggleEquivalence, ::testing::Range(0, 12));

// Same-tree query positions exercise the blocker-tracking path (Lemma 5.5
// deferred filtering); brute force remains the arbiter.
class BssrSameTree : public ::testing::TestWithParam<int> {};

TEST_P(BssrSameTree, SameTreePositionsMatchBruteForce) {
  const uint64_t seed = 2000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed, /*n=*/20, /*extra_edges=*/16,
                                   /*num_pois=*/10, /*num_trees=*/1,
                                   /*branching=*/3, /*levels=*/2);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);
  // Both positions target the SAME tree (indeed possibly the same category).
  const auto c1 = static_cast<CategoryId>(
      rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
  const auto c2 = static_cast<CategoryId>(
      rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
  const auto start = static_cast<VertexId>(
      rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices())));
  const Query q = MakeSimpleQuery(start, {c1, c2});

  QueryOptions opts;
  auto bssr = engine.Run(q, opts);
  ASSERT_TRUE(bssr.ok());
  auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute))
      << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BssrSameTree, ::testing::Range(0, 20));

// Multi-category PoIs (§6) against brute force.
class BssrMultiCategory : public ::testing::TestWithParam<int> {};

TEST_P(BssrMultiCategory, MultiCategoryPoisMatchBruteForce) {
  const uint64_t seed = 3000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds =
      MakeTinyDataset(seed, 24, 20, 12, 3, 2, 2, /*multi_cat_fraction=*/0.5);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);
  Query q = RandomDistinctTreeQuery(ds, rng, 2);
  if (q.size() != 2) GTEST_SKIP();

  QueryOptions opts;
  auto bssr = engine.Run(q, opts);
  ASSERT_TRUE(bssr.ok());
  auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BssrMultiCategory, ::testing::Range(0, 15));

// Destination variant (§6) against brute force.
class BssrDestination : public ::testing::TestWithParam<int> {};

TEST_P(BssrDestination, DestinationMatchesBruteForce) {
  const uint64_t seed = 4000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);
  Query q = RandomDistinctTreeQuery(ds, rng, 2);
  if (q.size() != 2) GTEST_SKIP();
  q.destination = static_cast<VertexId>(
      rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices())));

  QueryOptions opts;
  auto bssr = engine.Run(q, opts);
  ASSERT_TRUE(bssr.ok());
  auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BssrDestination, ::testing::Range(0, 15));

// The paper's qualitative claim (Example 1.2 / Table 1): relaxing semantics
// can only shorten the best route; the perfect-match route, when present,
// is the longest skyline entry.
TEST(BssrProperties, SkylineIsAStaircase) {
  TinyDataset ds = MakeTinyDataset(77);
  Rng rng(77);
  BssrEngine engine(ds.graph, ds.forest);
  for (int rep = 0; rep < 10; ++rep) {
    Query q = RandomDistinctTreeQuery(ds, rng, 3);
    if (q.size() != 3) continue;
    auto result = engine.Run(q);
    ASSERT_TRUE(result.ok());
    const auto& routes = result->routes;
    for (size_t i = 1; i < routes.size(); ++i) {
      EXPECT_GT(routes[i].scores.length, routes[i - 1].scores.length);
      EXPECT_LT(routes[i].scores.semantic, routes[i - 1].scores.semantic);
    }
    // No route may dominate another.
    for (size_t i = 0; i < routes.size(); ++i) {
      for (size_t j = 0; j < routes.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(Dominates(routes[i].scores, routes[j].scores));
      }
    }
  }
}

// --- Feasibility gate (core/feasibility.h) against brute force. ---

// A line 0-1-2-3-4-5 (directed 0->1->...->5 when `directed`) with PoIs of
// the given categories at vertices 1, 2, ...
struct GateFixture {
  Graph graph;
  CategoryForest forest = MakeFoursquareLikeForest();

  GateFixture(const std::vector<std::string>& poi_categories,
              bool directed = false) {
    GraphBuilder b(directed);
    for (int i = 0; i < 6; ++i) b.AddVertex();
    for (int i = 0; i < 5; ++i) b.AddEdge(i, i + 1, 1.0 + i);
    VertexId v = 1;
    for (const std::string& name : poi_categories) {
      b.AddPoi(v++, {Cat(name)});
    }
    graph = std::move(b.Build()).ValueOrDie();
  }

  CategoryId Cat(const std::string& name) const {
    const CategoryId c = forest.FindByName(name);
    EXPECT_NE(c, kInvalidCategory) << name;
    return c;
  }

  Query Make(const std::vector<std::string>& names) const {
    std::vector<CategoryId> cats;
    for (const std::string& n : names) cats.push_back(Cat(n));
    return MakeSimpleQuery(0, cats);
  }
};

// Runs `q` under all eight toggle combinations, checks each against brute
// force and returns the default-option stats.
SearchStats RunGateCase(const GateFixture& fx, const Query& q) {
  BssrEngine engine(fx.graph, fx.forest);
  const auto brute = BruteForceSkySr(fx.graph, fx.forest, q, QueryOptions());
  EXPECT_TRUE(brute.ok());
  SearchStats defaults;
  for (int bits = 7; bits >= 0; --bits) {
    QueryOptions opts;
    opts.use_initial_search = (bits & 1) != 0;
    opts.use_lower_bounds = (bits & 2) != 0;
    opts.use_cache = (bits & 4) != 0;
    const auto got = engine.Run(q, opts);
    EXPECT_TRUE(got.ok());
    if (!got.ok() || !brute.ok()) continue;
    EXPECT_TRUE(ScoreVectorsNear(got->routes, *brute)) << "bits=" << bits;
    if (bits == 7) defaults = got->stats;
    // The gate reads no option: every combination gets the same verdict.
    EXPECT_EQ(got->stats.infeasible.ToString(),
              defaults.infeasible.ToString())
        << "bits=" << bits;
  }
  return defaults;
}

void ExpectShortCircuited(const SearchStats& s, InfeasibleReason reason,
                          int position) {
  EXPECT_EQ(s.infeasible.reason, reason) << s.infeasible.ToString();
  EXPECT_EQ(s.infeasible.position, position);
  EXPECT_EQ(s.skyline_size, 0);
  EXPECT_EQ(s.routes_enqueued, 0);
  EXPECT_EQ(s.mdijkstra_runs, 0);
  EXPECT_EQ(s.vertices_settled, 0);
  EXPECT_EQ(s.nninit_routes, 0);
}

TEST(FeasibilityGateTest, NoMatchPositionShortCircuits) {
  const GateFixture fx({"Sushi Restaurant", "Gift Shop", "Italian Restaurant"});
  // No PoI is both a gift shop and food.
  Query q = fx.Make({"Sushi Restaurant", "Gift Shop", "Food"});
  q.sequence[1].all_of.push_back(fx.Cat("Food"));
  ExpectShortCircuited(RunGateCase(fx, q), InfeasibleReason::kNoMatch, 1);
  // A category whose tree holds no PoI at all.
  ExpectShortCircuited(RunGateCase(fx, fx.Make({"Food", "Nightclub"})),
                       InfeasibleReason::kNoMatch, 1);
}

TEST(FeasibilityGateTest, HallViolationShortCircuits) {
  // Two positions whose only match is the same PoI.
  const GateFixture one_shop({"Sushi Restaurant", "Gift Shop"});
  ExpectShortCircuited(
      RunGateCase(one_shop, one_shop.Make({"Gift Shop", "Sushi Restaurant",
                                           "Gift Shop"})),
      InfeasibleReason::kHall, 2);
  // Three positions over two PoIs.
  const GateFixture two_shops({"Gift Shop", "Italian Restaurant", "Gift Shop"});
  ExpectShortCircuited(
      RunGateCase(two_shops,
                  two_shops.Make({"Gift Shop", "Gift Shop", "Gift Shop"})),
      InfeasibleReason::kHall, 2);
}

TEST(FeasibilityGateTest, UnreachableDestinationShortCircuits) {
  // Directed line: nothing reaches vertex 0 back from a PoI.
  const GateFixture fx({"Sushi Restaurant", "Gift Shop"}, /*directed=*/true);
  Query q = fx.Make({"Sushi Restaurant", "Gift Shop"});
  q.destination = 0;
  ExpectShortCircuited(RunGateCase(fx, q),
                       InfeasibleReason::kDestUnreachable, 1);
  // The same query towards the end of the line has routes.
  q.destination = 5;
  const SearchStats reachable = RunGateCase(fx, q);
  EXPECT_FALSE(reachable.infeasible.fired());
  EXPECT_GT(reachable.skyline_size, 0);
}

TEST(FeasibilityGateTest, TightFeasibleQueriesRunTheSearch) {
  // Exactly k distinct matching PoIs, each position matching all of them.
  const GateFixture fx({"Gift Shop", "Sushi Restaurant", "Gift Shop",
                        "Gift Shop"});
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"Gift Shop", "Gift Shop", "Gift Shop"},
        std::vector<std::string>{"Gift Shop", "Sushi Restaurant",
                                 "Gift Shop", "Gift Shop"}}) {
    const SearchStats s = RunGateCase(fx, fx.Make(names));
    EXPECT_FALSE(s.infeasible.fired()) << s.infeasible.ToString();
    EXPECT_GT(s.skyline_size, 0);
    EXPECT_GT(s.routes_enqueued, 0);
  }
  // Position 0 first takes the sushi place, the only PoI position 1
  // accepts; the matching must move position 0 to the trattoria.
  const GateFixture food({"Sushi Restaurant", "Italian Restaurant",
                          "Gift Shop"});
  Query q = food.Make({"Food", "Food", "Gift Shop"});
  q.sequence[1].all_of.push_back(food.Cat("Sushi Restaurant"));
  const SearchStats s = RunGateCase(food, q);
  EXPECT_FALSE(s.infeasible.fired()) << s.infeasible.ToString();
  EXPECT_GT(s.skyline_size, 0);
}

TEST(FeasibilityGateTest, ShortCircuitKeepsTraceAndExplain) {
  const GateFixture fx({"Sushi Restaurant", "Gift Shop"});
  BssrEngine engine(fx.graph, fx.forest);
  QueryTrace trace(256);
  trace.set_enabled(true);
  engine.AttachTrace(&trace);
  QueryOptions opts;
  opts.explain = true;
  const auto r = engine.Run(fx.Make({"Gift Shop", "Gift Shop"}), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->routes.empty());
  EXPECT_EQ(r->stats.infeasible.reason, InfeasibleReason::kHall);
  // The root span closed (an open span records nothing) and no search
  // phase ran.
  EXPECT_EQ(r->stats.phases.of(TracePhase::kQuery).count, 1);
  EXPECT_EQ(trace.aggregates().of(TracePhase::kQuery).count, 1);
  EXPECT_EQ(r->stats.phases.of(TracePhase::kNnInit).count, 0);
  EXPECT_EQ(r->stats.phases.of(TracePhase::kQbDrain).count, 0);
  EXPECT_EQ(r->stats.phases.of(TracePhase::kExpansion).count, 0);
  EXPECT_GT(r->stats.elapsed_ms, 0.0);
  ASSERT_NE(r->explain, nullptr);
  EXPECT_EQ(r->explain->infeasible.ToString(), "hall@1");
  EXPECT_NE(r->explain->ToTreeString().find("infeasible: hall@1"),
            std::string::npos);
  EXPECT_NE(r->explain->ToJson().find(
                "\"infeasible\":{\"reason\":\"hall\",\"position\":1}"),
            std::string::npos);
  EXPECT_NE(r->stats.ToString().find("INFEASIBLE=hall@1"), std::string::npos);
}

}  // namespace
}  // namespace skysr
