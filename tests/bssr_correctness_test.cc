// Ground-truth correctness of BSSR: against brute force on random tiny
// datasets, across every optimization-toggle combination, and on handcrafted
// instances mirroring the paper's running example (§5.5).

#include <array>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "category/taxonomy_factory.h"
#include "core/bssr_engine.h"
#include "graph/graph_builder.h"
#include "obs/explain.h"
#include "obs/query_trace.h"
#include "scenario/diff_check.h"
#include "scenario/scenario.h"
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

// Options of toggle combination `bits`: initial search, lower bounds and
// cache on bits 0, 1 and 2 (7 = the defaults).
QueryOptions ToggleOptions(int bits) {
  QueryOptions opts;
  opts.use_initial_search = (bits & 1) != 0;
  opts.use_lower_bounds = (bits & 2) != 0;
  opts.use_cache = (bits & 4) != 0;
  return opts;
}

// Runs `q` under all eight toggle combinations, checks each against brute
// force bit for bit and returns each combination's stats (index = bits).
std::array<SearchStats, 8> RunAllToggles(const Graph& g,
                                         const CategoryForest& forest,
                                         const Query& q) {
  BssrEngine engine(g, forest);
  const auto brute = BruteForceSkySr(g, forest, q, QueryOptions());
  EXPECT_TRUE(brute.ok());
  std::array<SearchStats, 8> stats;
  for (int bits = 7; bits >= 0; --bits) {
    const auto got = engine.Run(q, ToggleOptions(bits));
    EXPECT_TRUE(got.ok());
    if (!got.ok() || !brute.ok()) continue;
    EXPECT_TRUE(BitIdenticalSkylines(got->routes, *brute))
        << "bits=" << bits << " got " << RenderSkyline(got->routes)
        << " brute " << RenderSkyline(*brute);
    stats[static_cast<size_t>(bits)] = got->stats;
  }
  return stats;
}

// RunAllToggles on a gate fixture; returns the default-option stats.
SearchStats RunGateCase(const GateFixture& fx, const Query& q) {
  const std::array<SearchStats, 8> stats =
      RunAllToggles(fx.graph, fx.forest, q);
  // The gate reads no option: every combination gets the same verdict.
  for (int bits = 0; bits < 8; ++bits) {
    EXPECT_EQ(stats[static_cast<size_t>(bits)].infeasible.ToString(),
              stats[7].infeasible.ToString())
        << "bits=" << bits;
  }
  return stats[7];
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
  EXPECT_NE(r->explain->ToTreeString(r->stats).find("infeasible: hall@1"),
            std::string::npos);
  EXPECT_NE(r->explain->ToJson(r->stats).find(
                "\"infeasible\":{\"reason\":\"hall\",\"position\":1}"),
            std::string::npos);
  EXPECT_NE(r->stats.ToString().find("INFEASIBLE=hall@1"), std::string::npos);
}

// --- Completion bounds (DESIGN.md §6): semantic floor, destination tail. ---

// An undirected graph of `n` vertices with the given weighted edges and
// PoIs of the named categories.
struct BoundFixture {
  Graph graph;
  CategoryForest forest = MakeFoursquareLikeForest();

  BoundFixture(int n, const std::vector<std::tuple<int, int, double>>& edges,
               const std::vector<std::pair<int, std::string>>& pois) {
    GraphBuilder b(/*directed=*/false);
    for (int i = 0; i < n; ++i) b.AddVertex();
    for (const auto& [u, v, w] : edges) b.AddEdge(u, v, w);
    for (const auto& [v, name] : pois) b.AddPoi(v, {Cat(name)});
    graph = std::move(b.Build()).ValueOrDie();
  }

  CategoryId Cat(const std::string& name) const {
    const CategoryId c = forest.FindByName(name);
    EXPECT_NE(c, kInvalidCategory) << name;
    return c;
  }
};

// Partial routes that were expanded: dequeued and not pruned.
int64_t Expansions(const SearchStats& s) {
  return s.routes_dequeued - s.routes_pruned;
}

TEST(CompletionBoundsTest, DestinationTailPrunesAlone) {
  // 0 -1- 1(sushi) -1- 2(gift) -1- 3(dest); a second sushi place at 4 sits
  // beside the start (0 -2- 4) with a gift shop next to it (4 -0.5- 5), far
  // from the destination. Every position has a perfect PoI (no floor), and
  // 4's partial route is under the threshold (2 < 3); only its tail
  // D(4, 3) = 5 prunes it, so with
  // the bounds on only the route at 1 is expanded. That route ties the
  // threshold exactly (1 + D(1, 3) = 3); the tail's shave keeps it.
  const BoundFixture fx(6,
                        {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {0, 4, 2.0},
                         {4, 5, 0.5}},
                        {{1, "Sushi Restaurant"},
                         {2, "Gift Shop"},
                         {4, "Sushi Restaurant"},
                         {5, "Gift Shop"}});
  Query q = MakeSimpleQuery(
      0, {fx.Cat("Sushi Restaurant"), fx.Cat("Gift Shop")});
  q.destination = 3;
  const std::array<SearchStats, 8> s = RunAllToggles(fx.graph, fx.forest, q);
  for (int bits = 0; bits < 8; ++bits) {
    const SearchStats& st = s[static_cast<size_t>(bits)];
    EXPECT_EQ(st.semantic_floor, 0.0) << "bits=" << bits;
    EXPECT_EQ(Expansions(st), (bits & 2) != 0 ? 1 : 2) << "bits=" << bits;
  }
}

TEST(CompletionBoundsTest, PositionWithoutPerfectPoiRaisesTheFloor) {
  // Position 1 asks for an Italian restaurant and only sushi places exist,
  // so no perfect route does and the threshold at score 0 stays infinite.
  // 0 -1- 1(gift) -1- 2(sushi) is the one skyline route; the gift shop at
  // 3 (0 -5- 3, 3 -1- 4 sushi) is pruned, and never expanded, only by
  // reading the threshold at the floor 1 - sim(Italian, Sushi).
  const BoundFixture fx(5, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 3, 5.0}, {3, 4, 1.0}},
                        {{1, "Gift Shop"},
                         {2, "Sushi Restaurant"},
                         {3, "Gift Shop"},
                         {4, "Sushi Restaurant"}});
  const Query q = MakeSimpleQuery(
      0, {fx.Cat("Gift Shop"), fx.Cat("Italian Restaurant")});
  const std::array<SearchStats, 8> s = RunAllToggles(fx.graph, fx.forest, q);
  BssrEngine engine(fx.graph, fx.forest);
  const auto r = engine.Run(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->routes.size(), 1u);
  // The floor is exact here: the one route reaches it.
  EXPECT_GT(s[7].semantic_floor, 0.0);
  EXPECT_EQ(s[7].semantic_floor, r->routes[0].scores.semantic);
  for (int bits = 0; bits < 8; ++bits) {
    const SearchStats& st = s[static_cast<size_t>(bits)];
    const bool bounds = (bits & 2) != 0;
    EXPECT_EQ(st.semantic_floor, bounds ? s[7].semantic_floor : 0.0)
        << "bits=" << bits;
    // The floor alone leaves the gift shop at 1 to be expanded: with
    // NNinit's route known up front, the first expansion's budget (the
    // floor threshold 2) admits it at distance 1 and stops short of the
    // one at 3; without NNinit, 3 is enqueued but pruned at dequeue once
    // the expansion of 1 found the skyline route. (The paper's §5.3.3
    // gift -> sushi leg bound, 1, used to shrink that budget to 1 and
    // skip the expansion of 1 too; DESIGN.md §6 says why it is gone.)
    const int64_t want = bounds ? 1 : 2;
    EXPECT_EQ(Expansions(st), want) << "bits=" << bits;
  }
}

// Float ties on the flexible-hierarchy scenario (cluster graph, Euclidean
// weights, 240 PoIs): its k = 2 queries produce routes whose lengths differ
// from l̄(∅) and from their destination tails by an ulp or two. The
// destination tail (and the §5.3.3 ball, which the engine no longer builds)
// are compared with route lengths summed in another order, so each needs
// its margin: queries 2716 and 2986 lost a route to the ball, and 760 and
// 2195 lose one to an unshaved tail.
TEST(CompletionBoundsTest, UlpTiesOnFlexScenarioStayExact) {
  ScenarioSpec spec;
  spec.name = "flex-cluster";
  spec.graph.family = GraphFamily::kCluster;
  spec.graph.target_vertices = 1200;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 4;
  spec.taxonomy.max_fanout = 4;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = 240;
  spec.pois.zipf_theta = 0.5;
  spec.pois.multi_category_rate = 0.1;
  spec.workload.min_sequence = 1;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.15;
  spec.workload.all_of_rate = 0.1;
  spec.workload.none_of_rate = 0.1;
  spec.workload.destination_rate = 0.25;
  spec.workload.num_queries = 0;
  SeedScenarioSpec(&spec, 20260731);
  const Scenario sc = MakeScenario(spec);
  spec.workload.num_queries = 3000;
  const std::vector<Query> queries =
      MakeScenarioQueries(sc.dataset, spec.workload);
  ASSERT_EQ(queries.size(), 3000u);
  const Graph& g = sc.dataset.graph;
  const CategoryForest& forest = sc.dataset.forest;

  BssrEngine engine(g, forest);
  QueryOptions bounds_off;
  bounds_off.use_lower_bounds = false;
  int checked = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].size() != 2) continue;
    ++checked;
    const auto on = engine.Run(queries[i]);
    const auto off = engine.Run(queries[i], bounds_off);
    ASSERT_TRUE(on.ok() && off.ok());
    EXPECT_TRUE(BitIdenticalSkylines(on->routes, off->routes))
        << "query " << i << ": bounds on " << RenderSkyline(on->routes)
        << " off " << RenderSkyline(off->routes);
  }
  EXPECT_EQ(checked, 731);
  for (const size_t i : {size_t{2716}, size_t{2986}}) {
    const auto got = engine.Run(queries[i]);
    const auto brute = BruteForceSkySr(g, forest, queries[i], QueryOptions());
    ASSERT_TRUE(got.ok() && brute.ok());
    EXPECT_TRUE(BitIdenticalSkylines(got->routes, *brute))
        << "query " << i << ": got " << RenderSkyline(got->routes)
        << " brute " << RenderSkyline(*brute);
  }
}

}  // namespace
}  // namespace skysr
