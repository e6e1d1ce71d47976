// §6 extensions: directed graphs, complex predicates, unordered trip
// planning, alternative similarity functions and aggregators.

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "baseline/naive_skysr.h"
#include "category/taxonomy_factory.h"
#include "core/bssr_engine.h"
#include "ext/unordered_trip.h"
#include "tests/test_util.h"

namespace skysr {
namespace {

using ::skysr::testing::MakeTinyDataset;
using ::skysr::testing::ScoreVectorsNear;
using ::skysr::testing::TinyDataset;

// Directed random dataset: ring both ways (connectivity) + one-way chords.
TinyDataset MakeDirectedTinyDataset(uint64_t seed, int n = 20,
                                    int extra = 16, int num_pois = 10) {
  Rng rng(seed);
  TinyDataset ds;
  ds.forest = MakeSyntheticForest(3, 2, 2);
  std::vector<CategoryId> leaves;
  for (TreeId t = 0; t < ds.forest.num_trees(); ++t) {
    const auto tl = ds.forest.LeavesOfTree(t);
    leaves.insert(leaves.end(), tl.begin(), tl.end());
  }
  GraphBuilder b(/*directed=*/true);
  for (int i = 0; i < n; ++i) b.AddVertex();
  for (int i = 0; i < n; ++i) {
    b.AddEdge(i, (i + 1) % n, 1.0 + rng.UniformDouble() * 3.0);
    b.AddEdge((i + 1) % n, i, 1.0 + rng.UniformDouble() * 3.0);
  }
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<VertexId>(rng.UniformU64(n));
    const auto v = static_cast<VertexId>(rng.UniformU64(n));
    if (u != v) b.AddEdge(u, v, 1.0 + rng.UniformDouble() * 5.0);
  }
  std::vector<char> used(static_cast<size_t>(n), 0);
  int placed = 0;
  while (placed < num_pois) {
    const auto v = static_cast<VertexId>(rng.UniformU64(n));
    if (used[static_cast<size_t>(v)]) continue;
    used[static_cast<size_t>(v)] = 1;
    b.AddPoi(v, {leaves[rng.UniformU64(leaves.size())]});
    ++placed;
  }
  ds.graph = std::move(b.Build()).ValueOrDie();
  return ds;
}

class DirectedGraphs : public ::testing::TestWithParam<int> {};

TEST_P(DirectedGraphs, BssrMatchesBruteForceOnDirectedNetworks) {
  const uint64_t seed = 8000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeDirectedTinyDataset(seed);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);
  std::vector<CategoryId> cats;
  std::vector<TreeId> trees;
  int guard = 0;
  while (cats.size() < 2 && ++guard < 1000) {
    const auto c = static_cast<CategoryId>(
        rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
    const TreeId t = ds.forest.TreeOf(c);
    bool dup = false;
    for (TreeId u : trees) dup = dup || t == u;
    if (!dup) {
      cats.push_back(c);
      trees.push_back(t);
    }
  }
  Query q = MakeSimpleQuery(
      static_cast<VertexId>(
          rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices()))),
      cats);
  // Also exercise the reverse-graph destination path on directed inputs.
  if (GetParam() % 2 == 0) {
    q.destination = static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices())));
  }
  const QueryOptions opts;
  auto bssr = engine.Run(q, opts);
  ASSERT_TRUE(bssr.ok());
  auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute)) << "seed=" << seed;
  // The naive baseline over both OSR engines: Dij walks one-way edges to the
  // destination, PNE reads its tails off the reverse sweep.
  for (const OsrEngineKind kind :
       {OsrEngineKind::kDijkstraBased, OsrEngineKind::kPne}) {
    auto naive = RunNaiveSkySr(ds.graph, ds.forest, q, opts, kind);
    ASSERT_TRUE(naive.ok());
    EXPECT_TRUE(ScoreVectorsNear(naive->routes, *brute))
        << "seed=" << seed << " engine=" << static_cast<int>(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectedGraphs, ::testing::Range(0, 12));

class ComplexPredicates : public ::testing::TestWithParam<int> {};

TEST_P(ComplexPredicates, DisjunctionAndNegationMatchBruteForce) {
  const uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed, 26, 22, 13);
  Rng rng(seed);
  BssrEngine engine(ds.graph, ds.forest);

  // Position 0: "anything in tree 0 or tree 1, but not subtree X".
  CategoryPredicate p0;
  p0.any_of = {ds.forest.RootOf(0), ds.forest.RootOf(1)};
  const auto kids0 = ds.forest.Children(ds.forest.RootOf(0));
  if (!kids0.empty()) p0.none_of = {kids0[0]};
  // Position 1: plain category in tree 2.
  const auto leaves2 = ds.forest.LeavesOfTree(2);
  CategoryPredicate p1 =
      CategoryPredicate::Single(leaves2[rng.UniformU64(leaves2.size())]);

  Query q;
  q.start = static_cast<VertexId>(
      rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices())));
  q.sequence = {p0, p1};

  const QueryOptions opts;
  auto bssr = engine.Run(q, opts);
  ASSERT_TRUE(bssr.ok());
  auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComplexPredicates, ::testing::Range(0, 12));

class UnorderedTrips : public ::testing::TestWithParam<int> {};

TEST_P(UnorderedTrips, MatchesUnorderedBruteForce) {
  const uint64_t seed = 10000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed, 22, 18, 10);
  Rng rng(seed);
  std::vector<CategoryId> cats;
  std::vector<TreeId> trees;
  int guard = 0;
  while (cats.size() < 2 && ++guard < 1000) {
    const auto c = static_cast<CategoryId>(
        rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
    const TreeId t = ds.forest.TreeOf(c);
    bool dup = false;
    for (TreeId u : trees) dup = dup || t == u;
    if (!dup) {
      cats.push_back(c);
      trees.push_back(t);
    }
  }
  const Query q = MakeSimpleQuery(
      static_cast<VertexId>(
          rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices()))),
      cats);
  const QueryOptions opts;
  auto unordered = RunUnorderedSkySr(ds.graph, ds.forest, q, opts);
  ASSERT_TRUE(unordered.ok()) << unordered.status().ToString();
  auto brute =
      BruteForceSkySr(ds.graph, ds.forest, q, opts, /*unordered=*/true);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(ScoreVectorsNear(unordered->routes, *brute)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnorderedTrips, ::testing::Range(0, 15));

TEST(UnorderedTrips, NeverWorseThanOrderedAtEqualSemantics) {
  // The unordered skyline's best length at any semantic level is <= the
  // ordered one's (order freedom only helps).
  TinyDataset ds = MakeTinyDataset(123, 30, 25, 14);
  Rng rng(123);
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<CategoryId> cats;
    std::vector<TreeId> trees;
    int guard = 0;
    while (cats.size() < 3 && ++guard < 1000) {
      const auto c = static_cast<CategoryId>(
          rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
      const TreeId t = ds.forest.TreeOf(c);
      bool dup = false;
      for (TreeId u : trees) dup = dup || t == u;
      if (!dup) {
        cats.push_back(c);
        trees.push_back(t);
      }
    }
    const Query q = MakeSimpleQuery(
        static_cast<VertexId>(
            rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices()))),
        cats);
    BssrEngine engine(ds.graph, ds.forest);
    auto ordered = engine.Run(q);
    auto unordered = RunUnorderedSkySr(ds.graph, ds.forest, q);
    ASSERT_TRUE(ordered.ok());
    ASSERT_TRUE(unordered.ok());
    for (const Route& r : ordered->routes) {
      Weight best = kInfWeight;
      for (const Route& u : unordered->routes) {
        if (u.scores.semantic <= r.scores.semantic + 1e-12) {
          best = std::min(best, u.scores.length);
        }
      }
      EXPECT_LE(best, r.scores.length + 1e-9);
    }
  }
}

TEST(UnorderedTrips, RejectsOversizedMask) {
  TinyDataset ds = MakeTinyDataset(5);
  Query q;
  q.start = 0;
  for (int i = 0; i < 32; ++i) {
    q.sequence.push_back(CategoryPredicate::Single(0));
  }
  EXPECT_FALSE(RunUnorderedSkySr(ds.graph, ds.forest, q).ok());
}

class AlternativeScoring : public ::testing::TestWithParam<int> {};

TEST_P(AlternativeScoring, BssrExactForOtherSimilaritiesAndAggregators) {
  const uint64_t seed = 11000 + static_cast<uint64_t>(GetParam());
  TinyDataset ds = MakeTinyDataset(seed);
  Rng rng(seed);
  std::vector<CategoryId> cats;
  std::vector<TreeId> trees;
  int guard = 0;
  while (cats.size() < 2 && ++guard < 1000) {
    const auto c = static_cast<CategoryId>(
        rng.UniformU64(static_cast<uint64_t>(ds.forest.num_categories())));
    const TreeId t = ds.forest.TreeOf(c);
    bool dup = false;
    for (TreeId u : trees) dup = dup || t == u;
    if (!dup) {
      cats.push_back(c);
      trees.push_back(t);
    }
  }
  const Query q = MakeSimpleQuery(
      static_cast<VertexId>(
          rng.UniformU64(static_cast<uint64_t>(ds.graph.num_vertices()))),
      cats);
  BssrEngine engine(ds.graph, ds.forest);

  for (const auto& sim_fn :
       std::vector<std::shared_ptr<const SimilarityFunction>>{
           std::make_shared<SymmetricWuPalmerSimilarity>(),
           std::make_shared<PathLengthSimilarity>()}) {
    for (const auto agg : {SemanticAggregation::kProduct,
                           SemanticAggregation::kMinSimilarity}) {
      QueryOptions opts;
      opts.similarity = sim_fn;
      opts.aggregation = agg;
      auto bssr = engine.Run(q, opts);
      ASSERT_TRUE(bssr.ok());
      auto brute = BruteForceSkySr(ds.graph, ds.forest, q, opts);
      ASSERT_TRUE(brute.ok());
      EXPECT_TRUE(ScoreVectorsNear(bssr->routes, *brute))
          << "seed=" << seed << " sim=" << sim_fn->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlternativeScoring, ::testing::Range(0, 10));

TEST(TimeBudget, BssrHonorsBudget) {
  TinyDataset ds = MakeTinyDataset(55, 40, 40, 20);
  BssrEngine engine(ds.graph, ds.forest);
  Query q = MakeSimpleQuery(
      0, {ds.forest.RootOf(0), ds.forest.RootOf(1), ds.forest.RootOf(2)});
  QueryOptions opts;
  opts.time_budget_seconds = 0.0;
  auto r = engine.Run(q, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.timed_out);
}

}  // namespace
}  // namespace skysr
