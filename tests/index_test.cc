// Distance-oracle index layer tests (tier1): randomized CH correctness
// against plain Dijkstra over all three scenario graph families, the
// bit-equality contract of distance_oracle.h, pinned CH and bucket-table
// bytes, index save/load round-trips, the graph-checksum mismatch guard,
// and index-backed engine / service / OSR-baseline integration. The
// bucket-table distances the engine reads are checked in retrieval_test.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "baseline/osr_dijkstra.h"
#include "baseline/osr_pne.h"
#include "core/bssr_engine.h"
#include "graph/dijkstra.h"
#include "graph/graph_builder.h"
#include "index/ch_oracle.h"
#include "index/index_io.h"
#include "retrieval/bucket_io.h"
#include "retrieval/category_buckets.h"
#include "scenario/diff_check.h"
#include "scenario/scenario.h"
#include "service/query_service.h"
#include "util/rng.h"
#include "workload/dataset.h"

namespace skysr {
namespace {

ScenarioGraphParams FamilyParams(GraphFamily family, int64_t vertices,
                                 WeightModel weights, uint64_t seed) {
  ScenarioGraphParams p;
  p.family = family;
  p.target_vertices = vertices;
  p.weights = weights;
  p.seed = seed;
  return p;
}

/// Random vertex pairs, deterministic per seed.
std::vector<std::pair<VertexId, VertexId>> RandomPairs(int64_t n, int count,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.UniformInt(0, n - 1)),
                       static_cast<VertexId>(rng.UniformInt(0, n - 1)));
  }
  return pairs;
}

class IndexFamilyTest
    : public ::testing::TestWithParam<std::tuple<GraphFamily, WeightModel>> {
};

// The exactness contract: CH returns the very double a reference Dijkstra
// computes, across every scenario graph family and weight model (unit
// weights maximize ties, continuous weights exercise rounding).
TEST_P(IndexFamilyTest, ChMatchesDijkstraBitwise) {
  const auto [family, weights] = GetParam();
  const Graph g = MakeScenarioGraph(
      FamilyParams(family, 400, weights, 7 + static_cast<uint64_t>(family)));
  const ChOracle ch = ChOracle::Build(g);
  OracleWorkspace ws;

  for (const auto& [s, t] : RandomPairs(g.num_vertices(), 120, 99)) {
    const DistanceField ref = SingleSourceDistances(g, s);
    const Weight want = ref.dist[static_cast<size_t>(t)];
    EXPECT_EQ(ch.Distance(s, t, ws), want)
        << GraphFamilyName(family) << " CH mismatch " << s << "->" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, IndexFamilyTest,
    ::testing::Combine(::testing::Values(GraphFamily::kGrid,
                                         GraphFamily::kCluster,
                                         GraphFamily::kSmallWorld),
                       ::testing::Values(WeightModel::kUnit,
                                         WeightModel::kUniform,
                                         WeightModel::kEuclidean)));

TEST(ChOracleTest, DisconnectedAndDirectedGraphs) {
  // Two components: 0-1-2 and 3-4; plus a directed variant with a one-way
  // shortcut that only helps one direction.
  GraphBuilder b(/*directed=*/false);
  for (int i = 0; i < 5; ++i) b.AddVertex();
  b.AddEdge(0, 1, 1.5);
  b.AddEdge(1, 2, 2.25);
  b.AddEdge(3, 4, 4.0);
  const Graph g = b.Build().ValueOrDie();
  const ChOracle ch = ChOracle::Build(g);
  OracleWorkspace ws;
  EXPECT_EQ(ch.Distance(0, 2, ws), 3.75);
  EXPECT_EQ(ch.Distance(0, 3, ws), kInfWeight);
  EXPECT_EQ(ch.Distance(4, 3, ws), 4.0);

  GraphBuilder db(/*directed=*/true);
  for (int i = 0; i < 4; ++i) db.AddVertex();
  db.AddEdge(0, 1, 1.0);
  db.AddEdge(1, 2, 1.0);
  db.AddEdge(2, 3, 1.0);
  db.AddEdge(3, 0, 10.0);
  db.AddEdge(0, 3, 1.25);
  const Graph dg = db.Build().ValueOrDie();
  const ChOracle dch = ChOracle::Build(dg);
  for (VertexId s = 0; s < 4; ++s) {
    const DistanceField ref = SingleSourceDistances(dg, s);
    for (VertexId t = 0; t < 4; ++t) {
      EXPECT_EQ(dch.Distance(s, t, ws), ref.dist[static_cast<size_t>(t)])
          << "directed CH " << s << "->" << t;
    }
  }
}

/// The bytes SaveBucketIndex writes for `buckets`.
std::string BucketFileBytes(const CategoryBucketIndex& buckets,
                            const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".cbkt";
  EXPECT_TRUE(SaveBucketIndex(buckets, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// FNV-1a over a byte string.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// The index builds are pinned byte for byte: the CH structure checksum and
// the saved bucket tables of fixed graphs must never drift. Build-time
// savings (witness-search cuts, bucket-build workers) may only change how
// fast these bytes are produced. The 0.01-scale city has 1,744 PoIs, enough
// for the bucket build to run on several workers, and two builds must write
// the same bytes.
TEST(IndexBytesTest, ChAndBucketBytesArePinned) {
  struct Pin {
    const char* name;
    uint64_t ch;
    uint64_t buckets;
  };
  const Pin hotpath[] = {
      {"grid", 0xae3b80fa30612d8dULL, 0xc34333568595fc39ULL},
      {"cluster", 0xcb66ba680d9e4736ULL, 0x22cf3df969a02a8aULL},
      {"smallworld", 0x5a8dbf76a70eef86ULL, 0xf845c7e2817ed329ULL}};
  const GraphFamily families[] = {GraphFamily::kGrid, GraphFamily::kCluster,
                                  GraphFamily::kSmallWorld};
  for (int i = 0; i < 3; ++i) {
    const Scenario sc = MakeScenario(HotpathScenarioSpec(families[i]));
    const ChOracle ch = ChOracle::Build(sc.dataset.graph);
    EXPECT_EQ(ch.StructureChecksum(), hotpath[i].ch) << hotpath[i].name;
    const CategoryBucketIndex buckets =
        CategoryBucketIndex::Build(sc.dataset.graph, ch);
    EXPECT_EQ(Fnv1a(BucketFileBytes(buckets, hotpath[i].name)),
              hotpath[i].buckets)
        << hotpath[i].name;
  }

  const Dataset city = MakeDataset(TokyoLikeSpec(0.01));
  ASSERT_EQ(city.graph.num_pois(), 1744);
  const ChOracle ch = ChOracle::Build(city.graph);
  EXPECT_EQ(ch.StructureChecksum(), 0x3437513b3a0b516cULL);
  const std::string first =
      BucketFileBytes(CategoryBucketIndex::Build(city.graph, ch), "city");
  EXPECT_EQ(Fnv1a(first), 0x84abf76074db0d81ULL);
  EXPECT_TRUE(first ==
              BucketFileBytes(CategoryBucketIndex::Build(city.graph, ch),
                              "city"))
      << "two bucket builds of one city wrote different bytes";
}

TEST(IndexIoTest, SaveLoadRoundTripsChOracle) {
  const Graph g = MakeScenarioGraph(
      FamilyParams(GraphFamily::kCluster, 250, WeightModel::kUniform, 11));
  const std::string ch_path = ::testing::TempDir() + "/roundtrip.chidx";

  const ChOracle built_ch = ChOracle::Build(g);
  ASSERT_TRUE(SaveOracleIndex(built_ch, ch_path).ok());

  auto ch = LoadOracleIndex(ch_path, g);
  ASSERT_TRUE(ch.ok()) << ch.status().ToString();

  OracleWorkspace ws;
  for (const auto& [s, t] : RandomPairs(g.num_vertices(), 40, 17)) {
    EXPECT_EQ(built_ch.Distance(s, t, ws), (*ch)->Distance(s, t, ws));
  }
}

TEST(IndexIoTest, ChecksumMismatchIsRejectedWithClearMessage) {
  const Graph g = MakeScenarioGraph(
      FamilyParams(GraphFamily::kGrid, 120, WeightModel::kUniform, 1));
  const std::string path = ::testing::TempDir() + "/mismatch.chidx";
  ASSERT_TRUE(SaveOracleIndex(ChOracle::Build(g), path).ok());

  // Same family, different seed: a structurally different graph.
  const Graph other = MakeScenarioGraph(
      FamilyParams(GraphFamily::kGrid, 120, WeightModel::kUniform, 2));
  auto loaded = LoadOracleIndex(path, other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("different graph"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("rebuild"), std::string::npos);

  EXPECT_NE(GraphChecksum(g), GraphChecksum(other));
  EXPECT_EQ(GraphChecksum(g), GraphChecksum(g));
}

// Engine-level integration: an index-backed BssrEngine (CH + bucket tables)
// and a QueryService sharing them across workers must reproduce the
// classic engine's skylines bit for bit on a generated scenario workload.
TEST(OracleEngineTest, OracleBackedEngineMatchesFlatEngine) {
  for (int suite_index : {1, 3, 5}) {  // one spec per graph family
    const Scenario sc = MakeScenario(ScenarioSuiteSpec(suite_index, 404));
    const ChOracle oracle = ChOracle::Build(sc.dataset.graph);
    const CategoryBucketIndex buckets =
        CategoryBucketIndex::Build(sc.dataset.graph, oracle);
    BssrEngine flat_engine(sc.dataset.graph, sc.dataset.forest);
    BssrEngine oracle_engine(sc.dataset.graph, sc.dataset.forest, &oracle,
                             &buckets);

    ServiceConfig cfg;
    cfg.num_threads = 2;
    cfg.oracle = &oracle;
    cfg.buckets = &buckets;
    QueryService service(sc.dataset.graph, sc.dataset.forest, cfg);
    const auto service_results = service.RunBatch(sc.queries);

    for (size_t qi = 0; qi < sc.queries.size(); ++qi) {
      auto want = flat_engine.Run(sc.queries[qi]);
      auto got = oracle_engine.Run(sc.queries[qi]);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_TRUE(BitIdenticalSkylines(got->routes, want->routes))
          << sc.spec.name << " query " << qi << ": expected "
          << RenderSkyline(want->routes) << " got "
          << RenderSkyline(got->routes);
      ASSERT_TRUE(service_results[qi].ok());
      EXPECT_TRUE(BitIdenticalSkylines(
          service_results[qi].ValueOrDie().routes, want->routes))
          << sc.spec.name << " service query " << qi;
    }
  }
}

// The OSR baselines accept the oracle for destination tails; totals agree
// with the classic whole-graph sweep up to summation order.
TEST(OracleEngineTest, OsrDestinationTailsMatchWithOracle) {
  const Scenario sc = MakeScenario(ScenarioSuiteSpec(2, 77));
  const Graph& g = sc.dataset.graph;
  const auto ch = std::make_unique<ChOracle>(ChOracle::Build(g));
  const SimilarityFunction& sim = *DefaultSimilarity();

  std::vector<PositionMatcher> matchers;
  std::vector<CategoryId> cats;
  for (PoiId p = 0; p < std::min<PoiId>(2, static_cast<PoiId>(g.num_pois()));
       ++p) {
    cats.push_back(g.PoiPrimaryCategory(p));
  }
  ASSERT_FALSE(cats.empty());
  for (const CategoryId c : cats) {
    matchers.emplace_back(g, sc.dataset.forest, sim,
                          CategoryPredicate::Single(c),
                          MultiCategoryMode::kMaxSimilarity);
  }

  const VertexId start = 0;
  const auto dest = std::optional<VertexId>(g.num_vertices() - 1);
  const OsrResult dij = RunOsrDijkstra(g, matchers, start, dest, 30.0);
  const OsrResult dij_ch =
      RunOsrDijkstra(g, matchers, start, dest, 30.0, ch.get());
  const OsrResult pne = RunOsrPne(g, matchers, start, dest, 30.0);
  const OsrResult pne_ch = RunOsrPne(g, matchers, start, dest, 30.0, ch.get());
  ASSERT_EQ(dij.pois.has_value(), dij_ch.pois.has_value());
  ASSERT_EQ(pne.pois.has_value(), pne_ch.pois.has_value());
  if (dij.pois) {
    EXPECT_NEAR(dij_ch.length, dij.length, 1e-9 * std::max(1.0, dij.length));
    EXPECT_NEAR(pne_ch.length, pne.length, 1e-9 * std::max(1.0, pne.length));
    // The oracle mode settles strictly less of the (vertex, progress) space.
    EXPECT_LE(dij_ch.vertices_settled, dij.vertices_settled);
  }
}

TEST(OracleKindTest, KindsParse) {
  EXPECT_EQ(ParseOracleKind("flat"), OracleKind::kFlat);
  EXPECT_EQ(ParseOracleKind("ch"), OracleKind::kCh);
  // The retired landmark oracle's name no longer parses.
  EXPECT_FALSE(ParseOracleKind("alt").has_value());
  EXPECT_FALSE(ParseOracleKind("dijkstra").has_value());
  EXPECT_STREQ(OracleKindName(OracleKind::kCh), "ch");
  // Resumable slots are not a retriever kind of their own: "settle" runs
  // deferred expansions on them.
  EXPECT_EQ(ParseRetrieverKind("settle"), RetrieverKind::kSettle);
  EXPECT_FALSE(ParseRetrieverKind("resume").has_value());
}

}  // namespace
}  // namespace skysr
