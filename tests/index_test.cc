// Distance-oracle index layer tests (tier1): bucket-table distances on
// disconnected and directed graphs, pinned CH and bucket-table bytes, index
// save/load round-trips, the graph-checksum mismatch guard, and
// index-backed engine / service integration. The bit-equality contract of
// distance_oracle.h across every scenario graph family and weight model is
// checked through the bucket tables in retrieval_test.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "graph/dijkstra.h"
#include "graph/graph_builder.h"
#include "index/ch_oracle.h"
#include "index/index_io.h"
#include "retrieval/bucket_io.h"
#include "retrieval/bucket_retriever.h"
#include "retrieval/category_buckets.h"
#include "scenario/diff_check.h"
#include "scenario/scenario.h"
#include "service/query_service.h"
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

/// Every (source, PoI) distance the bucket tables of `g` answer, checked
/// against a flat Dijkstra from each source.
void ExpectBucketDistancesMatchDijkstra(const Graph& g, const char* what) {
  const ChOracle ch = ChOracle::Build(g);
  const CategoryBucketIndex buckets = CategoryBucketIndex::Build(g, ch);
  const BucketRetriever retriever(buckets);
  BucketScanState state;
  SharedQueryCache cache;
  OracleWorkspace ws;
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    retriever.EnsureForward(s, ws, state, cache);
    const DistanceField ref = SingleSourceDistances(g, s);
    for (PoiId p = 0; p < g.num_pois(); ++p) {
      EXPECT_EQ(retriever.ExactDistanceTo(p, state),
                ref.dist[static_cast<size_t>(g.VertexOfPoi(p))])
          << what << " " << s << "->" << g.VertexOfPoi(p);
    }
  }
}

TEST(ChOracleTest, DisconnectedAndDirectedGraphs) {
  // Two components: 0-1-2 and 3-4; plus a directed variant with a one-way
  // shortcut that only helps one direction. A PoI sits on every vertex.
  GraphBuilder b(/*directed=*/false);
  for (int i = 0; i < 5; ++i) b.AddPoi(b.AddVertex(), {0});
  b.AddEdge(0, 1, 1.5);
  b.AddEdge(1, 2, 2.25);
  b.AddEdge(3, 4, 4.0);
  ExpectBucketDistancesMatchDijkstra(b.Build().ValueOrDie(), "undirected");

  GraphBuilder db(/*directed=*/true);
  for (int i = 0; i < 4; ++i) db.AddPoi(db.AddVertex(), {0});
  db.AddEdge(0, 1, 1.0);
  db.AddEdge(1, 2, 1.0);
  db.AddEdge(2, 3, 1.0);
  db.AddEdge(3, 0, 10.0);
  db.AddEdge(0, 3, 1.25);
  ExpectBucketDistancesMatchDijkstra(db.Build().ValueOrDie(), "directed");
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
  ScenarioSpec spec;
  spec.graph =
      FamilyParams(GraphFamily::kCluster, 250, WeightModel::kUniform, 11);
  spec.pois.num_pois = 40;
  const Scenario sc = MakeScenario(spec);
  const Graph& g = sc.dataset.graph;
  const std::string ch_path = ::testing::TempDir() + "/roundtrip.chidx";

  const ChOracle built_ch = ChOracle::Build(g);
  ASSERT_TRUE(SaveOracleIndex(built_ch, ch_path).ok());

  auto ch = LoadOracleIndex(ch_path, g);
  ASSERT_TRUE(ch.ok()) << ch.status().ToString();
  EXPECT_EQ((*ch)->StructureChecksum(), built_ch.StructureChecksum());

  // The bucket tables are the only consumer of the index: built from the
  // loaded oracle, they must write the built oracle's bytes.
  EXPECT_TRUE(
      BucketFileBytes(CategoryBucketIndex::Build(g, built_ch), "built") ==
      BucketFileBytes(CategoryBucketIndex::Build(g, **ch), "loaded"));
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
