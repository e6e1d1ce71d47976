// Unit tests for the graph substrate: builder validation, CSR layout,
// PoI payloads, serialization, spatial grid, PoI embedding, file loaders.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/io.h"
#include "graph/poi_embedding.h"
#include "graph/spatial_grid.h"
#include "util/rng.h"

namespace skysr {
namespace {

Graph Line3() {
  GraphBuilder b;
  b.AddVertex();
  b.AddVertex();
  b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 2.0);
  return std::move(b.Build()).ValueOrDie();
}

TEST(GraphBuilderTest, BuildsUndirectedCsr) {
  const Graph g = Line3();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.directed());
  ASSERT_EQ(g.OutDegree(1), 2);
  EXPECT_EQ(g.OutEdges(0).size(), 1u);
  EXPECT_EQ(g.OutEdges(0)[0].to, 1);
  EXPECT_DOUBLE_EQ(g.OutEdges(0)[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 3.0);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphBuilderTest, DirectedEdgesAreOneWay) {
  GraphBuilder b(/*directed=*/true);
  b.AddVertex();
  b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  const Graph g = std::move(b.Build()).ValueOrDie();
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.OutDegree(1), 0);
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdge) {
  GraphBuilder b;
  b.AddVertex();
  b.AddEdge(0, 5, 1.0);
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, RejectsNegativeAndNonFiniteWeights) {
  {
    GraphBuilder b;
    b.AddVertex();
    b.AddVertex();
    b.AddEdge(0, 1, -1.0);
    EXPECT_FALSE(b.Build().ok());
  }
  {
    GraphBuilder b;
    b.AddVertex();
    b.AddVertex();
    b.AddEdge(0, 1, std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(b.Build().ok());
  }
}

TEST(GraphBuilderTest, RejectsTwoPoisOnOneVertex) {
  GraphBuilder b;
  b.AddVertex();
  b.AddPoi(0, {0});
  b.AddPoi(0, {1});
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, RejectsPoiWithoutCategory) {
  GraphBuilder b;
  b.AddVertex();
  b.AddPoi(0, std::span<const CategoryId>{});
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, PoiPayloadsRoundTrip) {
  GraphBuilder b;
  b.AddVertex();
  b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  b.AddPoi(1, {3, 5}, "Cafe Mitte");
  const Graph g = std::move(b.Build()).ValueOrDie();
  EXPECT_EQ(g.num_pois(), 1);
  EXPECT_EQ(g.PoiAtVertex(0), kInvalidPoi);
  const PoiId p = g.PoiAtVertex(1);
  ASSERT_NE(p, kInvalidPoi);
  EXPECT_EQ(g.VertexOfPoi(p), 1);
  ASSERT_EQ(g.PoiCategories(p).size(), 2u);
  EXPECT_EQ(g.PoiCategories(p)[0], 3);
  EXPECT_EQ(g.PoiPrimaryCategory(p), 3);
  EXPECT_EQ(g.PoiName(p), "Cafe Mitte");
}

TEST(GraphTest, DisconnectedGraphDetected) {
  GraphBuilder b;
  b.AddVertex();
  b.AddVertex();
  b.AddVertex();
  b.AddEdge(0, 1, 1.0);
  const Graph g = std::move(b.Build()).ValueOrDie();
  EXPECT_FALSE(g.IsConnected());
}

TEST(GraphTest, BinarySnapshotRoundTrips) {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(i * 1.0, i * 2.0);
  b.AddEdge(0, 1, 1.5);
  b.AddEdge(1, 2, 2.5);
  b.AddEdge(2, 3, 3.5);
  b.AddEdge(3, 4, 4.5);
  b.AddPoi(2, {7}, "Seven");
  const Graph g = std::move(b.Build()).ValueOrDie();

  const std::string path = ::testing::TempDir() + "/graph_snapshot.bin";
  ASSERT_TRUE(g.SaveBinary(path).ok());
  auto loaded = Graph::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->num_pois(), 1);
  EXPECT_EQ(loaded->PoiName(0), "Seven");
  EXPECT_DOUBLE_EQ(loaded->X(3), 3.0);
  EXPECT_DOUBLE_EQ(loaded->OutEdges(0)[0].weight, 1.5);
  std::remove(path.c_str());
}

TEST(GraphTest, LoadBinaryRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  std::ofstream(path) << "not a snapshot";
  EXPECT_FALSE(Graph::LoadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(ReverseOfTest, ReversesDirectedEdges) {
  GraphBuilder b(/*directed=*/true);
  b.AddVertex();
  b.AddVertex();
  b.AddEdge(0, 1, 3.0);
  b.AddPoi(1, {2}, "P");
  const Graph g = std::move(b.Build()).ValueOrDie();
  const Graph r = ReverseOf(g);
  EXPECT_EQ(r.OutDegree(0), 0);
  ASSERT_EQ(r.OutDegree(1), 1);
  EXPECT_EQ(r.OutEdges(1)[0].to, 0);
  EXPECT_EQ(r.num_pois(), 1);
}

TEST(SpatialGridTest, NearestMatchesBruteForce) {
  Rng rng(9);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    xs.push_back(rng.UniformDouble(0, 100));
    ys.push_back(rng.UniformDouble(0, 100));
  }
  const SpatialGrid grid(xs, ys);
  for (int q = 0; q < 200; ++q) {
    const double x = rng.UniformDouble(-10, 110);
    const double y = rng.UniformDouble(-10, 110);
    int64_t best = -1;
    double best_d2 = 1e300;
    for (size_t i = 0; i < xs.size(); ++i) {
      const double d2 =
          (xs[i] - x) * (xs[i] - x) + (ys[i] - y) * (ys[i] - y);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<int64_t>(i);
      }
    }
    const int64_t got = grid.Nearest(x, y);
    ASSERT_GE(got, 0);
    const double got_d2 = (xs[static_cast<size_t>(got)] - x) *
                              (xs[static_cast<size_t>(got)] - x) +
                          (ys[static_cast<size_t>(got)] - y) *
                              (ys[static_cast<size_t>(got)] - y);
    EXPECT_NEAR(got_d2, best_d2, 1e-12) << "query " << q;
    (void)best;
  }
}

TEST(SpatialGridTest, WithinRadiusIsExact) {
  Rng rng(10);
  std::vector<double> xs, ys;
  for (int i = 0; i < 300; ++i) {
    xs.push_back(rng.UniformDouble(0, 10));
    ys.push_back(rng.UniformDouble(0, 10));
  }
  const SpatialGrid grid(xs, ys);
  const auto got = grid.WithinRadius(5, 5, 2.0);
  size_t expected = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if ((xs[i] - 5) * (xs[i] - 5) + (ys[i] - 5) * (ys[i] - 5) <= 4.0) {
      ++expected;
    }
  }
  EXPECT_EQ(got.size(), expected);
}

// A straight road gets about one cell per `target_per_cell` points, not
// width / 1e-12 columns, and queries far away, at infinity or at NaN still
// answer with a valid index.
TEST(SpatialGridTest, DegenerateInputsStayBounded) {
  std::vector<double> along, zeros(10, 0.0);
  for (int i = 0; i < 10; ++i) along.push_back(i);
  const SpatialGrid row(along, zeros), column(zeros, along);
  EXPECT_LE(row.num_cells(), 16);
  EXPECT_LE(column.num_cells(), 16);
  EXPECT_EQ(row.Nearest(6.2, 0), 6);
  EXPECT_EQ(column.Nearest(0, 6.2), 6);
  const double inf = std::numeric_limits<double>::infinity();
  const double probes[][2] = {{1e300, 0}, {-inf, 0}, {inf, inf}, {NAN, 0}};
  for (const auto& p : probes) {
    const int64_t i = row.Nearest(p[0], p[1]);
    EXPECT_TRUE(i >= 0 && i < 10) << p[0] << "," << p[1] << " -> " << i;
  }
  EXPECT_EQ(row.WithinRadius(0, 0, inf).size(), 10u);
}

TEST(PoiEmbeddingTest, SplitsEdgesAndPreservesTotals) {
  GraphBuilder b;
  b.AddVertex(0, 0);
  b.AddVertex(10, 0);
  b.AddVertex(10, 10);
  b.AddEdge(0, 1, 10.0);
  b.AddEdge(1, 2, 10.0);
  const Graph base = std::move(b.Build()).ValueOrDie();

  std::vector<PoiPoint> pois;
  pois.push_back(PoiPoint{2.0, 1.0, {0}, "A"});   // near edge (0,1) at t=0.2
  pois.push_back(PoiPoint{7.0, -1.0, {1}, "B"});  // near edge (0,1) at t=0.7
  pois.push_back(PoiPoint{11.0, 5.0, {2}, "C"});  // near edge (1,2) at t=0.5

  auto embedded = EmbedPoisOnEdges(base, pois);
  ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
  const Graph& g = *embedded;
  EXPECT_EQ(g.num_vertices(), 6);  // 3 original + 3 PoI vertices
  EXPECT_EQ(g.num_pois(), 3);
  // Total weight is preserved: splits partition the original weights.
  EXPECT_NEAR(g.TotalEdgeWeight(), 20.0, 1e-9);
  EXPECT_TRUE(g.IsConnected());
  // Every PoI vertex has degree 2 (chain insertion).
  for (PoiId p = 0; p < g.num_pois(); ++p) {
    EXPECT_EQ(g.OutDegree(g.VertexOfPoi(p)), 2) << "poi " << p;
  }
}

TEST(PoiEmbeddingTest, RejectsDirectedAndPoiBearingBases) {
  GraphBuilder bd(/*directed=*/true);
  bd.AddVertex(0, 0);
  bd.AddVertex(1, 0);
  bd.AddEdge(0, 1, 1.0);
  const Graph directed = std::move(bd.Build()).ValueOrDie();
  std::vector<PoiPoint> pois = {PoiPoint{0.5, 0, {0}, ""}};
  EXPECT_FALSE(EmbedPoisOnEdges(directed, pois).ok());
}

// Writes the three Cal-format files and loads them through LoadDataset.
Result<Graph> LoadCalText(const std::string& nodes, const std::string& edges,
                          const std::string& pois) {
  const std::string dir = ::testing::TempDir();
  const std::string paths[3] = {dir + "/io_nodes.txt", dir + "/io_edges.txt",
                                dir + "/io_pois.txt"};
  std::ofstream(paths[0]) << nodes;
  std::ofstream(paths[1]) << edges;
  std::ofstream(paths[2]) << pois;
  auto g = LoadDataset(paths[0], paths[1], paths[2]);
  for (const std::string& p : paths) std::remove(p.c_str());
  return g;
}

constexpr char kNodes[] = "# id x y\n0 0.0 0.0\n1 1.0 0.0\n2 1.0 1.0\n";
constexpr char kEdges[] = "0 0 1 1.0\n1 1 2 1.0\n";

TEST(IoTest, LoadsCalFormatFiles) {
  auto g = LoadCalText(kNodes, kEdges, "0.5 0.1 3 Corner Store\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_pois(), 1);
  EXPECT_EQ(g->PoiPrimaryCategory(0), 3);
  EXPECT_EQ(g->PoiName(0), "Corner Store");
  EXPECT_TRUE(g->IsConnected());
}

TEST(IoTest, RejectsMalformedNodeFile) {
  EXPECT_FALSE(LoadCalText("0 0.0\n", "", "").ok());      // missing column
  EXPECT_FALSE(LoadCalText("5 0.0 0.0\n", "", "").ok());  // non-dense id
}

// Non-finite coordinates are refused, and ids are range-checked before
// they narrow to 32 bits: 2^32 + 1 must not load as vertex 1, nor 2^32 + 3
// as category 3. Finite coordinates whose span overflows a double load.
TEST(IoTest, RejectsNonFiniteCoordinatesAndWrappingIds) {
  const std::string poi = "0.5 0.1 3\n";
  for (const std::string bad : {"inf", "-inf", "nan"}) {
    EXPECT_FALSE(
        LoadCalText("0 0 0\n1 " + bad + " 0\n2 1 1\n", kEdges, poi).ok())
        << bad;
    EXPECT_FALSE(LoadCalText(kNodes, kEdges, "0.5 " + bad + " 3\n").ok())
        << bad;
  }
  for (const char* edges : {"0 0 4294967297 1.0\n", "0 4294967296 1 1.0\n",
                            "0 0 3 1.0\n", "0 -1 1 1.0\n"}) {
    EXPECT_FALSE(LoadCalText(kNodes, edges, poi).ok()) << edges;
  }
  for (const char* pois : {"0.5 0.1 4294967299\n", "0.5 0.1 -1\n"}) {
    EXPECT_FALSE(LoadCalText(kNodes, kEdges, pois).ok()) << pois;
  }
  EXPECT_TRUE(
      LoadCalText("0 -1e308 0\n1 1e308 0\n2 1e308 1e308\n", kEdges, poi).ok());
}

}  // namespace
}  // namespace skysr
