// Hostile-bytes sweep over the three binary formats the library persists:
// graph snapshots (graph.bin), CH oracle indexes (.chidx) and category-bucket
// tables (.cbkt). Every truncation of a small valid file, and 200 seeded
// single-byte corruptions of it, must come back from the loader as a
// Status: a truncated file is always rejected, and a corrupted one is
// either rejected or loads into a structure that is safe to use. A loader
// that crashes, or accepts a structure that crashes its first consumer,
// fails here (and under the sanitizer build, reads out of bounds are
// caught even when they happen not to crash).

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bssr_engine.h"
#include "graph/dijkstra_runner.h"
#include "index/ch_oracle.h"
#include "index/index_io.h"
#include "retrieval/bucket_io.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace skysr {
namespace {

constexpr int kFlips = 200;

using Bytes = std::vector<char>;

Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const char* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(size));
}

/// A small grid scenario with its CH index and bucket tables saved to disk.
struct SavedFiles {
  Scenario scenario;
  std::unique_ptr<ChOracle> ch;
  std::string dir = ::testing::TempDir();
  std::string graph_path = dir + "/mutation_graph.bin";
  std::string ch_path = dir + "/mutation_index.chidx";
  std::string buckets_path = dir + "/mutation_index.cbkt";
  std::string scratch_path = dir + "/mutation_scratch.bin";

  SavedFiles() {
    ScenarioSpec spec;
    spec.name = "loader-mutation";
    spec.graph.family = GraphFamily::kGrid;
    spec.graph.target_vertices = 48;
    spec.pois.num_pois = 12;
    spec.workload.num_queries = 2;
    spec.workload.min_sequence = 2;
    spec.workload.max_sequence = 2;
    SeedScenarioSpec(&spec, 3);
    scenario = MakeScenario(spec);
    const Graph& g = scenario.dataset.graph;
    ch = std::make_unique<ChOracle>(ChOracle::Build(g));
    EXPECT_TRUE(g.SaveBinary(graph_path).ok());
    EXPECT_TRUE(SaveOracleIndex(*ch, ch_path).ok());
    EXPECT_TRUE(
        SaveBucketIndex(CategoryBucketIndex::Build(g, *ch), buckets_path).ok());
  }
};

/// Runs `load` on every proper prefix of `bytes` (each must be rejected)
/// and on `kFlips` seeded single-byte corruptions (each may load or not).
/// `load` writes nothing but the scratch file and returns the load status;
/// it is expected to exercise whatever it loaded.
template <typename Load>
void Sweep(const Bytes& bytes, const std::string& scratch, uint64_t seed,
           Load load) {
  ASSERT_FALSE(bytes.empty());
  WriteFile(scratch, bytes.data(), bytes.size());
  ASSERT_TRUE(load().ok()) << "the unmodified file must load";

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFile(scratch, bytes.data(), cut);
    ASSERT_FALSE(load().ok()) << "truncated at byte " << cut << " of "
                              << bytes.size();
  }

  Rng rng(seed);
  int accepted = 0;
  for (int i = 0; i < kFlips; ++i) {
    Bytes mutated = bytes;
    const size_t at = rng.UniformU64(mutated.size());
    const auto mask = static_cast<char>(1 + rng.UniformU64(255));
    mutated[at] = static_cast<char>(mutated[at] ^ mask);
    WriteFile(scratch, mutated.data(), mutated.size());
    SCOPED_TRACE("flip " + std::to_string(i) + " at byte " +
                 std::to_string(at));
    if (load().ok()) ++accepted;
  }
  // Flips in payload bytes no validator can see (coordinates, names,
  // weights) load fine; most flips must still be caught.
  EXPECT_LT(accepted, kFlips);
}

/// Exercises a loaded graph the way the oracle and bucket loaders do: a
/// checksum pass over every adjacency list and PoI, and a full Dijkstra.
void UseGraph(const Graph& g) {
  (void)GraphChecksum(g);
  (void)PoiAssignmentChecksum(g);
  (void)g.IsConnected();
  for (PoiId p = 0; p < g.num_pois(); ++p) (void)g.PoiName(p);
  DijkstraWorkspace ws;
  RunDijkstra(g, 0, ws, [](VertexId, Weight, VertexId) {
    return VisitAction::kContinue;
  });
}

TEST(LoaderMutationTest, GraphSnapshot) {
  const SavedFiles files;
  Sweep(ReadFile(files.graph_path), files.scratch_path, 101, [&] {
    auto loaded = Graph::LoadBinary(files.scratch_path);
    if (loaded.ok()) UseGraph(*loaded);
    return loaded.status();
  });
}

TEST(LoaderMutationTest, ChOracleIndex) {
  const SavedFiles files;
  const Graph& g = files.scenario.dataset.graph;
  Sweep(ReadFile(files.ch_path), files.scratch_path, 202, [&] {
    auto loaded = LoadOracleIndex(files.scratch_path, g);
    if (loaded.ok()) {
      const auto& ch = static_cast<const ChOracle&>(**loaded);
      OracleWorkspace ws;
      for (VertexId s = 0; s < g.num_vertices(); s += 7) {
        (void)ch.Distance(s, static_cast<VertexId>(g.num_vertices() - 1 - s),
                          ws);
      }
      // Building bucket tables unpacks every upward edge.
      (void)CategoryBucketIndex::Build(g, ch);
    }
    return loaded.status();
  });
}

// The header's kind byte (right after the 8-byte magic) names the oracle.
// Only CH (1) loads: flat (0) has no index and 2 is the retired landmark
// index, so a valid CH payload behind either byte is still rejected.
TEST(LoaderMutationTest, OracleIndexRejectsNonChKinds) {
  const SavedFiles files;
  const Graph& g = files.scenario.dataset.graph;
  const Bytes bytes = ReadFile(files.ch_path);
  ASSERT_GT(bytes.size(), 8u);
  ASSERT_EQ(bytes[8], 1);
  for (const char kind : {0, 2}) {
    Bytes mutated = bytes;
    mutated[8] = kind;
    WriteFile(files.scratch_path, mutated.data(), mutated.size());
    const auto loaded = LoadOracleIndex(files.scratch_path, g);
    ASSERT_FALSE(loaded.ok()) << "kind byte " << static_cast<int>(kind);
    EXPECT_NE(loaded.status().ToString().find("unsupported oracle index kind"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(LoaderMutationTest, CategoryBucketTables) {
  const SavedFiles files;
  const Dataset& ds = files.scenario.dataset;
  Sweep(ReadFile(files.buckets_path), files.scratch_path, 303, [&] {
    auto loaded = LoadBucketIndex(files.scratch_path, ds.graph, *files.ch);
    if (loaded.ok()) {
      QueryOptions options;
      options.retriever = RetrieverKind::kBucket;
      BssrEngine engine(ds.graph, ds.forest, files.ch.get(), &*loaded);
      for (const Query& q : files.scenario.queries) {
        (void)engine.Run(q, options);
      }
    }
    return loaded.status();
  });
}

}  // namespace
}  // namespace skysr
