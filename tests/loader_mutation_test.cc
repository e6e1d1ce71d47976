// Hostile-bytes sweep over the three binary formats the library persists —
// graph snapshots (graph.bin), CH oracle indexes (.chidx) and category-bucket
// tables (.cbkt) — and the text formats: the workload (start|dest|
// predicates, with '+' all_of and '!' none_of terms), the Cal-format road
// network and PoI files (nodes, edges, PoIs) and the indented taxonomy.
// Every truncation of a small valid file, and 200 seeded single-byte
// corruptions of it, must come back from the loader as a Status or as a
// structure that is safe to use: a truncated binary file is always rejected
// (a truncated text file may still be a valid, shorter one), and a
// corrupted one is either rejected or loads. Text files also get 200 seeded
// edits aimed at their number and field paths (MutateText), which random
// byte flips almost never reach. A loader that crashes, or accepts a
// structure that crashes its first consumer, fails here (and under the
// sanitizer build, reads out of bounds are caught even when they happen not
// to crash).

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "category/text_format.h"
#include "core/bssr_engine.h"
#include "graph/dijkstra_runner.h"
#include "graph/io.h"
#include "index/ch_oracle.h"
#include "index/index_io.h"
#include "retrieval/bucket_io.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "workload/query_gen.h"

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

/// One seeded edit aimed at a text parser's number and field paths: a
/// digit changed or inserted (ids grow past the graph, 2^31 and 2^32), a
/// separator swapped, a character deleted, or a number replaced by an edge
/// value.
Bytes MutateText(Bytes text, Rng& rng) {
  static constexpr std::string_view kSeparators = " \t\n|;,.+!-#";
  static constexpr std::string_view kEdgeValues[] = {
      "4294967297", "2147483648", "-1", "1e308", "inf", "nan",
      "99999999999999999999"};
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  // The first byte matching `pred` from a random start, wrapping around.
  const auto find = [&](auto pred) {
    const size_t start = rng.UniformU64(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
      if (pred(text[(start + i) % text.size()])) {
        return (start + i) % text.size();
      }
    }
    return start;
  };
  const auto some_digit = [&] {
    return static_cast<char>('0' + rng.UniformU64(10));
  };
  switch (rng.UniformU64(5)) {
    case 0:
      text[find(digit)] = some_digit();
      break;
    case 1:
      text.insert(text.begin() + static_cast<ptrdiff_t>(find(digit)),
                  some_digit());
      break;
    case 2: {
      const size_t at = find(
          [](char c) { return kSeparators.find(c) != kSeparators.npos; });
      text[at] = kSeparators[rng.UniformU64(kSeparators.size())];
      break;
    }
    case 3:
      text.erase(text.begin() +
                 static_cast<ptrdiff_t>(rng.UniformU64(text.size())));
      break;
    default: {
      size_t begin = find(digit), end = begin;
      while (begin > 0 && digit(text[begin - 1])) --begin;
      while (end < text.size() && digit(text[end])) ++end;
      const std::string_view v =
          kEdgeValues[rng.UniformU64(std::size(kEdgeValues))];
      text.erase(text.begin() + static_cast<ptrdiff_t>(begin),
                 text.begin() + static_cast<ptrdiff_t>(end));
      text.insert(text.begin() + static_cast<ptrdiff_t>(begin), v.begin(),
                  v.end());
    }
  }
  return text;
}

/// Runs `load` on every proper prefix of `bytes` (each must be rejected
/// unless `text`: a prefix of a text file may still be a valid, shorter
/// one), on `kFlips` seeded single-byte corruptions and, for `text`, on
/// `kFlips` seeded MutateText edits (each may load or not). `load` writes
/// nothing but the scratch file and returns the load status; it is expected
/// to exercise whatever it loaded.
template <typename Load>
void Sweep(const Bytes& bytes, const std::string& scratch, uint64_t seed,
           Load load, bool text = false) {
  ASSERT_FALSE(bytes.empty());
  WriteFile(scratch, bytes.data(), bytes.size());
  ASSERT_TRUE(load().ok()) << "the unmodified file must load";

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFile(scratch, bytes.data(), cut);
    SCOPED_TRACE("truncated at byte " + std::to_string(cut) + " of " +
                 std::to_string(bytes.size()));
    const bool loaded = load().ok();
    if (!text) {
      ASSERT_FALSE(loaded);
    }
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

  for (int i = 0; text && i < kFlips; ++i) {
    const Bytes mutated = MutateText(bytes, rng);
    WriteFile(scratch, mutated.data(), mutated.size());
    SCOPED_TRACE("text edit " + std::to_string(i) + ": " +
                 std::string(mutated.begin(), mutated.end()));
    (void)load();
  }
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
      std::vector<std::pair<VertexId, Weight>> settled;
      for (VertexId s = 0; s < g.num_vertices(); s += 7) {
        settled.clear();
        ch.ForwardUpwardSearch(s, ws, &settled);
        ch.BackwardUpwardSearch(
            static_cast<VertexId>(g.num_vertices() - 1 - s), ws, &settled);
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

// The workload text format: the scenario's queries plus one with a
// destination, a '+' (all_of) and a '!' (none_of) term. Whatever a mutant
// loads must be a workload the engine accepts: every query passes
// ValidateQuery (so a vertex id out of the graph's range, or one of 2^32
// and above that a narrowing cast would wrap to a valid id, is a parse
// error) and runs.
TEST(LoaderMutationTest, WorkloadFile) {
  const SavedFiles files;
  const Dataset& ds = files.scenario.dataset;
  std::vector<Query> queries = files.scenario.queries;
  ASSERT_FALSE(queries.empty());
  Query complex = queries[0];
  ASSERT_GE(complex.size(), 2);
  complex.destination = static_cast<VertexId>(ds.graph.num_vertices() - 1);
  complex.sequence[0].all_of.push_back(complex.sequence[0].any_of[0]);
  complex.sequence[1].none_of.push_back(
      ds.forest.RootOf(ds.forest.num_trees() - 1));
  queries.push_back(complex);
  const std::string path = files.dir + "/mutation_workload.txt";
  ASSERT_TRUE(WriteWorkloadFile(path, ds, queries).ok());
  const Bytes bytes = ReadFile(path);
  ASSERT_NE(std::string(bytes.begin(), bytes.end()).find('+'),
            std::string::npos);
  ASSERT_NE(std::string(bytes.begin(), bytes.end()).find('!'),
            std::string::npos);

  BssrEngine engine(ds.graph, ds.forest);
  Sweep(
      bytes, files.scratch_path, 404,
      [&] {
        auto loaded = LoadWorkloadFile(files.scratch_path, ds);
        if (loaded.ok()) {
          for (const Query& q : *loaded) {
            EXPECT_TRUE(ValidateQuery(ds.graph, ds.forest, q).ok());
            EXPECT_TRUE(engine.Run(q).ok());
          }
        }
        return loaded.status();
      },
      /*text=*/true);

  // Vertex ids just past the graph and past 2^32 are refused, not wrapped.
  const std::string name = ds.forest.Name(ds.forest.RootOf(0));
  for (const std::string& line :
       {std::to_string(ds.graph.num_vertices()) + "|-|" + name,
        "4294967296|-|" + name, "0|4294967297|" + name, "-1|-|" + name}) {
    WriteFile(files.scratch_path, line.data(), line.size());
    EXPECT_FALSE(LoadWorkloadFile(files.scratch_path, ds).ok()) << line;
  }
}

// The Cal-format text files LoadDataset reads: a 4 x 4 grid of nodes, its
// edges and five PoIs (one named). Each file is swept on its own while the
// other two stay valid; whatever loads must be a graph its consumers can
// walk, with every PoI of the file placed on it.
TEST(LoaderMutationTest, CalTextFiles) {
  const std::string dir = ::testing::TempDir() + "/mutation_cal_";
  const std::string paths[3] = {dir + "nodes.txt", dir + "edges.txt",
                                dir + "pois.txt"};
  std::string files[3] = {"# id x y\n", "",
                          "0.5 0.5 3 Corner Store\n1.2 1.5 7\n2.5 2.4 1\n"
                          "0.1 2.5 4\n2.9 0.2 7\n"};
  int edges = 0;
  const auto add_edge = [&](int u, int v, const char* w) {
    files[1] += std::to_string(edges++) + " " + std::to_string(u) + " " +
                std::to_string(v) + " " + w + "\n";
  };
  for (int v = 0; v < 16; ++v) {
    files[0] += std::to_string(v) + " " + std::to_string(v % 4) + " " +
                std::to_string(v / 4) + ".5\n";
    if (v % 4 != 3) add_edge(v, v + 1, "1.25");
    if (v < 12) add_edge(v, v + 4, "1.5");
  }
  const std::string scratch = dir + "scratch.txt";
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 3; ++i) {
      WriteFile(paths[i], files[i].data(), files[i].size());
    }
    const auto path = [&](int i) { return i == f ? scratch : paths[i]; };
    SCOPED_TRACE("sweeping " + paths[f]);
    Sweep(
        Bytes(files[f].begin(), files[f].end()), scratch,
        static_cast<uint64_t>(505 + f),
        [&] {
          auto loaded = LoadDataset(path(0), path(1), path(2));
          if (loaded.ok()) {
            UseGraph(*loaded);
            EXPECT_EQ(static_cast<size_t>(loaded->num_pois()),
                      LoadPoiPoints(path(2))->size());
          }
          return loaded.status();
        },
        /*text=*/true);
  }
}

// The indented taxonomy text: whatever loads must be a forest whose every
// category can be named, walked to its root and paired with its tree's
// root.
TEST(LoaderMutationTest, TaxonomyText) {
  const SavedFiles files;
  const std::string text = ForestToText(files.scenario.dataset.forest);
  Sweep(
      Bytes(text.begin(), text.end()), files.scratch_path, 606,
      [&] {
        auto loaded = LoadForestFile(files.scratch_path);
        if (loaded.ok()) {
          const CategoryForest& f = *loaded;
          for (CategoryId c = 0; c < f.num_categories(); ++c) {
            EXPECT_EQ(f.FindByName(f.Name(c)), c);
            (void)f.Children(c);
            (void)f.AncestorsOrSelf(c);
            const CategoryId root = f.RootOf(f.TreeOf(c));
            EXPECT_EQ(f.Lca(c, root), root);
            EXPECT_LE(f.Depth(root), f.Depth(c));
          }
          EXPECT_TRUE(ForestFromText(ForestToText(f)).ok());
        }
        return loaded.status();
      },
      /*text=*/true);
}

}  // namespace
}  // namespace skysr
