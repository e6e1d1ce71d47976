#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace skysr {
namespace {

Graph BuildGraphOrDie(Result<Graph> r) {
  SKYSR_CHECK_MSG(r.ok(), r.status().ToString().c_str());
  return std::move(r).ValueOrDie();
}

/// Triangular noise in [-spread, spread] (sum of two uniforms); avoids libm
/// transcendentals whose rounding varies across platforms.
double Jitter(Rng& rng, double spread) {
  return (rng.UniformDouble() + rng.UniformDouble() - 1.0) * spread;
}

Weight DrawWeight(const ScenarioGraphParams& p, Rng& rng, double x1, double y1,
                  double x2, double y2) {
  switch (p.weights) {
    case WeightModel::kUnit:
      return 1.0;
    case WeightModel::kUniform:
      return rng.UniformDouble(p.weight_min, p.weight_max);
    case WeightModel::kEuclidean: {
      const double dx = x2 - x1;
      const double dy = y2 - y1;
      const double d = std::sqrt(dx * dx + dy * dy);
      return std::max(d, 1e-6) * (1.0 + 0.2 * rng.UniformDouble());
    }
  }
  SKYSR_CHECK_MSG(false, "unknown weight model");
  return 1.0;
}

void AddWeightedEdge(const ScenarioGraphParams& p, Rng& rng, GraphBuilder* b,
                     const std::vector<double>& xs,
                     const std::vector<double>& ys, VertexId u, VertexId v) {
  b->AddEdge(u, v,
             DrawWeight(p, rng, xs[static_cast<size_t>(u)],
                        ys[static_cast<size_t>(u)], xs[static_cast<size_t>(v)],
                        ys[static_cast<size_t>(v)]));
}

/// Jittered lattice; right/down skeleton edges keep it connected even when
/// the last row is ragged, diagonals supply the extra degree.
void BuildGrid(const ScenarioGraphParams& p, Rng& rng, GraphBuilder* b,
               std::vector<double>* xs, std::vector<double>* ys) {
  const int64_t n = p.target_vertices;
  const auto w = static_cast<int64_t>(std::ceil(std::sqrt(
      static_cast<double>(n))));
  for (int64_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % w) + Jitter(rng, 0.2);
    const double y = static_cast<double>(i / w) + Jitter(rng, 0.2);
    b->AddVertex(x, y);
    xs->push_back(x);
    ys->push_back(y);
  }
  for (int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<VertexId>(i);
    if ((i % w) + 1 < w && i + 1 < n) {
      AddWeightedEdge(p, rng, b, *xs, *ys, u, static_cast<VertexId>(i + 1));
    }
    if (i + w < n) {
      AddWeightedEdge(p, rng, b, *xs, *ys, u, static_cast<VertexId>(i + w));
    }
    if ((i % w) + 1 < w && i + w + 1 < n &&
        rng.Bernoulli(p.extra_edge_fraction)) {
      AddWeightedEdge(p, rng, b, *xs, *ys, u,
                      static_cast<VertexId>(i + w + 1));
    }
  }
}

/// Dense blobs around random centers, chained internally; a ring of
/// arterial roads joins the blobs, plus a few extra cross links.
void BuildCluster(const ScenarioGraphParams& p, Rng& rng, GraphBuilder* b,
                  std::vector<double>* xs, std::vector<double>* ys) {
  const int64_t n = p.target_vertices;
  const int64_t c = std::max<int64_t>(
      2, std::min<int64_t>(p.num_clusters, n));
  const double box = 4.0 * std::sqrt(static_cast<double>(c));
  std::vector<double> cx(static_cast<size_t>(c)), cy(static_cast<size_t>(c));
  for (int64_t k = 0; k < c; ++k) {
    cx[static_cast<size_t>(k)] = rng.UniformDouble(0.0, box);
    cy[static_cast<size_t>(k)] = rng.UniformDouble(0.0, box);
  }
  std::vector<VertexId> first(static_cast<size_t>(c), kInvalidVertex);
  std::vector<int64_t> sizes(static_cast<size_t>(c), n / c);
  for (int64_t k = 0; k < n % c; ++k) ++sizes[static_cast<size_t>(k)];
  for (int64_t k = 0; k < c; ++k) {
    VertexId prev = kInvalidVertex;
    std::vector<VertexId> members;
    for (int64_t i = 0; i < sizes[static_cast<size_t>(k)]; ++i) {
      const double x = cx[static_cast<size_t>(k)] + Jitter(rng, 0.8);
      const double y = cy[static_cast<size_t>(k)] + Jitter(rng, 0.8);
      const VertexId v = b->AddVertex(x, y);
      xs->push_back(x);
      ys->push_back(y);
      members.push_back(v);
      if (prev != kInvalidVertex) {
        AddWeightedEdge(p, rng, b, *xs, *ys, prev, v);
      } else {
        first[static_cast<size_t>(k)] = v;
      }
      prev = v;
    }
    // Extra intra-cluster streets (degree knob).
    const auto extra = static_cast<int64_t>(
        p.extra_edge_fraction * static_cast<double>(members.size()));
    for (int64_t e = 0; e < extra && members.size() > 1; ++e) {
      const VertexId u = members[rng.UniformU64(members.size())];
      const VertexId v = members[rng.UniformU64(members.size())];
      if (u != v) AddWeightedEdge(p, rng, b, *xs, *ys, u, v);
    }
  }
  // Arterial ring over cluster gateways keeps the city connected.
  for (int64_t k = 0; k < c; ++k) {
    AddWeightedEdge(p, rng, b, *xs, *ys, first[static_cast<size_t>(k)],
                    first[static_cast<size_t>((k + 1) % c)]);
  }
  const auto cross = static_cast<int64_t>(
      p.extra_edge_fraction * static_cast<double>(c));
  const int64_t total = b->num_vertices();
  for (int64_t e = 0; e < cross; ++e) {
    const auto u = static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(total)));
    const auto v = static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(total)));
    if (u != v) AddWeightedEdge(p, rng, b, *xs, *ys, u, v);
  }
}

/// Ring lattice (i—i+1, i—i+2) plus random chords. Vertices are laid out
/// on the perimeter of a square rather than a circle: same loop topology,
/// but the coordinates need only +,-,/ (no libm cos/sin, whose rounding
/// varies across platforms), keeping generated graphs bit-identical
/// everywhere like the other families.
void BuildSmallWorld(const ScenarioGraphParams& p, Rng& rng, GraphBuilder* b,
                     std::vector<double>* xs, std::vector<double>* ys) {
  const int64_t n = p.target_vertices;
  const int64_t per_side = (n + 3) / 4;
  const double side = static_cast<double>(per_side);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t edge = i / per_side;  // 0..3: bottom, right, top, left
    const double off = static_cast<double>(i % per_side);
    double x = 0, y = 0;
    switch (edge) {
      case 0: x = off, y = 0; break;
      case 1: x = side, y = off; break;
      case 2: x = side - off, y = side; break;
      default: x = 0, y = side - off; break;
    }
    x += Jitter(rng, 0.1);
    y += Jitter(rng, 0.1);
    b->AddVertex(x, y);
    xs->push_back(x);
    ys->push_back(y);
  }
  for (int64_t i = 0; i < n; ++i) {
    const auto u = static_cast<VertexId>(i);
    AddWeightedEdge(p, rng, b, *xs, *ys, u,
                    static_cast<VertexId>((i + 1) % n));
    if (n > 4 && rng.Bernoulli(0.5)) {
      AddWeightedEdge(p, rng, b, *xs, *ys, u,
                      static_cast<VertexId>((i + 2) % n));
    }
  }
  const auto chords = static_cast<int64_t>(
      p.extra_edge_fraction * static_cast<double>(n));
  for (int64_t e = 0; e < chords; ++e) {
    const auto u = static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(n)));
    const auto v = static_cast<VertexId>(
        rng.UniformU64(static_cast<uint64_t>(n)));
    if (u != v) AddWeightedEdge(p, rng, b, *xs, *ys, u, v);
  }
}

void BuildTopology(const ScenarioGraphParams& params, Rng& rng,
                   GraphBuilder* b) {
  SKYSR_CHECK_MSG(params.target_vertices >= 2,
                  "scenario graphs need at least 2 vertices");
  std::vector<double> xs, ys;
  xs.reserve(static_cast<size_t>(params.target_vertices));
  ys.reserve(static_cast<size_t>(params.target_vertices));
  switch (params.family) {
    case GraphFamily::kGrid:
      BuildGrid(params, rng, b, &xs, &ys);
      break;
    case GraphFamily::kCluster:
      BuildCluster(params, rng, b, &xs, &ys);
      break;
    case GraphFamily::kSmallWorld:
      BuildSmallWorld(params, rng, b, &xs, &ys);
      break;
  }
}

}  // namespace

const char* GraphFamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kGrid:
      return "grid";
    case GraphFamily::kCluster:
      return "cluster";
    case GraphFamily::kSmallWorld:
      return "smallworld";
  }
  return "unknown";
}

std::optional<GraphFamily> ParseGraphFamily(std::string_view name) {
  if (name == "grid") return GraphFamily::kGrid;
  if (name == "cluster") return GraphFamily::kCluster;
  if (name == "smallworld" || name == "small-world") {
    return GraphFamily::kSmallWorld;
  }
  return std::nullopt;
}

Graph MakeScenarioGraph(const ScenarioGraphParams& params) {
  Rng rng(params.seed);
  GraphBuilder b(/*directed=*/false);
  BuildTopology(params, rng, &b);
  return BuildGraphOrDie(b.Build());
}

std::vector<Query> MakeScenarioQueries(const Dataset& dataset,
                                       const ScenarioWorkloadParams& params) {
  SKYSR_CHECK(params.min_sequence >= 1);
  SKYSR_CHECK(params.max_sequence >= params.min_sequence);
  const Graph& g = dataset.graph;
  const CategoryForest& forest = dataset.forest;
  Rng rng(params.seed);
  const auto num_cats = static_cast<uint64_t>(forest.num_categories());
  const auto num_vertices = static_cast<uint64_t>(g.num_vertices());

  const auto random_category = [&] {
    return static_cast<CategoryId>(rng.UniformU64(num_cats));
  };

  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(params.num_queries));
  for (int qi = 0; qi < params.num_queries; ++qi) {
    int k = static_cast<int>(
        rng.UniformInt(params.min_sequence, params.max_sequence));
    if (params.distinct_trees) {
      k = std::min<int>(k, static_cast<int>(forest.num_trees()));
    }
    Query q;
    q.start = static_cast<VertexId>(rng.UniformU64(num_vertices));
    std::vector<TreeId> used_trees;
    for (int pos = 0; pos < k; ++pos) {
      CategoryPredicate pred;
      CategoryId primary = random_category();
      if (params.distinct_trees) {
        int guard = 0;
        while (std::find(used_trees.begin(), used_trees.end(),
                         forest.TreeOf(primary)) != used_trees.end()) {
          SKYSR_CHECK_MSG(++guard < 100000,
                          "cannot satisfy distinct-tree constraint");
          primary = random_category();
        }
      }
      used_trees.push_back(forest.TreeOf(primary));
      pred.any_of.push_back(primary);
      if (rng.Bernoulli(params.multi_any_rate)) {
        const int extra = static_cast<int>(rng.UniformInt(1, 2));
        for (int e = 0; e < extra; ++e) {
          const CategoryId c = random_category();
          if (std::find(pred.any_of.begin(), pred.any_of.end(), c) ==
              pred.any_of.end()) {
            pred.any_of.push_back(c);
          }
        }
      }
      if (g.num_pois() > 0 && rng.Bernoulli(params.all_of_rate)) {
        // Anchor the conjunction on a real PoI's ancestor chain so at least
        // one PoI in the dataset satisfies it.
        const auto p = static_cast<PoiId>(
            rng.UniformU64(static_cast<uint64_t>(g.num_pois())));
        const auto cats = g.PoiCategories(p);
        const CategoryId leaf = cats[rng.UniformU64(cats.size())];
        const auto chain = forest.AncestorsOrSelf(leaf);
        pred.all_of.push_back(chain[rng.UniformU64(chain.size())]);
      }
      if (rng.Bernoulli(params.none_of_rate)) {
        pred.none_of.push_back(random_category());
      }
      q.sequence.push_back(std::move(pred));
    }
    if (rng.Bernoulli(params.destination_rate)) {
      q.destination = static_cast<VertexId>(rng.UniformU64(num_vertices));
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

Scenario MakeScenario(const ScenarioSpec& spec) {
  Scenario sc;
  sc.spec = spec;
  sc.dataset.name = spec.name.empty()
                        ? std::string(GraphFamilyName(spec.graph.family)) +
                              "-scenario"
                        : spec.name;
  sc.dataset.forest = MakeRandomForest(spec.taxonomy);

  Rng graph_rng(spec.graph.seed);
  GraphBuilder b(/*directed=*/false);
  BuildTopology(spec.graph, graph_rng, &b);

  // Leaves across all trees, in tree order (deterministic).
  std::vector<CategoryId> leaves;
  for (TreeId t = 0; t < sc.dataset.forest.num_trees(); ++t) {
    const auto tl = sc.dataset.forest.LeavesOfTree(t);
    leaves.insert(leaves.end(), tl.begin(), tl.end());
  }
  SKYSR_CHECK_MSG(!leaves.empty(), "taxonomy has no leaves");

  Rng poi_rng(spec.pois.seed);
  const ZipfDistribution zipf(static_cast<int64_t>(leaves.size()),
                              spec.pois.zipf_theta);
  const int64_t n = b.num_vertices();
  const int64_t num_pois = std::min<int64_t>(spec.pois.num_pois, n);
  // Partial Fisher-Yates: distinct PoI vertices even when num_pois ~ n.
  std::vector<VertexId> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] =
      static_cast<VertexId>(i);
  for (int64_t i = 0; i < num_pois; ++i) {
    const int64_t j = i + static_cast<int64_t>(
        poi_rng.UniformU64(static_cast<uint64_t>(n - i)));
    std::swap(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(j)]);
    std::vector<CategoryId> cats = {leaves[static_cast<size_t>(
        zipf.Sample(poi_rng))]};
    if (poi_rng.Bernoulli(spec.pois.multi_category_rate) &&
        sc.dataset.forest.num_trees() > 1) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const CategoryId extra =
            leaves[static_cast<size_t>(zipf.Sample(poi_rng))];
        if (sc.dataset.forest.TreeOf(extra) !=
            sc.dataset.forest.TreeOf(cats[0])) {
          cats.push_back(extra);
          break;
        }
      }
    }
    b.AddPoi(ids[static_cast<size_t>(i)],
             std::span<const CategoryId>(cats),
             "P" + std::to_string(i));
  }
  sc.dataset.graph = BuildGraphOrDie(b.Build());
  sc.queries = MakeScenarioQueries(sc.dataset, spec.workload);
  return sc;
}

void SeedScenarioSpec(ScenarioSpec* spec, uint64_t master_seed) {
  uint64_t sm = master_seed;
  spec->graph.seed = SplitMix64(sm);
  spec->taxonomy.seed = SplitMix64(sm);
  spec->pois.seed = SplitMix64(sm);
  spec->workload.seed = SplitMix64(sm);
}

ScenarioSpec ScenarioSuiteSpec(int index, uint64_t master_seed) {
  SKYSR_CHECK(index >= 0);
  ScenarioSpec s;
  // Independent sub-seeds derived from (master, index).
  SeedScenarioSpec(&s, master_seed ^ (0x9E3779B97F4A7C15ULL *
                                      static_cast<uint64_t>(index + 1)));
  const auto family = static_cast<GraphFamily>(index % 3);
  s.graph.family = family;
  s.graph.target_vertices = 24 + (index * 7) % 48;          // 24..71
  s.graph.extra_edge_fraction = 0.10 + 0.05 * (index % 5);  // 0.10..0.30
  s.graph.num_clusters = 3 + index % 3;
  s.graph.weights = static_cast<WeightModel>((index / 3) % 3);

  s.taxonomy.num_trees = 2 + index % 3;        // 2..4
  s.taxonomy.max_fanout = 2 + (index / 2) % 2; // 2..3
  s.taxonomy.max_levels = 1 + index % 3;       // 1..3

  s.pois.num_pois = 8 + index % 7;  // 8..14 — brute-force friendly
  s.pois.zipf_theta = (index % 2 == 0) ? 0.0 : 0.8;
  s.pois.multi_category_rate = (index % 4 == 1) ? 0.4 : 0.0;

  s.workload.num_queries = 3;
  s.workload.min_sequence = 1;
  s.workload.max_sequence = 3;
  // 3 and 5 are coprime, so "plain" scenarios cover every graph family.
  const bool plain = (index % 5 < 2);
  if (!plain) {
    s.workload.multi_any_rate = 0.30;
    s.workload.all_of_rate = 0.25;
    s.workload.none_of_rate = 0.25;
  }
  s.workload.destination_rate = (index % 4 == 3) ? 0.5 : 0.0;
  s.workload.distinct_trees = (index % 2 == 0);

  s.name = std::string(GraphFamilyName(family)) + "-" + std::to_string(index);
  return s;
}

ScenarioSpec HotpathScenarioSpec(GraphFamily family) {
  ScenarioSpec spec;
  spec.name = GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = 800;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 4;
  spec.taxonomy.max_fanout = 4;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = 160;
  spec.pois.zipf_theta = 0.5;
  spec.pois.multi_category_rate = 0.1;
  spec.workload.num_queries = 24;
  spec.workload.min_sequence = 1;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.15;
  spec.workload.all_of_rate = 0.1;
  spec.workload.none_of_rate = 0.1;
  spec.workload.destination_rate = 0.25;
  SeedScenarioSpec(&spec, /*master_seed=*/20260730 + static_cast<int>(family));
  return spec;
}

}  // namespace skysr
