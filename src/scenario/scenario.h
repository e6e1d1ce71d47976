// Scenario generator subsystem: deterministic, seed-driven synthesis of
// (graph family, taxonomy family, workload mix) triples.
//
// The paper's synthetic evaluation varies road-network shape, taxonomy
// depth/fanout and query mix; the hand-built fixtures in tests/test_util.h
// cover none of that space. A ScenarioSpec fully describes one instance —
// every field of the generated dataset and workload is a pure function of
// the spec — so any failure reproduces from (suite index, master seed)
// alone. ScenarioSuiteSpec enumerates a deterministic suite that rotates
// graph families, taxonomy shapes and predicate complexity; it feeds the
// differential verification harness (diff_check.h), `skysr_cli gen` and
// the bench_hotpath golden suite.
//
//   Scenario sc = MakeScenario(ScenarioSuiteSpec(17, /*master_seed=*/2026));
//   BssrEngine engine(sc.dataset.graph, sc.dataset.forest);
//   for (const Query& q : sc.queries) engine.Run(q);

#ifndef SKYSR_SCENARIO_SCENARIO_H_
#define SKYSR_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "category/taxonomy_factory.h"
#include "core/query.h"
#include "graph/graph.h"
#include "workload/dataset.h"

namespace skysr {

/// Structural family of a generated road network.
enum class GraphFamily {
  /// Jittered rectangular lattice with optional diagonal shortcuts — the
  /// classic synthetic road-network model (paper §7 "grid").
  kGrid,
  /// Dense urban blobs joined by sparse arterial roads.
  kCluster,
  /// Ring lattice plus random chords (Watts–Strogatz style) — short
  /// diameters that stress distance lower bounds hardest.
  kSmallWorld,
};

/// "grid" / "cluster" / "smallworld".
const char* GraphFamilyName(GraphFamily family);
/// Inverse of GraphFamilyName; nullopt for unknown names.
std::optional<GraphFamily> ParseGraphFamily(std::string_view name);

/// How edge weights are drawn.
enum class WeightModel {
  kUnit,       // every edge weighs 1 (maximizes exact distance ties)
  kUniform,    // U[weight_min, weight_max]
  kEuclidean,  // coordinate distance x (1 + U[0, 0.2]) jitter
};

struct ScenarioGraphParams {
  GraphFamily family = GraphFamily::kGrid;
  int64_t target_vertices = 64;
  /// Extra edges beyond the family's connected skeleton, as a fraction of
  /// the vertex count (degree knob).
  double extra_edge_fraction = 0.25;
  /// Cluster family only: number of urban blobs.
  int num_clusters = 4;
  WeightModel weights = WeightModel::kUniform;
  double weight_min = 1.0;
  double weight_max = 8.0;
  uint64_t seed = 1;
};

/// Builds a connected, undirected, coordinate-bearing graph of the family
/// with no PoIs (MakeScenario embeds PoIs). Deterministic per params.
Graph MakeScenarioGraph(const ScenarioGraphParams& params);

struct ScenarioPoiParams {
  /// Distinct PoI vertices (clamped to the vertex count).
  int64_t num_pois = 12;
  /// Zipf skew of leaf-category popularity (0 = uniform).
  double zipf_theta = 0.0;
  /// Fraction of PoIs given a second leaf category from another tree (§6).
  double multi_category_rate = 0.0;
  uint64_t seed = 2;
};

struct ScenarioWorkloadParams {
  int num_queries = 3;
  /// Sequence length is drawn uniformly from [min_sequence, max_sequence].
  int min_sequence = 1;
  int max_sequence = 3;
  /// Probability that a position asks for 2-3 any_of categories (§6
  /// disjunction) instead of a single one.
  double multi_any_rate = 0.0;
  /// Probability of attaching an all_of constraint to a position; the
  /// constraint is sampled from a real PoI's ancestor set so it is
  /// satisfiable by at least one PoI.
  double all_of_rate = 0.0;
  /// Probability of attaching a none_of constraint to a position.
  double none_of_rate = 0.0;
  /// Probability the query carries a destination vertex (§6).
  double destination_rate = 0.0;
  /// Force pairwise-distinct trees across the positions' PRIMARY (first
  /// any_of) categories — the paper's §7 workload setting when the mix is
  /// otherwise plain. Secondary any_of and none_of terms stay
  /// unconstrained. False also exercises Lemma 5.5 blocker tracking.
  bool distinct_trees = false;
  uint64_t seed = 3;
};

/// One fully-specified scenario. Every generated byte is a function of this
/// struct, so a spec is a complete reproduction recipe.
struct ScenarioSpec {
  std::string name;
  ScenarioGraphParams graph;
  RandomForestParams taxonomy;
  ScenarioPoiParams pois;
  ScenarioWorkloadParams workload;
};

/// A generated instance: the dataset bundle plus its query workload. All
/// queries pass ValidateQuery against the bundled graph + forest.
struct Scenario {
  ScenarioSpec spec;
  Dataset dataset;
  std::vector<Query> queries;
};

/// Generates the scenario described by the spec (graph + embedded PoIs +
/// taxonomy + queries). Deterministic: equal specs yield equal scenarios.
Scenario MakeScenario(const ScenarioSpec& spec);

/// Fans one master seed out to the spec's four sub-generator seeds (graph,
/// taxonomy, pois, workload) via a SplitMix64 chain. Every surface that
/// exposes a single seed (CLI, benches, the suite) goes through this so a
/// newly added seeded sub-generator cannot be missed.
void SeedScenarioSpec(ScenarioSpec* spec, uint64_t master_seed);

/// Generates only the workload part against an existing dataset.
std::vector<Query> MakeScenarioQueries(const Dataset& dataset,
                                       const ScenarioWorkloadParams& params);

/// The deterministic scenario suite: spec number `index` under a master
/// seed. Rotates the three graph families (index % 3), sweeps sizes,
/// taxonomy shapes, weight models and predicate complexity, and keeps two
/// of every five scenarios plain (single-category positions) so the
/// naive-baseline cross-check has coverage across every family (3 and 5
/// are coprime). Instances are tiny enough for brute force.
ScenarioSpec ScenarioSuiteSpec(int index, uint64_t master_seed);

/// The hot-path mix of one graph family that bench_hotpath pins golden work
/// counters on: 800 vertices, 160 PoIs, 24 queries of sequence sizes 1-4
/// with complex predicates, destinations and multi-category PoIs, so every
/// engine path is exercised.
ScenarioSpec HotpathScenarioSpec(GraphFamily family);

}  // namespace skysr

#endif  // SKYSR_SCENARIO_SCENARIO_H_
