// Response-time sweep over the scenario generator's graph families
// (bench_fig3-style, but on synthetic grid / cluster / small-world networks
// instead of the Tokyo/NYC/Cal-like datasets): BSSR with all optimizations
// across sequence sizes, plus the skyline-size profile of each family.
//
// Knobs: SKYSR_BENCH_SCALE (vertex-count multiplier), SKYSR_BENCH_QUERIES,
//        SKYSR_ORACLE (flat|ch — back the engine with an index-layer
//        distance oracle), SKYSR_XCACHE (on|1 — attach an engine-lifetime
//        SharedQueryCache so warm cross-query state carries across the
//        sweep; per-config cache counters land in the JSON). Emits
//        BENCH_scenarios.json (override the path with SKYSR_BENCH_JSON_OUT)
//        for perf-trajectory tracking.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string_view>

#include "bench/bench_common.h"
#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "index/oracle_factory.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "util/timer.h"

namespace skysr {
namespace {

ScenarioSpec BenchSpec(GraphFamily family, int64_t vertices, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = vertices;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.graph.num_clusters = 8;
  spec.taxonomy.num_trees = 6;
  spec.taxonomy.max_fanout = 3;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = vertices / 4;
  spec.pois.zipf_theta = 0.8;
  SeedScenarioSpec(&spec, seed);
  return spec;
}

void Run() {
  const double scale = bench::EnvDouble("SKYSR_BENCH_SCALE", 1.0);
  const int queries = bench::EnvInt("SKYSR_BENCH_QUERIES", 5);
  const auto vertices = static_cast<int64_t>(4000 * scale);

  const OracleKind oracle_kind =
      OracleKindFromEnv(OracleKind::kFlat).value_or(OracleKind::kFlat);
  const char* xcache_env = std::getenv("SKYSR_XCACHE");
  const bool xcache_on =
      xcache_env != nullptr && (std::string_view(xcache_env) == "on" ||
                                std::string_view(xcache_env) == "1");

  bench::TablePrinter table({"family", "|V|", "|P|", "size", "mean ms",
                             "max ms", "skyline"});
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "scenarios");
  bench::WriteStandardMeta(&json);
  json.Field("oracle", OracleKindName(oracle_kind));
  json.Field("xcache", xcache_on ? "on" : "off");
  json.Field("queries_per_config", static_cast<int64_t>(queries));
  json.BeginArray("configs");
  for (GraphFamily family : {GraphFamily::kGrid, GraphFamily::kCluster,
                             GraphFamily::kSmallWorld}) {
    const Scenario sc = MakeScenario(BenchSpec(family, vertices,
                                               /*seed=*/2026));
    // With the cache axis on and a CH oracle, also build the bucket tables:
    // the auto retriever only engages the cacheable bucket backend when they
    // exist, so this is what makes the forward-search counters non-zero.
    std::unique_ptr<ChOracle> ch;
    std::unique_ptr<CategoryBucketIndex> buckets;
    std::unique_ptr<DistanceOracle> oracle;
    if (xcache_on && oracle_kind == OracleKind::kCh) {
      ch = std::make_unique<ChOracle>(ChOracle::Build(sc.dataset.graph));
      buckets = std::make_unique<CategoryBucketIndex>(
          CategoryBucketIndex::Build(sc.dataset.graph, *ch));
    } else if (oracle_kind != OracleKind::kFlat) {
      oracle = MakeOracle(oracle_kind, sc.dataset.graph);
    }
    BssrEngine engine(sc.dataset.graph, sc.dataset.forest,
                      ch != nullptr ? ch.get() : oracle.get(), buckets.get());
    std::optional<SharedQueryCache> xcache;
    if (xcache_on) {
      xcache.emplace();
      engine.AttachSharedCache(&*xcache);
    }
    SharedCacheCounters seen;
    for (int size = 2; size <= 4; ++size) {
      ScenarioWorkloadParams wl = sc.spec.workload;
      wl.num_queries = queries;
      wl.min_sequence = size;
      wl.max_sequence = size;
      const std::vector<Query> batch = MakeScenarioQueries(sc.dataset, wl);
      double total_ms = 0, max_ms = 0;
      int64_t total_routes = 0;
      int ok = 0;
      for (const Query& q : batch) {
        WallTimer t;
        auto r = engine.Run(q);
        if (!r.ok()) continue;
        const double ms = t.ElapsedMillis();
        total_ms += ms;
        max_ms = ms > max_ms ? ms : max_ms;
        total_routes += static_cast<int64_t>(r->routes.size());
        ++ok;
      }
      if (ok == 0) continue;
      table.AddRow({GraphFamilyName(family),
                    bench::FmtInt(sc.dataset.graph.num_vertices()),
                    bench::FmtInt(sc.dataset.graph.num_pois()),
                    bench::FmtInt(size), bench::Fmt("%.2f", total_ms / ok),
                    bench::Fmt("%.2f", max_ms),
                    bench::Fmt("%.2f", static_cast<double>(total_routes) /
                                           ok)});
      json.BeginObject();
      json.Field("family", GraphFamilyName(family));
      json.Field("vertices", sc.dataset.graph.num_vertices());
      json.Field("pois", sc.dataset.graph.num_pois());
      json.Field("sequence_size", static_cast<int64_t>(size));
      json.Field("mean_ms", total_ms / ok);
      json.Field("max_ms", max_ms);
      json.Field("mean_skyline", static_cast<double>(total_routes) / ok);
      if (xcache.has_value()) {
        // Per-config deltas of the engine-lifetime counters; the cache
        // stays warm across the sequence-size sweep of one family.
        const SharedCacheCounters now = xcache->Counters();
        json.BeginObject("xcache");
        json.Field("fwd_hits", now.fwd_hits - seen.fwd_hits);
        json.Field("fwd_misses", now.fwd_misses - seen.fwd_misses);
        json.Field("fwd_evictions", now.fwd_evictions - seen.fwd_evictions);
        json.Field("resume_reuses", now.resume_reuses - seen.resume_reuses);
        json.Field("resume_evictions",
                   now.resume_evictions - seen.resume_evictions);
        json.Field("resident_bytes", xcache->ResidentBytes());
        json.EndObject();
        seen = now;
      }
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  std::printf("BSSR response time on scenario graph families "
              "(all optimizations on, oracle=%s)\n\n",
              OracleKindName(oracle_kind));
  table.Print();
  const char* json_out = std::getenv("SKYSR_BENCH_JSON_OUT");
  const std::string out_path =
      json_out != nullptr ? json_out : "BENCH_scenarios.json";
  if (json.WriteFile(out_path)) std::printf("\nwrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace skysr

int main() {
  skysr::Run();
  return 0;
}
