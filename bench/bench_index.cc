// Index-layer benchmark: oracle build cost, point-to-point distance-query
// speedup over flat Dijkstra, and CH bucket many-to-many throughput, per
// scenario graph family. Every timed query is also verified bit-equal to
// flat Dijkstra, so the bench doubles as a large-graph exactness check.
//
// Emits a human table plus machine-readable BENCH_index.json (written to
// the working directory, override with SKYSR_BENCH_JSON_OUT) so the perf
// trajectory of the index layer is tracked across commits. The acceptance
// gate for the index layer is the `p2p_speedup_ch` figure of the largest
// family instance (>= 3x over flat Dijkstra).
//
// Knobs: SKYSR_BENCH_SCALE   vertex-count multiplier (default 1.0 = 4000)
//        SKYSR_BENCH_PAIRS   point-to-point query pairs (default 200)

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "index/oracle_factory.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "util/timer.h"

namespace skysr {
namespace {

Graph BenchGraph(GraphFamily family, int64_t vertices) {
  ScenarioGraphParams p;
  p.family = family;
  p.target_vertices = vertices;
  p.weights = WeightModel::kEuclidean;
  p.num_clusters = 8;
  p.seed = 2026 + static_cast<uint64_t>(family);
  return MakeScenarioGraph(p);
}

struct P2pTiming {
  double total_ms = 0;
  int64_t mismatches = 0;
};

template <typename DistFn>
P2pTiming TimePairs(const std::vector<std::pair<VertexId, VertexId>>& pairs,
                    const std::vector<Weight>& reference, DistFn&& fn) {
  P2pTiming t;
  WallTimer timer;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const Weight d = fn(pairs[i].first, pairs[i].second);
    if (d != reference[i]) ++t.mismatches;
  }
  t.total_ms = timer.ElapsedMillis();
  return t;
}

void Run() {
  const double scale = bench::EnvDouble("SKYSR_BENCH_SCALE", 1.0);
  const int num_pairs = bench::EnvInt("SKYSR_BENCH_PAIRS", 200);
  const auto vertices = static_cast<int64_t>(4000 * scale);
  const char* json_out = std::getenv("SKYSR_BENCH_JSON_OUT");

  std::printf("index-layer bench: |V|~%lld per family, %d p2p pairs\n\n",
              static_cast<long long>(vertices), num_pairs);
  bench::TablePrinter table({"family", "|V|", "ch build ms", "shortcuts",
                             "flat us/q", "ch us/q", "ch speedup",
                             "m2m ch speedup"});
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", "index");
  bench::WriteStandardMeta(&json);
  json.Field("vertices_per_family", static_cast<int64_t>(vertices));
  json.Field("p2p_pairs", static_cast<int64_t>(num_pairs));
  json.BeginArray("families");

  for (GraphFamily family : {GraphFamily::kGrid, GraphFamily::kCluster,
                             GraphFamily::kSmallWorld}) {
    const Graph g = BenchGraph(family, vertices);
    const auto ch =
        std::unique_ptr<DistanceOracle>(MakeOracle(OracleKind::kCh, g));
    const auto& ch_stats =
        static_cast<const ChOracle&>(*ch).build_stats();
    const FlatOracle flat(g);
    OracleWorkspace ws;

    Rng rng(42);
    std::vector<std::pair<VertexId, VertexId>> pairs;
    for (int i = 0; i < num_pairs; ++i) {
      pairs.emplace_back(
          static_cast<VertexId>(rng.UniformInt(0, g.num_vertices() - 1)),
          static_cast<VertexId>(rng.UniformInt(0, g.num_vertices() - 1)));
    }
    std::vector<Weight> reference;
    reference.reserve(pairs.size());
    for (const auto& [s, t] : pairs) {
      reference.push_back(flat.Distance(s, t, ws));
    }

    const P2pTiming flat_t = TimePairs(
        pairs, reference,
        [&](VertexId s, VertexId t) { return flat.Distance(s, t, ws); });
    const P2pTiming ch_t = TimePairs(
        pairs, reference,
        [&](VertexId s, VertexId t) { return ch->Distance(s, t, ws); });
    if (ch_t.mismatches != 0) {
      std::fprintf(stderr, "!! %s: %lld CH mismatches vs flat Dijkstra\n",
                   GraphFamilyName(family),
                   static_cast<long long>(ch_t.mismatches));
    }

    // Many-to-many: an NNinit/lower-bound-shaped table (few sources, many
    // targets).
    std::vector<VertexId> m2m_sources, m2m_targets;
    for (int i = 0; i < 8; ++i) {
      m2m_sources.push_back(
          static_cast<VertexId>(rng.UniformInt(0, g.num_vertices() - 1)));
    }
    for (int j = 0; j < 128; ++j) {
      m2m_targets.push_back(
          static_cast<VertexId>(rng.UniformInt(0, g.num_vertices() - 1)));
    }
    std::vector<Weight> m2m_flat(m2m_sources.size() * m2m_targets.size());
    std::vector<Weight> m2m_ch(m2m_flat.size());
    WallTimer m2m_flat_timer;
    flat.Table(m2m_sources, m2m_targets, ws, m2m_flat.data());
    const double m2m_flat_ms = m2m_flat_timer.ElapsedMillis();
    WallTimer m2m_ch_timer;
    ch->Table(m2m_sources, m2m_targets, ws, m2m_ch.data());
    const double m2m_ch_ms = m2m_ch_timer.ElapsedMillis();
    int64_t m2m_mismatches = 0;
    for (size_t i = 0; i < m2m_flat.size(); ++i) {
      if (m2m_flat[i] != m2m_ch[i]) ++m2m_mismatches;
    }
    if (m2m_mismatches != 0) {
      std::fprintf(stderr, "!! %s: %lld m2m mismatches\n",
                   GraphFamilyName(family),
                   static_cast<long long>(m2m_mismatches));
    }

    const double us_per = 1000.0 / num_pairs;
    const double ch_speedup = ch_t.total_ms > 0
                                  ? flat_t.total_ms / ch_t.total_ms
                                  : 0.0;
    const double m2m_speedup = m2m_ch_ms > 0 ? m2m_flat_ms / m2m_ch_ms : 0.0;
    table.AddRow({GraphFamilyName(family), bench::FmtInt(g.num_vertices()),
                  bench::Fmt("%.0f", ch_stats.build_ms),
                  bench::FmtInt(ch_stats.shortcuts_added),
                  bench::Fmt("%.1f", flat_t.total_ms * us_per),
                  bench::Fmt("%.1f", ch_t.total_ms * us_per),
                  bench::Fmt("%.1fx", ch_speedup),
                  bench::Fmt("%.1fx", m2m_speedup)});

    json.BeginObject();
    json.Field("family", GraphFamilyName(family));
    json.Field("vertices", g.num_vertices());
    json.Field("edges", g.num_edges());
    json.Field("ch_build_ms", ch_stats.build_ms);
    json.Field("ch_shortcuts", ch_stats.shortcuts_added);
    json.Field("ch_memory_bytes", ch->MemoryBytes());
    json.Field("p2p_flat_ms", flat_t.total_ms);
    json.Field("p2p_ch_ms", ch_t.total_ms);
    json.Field("p2p_speedup_ch", ch_speedup);
    json.Field("m2m_flat_ms", m2m_flat_ms);
    json.Field("m2m_ch_ms", m2m_ch_ms);
    json.Field("m2m_speedup_ch", m2m_speedup);
    json.Field("mismatches", ch_t.mismatches + m2m_mismatches);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  table.Print();
  const std::string out_path =
      json_out != nullptr ? json_out : "BENCH_index.json";
  if (json.WriteFile(out_path)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
  }
}

}  // namespace
}  // namespace skysr

int main() {
  skysr::Run();
  return 0;
}
