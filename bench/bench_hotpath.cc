// Core-engine hot-path benchmark: single-thread query throughput,
// settles/sec, expansions/sec, allocations per query and latency
// percentiles across the three scenario graph families, emitted both as a
// human table and as BENCH_core.json so the perf trajectory is tracked
// PR-over-PR.
//
// The same binary doubles as the CI perf-smoke gate: the algorithm's work
// counters (settles, relaxations, enqueues, ...) are deterministic per
// (suite, seed) regardless of machine speed, so `--write-golden FILE`
// records them and `--check-golden FILE` fails loudly when they drift —
// a counter regression gate with no flaky wall-time threshold. The golden
// suite uses a fixed small configuration independent of the SKYSR_BENCH_*
// environment knobs.
//
// Env knobs (bench suite only):
//   SKYSR_BENCH_SCALE    multiplies graph sizes   (default 1.0)
//   SKYSR_BENCH_QUERIES  queries per family       (default 60)
//   SKYSR_BENCH_REPS     timed repetitions        (default 3)
//   SKYSR_BENCH_JSON     output path              (default BENCH_core.json)

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "retrieval/category_buckets.h"
#include "scenario/scenario.h"
#include "util/timer.h"

// ---------------------------------------------------------------------------
// Allocation counting hook: the bench overrides global operator new/delete
// (binary-local, zero cost for the library elsewhere) so "allocations per
// query" is measured, not estimated.
namespace {
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace skysr::bench {
namespace {

/// The mid-size mixed workload of one graph family: sequence sizes 1-4,
/// complex predicates, destinations and multi-category PoIs all present so
/// every engine path is exercised.
ScenarioSpec HotpathSpec(GraphFamily family, int64_t vertices,
                         int num_queries) {
  ScenarioSpec spec;
  spec.name = GraphFamilyName(family);
  spec.graph.family = family;
  spec.graph.target_vertices = vertices;
  spec.graph.extra_edge_fraction = 0.3;
  spec.graph.weights = WeightModel::kEuclidean;
  spec.taxonomy.num_trees = 4;
  spec.taxonomy.max_fanout = 4;
  spec.taxonomy.max_levels = 3;
  spec.pois.num_pois = std::max<int64_t>(8, vertices / 5);
  spec.pois.zipf_theta = 0.5;
  spec.pois.multi_category_rate = 0.1;
  spec.workload.num_queries = num_queries;
  spec.workload.min_sequence = 1;
  spec.workload.max_sequence = 4;
  spec.workload.multi_any_rate = 0.15;
  spec.workload.all_of_rate = 0.1;
  spec.workload.none_of_rate = 0.1;
  spec.workload.destination_rate = 0.25;
  SeedScenarioSpec(&spec, /*master_seed=*/20260730 + static_cast<int>(family));
  return spec;
}

/// Deterministic work counters of one pass over a family's workload.
struct WorkCounters {
  int64_t settled = 0;
  int64_t relaxed = 0;
  int64_t enqueued = 0;
  int64_t dequeued = 0;
  int64_t mdijkstra_runs = 0;
  int64_t cache_hits = 0;
  int64_t cand_examined = 0;
  int64_t cand_simd_skipped = 0;
  int64_t dom_pruned = 0;
  int64_t skyline_routes = 0;
  // Retrieval-subsystem paths (zero in the settle config).
  int64_t bucket_runs = 0;
  int64_t resume_runs = 0;
  int64_t fwd_searches = 0;
  int64_t fwd_reuses = 0;
  int64_t bucket_cands = 0;
};

/// One benched engine configuration. "settle" is the PR 4 baseline path
/// (no index, classic expansions); "auto" is the production target: CH
/// oracle + category-bucket tables with the auto retriever; "warm" is the
/// same engine with an engine-lifetime SharedQueryCache attached — the
/// timed reps replay the workload on one engine, so every source repeats
/// and the warm cross-query path (cached forward searches, bucket-served
/// lower bounds, persistent resumable slots) is what gets measured. The
/// serving-mix acceptance bar (warm qps win, steady-state allocs/query)
/// reads off this row.
struct BenchConfig {
  const char* label;
  RetrieverKind retriever;
  bool with_index;
  bool with_xcache = false;
};

constexpr BenchConfig kConfigs[] = {
    {"settle", RetrieverKind::kSettle, false},
    {"auto", RetrieverKind::kAuto, true},
    {"warm", RetrieverKind::kAuto, true, true},
};

struct FamilyResult {
  std::string name;
  std::string config;
  int64_t vertices = 0;
  int64_t pois = 0;
  int64_t queries = 0;
  WorkCounters counters;
  double elapsed_s = 0;       // timed reps total
  int64_t timed_queries = 0;  // queries x reps
  int64_t allocs = 0;         // during the timed reps
  double index_build_ms = 0;  // CH + bucket preprocessing (auto config)
  std::vector<double> latencies_ms;
  bool has_xcache = false;  // warm config: counters below are populated
  SharedCacheCounters xcache;
  int64_t xcache_resident_bytes = 0;
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

FamilyResult RunFamily(const Scenario& sc, const BenchConfig& config,
                       int reps) {
  FamilyResult out;
  out.name = sc.spec.name;
  out.config = config.label;
  out.vertices = sc.dataset.graph.num_vertices();
  out.pois = sc.dataset.graph.num_pois();
  out.queries = static_cast<int64_t>(sc.queries.size());

  std::unique_ptr<ChOracle> ch;
  std::unique_ptr<CategoryBucketIndex> buckets;
  if (config.with_index) {
    WallTimer index_timer;
    ch = std::make_unique<ChOracle>(ChOracle::Build(sc.dataset.graph));
    buckets = std::make_unique<CategoryBucketIndex>(
        CategoryBucketIndex::Build(sc.dataset.graph, *ch));
    out.index_build_ms = index_timer.ElapsedMillis();
  }
  BssrEngine engine(sc.dataset.graph, sc.dataset.forest, ch.get(),
                    buckets.get());
  std::optional<SharedQueryCache> xcache;
  if (config.with_xcache) {
    xcache.emplace();
    engine.AttachSharedCache(&*xcache);
    out.has_xcache = true;
  }
  QueryOptions options;
  options.retriever = config.retriever;

  // Warm-up pass: brings the engine to steady state (workspace capacities
  // grown) and collects the deterministic work counters.
  for (const Query& q : sc.queries) {
    const auto r = engine.Run(q, options);
    SKYSR_CHECK_MSG(r.ok(), "hotpath bench query failed");
    out.counters.settled += r->stats.vertices_settled;
    out.counters.relaxed += r->stats.edges_relaxed;
    out.counters.enqueued += r->stats.routes_enqueued;
    out.counters.dequeued += r->stats.routes_dequeued;
    out.counters.mdijkstra_runs += r->stats.mdijkstra_runs;
    out.counters.cache_hits += r->stats.mdijkstra_cache_hits;
    out.counters.cand_examined += r->stats.cand_examined;
    out.counters.cand_simd_skipped += r->stats.cand_simd_skipped;
    out.counters.dom_pruned += r->stats.qb_dominance_pruned;
    out.counters.skyline_routes += r->stats.skyline_size;
    out.counters.bucket_runs += r->stats.retriever_bucket_runs;
    out.counters.resume_runs += r->stats.retriever_resume_runs;
    out.counters.fwd_searches += r->stats.bucket_fwd_searches;
    out.counters.fwd_reuses += r->stats.bucket_fwd_reuses;
    out.counters.bucket_cands += r->stats.bucket_candidates;
  }

  // Timed reps: steady-state throughput, latency and allocation counts.
  const int64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Query& q : sc.queries) {
      WallTimer qt;
      const auto r = engine.Run(q, options);
      out.latencies_ms.push_back(qt.ElapsedMillis());
      SKYSR_CHECK_MSG(r.ok(), "hotpath bench query failed");
    }
  }
  out.elapsed_s = timer.ElapsedSeconds();
  out.allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  out.timed_queries = static_cast<int64_t>(sc.queries.size()) * reps;
  if (xcache.has_value()) {
    out.xcache = xcache->Counters();
    out.xcache_resident_bytes = xcache->ResidentBytes();
  }
  return out;
}

/// Canonical text form of the golden counters; a byte-for-byte comparison is
/// the whole check.
std::string GoldenText(const std::vector<FamilyResult>& families) {
  std::string out = "skysr hotpath golden counters v4\n";
  for (const FamilyResult& f : families) {
    char buf[448];
    std::snprintf(buf, sizeof(buf),
                  "%s/%s queries=%lld settled=%lld relaxed=%lld "
                  "enqueued=%lld dequeued=%lld runs=%lld cache_hits=%lld "
                  "cand_examined=%lld simd_skipped=%lld "
                  "dom_pruned=%lld skyline=%lld "
                  "bucket_runs=%lld resume_runs=%lld fwd_searches=%lld "
                  "fwd_reuses=%lld bucket_cands=%lld\n",
                  f.name.c_str(), f.config.c_str(),
                  static_cast<long long>(f.queries),
                  static_cast<long long>(f.counters.settled),
                  static_cast<long long>(f.counters.relaxed),
                  static_cast<long long>(f.counters.enqueued),
                  static_cast<long long>(f.counters.dequeued),
                  static_cast<long long>(f.counters.mdijkstra_runs),
                  static_cast<long long>(f.counters.cache_hits),
                  static_cast<long long>(f.counters.cand_examined),
                  static_cast<long long>(f.counters.cand_simd_skipped),
                  static_cast<long long>(f.counters.dom_pruned),
                  static_cast<long long>(f.counters.skyline_routes),
                  static_cast<long long>(f.counters.bucket_runs),
                  static_cast<long long>(f.counters.resume_runs),
                  static_cast<long long>(f.counters.fwd_searches),
                  static_cast<long long>(f.counters.fwd_reuses),
                  static_cast<long long>(f.counters.bucket_cands));
    out += buf;
  }
  return out;
}

/// Per-counter diff of two golden texts: lines are "label key=value ...",
/// so when the row sets line up the mismatch report can name exactly which
/// counters drifted and by how much, instead of dumping two walls of text.
/// Falls back to the full dump when the structure itself differs (header
/// bump, added/removed rows or fields).
struct GoldenRow {
  std::string label;                                        // "family/config"
  std::vector<std::pair<std::string, long long>> counters;  // in line order
};

std::vector<GoldenRow> ParseGoldenRows(const std::string& text) {
  std::vector<GoldenRow> rows;
  size_t pos = text.find('\n');  // skip the header line
  if (pos == std::string::npos) return rows;
  ++pos;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    GoldenRow row;
    size_t tok = 0;
    while (tok < line.size()) {
      size_t end = line.find(' ', tok);
      if (end == std::string::npos) end = line.size();
      const std::string field = line.substr(tok, end - tok);
      tok = end + 1;
      if (field.empty()) continue;
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        row.label = field;
      } else {
        row.counters.emplace_back(field.substr(0, eq),
                                  std::atoll(field.c_str() + eq + 1));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Prints "row label: counter expected -> actual (delta)" lines; returns
/// false when the two texts are not row/field aligned (caller falls back to
/// the full dump).
bool PrintGoldenCounterDiff(const std::string& expected,
                            const std::string& actual) {
  const size_t ehdr = expected.find('\n');
  const size_t ahdr = actual.find('\n');
  if (ehdr == std::string::npos || ahdr == std::string::npos) return false;
  if (expected.substr(0, ehdr) != actual.substr(0, ahdr)) {
    std::fprintf(stderr, "golden header differs: \"%s\" vs \"%s\"\n",
                 expected.substr(0, ehdr).c_str(),
                 actual.substr(0, ahdr).c_str());
    return false;
  }
  const std::vector<GoldenRow> exp = ParseGoldenRows(expected);
  const std::vector<GoldenRow> act = ParseGoldenRows(actual);
  if (exp.size() != act.size()) return false;
  int diffs = 0;
  for (size_t i = 0; i < exp.size(); ++i) {
    if (exp[i].label != act[i].label ||
        exp[i].counters.size() != act[i].counters.size()) {
      return false;
    }
    for (size_t c = 0; c < exp[i].counters.size(); ++c) {
      if (exp[i].counters[c].first != act[i].counters[c].first) return false;
      const long long e = exp[i].counters[c].second;
      const long long a = act[i].counters[c].second;
      if (e != a) {
        std::fprintf(stderr, "  %-22s %-14s %lld -> %lld (%+lld)\n",
                     exp[i].label.c_str(), exp[i].counters[c].first.c_str(),
                     e, a, a - e);
        ++diffs;
      }
    }
  }
  return diffs > 0;
}

std::string ReadFileOrEmpty(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

bool WriteFile(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

/// The fixed golden suite: small, env-independent, still covering all three
/// families, every predicate/destination shape and every engine
/// configuration — settle (the classic path), auto (the production cost
/// model, resume-dominated at this size), forced bucket (so bucket-scan
/// work counters are pinned even where the cost model would decline) and
/// warm (auto with an engine-lifetime SharedQueryCache, pinning the
/// cross-query cache-served work) — so retriever-path and cache-path work
/// regressions fail the gate too.
std::vector<FamilyResult> RunGoldenSuite() {
  static constexpr BenchConfig kGoldenConfigs[] = {
      {"settle", RetrieverKind::kSettle, false},
      {"auto", RetrieverKind::kAuto, true},
      {"bucket", RetrieverKind::kBucket, true},
      {"warm", RetrieverKind::kAuto, true, true},
  };
  std::vector<FamilyResult> out;
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    const Scenario sc =
        MakeScenario(HotpathSpec(family, /*vertices=*/800,
                                 /*num_queries=*/24));
    for (const BenchConfig& config : kGoldenConfigs) {
      out.push_back(RunFamily(sc, config, /*reps=*/0));
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  const char* write_golden = nullptr;
  const char* check_golden = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-golden") == 0 && i + 1 < argc) {
      write_golden = argv[++i];
    } else if (std::strcmp(argv[i], "--check-golden") == 0 && i + 1 < argc) {
      check_golden = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--write-golden FILE | "
                   "--check-golden FILE]\n");
      return 2;
    }
  }

  const double scale = EnvDouble("SKYSR_BENCH_SCALE", 1.0);
  const int num_queries = EnvInt("SKYSR_BENCH_QUERIES", 60);
  const int reps = EnvInt("SKYSR_BENCH_REPS", 3);
  const char* json_path = std::getenv("SKYSR_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_core.json";
  const int64_t vertices =
      std::max<int64_t>(200, static_cast<int64_t>(2500 * scale));

  std::printf("== hotpath bench: %lld vertices/family, %d queries, %d reps\n",
              static_cast<long long>(vertices), num_queries, reps);

  std::vector<FamilyResult> families;
  for (const GraphFamily family :
       {GraphFamily::kGrid, GraphFamily::kCluster, GraphFamily::kSmallWorld}) {
    const Scenario sc =
        MakeScenario(HotpathSpec(family, vertices, num_queries));
    for (const BenchConfig& config : kConfigs) {
      families.push_back(RunFamily(sc, config, reps));
    }
  }

  TablePrinter table({"family", "config", "V", "PoI", "qps", "p50 ms",
                      "p99 ms", "settles/s", "expansions/s", "allocs/query"});
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "hotpath");
  WriteStandardMeta(&json);
  json.Field("scale", scale);
  json.Field("reps", static_cast<int64_t>(reps));
  json.BeginArray("families");

  constexpr size_t kNumConfigs = std::size(kConfigs);
  double total_queries = 0, total_elapsed = 0;
  double config_queries[kNumConfigs] = {}, config_elapsed[kNumConfigs] = {};
  for (FamilyResult& f : families) {
    const double qps =
        f.elapsed_s > 0 ? static_cast<double>(f.timed_queries) / f.elapsed_s
                        : 0;
    // Work rates use the deterministic single-pass counters scaled by reps:
    // the timed loop does `reps` identical passes.
    const double settles_per_s =
        f.elapsed_s > 0 ? static_cast<double>(f.counters.settled * reps) /
                              f.elapsed_s
                        : 0;
    const double expansions = static_cast<double>(
        f.counters.mdijkstra_runs + f.counters.cache_hits);
    const double expansions_per_s =
        f.elapsed_s > 0 ? expansions * reps / f.elapsed_s : 0;
    const double allocs_per_query =
        f.timed_queries > 0
            ? static_cast<double>(f.allocs) / static_cast<double>(f.timed_queries)
            : 0;
    const double p50 = Percentile(f.latencies_ms, 0.50);
    const double p99 = Percentile(f.latencies_ms, 0.99);
    total_queries += static_cast<double>(f.timed_queries);
    total_elapsed += f.elapsed_s;
    for (size_t ci = 0; ci < kNumConfigs; ++ci) {
      if (f.config == kConfigs[ci].label) {
        config_queries[ci] += static_cast<double>(f.timed_queries);
        config_elapsed[ci] += f.elapsed_s;
      }
    }

    table.AddRow({f.name, f.config, FmtInt(f.vertices), FmtInt(f.pois),
                  Fmt("%.1f", qps), Fmt("%.3f", p50), Fmt("%.3f", p99),
                  Fmt("%.0f", settles_per_s), Fmt("%.0f", expansions_per_s),
                  Fmt("%.1f", allocs_per_query)});

    json.BeginObject();
    json.Field("family", f.name);
    json.Field("config", f.config);
    json.Field("index_build_ms", f.index_build_ms);
    json.Field("vertices", f.vertices);
    json.Field("pois", f.pois);
    json.Field("queries", f.queries);
    json.Field("qps", qps);
    json.Field("p50_ms", p50);
    json.Field("p99_ms", p99);
    json.Field("settles_per_sec", settles_per_s);
    json.Field("expansions_per_sec", expansions_per_s);
    json.Field("allocs_per_query", allocs_per_query);
    json.BeginObject("counters");
    json.Field("settled", f.counters.settled);
    json.Field("relaxed", f.counters.relaxed);
    json.Field("enqueued", f.counters.enqueued);
    json.Field("dequeued", f.counters.dequeued);
    json.Field("mdijkstra_runs", f.counters.mdijkstra_runs);
    json.Field("cache_hits", f.counters.cache_hits);
    json.Field("cand_examined", f.counters.cand_examined);
    json.Field("cand_simd_skipped", f.counters.cand_simd_skipped);
    json.Field("qb_dominance_pruned", f.counters.dom_pruned);
    json.Field("skyline_routes", f.counters.skyline_routes);
    json.Field("bucket_runs", f.counters.bucket_runs);
    json.Field("resume_runs", f.counters.resume_runs);
    json.Field("bucket_fwd_searches", f.counters.fwd_searches);
    json.Field("bucket_fwd_reuses", f.counters.fwd_reuses);
    json.Field("bucket_candidates", f.counters.bucket_cands);
    json.EndObject();
    if (f.has_xcache) {
      json.BeginObject("xcache");
      json.Field("fwd_hits", f.xcache.fwd_hits);
      json.Field("fwd_misses", f.xcache.fwd_misses);
      json.Field("fwd_evictions", f.xcache.fwd_evictions);
      json.Field("resume_reuses", f.xcache.resume_reuses);
      json.Field("resume_evictions", f.xcache.resume_evictions);
      json.Field("resident_bytes", f.xcache_resident_bytes);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  const double settle_qps =
      config_elapsed[0] > 0 ? config_queries[0] / config_elapsed[0] : 0;
  const double auto_qps =
      config_elapsed[1] > 0 ? config_queries[1] / config_elapsed[1] : 0;
  const double warm_qps =
      config_elapsed[2] > 0 ? config_queries[2] / config_elapsed[2] : 0;
  double warm_allocs = 0, warm_queries = 0;
  for (const FamilyResult& f : families) {
    if (f.has_xcache) {
      warm_allocs += static_cast<double>(f.allocs);
      warm_queries += static_cast<double>(f.timed_queries);
    }
  }
  const double warm_allocs_per_query =
      warm_queries > 0 ? warm_allocs / warm_queries : 0;
  // `total_qps` tracks the production configuration (auto retriever over
  // CH + buckets) for trajectory continuity; the settle config is the PR 4
  // baseline path and the warm config the repeated-source serving mix
  // (engine-lifetime SharedQueryCache attached).
  json.Field("total_qps", auto_qps);
  json.Field("total_qps_settle", settle_qps);
  json.Field("total_qps_auto", auto_qps);
  json.Field("total_qps_warm", warm_qps);
  json.Field("warm_allocs_per_query", warm_allocs_per_query);
  json.EndObject();

  table.Print();
  std::printf(
      "\ntotal single-thread throughput: settle %.1f qps, auto %.1f qps "
      "(%.2fx), warm %.1f qps (%.2fx vs auto, %.1f allocs/query)\n",
      settle_qps, auto_qps, settle_qps > 0 ? auto_qps / settle_qps : 0.0,
      warm_qps, auto_qps > 0 ? warm_qps / auto_qps : 0.0,
      warm_allocs_per_query);
  if (!json.WriteFile(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (write_golden != nullptr || check_golden != nullptr) {
    std::printf("\n== golden counter suite (fixed small configuration)\n");
    const std::string text = GoldenText(RunGoldenSuite());
    if (write_golden != nullptr) {
      if (!WriteFile(write_golden, text)) {
        std::fprintf(stderr, "failed to write %s\n", write_golden);
        return 1;
      }
      std::printf("wrote golden counters to %s\n%s", write_golden,
                  text.c_str());
    }
    if (check_golden != nullptr) {
      const std::string expected = ReadFileOrEmpty(check_golden);
      if (expected.empty()) {
        std::fprintf(stderr, "golden file %s missing or empty\n",
                     check_golden);
        return 1;
      }
      if (expected != text) {
        std::fprintf(stderr, "GOLDEN COUNTER MISMATCH (%s)\n", check_golden);
        if (!PrintGoldenCounterDiff(expected, text)) {
          // Structural mismatch (header/rows/fields) — dump both in full.
          std::fprintf(stderr, "-- expected:\n%s-- actual:\n%s",
                       expected.c_str(), text.c_str());
        }
        std::fprintf(
            stderr,
            "The counters are deterministic per toolchain: a diff means an\n"
            "algorithmic-work change in the engine, OR a libm/compiler\n"
            "rounding change (scenario generation uses pow/log/cos). If the\n"
            "change is intentional or the toolchain moved, regenerate with\n"
            "  bench_hotpath --write-golden %s\n"
            "and commit the result alongside an explanation.\n",
            check_golden);
        return 1;
      }
      std::printf("golden counters match %s\n", check_golden);
    }
  }
  return 0;
}

}  // namespace
}  // namespace skysr::bench

int main(int argc, char** argv) { return skysr::bench::Main(argc, argv); }
