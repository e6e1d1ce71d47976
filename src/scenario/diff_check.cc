#include "scenario/diff_check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include <memory>
#include <optional>
#include <span>

#include "baseline/brute_force.h"
#include "baseline/naive_skysr.h"
#include "cache/shared_query_cache.h"
#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "retrieval/bucket_retriever.h"
#include "retrieval/category_buckets.h"
#include "service/query_service.h"
#include "util/rng.h"

namespace skysr {
namespace {

bool IsPlainQuery(const Query& q) {
  for (const CategoryPredicate& p : q.sequence) {
    if (p.any_of.size() != 1 || !p.all_of.empty() || !p.none_of.empty()) {
      return false;
    }
  }
  return true;
}

std::string RenderConfig(const QueryOptions& opts, OracleKind oracle) {
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                "init=%d lb=%d cache=%d queue=%s oracle=%s retriever=%s",
                opts.use_initial_search, opts.use_lower_bounds,
                opts.use_cache,
                opts.queue_discipline == QueueDiscipline::kProposed
                    ? "proposed"
                    : "distance",
                OracleKindName(oracle), RetrieverKindName(opts.retriever));
  return buf;
}

/// Score staircase sorted by (length, semantic); engine outputs are already
/// staircases, but sorting copies makes the comparison independent of that.
std::vector<RouteScores> SortedScores(const std::vector<Route>& routes) {
  std::vector<RouteScores> out;
  out.reserve(routes.size());
  for (const Route& r : routes) out.push_back(r.scores);
  std::sort(out.begin(), out.end(),
            [](const RouteScores& a, const RouteScores& b) {
              if (a.length != b.length) return a.length < b.length;
              return a.semantic < b.semantic;
            });
  return out;
}

/// Near-equality for the naive baseline (summation-order ULP drift).
bool SkylinesNear(const std::vector<Route>& a, const std::vector<Route>& b,
                  double tol) {
  const auto va = SortedScores(a);
  const auto vb = SortedScores(b);
  if (va.size() != vb.size()) return false;
  for (size_t i = 0; i < va.size(); ++i) {
    const double lscale = std::max(
        {1.0, std::abs(va[i].length), std::abs(vb[i].length)});
    if (std::abs(va[i].length - vb[i].length) > tol * lscale) return false;
    if (std::abs(va[i].semantic - vb[i].semantic) > tol) return false;
  }
  return true;
}

void MixInto(uint64_t* digest, uint64_t v) {
  uint64_t s = *digest ^ (v + 0x9E3779B97F4A7C15ULL);
  *digest = SplitMix64(s);
}

void MixSkyline(uint64_t* digest, const std::vector<Route>& routes) {
  MixInto(digest, routes.size());
  for (const Route& r : routes) {
    MixInto(digest, std::bit_cast<uint64_t>(r.scores.length));
    MixInto(digest, std::bit_cast<uint64_t>(r.scores.semantic));
  }
}

}  // namespace

bool BitIdenticalSkylines(const std::vector<Route>& a,
                          const std::vector<Route>& b) {
  const auto va = SortedScores(a);
  const auto vb = SortedScores(b);
  if (va.size() != vb.size()) return false;
  for (size_t i = 0; i < va.size(); ++i) {
    if (va[i].length != vb[i].length) return false;
    if (va[i].semantic != vb[i].semantic) return false;
  }
  return true;
}

std::string RenderSkyline(const std::vector<Route>& routes) {
  std::string out = "{";
  for (const RouteScores& s : SortedScores(routes)) {
    char buf[80];
    std::snprintf(buf, sizeof(buf), " (%.17g, %.17g)", s.length, s.semantic);
    out += buf;
  }
  return out + " }";
}

std::string DiffReport::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "differential check: %d scenarios, %d instances, "
                "%lld engine runs, %lld baseline runs, digest=%016llx, "
                "short-circuited no_match=%d hall=%d dest_unreachable=%d, "
                "%zu mismatches",
                scenarios_run, instances_checked,
                static_cast<long long>(engine_runs),
                static_cast<long long>(baseline_runs),
                static_cast<unsigned long long>(result_digest),
                infeasible_queries[static_cast<size_t>(
                    InfeasibleReason::kNoMatch)],
                infeasible_queries[static_cast<size_t>(
                    InfeasibleReason::kHall)],
                infeasible_queries[static_cast<size_t>(
                    InfeasibleReason::kDestUnreachable)],
                mismatches.size());
  std::string out = buf;
  const size_t shown = std::min<size_t>(mismatches.size(), 10);
  for (size_t i = 0; i < shown; ++i) {
    const DiffMismatch& m = mismatches[i];
    std::snprintf(buf, sizeof(buf),
                  "\n  [%s query %d, suite index %d, master seed %llu, %s] ",
                  m.scenario.c_str(), m.query_index, m.suite_index,
                  static_cast<unsigned long long>(m.master_seed),
                  m.config.c_str());
    out += buf;
    out += m.detail;
  }
  if (mismatches.size() > shown) out += "\n  ...";
  return out;
}

DiffReport RunDifferentialCheck(const DiffCheckParams& params) {
  DiffReport report;
  const std::vector<OracleKind> kinds =
      params.oracle_kinds.empty()
          ? std::vector<OracleKind>{OracleKind::kFlat}
          : params.oracle_kinds;
  const std::vector<RetrieverKind> retrievers =
      params.retriever_kinds.empty()
          ? std::vector<RetrieverKind>{RetrieverKind::kAuto}
          : params.retriever_kinds;
  for (int idx = 0; report.instances_checked < params.num_instances; ++idx) {
    const ScenarioSpec spec = ScenarioSuiteSpec(idx, params.master_seed);
    const Scenario sc = MakeScenario(spec);
    ++report.scenarios_run;

    // One engine per oracle kind, all over the same scenario dataset. The
    // flat kind maps to the classic index-free engine; CH engines carry a
    // CH index built fresh per scenario graph plus its category-bucket
    // tables, so the retriever sweep pins the bucket paths.
    std::vector<std::unique_ptr<ChOracle>> oracles;
    std::vector<std::unique_ptr<CategoryBucketIndex>> bucket_sets;
    std::vector<std::unique_ptr<SharedQueryCache>> xcaches;
    std::vector<BssrEngine> engines;
    const ChOracle* service_oracle = nullptr;
    const CategoryBucketIndex* service_buckets = nullptr;
    engines.reserve(kinds.size());
    for (const OracleKind kind : kinds) {
      oracles.push_back(kind == OracleKind::kCh
                            ? std::make_unique<ChOracle>(
                                  ChOracle::Build(sc.dataset.graph))
                            : nullptr);
      bucket_sets.push_back(
          oracles.back() != nullptr
              ? std::make_unique<CategoryBucketIndex>(
                    CategoryBucketIndex::Build(sc.dataset.graph,
                                               *oracles.back()))
              : nullptr);
      engines.emplace_back(sc.dataset.graph, sc.dataset.forest,
                           oracles.back().get(), bucket_sets.back().get());
      if (params.shared_cache) {
        // Warm-state axis: the engine keeps its cache for the WHOLE sweep —
        // hundreds of runs of every query share it — so any cross-query
        // contamination would surface as a skyline mismatch. Bucket-carrying
        // engines additionally start from a prewarm snapshot, covering the
        // snapshot-read path.
        xcaches.push_back(std::make_unique<SharedQueryCache>());
        engines.back().AttachSharedCache(xcaches.back().get());
        if (bucket_sets.back() != nullptr) {
          std::vector<VertexId> sources;
          const int64_t n =
              std::min<int64_t>(sc.dataset.graph.num_pois(), 64);
          sources.reserve(static_cast<size_t>(n));
          for (int64_t p = 0; p < n; ++p) {
            sources.push_back(
                sc.dataset.graph.VertexOfPoi(static_cast<PoiId>(p)));
          }
          xcaches.back()->SetSnapshot(
              std::make_shared<const FwdSnapshot>(BuildFwdSnapshot(
                  *bucket_sets.back(), sources,
                  WarmStateChecksum(sc.dataset.graph,
                                    oracles.back().get()))));
        }
      }
      // The service replay shares the CH index + buckets when present (the
      // one-index-many-workspaces threading with the bucket tables along).
      if (oracles.back() != nullptr) {
        service_oracle = oracles.back().get();
        service_buckets = bucket_sets.back().get();
      }
    }

    const auto record = [&](int query_index, std::string config,
                            std::string detail) {
      report.mismatches.push_back(DiffMismatch{
          idx, params.master_seed, spec.name, query_index, std::move(config),
          std::move(detail)});
    };

    // Default-option engine results, kept for the service replay check.
    std::vector<std::vector<Route>> default_results(sc.queries.size());
    std::vector<char> have_default(sc.queries.size(), 0);

    for (size_t qi = 0; qi < sc.queries.size(); ++qi) {
      const Query& q = sc.queries[qi];
      ++report.instances_checked;

      const QueryOptions defaults;
      auto brute = BruteForceSkySr(sc.dataset.graph, sc.dataset.forest, q,
                                   defaults);
      ++report.baseline_runs;
      if (!brute.ok()) {
        record(static_cast<int>(qi), "brute-force",
               brute.status().ToString());
        continue;
      }
      MixSkyline(&report.result_digest, *brute);

      // Every (ablation combination x oracle kind x retriever kind) must
      // reproduce the exact skyline: Theorem 3 for the toggles, the
      // exactness contract for the index layer, and the retrieval
      // subsystem's bit-identity contract for the backends. The retriever
      // kind only acts on engines with bucket tables, so the index-free
      // engine runs each ablation once. The feasibility gate reads no
      // option, so every run must reach the first run's verdict.
      std::optional<Infeasibility> verdict;
      for (size_t ki = 0; ki < kinds.size(); ++ki) {
        const std::span<const RetrieverKind> engine_retrievers(
            retrievers.data(),
            bucket_sets[ki] != nullptr ? retrievers.size() : 1);
        for (int bits = 0; bits < 8; ++bits) {
          for (QueueDiscipline disc :
               {QueueDiscipline::kProposed,
                QueueDiscipline::kDistanceBased}) {
            for (const RetrieverKind rkind : engine_retrievers) {
              QueryOptions opts;
              opts.use_initial_search = (bits & 1) != 0;
              opts.use_lower_bounds = (bits & 2) != 0;
              opts.use_cache = (bits & 4) != 0;
              opts.queue_discipline = disc;
              opts.retriever = rkind;
              auto got = engines[ki].Run(q, opts);
              ++report.engine_runs;
              const auto fail = [&](const std::string& detail) {
                record(static_cast<int>(qi), RenderConfig(opts, kinds[ki]),
                       detail);
              };
              if (!got.ok()) {
                fail(got.status().ToString());
                continue;
              }
              const Infeasibility& gate = got->stats.infeasible;
              if (!verdict) verdict = gate;
              if (gate != *verdict) {
                fail("feasibility verdict " + gate.ToString() + ", first " +
                     verdict->ToString());
              }
              if (!BitIdenticalSkylines(got->routes, *brute)) {
                fail("expected " + RenderSkyline(*brute) + " got " +
                     RenderSkyline(got->routes));
              }
              if (ki == 0 && bits == 7 &&
                  disc == QueueDiscipline::kProposed &&
                  rkind == retrievers[0]) {
                default_results[qi] = got->routes;
                have_default[qi] = 1;
              }
            }
          }
        }
      }

      if (verdict && verdict->fired()) {
        ++report.infeasible_queries[static_cast<size_t>(verdict->reason)];
      }

      if (params.check_naive_baseline && IsPlainQuery(q)) {
        for (OsrEngineKind kind :
             {OsrEngineKind::kDijkstraBased, OsrEngineKind::kPne}) {
          // The tolerance absorbs the OSR engines' summation-order drift.
          auto naive = RunNaiveSkySr(sc.dataset.graph, sc.dataset.forest, q,
                                     defaults, kind);
          ++report.baseline_runs;
          const char* name = kind == OsrEngineKind::kDijkstraBased
                                 ? "naive-dijkstra"
                                 : "naive-pne";
          if (!naive.ok()) {
            record(static_cast<int>(qi), name, naive.status().ToString());
          } else if (!SkylinesNear(naive->routes, *brute,
                                   params.naive_tolerance)) {
            record(static_cast<int>(qi), name,
                   "expected " + RenderSkyline(*brute) + " got " +
                       RenderSkyline(naive->routes));
          }
        }
      }
    }

    if (params.check_service && !sc.queries.empty()) {
      ServiceConfig cfg;
      cfg.num_threads = 2;
      cfg.queue_capacity = 64;
      cfg.cache_capacity = 16;
      cfg.oracle = service_oracle;  // shared index, per-worker workspaces
      cfg.buckets = service_buckets;  // shared bucket tables likewise
      cfg.shared_query_cache = params.shared_cache;
      cfg.xcache_prewarm_pois = 64;  // small: scenario graphs are small
      QueryService service(sc.dataset.graph, sc.dataset.forest, cfg);
      const auto results = service.RunBatch(sc.queries);
      for (size_t qi = 0; qi < results.size(); ++qi) {
        // A failed baseline/engine run already produced a mismatch above;
        // comparing against the missing reference would only add noise.
        if (!have_default[qi]) continue;
        if (!results[qi].ok()) {
          record(static_cast<int>(qi), "service",
                 results[qi].status().ToString());
        } else if (!BitIdenticalSkylines(results[qi].ValueOrDie().routes,
                                         default_results[qi])) {
          record(static_cast<int>(qi), "service",
                 "expected " + RenderSkyline(default_results[qi]) + " got " +
                     RenderSkyline(results[qi].ValueOrDie().routes));
        }
      }
    }
  }
  return report;
}

}  // namespace skysr
