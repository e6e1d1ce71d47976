// Differential verification: BssrEngine against the exact baselines on the
// generated scenario suite (src/scenario/diff_check.h).
//
// The headline test runs >= 200 (graph, taxonomy, query) instances spanning
// all three graph families and demands bit-identical skylines from every
// QueryOptions ablation combination. SKYSR_DIFF_INSTANCES overrides the
// instance count (the sanitizer CI job reduces it).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include <gtest/gtest.h>

#include "core/bssr_engine.h"
#include "index/ch_oracle.h"
#include "retrieval/category_buckets.h"
#include "scenario/diff_check.h"
#include "scenario/scenario.h"

namespace skysr {
namespace {

int EnvInstances(int def) {
  const char* v = std::getenv("SKYSR_DIFF_INSTANCES");
  if (v == nullptr) return def;
  const int n = std::atoi(v);
  return n > 0 ? n : def;
}

// SKYSR_XCACHE=on|1 attaches an engine-lifetime SharedQueryCache (with a
// prewarm snapshot on bucket-carrying engines) to every engine of the sweep
// and turns the service replay's shared query cache on — the CI warm-state
// axis. Anything else (or unset) keeps the cold per-query state. Every
// engine run is compared with brute force in both states, and that
// comparison is what proves cold/warm bit-identity. The printed digest
// mixes only the brute-force skylines, so equal digests across the two
// jobs show only that both checked the same answers.
bool EnvXCache() {
  const char* v = std::getenv("SKYSR_XCACHE");
  if (v == nullptr) return false;
  return std::string_view(v) == "on" || std::string_view(v) == "1";
}

// The acceptance bar: >= 200 instances, every ablation combo bit-identical
// to brute force under EVERY oracle kind and EVERY retriever kind, naive
// baseline and QueryService replay (sharing the index + bucket tables)
// agreeing too.
TEST(DifferentialTest, EngineMatchesBaselinesOnGeneratedScenarios) {
  DiffCheckParams params;
  params.num_instances = EnvInstances(216);
  params.shared_cache = EnvXCache();
  const DiffReport report = RunDifferentialCheck(params);
  EXPECT_GE(report.instances_checked, params.num_instances);
  // 8 toggle combos x 2 queue disciplines per instance: once on the flat
  // engine, once per retriever kind on the CH + bucket engine.
  int64_t runs_per_instance = 0;
  for (const OracleKind kind : params.oracle_kinds) {
    runs_per_instance +=
        16 * (kind == OracleKind::kCh
                  ? static_cast<int64_t>(params.retriever_kinds.size())
                  : 1);
  }
  EXPECT_GE(report.engine_runs,
            runs_per_instance * report.instances_checked);
  for (const DiffMismatch& m : report.mismatches) {
    ADD_FAILURE() << m.scenario << " query " << m.query_index
                  << " (suite index " << m.suite_index << ", master seed "
                  << m.master_seed << ") [" << m.config
                  << "]: " << m.detail;
  }
  EXPECT_TRUE(report.ok()) << report.Summary();
  std::printf("%s\n", report.Summary().c_str());
  // The sweep reaches the feasibility gate: the default 216 instances hold
  // queries with an unmatched position, each one checked against brute
  // force and against every other engine run above.
  if (params.num_instances >= 216) {
    EXPECT_GE(report.infeasible_queries[static_cast<size_t>(
                  InfeasibleReason::kNoMatch)],
              1)
        << report.Summary();
  }
}

// The suite must actually span the three graph families (and both plain and
// complex workloads) within any 200-instance prefix.
TEST(DifferentialTest, SuiteCoversAllFamiliesAndWorkloadShapes) {
  bool seen_family[3] = {false, false, false};
  bool seen_plain = false, seen_complex = false, seen_multicat = false;
  for (int idx = 0; idx < 30; ++idx) {
    const ScenarioSpec spec = ScenarioSuiteSpec(idx, /*master_seed=*/2026);
    seen_family[static_cast<int>(spec.graph.family)] = true;
    if (spec.workload.all_of_rate > 0) {
      seen_complex = true;
    } else {
      seen_plain = true;
    }
    if (spec.pois.multi_category_rate > 0) seen_multicat = true;
  }
  EXPECT_TRUE(seen_family[0] && seen_family[1] && seen_family[2]);
  EXPECT_TRUE(seen_plain);
  EXPECT_TRUE(seen_complex);
  EXPECT_TRUE(seen_multicat);
}

// Workspace-reuse determinism: the engine's QueryWorkspace (skyline, arena,
// Q_b, flat cache + candidate pool, bucket scan state,
// resumable slots, every scratch) persists across queries; 100 sequential
// mixed queries on ONE engine must be bit-identical — routes, scores and
// PoI witnesses — to running each query on a freshly constructed engine.
// The contract is deliberately about RESULTS, not work counters: warm state
// (shared caches, persistent retriever slots) is allowed to skip work, it
// is never allowed to change an answer. Runs twice: the classic oracle-less
// engine, and an engine with CH oracle + category-bucket tables so the
// retrieval-backend state is exercised under reuse too.
TEST(DifferentialTest, WorkspaceReuseIsBitIdenticalToFreshEngines) {
  for (const bool with_buckets : {false, true}) {
    int ran = 0;
    for (int idx = 0; ran < 100; ++idx) {
      const Scenario sc = MakeScenario(ScenarioSuiteSpec(idx, /*seed=*/777));
      std::unique_ptr<ChOracle> ch;
      std::unique_ptr<CategoryBucketIndex> buckets;
      if (with_buckets) {
        ch = std::make_unique<ChOracle>(
            ChOracle::Build(sc.dataset.graph));
        buckets = std::make_unique<CategoryBucketIndex>(
            CategoryBucketIndex::Build(sc.dataset.graph, *ch));
      }
      BssrEngine reused(sc.dataset.graph, sc.dataset.forest, ch.get(),
                        buckets.get());
      for (size_t qi = 0; qi < sc.queries.size() && ran < 100; ++qi, ++ran) {
        const Query& q = sc.queries[qi];
        const auto a = reused.Run(q);
        BssrEngine fresh(sc.dataset.graph, sc.dataset.forest, ch.get(),
                         buckets.get());
        const auto b = fresh.Run(q);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(a->routes.size(), b->routes.size())
            << sc.spec.name << " query " << qi;
        for (size_t r = 0; r < a->routes.size(); ++r) {
          EXPECT_EQ(a->routes[r].scores.length, b->routes[r].scores.length);
          EXPECT_EQ(a->routes[r].scores.semantic,
                    b->routes[r].scores.semantic);
          EXPECT_EQ(a->routes[r].pois, b->routes[r].pois)
              << sc.spec.name << " query " << qi << " route " << r;
        }
      }
    }
    EXPECT_EQ(ran, 100);
  }
}

// Determinism: the same (instance count, master seed) must reproduce the
// same skylines bit-for-bit, captured by the digest; a different master
// seed must explore a different space.
TEST(DifferentialTest, DeterministicFromFixedSeed) {
  DiffCheckParams params;
  params.num_instances = 24;
  params.check_service = false;  // keep the repeat runs cheap
  const DiffReport a = RunDifferentialCheck(params);
  const DiffReport b = RunDifferentialCheck(params);
  EXPECT_TRUE(a.ok()) << a.Summary();
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.instances_checked, b.instances_checked);
  EXPECT_EQ(a.engine_runs, b.engine_runs);

  params.master_seed = 777;
  const DiffReport c = RunDifferentialCheck(params);
  EXPECT_TRUE(c.ok()) << c.Summary();
  EXPECT_NE(a.result_digest, c.result_digest);
}

}  // namespace
}  // namespace skysr
