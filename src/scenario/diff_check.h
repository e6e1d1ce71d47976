// Differential verification harness: BssrEngine against the exact baselines
// on generated scenarios.
//
// For every (graph, taxonomy, query) instance of the deterministic scenario
// suite it runs BssrEngine under EVERY QueryOptions ablation combination
// (initial search x lower bounds x cache x queue discipline — Theorem 3
// says none of them may change the answer) and demands a bit-identical
// skyline against BruteForceSkySr. Plain single-category queries are
// additionally cross-checked against the naive SkySR baseline (both OSR
// engines), and each scenario's workload is replayed through a concurrent
// QueryService, which must reproduce the sequential engine bit-for-bit.
//
// The harness is a library function (not test-framework bound) so the gtest
// suite, the CLI and future fuzz drivers can all share it:
//
//   DiffReport report = RunDifferentialCheck({.num_instances = 216});
//   if (!report.ok()) puts(report.Summary().c_str());

#ifndef SKYSR_SCENARIO_DIFF_CHECK_H_
#define SKYSR_SCENARIO_DIFF_CHECK_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/route.h"
#include "core/search_stats.h"
#include "index/distance_oracle.h"
#include "retrieval/retriever_kind.h"
#include "scenario/scenario.h"

namespace skysr {

struct DiffCheckParams {
  /// (graph, taxonomy, query) triples to verify. Scenarios contribute their
  /// whole workload, so ~3 instances per suite index.
  int num_instances = 216;
  /// Master seed of the scenario suite (ScenarioSuiteSpec).
  uint64_t master_seed = 2026;
  /// Cross-check plain queries against the naive SkySR baseline.
  bool check_naive_baseline = true;
  /// Replay each scenario's workload through a 2-thread QueryService and
  /// compare with the sequential engine (bit-identical). The service shares
  /// the CH index and bucket tables when `oracle_kinds` holds kCh,
  /// exercising the one-index-many-workspaces threading.
  bool check_service = true;
  /// Attach an engine-lifetime SharedQueryCache (src/cache/) — with a
  /// prewarm snapshot on bucket-carrying engines — to every engine, and run
  /// the service replay with its shared query cache on. The whole sweep
  /// then runs WARM: every ablation x oracle x retriever combination of
  /// every query reads and writes the same per-engine cache, and each
  /// skyline must still be bit-identical to brute force. Comparing a
  /// shared_cache=false run's digest with a shared_cache=true run's (the
  /// CI SKYSR_XCACHE axis) proves cold/warm bit-identity end to end.
  bool shared_cache = false;
  /// Tolerance for the naive baseline only: its OSR engines sum leg
  /// distances in different orders, so a few ULPs of drift are legitimate.
  /// Engine-vs-brute-force comparisons are always exact (tolerance 0).
  double naive_tolerance = 1e-9;
  /// Index sweep: the full 16-combination ablation grid runs on one engine
  /// per kind — kFlat the index-free engine, kCh an engine with a CH index
  /// and category-bucket tables built per scenario graph — and every
  /// skyline must be bit-identical to brute force either way.
  std::vector<OracleKind> oracle_kinds = {OracleKind::kFlat, OracleKind::kCh};
  /// Retriever sweep: on the CH engine the ablation grid runs once per
  /// retriever kind (kBucket pins the bucket-served NNinit hops and
  /// expansions). The kind has no effect without bucket tables, so the
  /// flat engine runs the grid once, with the first kind. kSettle is left
  /// out by default: a CH engine asked for it gets no bucket work at all
  /// and takes exactly the flat engine's path. Every combination must stay
  /// bit-identical to brute force.
  std::vector<RetrieverKind> retriever_kinds = {RetrieverKind::kAuto,
                                                RetrieverKind::kBucket};
};

/// One disagreement, with everything needed to reproduce it.
struct DiffMismatch {
  int suite_index = 0;       // ScenarioSuiteSpec index
  uint64_t master_seed = 0;  // suite master seed
  std::string scenario;      // spec name, e.g. "cluster-17"
  int query_index = 0;       // position in the scenario's workload
  std::string config;        // e.g. "init=0 lb=1 cache=1 queue=proposed"
  std::string detail;        // rendered expected-vs-actual staircases
};

struct DiffReport {
  int scenarios_run = 0;
  int instances_checked = 0;  // (graph, taxonomy, query) triples
  int64_t engine_runs = 0;    // BssrEngine::Run invocations
  int64_t baseline_runs = 0;  // brute-force + naive invocations
  /// SplitMix digest over every brute-force skyline's score bits, in suite
  /// order; equal seeds must yield equal digests (determinism proof). It
  /// mixes no engine output: engine runs are checked by the comparisons.
  uint64_t result_digest = 0;
  /// Queries the feasibility gate (core/feasibility.h) short-circuited, by
  /// InfeasibleReason (index = enum value; kNone stays 0). Every engine run
  /// of a query must reach the same verdict, else it is a mismatch.
  std::array<int, kNumInfeasibleReasons> infeasible_queries = {};
  std::vector<DiffMismatch> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string Summary() const;
};

/// Runs the harness over the scenario suite. Deterministic per params.
DiffReport RunDifferentialCheck(const DiffCheckParams& params);

/// Exact (bitwise) equality of two skylines as score staircases: same size
/// and identical (length, semantic) doubles position by position. Route
/// identity is NOT compared — equal-score representatives may differ.
bool BitIdenticalSkylines(const std::vector<Route>& a,
                          const std::vector<Route>& b);

/// Renders "{(length, semantic) ...}" with full double precision.
std::string RenderSkyline(const std::vector<Route>& routes);

}  // namespace skysr

#endif  // SKYSR_SCENARIO_DIFF_CHECK_H_
